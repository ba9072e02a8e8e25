"""Minimal estimator protocol shared by the training stack.

The paper trains its models with scikit-learn and RandomizedSearchCV
(Section III-A).  scikit-learn is not available offline, so this package
implements the needed subset from scratch; :class:`BaseEstimator` supplies
the ``get_params``/``set_params``/``clone`` contract that the model
selection utilities rely on, mirroring the sklearn protocol.

It also supplies the fitted-model cache contract: :meth:`BaseEstimator.
fit_key` names the result of one ``fit`` by content, and
:meth:`~BaseEstimator.fitted_state` / :meth:`~BaseEstimator.
load_fitted_state` move the learned attributes through JSON bit-exactly
(arrays as dtype, shape and base64 raw bytes; no pickle, because a
stored state is untrusted input).
"""

from __future__ import annotations

import base64
import binascii
import copy
import hashlib
import inspect
import json
import math
import re
from functools import lru_cache
from pathlib import Path

import numpy as np

__all__ = ["BaseEstimator", "clone"]

# Array dtype kinds a stored state may carry: bool, integers, floats,
# complex.  Object, string and void arrays are never decoded, and a
# stored dtype string must be exactly NumPy's own ``dtype.str`` form.
_NUMERIC_KINDS = "biufc"
_DTYPE_STR = re.compile(r"[<>|][biufc][0-9]{1,2}")


def _encode(value):
    """One schema-checked learned attribute as JSON-safe data."""
    if isinstance(value, np.ndarray):
        return {"ndarray": [value.dtype.str, list(value.shape),
                            base64.b64encode(value.tobytes()).decode()]}
    if type(value) is list:
        return [_encode(item) for item in value]
    return value  # a Python int or float


def _decode_array(spec) -> np.ndarray:
    if not (type(spec) is list and len(spec) == 3
            and [type(part) for part in spec] == [str, list, str]):
        raise ValueError("an array is [dtype, shape, base64]")
    dtype_str, shape, blob = spec
    try:
        dtype = np.dtype(dtype_str) if _DTYPE_STR.fullmatch(dtype_str) \
            else None
    except TypeError:  # well-formed but unknown, e.g. "<f3"
        dtype = None
    if dtype is None or dtype.str != dtype_str:
        raise ValueError(f"unsupported dtype {dtype_str!r}")
    if not all(type(dim) is int and dim >= 0 for dim in shape):
        raise ValueError(f"bad shape {shape!r}")
    try:
        raw = base64.b64decode(blob.encode("ascii"), validate=True)
    except (UnicodeEncodeError, binascii.Error) as exc:
        raise ValueError("bad base64 array data") from exc
    if len(raw) != math.prod(shape) * dtype.itemsize:
        raise ValueError(f"{len(raw)} bytes do not fill a {dtype_str} "
                         f"array of shape {shape}")
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def _decode(data, nested: bool = False):
    """Inverse of :func:`_encode`; anything malformed is a ValueError."""
    if type(data) in (int, float):
        return data
    if type(data) is dict and list(data) == ["ndarray"]:
        return _decode_array(data["ndarray"])
    if type(data) is list and not nested:
        return [_decode(item, nested=True) for item in data]
    raise ValueError(f"not a stored learned attribute: {data!r:.80}")


def _kind_ok(kind: str, value) -> bool:
    """Does ``value`` match one ``_fitted_schema`` kind?

    ``int`` and ``float`` are Python scalars, ``<dtype>:<ndim>`` is an
    array (``*`` accepts any numeric dtype), and ``[kind]`` a list of
    them.
    """
    if kind.startswith("["):
        return type(value) is list \
            and all(_kind_ok(kind[1:-1], item) for item in value)
    if kind in ("int", "float"):
        return type(value) is (int if kind == "int" else float)
    dtype, ndim = kind.split(":")
    return isinstance(value, np.ndarray) and value.ndim == int(ndim) \
        and value.dtype.kind in _NUMERIC_KINDS \
        and (dtype == "*" or value.dtype == np.dtype(dtype))


def _hash_parts(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        blob = part.encode("utf-8")
        digest.update(len(blob).to_bytes(8, "little"))
        digest.update(blob)
    return digest.hexdigest()


def _array_part(arr) -> str:
    arr = np.asarray(arr)
    return json.dumps([arr.dtype.str, list(arr.shape),
                       hashlib.sha256(arr.tobytes()).hexdigest()])


@lru_cache(maxsize=None)
def _source_digest(cls: type) -> str:
    """SHA-256 of the source of every module defining ``cls``'s MRO.

    An edit to the training code (the estimator's own module or a base
    class's) changes every key derived from it, so a fitted-model cache
    misses instead of serving weights the new code would not produce.
    """
    files = dict.fromkeys(inspect.getsourcefile(klass)
                          for klass in cls.__mro__ if klass is not object)
    return _hash_parts(*(Path(path).read_text(encoding="utf-8")
                         for path in files))


class BaseEstimator:
    """Parameter introspection base for all estimators in :mod:`repro.ml`.

    Subclasses must accept all hyperparameters as keyword arguments in
    ``__init__`` and store them under the same attribute names, exactly
    like scikit-learn estimators.

    A subclass that declares ``_fitted_schema`` (learned attribute name
    to kind, see :func:`_kind_ok`) can have its fitted state stored and
    reloaded; the schema is the exact attribute set ``fit`` produces.
    """

    _fitted_schema: dict[str, str] | None = None

    @classmethod
    def _param_names(cls) -> list[str]:
        signature = inspect.signature(cls.__init__)
        return [name for name, param in signature.parameters.items()
                if name != "self"
                and param.kind != inspect.Parameter.VAR_KEYWORD]

    def get_params(self) -> dict:
        """All constructor hyperparameters as a dict."""
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "BaseEstimator":
        """Update hyperparameters in place; unknown names raise."""
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"unknown parameter {name!r} for {type(self).__name__}; "
                    f"valid: {sorted(valid)}")
            setattr(self, name, value)
        return self

    def is_fitted(self) -> bool:
        """True once ``fit`` has produced learned attributes."""
        return any(name.endswith("_") and not name.startswith("_")
                   for name in vars(self))

    # -- fitted-model cache contract -------------------------------------

    def fit_key(self, X, y) -> str:
        """Content key of ``self.fit(X, y)``'s result.

        Covers the estimator class, its hyperparameters (seed
        included), the training data (bytes, dtype and shape), the
        NumPy version, and the source of the modules that define the
        class — everything that decides the learned weights.
        """
        cls = type(self)
        return _hash_parts(
            "fitted-model", f"{cls.__module__}.{cls.__qualname__}",
            json.dumps(self.get_params(), sort_keys=True),
            _array_part(X), _array_part(y), np.__version__,
            _source_digest(cls))

    def _learned(self) -> dict:
        params = set(self._param_names())
        return {name: value for name, value in vars(self).items()
                if name not in params}

    def fitted_state(self) -> dict:
        """The learned attributes as JSON-safe data.

        Raises ``TypeError`` when the class declares no
        ``_fitted_schema`` and ``ValueError`` when the estimator's
        learned attributes do not match it (e.g. it is not fitted), so a
        state that :meth:`load_fitted_state` would refuse is never
        produced.
        """
        schema = self._fitted_schema
        if schema is None:
            raise TypeError(f"{type(self).__name__} declares no "
                            "_fitted_schema; its state is not storable")
        learned = self._learned()
        if set(learned) != set(schema) or not all(
                _kind_ok(schema[name], value)
                for name, value in learned.items()):
            raise ValueError(f"{type(self).__name__} learned attributes "
                             f"{sorted(learned)} do not match its schema")
        return {name: _encode(learned[name]) for name in sorted(schema)}

    def load_fitted_state(self, state) -> "BaseEstimator":
        """Restore a :meth:`fitted_state`; returns ``self``.

        The state is untrusted: a missing or extra attribute, a value
        of the wrong kind, a bad dtype or shape, or bad base64 raises
        ``ValueError`` and leaves the estimator untouched.
        """
        schema = self._fitted_schema
        if schema is None:
            raise ValueError(f"{type(self).__name__} declares no "
                             "_fitted_schema")
        if type(state) is not dict or set(state) != set(schema):
            raise ValueError("stored state does not name exactly the "
                             f"learned attributes {sorted(schema)}")
        decoded = {name: _decode(state[name]) for name in schema}
        for name, value in decoded.items():
            if not _kind_ok(schema[name], value):
                raise ValueError(f"stored {name!r} is not a {schema[name]}")
        vars(self).update(decoded)
        return self


def clone(estimator: BaseEstimator) -> BaseEstimator:
    """Fresh unfitted copy with identical hyperparameters."""
    params = {name: copy.deepcopy(value)
              for name, value in estimator.get_params().items()}
    return type(estimator)(**params)
