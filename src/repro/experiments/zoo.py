"""The model zoo: the 14 (+2 excluded) circuits of the paper's evaluation.

One :class:`CircuitCase` per (dataset, model kind) pair, with the paper's
topologies (Table I): MLP hidden sizes 3/5/2/4 for cardio / pendigits /
redwine / whitewine, linear SVMs with per-class score units.  Training is
deterministic (fixed seeds), so every experiment and benchmark shares the
same trained and quantized models.  Cases are memoized per process, and
:func:`get_case` given a design store also caches the *fitted* model
there (the ``fitted_models`` table): a fresh process that finds its
model in the store loads it bit-exactly instead of retraining.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datasets import Split, load_dataset
from ..ml import (
    LinearSVMClassifier,
    LinearSVMRegressor,
    MLPClassifier,
    MLPRegressor,
)
from ..quant import quantize_model
from .paper_data import CASE_LABELS, EXCLUDED_CASES, PAPER_CLOCK_MS

__all__ = ["CircuitCase", "MODEL_KINDS", "HIDDEN_UNITS", "get_case",
           "all_cases", "case_keys"]

MODEL_KINDS = ("mlp_c", "mlp_r", "svm_c", "svm_r")

# Paper topologies (Table I): fewest hidden nodes at near-max accuracy.
HIDDEN_UNITS = {"cardio": 3, "pendigits": 5, "redwine": 2, "whitewine": 4}

_SPLIT_SEED = 0
_TRAIN_SEED = 1


@dataclass(frozen=True)
class CircuitCase:
    """A trained + quantized circuit of the paper's evaluation set."""

    dataset: str
    kind: str
    label: str
    split: Split
    float_model: object
    quant_model: object
    clock_ms: float
    excluded: bool

    @property
    def key(self) -> tuple[str, str]:
        return (self.dataset, self.kind)

    def float_accuracy(self) -> float:
        return self.float_model.score(self.split.X_test, self.split.y_test)


def _estimator(dataset: str, kind: str):
    hidden = HIDDEN_UNITS[dataset]
    if kind == "mlp_c":
        model = MLPClassifier(hidden_layer_sizes=(hidden,),
                              seed=_TRAIN_SEED, max_epochs=250)
    elif kind == "mlp_r":
        model = MLPRegressor(hidden_layer_sizes=(hidden,),
                             seed=_TRAIN_SEED, max_epochs=400)
    elif kind == "svm_c":
        model = LinearSVMClassifier(seed=_TRAIN_SEED)
    elif kind == "svm_r":
        model = LinearSVMRegressor(seed=_TRAIN_SEED)
    else:
        raise ValueError(f"unknown model kind {kind!r}; use {MODEL_KINDS}")
    return model


def _train(model, split: Split, store):
    """``model`` fitted on the split's training data, via ``store``.

    A stored state that fails to load (corrupt, or from a buggy writer)
    counts as a miss: the model is refit and the row replaced, so the
    result is always exactly what ``fit`` produces.
    """
    X, y = split.X_train, split.y_train
    if store is None:
        return model.fit(X, y)
    key = model.fit_key(X, y)
    state = store.get_fitted_model(key)
    if state is not None:
        try:
            return model.load_fitted_state(state)
        except ValueError:
            pass
    model.fit(X, y)
    store.put_fitted_model(key, model.fitted_state())
    return model


_CASES: dict[tuple[str, str], CircuitCase] = {}


def get_case(dataset: str, kind: str, store=None) -> CircuitCase:
    """One trained and quantized circuit case, memoized per process.

    On a memo miss, ``store`` (a :class:`~repro.service.store.
    DesignStore` or any object with its ``get_fitted_model`` /
    ``put_fitted_model`` pair) is tried for the fitted model before
    training, and a fresh fit is put there.
    """
    key = (dataset, kind)
    case = _CASES.get(key)
    if case is not None:
        return case
    split = load_dataset(dataset).standard_split(seed=_SPLIT_SEED)
    float_model = _train(_estimator(dataset, kind), split, store)
    case = CircuitCase(
        dataset=dataset, kind=kind, label=CASE_LABELS[key], split=split,
        float_model=float_model, quant_model=quantize_model(float_model),
        clock_ms=PAPER_CLOCK_MS[key], excluded=key in EXCLUDED_CASES)
    return _CASES.setdefault(key, case)


def case_keys(include_excluded: bool = False) -> list[tuple[str, str]]:
    """All (dataset, kind) pairs, in the paper's Table ordering."""
    keys = list(CASE_LABELS)
    if not include_excluded:
        keys = [key for key in keys if key not in EXCLUDED_CASES]
    return keys


def all_cases(include_excluded: bool = False) -> list[CircuitCase]:
    """The paper's 14 evaluated circuits (16 with the excluded ones)."""
    return [get_case(*key) for key in case_keys(include_excluded)]
