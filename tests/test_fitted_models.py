"""Tests for the store-backed fitted-model cache.

The load-bearing contracts:

* **determinism** — training is bit-reproducible across processes, which
  is what makes a content-keyed cache of fitted models sound;
* **hit identity** — a case rebuilt from a stored state equals a fresh
  fit: float state bit-identical, same quantized-model and evaluator
  fingerprints, same design lines out of a warm ``repro explore``;
* **untrusted rows** — a corrupt or malformed row is a miss: the model
  is refit, the row replaced, and nothing downstream changes.
"""

from __future__ import annotations

import base64
import hashlib
import importlib.util
import json
import os
import pathlib
import sqlite3
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.eval.accuracy import CircuitEvaluator
from repro.experiments import zoo
from repro.experiments.zoo import case_keys, get_case
from repro.ml import (
    DecisionTreeClassifier,
    LinearSVMClassifier,
    LinearSVMRegressor,
    MLPClassifier,
    MLPRegressor,
)
from repro.ml.base import _decode, _encode
from repro.service import DesignStore
from repro.service.coordinator import RemoteStore
from repro.service.store import (
    _verified_state,
    canonical_json,
    evaluator_fingerprint,
    model_fingerprint,
)
from repro.service.telemetry import get_hub

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def empty_memo(monkeypatch):
    """Hide the process-wide case memo so ``get_case`` goes to the store."""
    monkeypatch.setattr(zoo, "_CASES", {})


def _evaluator_fp(case) -> str:
    split = case.split
    return evaluator_fingerprint(CircuitEvaluator.from_split(
        case.quant_model, split.X_train, split.X_test, split.y_test,
        clock_ms=case.clock_ms))


def _key(case) -> str:
    return case.float_model.fit_key(case.split.X_train, case.split.y_train)


def _state_json(model) -> str:
    return canonical_json(model.fitted_state())


def _fit_counter(monkeypatch):
    """Count ``fit`` calls on every zoo estimator class."""
    calls = []
    for cls in (MLPClassifier, MLPRegressor, LinearSVMClassifier,
                LinearSVMRegressor):
        original = cls.fit

        def fit(self, X, y, _original=original):
            calls.append(type(self).__name__)
            return _original(self, X, y)
        monkeypatch.setattr(cls, "fit", fit)
    return calls


class TestDeterminism:
    def test_two_processes_fit_byte_identical_models(self):
        script = (
            "import json\n"
            "from repro.experiments.zoo import get_case\n"
            "from repro.service.store import canonical_json, "
            "model_fingerprint\n"
            "out = []\n"
            "for key in (('redwine', 'svm_c'), ('cardio', 'mlp_r')):\n"
            "    case = get_case(*key)\n"
            "    out.append([canonical_json(case.float_model.fitted_state()),"
            " model_fingerprint(case.quant_model)])\n"
            "print(json.dumps(out))\n")
        runs = [subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": SRC}).stdout
            for _ in range(2)]
        assert runs[0] == runs[1]
        in_process = [[_state_json(get_case(*key).float_model),
                       model_fingerprint(get_case(*key).quant_model)]
                      for key in (("redwine", "svm_c"), ("cardio", "mlp_r"))]
        assert json.loads(runs[0]) == in_process


class TestHitIdentity:
    def test_every_zoo_case_from_the_store_equals_a_fresh_fit(
            self, tmp_path, monkeypatch):
        store = DesignStore(tmp_path / "s.sqlite")
        keys = case_keys(include_excluded=True)
        assert len(keys) == 16
        fresh = {key: get_case(*key) for key in keys}
        for case in fresh.values():
            store.put_fitted_model(_key(case), case.float_model.fitted_state())
        calls = _fit_counter(monkeypatch)
        monkeypatch.setattr(zoo, "_CASES", {})
        for key in keys:
            hit = get_case(*key, store=store)
            case = fresh[key]
            assert hit.float_model is not case.float_model
            assert _state_json(hit.float_model) \
                == _state_json(case.float_model)
            for name, value in vars(case.float_model).items():
                loaded = vars(hit.float_model)[name]
                if isinstance(value, np.ndarray):
                    assert loaded.dtype == value.dtype
                    assert loaded.tobytes() == value.tobytes()
                elif name in ("coefs_", "intercepts_"):
                    assert [a.tobytes() for a in loaded] \
                        == [a.tobytes() for a in value]
                else:
                    assert loaded == value and type(loaded) is type(value)
            assert model_fingerprint(hit.quant_model) \
                == model_fingerprint(case.quant_model)
            assert _evaluator_fp(hit) == _evaluator_fp(case)
        assert calls == []
        assert store.stats()["fitted_models_hits"] == 16

    def test_miss_fits_once_and_puts(self, tmp_path, monkeypatch,
                                     empty_memo):
        store = DesignStore(tmp_path / "s.sqlite")
        calls = _fit_counter(monkeypatch)
        case = get_case("redwine", "svm_r", store=store)
        assert calls == ["LinearSVMRegressor"]
        assert store.get_fitted_model(_key(case)) \
            == case.float_model.fitted_state()
        monkeypatch.setattr(zoo, "_CASES", {})
        again = get_case("redwine", "svm_r", store=store)
        assert calls == ["LinearSVMRegressor"]
        assert _state_json(again.float_model) == _state_json(case.float_model)

    def test_memo_is_per_process_not_per_store(self, tmp_path, empty_memo):
        first = get_case("redwine", "svm_r",
                         store=DesignStore(tmp_path / "a.sqlite"))
        other = DesignStore(tmp_path / "b.sqlite")
        assert get_case("redwine", "svm_r", store=other) is first
        # the memo hit still gives the second store its row
        assert other.stats()["fitted_models"] == 1

    def test_memo_hit_puts_a_missing_row_and_leaves_hits_alone(
            self, tmp_path, monkeypatch, empty_memo):
        calls = _fit_counter(monkeypatch)
        holder = DesignStore(tmp_path / "holder.sqlite")
        case = get_case("redwine", "svm_r", store=holder)
        assert holder.get_fitted_model(_key(case)) is not None  # one hit
        fresh = DesignStore(tmp_path / "fresh.sqlite")
        assert get_case("redwine", "svm_r", store=fresh) is case
        assert get_case("redwine", "svm_r", store=holder) is case
        assert calls == ["LinearSVMRegressor"]  # memo hits never refit
        assert fresh.stats()["fitted_models"] == 1
        assert fresh.stats()["fitted_models_hits"] == 0
        assert holder.stats()["fitted_models_hits"] == 1
        assert canonical_json(fresh.get_fitted_model(_key(case))) \
            == _state_json(case.float_model)

    def test_remote_store_misses_and_writes_nothing(self, empty_memo):
        class _NoWire:
            base_url = "http://127.0.0.1:9"

            def request(self, *args, **kwargs):
                raise AssertionError("fitted models must not hit the wire")

        remote = RemoteStore(_NoWire())
        case = get_case("redwine", "svm_r", store=remote)
        assert remote.get_fitted_model(_key(case)) is None
        remote.put_fitted_model(_key(case), case.float_model.fitted_state())


def _explore(store, out) -> list[str]:
    assert cli_main(["explore", "--dataset", "redwine", "--model", "svm_r",
                     "--base", "coeff", "--tau", "0.9", "0.95", "0.99",
                     "--store", str(store), "--out", str(out)]) == 0
    return [line for line in out.read_text().splitlines()
            if '"type": "design"' in line]


class TestWarmExplore:
    def test_design_lines_do_not_depend_on_the_fitted_row(
            self, tmp_path, monkeypatch, capsys, empty_memo):
        store = tmp_path / "s.sqlite"
        cold = _explore(store, tmp_path / "cold.jsonl")
        assert cold
        assert DesignStore(store).stats()["fitted_models"] == 1

        monkeypatch.setattr(zoo, "_CASES", {})
        calls = _fit_counter(monkeypatch)
        with_row = _explore(store, tmp_path / "hit.jsonl")
        assert calls == []

        with sqlite3.connect(store) as con:
            con.execute("UPDATE fitted_models SET state = "
                        "substr(state, 1, length(state) / 2)")
        monkeypatch.setattr(zoo, "_CASES", {})
        corrupt_row = _explore(store, tmp_path / "corrupt.jsonl")
        assert calls == ["LinearSVMRegressor"]

        with sqlite3.connect(store) as con:
            con.execute("DELETE FROM fitted_models")
        monkeypatch.setattr(zoo, "_CASES", {})
        without_row = _explore(store, tmp_path / "miss.jsonl")
        assert calls == ["LinearSVMRegressor"] * 2

        assert with_row == cold
        assert corrupt_row == cold
        assert without_row == cold
        assert DesignStore(store).stats()["fitted_models"] == 1


# -- corrupt rows ---------------------------------------------------------

def _tamper(state: dict, how: str) -> dict:
    state = json.loads(json.dumps(state))
    _dtype, shape, blob = state["coef_"]["ndarray"]
    if how == "wrong dtype (size)":
        state["coef_"]["ndarray"][0] = "<f4"
    elif how == "wrong dtype (same size)":
        state["coef_"]["ndarray"][0] = "<i8"
    elif how == "object dtype":
        state["coef_"]["ndarray"][0] = "|O8"
    elif how == "wrong shape (size)":
        state["coef_"]["ndarray"][1] = [shape[0] + 1]
    elif how == "wrong shape (same size)":
        state["coef_"]["ndarray"][1] = [1, shape[0]]
    elif how == "missing attribute":
        del state["y_max_"]
    elif how == "extra attribute":
        state["extra_"] = 1
    elif how == "bad base64":
        state["coef_"]["ndarray"][2] = "*" + blob[1:]
    elif how == "scalar for array":
        state["coef_"] = 0.5
    elif how == "float for int":
        state["y_min_"] = float(state["y_min_"])
    elif how == "not an object":
        state = [state]
    return state


_STRUCTURAL = ("wrong dtype (size)", "wrong dtype (same size)",
               "object dtype", "wrong shape (size)",
               "wrong shape (same size)", "missing attribute",
               "extra attribute", "bad base64", "scalar for array",
               "float for int", "not an object")

_RAW = {
    "truncated JSON": "UPDATE fitted_models SET state = "
                      "substr(state, 1, length(state) - 7)",
    "one character changed": "UPDATE fitted_models SET state = "
                             "substr(state, 1, 40) || CASE substr(state, "
                             "41, 1) WHEN 'A' THEN 'B' ELSE 'A' END || "
                             "substr(state, 42)",
    "invalid UTF-8": "UPDATE fitted_models SET state = X'80ff00'",
    "empty digest": "UPDATE fitted_models SET digest = ''",
}


class TestCorruptRows:
    @pytest.fixture
    def seeded(self, tmp_path):
        case = get_case("redwine", "svm_r")
        store = DesignStore(tmp_path / "s.sqlite")
        store.put_fitted_model(_key(case), case.float_model.fitted_state())
        return case, store

    def _assert_refit_and_healed(self, case, store, monkeypatch):
        monkeypatch.setattr(zoo, "_CASES", {})
        calls = _fit_counter(monkeypatch)
        healed = get_case("redwine", "svm_r", store=store)
        assert calls == ["LinearSVMRegressor"]
        assert _state_json(healed.float_model) \
            == _state_json(case.float_model)
        assert model_fingerprint(healed.quant_model) \
            == model_fingerprint(case.quant_model)
        assert store.get_fitted_model(_key(case)) \
            == case.float_model.fitted_state()
        assert store.integrity_ok()

    @pytest.mark.parametrize("how", _STRUCTURAL)
    def test_structurally_bad_state_is_a_miss(self, seeded, monkeypatch,
                                              how):
        case, store = seeded
        bad = _tamper(case.float_model.fitted_state(), how)
        store.put_fitted_model(_key(case), bad)  # a valid digest
        if isinstance(bad, dict):
            assert store.get_fitted_model(_key(case)) == bad
            with pytest.raises(ValueError):
                LinearSVMRegressor().load_fitted_state(bad)
        else:
            assert store.get_fitted_model(_key(case)) is None
        self._assert_refit_and_healed(case, store, monkeypatch)

    @pytest.mark.parametrize("how", sorted(_RAW))
    def test_corrupt_bytes_are_a_miss(self, seeded, monkeypatch, how):
        case, store = seeded
        with sqlite3.connect(store.path) as con:
            assert con.execute(_RAW[how]).rowcount == 1
        assert store.get_fitted_model(_key(case)) is None
        self._assert_refit_and_healed(case, store, monkeypatch)


# -- the state codec ------------------------------------------------------

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12)

_array_specs = st.builds(
    lambda dtype, shape, blob: {"ndarray": [dtype, shape, blob]},
    st.sampled_from(["<f8", "<i8", "|b1", "<f4", ">f8", "|O8", "<U3",
                     "f8", "<f3"]) | st.text(max_size=6),
    st.lists(st.integers(-2, 5), max_size=3),
    st.binary(max_size=48).map(lambda raw: base64.b64encode(raw).decode())
    | st.text(max_size=24)) | st.dictionaries(
        st.just("ndarray"), _json_values)


class TestStateCodec:
    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(
        st.sampled_from(["y_min_", "y_max_", "coef_", "intercept_",
                         "extra_"]),
        _json_values | _array_specs | st.lists(_array_specs, max_size=3),
        max_size=5) | _json_values)
    def test_decoder_only_ever_raises_value_error(self, state):
        model = LinearSVMRegressor()
        try:
            model.load_fitted_state(state)
        except ValueError:
            assert vars(model) == vars(LinearSVMRegressor())
            return
        assert set(state) == {"y_min_", "y_max_", "coef_", "intercept_"}
        assert canonical_json(model.fitted_state()) == canonical_json(state)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["<f8", ">f8", "<f4", "<i8", "<u2", "|b1",
                            "<c16", "|i1"]),
           st.lists(st.integers(0, 4), max_size=3), st.randoms())
    def test_arrays_round_trip_bit_exactly(self, dtype, shape, rnd):
        raw = bytes(rnd.getrandbits(8) for _ in range(
            int(np.prod(shape)) * np.dtype(dtype).itemsize))
        arr = np.frombuffer(raw, dtype=dtype).reshape(shape)
        back = _decode(_encode(arr))
        assert back.dtype == arr.dtype and back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()
        assert back.flags.writeable

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64)
           | _json_values.map(lambda value: json.dumps(value).encode()),
           st.booleans(), st.binary(max_size=70))
    def test_store_row_verifier_never_raises(self, blob, honest, digest):
        if honest:
            digest = hashlib.sha256(blob).hexdigest().encode()
        state = _verified_state(blob, digest)
        assert state is None or isinstance(state, dict)
        if not honest and digest != hashlib.sha256(blob).hexdigest().encode():
            assert state is None

    def test_unfitted_or_undeclared_state_is_refused(self):
        with pytest.raises(ValueError):
            LinearSVMRegressor().fitted_state()
        with pytest.raises(TypeError):
            DecisionTreeClassifier().fitted_state()


class TestFitKey:
    def test_key_covers_params_data_and_class(self):
        X = np.random.default_rng(1).normal(size=(12, 3))
        y = np.arange(12) % 3
        base = LinearSVMRegressor(seed=1).fit_key(X, y)
        assert base == LinearSVMRegressor(seed=1).fit_key(X.copy(), y)
        assert base != LinearSVMRegressor(seed=2).fit_key(X, y)
        assert base != LinearSVMRegressor(seed=1).fit_key(X + 1e-12, y)
        assert base != LinearSVMRegressor(seed=1).fit_key(
            X.astype(np.float32), y)
        assert base != LinearSVMRegressor(seed=1).fit_key(X[:, :2], y)
        assert base != LinearSVMRegressor(seed=1).fit_key(X, y + 1)
        assert base != MLPRegressor(seed=1).fit_key(X, y)

    def test_editing_the_training_source_changes_the_key(self, tmp_path,
                                                          monkeypatch):
        module = tmp_path / "toy_estimator.py"
        source = ("from repro.ml.base import BaseEstimator\n"
                  "class Toy(BaseEstimator):\n"
                  "    def __init__(self, seed=0):\n"
                  "        self.seed = seed\n")

        def key() -> str:
            spec = importlib.util.spec_from_file_location(
                "toy_estimator", module)
            loaded = importlib.util.module_from_spec(spec)
            monkeypatch.setitem(sys.modules, "toy_estimator", loaded)
            spec.loader.exec_module(loaded)
            return loaded.Toy().fit_key(np.zeros((2, 2)), np.zeros(2))

        module.write_text(source)
        first = key()
        assert key() == first
        module.write_text(source + "        self.tweak = 1\n")
        assert key() != first


class TestStoreTooling:
    def test_stats_and_lookup_metrics_count_hits(self, tmp_path):
        store = DesignStore(tmp_path / "s.sqlite")
        registry = get_hub().registry

        def lookups(result):
            return registry.counter_value(
                "store.lookups", table="fitted_models", result=result)

        hits, misses = lookups("hit"), lookups("miss")
        assert store.get_fitted_model("k") is None
        store.put_fitted_model("k", {"a": 1})
        assert store.get_fitted_model("k") == {"a": 1}
        assert store.get_fitted_model("k") == {"a": 1}
        stats = store.stats()
        assert stats["fitted_models"] == 1
        assert stats["fitted_models_hits"] == 2
        assert (lookups("hit") - hits, lookups("miss") - misses) == (2, 1)

    def test_gc_ages_out_stale_fitted_models(self, tmp_path, capsys):
        path = tmp_path / "s.sqlite"
        store = DesignStore(path)
        store.put_fitted_model("old", {"a": 1})
        with sqlite3.connect(path) as con:
            con.execute("UPDATE fitted_models SET created_at = ?",
                        (time.time() - 40 * 86400,))
        store.put_fitted_model("young", {"a": 2})

        dry = store.gc(keep_days=30, dry_run=True)
        assert dry["fitted_models_deleted"] == 1
        assert store.stats()["fitted_models"] == 2

        assert cli_main(["store", "gc", "--store", str(path),
                         "--keep-days", "30"]) == 0
        assert "1 fitted models" in capsys.readouterr().out
        assert store.get_fitted_model("old") is None
        assert store.get_fitted_model("young") == {"a": 2}

    def test_existing_store_gains_the_table_on_open(self, tmp_path):
        path = tmp_path / "old.sqlite"
        DesignStore(path)
        with sqlite3.connect(path) as con:
            con.execute("DROP TABLE fitted_models")
        store = DesignStore(path)
        assert store.stats()["fitted_models"] == 0
        assert store.stats()["format"] == 5
