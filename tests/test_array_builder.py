"""Array-level bespoke builder: gate-for-gate identity with the oracle.

The shipped build (:mod:`repro.hw.array_builder`, behind
``build_bespoke_netlist`` and friends) is pinned against an oracle that
shares no code with it: the raw per-gate build
(``optimize=False``, through the :class:`~repro.hw.netlist.Netlist`
folding builders) synthesized by ``synthesize_reference``, the
builder-replay synthesis.  The contract under test is *identity*, not
mere functional equivalence: gate arrays, buses, and metadata must be
equal element-for-element — which is what keeps content-addressed
stores stable (same bytes, same keys).

Layers covered, bottom up:

* multiplier/weighted-sum oracles over the full signed coefficient
  range, random property cases, and the degenerate coefficients
  (0, +-1, powers of two) whose special-casing differs most between
  the two builders;
* the fused fold-at-emission invariant — a folding pass over freshly
  emitted rows is the identity transform;
* behavioral simulation against NumPy arithmetic on a non-word-aligned
  vector count;
* zoo models, the framework (``explore``/``sweep_e``), and the service
  (fresh stores, shared in-process build cache), each against the same
  run with every bespoke build swapped for the oracle;
* the build telemetry: counters/histograms fire, spans stay inert
  (PR 8's byte-identity contract), and ``fig2`` re-runs trigger zero
  new multiplier builds through the shared library.
"""

from __future__ import annotations

import dataclasses
import io
import random

import numpy as np
import pytest

from repro.core import cross_layer
from repro.core.cross_layer import CrossLayerFramework
from repro.core.multiplier_area import BespokeMultiplierLibrary
from repro.experiments import fig2
from repro.experiments.zoo import get_case
from repro.hw import bespoke
from repro.hw.area import area_mm2
from repro.hw.array_builder import (
    ArrayEmitter,
    bespoke_multiplier_rows,
    build_bespoke_arrays,
    build_bespoke_multiplier_arrays,
    build_weighted_sum_arrays,
    emit_bespoke_arrays,
)
from repro.hw.bespoke import (
    build_bespoke_multiplier_netlist,
    build_bespoke_netlist,
    build_weighted_sum_netlist,
)
from repro.hw.blocks import Value, bespoke_multiplier
from repro.hw.netlist import Netlist
from repro.hw.simulate import simulate
from repro.hw.synthesis import ArrayCircuit, _fold_arrays, synthesize_reference
from repro.service import runner, telemetry
from repro.service.runner import ExplorationService, ExploreRequest

TIER1_CASES = (("redwine", "svm_r"), ("redwine", "mlp_c"),
               ("redwine", "svm_c"))


def assert_netlists_identical(actual: Netlist, oracle: Netlist) -> None:
    """Element-for-element equality of every synthesized-netlist field."""
    assert actual.name == oracle.name
    assert actual.input_buses == oracle.input_buses
    assert actual.gate_type == oracle.gate_type
    assert actual.gate_inputs == oracle.gate_inputs
    assert actual.gate_out == oracle.gate_out
    assert actual.output_buses == oracle.output_buses
    assert actual.output_signed == oracle.output_signed
    assert actual.meta == oracle.meta


def oracle_netlist(model, name: str = "bespoke") -> Netlist:
    """The raw per-gate build, synthesized by the builder replay."""
    return synthesize_reference(
        build_bespoke_netlist(model, name=name, optimize=False))


def route_builds_through_oracle(patch) -> None:
    """Swap every framework/service bespoke build for the oracle."""
    def oracle(model, name="bespoke"):
        return oracle_netlist(model, name)

    patch.setattr(bespoke, "build_bespoke_netlist", oracle)
    patch.setattr(cross_layer, "build_bespoke_netlist", oracle)
    patch.setattr(runner, "build_bespoke_netlist", oracle)
    patch.setattr(cross_layer, "build_bespoke_arrays",
                  lambda model, name="bespoke":
                  ArrayCircuit.from_netlist(oracle(model, name))[0])


@pytest.fixture()
def fresh_telemetry():
    telemetry.reset()
    yield telemetry.get_hub().registry
    telemetry.reset()


# ----------------------------------------------------------------------
# Multiplier oracle
# ----------------------------------------------------------------------
class TestMultiplierOracle:
    @pytest.mark.parametrize("input_bits", (4, 8))
    def test_full_signed_coefficient_range(self, input_bits):
        """Every signed 8-bit coefficient: identical gates to the oracle."""
        for coefficient in range(-128, 128):
            raw = build_bespoke_multiplier_netlist(coefficient, input_bits,
                                                   optimize=False)
            assert_netlists_identical(
                build_bespoke_multiplier_netlist(coefficient, input_bits),
                synthesize_reference(raw))

    def test_library_areas_identical(self):
        """The array-backed area library agrees exactly with the oracle."""
        library = BespokeMultiplierLibrary(coeff_bits=6)
        oracle = {w: area_mm2(synthesize_reference(
                      build_bespoke_multiplier_netlist(w, 4,
                                                       optimize=False)))
                  for w in range(-32, 32)}
        assert library.area_table(4) == oracle

    def test_binary_recoding_matches_value_oracle(self):
        """The ablation recoding mirrors blocks.bespoke_multiplier too."""
        for coefficient in (-77, -3, 5, 45, 127):
            em = ArrayEmitter("bm_binary")
            x = em.input_bus("x", 6)
            em.set_output_bus(
                "p", bespoke_multiplier_rows(x, coefficient,
                                             recoding="binary"))
            array = em.finish_synthesized().to_netlist()

            nl = Netlist(name="bm_binary")
            value = Value.input_bus(nl, "x", 6)
            product = bespoke_multiplier(value, coefficient,
                                         recoding="binary")
            nl.set_output_bus("p", product.nets, signed=product.signed)
            assert_netlists_identical(array, synthesize_reference(nl))

    def test_unknown_recoding_rejected(self):
        em = ArrayEmitter("bm")
        x = em.input_bus("x", 4)
        with pytest.raises(ValueError, match="unknown recoding"):
            bespoke_multiplier_rows(x, 3, recoding="nope")


# ----------------------------------------------------------------------
# Weighted sums
# ----------------------------------------------------------------------
def assert_weighted_sum_matches_oracle(coefficients, input_bits: int,
                                       bias: int) -> None:
    raw = build_weighted_sum_netlist(coefficients, input_bits, bias=bias,
                                     optimize=False)
    assert_netlists_identical(
        build_weighted_sum_netlist(coefficients, input_bits, bias=bias),
        synthesize_reference(raw))


class TestWeightedSumOracle:
    @pytest.mark.parametrize("coefficients,bias", [
        ((0, 0, 0), 0),          # all-zero: the circuit is a constant
        ((0, 0, 0), -5),         # constant negative bias
        ((1, -1, 1, -1), 0),     # +-1: pure adder tree, no partials
        ((2, 4, -8), 3),         # powers of two: shifts only
        ((7, 0, -7), 0),         # zero coefficient dropped mid-list
        ((127, -128), 17),       # extremes of the signed byte
    ])
    def test_degenerate_coefficients(self, coefficients, bias):
        assert_weighted_sum_matches_oracle(coefficients, 4, bias)

    def test_random_property_cases(self):
        """Random widths/coefficients/biases: 40 seeded cases."""
        rng = random.Random(0xA77)
        for _ in range(40):
            n = rng.randint(1, 6)
            input_bits = rng.randint(1, 10)
            coefficients = tuple(rng.randint(-128, 127) for _ in range(n))
            bias = rng.randint(-512, 512)
            assert_weighted_sum_matches_oracle(coefficients, input_bits,
                                               bias)

    def test_behavioral_against_numpy(self):
        """70 vectors (not a multiple of 64) against the dot product."""
        rng = np.random.default_rng(7)
        coefficients = (11, -23, 0, 5, -1)
        bias = -9
        netlist = build_weighted_sum_netlist(coefficients, 4, bias=bias)
        X = rng.integers(0, 16, size=(70, len(coefficients)))
        result = simulate(netlist, {f"x{i}": X[:, i]
                                    for i in range(X.shape[1])})
        expected = X @ np.array(coefficients) + bias
        np.testing.assert_array_equal(result.bus_ints("sum"), expected)


# ----------------------------------------------------------------------
# Fused fold-at-emission invariant
# ----------------------------------------------------------------------
class TestFoldIsIdentity:
    """Emitted rows are already at the fold fixpoint.

    The emitter and ``_fold_arrays`` apply the same ``FoldEmitter``
    rules, so a folding pass over emitted rows must be the identity
    transform: folding as the rows stream past and folding them
    afterwards land on the same fixpoint.
    """

    def _assert_fixpoint(self, circ):
        folded, node_map, changed = _fold_arrays(circ, None)
        assert changed is False
        assert folded.ops == circ.ops
        assert folded.ina == circ.ina
        assert folded.inb == circ.inb
        assert folded.inc == circ.inc
        assert folded.levels == circ.levels
        assert node_map == list(range(circ.n_fixed + len(circ.ops)))

    @pytest.mark.parametrize("coefficient", (-100, -17, 3, 88, 127))
    def test_multiplier_rows(self, coefficient):
        em = ArrayEmitter("bm")
        x = em.input_bus("x", 8)
        em.set_output_bus("p", bespoke_multiplier_rows(x, coefficient))
        self._assert_fixpoint(em.finish())

    @pytest.mark.parametrize("dataset,kind", TIER1_CASES)
    def test_model_rows(self, dataset, kind):
        case = get_case(dataset, kind)
        self._assert_fixpoint(emit_bespoke_arrays(case.quant_model))


# ----------------------------------------------------------------------
# Models
# ----------------------------------------------------------------------
class TestModelIdentity:
    @pytest.mark.parametrize("dataset,kind", TIER1_CASES)
    def test_zoo_models_identical(self, dataset, kind):
        case = get_case(dataset, kind)
        assert_netlists_identical(
            build_bespoke_netlist(case.quant_model, name="m"),
            oracle_netlist(case.quant_model, name="m"))

    def test_array_circuit_matches_netlist_conversion(self):
        """build_bespoke_arrays is the netlist path minus to_netlist."""
        case = get_case("redwine", "svm_r")
        circ = build_bespoke_arrays(case.quant_model, name="m")
        assert_netlists_identical(circ.to_netlist(),
                                  oracle_netlist(case.quant_model, name="m"))



class TestBuilderSelector:
    """The ``builder=`` selector is gone: there is one build path."""

    def test_unoptimized_build_defaults_to_gate(self):
        """``optimize=False`` is the raw per-gate build, before any strip."""
        case = get_case("redwine", "svm_r")
        raw = build_bespoke_netlist(case.quant_model, optimize=False)
        assert len(raw.gate_type) > len(
            build_bespoke_netlist(case.quant_model).gate_type)

    @pytest.mark.parametrize("construct", [
        lambda: build_bespoke_netlist(None, builder="gate"),
        lambda: BespokeMultiplierLibrary(builder="gate"),
        lambda: CrossLayerFramework(builder="gate"),
        lambda: ExplorationService(":memory:", builder="gate"),
    ])
    def test_unknown_builder_rejected(self, construct):
        """No entry point accepts a ``builder`` argument any more."""
        with pytest.raises(TypeError, match="builder"):
            construct()


# ----------------------------------------------------------------------
# Framework and service
# ----------------------------------------------------------------------
class TestFrameworkIdentity:
    def _split_and_model(self):
        case = get_case("redwine", "svm_r")
        return case.split, case.quant_model

    def _explore(self):
        split, quant = self._split_and_model()
        framework = CrossLayerFramework(e=3, tau_grid=(0.9, 0.95))
        result = framework.explore(quant, split.X_train, split.X_test,
                                   split.y_test, name="rw",
                                   include=("coeff", "prune"))
        return [dataclasses.astuple(p) for p in result.points]

    def _sweep_e(self):
        split, quant = self._split_and_model()
        framework = CrossLayerFramework(tau_grid=(0.95,))
        sweep = framework.sweep_e(quant, split.X_train, split.X_test,
                                  split.y_test, e_values=(1, 2),
                                  include=("coeff",))
        return [dataclasses.astuple(p) for p in sweep.points]

    def test_explore_designs_identical(self, monkeypatch):
        shipped = self._explore()
        with monkeypatch.context() as patch:
            route_builds_through_oracle(patch)
            oracle = self._explore()
        assert shipped == oracle
        assert len(shipped) > 0

    def test_sweep_e_designs_identical(self, monkeypatch):
        shipped = self._sweep_e()
        with monkeypatch.context() as patch:
            route_builds_through_oracle(patch)
            oracle = self._sweep_e()
        assert shipped == oracle


class TestServiceIdentity:
    REQUEST = ExploreRequest(dataset="redwine", model="svm_r",
                             base="coeff", tau_grid=(0.9, 0.95), e=1)

    def test_service_designs_identical(self, tmp_path, monkeypatch):
        shipped, _report = ExplorationService(
            tmp_path / "shipped.sqlite").explore(self.REQUEST)
        with monkeypatch.context() as patch:
            route_builds_through_oracle(patch)
            oracle, _report = ExplorationService(
                tmp_path / "oracle.sqlite").explore(self.REQUEST)
        assert shipped == oracle
        assert len(shipped) > 0

    def test_shared_build_cache_across_tenants(self, tmp_path,
                                               fresh_telemetry):
        """Two tenants, fresh stores: the second build is a cache hit."""
        build_cache: dict = {}
        designs = []
        for tenant in ("a", "b"):
            service = ExplorationService(tmp_path / f"{tenant}.sqlite",
                                         build_cache=build_cache)
            result, _report = service.explore(self.REQUEST)
            designs.append(result)
        assert designs[0] == designs[1]
        assert fresh_telemetry.counter_value("build.cache",
                                             result="miss") == 1
        assert fresh_telemetry.counter_value("build.cache",
                                             result="hit") == 1

    def test_no_cache_means_no_metric(self, tmp_path, fresh_telemetry):
        service = ExplorationService(tmp_path / "solo.sqlite")
        service.explore(self.REQUEST)
        assert fresh_telemetry.counter_total("build.cache") == 0


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
class TestBuilderTelemetry:
    def test_build_metrics_fire(self, fresh_telemetry):
        case = get_case("redwine", "svm_r")
        build_bespoke_netlist(case.quant_model)
        emitted = fresh_telemetry.counter_value("build.gates_emitted")
        raw = build_bespoke_netlist(case.quant_model, optimize=False)
        assert emitted > 0
        # The emitter folds at emission: it must never emit more rows
        # than the per-gate builder creates pre-synthesis.
        assert emitted <= len(raw.gate_type)
        snapshot = fresh_telemetry.snapshot()
        assert snapshot["histograms"]["build.bespoke_ms"]["count"] == 1

    def test_spans_inert(self, fresh_telemetry):
        """Tracing on/off cannot change the emitted netlist (PR 8)."""
        case = get_case("redwine", "svm_r")
        quiet = build_bespoke_netlist(case.quant_model)
        telemetry.configure(tracing=True, events_out=io.StringIO())
        traced = build_bespoke_netlist(case.quant_model)
        assert_netlists_identical(traced, quiet)

    def test_fig2_rerun_triggers_zero_builds(self, fresh_telemetry):
        """The shared per-width library absorbs repeated fig2 runs."""
        fig2.run(e_values=(1, 2), configurations=((4, 6),))
        telemetry.reset()
        fig2.run(e_values=(1, 2), configurations=((4, 6),))
        assert fresh_telemetry.counter_total("build.gates_emitted") == 0

    def test_standalone_builders_count_gates(self, fresh_telemetry):
        build_bespoke_multiplier_arrays(45, 8)
        build_weighted_sum_arrays((3, -5), 4)
        assert fresh_telemetry.counter_value("build.gates_emitted") > 0
