"""Equivalence tests for the batched multi-variant evaluation engine.

Three layers pin the batched path down:

* :class:`~repro.hw.compiled.BatchedEvaluator` — a batch of K
  constant-tie variants evaluated in one pass against the shared parent
  plan must reproduce, variant for variant, what the per-variant
  compiled engine computes on each variant's own folded snapshot, and
  what the legacy bigint oracle computes on the materialized netlist:
  decoded buses, waveforms, activity popcounts, area, and power —
  including stimulus sizes that are not a multiple of the 64-bit word
  (tail-masking) and accumulated clamp sets spanning several ties
  (the exploration's plan-epoch mechanism);

* the worklist cone rewriting in
  :meth:`~repro.hw.incremental.IncrementalCircuit.tie` — applying a
  prune set as an incremental tie must leave the circuit equivalent to
  ``synthesize_reference``'s from-scratch builder replay: same live
  gate count, same cell histogram, bit-identical waveforms;

* the exploration — ``engine="batched"`` must return the design list of
  ``explore_legacy`` and of the per-variant engines.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets import load_dataset
from repro.eval.accuracy import CircuitEvaluator
from repro.hw.area import area_mm2
from repro.hw.bespoke import build_bespoke_netlist
from repro.hw.compiled import BatchedEvaluator, pack_stimulus
from repro.hw.incremental import IncrementalCircuit
from repro.hw.netlist import CONST0, CONST1, Netlist
from repro.hw.power import power_mw
from repro.hw.simulate import simulate_bigint
from repro.hw.synthesis import (
    ArrayCircuit,
    synthesize_arrays,
    synthesize_reference,
)
from repro.core.pruning import NetlistPruner
from repro.ml import LinearSVMRegressor
from repro.quant import quantize_model

_CELLS_1 = ("INV", "BUF")
_CELLS_2 = ("AND2", "OR2", "XOR2", "XNOR2", "NAND2", "NOR2")


def _random_netlist(rng: np.random.Generator, n_gates: int,
                    width: int) -> Netlist:
    nl = Netlist(cse=False)
    nets = list(nl.add_input_bus("x", width)) + [CONST0, CONST1]
    for _ in range(n_gates):
        kind = rng.integers(0, 4)
        if kind == 0:
            out = nl.add_gate(str(rng.choice(_CELLS_1)), int(rng.choice(nets)))
        elif kind == 3:
            out = nl.add_gate("MUX2", int(rng.choice(nets)),
                              int(rng.choice(nets)), int(rng.choice(nets)))
        else:
            out = nl.add_gate(str(rng.choice(_CELLS_2)), int(rng.choice(nets)),
                              int(rng.choice(nets)))
        nets.append(out)
    n_out = min(4, len(nets))
    out_nets = [int(rng.choice(nets)) for _ in range(n_out)]
    nl.set_output_bus("y", out_nets, signed=bool(rng.integers(0, 2)))
    return nl


def _folded_incremental(nl: Netlist):
    """Root-fold a netlist into the mutable incremental form."""
    base, _ = ArrayCircuit.from_netlist(nl)
    folded, node_map = synthesize_arrays(base, None)
    return base, IncrementalCircuit.from_arrays(folded), node_map


def _random_ties(rng: np.random.Generator, inc: IncrementalCircuit,
                 node_map, n_fixed: int, n_base_gates: int) -> dict[int, int]:
    """A consistent node → constant tie set over live folded signals."""
    n = int(rng.integers(1, max(2, n_base_gates // 3)))
    gates = rng.choice(n_base_gates, size=n, replace=False)
    ties: dict[int, int] = {}
    for g in gates:
        node = node_map[n_fixed + int(g)]
        if node < 2:
            continue  # dead, or already folded to a constant
        value = int(rng.integers(0, 2))
        if ties.get(node, value) != value:
            continue  # keep the tie set conflict-free
        ties[node] = value
    return ties


def _activity_multiset(ops, report):
    """Order-independent per-gate activity summary."""
    return sorted(zip(np.asarray(ops, dtype=np.int64).tolist(),
                      report.ones.tolist(), report.flips.tolist()))


_OPCODE_OF_CELL = {"INV": 0, "BUF": 1, "AND2": 2, "OR2": 3, "XOR2": 4,
                   "XNOR2": 5, "NAND2": 6, "NOR2": 7, "MUX2": 8}


class TestBatchedEvaluatorEquivalence:
    @given(seed=st.integers(0, 10_000),
           n_vectors=st.sampled_from([1, 3, 63, 64, 65, 130]))
    @settings(max_examples=20, deadline=None)
    def test_batch_of_k_matches_serial_compiled_and_bigint(self, seed,
                                                           n_vectors):
        """K clamped variants in one pass == K snapshots == the oracle."""
        rng = np.random.default_rng(seed)
        nl = _random_netlist(rng, int(rng.integers(10, 80)),
                             int(rng.integers(2, 6)))
        base, inc, node_map = _folded_incremental(nl)
        if inc.n_live == 0:
            return
        plan = inc.plan()
        n_parent_slots = len(inc.ops)
        width = len(nl.input_buses["x"])
        arrays = {"x": rng.integers(0, 1 << width, n_vectors)}
        packed = pack_stimulus(arrays, {"x": width}, n_vectors)

        K = int(rng.integers(2, 6))
        specs, references = [], []
        for _ in range(K):
            branch = inc.fork()
            ties = _random_ties(rng, branch, node_map, base.n_fixed,
                                base.n_gates)
            try:
                applied = branch.tie(ties)
            except ValueError:
                continue  # one tie's cascade folded another's target
            clamps = {node: value for node, value in applied.items()
                      if node < plan.n_nets}
            specs.append(branch.variant_spec(clamps, n_parent_slots))
            references.append(branch.snapshot().to_netlist())
        if not specs:
            return

        sims = BatchedEvaluator(plan, n_vectors, packed).evaluate(specs)
        K = len(specs)
        assert len(sims) == K
        for sim, ref in zip(sims, references):
            oracle = simulate_bigint(ref, arrays)
            np.testing.assert_array_equal(sim.bus_ints("y"),
                                          oracle.bus_ints("y"))
            assert sim.circuit.n_gates == ref.n_gates
            # Gate order differs (node order vs compacted topological
            # order), so compare activity as an (op, ones, flips)
            # multiset — exactly what area/power reduce over.
            got = _activity_multiset(sim.circuit.ops, sim.activity())
            want = _activity_multiset(
                [_OPCODE_OF_CELL[c] for c in ref.gate_type],
                oracle.activity())
            assert got == want
            assert area_mm2(sim.circuit) == area_mm2(ref)
            assert power_mw(sim.circuit, sim.activity()) == \
                power_mw(ref, oracle.activity())

    @given(seed=st.integers(0, 10_000))
    @example(seed=1078)  # tie 2 clamps a helper node tie 1 created
    @settings(max_examples=15, deadline=None)
    def test_accumulated_clamps_across_ties(self, seed):
        """Two sequential ties described by one clamp set (plan epochs).

        Mirrors the batched walk's epoch rule: a tie that clamps a
        helper node created since the plan was captured starts a fresh
        epoch on the current circuit.
        """
        rng = np.random.default_rng(seed)
        nl = _random_netlist(rng, int(rng.integers(15, 70)), 4)
        base, inc, node_map = _folded_incremental(nl)
        if inc.n_live < 4:
            return
        plan = inc.plan()
        n_parent_slots = len(inc.ops)
        n_vectors = 70
        arrays = {"x": rng.integers(0, 16, n_vectors)}
        packed = pack_stimulus(arrays, {"x": 4}, n_vectors)

        branch = inc.fork()
        clamps: dict[int, int] = {}
        for _ in range(2):
            ties = _random_ties(rng, branch, node_map, base.n_fixed,
                                base.n_gates)
            try:
                applied = branch.tie(ties)
            except ValueError:
                return  # cascade conflict: nothing to assert here
            if any(node >= plan.n_nets for node in applied):
                with pytest.raises(ValueError, match="helper node"):
                    branch.variant_spec(applied, n_parent_slots)
                plan, n_parent_slots, clamps = \
                    branch.plan(), len(branch.ops), {}
            else:
                clamps.update(applied)
        spec = branch.variant_spec(clamps, n_parent_slots)
        sim, = BatchedEvaluator(plan, n_vectors, packed).evaluate([spec])
        ref = branch.snapshot().to_netlist()
        oracle = simulate_bigint(ref, arrays)
        np.testing.assert_array_equal(sim.bus_ints("y"),
                                      oracle.bus_ints("y"))
        assert _activity_multiset(sim.circuit.ops, sim.activity()) == \
            _activity_multiset([_OPCODE_OF_CELL[c] for c in ref.gate_type],
                               oracle.activity())


class TestTieRegression:
    def test_tie_matches_reference_synthesis(self, svm_setup):
        """Worklist cone rewriting == from-scratch builder replay.

        For every prune set of a real exploration grid, applying the
        set as an incremental tie on the root-folded circuit must reach
        the same live-gate count, the same cell histogram, and
        bit-identical output waveforms as ``synthesize_reference``
        resynthesizing from scratch — the invariant the incremental
        exploration (and its batched evaluation) rests on.  (On
        arbitrary random netlists with arbitrary interacting tie sets
        this equivalence is *not* guaranteed — tau-correlated prune
        sets are what make it hold, which is exactly what this pins.)
        """
        netlist, make_evaluator = svm_setup
        evaluator = make_evaluator()
        space = NetlistPruner(netlist, evaluator, (0.85, 0.95)).space()
        base, _ = ArrayCircuit.from_netlist(netlist)
        stimulus = evaluator.test_inputs
        checked = 0
        for tau_c in (0.85, 0.90, 0.95, 0.99):
            for phi_c in space.phi_levels(tau_c):
                force = space.prune_set(tau_c, phi_c)
                if not force:
                    continue
                reference = synthesize_reference(netlist,
                                                 force_constants=force)
                folded, node_map = synthesize_arrays(base, None)
                inc = IncrementalCircuit.from_arrays(folded)
                ties = {}
                for g, value in force.items():
                    node = node_map[base.n_fixed + g]
                    if node >= 0:
                        ties[node] = value
                inc.tie(ties)
                snap = inc.snapshot().to_netlist()
                assert snap.n_gates == reference.n_gates
                assert sorted(snap.gate_type) == sorted(reference.gate_type)
                bus = next(iter(reference.output_buses))
                got = simulate_bigint(snap, stimulus)
                want = simulate_bigint(reference, stimulus)
                np.testing.assert_array_equal(got.bus_ints(bus),
                                              want.bus_ints(bus))
                checked += 1
        assert checked >= 4  # the grid actually produced prune sets


@pytest.fixture(scope="module")
def svm_setup():
    split = load_dataset("redwine").standard_split(seed=0)
    model = LinearSVMRegressor(seed=1, max_epochs=250).fit(
        split.X_train, split.y_train)
    quant = quantize_model(model)
    netlist = build_bespoke_netlist(quant)

    def make_evaluator(engine="auto"):
        return CircuitEvaluator.from_split(
            quant, split.X_train, split.X_test, split.y_test, engine=engine)

    return netlist, make_evaluator


class TestBatchedExploration:
    def test_batched_explore_matches_legacy_and_compiled(self, svm_setup):
        netlist, make_evaluator = svm_setup
        grid = (0.82, 0.85, 0.90, 0.95, 0.99)
        batched = NetlistPruner(netlist, make_evaluator("batched"),
                                grid).explore()
        compiled = NetlistPruner(netlist, make_evaluator("compiled"),
                                 grid).explore()
        legacy = NetlistPruner(netlist, make_evaluator("compiled"),
                               grid).explore_legacy()
        assert batched == compiled == legacy

    def test_auto_engine_resolves_to_batched(self, svm_setup):
        netlist, make_evaluator = svm_setup
        pruner = NetlistPruner(netlist, make_evaluator("auto"), (0.95,))
        assert pruner.resolved_engine() == "batched"
        assert NetlistPruner(netlist, make_evaluator("bigint"),
                             (0.95,)).resolved_engine() == "bigint"
        assert NetlistPruner(netlist, make_evaluator("auto"), (0.95,),
                             engine="compiled").resolved_engine() \
            == "compiled"

    def test_memo_survives_repeat_explores(self, svm_setup):
        """A second explore() reuses the record memo, identically."""
        netlist, make_evaluator = svm_setup
        pruner = NetlistPruner(netlist, make_evaluator(), (0.90, 0.95))
        first = pruner.explore()
        second = pruner.explore()
        assert first == second

    def test_evaluate_batch_matches_evaluate_simulated(self, svm_setup):
        """Batched scoring is record-identical to per-variant scoring."""
        netlist, make_evaluator = svm_setup
        evaluator = make_evaluator()
        base, _ = ArrayCircuit.from_netlist(netlist)
        folded, node_map = synthesize_arrays(base, None)
        inc = IncrementalCircuit.from_arrays(folded)
        plan = inc.plan()
        n_parent_slots = len(inc.ops)
        n_vectors, _arrays, packed = evaluator.test_stimulus(netlist)

        rng = np.random.default_rng(5)
        specs = []
        for _ in range(3):
            branch = inc.fork()
            ties = _random_ties(rng, branch, node_map, base.n_fixed,
                                base.n_gates)
            applied = branch.tie(ties)
            clamps = {n: v for n, v in applied.items() if n < plan.n_nets}
            specs.append(branch.variant_spec(clamps, n_parent_slots))
        sims = BatchedEvaluator(plan, n_vectors, packed).evaluate(specs)
        batch_records = evaluator.evaluate_batch(sims)
        solo_records = [evaluator.evaluate_simulated(s.circuit, s)
                        for s in sims]
        assert batch_records == solo_records
