"""Netlist pruning through full-search exploration (Section III-C).

Two statistics constrain which gates may be replaced by constants:

* ``tau`` — the maximum fraction of (training-set) time a gate's output is
  '0' or '1'; replacing the gate with that constant yields an error rate
  of at most ``1 - tau``.  The paper's sweep runs tau_c over [80%, 99%]
  (note: the paper's prose says "tau <= tau_c", but pruning *mostly
  constant* gates — ``tau >= tau_c`` — is the only reading consistent with
  its own example and with the sweep's direction; this implementation
  prunes gates with ``tau >= tau_c``).

* ``phi`` — the most significant *relevant* output bit a gate reaches
  through any path, bounding the error magnitude at ``2^(phi_c + 1)``.
  For regressors the relevant bits are the output bus itself.  For
  classifiers the paper's key observation applies: the argmax head
  congests all paths into a few index bits and destroys the correlation
  between numerical error and classification error, so ``phi`` is
  computed with respect to the *inputs of the argmax* (the pre-argmax
  neuron/score buses, carried in the netlist ``meta``); gates past that
  point (inside the comparator/vote network) reach no watched bit and get
  ``phi = -1``, making them prunable under any ``phi_c`` — their damage is
  already bounded in *frequency* by ``tau``.

The exploration is a full search over the (tau_c, phi_c) grid, organized
for speed:

* **Incremental chains.** For a fixed tau_c the prune sets grow
  monotonically with phi_c, so each chain applies only the *delta* gates
  to the previously pruned-and-synthesized netlist (located through the
  net map of :func:`~repro.hw.synthesis.synthesize_with_map`) instead of
  resynthesizing the base circuit from scratch.
* **Memoized records.** Identical prune sets arising from different
  (tau_c, phi_c) pairs are evaluated once; the record memo also persists
  on the pruner across ``explore()`` calls.
* **Batched evaluation.** On the default (``"batched"``) engine the trie
  walk defers scoring: variants are described against shared *plan
  epochs* by constant-clamp masks and evaluated in bulk
  ``(n_nets, K, n_words)`` passes
  (:class:`~repro.hw.compiled.BatchedEvaluator`), eliminating the
  per-variant snapshot + plan build + separate NumPy sweeps of the
  per-variant engine.
* **Parallel chains.** Independent tau_c chains can fan out across a
  ``concurrent.futures`` process pool (``n_workers``); any pool failure
  falls back to the serial path, and both paths produce the identical
  design list.

Which engine am I using?  ``NetlistPruner.resolved_engine()`` answers
for one pruner: ``engine=None`` inherits the evaluator's selector, and
``"auto"`` resolves to ``"batched"`` on hosts that support the compiled
word layout.  Every engine — ``"batched"``, ``"compiled"``, ``"bigint"``
— returns the identical design list; ``explore_legacy()`` keeps the
original one-synthesis-per-grid-point loop as the reference oracle the
fast paths are benchmarked and regression-tested against.

Identity modes.  ``identity="exact"`` (the default) keeps the strict
record-identity contract above: every engine's design list is
bit-identical to ``explore_legacy``, gate counts and areas included.
``identity="relaxed"`` trades that structural exactness for exploration
throughput: the batched walk replaces the tau-major trie with a
*cross-tau lattice* — one top chain (the highest tau_c) ties its phi
ladder once, and inside each phi column every lower tau's state extends
its upper neighbor's live rewritten circuit by the tau-increment delta
(prune sets are nested along the tau axis at a fixed phi cutoff), which
cuts the dominant cone-rewrite work to roughly the top ladder plus the
per-column tau spreads.  Accuracies, (tau_c, phi_c) coordinates,
pruned-gate sets, and design-list ordering stay identical to exact mode
— strict tie targets plus candidate protection in
:mod:`repro.hw.incremental` keep every delta functionally equal to the
from-scratch fold — but the synthesized structure reached through the
different fold decomposition can differ by a few gates, so gate counts,
areas, and powers carry a small documented tolerance (see the "Identity
contract" section of ``docs/ARCHITECTURE.md``).  Relaxed mode only
changes the serial batched walk; the per-variant engines and pool
workers have no cross-tau fold to share and keep producing
exact-structure records (which trivially satisfy the relaxed
contract).
"""

from __future__ import annotations

import time
import warnings
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field, replace

import numpy as np

from ..eval.accuracy import CircuitEvaluator, EvaluationRecord
from ..hw.compiled import HOST_SUPPORTS_COMPILED
from ..hw.incremental import IncrementalCircuit
from ..hw.netlist import Netlist
from ..hw.simulate import ActivityReport
from ..hw.synthesis import (
    ArrayCircuit,
    synthesize,
    synthesize_arrays,
    synthesize_reference,
)

__all__ = [
    "compute_phi",
    "PruneSpace",
    "PrunedDesign",
    "NetlistPruner",
    "DEFAULT_TAU_GRID",
    "RELAXED_BLOCK",
    "assemble_designs",
    "prune_key_ids",
    "prune_key_bytes",
]

# tau_c in {0.80, 0.81, ..., 0.99}, the paper's grid.
DEFAULT_TAU_GRID = tuple(np.round(np.arange(0.80, 1.00, 0.01), 2))

# Lazy bridge to repro.service.faults: importing it at module level
# would close the core ↔ service import cycle (this module loads before
# the service package, and service.jobs loads this module mid-way).
# Resolved on first use, long after both packages finished importing.
_fault_point = None


def fault_point(site: str, **ctx) -> None:
    """Named fault-injection site (see :mod:`repro.service.faults`)."""
    global _fault_point
    if _fault_point is None:
        from ..service.faults import fault_point as resolved
        _fault_point = resolved
    _fault_point(site, **ctx)


# Same lazy-bridge pattern for the telemetry hub: the core walk reports
# spans and counters to :mod:`repro.service.telemetry` without ever
# importing the service package at module level.
_telemetry = None


def _service_telemetry():
    global _telemetry
    if _telemetry is None:
        from ..service import telemetry as resolved
        _telemetry = resolved
    return _telemetry

# Chains per relaxed-mode lattice block.  The relaxed walk resets its
# cross-tau lattice (top chain, protection set, plan epochs) at *grid*
# positions — every RELAXED_BLOCK-th tau of the pruner's sorted full
# grid — never at whatever chain subset one call happens to receive.
# Records are therefore a function of the grid alone: serial walks,
# and sharded jobs of any shard size (the service rounds relaxed
# shards up to whole blocks), all produce identical relaxed records.
RELAXED_BLOCK = 5


def compute_phi(nl: Netlist,
                watch_buses: list[list[int]] | None = None) -> np.ndarray:
    """Per-gate ``phi``: highest watched output bit reachable (-1 if none).

    ``watch_buses`` defaults to the netlist's ``meta['watch_buses']``
    (pre-argmax buses for classifiers, the output bus for regressors).
    A single reverse-topological sweep propagates the maximum watched bit
    index backwards through the fanin cones.
    """
    if watch_buses is None:
        watch_buses = nl.meta.get("watch_buses")
        if watch_buses is None:
            watch_buses = list(nl.output_buses.values())
    net_phi = np.full(nl.n_nets, -1, dtype=np.int64)
    for bus in watch_buses:
        for bit, net in enumerate(bus):
            if net_phi[net] < bit:
                net_phi[net] = bit
    gate_phi = np.full(nl.n_gates, -1, dtype=np.int64)
    gate_inputs = nl.gate_inputs
    gate_out = nl.gate_out
    for gate_idx in range(nl.n_gates - 1, -1, -1):
        out_phi = net_phi[gate_out[gate_idx]]
        gate_phi[gate_idx] = out_phi
        if out_phi >= 0:
            for net in gate_inputs[gate_idx]:
                if net_phi[net] < out_phi:
                    net_phi[net] = out_phi
    return gate_phi


@dataclass(frozen=True)
class PruneSpace:
    """Precomputed pruning statistics over one base netlist."""

    netlist: Netlist
    tau: np.ndarray
    const_value: np.ndarray
    phi: np.ndarray
    # Candidate sets are shared between phi_levels/prune_set/tau_steps, so
    # one tau_c never recomputes the tau comparison (mutable cache on a
    # frozen dataclass; excluded from equality).
    _candidates: dict = field(default_factory=dict, repr=False, compare=False)

    @staticmethod
    def from_activity(nl: Netlist, activity: ActivityReport) -> "PruneSpace":
        return PruneSpace(nl, activity.tau, activity.const_value,
                          compute_phi(nl))

    def candidates(self, tau_c: float) -> np.ndarray:
        """Gate indices whose output is constant at least ``tau_c`` of the
        time (small epsilon absorbs float rounding on the grid)."""
        key = round(float(tau_c), 9)
        cached = self._candidates.get(key)
        if cached is None:
            cached = np.flatnonzero(self.tau >= tau_c - 1e-9)
            self._candidates[key] = cached
        return cached

    def phi_levels(self, tau_c: float) -> list[int]:
        """The paper's ``Phi_tau``: unique phi values among candidates."""
        gates = self.candidates(tau_c)
        return sorted(int(v) for v in np.unique(self.phi[gates]))

    def prune_set(self, tau_c: float, phi_c: int) -> dict[int, int]:
        """Gate -> constant map for all gates with tau >= tau_c, phi <= phi_c."""
        gates = self.candidates(tau_c)
        selected = gates[self.phi[gates] <= phi_c]
        return {int(g): int(self.const_value[g]) for g in selected}

    def tau_steps(self, tau_c: float) -> list[tuple[int, dict[int, int]]]:
        """All (phi_c, prune set) steps of one tau_c chain, ascending.

        Computes the candidate set once per tau_c; successive prune sets
        are strict supersets (each phi level admits at least one new gate).
        """
        gates = self.candidates(tau_c)
        if gates.size == 0:
            return []
        phis = self.phi[gates]
        consts = self.const_value[gates]
        # Walking the candidates sorted by phi lets each step extend the
        # previous one with plain list slices (no per-gate re-filtering).
        order = np.argsort(phis, kind="stable")
        sorted_gates = gates[order].tolist()
        sorted_consts = consts[order].tolist()
        sorted_phis = phis[order]
        steps = []
        for phi_c in sorted(int(v) for v in np.unique(phis)):
            count = int(np.searchsorted(sorted_phis, phi_c, side="right"))
            force = dict(zip(sorted_gates[:count], sorted_consts[:count]))
            steps.append((phi_c, force))
        return steps


@dataclass(frozen=True)
class PrunedDesign:
    """One evaluated point of the pruning design space."""

    tau_c: float
    phi_c: int
    n_pruned: int
    record: EvaluationRecord
    duplicate_of: tuple[float, int] | None = None


def prune_key_ids(key) -> tuple[int, ...]:
    """Canonical prune-set identity: the sorted pruned-gate ids.

    The exploration walks key their steps differently — the per-variant
    paths by a ``frozenset`` of gate ids, the batched walk by the sorted
    gate-id int64 byte string — but for one base netlist the tied
    constants are a pure function of the gate set (the training activity
    fixes ``const_value``), so the sorted gate ids identify the variant.
    The service layer's content-addressed store
    (:mod:`repro.service.store`) hashes this canonical form.  Elements
    may also be ``(gate, constant)`` pairs; the constant is ignored.
    """
    if isinstance(key, (bytes, bytearray)):
        return tuple(int(v) for v in np.frombuffer(key, dtype=np.int64))
    return tuple(sorted(int(item[0]) if isinstance(item, tuple) else int(item)
                        for item in key))


def prune_key_bytes(ids) -> bytes:
    """The batched walk's step key for a canonical gate-id tuple.

    Inverse of :func:`prune_key_ids` on the batched path; the service
    layer uses it to pre-seed a pruner's record memo from stored
    variants so a warm walk skips their evaluation entirely.
    """
    return np.sort(np.asarray(ids, dtype=np.int64)).tobytes()


def _needs_netlist(evaluator: CircuitEvaluator) -> bool:
    """True when the evaluator cannot consume array-form variants directly."""
    engine = getattr(evaluator, "engine", "auto")
    return engine == "bigint" or (engine in ("auto", "batched")
                                  and not HOST_SUPPORTS_COMPILED)


def _apply_step(base: ArrayCircuit, state: tuple,
                force: dict[int, int]) -> tuple[tuple, ArrayCircuit]:
    """Synthesize one prune set, reusing the previous chain state.

    ``state`` is ``(incremental circuit, base-node → state-node map,
    pruned gate set)`` of the previous (subset) prune step, or the
    chain-root state (:func:`_root_state`) for the first step.  Only the
    delta gates are tied onto the previous (mutable, already-folded)
    circuit — located through the node map
    (:meth:`~repro.hw.incremental.IncrementalCircuit.tie_gates`) —
    instead of resynthesizing the base circuit; state node ids are
    stable, so the root map serves the whole chain.  Returns the new
    chain state and the compacted variant for evaluation.

    The step falls back to a from-scratch synthesis whenever a delta
    gate's surviving signal already folded to the *opposite* constant, or
    a rewrite cascade trips the safety cap — correctness first, reuse
    second.
    """
    inc, base_map, prev_gates = state
    delta = [(gate_idx, value) for gate_idx, value in force.items()
             if gate_idx not in prev_gates]
    applied = inc.tie_gates([gate for gate, _value in delta],
                            [value for _gate, value in delta],
                            base_map)
    if applied is not None:
        return (inc, base_map, set(force)), inc.snapshot()
    force_by_node = {base.n_fixed + gate_idx: value
                     for gate_idx, value in force.items()}
    pruned, chain_map = synthesize_arrays(base, force_by_node)
    state = (IncrementalCircuit.from_arrays(pruned), chain_map, set(force))
    return state, pruned


def _evaluate_variant(evaluator: CircuitEvaluator, circ: ArrayCircuit,
                      as_netlist: bool) -> EvaluationRecord:
    """Score one variant, materializing a netlist only when required."""
    return evaluator.evaluate(circ.to_netlist() if as_netlist else circ)


def _root_state(base: ArrayCircuit) -> tuple:
    """Fold the base once and wrap it as the shared chain-root state.

    Every chain root forks this state and ties its first prune set onto
    it — the cone rewrite replaces a from-scratch synthesis per chain.
    """
    folded, node_map = synthesize_arrays(base, None)
    return (IncrementalCircuit.from_arrays(folded), node_map, frozenset())


def _explore_chain(base: ArrayCircuit, evaluator: CircuitEvaluator,
                   tau_c: float,
                   steps: list[tuple[int, dict[int, int]]],
                   root_state: tuple) -> list[tuple]:
    """Evaluate one tau_c chain; returns (phi_c, key, n_pruned, record) rows."""
    rows = []
    state = root_state
    as_netlist = _needs_netlist(evaluator)
    for phi_c, force in steps:
        if not force:
            continue
        state, variant = _apply_step(base, state, force)
        record = _evaluate_variant(evaluator, variant, as_netlist)
        rows.append((phi_c, frozenset(force), len(force), record))
    return rows


def _explore_trie(base: ArrayCircuit, evaluator: CircuitEvaluator,
                  chains: list[tuple[float, list]],
                  known_records: dict | None,
                  root_state: tuple) -> list[list[tuple]]:
    """Evaluate all chains at once, sharing work across equal prefixes.

    Chains whose prune-set sequences share a prefix (extremely common:
    neighboring tau_c values usually select identical candidate sets)
    are walked as one trie, so every unique prefix is synthesized and
    evaluated exactly once.  Because a chain's state is a deterministic
    function of its step-key prefix, sharing is exact — each chain's rows
    are identical to what :func:`_explore_chain` would produce alone.
    """
    results: list[list[tuple]] = [[] for _ in chains]
    as_netlist = _needs_netlist(evaluator)

    def visit(chain_ids: list[int], depth: int, state: tuple) -> None:
        groups: dict[frozenset, list[int]] = {}
        for ci in chain_ids:
            steps = chains[ci][1]
            if depth < len(steps) and steps[depth][1]:
                groups.setdefault(frozenset(steps[depth][1]), []).append(ci)
        group_items = list(groups.items())
        for position, (key, ids) in enumerate(group_items):
            # Sibling branches mutate the chain state in place, so every
            # branch but the last works on a fork of the shared prefix.
            if position < len(group_items) - 1:
                branch_state = (state[0].fork(), state[1], state[2])
            else:
                branch_state = state
            force = chains[ids[0]][1][depth][1]
            next_state, variant = _apply_step(base, branch_state, force)
            if known_records is not None and key in known_records:
                record = known_records[key]
            else:
                record = _evaluate_variant(evaluator, variant, as_netlist)
                if known_records is not None:
                    known_records[key] = record
            for ci in ids:
                phi_c = chains[ci][1][depth][0]
                results[ci].append((phi_c, key, len(key), record))
            visit(ids, depth + 1, next_state)

    visit(list(range(len(chains))), 0, root_state)
    return results


# Rebuild a variant's evaluation plan once the circuit shrank below
# this fraction of the plan it inherited: simulations then never run on
# a plan more than 1/PLAN_REFRESH times the variant's own size, while
# total plan-build work stays geometric (a few rebuilds per chain).
_PLAN_REFRESH = 0.5
# ... but only when the plan is big enough for simulation size to
# matter (gate-words): small plans are NumPy-dispatch-bound, where one
# shared plan per batch beats many right-sized plans.
_PLAN_REFRESH_MIN_WORK = 16_000
# The relaxed walk's cross-tau root chain refreshes more eagerly: a
# root's plan epoch is inherited by its chain's whole phi descent, so an
# oversized plan taxes every (bandwidth-bound) simulation under it,
# while a root-chain plan build amortizes over many captures.
_ROOT_PLAN_REFRESH = 1.0


def _explore_trie_batched(base: ArrayCircuit, evaluator: CircuitEvaluator,
                          space: PruneSpace,
                          chains: list[tuple[float, list]],
                          known_records: dict | None,
                          root_state: tuple,
                          relaxed: bool = False,
                          grid: tuple | None = None) -> list[list[tuple]]:
    """The exploration walk on the batched engine.

    The trie of prune-set prefixes is walked exactly as in
    :func:`_explore_trie` — fork shared prefixes, tie each group's
    delta, so every state's folded circuit is the *same object path*
    the per-variant engine produces — but the per-variant snapshot +
    plan build + simulation is replaced by two mechanisms resting on
    the rewriter's stable node ids:

    * **Plan epochs.**  A levelized plan (in node-id space) is captured
      only when a variant has shrunk below ``_PLAN_REFRESH`` of the
      plan its chain inherited; between refreshes a variant is
      described against the epoch plan by its accumulated clamp set
      (union of applied ``tie`` constants) plus the live helper gates
      created since the epoch.  A tie that clamps one of those helper
      nodes ends the epoch: the plan has no slot for the clamp, so the
      next capture re-plans.
      Simulations therefore track variant size without one plan per
      variant, and the clamped-parent waveforms equal the rewritten
      variant's exactly (cone rewriting only replaces nodes with
      functionally identical ones).

    * **Deferred batches.**  Specs collect during the walk and evaluate
      afterwards, grouped per epoch plan, as
      :class:`~repro.hw.compiled.BatchedEvaluator` ``(n_nets, K,
      n_words)`` passes — the per-level NumPy dispatch overhead is paid
      once per batch, not once per variant — and are scored through
      :meth:`~repro.eval.accuracy.CircuitEvaluator.evaluate_batch`.

    The *fold decomposition* is, by default, deliberately identical to
    :func:`_explore_trie`: a state is always (chain-root prune set,
    then phi-increments).  Organizing the walk around other nestings —
    e.g. deriving a chain root from the previous tau's state — changes
    which rewrite rules fire and can reach a (functionally equal but)
    structurally different circuit than ``explore_legacy``'s
    from-scratch synthesis, which the exact-mode acceptance bench would
    flag.

    ``relaxed=True`` (``identity="relaxed"``) opts into exactly that
    cheaper nesting: the distinct depth-0 prune sets become a
    **cross-tau shared-root chain forest**.  Roots are walked in
    *descending* tau order, so each root's gate set is (almost always —
    the first phi level can shift when a new low-phi candidate appears)
    a superset of the previous root's; the walk then ties only the
    *delta* gates onto the previous root's live rewritten circuit,
    reusing its plan epoch and accumulated clamp set, instead of
    re-tying the full root set onto a fork of the base fold.  Each
    chain's phi-increment descent forks off its root unchanged.  When
    the superset relation fails (or the delta tie degenerates), that
    root refolds from scratch — structure there is then exact again.
    Accuracies, coordinates, pruned sets, and row ordering are
    unaffected (cone rewrites preserve function); only the synthesized
    structure — gate counts, areas, powers — may differ by the fold's
    order-sensitivity.

    A degenerate tie (conflict or rewrite-cascade overflow) rebuilds
    the branch from scratch like :func:`_apply_step` and starts a fresh
    plan epoch in the rebuilt node space.  Records are integer
    reductions that come out bit-identical on every engine, pinned by
    the equivalence tests against ``explore_legacy``.

    Bookkeeping note: a chain's steps are *prefix slices* of its
    phi-sorted candidate arrays, and chains grouped together in the
    trie have set-equal prefixes, so step deltas are plain array
    slices and step identity is a sorted-ids byte string — no per-step
    force dicts or frozensets (which cost O(total prune-set size) in
    dict operations per exploration on the legacy representation).
    """
    from ..hw.compiled import BatchedEvaluator

    results: list[list[tuple]] = [[] for _ in chains]
    n_fixed = base.n_fixed
    as_netlist = _needs_netlist(evaluator)
    n_vectors, _arrays, packed = evaluator.test_stimulus(base)
    n_words = max(1, (n_vectors + 63) // 64)

    # Array-form chains: candidate gates/constants sorted by phi; each
    # step is (phi_c, prefix length) into those arrays.
    chain_arrays: list[tuple] = []
    for tau_c, steps in chains:
        gates = space.candidates(tau_c)
        phis = space.phi[gates]
        order = np.argsort(phis, kind="stable")
        gates_sorted = gates[order]
        consts_sorted = space.const_value[gates][order]
        sorted_phis = phis[order]
        counts = np.searchsorted(sorted_phis,
                                 [phi_c for phi_c, _force in steps],
                                 side="right")
        chain_arrays.append(
            (gates_sorted.tolist(), consts_sorted.tolist(), gates_sorted,
             [(phi_c, int(count))
              for (phi_c, _force), count in zip(steps, counts)]))

    pending: dict[bytes, tuple] = {}  # step key -> (plan, VariantSpec)
    resolved: dict[bytes, EvaluationRecord] = {}

    def known(key: bytes) -> bool:
        return (known_records is not None and key in known_records) \
            or key in resolved or key in pending

    def capture(key: bytes, state: list,
                refresh: float = _PLAN_REFRESH) -> None:
        """Queue one variant for the deferred batch (or refresh epoch)."""
        inc, plan, plan_slots, clamps = state[0], state[3], state[4], \
            state[5]
        if plan is None or (inc.n_live < refresh * plan.n_gates
                            and plan.n_gates * n_words
                            >= _PLAN_REFRESH_MIN_WORK):
            # New epoch: the plan captured now *is* this variant; later
            # steps on this chain describe themselves against it.
            plan = inc.plan()
            plan_slots = len(inc.ops)
            clamps = {}
            state[3], state[4], state[5] = plan, plan_slots, clamps
        pending[key] = (plan, inc.variant_spec(dict(clamps), plan_slots))

    def merge_clamps(state: list, applied: dict) -> None:
        """Fold a tie's applied clamp map into the state's epoch clamps.

        A clamp on a helper node created since the epoch began has no
        slot in the epoch plan, so it cannot be expressed as a clamp:
        the state re-plans instead (the next capture starts a fresh
        epoch on the current circuit).
        """
        plan = state[3]
        if plan is None:
            return
        plan_nets = plan.n_nets
        if any(node >= plan_nets for node in applied):
            state[3] = None
            return
        state[5].update(applied)

    def refold(state: list, ci: int, count: int, key: bytes) -> list:
        """Rebuild a state's prune-set prefix from scratch, in place.

        The degenerate-tie fallback: the variant is synthesized and
        evaluated directly (structure exact by construction), and the
        state restarts in the rebuilt node space with a fresh plan
        epoch.  In relaxed mode the rebuilt state is *opaque* (node map
        ``None``): its map was produced by a fold *under ties*, whose
        CSE can silently merge a not-yet-pruned gate into a pruned
        one's node — a clamp through such a map entry would clamp more
        than the prune set and drift the function.  Exact-mode chains
        never share rewrites across tau, their in-chain refolds are
        pinned by the ``explore_legacy`` equivalence, so they keep the
        map; opaque relaxed states simply refold every later step.
        """
        gates_l, consts_l, _gates_np, _steps = chain_arrays[ci]
        force_by_node = {n_fixed + gate_idx: value
                         for gate_idx, value
                         in zip(gates_l[:count], consts_l[:count])}
        pruned, chain_map = synthesize_arrays(base, force_by_node)
        state[:] = [IncrementalCircuit.from_arrays(pruned),
                    None if relaxed else chain_map, count, None, 0, {}]
        if not known(key):
            resolved[key] = _evaluate_variant(evaluator, pruned,
                                              as_netlist)
        return state

    def apply_step(state: list, ci: int, depth: int, key: bytes) -> list:
        """Advance a chain state by one prune step, in place."""
        gates_l, consts_l, _gates_np, steps = chain_arrays[ci]
        count = steps[depth][1]
        lo = state[2]
        applied = state[0].tie_gates(gates_l[lo:count],
                                     consts_l[lo:count], state[1])
        if applied is None:
            return refold(state, ci, count, key)
        state[2] = count
        merge_clamps(state, applied)
        if not known(key):
            capture(key, state)
        return state

    def visit(chain_ids: list[int], depth: int, state: list) -> None:
        groups: dict[bytes, list[int]] = {}
        for ci in chain_ids:
            gates_np = chain_arrays[ci][2]
            steps = chain_arrays[ci][3]
            if depth < len(steps):
                key = np.sort(gates_np[:steps[depth][1]]).tobytes()
                groups.setdefault(key, []).append(ci)
        if not groups:
            return
        group_items = list(groups.items())
        for position, (key, ids) in enumerate(group_items):
            # Sibling branches mutate the chain state in place, so every
            # branch but the last works on a fork of the shared prefix.
            if position < len(group_items) - 1:
                branch = [state[0].fork(), state[1], state[2],
                          state[3], state[4], dict(state[5])]
            else:
                branch = state
            branch = apply_step(branch, ids[0], depth, key)
            phi_count = chain_arrays[ids[0]][3][depth]
            for ci in ids:
                phi_c = chain_arrays[ci][3][depth][0]
                results[ci].append((phi_c, key, phi_count[1]))
            visit(ids, depth + 1, branch)

    def extend(state: list, prev_ids: np.ndarray, cur_ids: np.ndarray,
               ci: int, count: int, key: bytes, refresh: float,
               donor: tuple | None = None) -> list:
        """Advance a lattice state to the prune set ``cur_ids``, in place.

        Four rungs, cheapest first:

        1. **Delta tie** — ``cur_ids`` is a superset of the state's set
           by construction (fixed phi cutoff, relaxed tau), so only the
           set difference is tied onto the live circuit, through the
           pristine root-fold map with ``strict_targets`` (see
           :meth:`~repro.hw.incremental.IncrementalCircuit.tie`): a
           delta gate whose signal an *earlier* tie's cascade merged
           into another live signal cannot be clamped soundly, so the
           rung is refused and the walk drops down a rung.
        2. **Donor fork** — re-derive from a fork of the column's top
           state and tie the (column-spread-sized) difference, again
           strictly.
        3. **Pristine one-tie** — a fresh pristine fork takes the full
           set as one tie call; mid-call cascades are the exact walk's
           own mechanics, pinned by the tie-vs-``synthesize_reference``
           regression, so no strictness is needed.
        4. **Refold** — from-scratch synthesis; structure is exact and
           the state goes opaque (``refold``), recovering at the next
           grid point through rung 3.
        """
        applied = None
        if state[1] is not None:
            delta = np.setdiff1d(cur_ids, prev_ids, assume_unique=True)
            applied = state[0].tie_gates(
                delta, space.const_value[delta], state[1],
                strict_targets=True)
        if applied is None and donor is not None and donor[0][1] is not None:
            top_state, top_ids = donor
            state[:] = [top_state[0].fork(), top_state[1], top_state[2],
                        top_state[3], top_state[4], dict(top_state[5])]
            delta = np.setdiff1d(cur_ids, top_ids, assume_unique=True)
            applied = state[0].tie_gates(
                delta, space.const_value[delta], state[1],
                strict_targets=True)
        if applied is None:
            state[:] = [pristine.fork(), pristine_map, 0, None, 0, {}]
            applied = state[0].tie_gates(
                cur_ids, space.const_value[cur_ids], pristine_map)
        if applied is None:
            return refold(state, ci, count, key)
        state[2] = count
        merge_clamps(state, applied)
        if not known(key):
            capture(key, state, refresh)
        return state

    def lattice_walk(block_cis: list[int]) -> None:
        """The relaxed walk: a phi-major lattice with cross-tau chaining.

        The exact trie is tau-major: each tau_c chain re-folds and ties
        its whole phi ladder, and work is shared only between chains
        whose prune-set prefixes are *identical*.  Relaxed identity
        admits a better decomposition of the same grid.  For a fixed
        phi cutoff the prune sets are nested along the tau axis
        (``S(tau', phi) ⊇ S(tau, phi)`` for ``tau' < tau`` — pure tau
        relaxation, phi filter unchanged), so the walk goes column by
        column over the ascending union of phi levels:

        * a single **top chain** (the highest tau_c — the smallest
          candidate set) advances through the columns by its own
          phi-level deltas, exactly like one exact chain;
        * inside a column, every lower tau's state derives from its
          upper neighbor by the **tau-increment delta** — typically a
          handful of gates, where the exact walk re-ties an entire
          accumulated prune set per chain.

        Total cone-rewrite work drops from roughly
        ``sum_tau |candidates(tau)|`` to ``|candidates(tau_max)| +
        sum_columns (tau spread)``; plan epochs and clamp sets ride the
        top chain (eagerly refreshed, so simulations stay right-sized)
        and the per-column forks.  Records, keys, row ordering, and
        coordinates are identical to the exact walk; only synthesized
        structure may differ (the relaxed contract).

        ``block_cis`` is one grid-pinned lattice block (the caller
        partitions its chains at every ``RELAXED_BLOCK``-th position of
        the sorted full grid): cross-tau sharing never crosses a block
        boundary, which is what makes relaxed records independent of
        how a sharded job happens to slice the grid.
        """
        # Column index: phi level -> [(chain, prefix count)] in
        # ascending *tau value* (callers may pass an unsorted grid —
        # the within-column nesting S(tau', phi) ⊇ S(tau, phi) only
        # holds along the tau order); walked in reverse inside each
        # column.
        tau_order = sorted(block_cis, key=lambda ci: chains[ci][0])
        columns: dict[int, list[tuple[int, int]]] = {}
        for ci in tau_order:
            for phi_c, count in chain_arrays[ci][3]:
                if count:
                    columns.setdefault(phi_c, []).append((ci, count))
        if not columns:
            return
        top_ci = tau_order[-1]
        top_gnp = chain_arrays[top_ci][2]
        top_steps = chain_arrays[top_ci][3]
        top_levels = [phi_c for phi_c, _count in top_steps]
        top = [pristine.fork(), pristine_map, 0, None, 0, {}]
        top_ids = np.empty(0, dtype=np.int64)
        for lvl in sorted(columns):
            # Advance the top chain to its prefix at this column.
            idx = bisect_right(top_levels, lvl) - 1
            tcount = top_steps[idx][1] if idx >= 0 else 0
            if tcount > top[2]:
                cur_top = np.sort(top_gnp[:tcount])
                extend(top, top_ids, cur_top, top_ci, tcount,
                       cur_top.tobytes(), _ROOT_PLAN_REFRESH)
                top_ids = cur_top
            run: list | None = None
            prev_ids = top_ids
            for ci, count in columns[lvl][::-1]:
                cur_ids = np.sort(chain_arrays[ci][2][:count])
                key = cur_ids.tobytes()
                if run is None and cur_ids.size == prev_ids.size:
                    # Same (nested ⇒ equal) set as the top state.
                    if not known(key):
                        capture(key, top, _ROOT_PLAN_REFRESH)
                else:
                    if run is None:
                        run = [top[0].fork(), top[1], top[2],
                               top[3], top[4], dict(top[5])]
                    extend(run, prev_ids, cur_ids, ci, count, key,
                           _PLAN_REFRESH, donor=(top, top_ids))
                    prev_ids = cur_ids
                results[ci].append((lvl, key, count))

    root_inc, root_map, _root_gates = root_state
    if relaxed:
        pristine, pristine_map = root_inc, root_map
        map_np = np.asarray(pristine_map)
        # Partition the chains into grid-pinned lattice blocks: block
        # membership is a tau's *dense rank* among the sorted distinct
        # values of the full grid (every RELAXED_BLOCK ranks), never
        # this call's chain subset — so any block-aligned partition of
        # the grid (serial, or service shards of any size) reproduces
        # the same records, and duplicated tau values always share a
        # block.  A tau outside the pruner's grid is its own singleton
        # block (deterministic regardless of what it was called with).
        position = {} if grid is None else {
            value: index for index, value in enumerate(sorted(
                {round(float(t), 9) for t in grid}))}
        blocks: dict[tuple[int, int], list[int]] = {}
        for ci, (tau_c, _steps) in enumerate(chains):
            index = position.get(round(float(tau_c), 9))
            key = (1, ci) if index is None else (0, index // RELAXED_BLOCK)
            blocks.setdefault(key, []).append(ci)
        for key in sorted(blocks):
            block_cis = blocks[key]
            # Every gate the block may ever tie (any candidate at its
            # most permissive tau) is *protected*: the rewriter keeps
            # its signal un-merged (BUF aliases instead of live-merge
            # folds), so cross-tau delta ties always land on their own
            # nodes and the strict-target guard almost never fires.
            # Pinned per block for the same partition-independence.
            gates = space.candidates(min(chains[ci][0]
                                         for ci in block_cis))
            nodes = map_np[n_fixed + gates]
            pristine.protected = frozenset(
                nodes[nodes >= n_fixed].tolist())
            lattice_walk(block_cis)
        pristine.protected = None
    else:
        visit(list(range(len(chains))), 0,
              [root_inc, root_map, 0, None, 0, {}])

    # Deferred evaluation: one batch per plan epoch.
    if pending:
        by_plan: dict[int, list] = {}
        for key, (plan, spec) in pending.items():
            by_plan.setdefault(id(plan), [plan, [], []])
            by_plan[id(plan)][1].append(key)
            by_plan[id(plan)][2].append(spec)
        for plan, keys, specs in by_plan.values():
            sims = BatchedEvaluator(plan, n_vectors, packed).evaluate(specs)
            for key, record in zip(keys, evaluator.evaluate_batch(sims)):
                resolved[key] = record

    if known_records is not None:
        for key, record in resolved.items():
            known_records.setdefault(key, record)
        record_of = known_records
    else:
        record_of = resolved
    return [[(phi_c, key, n_pruned, record_of[key])
             for phi_c, key, n_pruned in rows] for rows in results]


# Worker-side state for the process pool: the (netlist, evaluator,
# engine, pruning statistics) bundle is shipped once per
# worker through the initializer instead of once per chain task.
_WORKER_CONTEXT: dict = {}


def _init_chain_worker(base: Netlist, evaluator: CircuitEvaluator,
                       use_batched: bool = False,
                       stats: tuple | None = None) -> None:
    circ, _ = ArrayCircuit.from_netlist(base)
    root = _root_state(circ)
    # Rebuild the PruneSpace worker-side from the shipped statistic
    # arrays (tau, const_value, phi) — the batched walk derives its
    # per-chain candidate prefixes from it, so workers never receive
    # per-step force dicts at all on that engine.
    space = PruneSpace(base, *stats) if stats is not None else None
    _WORKER_CONTEXT["args"] = (circ, evaluator, root, use_batched, space)


def _run_chain_task(task: tuple) -> list[tuple]:
    base, evaluator, root, use_batched, space = _WORKER_CONTEXT["args"]
    tau_c, steps = task
    # Pool workers inherit REPRO_FAULTS through the environment, so a
    # scheduled worker death ("exit"/"kill") fires here — the parent
    # sees a broken pool and the supervision path takes over.
    fault_point("worker.chain", tau=tau_c)
    chain_root = (root[0].fork(), root[1], root[2])
    if use_batched:
        # The ROADMAP open item: pool workers run the *batched* walk.
        # One chain is a one-chain trie; keys/records/row shapes match
        # the serial batched walk exactly, so serial == parallel holds
        # row-for-row (and the record memo keys stay transferable).
        rows = _explore_trie_batched(base, evaluator, space,
                                     [(tau_c, steps)], None,
                                     root_state=chain_root)
        return rows[0]
    return _explore_chain(base, evaluator, tau_c, steps, chain_root)


def assemble_designs(chains: list, chain_rows: list,
                     deduplicate: bool = True,
                     record_memo: dict | None = None) -> list[PrunedDesign]:
    """Fold per-chain rows into the final :class:`PrunedDesign` list.

    ``chains`` and ``chain_rows`` are positionally aligned (the output
    of :meth:`NetlistPruner.chain_rows`); chains must arrive in tau-grid
    order so duplicate attribution — the first (tau_c, phi_c) pair that
    produced each unique prune set — is deterministic.  Shared between
    :meth:`NetlistPruner.explore` and the service layer's sharded jobs,
    which is what makes a resumed run reassemble the *exact* cold-run
    list: assembly is a pure function of the rows.
    """
    designs: list[PrunedDesign] = []
    seen: dict[object, tuple[PrunedDesign, tuple[float, int]]] = {}
    for (tau_c, _), rows in zip(chains, chain_rows):
        for phi_c, key, n_pruned, record in rows:
            if deduplicate and key in seen:
                first, origin = seen[key]
                designs.append(PrunedDesign(
                    tau_c, phi_c, n_pruned, first.record,
                    duplicate_of=origin))
                continue
            design = PrunedDesign(tau_c, phi_c, n_pruned, record)
            designs.append(design)
            seen[key] = (design, (tau_c, phi_c))
            if deduplicate and record_memo is not None:
                record_memo[key] = record
    return designs


class SupervisionTelemetry(dict):
    """Registry-backed supervision log of one pruner.

    Keeps the legacy mapping shape — ``{kind: count, "events": [...]}``
    — that :meth:`repro.service.jobs.JobReport` reads, while mirroring
    every note into the service metrics registry
    (``pruner.events{kind=...}``) through the lazy bridge, so engine
    fallbacks, pool respawns, and shard timeouts show up on
    ``/v1/metrics`` without a second bookkeeping path.  Events fired
    under a server request are stamped with its request id.
    """

    def note(self, kind: str, **info) -> None:
        self[kind] = int(self.get(kind, 0)) + 1
        event = {"kind": kind, **info}
        telemetry = _service_telemetry()
        request_id = telemetry.current_request_id()
        if request_id is not None:
            event["request_id"] = request_id
        self.setdefault("events", []).append(event)
        telemetry.counter("pruner.events", kind=kind)
        telemetry.event({"type": "supervision",
                         "ts": round(time.time(), 6), **event})

    @property
    def events(self) -> list:
        return self.get("events", [])


@dataclass
class NetlistPruner:
    """Full-search pruning exploration over one base netlist.

    Args:
        netlist: synthesized base circuit (exact or coefficient-
            approximated — the cross-layer flow runs both).
        evaluator: stimulus/scoring context; training activity defines
            tau, the test set scores every pruned variant.
        tau_grid: the tau_c sweep (defaults to the paper's 80..99%).
        n_workers: fan independent tau_c chains across a process pool;
            ``None``/``0``/``1`` stays serial, and pool failures fall
            back to the serial path automatically.  Workers run the
            same engine the serial path resolves to — on ``"batched"``
            each worker walks its chain as a one-chain batched trie
            (plan epochs, deferred bulk scoring); on the per-variant
            engines they run the incremental chain walk.  Serial runs
            additionally share work *across* chains through the trie.
        engine: exploration engine override — ``None`` (default)
            inherits the evaluator's ``engine``.  ``"batched"`` (what
            ``"auto"`` resolves to on supported hosts) scores sibling
            frontiers through one batched evaluation per trie node;
            ``"compiled"`` keeps the per-variant snapshot + simulate
            walk; ``"bigint"`` additionally materializes a netlist per
            variant for the legacy oracle.  Every engine returns the
            identical design list.
        identity: record-identity mode — ``None`` (default) inherits
            the evaluator's ``identity`` (itself defaulting to
            ``"exact"``).  ``"exact"`` guarantees design lists
            bit-identical to ``explore_legacy`` on every engine;
            ``"relaxed"`` lets the serial batched walk share chain
            roots across the tau axis (the cross-tau shared-root
            forest, ~2x less cone-rewrite work): accuracies,
            coordinates, pruned sets, and ordering stay identical, but
            gate/area/power records may differ by the fold's
            order-sensitivity.  A pruner's record memo and any
            store-backed job therefore key on the resolved identity —
            relaxed and exact records never alias.

    A pruner with ``n_workers`` owns one persistent process pool,
    created on first parallel use and reused across every
    ``chain_rows()``/``explore()`` call (the service layer's checkpoint
    shards in particular).  :meth:`close` shuts it down
    deterministically; the pruner is also a context manager, and a
    closed pool is simply recreated on the next parallel call.
    """

    netlist: Netlist
    evaluator: CircuitEvaluator
    tau_grid: tuple[float, ...] = DEFAULT_TAU_GRID
    n_workers: int | None = None
    engine: str | None = None
    identity: str | None = None
    # Supervision knobs (see ``_run_chains_parallel``): how often a
    # broken/hung pool is respawned before this call degrades to the
    # serial path, the base of the capped-exponential backoff between
    # respawns, and an optional wall-clock budget per chain_rows() call
    # (the service layer's per-shard timeout).
    max_retries: int = 2
    retry_backoff_s: float = 0.1
    shard_timeout_s: float | None = None
    # Supervision telemetry: per-kind counters plus an ``events`` list
    # of ``{kind, ...}`` dicts, mirrored into the service metrics
    # registry.  The service layer's JobReport reads it directly; it
    # accumulates for the pruner's lifetime.
    telemetry: "SupervisionTelemetry" = field(
        default_factory=lambda: SupervisionTelemetry(), repr=False)
    _space: PruneSpace | None = field(default=None, repr=False)
    _record_memo: dict = field(default_factory=dict, repr=False)
    _base_arrays: ArrayCircuit | None = field(default=None, repr=False)
    _pool: ProcessPoolExecutor | None = field(default=None, repr=False)
    _pool_key: tuple | None = field(default=None, repr=False)

    def resolved_identity(self) -> str:
        """The record-identity mode this pruner explores under."""
        identity = self.identity
        if identity is None:
            identity = getattr(self.evaluator, "identity", None) or "exact"
        if identity not in ("exact", "relaxed"):
            raise ValueError(f"unknown identity mode {identity!r}; "
                             "use 'exact' or 'relaxed'")
        return identity

    def resolved_engine(self) -> str:
        """The exploration engine ``engine``/the evaluator select here."""
        if self.engine is None:
            resolver = getattr(self.evaluator, "resolved_engine", None)
            if resolver is not None:
                return resolver()  # one auto/fallback mapping, one place
            engine = getattr(self.evaluator, "engine", "auto")
        else:
            engine = self.engine
        if engine == "auto":
            return "batched" if HOST_SUPPORTS_COMPILED else "bigint"
        if engine == "batched" and not HOST_SUPPORTS_COMPILED:
            return "bigint"
        return engine

    def space(self) -> PruneSpace:
        """Lazily simulate the training set and build the statistics."""
        if self._space is None:
            activity = self.evaluator.train_activity(self.netlist)
            self._space = PruneSpace.from_activity(self.netlist, activity)
        return self._space

    def _base_circuit(self) -> ArrayCircuit:
        """The base netlist in array form (chain synthesis operates on it)."""
        if self._base_arrays is None:
            self._base_arrays = ArrayCircuit.from_netlist(self.netlist)[0]
        return self._base_arrays

    def prune(self, tau_c: float, phi_c: int) -> Netlist:
        """One pruned and resynthesized variant."""
        force = self.space().prune_set(tau_c, phi_c)
        return synthesize(self.netlist, force_constants=force)

    def explore(self, deduplicate: bool = True,
                n_workers: int | None = None) -> list[PrunedDesign]:
        """Evaluate the full (tau_c, phi_c) design space.

        Identical prune sets arising from different (tau_c, phi_c) pairs
        are evaluated once and recorded as duplicates, so the result list
        still enumerates the paper's full grid.  The list is identical
        whether chains run serially or on a worker pool.
        """
        chains, rows = self.chain_rows(n_workers=n_workers,
                                       deduplicate=deduplicate)
        return assemble_designs(
            chains, rows,
            deduplicate=deduplicate,
            record_memo=self._record_memo if deduplicate else None)

    def chain_rows(self, tau_values: tuple | list | None = None,
                   n_workers: int | None = None,
                   deduplicate: bool = True) -> tuple[list, list]:
        """Evaluate the chains of a tau subset; the service shard hook.

        Returns ``(chains, rows)`` where ``chains`` is the non-empty
        ``(tau_c, steps)`` list actually walked and ``rows[i]`` holds
        chain *i*'s ``(phi_c, key, n_pruned, record)`` tuples — exactly
        what :func:`assemble_designs` folds into the final design list.
        ``tau_values`` defaults to the full ``tau_grid``; the service
        layer's sharded explorer (:mod:`repro.service.jobs`) calls this
        per shard and checkpoints the rows, so a killed run re-walks only
        unfinished shards.

        Key identity: rows are keyed by ``frozenset`` items on the
        per-variant paths and by sorted-id bytes on the batched path
        (normalize with :func:`prune_key_ids`); the record memo
        therefore only transfers between calls that resolve to the same
        kind of walk (records stay correct either way — a missed hit
        just re-evaluates).
        """
        space = self.space()
        relaxed = self.resolved_identity() == "relaxed"  # validate early
        if tau_values is None:
            tau_values = self.tau_grid
        workers = n_workers if n_workers is not None else self.n_workers
        want_parallel = bool(workers and workers > 1)
        engine = self.resolved_engine()
        use_batched = engine == "batched"
        chains = self._build_chains(tau_values, space, use_batched)

        telemetry = _service_telemetry()
        walk_start = time.perf_counter()
        with telemetry.span("engine.walk", engine=engine,
                            n_chains=len(chains)):
            chain_rows = None
            if want_parallel and len(chains) > 1:
                chain_rows = self._run_chains_parallel(chains, workers,
                                                       use_batched)
            if chain_rows is None:
                chains, chain_rows = self._run_chains_serial(
                    chains, space, engine, relaxed, deduplicate)
        telemetry.observe("pruner.chain_walk_ms",
                          (time.perf_counter() - walk_start) * 1e3,
                          engine=engine)
        return chains, chain_rows

    def _build_chains(self, tau_values, space: PruneSpace,
                      use_batched: bool) -> list:
        """The non-empty ``(tau_c, steps)`` list of one walk.

        On the batched engine (serial *and* worker-side) the walk
        derives steps from the candidate arrays itself; it only needs
        the phi grid — skip ``tau_steps``' full per-step force-dict
        construction.  Both step forms cover the same phi levels, so
        the chain list (tau values, non-empty filter) is identical
        either way — which is what lets an engine-fallback rung rebuild
        the steps without changing which chains are walked.
        """
        if not use_batched:
            chains = [(float(tau_c), space.tau_steps(tau_c))
                      for tau_c in tau_values]
        else:
            chains = [(float(tau_c),
                       [(phi_c, None)
                        for phi_c in space.phi_levels(tau_c)])
                      for tau_c in tau_values]
        return [(tau_c, steps) for tau_c, steps in chains if steps]

    def _engine_ladder(self, engine: str) -> list[str]:
        """The degradation ladder from ``engine`` down to the oracle.

        ``batched`` → ``compiled`` → ``bigint``: every rung produces
        bit-identical records (the repo's core equivalence contract),
        so degrading under an evaluation fault trades only speed.
        """
        ladder = ["batched", "compiled", "bigint"]
        if engine not in ladder:
            return [engine]
        return ladder[ladder.index(engine):]

    def _run_chains_serial(self, chains: list, space: PruneSpace,
                           engine: str, relaxed: bool,
                           deduplicate: bool) -> tuple[list, list]:
        """The serial walk, degrading down the engine ladder on faults."""
        memo = self._record_memo if deduplicate else None
        ladder = self._engine_ladder(engine)
        for rung, name in enumerate(ladder):
            use_batched = name == "batched"
            if rung:
                # Fallback rung: rebuild the steps in the form this
                # engine's walk consumes (same chains either way).
                chains = self._build_chains([t for t, _ in chains],
                                            space, use_batched)
            evaluator = self.evaluator if name == engine \
                else replace(self.evaluator, engine=name)
            try:
                fault_point(f"engine.{name}")
                base_circ = self._base_circuit()
                root = _root_state(base_circ)
                if use_batched:
                    rows = _explore_trie_batched(base_circ, evaluator,
                                                 space, chains, memo,
                                                 root_state=root,
                                                 relaxed=relaxed,
                                                 grid=self.tau_grid)
                else:
                    rows = _explore_trie(base_circ, evaluator, chains,
                                         memo, root)
                return chains, rows
            except Exception as exc:
                if rung == len(ladder) - 1:
                    raise
                self._note("engine_fallbacks", engine=name,
                           to=ladder[rung + 1], error=repr(exc))
                warnings.warn(
                    f"serial exploration failed on the {name!r} engine "
                    f"({exc!r}); degrading to {ladder[rung + 1]!r}",
                    RuntimeWarning, stacklevel=4)
        raise AssertionError("unreachable: ladder is never empty")

    def _note(self, kind: str, **info) -> None:
        """Record one supervision event (counter + event log)."""
        self.telemetry.note(kind, **info)

    def _pool_executor(self, workers: int,
                       use_batched: bool) -> ProcessPoolExecutor:
        """The pruner-owned persistent pool (created on first use).

        One pool serves every parallel ``chain_rows()`` call of this
        pruner — the per-worker initializer cost (shipping the netlist,
        evaluator, and pruning statistics) is paid once per pruner
        instead of once per checkpoint shard.  A configuration change
        (worker count or engine family) retires the old pool first.
        """
        key = (int(workers), bool(use_batched))
        if self._pool is not None and self._pool_key != key:
            self.close()
        if self._pool is None:
            space = self.space()
            stats = (space.tau, space.const_value, space.phi) \
                if use_batched else None
            self._pool = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_chain_worker,
                initargs=(self.netlist, self.evaluator, use_batched,
                          stats))
            self._pool_key = key
        return self._pool

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent).

        Deterministic teardown for job runners and context-manager use;
        a later parallel call simply creates a fresh pool.
        """
        pool, self._pool, self._pool_key = self._pool, None, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _kill_pool(self) -> None:
        """Tear down a broken or hung pool without joining its workers.

        :meth:`close` waits on workers — correct for a healthy pool, a
        deadlock against a hung one (an injected ``sleep`` fault, a
        wedged child).  The supervision path cancels what it can,
        terminates the worker processes, and bounds the join.
        """
        pool, self._pool, self._pool_key = self._pool, None, None
        if pool is None:
            return
        processes = getattr(pool, "_processes", None)
        processes = list(processes.values()) if processes else []
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass  # a broken executor may refuse; we terminate anyway
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=5.0)

    def __enter__(self) -> "NetlistPruner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _run_chains_parallel(self, chains: list, workers: int,
                             use_batched: bool = False
                             ) -> list[list[tuple]] | None:
        """Map chains over the persistent pool; ``None`` → serial fallback.

        On the batched engine the workers run the batched walk (each
        chain is a one-chain trie), so the pool path finally shares the
        serial path's engine; the pruning statistics ship once per
        worker as plain arrays.

        Supervision: a dead pool (``BrokenProcessPool`` from a worker
        that segfaulted, was OOM-killed, or hit an injected death) or a
        shard that exceeds ``shard_timeout_s`` kills the pool, respawns
        it, and retries the whole shard — up to ``max_retries`` times
        with capped exponential backoff.  Chains are pure functions of
        their inputs, so a retried shard recomputes the identical rows;
        when the retries run out the call degrades to the serial path
        (``None``), which carries its own engine-fallback ladder.
        Every event lands in :attr:`telemetry`.
        """
        attempts = max(0, int(self.max_retries)) + 1
        delay = max(0.0, float(self.retry_backoff_s))
        for attempt in range(attempts):
            try:
                fault_point("pool.map", attempt=attempt)
                pool = self._pool_executor(workers, use_batched)
                futures = [pool.submit(_run_chain_task, chain)
                           for chain in chains]
                if self.shard_timeout_s is None:
                    return [future.result() for future in futures]
                deadline = time.monotonic() + float(self.shard_timeout_s)
                results = []
                for future in futures:
                    remaining = deadline - time.monotonic()
                    results.append(
                        future.result(timeout=max(0.0, remaining)))
                return results
            except Exception as exc:  # pool/pickling/OS limits/timeouts
                self._kill_pool()
                if isinstance(exc, FuturesTimeout):
                    self._note("shard_timeouts",
                               timeout_s=self.shard_timeout_s)
                if attempt == attempts - 1:
                    self._note("serial_fallbacks", error=repr(exc))
                    warnings.warn(
                        f"parallel pruning exploration failed after "
                        f"{attempts} attempt(s) ({exc!r}); falling back "
                        "to the serial path", RuntimeWarning,
                        stacklevel=3)
                    return None
                self._note("pool_respawns", error=repr(exc),
                           attempt=attempt)
                warnings.warn(
                    f"worker pool failed ({exc!r}); respawning and "
                    f"retrying the shard "
                    f"(attempt {attempt + 2}/{attempts})",
                    RuntimeWarning, stacklevel=3)
                if delay:
                    time.sleep(delay)
                    delay = min(delay * 2.0, 2.0)
        return None

    def explore_legacy(self, deduplicate: bool = True,
                       synthesis: str = "compiled") -> list[PrunedDesign]:
        """The original per-grid-point exploration (reference oracle).

        Resynthesizes every prune set from the base netlist and shares no
        work between grid points; kept for equivalence tests and as the
        baseline of ``benchmarks/bench_simulate.py``.  ``synthesis``
        selects the compiled array engine (default) or the builder-replay
        ``"reference"`` implementation — the seed pipeline is recovered
        with ``synthesis="reference"`` plus a ``"bigint"``-engine
        evaluator.
        """
        synth = synthesize_reference if synthesis == "reference" \
            else synthesize
        space = self.space()
        designs: list[PrunedDesign] = []
        seen: dict[frozenset, tuple[PrunedDesign, tuple[float, int]]] = {}
        for tau_c in self.tau_grid:
            for phi_c in space.phi_levels(tau_c):
                force = space.prune_set(tau_c, phi_c)
                if not force:
                    continue
                key = frozenset(force)
                if deduplicate and key in seen:
                    first, origin = seen[key]
                    designs.append(PrunedDesign(
                        float(tau_c), phi_c, len(force), first.record,
                        duplicate_of=origin))
                    continue
                pruned = synth(self.netlist, force_constants=force)
                record = self.evaluator.evaluate(pruned)
                design = PrunedDesign(float(tau_c), phi_c, len(force), record)
                designs.append(design)
                seen[key] = (design, (float(tau_c), phi_c))
        return designs
