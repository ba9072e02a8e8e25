"""Incremental constant-tie rewriting on a folded circuit.

The pruning exploration applies a *growing* sequence of constant ties to
one base circuit.  Re-folding the whole circuit per prune set costs
O(circuit) per design; this module maintains a mutable, already-folded
circuit and applies each tie by rewriting only the affected fanout cone
(plus the dead fanin it leaves behind), which is typically a few dozen
gates.

Correctness rests on a property of the folding rules in
:mod:`repro.hw.synthesis`: their outcome is determined by circuit
*structure*, not by gate visit order.  Operands always precede their
consumers, every INV pair is registered before any gate that could fold
over it, and structural hashing is keyed purely on (opcode, operands).
The rewriter maintains the same three indices the batch fold builds
(structural-hash table, inverse pairs, reference counts), so draining a
tie's worklist reaches the same live-gate multiset the batch fold would
produce from scratch — pinned down by the exploration equivalence tests
against ``explore_legacy``.

Unlike the batch fold, the hash table and the inverse-pair index are
maintained *lazily*: killing or rewiring a gate leaves its stale entries
in place, and every read validates the entry against the gate's current
(opcode, operands, liveness) before trusting it.  A stale entry can
only ever *miss* (node ids are never reused), so validated reads return
exactly what an eagerly-scrubbed index would — but the kill cascade that
strips a tied gate's dead fanin cone (the dominant cost of a tie,
~25% of exploration time before this change) reduces to a pure
refcount worklist with no hash-key arithmetic or dict deletions.

Beyond :meth:`IncrementalCircuit.snapshot` (compact to an
:class:`~repro.hw.synthesis.ArrayCircuit` for per-variant evaluation),
the circuit feeds the *batched* evaluation path:
:meth:`IncrementalCircuit.plan` levelizes the live gates in stable
node-id space (no compaction, so constant-tie masks and helper-gate
descriptors can reference nodes directly) and
:meth:`IncrementalCircuit.variant_spec` captures one applied tie set as
a :class:`~repro.hw.compiled.VariantSpec` for
:class:`~repro.hw.compiled.BatchedEvaluator`.

Node ids are *stable*: a rewritten gate keeps its id, a folded-away gate
leaves a forwarding pointer to its replacement, and dead slots simply
stop being live.  :meth:`IncrementalCircuit.snapshot` compacts the live
gates (in topological ``(level, slot)`` order) into an
:class:`~repro.hw.synthesis.ArrayCircuit` for evaluation.

A conservative work cap guards against any unforeseen rewrite cascade;
hitting it raises :class:`RewriteOverflow` and the exploration falls
back to the batch fold for that step.
"""

from __future__ import annotations

import numpy as np

from .compiled import (
    OP_AND,
    OP_BUF,
    OP_INV,
    OP_MUX,
    OP_NAND,
    OP_NOR,
    OP_OR,
    OP_XOR,
)

__all__ = ["IncrementalCircuit", "RewriteOverflow"]


class RewriteOverflow(RuntimeError):
    """Raised when a tie's rewrite cascade exceeds the safety cap."""


def _key2(op: int, a: int, b: int) -> int:
    """Structural-hash key; same packing as the batch fold pass."""
    return (op | (b << 4) | (a << 34)) if a > b else (op | (a << 4) | (b << 34))


def _key3(a: int, b: int, c: int) -> int:
    return OP_MUX | (a << 4) | (b << 34) | (c << 64)


class IncrementalCircuit:
    """A folded circuit under incremental constant-tie rewriting."""

    __slots__ = ("n_fixed", "ops", "ina", "inb", "inc", "level", "alive",
                 "rc", "fanout", "fanout_owned", "cse", "inv_of", "forward",
                 "outputs", "signed", "watch", "input_buses", "meta", "name",
                 "n_live", "protected", "_work", "_np_cache", "_dirty",
                 "_ops_np")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def from_arrays(circ) -> "IncrementalCircuit":
        """Build the mutable state from a freshly folded ArrayCircuit."""
        self = IncrementalCircuit()
        n_fixed = circ.n_fixed
        ops = list(circ.ops)
        ina = list(circ.ina)
        inb = list(circ.inb)
        inc = list(circ.inc)
        n_gates = len(ops)
        n_nodes = n_fixed + n_gates
        self.name = circ.name
        self.n_fixed = n_fixed
        self.ops, self.ina, self.inb, self.inc = ops, ina, inb, inc
        levels = circ.levels
        if levels is not None:
            self.level = list(levels)
        else:
            level = [0] * n_nodes
            for k in range(n_gates):
                op = ops[k]
                depth = level[ina[k]]
                if op != OP_INV and op != OP_BUF:
                    other = level[inb[k]]
                    if other > depth:
                        depth = other
                    if op == OP_MUX:
                        other = level[inc[k]]
                        if other > depth:
                            depth = other
                level[n_fixed + k] = depth + 1
            self.level = level[n_fixed:]
        self.alive = bytearray(b"\x01") * n_gates if n_gates else bytearray()
        self.n_live = n_gates
        rc = [0] * n_nodes
        fanout: list[list[int]] = [[] for _ in range(n_nodes)]
        cse: dict[int, int] = {}
        inv_of = [-1] * n_nodes
        for k in range(n_gates):
            op = ops[k]
            node = n_fixed + k
            a = ina[k]
            rc[a] += 1
            fanout[a].append(k)
            if op == OP_INV:
                cse[_key2(OP_INV, a, 0)] = node
                inv_of[a] = node
                inv_of[node] = a
                continue
            b = inb[k]
            rc[b] += 1
            fanout[b].append(k)
            if op == OP_MUX:
                c = inc[k]
                rc[c] += 1
                fanout[c].append(k)
                cse[_key3(a, b, c)] = node
            else:
                cse[_key2(op, a, b)] = node
        self.rc = rc
        self.fanout = fanout
        # Copy-on-write ownership: forked states share fanout lists and
        # privatize them on first mutation (ties touch few nodes).
        self.fanout_owned = bytearray(b"\x01") * n_nodes if n_nodes \
            else bytearray()
        self.cse = cse
        self.inv_of = inv_of
        self.forward = {}
        self.outputs = {nm: list(nodes) for nm, nodes in circ.outputs.items()}
        self.signed = dict(circ.signed)
        self.watch = [list(bus) for bus in circ.watch] \
            if circ.watch is not None else None
        self.input_buses = circ.input_buses
        self.meta = circ.meta
        for nodes in self.outputs.values():
            for node in nodes:
                rc[node] += 1
        self.protected = None
        self._work = 0
        # NumPy mirrors of the slot arrays for snapshot(); refreshed
        # from the dirty-slot list instead of full reconversions.
        self._np_cache = None
        self._dirty = []
        self._ops_np = None
        return self

    def fork(self) -> "IncrementalCircuit":
        """Independent copy (the exploration trie branches on it)."""
        other = IncrementalCircuit()
        other.name = self.name
        other.n_fixed = self.n_fixed
        other.ops = list(self.ops)
        other.ina = list(self.ina)
        other.inb = list(self.inb)
        other.inc = list(self.inc)
        other.level = list(self.level)
        other.alive = bytearray(self.alive)
        other.n_live = self.n_live
        other.rc = list(self.rc)
        # Share the fanout lists; both sides mark them un-owned so any
        # later mutation (on either side) copies its list first.  A
        # state is only mutated after every fork taken from it has been
        # fully consumed, so sharing never leaks writes.
        other.fanout = list(self.fanout)
        self.fanout_owned = bytearray(len(self.fanout))
        other.fanout_owned = bytearray(len(self.fanout))
        other.cse = dict(self.cse)
        other.inv_of = list(self.inv_of)
        other.forward = dict(self.forward)
        other.outputs = {nm: list(n) for nm, n in self.outputs.items()}
        other.signed = dict(self.signed)
        other.watch = [list(b) for b in self.watch] \
            if self.watch is not None else None
        other.input_buses = self.input_buses
        other.meta = self.meta
        # The protected set is immutable (fixed by the exploration's
        # candidate population), so forks share the reference.
        other.protected = self.protected
        other._work = 0
        # The fork starts without NumPy mirrors instead of copying them:
        # a branch that never snapshots (the batched exploration path)
        # pays nothing, and one full list conversion on first use is no
        # slower than six array copies plus dirty replay here.
        other._np_cache = None
        other._dirty = []
        # Opcodes are append-only, so the mirror is shared: extensions
        # reallocate, never write into the common prefix.
        other._ops_np = self._ops_np
        return other

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def resolve(self, node: int) -> int:
        """Follow forwarding pointers to the node's current identity."""
        forward = self.forward
        seen = None
        while node in forward:
            if seen is None:
                seen = []
            seen.append(node)
            node = forward[node]
        if seen:
            for src in seen:  # path compression
                forward[src] = node
        return node

    def is_live_signal(self, node: int) -> bool:
        """True when the node still carries a signal (input or live gate)."""
        if node < self.n_fixed:
            return True
        return bool(self.alive[node - self.n_fixed])

    def _own_fanout(self, node: int) -> list[int]:
        """The node's fanout list, privatized for mutation (COW)."""
        fan = self.fanout[node]
        if not self.fanout_owned[node]:
            fan = list(fan)
            self.fanout[node] = fan
            self.fanout_owned[node] = 1
        return fan

    # ------------------------------------------------------------------
    # Tie application
    # ------------------------------------------------------------------
    def tie(self, ties: dict[int, int],
            strict_targets: bool = False) -> dict[int, int]:
        """Tie each (resolved, live) node to its constant and refold.

        ``ties`` may name nodes that already forwarded to the requested
        constant (no-ops).  A node forwarded to the *opposite* constant
        raises ValueError — callers treat it like the batch-fold
        inconsistency fallback.

        ``strict_targets`` additionally raises when a tie target
        *already* (before this call) resolves through forwarding onto a
        different live signal: clamping the merged representative would
        also clamp every other signal the earlier rewrites proved equal
        to it under the earlier clamp set, which is exactly how a
        long-lived shared state (the relaxed exploration's cross-tau
        root chain) could drift away from the from-scratch fold's
        *function*.  Forwards created *during* this call (one entry's
        cascade folding another entry's target) are fine — a batch tie
        on a fresh fold resolves through them too, and the equivalence
        tests against ``explore_legacy`` pin that behavior.  Exact-mode
        chain walks leave the flag off — their states never accumulate
        foreign ties.

        Returns the ties as *applied*: the map from each live node that
        was actually replaced by a constant to that constant.  Because a
        later entry may resolve through forwards created by an earlier
        entry's rewrite cascade, this resolved map cannot be precomputed
        — it is exactly the clamp set a simulation of the *pre-tie*
        circuit needs to reproduce this variant (the batched evaluator's
        per-variant constant-tie mask).
        """
        if strict_targets:
            for node, value in ties.items():
                target = self.resolve(node)
                if target >= 2 and target != node \
                        and self.is_live_signal(target) \
                        and ties.get(target) != value:
                    # The merged representative is *not* itself tied to
                    # the same constant in this call, so clamping it
                    # would clamp signals outside the prune set.  (Two
                    # merged gates share waveforms — hence tau and
                    # constant — so in the common case both sit in the
                    # same delta and the clamp is required anyway.)
                    raise ValueError("tie target was merged with another "
                                     "live signal by an earlier rewrite")
        self._work = 0
        budget = 64 * (len(self.ops) + self.n_fixed) + 4096
        created: list[int] = []
        pending: list[int] = []
        applied: dict[int, int] = {}
        for node, value in ties.items():
            target = self.resolve(node)
            if target < 2:
                if target != value:
                    raise ValueError("tie conflicts with folded constant")
                continue
            if not self.is_live_signal(target):
                continue  # the signal was stripped as dead
            applied[target] = value
            self._replace(target, 1 if value else 0, pending, created,
                          budget)
        self._drain(pending, created, budget)
        # Helper gates whose uses all folded away mirror the batch
        # fold's final dead-strip.
        for slot in created:
            node = self.n_fixed + slot
            if self.alive[slot] and self.rc[node] == 0:
                self._kill(slot)
        return applied

    def tie_gates(self, gate_ids, values, node_map,
                  strict_targets: bool = False):
        """Tie base-circuit gates by id through a base-node → node map.

        The exploration's step application in one place: every walk
        (exact chain steps, and the relaxed mode's cross-tau root
        deltas) expresses a prune delta as parallel ``gate_ids`` /
        ``values`` sequences over the *base* circuit plus the node map
        of the chain's root fold.  Gates the root fold already stripped
        as dead (``node_map`` entry < 0) contribute nothing; two gates
        merging onto one live node with opposite constants — or a tie
        conflict / rewrite-cascade overflow / ``strict_targets``
        violation inside :meth:`tie` — return ``None``, and the caller
        must discard this (possibly partially rewritten) state and
        refold from scratch.

        Returns the applied clamp map of :meth:`tie` on success.
        """
        n_fixed = self.n_fixed
        ties: dict[int, int] = {}
        for gate_idx, value in zip(gate_ids, values):
            node = node_map[n_fixed + gate_idx]
            if node < 0:
                continue  # already stripped as dead at the chain root
            if ties.get(node, value) != value:
                return None  # two deltas merged onto one node
            ties[node] = value
        try:
            return self.tie(ties, strict_targets=strict_targets)
        except (ValueError, RewriteOverflow):
            return None  # degenerate: caller rebuilds from scratch

    # ------------------------------------------------------------------
    # Rewrite machinery
    # ------------------------------------------------------------------
    def _operand_count(self, op: int) -> int:
        if op == OP_INV or op == OP_BUF:
            return 1
        return 3 if op == OP_MUX else 2

    # -- lazily-validated indices --------------------------------------
    # Kills and rewires leave stale entries in ``cse``/``inv_of``; these
    # readers check an entry against the gate's current structure before
    # trusting it.  Node ids are never reused, so a stale entry can only
    # miss — validated reads are behaviorally identical to the eager
    # delete-on-kill maintenance they replaced, at a fraction of the
    # kill-cascade cost.

    def _inv_pair(self, x: int, partner: int) -> bool:
        """True when ``partner`` still carries the complement of ``x``."""
        n_fixed = self.n_fixed
        s = partner - n_fixed
        if s >= 0 and self.alive[s] and self.ops[s] == OP_INV \
                and self.ina[s] == x:
            return True
        s = x - n_fixed
        return s >= 0 and self.alive[s] and self.ops[s] == OP_INV \
            and self.ina[s] == partner

    def _live_inv(self, x: int, allow_protected: bool = False) -> int:
        """The validated complement node of ``x``, or -1.

        By default protected nodes are invisible as *reuse* partners:
        handing a protected INV out as another gate's replacement would
        merge that gate's signal onto the protected one (see
        ``protected``).  ``_refold`` passes ``allow_protected`` and
        flips the protected twin into a BUF alias instead.
        """
        partner = self.inv_of[x]
        if partner >= 0 and self._inv_pair(x, partner):
            if not allow_protected and self.protected is not None \
                    and partner in self.protected:
                return -1
            return partner
        return -1

    def _cse_hit(self, key: int, op: int, a: int, b: int, c: int,
                 allow_protected: bool = False) -> int:
        """Validated structural-hash lookup: a live, matching node or -1.

        By default protected nodes never serve as hits — a hit merges
        the looked-up gate onto the hit node, and protected signals
        must keep exactly their own consumer set (see ``protected``).
        ``_refold`` passes ``allow_protected`` and flips the protected
        twin into a BUF alias instead of merging onto it.
        """
        node = self.cse.get(key)
        if node is None:
            return -1
        if not allow_protected and self.protected is not None \
                and node in self.protected:
            return -1
        slot = node - self.n_fixed
        if slot < 0 or not self.alive[slot] or self.ops[slot] != op:
            return -1
        ia = self.ina[slot]
        if op == OP_MUX:
            if ia == a and self.inb[slot] == b and self.inc[slot] == c:
                return node
        elif op == OP_INV:
            if ia == a:
                return node
        else:
            ib = self.inb[slot]
            if (ia == a and ib == b) or (ia == b and ib == a):
                return node
        return -1

    def _kill(self, slot: int) -> None:
        """Remove a gate with no remaining uses; cascade into its fanin.

        Pure worklist refcount updates: the gate's ``cse``/``inv_of``
        entries go stale instead of being scrubbed (validated readers
        ignore them), so each dead gate costs a few list writes.
        """
        ops, ina, inb, inc = self.ops, self.ina, self.inb, self.inc
        alive, rc = self.alive, self.rc
        n_fixed = self.n_fixed
        # Dirty tracking only matters once NumPy mirrors exist (a fork
        # starts without them); skip the bookkeeping otherwise.
        dirty = self._dirty if self._np_cache is not None else None
        stack = [slot]
        n_killed = 0
        while stack:
            s = stack.pop()
            if not alive[s]:
                continue
            alive[s] = 0
            n_killed += 1
            if dirty is not None:
                dirty.append(s)
            op = ops[s]
            a = ina[s]
            rc[a] -= 1
            if rc[a] == 0 and a >= n_fixed and alive[a - n_fixed]:
                stack.append(a - n_fixed)
            if op != OP_INV and op != OP_BUF:
                b = inb[s]
                rc[b] -= 1
                if rc[b] == 0 and b >= n_fixed and alive[b - n_fixed]:
                    stack.append(b - n_fixed)
                if op == OP_MUX:
                    c = inc[s]
                    rc[c] -= 1
                    if rc[c] == 0 and c >= n_fixed and alive[c - n_fixed]:
                        stack.append(c - n_fixed)
        self.n_live -= n_killed

    def _replace(self, old: int, new: int, pending: list[int],
                 created: list[int], budget: int) -> None:
        """Repoint every use of ``old`` to ``new``; ``old`` dies."""
        if old == new:
            return
        self.forward[old] = new
        n_fixed = self.n_fixed
        rc = self.rc
        alive = self.alive
        ina, inb, inc = self.ina, self.inb, self.inc
        dirty = self._dirty if self._np_cache is not None else None
        consumers = self.fanout[old]
        self.fanout[old] = []
        self.fanout_owned[old] = 1
        new_fan = self._own_fanout(new) if new >= 2 else None
        for slot in consumers:
            if not alive[slot]:
                continue
            a, b, c = ina[slot], inb[slot], inc[slot]
            if a != old and b != old and c != old:
                continue  # stale fanout entry from an earlier rewire
            moved = 0
            if a == old:
                # (An INV gate stops being INV(old) here; its stale
                # cse/inv_of entries fail validation until the refold
                # re-registers it for the new input.)
                ina[slot] = new
                moved += 1
            if b == old:
                inb[slot] = new
                moved += 1
            if c == old:
                inc[slot] = new
                moved += 1
            rc[old] -= moved
            rc[new] += moved
            if new_fan is not None:
                new_fan.append(slot)
            if new >= n_fixed \
                    and self.level[new - n_fixed] >= self.level[slot]:
                self._raise_level(slot)
            pending.append(slot)
            if dirty is not None:
                dirty.append(slot)
        # Output buses referencing the old signal follow it.
        for nodes in self.outputs.values():
            for i, node in enumerate(nodes):
                if node == old:
                    nodes[i] = new
                    rc[old] -= 1
                    rc[new] += 1
        if old >= n_fixed:
            slot = old - n_fixed
            if self.alive[slot] and rc[old] == 0:
                self._kill(slot)

    def _raise_level(self, slot: int) -> None:
        """Restore level[gate] > level[operands] after a repoint."""
        n_fixed = self.n_fixed
        dirty = self._dirty if self._np_cache is not None else None
        stack = [slot]
        while stack:
            s = stack.pop()
            op = self.ops[s]
            depth = self._node_level(self.ina[s])
            if op != OP_INV and op != OP_BUF:
                other = self._node_level(self.inb[s])
                if other > depth:
                    depth = other
                if op == OP_MUX:
                    other = self._node_level(self.inc[s])
                    if other > depth:
                        depth = other
            depth += 1
            if depth > self.level[s]:
                self.level[s] = depth
                if dirty is not None:
                    dirty.append(s)
                node = n_fixed + s
                for consumer in self.fanout[node]:
                    if self.alive[consumer] \
                            and self.level[consumer] <= depth:
                        stack.append(consumer)

    def _node_level(self, node: int) -> int:
        return self.level[node - self.n_fixed] if node >= self.n_fixed else 0

    def _new_gate(self, op: int, a: int, b: int, c: int,
                  created: list[int]) -> int:
        if op == OP_MUX:
            key = _key3(a, b, c)
        else:
            key = _key2(op, a, b)
        hit = self._cse_hit(key, op, a, b, c)
        if hit >= 0:
            return hit
        slot = len(self.ops)
        node = self.n_fixed + slot
        self.ops.append(op)
        self.ina.append(a)
        self.inb.append(b)
        self.inc.append(c)
        depth = self._node_level(a)
        count = self._operand_count(op)
        if count > 1:
            other = self._node_level(b)
            if other > depth:
                depth = other
            if count > 2:
                other = self._node_level(c)
                if other > depth:
                    depth = other
        self.level.append(depth + 1)
        self.alive.append(1)
        self.n_live += 1
        self.rc.append(0)
        self.fanout.append([])
        self.fanout_owned.append(1)
        self.inv_of.append(-1)
        for operand in (a, b, c)[:count]:
            self.rc[operand] += 1
            self._own_fanout(operand).append(slot)
        self.cse[key] = node
        if op == OP_INV:
            self.inv_of[a] = node
            self.inv_of[node] = a
        created.append(slot)
        return node

    def _source(self, x: int) -> int:
        """The signal an operand ultimately carries, through BUF aliases.

        Protection (see ``protected``/:meth:`_to_buf`) keeps candidate
        gates un-merged behind BUF aliases; the fold rules' *constant
        and equality checks* look through them so cascades still
        collapse (``XOR(a, alias-of-a)`` must still fold to 0), while
        gate construction keeps reading the alias itself — a later tie
        of the aliased gate then clamps exactly its consumers.
        """
        n_fixed = self.n_fixed
        ops, ina, alive = self.ops, self.ina, self.alive
        while x >= n_fixed:
            s = x - n_fixed
            if not alive[s] or ops[s] != OP_BUF:
                break
            x = ina[s]
        return x

    def _not(self, x: int, created: list[int]) -> int:
        sx = self._source(x) if self.protected is not None else x
        if sx < 2:
            return 1 - sx
        inv = self._live_inv(x)
        if inv < 0 and sx != x:
            inv = self._live_inv(sx)
        if inv >= 0:
            return inv
        return self._new_gate(OP_INV, x, 0, 0, created)

    def _and(self, a: int, b: int, created: list[int]) -> int:
        if self.protected is None:
            sa, sb = a, b
        else:
            sa, sb = self._source(a), self._source(b)
        if sa == 0 or sb == 0:
            return 0
        if sa == 1:
            return b
        if sb == 1:
            return a
        if sa == sb:
            return a
        if self.inv_of[sa] == sb and self._inv_pair(sa, sb):
            return 0
        return self._new_gate(OP_AND, a, b, 0, created)

    def _or(self, a: int, b: int, created: list[int]) -> int:
        if self.protected is None:
            sa, sb = a, b
        else:
            sa, sb = self._source(a), self._source(b)
        if sa == 1 or sb == 1:
            return 1
        if sa == 0:
            return b
        if sb == 0:
            return a
        if sa == sb:
            return a
        if self.inv_of[sa] == sb and self._inv_pair(sa, sb):
            return 1
        return self._new_gate(OP_OR, a, b, 0, created)

    def _drain(self, pending: list[int], created: list[int],
               budget: int) -> None:
        """Refold every touched gate until the cascade settles."""
        while pending:
            self._work += 1
            if self._work > budget:
                raise RewriteOverflow("tie rewrite cascade exceeded cap")
            slot = pending.pop()
            if not self.alive[slot]:
                continue
            self._refold(slot, pending, created, budget)

    def _refold(self, slot: int, pending: list[int], created: list[int],
                budget: int) -> None:
        # ``a``/``b``/``sel`` build replacements (aliases included, so
        # later ties propagate); ``sa``/``sb``/``ssel`` are the
        # see-through values the constant/equality rules compare — with
        # no protection they are the same nodes (see :meth:`_source`).
        op = self.ops[slot]
        node = self.n_fixed + slot
        a = self.ina[slot]
        sa = self._source(a) if self.protected is not None else a
        inv_of = self.inv_of
        result = None  # None means: keep this gate with current fields
        if op == OP_INV:
            if sa < 2:
                result = 1 - sa
            else:
                inv = self._live_inv(a, allow_protected=True)
                if (inv < 0 or inv == node) and sa != a:
                    # The operand is an alias: its *source* may have a
                    # registered complement this gate duplicates.
                    inv = self._live_inv(sa, allow_protected=True)
                if inv >= 0 and inv != node:
                    if self.protected is not None \
                            and inv in self.protected \
                            and node not in self.protected:
                        # Flip the protected complement into the alias;
                        # this gate keeps the structure (see _to_buf).
                        # The complement may also be this gate's
                        # *transitive operand* (a = INV(inv), the
                        # double-inversion fold) — _flip_safe rejects
                        # exactly those, since an alias edge onto a
                        # dependent gate would close a cycle.
                        if inv >= self.n_fixed \
                                and self._flip_safe(node, inv):
                            self._to_buf(inv - self.n_fixed, node,
                                         pending)
                    else:
                        result = inv
        elif op == OP_AND:
            b = self.inb[slot]
            sb = self._source(b) if self.protected is not None else b
            if sa == 0 or sb == 0:
                result = 0
            elif sa == 1:
                result = b
            elif sb == 1:
                result = a
            elif sa == sb:
                result = a
            elif inv_of[sa] == sb and self._inv_pair(sa, sb):
                result = 0
        elif op == OP_OR:
            b = self.inb[slot]
            sb = self._source(b) if self.protected is not None else b
            if sa == 1 or sb == 1:
                result = 1
            elif sa == 0:
                result = b
            elif sb == 0:
                result = a
            elif sa == sb:
                result = a
            elif inv_of[sa] == sb and self._inv_pair(sa, sb):
                result = 1
        elif op == OP_XOR:
            b = self.inb[slot]
            sb = self._source(b) if self.protected is not None else b
            if sa == 0:
                result = b
            elif sb == 0:
                result = a
            elif sa == 1:
                result = self._not(b, created)
            elif sb == 1:
                result = self._not(a, created)
            elif sa == sb:
                result = 0
            elif inv_of[sa] == sb and self._inv_pair(sa, sb):
                result = 1
        elif op == OP_NAND:
            b = self.inb[slot]
            sb = self._source(b) if self.protected is not None else b
            if sa == 0 or sb == 0:
                result = 1
            elif sa == 1:
                result = self._not(b, created)
            elif sb == 1:
                result = self._not(a, created)
            elif sa == sb:
                result = self._not(a, created)
            elif inv_of[sa] == sb and self._inv_pair(sa, sb):
                result = 1
        elif op == OP_NOR:
            b = self.inb[slot]
            sb = self._source(b) if self.protected is not None else b
            if sa == 1 or sb == 1:
                result = 0
            elif sa == 0:
                result = self._not(b, created)
            elif sb == 0:
                result = self._not(a, created)
            elif sa == sb:
                result = self._not(a, created)
            elif inv_of[sa] == sb and self._inv_pair(sa, sb):
                result = 0
        elif op == OP_MUX:
            b = self.inb[slot]
            sel = self.inc[slot]
            if self.protected is None:
                sb, ssel = b, sel
            else:
                sb, ssel = self._source(b), self._source(sel)
            if ssel == 0:
                result = a
            elif ssel == 1:
                result = b
            elif sa == sb:
                result = a
            elif sa == 0:
                result = self._and(b, sel, created)
            elif sa == 1:
                result = self._or(b, self._not(sel, created), created)
            elif sb == 0:
                result = self._and(a, self._not(sel, created), created)
            elif sb == 1:
                result = self._or(a, sel, created)
            elif sb == ssel:
                result = self._or(a, sel, created)
            elif sa == ssel:
                result = self._and(b, sel, created)
        else:  # OP_BUF: only protection aliases — see _to_buf
            if sa < 2:
                result = sa  # the aliased signal folded to a constant
            else:
                return  # aliases never fold onto live signals

        if result is None:
            # Re-canonicalize under the (possibly changed) operands.
            if op == OP_MUX:
                key = _key3(a, self.inb[slot], self.inc[slot])
            elif op == OP_INV:
                key = _key2(OP_INV, a, 0)
            else:
                key = _key2(op, a, self.inb[slot])
            hit = self._cse_hit(key, op, a, self.inb[slot], self.inc[slot],
                                allow_protected=True)
            if hit >= 0 and hit != node and self.protected is not None \
                    and hit in self.protected \
                    and node not in self.protected:
                # The hash slot is owned by a protected candidate twin:
                # flip it into a BUF alias of this gate (its signal
                # keeps exactly its own consumers, clamps still land on
                # it) and claim the structure, so downstream equality
                # folds keep collapsing through _source; _flip_safe
                # refuses the (rare) twin that is also our transitive
                # fanin, where the alias edge would close a cycle.
                if self._flip_safe(node, hit):
                    self._to_buf(hit - self.n_fixed, node, pending)
                hit = -1
            if hit < 0:
                self.cse[key] = node
                if op == OP_INV:
                    self.inv_of[a] = node
                    self.inv_of[node] = a
                return
            if hit == node:
                return
            result = hit  # merged with a structurally identical gate
        if result == node:
            return
        if result >= 2 and self.protected is not None \
                and node in self.protected:
            # A protected gate (a future prune candidate of the relaxed
            # exploration) may fold to a *constant*, but never merge
            # onto another live signal: its later tie must clamp exactly
            # its own consumers.  Keep it live as a BUF alias instead —
            # function is unchanged (the fold rule proved equivalence),
            # only the structure carries one extra gate.
            self._to_buf(slot, result, pending)
            return
        self._replace(node, result, pending, created, budget)

    def _flip_safe(self, node: int, twin: int) -> bool:
        """True when aliasing ``twin`` onto ``node`` cannot close a cycle.

        Safe iff ``node`` does not transitively read ``twin``.  The
        level invariant (a gate's level strictly exceeds its operands')
        gives a fast certificate — a twin at ``node``'s level or above
        cannot be its fanin — and prunes the fallback cone walk to the
        slice above the twin's level.
        """
        n_fixed = self.n_fixed
        level = self.level
        tlevel = level[twin - n_fixed]
        if tlevel >= level[node - n_fixed]:
            return True
        ops, ina, inb, inc = self.ops, self.ina, self.inb, self.inc
        stack = [node]
        seen = set()
        while stack:
            x = stack.pop()
            if x == twin:
                return False
            if x < n_fixed or x in seen:
                continue
            seen.add(x)
            s = x - n_fixed
            if level[s] <= tlevel:
                continue  # fanin strictly below the twin's level
            op = ops[s]
            stack.append(ina[s])
            if op != OP_INV and op != OP_BUF:
                stack.append(inb[s])
                if op == OP_MUX:
                    stack.append(inc[s])
        return True

    def _to_buf(self, slot: int, target: int,
                pending: list[int] | None = None) -> None:
        """Rewrite a protected gate in place as ``BUF(target)``.

        Consumers keep reading the gate's own (stable, unforwarded)
        node, so a later constant tie lands exactly on this signal and
        the gate's value is unchanged — but consumers are still queued
        for a refold: their *see-through* operand view (:meth:`_source`)
        just changed, which is what lets equality/constant rules keep
        collapsing cascades across the alias.
        """
        op = self.ops[slot]
        node = self.n_fixed + slot
        n_fixed = self.n_fixed
        rc = self.rc
        # Keep the target alive before releasing the old operands (one
        # of their kill cascades could otherwise free it first).
        rc[target] += 1
        self._own_fanout(target).append(slot)
        count = self._operand_count(op)
        for operand in (self.ina[slot], self.inb[slot],
                        self.inc[slot])[:count]:
            rc[operand] -= 1
            if rc[operand] == 0 and operand >= n_fixed \
                    and self.alive[operand - n_fixed]:
                self._kill(operand - n_fixed)
        self.ops[slot] = OP_BUF
        self.ina[slot] = target
        self.inb[slot] = 0
        self.inc[slot] = 0
        # Opcodes are otherwise append-only; privatize the shared NumPy
        # mirror before the in-place rewrite (forks keep their view).
        arr = self._ops_np
        if arr is not None and slot < len(arr):
            arr = arr.copy()
            arr[slot] = OP_BUF
            self._ops_np = arr
        if self._np_cache is not None:
            self._dirty.append(slot)
        if target >= n_fixed \
                and self.level[target - n_fixed] >= self.level[slot]:
            self._raise_level(slot)
        if pending is not None:
            for consumer in self.fanout[node]:
                if self.alive[consumer]:
                    pending.append(consumer)

    # ------------------------------------------------------------------
    # NumPy views, evaluation plan, batched-variant capture
    # ------------------------------------------------------------------
    def _slot_arrays(self) -> tuple:
        """Refreshed NumPy mirrors of the slot arrays.

        Maintained from the dirty-slot list instead of full per-call
        reconversions; shared by :meth:`snapshot`, :meth:`plan`, and
        :meth:`variant_spec`.  The returned arrays are the live cache —
        callers must copy (fancy indexing does) anything they keep
        across further mutations.
        """
        n_slots = len(self.ops)
        cache = self._np_cache
        if cache is None:
            ops = np.array(self.ops, dtype=np.int64)
            ina = np.array(self.ina, dtype=np.int64)
            inb = np.array(self.inb, dtype=np.int64)
            inc = np.array(self.inc, dtype=np.int64)
            level = np.array(self.level, dtype=np.int64)
            alive = np.frombuffer(bytes(self.alive), dtype=np.uint8).copy()
        else:
            ops, ina, inb, inc, level, alive, cached_n = cache
            if n_slots > cached_n:
                ops = np.concatenate(
                    (ops, np.array(self.ops[cached_n:], dtype=np.int64)))
                ina = np.concatenate(
                    (ina, np.array(self.ina[cached_n:], dtype=np.int64)))
                inb = np.concatenate(
                    (inb, np.array(self.inb[cached_n:], dtype=np.int64)))
                inc = np.concatenate(
                    (inc, np.array(self.inc[cached_n:], dtype=np.int64)))
                level = np.concatenate(
                    (level, np.array(self.level[cached_n:], dtype=np.int64)))
                alive = np.concatenate(
                    (alive,
                     np.frombuffer(bytes(self.alive[cached_n:]),
                                   dtype=np.uint8)))
            for slot in self._dirty:
                if slot < cached_n:
                    ops[slot] = self.ops[slot]  # _to_buf rewrites in place
                    ina[slot] = self.ina[slot]
                    inb[slot] = self.inb[slot]
                    inc[slot] = self.inc[slot]
                    level[slot] = self.level[slot]
                    alive[slot] = self.alive[slot]
        self._np_cache = (ops, ina, inb, inc, level, alive, n_slots)
        self._dirty.clear()
        return ops, ina, inb, inc, level, alive

    def plan(self):
        """Levelized evaluation plan over the live gates, in node-id space.

        Unlike :meth:`snapshot` + ``CompiledNetlist.from_arrays``, the
        plan performs *no compaction*: gate *k* still writes node
        ``n_fixed + k``, so per-variant constant-tie masks and helper
        gates (:meth:`variant_spec`) can address the value matrix by the
        stable node ids the rewriter hands out.  This is the shared plan
        one :class:`~repro.hw.compiled.BatchedEvaluator` batch of sibling
        variants evaluates against.
        """
        from .compiled import CompiledNetlist

        ops, ina, inb, inc, level, alive = self._slot_arrays()
        n_fixed = self.n_fixed
        plan = CompiledNetlist.__new__(CompiledNetlist)
        plan.netlist = self
        plan.n_nets = n_fixed + len(ops)
        live = np.flatnonzero(alive)
        plan.n_gates = int(live.size)
        if live.size == 0:
            plan.gate_out = np.zeros(0, dtype=np.int64)
            plan._empty_plan()
            return plan
        order = live[np.argsort(level[live] << np.int64(4) | ops[live],
                                kind="stable")]
        plan.gate_out = n_fixed + order
        plan._build_plan(ops[order], ina[order], inb[order], inc[order],
                         plan.gate_out, level[order])
        return plan

    def _ops_array(self) -> np.ndarray:
        """Append-only NumPy mirror of ``ops`` (opcodes never mutate).

        Shared across forks: an extension reallocates instead of writing
        into the common prefix, so no dirty tracking is needed — unlike
        the full :meth:`_slot_arrays` cache this refresh is O(appended).
        """
        arr = self._ops_np
        n = len(self.ops)
        if arr is None:
            arr = np.fromiter(self.ops, dtype=np.int64, count=n)
            self._ops_np = arr
        elif len(arr) < n:
            arr = np.concatenate(
                (arr, np.fromiter(self.ops[len(arr):], dtype=np.int64,
                                  count=n - len(arr))))
            self._ops_np = arr
        return arr

    def variant_spec(self, ties: dict[int, int], n_parent_slots: int):
        """Capture the circuit *after* a tie as a batched-variant spec.

        ``ties`` is the accumulated clamp set (union of :meth:`tie`
        return values along the chain), expressed against the parent
        circuit whose :meth:`plan` the batch evaluates;
        ``n_parent_slots`` is ``len(parent.ops)`` at plan time.  Slots
        at or past that index are helper gates the rewrites created —
        absent from the shared plan, replayed per-variant by the batch
        evaluator (in level order, so operands always precede their
        consumers).  A clamp on such a helper node has no plan slot and
        raises ``ValueError``: that variant needs a fresh plan.

        Alias elision: under candidate protection (the relaxed walk),
        live ``BUF`` gates are exactly the aliases :meth:`_to_buf`
        created to keep prune candidates un-merged — pure wires the
        exact from-scratch fold would have merged away (a folded base
        circuit contains no ``BUF``).  They stay in the waveform
        machinery (consumers and outputs read them) but drop out of the
        *record view* — ``live_nodes``/``live_ops`` and the helper
        activity mask — so gate counts, areas, and powers don't charge
        for the walk's bookkeeping wires.
        """
        from .compiled import VariantSpec

        n_fixed = self.n_fixed
        plan_nets = n_fixed + n_parent_slots
        for node in ties:
            if node >= plan_nets:
                raise ValueError(
                    f"clamp on helper node {node}: the parent plan has "
                    f"only {plan_nets} nets, so this variant needs a "
                    "fresh plan")
        ops_np = self._ops_array()
        alive = np.frombuffer(bytes(self.alive), dtype=np.uint8)
        live = np.flatnonzero(alive)
        split = int(np.searchsorted(live, n_parent_slots))
        parent_live = live[:split]
        helper_slots = live[split:]
        elide = self.protected is not None
        if elide:
            parent_live = parent_live[
                ops_np[parent_live] != OP_BUF]
        helper_counted = None
        if helper_slots.size:
            level = self.level
            ordered = sorted(helper_slots.tolist(), key=level.__getitem__)
            ina, inb, ops = self.ina, self.inb, self.ops
            helpers = [(n_fixed + s, ops[s], ina[s], inb[s])
                       for s in ordered]
            counted = np.asarray(ordered, dtype=np.int64)
            if elide:
                helper_counted = [ops[s] != OP_BUF for s in ordered]
                counted = counted[np.asarray(helper_counted)]
            live_ops = np.concatenate(
                (ops_np[parent_live], ops_np[counted]))
        else:
            helpers = []
            live_ops = ops_np[parent_live]
        return VariantSpec(
            ties=ties,
            live_nodes=n_fixed + parent_live,
            live_ops=live_ops,
            helpers=helpers,
            outputs={name: list(nodes)
                     for name, nodes in self.outputs.items()},
            signed=dict(self.signed),
            helper_counted=helper_counted,
        )

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def snapshot(self):
        """Compact the live gates into an ArrayCircuit for evaluation.

        Fully vectorized: the slot arrays convert to NumPy once, live
        gates sort into topological ``(level, slot)`` order with a stable
        argsort, and operand remapping is one gather.  The result carries
        ndarray fields — snapshots feed the evaluator (simulation plan,
        area, power) and are never folded again, so the list-based fold
        path is not involved.
        """
        from .synthesis import ArrayCircuit

        n_fixed = self.n_fixed
        n_slots = len(self.ops)
        ops, ina, inb, inc, level, alive = self._slot_arrays()
        live = np.flatnonzero(alive)
        # Sort by (level, opcode) so the simulation plan can slice the
        # arrays directly instead of re-sorting them.
        order = live[np.argsort(level[live] << np.int64(4) | ops[live],
                                kind="stable")]

        node_map = np.full(n_fixed + n_slots, -1, dtype=np.int64)
        node_map[:n_fixed] = np.arange(n_fixed)
        node_map[n_fixed + order] = np.arange(
            n_fixed, n_fixed + len(order), dtype=np.int64)

        circ = ArrayCircuit()
        circ.name = self.name
        circ.input_buses = self.input_buses
        circ.n_fixed = n_fixed
        new_ops = ops[order]
        single = (new_ops == OP_INV) | (new_ops == OP_BUF)
        circ.ops = new_ops
        circ.ina = node_map[ina[order]]
        circ.inb = np.where(single, 0, node_map[inb[order]])
        circ.inc = np.where(new_ops == OP_MUX, node_map[inc[order]], 0)
        circ.levels = level[order]

        def _map_node(node: int) -> int:
            return int(node_map[node])

        for name, nodes in self.outputs.items():
            circ.outputs[name] = [_map_node(node) for node in nodes]
            circ.signed[name] = self.signed[name]
        circ.meta = self.meta
        if self.watch is not None:
            mapped_watch = []
            for bus in self.watch:
                mapped_bus = []
                for node in bus:
                    node = self.resolve(node)
                    if node >= n_fixed and node - n_fixed >= 0 \
                            and not self.alive[node - n_fixed]:
                        mapped_bus.append(0)
                    else:
                        mapped_bus.append(_map_node(node))
                mapped_watch.append(mapped_bus)
            circ.watch = mapped_watch
        return circ
