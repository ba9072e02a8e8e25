"""Netlist optimization — the stand-in for Design Compiler's compile step.

The flow in the paper synthesizes (a) the bespoke RTL emitted for each model
and (b) every pruned netlist variant, relying on the tool's constant
propagation to shrink logic after gates are tied to constants (Section
III-C, step 5).  :func:`synthesize` reproduces that: constant propagation,
algebraic simplification, double-inverter removal, and structural hashing
are iterated to a fixpoint, and every gate outside the fan-in cone of the
primary outputs is stripped.  Gate pruning is expressed through
``force_constants``, which ties selected gate outputs to '0'/'1' before
the rebuild, exactly like replacing the gate with a tie cell.

Two implementations share the folding rules:

* the **compiled array engine** (the default behind :func:`synthesize`):
  each pass is one linear sweep over flat opcode/operand arrays that
  replays the rows through :class:`FoldEmitter`'s scalar rules — no
  intermediate :class:`Netlist` objects.  The bespoke array builder
  emits through the same rules, so they are stated once on the array
  side.  Synthesis sits on the design-space-
  exploration hot path (hundreds of resynthesized prune variants per
  circuit), which is why it is compiled alongside the word-parallel
  simulation engine.

* the **reference builder replay** (:func:`synthesize_reference`): the
  original, readable implementation that replays every gate through the
  folding builders of :class:`~repro.hw.netlist.Netlist`.  The compiled
  engine is equivalence-tested against it gate-for-gate
  (``tests/test_compiled.py``), and it anchors the legacy baseline of
  ``benchmarks/bench_simulate.py``.

Dead logic is stripped *between* folding passes, not only at the end: a
pruning tie kills whole fanout cones, and stripping their (now unread)
fanin logic early keeps the fixpoint iteration from re-replaying it.

For the incremental pruning exploration, :func:`synthesize_with_map` also
returns the old-net → new-net correspondence (``-1`` for nets folded or
stripped away), and ties can be expressed at *net* granularity
(``force_nets``), so a later, larger prune set can be applied directly to
an already-pruned netlist instead of resynthesizing from the base circuit.
"""

from __future__ import annotations

from .compiled import (
    OP_AND,
    OP_BUF,
    OP_INV,
    OP_MUX,
    OP_NAND,
    OP_NOR,
    OP_OR,
    OP_XOR,
    OPCODES,
)
from .netlist import CONST0, CONST1, Netlist

__all__ = [
    "ArrayCircuit",
    "FoldEmitter",
    "synthesize",
    "synthesize_arrays",
    "synthesize_with_map",
    "synthesize_reference",
    "rebuild_folded",
    "strip_dead",
]

_CELL_OF_OP = ["INV", "BUF", "AND2", "OR2", "XOR2", "XNOR2", "NAND2",
               "NOR2", "MUX2"]

_BUILDERS = {
    "INV": "not_",
    "BUF": "buf_",
    "AND2": "and_",
    "OR2": "or_",
    "XOR2": "xor_",
    "XNOR2": "xnor_",
    "NAND2": "nand_",
    "NOR2": "nor_",
    "MUX2": "mux_",
}


def _map_interface(nl: Netlist, new: Netlist, net_map: list[int]) -> None:
    """Copy the input buses of ``nl`` into ``new``, filling ``net_map``."""
    net_map[CONST0] = CONST0
    net_map[CONST1] = CONST1
    for name, nets in nl.input_buses.items():
        new_nets = new.add_input_bus(name, len(nets))
        for old, fresh in zip(nets, new_nets):
            net_map[old] = fresh


def _finish_interface(nl: Netlist, new: Netlist, net_map: list[int]) -> None:
    """Re-declare the output buses of ``nl`` on ``new`` and carry meta."""
    for name, nets in nl.output_buses.items():
        new.set_output_bus(name, [net_map[net] for net in nets],
                           signed=nl.output_signed[name])
    new.meta = _remap_meta(nl.meta, net_map)


def _rebuild_folded_map(nl: Netlist,
                        force_constants: dict[int, int] | None = None,
                        force_nets: dict[int, int] | None = None
                        ) -> tuple[Netlist, list[int]]:
    """Replay ``nl`` through the folding builder; return (netlist, net map).

    ``force_constants`` maps *gate indices* of ``nl`` to 0/1; those gates
    are not re-instantiated and their outputs become constant ties, letting
    the folding cascade through the fanout cone (the pruning transform).
    ``force_nets`` expresses the same tie for arbitrary *nets* of ``nl``
    (used by the incremental exploration, where a base-circuit gate may
    survive only as a folded wire in an already-pruned netlist).
    """
    new = Netlist(name=nl.name, cse=True)
    net_map: list[int] = [0] * nl.n_nets
    _map_interface(nl, new, net_map)

    # Merge both force vocabularies into one net-keyed dict.
    force_by_net: dict[int, int] = {}
    if force_constants:
        gate_out = nl.gate_out
        for gate_idx, value in force_constants.items():
            force_by_net[gate_out[gate_idx]] = value
    if force_nets:
        for net, value in force_nets.items():
            if net > CONST1:
                force_by_net[net] = value
    # Ties on non-gate nets (inputs) take effect before any gate reads them.
    for net, value in force_by_net.items():
        if nl.driver_gate(net) is None:
            net_map[net] = CONST1 if value else CONST0

    builders = {cell: getattr(new, method)
                for cell, method in _BUILDERS.items()}
    gate_type = nl.gate_type
    gate_inputs = nl.gate_inputs
    gate_out = nl.gate_out
    if force_by_net:
        get_forced = force_by_net.get
        for gate_idx in range(nl.n_gates):
            out = gate_out[gate_idx]
            forced = get_forced(out)
            if forced is not None:
                net_map[out] = CONST1 if forced else CONST0
                continue
            ins = gate_inputs[gate_idx]
            builder = builders[gate_type[gate_idx]]
            if len(ins) == 2:
                net_map[out] = builder(net_map[ins[0]], net_map[ins[1]])
            elif len(ins) == 1:
                net_map[out] = builder(net_map[ins[0]])
            else:
                net_map[out] = builder(net_map[ins[0]], net_map[ins[1]],
                                       net_map[ins[2]])
    else:
        for gate_idx in range(nl.n_gates):
            ins = gate_inputs[gate_idx]
            builder = builders[gate_type[gate_idx]]
            if len(ins) == 2:
                result = builder(net_map[ins[0]], net_map[ins[1]])
            elif len(ins) == 1:
                result = builder(net_map[ins[0]])
            else:
                result = builder(net_map[ins[0]], net_map[ins[1]],
                                 net_map[ins[2]])
            net_map[gate_out[gate_idx]] = result

    _finish_interface(nl, new, net_map)
    return new, net_map


def rebuild_folded(nl: Netlist,
                   force_constants: dict[int, int] | None = None,
                   force_nets: dict[int, int] | None = None) -> Netlist:
    """Replay ``nl`` through the folding builder (see module docstring)."""
    return _rebuild_folded_map(nl, force_constants, force_nets)[0]


def _strip_dead_map(nl: Netlist) -> tuple[Netlist, list[int]]:
    """Drop gates unreachable from the outputs; dead nets map to ``-1``.

    This is a pure structural copy (no folding, no hashing), so live
    gates are appended straight into the new netlist's parallel arrays —
    re-validating each one through ``add_gate`` would double the cost of
    every synthesis pass.
    """
    live = nl.live_gates()
    new = Netlist(name=nl.name, cse=False)
    net_map: list[int] = [-1] * nl.n_nets
    _map_interface(nl, new, net_map)
    gate_type = nl.gate_type
    gate_inputs = nl.gate_inputs
    gate_out = nl.gate_out
    for gate_idx in range(nl.n_gates):
        if live[gate_idx]:
            net_map[gate_out[gate_idx]] = new._append_gate_unchecked(
                gate_type[gate_idx],
                tuple(net_map[net] for net in gate_inputs[gate_idx]))
    _finish_interface(nl, new, net_map)
    return new, net_map


def strip_dead(nl: Netlist) -> Netlist:
    """Remove every gate not reachable backwards from a primary output."""
    return _strip_dead_map(nl)[0]


def _compose(first: list[int], second: list[int]) -> list[int]:
    """Compose two net maps (old → mid → new); ``-1`` stays dead."""
    return [second[net] if net >= 0 else -1 for net in first]


def _synthesize_map(nl: Netlist,
                    force_constants: dict[int, int] | None,
                    force_nets: dict[int, int] | None,
                    max_passes: int) -> tuple[Netlist, list[int]]:
    current, net_map = _rebuild_folded_map(nl, force_constants, force_nets)
    current, strip_map = _strip_dead_map(current)
    net_map = _compose(net_map, strip_map)
    for _ in range(max_passes):
        folded, fold_map = _rebuild_folded_map(current)
        net_map = _compose(net_map, fold_map)
        converged = folded.n_gates == current.n_gates
        current = folded
        if converged:
            break
    current, strip_map = _strip_dead_map(current)
    return current, _compose(net_map, strip_map)


def synthesize_reference(nl: Netlist,
                         force_constants: dict[int, int] | None = None,
                         max_passes: int = 4) -> Netlist:
    """The original builder-replay synthesis (equivalence oracle).

    Same transform and same result as :func:`synthesize`, implemented by
    replaying every gate through the :class:`Netlist` folding builders.
    """
    return _synthesize_map(nl, force_constants, None, max_passes)[0]


# ----------------------------------------------------------------------
# Compiled array engine
# ----------------------------------------------------------------------
class ArrayCircuit:
    """Flat-array form of a netlist for the compiled folding passes.

    Node ids double as the net ids of the final rebuilt netlist: 0/1 are
    the constant ties, input-bus bits follow in declaration order, and
    gate *k* owns node ``n_fixed + k``.  (The reference replay uses the
    same interface-first numbering, which is what keeps the two engines
    structurally identical.)

    Beyond being the synthesis workspace, an ``ArrayCircuit`` is a
    first-class *circuit view*: it exposes the same read interface a
    :class:`Netlist` offers to simulation, area, and power analysis
    (``input_buses``/``output_buses``/``output_signed``, ``gate_type``,
    ``n_gates``/``n_nets``, and a cached :meth:`compiled` plan).  The
    pruning exploration evaluates every variant directly in this form —
    materializing a netlist object per explored design would roughly
    double the cost of the whole search; :meth:`to_netlist` exists for
    consumers that need the full builder IR.
    """

    __slots__ = ("name", "input_buses", "n_fixed", "ops", "ina", "inb",
                 "inc", "levels", "outputs", "signed", "meta", "watch",
                 "_plan", "_gate_type", "__weakref__")

    def __init__(self) -> None:
        self.input_buses: dict[str, list[int]] = {}
        self.outputs: dict[str, list[int]] = {}
        self.signed: dict[str, bool] = {}
        self.ops: list[int] = []
        self.ina: list[int] = []
        self.inb: list[int] = []
        self.inc: list[int] = []
        # Topological depth per gate, maintained by the folding/strip
        # passes so the simulation plan never re-levelizes the circuit.
        self.levels: list[int] | None = None
        self.meta: dict = {}
        self.watch: list[list[int]] | None = None
        self._plan = None
        self._gate_type: list[str] | None = None

    # -- Netlist-compatible read interface ------------------------------
    @property
    def n_gates(self) -> int:
        return len(self.ops)

    @property
    def n_nets(self) -> int:
        return self.n_fixed + len(self.ops)

    @property
    def output_buses(self) -> dict[str, list[int]]:
        return self.outputs

    @property
    def output_signed(self) -> dict[str, bool]:
        return self.signed

    @property
    def gate_type(self) -> list[str]:
        """Cell names per gate (lazily materialized from opcodes)."""
        cached = self._gate_type
        if cached is None:
            ops = self.ops
            if not isinstance(ops, list):  # ndarray-backed snapshot
                ops = ops.tolist()
            cells = _CELL_OF_OP
            cached = [cells[op] for op in ops]
            self._gate_type = cached
        return cached

    def compiled(self):
        """The cached word-parallel evaluation plan (see ``Netlist.compiled``)."""
        plan = self._plan
        if plan is None:
            from .compiled import CompiledNetlist
            plan = CompiledNetlist.from_arrays(self)
            self._plan = plan
        return plan

    @staticmethod
    def from_netlist(nl: Netlist) -> tuple["ArrayCircuit", list[int]]:
        """Convert; also return the original-net → node correspondence."""
        circ = ArrayCircuit()
        circ.name = nl.name
        node_of: list[int] = [0] * nl.n_nets
        node_of[CONST1] = 1
        next_id = 2
        for name, nets in nl.input_buses.items():
            ids = []
            for net in nets:
                node_of[net] = next_id
                ids.append(next_id)
                next_id += 1
            circ.input_buses[name] = ids
        circ.n_fixed = next_id
        ops, ina, inb, inc = circ.ops, circ.ina, circ.inb, circ.inc
        gate_out = nl.gate_out
        for k, ins in enumerate(nl.gate_inputs):
            ops.append(OPCODES[nl.gate_type[k]])
            ina.append(node_of[ins[0]])
            inb.append(node_of[ins[1]] if len(ins) > 1 else 0)
            inc.append(node_of[ins[2]] if len(ins) > 2 else 0)
            node_of[gate_out[k]] = next_id + k
        for name, nets in nl.output_buses.items():
            circ.outputs[name] = [node_of[net] for net in nets]
            circ.signed[name] = nl.output_signed[name]
        circ.meta = dict(nl.meta)
        if "watch_buses" in circ.meta:
            circ.watch = [[node_of[net] for net in bus]
                          for bus in circ.meta["watch_buses"]]
        return circ, node_of

    def to_netlist(self) -> Netlist:
        new = Netlist(name=self.name, cse=False)
        for name, ids in self.input_buses.items():
            new.add_input_bus(name, len(ids))
        ops, ina, inb, inc = self.ops, self.ina, self.inb, self.inc
        if not isinstance(ops, list):  # ndarray-backed snapshot
            ops, ina, inb, inc = (ops.tolist(), ina.tolist(), inb.tolist(),
                                  inc.tolist())
        cells = _CELL_OF_OP
        for k in range(len(ops)):
            op = ops[k]
            if op == OP_MUX:
                inputs = (ina[k], inb[k], inc[k])
            elif op == OP_INV or op == OP_BUF:
                inputs = (ina[k],)
            else:
                inputs = (ina[k], inb[k])
            new._append_gate_unchecked(cells[op], inputs)
        for name, nodes in self.outputs.items():
            new.set_output_bus(name, nodes, signed=self.signed[name])
        meta = dict(self.meta)
        if self.watch is not None:
            meta["watch_buses"] = [list(bus) for bus in self.watch]
        new.meta = meta
        # Node ids equal net ids in the netlist just built, so the array
        # form can be reused verbatim if this netlist is synthesized
        # again (the incremental exploration chains do this every step).
        new._array_form = self
        return new

    def _shell(self) -> "ArrayCircuit":
        """A copy with the interface of ``self`` and no gates yet."""
        out = ArrayCircuit()
        out.name = self.name
        out.input_buses = self.input_buses
        out.n_fixed = self.n_fixed
        out.meta = self.meta
        return out


class FoldEmitter:
    """Appends gate rows through the folding rules; node ids ``n_fixed + row``.

    The scalar emitters (:meth:`not_`, :meth:`and_`, ..., :meth:`mux_`)
    are the one array-side statement of the :class:`Netlist` builder
    rules — constant propagation, operand deduplication, complement
    detection, double-inversion removal, MUX strength reduction and
    structural hashing — branch order included.  A folding pass
    (:func:`_fold_arrays`) replays a circuit's rows through them, and the
    bespoke array builder (:mod:`repro.hw.array_builder`) emits through
    them directly, so both land on the same fixpoint by construction.
    """

    __slots__ = ("n_fixed", "ops", "ina", "inb", "inc", "levels", "_inv",
                 "_cse", "_node_level")

    def __init__(self, n_fixed: int = 2) -> None:
        self.n_fixed = n_fixed  # nodes 0/1 are the constant ties
        self.ops: list[int] = []
        self.ina: list[int] = []
        self.inb: list[int] = []
        self.inc: list[int] = []
        self.levels: list[int] = []
        # Known inverses, registered both ways: INV rows only ever come
        # from not_, so one table serves double-inversion removal and
        # complement detection.
        self._inv: dict[int, int] = {}
        # Structural hashing packs (operands, op) into one integer — int
        # hashing is measurably cheaper than tuple hashing on this, the
        # hottest dict of the whole exploration.
        self._cse: dict[int, int] = {}
        # Topological depth per node id (constants and inputs at 0),
        # carried so the simulation plan never re-levelizes the circuit.
        self._node_level: list[int] = [0] * n_fixed

    def row(self, op: int, a: int, b: int = 0, c: int = 0) -> int:
        """Append one gate row unconditionally; returns its node id.

        Callers are responsible for structural-hash registration; the
        unused operand slots default to node 0 (level 0), so the level
        computation is uniform across arities.
        """
        lvl = self._node_level
        la, lb, lc = lvl[a], lvl[b], lvl[c]
        level = (la if la > lb else lb)
        level = (level if level > lc else lc) + 1
        node = self.n_fixed + len(self.ops)
        self.ops.append(op)
        self.ina.append(a)
        self.inb.append(b)
        self.inc.append(c)
        self.levels.append(level)
        lvl.append(level)
        return node

    def _gate2(self, op: int, a: int, b: int) -> int:
        # Commutative cells hash with sorted operands but keep the
        # builder-given operand order, matching Netlist.add_gate.
        key = (op | (b << 4) | (a << 34)) if a > b \
            else (op | (a << 4) | (b << 34))
        hit = self._cse.get(key)
        if hit is not None:
            return hit
        out = self.row(op, a, b)
        self._cse[key] = out
        return out

    def not_(self, x: int) -> int:
        if x < 2:
            return 1 - x
        inv = self._inv.get(x)
        if inv is None:
            inv = self.row(OP_INV, x)
            self._inv[x] = inv
            self._inv[inv] = x
        return inv

    def buf_(self, x: int) -> int:
        return x

    def and_(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if a == 1:
            return b
        if b == 1:
            return a
        if a == b:
            return a
        if self._inv.get(a) == b:
            return 0
        return self._gate2(OP_AND, a, b)

    def or_(self, a: int, b: int) -> int:
        if a == 1 or b == 1:
            return 1
        if a == 0:
            return b
        if b == 0:
            return a
        if a == b:
            return a
        if self._inv.get(a) == b:
            return 1
        return self._gate2(OP_OR, a, b)

    def xor_(self, a: int, b: int) -> int:
        if a == 0:
            return b
        if b == 0:
            return a
        if a == 1:
            return self.not_(b)
        if b == 1:
            return self.not_(a)
        if a == b:
            return 0
        if self._inv.get(a) == b:
            return 1
        return self._gate2(OP_XOR, a, b)

    def nand_(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 1
        if a == 1:
            return self.not_(b)
        if b == 1:
            return self.not_(a)
        if a == b:
            return self.not_(a)
        if self._inv.get(a) == b:
            return 1
        return self._gate2(OP_NAND, a, b)

    def nor_(self, a: int, b: int) -> int:
        if a == 1 or b == 1:
            return 0
        if a == 0:
            return self.not_(b)
        if b == 0:
            return self.not_(a)
        if a == b:
            return self.not_(a)
        if self._inv.get(a) == b:
            return 0
        return self._gate2(OP_NOR, a, b)

    def xnor_(self, a: int, b: int) -> int:
        if a == 0:
            return self.not_(b)
        if b == 0:
            return self.not_(a)
        if a == 1:
            # Mirror the reference xnor_ = not_(xor_(a, b)) exactly: the
            # inner xor_ materializes not_(b) before the outer not_
            # cancels it, so the INV gate must be instantiated here too
            # to keep gate-for-gate equivalence.
            return self.not_(self.not_(b))
        if b == 1:
            return self.not_(self.not_(a))
        if a == b:
            return 1
        if self._inv.get(a) == b:
            return 0
        return self.not_(self._gate2(OP_XOR, a, b))

    def mux_(self, a: int, b: int, sel: int) -> int:
        if sel == 0:
            return a
        if sel == 1:
            return b
        if a == b:
            return a
        if a == 0:
            return self.and_(b, sel)
        if a == 1:
            return self.or_(b, self.not_(sel))
        if b == 0:
            return self.and_(a, self.not_(sel))
        if b == 1:
            return self.or_(a, sel)
        if b == sel:  # sel ? sel : a  ==  a | sel
            return self.or_(a, sel)
        if a == sel:  # sel ? b : sel  ==  b & sel
            return self.and_(b, sel)
        key = OP_MUX | (a << 4) | (b << 34) | (sel << 64)
        hit = self._cse.get(key)
        if hit is not None:
            return hit
        out = self.row(OP_MUX, a, b, sel)
        self._cse[key] = out
        return out


def _fold_arrays(circ: ArrayCircuit,
                 force_by_node: dict[int, int] | None
                 ) -> tuple[ArrayCircuit, list[int], bool]:
    """One folding pass over the arrays; returns (circuit, map, changed).

    The pass replays every row, in order, through a :class:`FoldEmitter`
    seeded with the circuit's interface; forced nodes become constant
    ties instead.  ``changed`` is False when the pass was the identity
    transform (every gate re-created verbatim), which lets the fixpoint
    driver stop without another confirmation pass.
    """
    n_fixed = circ.n_fixed
    em = FoldEmitter(n_fixed)
    node_map: list[int] = list(range(n_fixed))
    append_map = node_map.append
    changed = False
    forced_get = force_by_node.get if force_by_node else None
    if force_by_node:
        for node, value in force_by_node.items():
            if 1 < node < n_fixed:
                node_map[node] = 1 if value else 0
                changed = True

    # Indexed by opcode: OP_INV, OP_BUF take one operand, OP_MUX three.
    rules = (em.not_, em.buf_, em.and_, em.or_, em.xor_, em.xnor_,
             em.nand_, em.nor_, em.mux_)
    mux_ = em.mux_
    ops, ina, inb, inc = circ.ops, circ.ina, circ.inb, circ.inc
    for k in range(len(ops)):
        node = n_fixed + k
        if forced_get is not None:
            forced = forced_get(node)
            if forced is not None:
                append_map(1 if forced else 0)
                changed = True
                continue
        op = ops[k]
        if op > OP_BUF:
            if op == OP_MUX:
                result = mux_(node_map[ina[k]], node_map[inb[k]],
                              node_map[inc[k]])
            else:
                result = rules[op](node_map[ina[k]], node_map[inb[k]])
        else:
            result = rules[op](node_map[ina[k]])
        if result != node:
            changed = True
        append_map(result)

    out = circ._shell()
    out.ops, out.ina, out.inb, out.inc = em.ops, em.ina, em.inb, em.inc
    out.levels = em.levels
    for name, nodes in circ.outputs.items():
        out.outputs[name] = [node_map[n] for n in nodes]
        out.signed[name] = circ.signed[name]
    if circ.watch is not None:
        out.watch = [[node_map[n] for n in bus] for bus in circ.watch]
    return out, node_map, changed


def _strip_arrays(circ: ArrayCircuit) -> tuple[ArrayCircuit, list[int]]:
    """Array form of the dead-gate strip; dead nodes map to ``-1``."""
    n_fixed = circ.n_fixed
    ops, ina, inb, inc = circ.ops, circ.ina, circ.inb, circ.inc
    levels = circ.levels
    n_gates = len(ops)
    live = bytearray(n_fixed + n_gates)
    for nodes in circ.outputs.values():
        for node in nodes:
            live[node] = 1
    for k in range(n_gates - 1, -1, -1):
        if live[n_fixed + k]:
            op = ops[k]
            live[ina[k]] = 1
            if op != OP_INV and op != OP_BUF:
                live[inb[k]] = 1
                if op == OP_MUX:
                    live[inc[k]] = 1

    # Every gate live (common for small array-emitted circuits): the
    # strip is the identity — skip the rebuild.
    if live.find(0, n_fixed) == -1:
        return circ, list(range(n_fixed + n_gates))

    node_map: list[int] = list(range(n_fixed))
    new_ops: list[int] = []
    new_a: list[int] = []
    new_b: list[int] = []
    new_c: list[int] = []
    new_levels: list[int] | None = [] if levels is not None else None
    append_map = node_map.append
    append_op = new_ops.append
    append_a = new_a.append
    append_b = new_b.append
    append_c = new_c.append
    next_id = n_fixed
    for k in range(n_gates):
        if live[n_fixed + k]:
            append_op(ops[k])
            append_a(node_map[ina[k]])
            append_b(node_map[inb[k]])
            append_c(node_map[inc[k]])
            if new_levels is not None:
                new_levels.append(levels[k])
            append_map(next_id)
            next_id += 1
        else:
            append_map(-1)

    out = circ._shell()
    out.ops, out.ina, out.inb, out.inc = new_ops, new_a, new_b, new_c
    out.levels = new_levels
    for name, nodes in circ.outputs.items():
        out.outputs[name] = [node_map[n] for n in nodes]
        out.signed[name] = circ.signed[name]
    if circ.watch is not None:
        # Watch nets whose whole fanout was pruned away clamp to the
        # constant-zero tie, matching _remap_meta.
        out.watch = [[node_map[n] if node_map[n] >= 0 else CONST0
                      for n in bus] for bus in circ.watch]
    return out, node_map


def synthesize_arrays(circ: ArrayCircuit,
                      force_by_node: dict[int, int] | None = None
                      ) -> tuple[ArrayCircuit, list[int]]:
    """Fold + strip an array circuit; returns (circuit, node map).

    One fold pass is already a fixpoint of the folding rules: it visits
    gates in topological order, so every operand is fully folded before
    its consumers, in-pass structural hashing removes every duplicate,
    and a complement pair is always registered before any gate that could
    fold over it.  The reference loop's confirmation passes are therefore
    structural identities (the equivalence property tests pin this down),
    and the compiled engine runs exactly one fold and one strip.
    """
    current, total_map, _ = _fold_arrays(circ, force_by_node or None)
    current, step_map = _strip_arrays(current)
    return current, _compose(total_map, step_map)


def _synthesize_compiled(nl: Netlist,
                         force_constants: dict[int, int] | None,
                         force_nets: dict[int, int] | None,
                         max_passes: int) -> tuple[Netlist, list[int]]:
    """The compiled pipeline; same final result as :func:`_synthesize_map`."""
    cached = nl.__dict__.get("_array_form")
    if cached is not None and len(cached.ops) == nl.n_gates \
            and cached.n_fixed + len(cached.ops) == nl.n_nets:
        circ, node_of = cached, None  # node ids are net ids
    else:
        circ, node_of = ArrayCircuit.from_netlist(nl)
    force_by_node: dict[int, int] = {}
    if force_constants:
        n_fixed = circ.n_fixed
        for gate_idx, value in force_constants.items():
            force_by_node[n_fixed + gate_idx] = value
    if force_nets:
        for net, value in force_nets.items():
            node = net if node_of is None else node_of[net]
            if node > CONST1:
                force_by_node[node] = value

    current, total_map = synthesize_arrays(circ, force_by_node)
    result = current.to_netlist()
    if node_of is not None:
        total_map = [total_map[node] for node in node_of]
    return result, total_map


def synthesize(nl: Netlist,
               force_constants: dict[int, int] | None = None,
               max_passes: int = 4) -> Netlist:
    """Optimize a netlist (optionally pruning gates) to a fixpoint.

    Repeated folding passes are needed because structural hashing can
    expose new constant/duplicate patterns; netlists converge in two to
    three passes in practice.  Runs on the compiled array engine;
    :func:`synthesize_reference` is the builder-replay equivalent.
    """
    return _synthesize_compiled(nl, force_constants, None, max_passes)[0]


def synthesize_with_map(nl: Netlist,
                        force_constants: dict[int, int] | None = None,
                        force_nets: dict[int, int] | None = None,
                        max_passes: int = 4) -> tuple[Netlist, list[int]]:
    """:func:`synthesize` plus the old-net → new-net correspondence.

    The map sends every net of ``nl`` to its image in the optimized
    netlist (``CONST0``/``CONST1`` when it folded to a tie, ``-1`` when it
    was stripped as dead).  The incremental pruning exploration uses it to
    locate a base-circuit gate's surviving signal inside an already-pruned
    variant and tie it there, instead of resynthesizing from scratch.
    """
    return _synthesize_compiled(nl, force_constants, force_nets, max_passes)


def _remap_meta(meta: dict, net_map: list[int]) -> dict:
    """Carry builder metadata across a rebuild, remapping net references.

    Only the ``watch_buses`` key (lists of nets observed by the pruning
    pass, e.g. pre-argmax neuron buses) contains nets; everything else is
    copied verbatim.
    """
    if not meta:
        return {}
    remapped = dict(meta)
    if "watch_buses" in meta:
        # Watch nets whose whole fanout was pruned away map to the
        # constant-zero tie (matching the historical strip behavior)
        # rather than leaking the dead-net marker.
        remapped["watch_buses"] = [
            [net_map[net] if net_map[net] >= 0 else CONST0 for net in bus]
            for bus in meta["watch_buses"]
        ]
    return remapped
