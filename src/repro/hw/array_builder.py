"""Array-level bespoke circuit emission — the fused cold-path builder.

The per-gate builder (:mod:`repro.hw.blocks` / :mod:`repro.hw.bespoke`)
constructs bespoke circuits one ``Netlist`` builder call at a time, then
``synthesize`` folds the built netlist all over again: every gate pays
method dispatch, peephole checks over driver tables, tuple-key
structural hashing and per-net driver bookkeeping — twice.  That
per-call cost is the universal cold-path bound: cold e-sweeps, single
explorations, service cold misses and the multiplier area library all
re-instantiate bespoke datapaths per coefficient radius.

This module removes the per-gate call chain.  :class:`ArrayEmitter`
appends the gate rows of each arithmetic block — ripple adders,
CSD/binary bespoke multipliers, balanced adder trees, ReLU, argmax and
vote networks — directly into the flat opcode/operand row arrays of the
:class:`~repro.hw.synthesis.ArrayCircuit` layout (node ids are
``n_fixed + row``), through the scalar rules of
:class:`~repro.hw.synthesis.FoldEmitter`: constant propagation, operand
dedup, the symmetric inversion registry, MUX strength reduction, and
int-packed structural hashing.  Emission therefore lands directly on the
fold fixpoint — a full circuit materializes as one pass over flat int
lists plus one dead-gate strip, with no builder objects and no separate
fold.

Why this is gate-for-gate identical to the per-gate builder
-----------------------------------------------------------

Construction through the :class:`~repro.hw.netlist.Netlist` folding
builders *is* a streaming fold of the logical op sequence, and
``synthesize``'s extra pass over the result is a structural identity
(see :func:`~repro.hw.synthesis.synthesize_arrays`).  The array-side
fold *is* a replay of the rows through the same ``FoldEmitter`` rules
this module emits through, so there is no second copy of the rules to
drift.  Emitting the same logical sequence therefore lands on the same
fixpoint, provided the emitter reproduces the builder's op order
exactly.  Every op-order decision in :mod:`repro.hw.blocks` (widths,
range shortcuts, CSD digits, compare/select chains) is a pure function
of the value ranges ``(lo, hi)`` and the hardwired coefficients, never
of netlist state, so :class:`AVal` replicates them verbatim.  A fold
pass over the emitted arrays is the identity transform
(``changed == False``), an invariant the tests assert directly.

The raw per-gate build (``build_bespoke_netlist(model, optimize=False)``)
folded by ``synthesize_reference`` is the independent oracle —
``tests/test_array_builder.py`` pins the builds against it
gate-for-gate.
"""

from __future__ import annotations

from time import perf_counter

from ..quant.qmodel import QuantMLP, QuantSVM
from .blocks import binary_digits, bits_for_range, csd_digits
from .synthesis import ArrayCircuit, FoldEmitter, _strip_arrays

__all__ = [
    "ArrayEmitter",
    "AVal",
    "bespoke_multiplier_rows",
    "emit_bespoke_arrays",
    "build_bespoke_arrays",
    "build_weighted_sum_arrays",
    "build_bespoke_multiplier_arrays",
    "CLASS_OUTPUT",
    "REGRESSOR_OUTPUT",
]

CLASS_OUTPUT = "class_idx"
REGRESSOR_OUTPUT = "y_out"


class ArrayEmitter(FoldEmitter):
    """A :class:`~repro.hw.synthesis.FoldEmitter` with a circuit interface.

    Input buses must all be declared before the first gate row (the
    bespoke generators do; it is what keeps node ids final at emission
    time).  Every gate goes through the inherited scalar fold rules, so
    the emitted arrays are already at the fold fixpoint and only the
    dead-gate strip remains.  ``finish``/``finish_synthesized`` package
    the rows as an :class:`~repro.hw.synthesis.ArrayCircuit`.
    """

    __slots__ = ("name", "input_buses", "outputs", "signed", "meta",
                 "watch")

    def __init__(self, name: str = "netlist") -> None:
        super().__init__()
        self.name = name
        self.input_buses: dict[str, list[int]] = {}
        self.outputs: dict[str, list[int]] = {}
        self.signed: dict[str, bool] = {}
        self.meta: dict = {}
        self.watch: list[list[int]] | None = None

    # -- interface -----------------------------------------------------
    def input_bus(self, name: str, width: int) -> "AVal":
        """Declare an unsigned primary-input bus (before any gate row)."""
        if self.ops:
            raise ValueError("declare input buses before emitting gates")
        if name in self.input_buses:
            raise ValueError(f"input bus {name!r} already exists")
        if width < 1:
            raise ValueError("bus width must be positive")
        base = self.n_fixed
        self.input_buses[name] = list(range(base, base + width))
        self.n_fixed += width
        self._node_level.extend([0] * width)
        return AVal(self, list(range(base, base + width)),
                    0, (1 << width) - 1)

    def set_output_bus(self, name: str, value: "AVal",
                       signed: bool | None = None) -> None:
        if name in self.outputs:
            raise ValueError(f"output bus {name!r} already exists")
        self.outputs[name] = list(value.nets)
        self.signed[name] = value.signed if signed is None else signed

    # -- block emitters -------------------------------------------------
    def ripple_add(self, a: list[int], b: list[int],
                   cin: int) -> list[int]:
        """Width-preserving ripple-carry sum; returns the sum node ids.

        Per bit, in the builder's call order: propagate, sum, generate,
        propagate&carry, carry-out.
        """
        if len(a) != len(b):
            raise ValueError("operand widths differ")
        xor_, and_, or_ = self.xor_, self.and_, self.or_
        carry = cin
        out = []
        for ai, bi in zip(a, b):
            p = xor_(ai, bi)
            out.append(xor_(p, carry))
            carry = or_(and_(ai, bi), and_(p, carry))
        return out

    # -- packaging ------------------------------------------------------
    def finish(self) -> ArrayCircuit:
        """The emitted rows as an (unstripped) :class:`ArrayCircuit`.

        The rows are already at the fold fixpoint (``_fold_arrays`` over
        them is the identity transform); dead gates — carry chains past
        a truncation, orphaned by downstream folding — still need the
        strip, exactly as on the per-gate path.
        """
        circ = ArrayCircuit()
        circ.name = self.name
        circ.input_buses = dict(self.input_buses)
        circ.n_fixed = self.n_fixed
        circ.ops, circ.ina, circ.inb, circ.inc = (self.ops, self.ina,
                                                  self.inb, self.inc)
        circ.levels = self.levels
        for name, nodes in self.outputs.items():
            circ.outputs[name] = list(nodes)
            circ.signed[name] = self.signed[name]
        circ.meta = dict(self.meta)
        if self.watch is not None:
            circ.watch = [list(bus) for bus in self.watch]
        return circ

    def finish_synthesized(self) -> ArrayCircuit:
        """Strip dead gates off the emitted (already-folded) rows."""
        stripped, _node_map = _strip_arrays(self.finish())
        return stripped


class AVal:
    """Range-tracked bus over emitter node ids — :class:`Value`'s mirror.

    ``nets`` is a list of node ids (LSB first).  Every method replicates
    the corresponding :class:`~repro.hw.blocks.Value` method's range
    logic and gate-emission order exactly; gates land as rows through
    the emitter's fold-rule helpers (see module docstring).
    """

    __slots__ = ("em", "nets", "lo", "hi")

    def __init__(self, em: ArrayEmitter, nets: list[int],
                 lo: int, hi: int) -> None:
        self.em = em
        self.nets = nets
        self.lo = lo
        self.hi = hi

    @staticmethod
    def constant(em: ArrayEmitter, value: int) -> "AVal":
        width = bits_for_range(value, value)
        nets = [(value >> bit) & 1 for bit in range(width)]
        return AVal(em, nets, value, value)

    # -- introspection (mirrors Value) ----------------------------------
    @property
    def width(self) -> int:
        return len(self.nets)

    @property
    def signed(self) -> bool:
        return self.lo < 0

    @property
    def is_constant_zero(self) -> bool:
        return self.lo == 0 and self.hi == 0

    def sign_net(self) -> int:
        return self.nets[-1] if self.signed else 0

    def bits_extended(self, width: int) -> list[int]:
        if width < self.width:
            raise ValueError("cannot extend to a smaller width")
        pad = self.nets[-1] if self.signed else 0
        return self.nets + [pad] * (width - self.width)

    # -- arithmetic -----------------------------------------------------
    def add(self, other: "AVal") -> "AVal":
        lo, hi = self.lo + other.lo, self.hi + other.hi
        width = bits_for_range(lo, hi)
        compute_width = max(width, self.width, other.width)
        a = self.bits_extended(compute_width)
        b = other.bits_extended(compute_width)
        total = self.em.ripple_add(a, b, 0)
        return AVal(self.em, total[:width], lo, hi)

    def sub(self, other: "AVal") -> "AVal":
        lo, hi = self.lo - other.hi, self.hi - other.lo
        width = bits_for_range(lo, hi)
        compute_width = max(width, self.width, other.width)
        a = self.bits_extended(compute_width)
        not_ = self.em.not_
        b = [not_(bit) for bit in other.bits_extended(compute_width)]
        total = self.em.ripple_add(a, b, 1)
        return AVal(self.em, total[:width], lo, hi)

    def neg(self) -> "AVal":
        return AVal.constant(self.em, 0).sub(self)

    def add_constant(self, value: int) -> "AVal":
        if value == 0:
            return self
        return self.add(AVal.constant(self.em, value))

    def shifted(self, amount: int) -> "AVal":
        if amount < 0:
            raise ValueError("use truncate_lsbs for right shifts")
        if amount == 0:
            return self
        return AVal(self.em, [0] * amount + self.nets,
                    self.lo << amount, self.hi << amount)

    def truncate_lsbs(self, amount: int) -> "AVal":
        if amount <= 0:
            return self
        if amount >= self.width:
            lo, hi = self.lo >> amount, self.hi >> amount
            if lo >= 0:
                return AVal.constant(self.em, 0)
            return AVal(self.em, [self.sign_net()], lo, hi)
        return AVal(self.em, self.nets[amount:],
                    self.lo >> amount, self.hi >> amount)

    def relu(self) -> "AVal":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return AVal.constant(self.em, 0)
        keep = self.em.not_(self.sign_net())
        width = bits_for_range(0, self.hi)
        and_ = self.em.and_
        nets = [and_(bit, keep) for bit in self.nets[:width]]
        return AVal(self.em, nets, 0, self.hi)

    # -- comparison / selection -----------------------------------------
    def ge(self, other: "AVal") -> int:
        if self.lo >= other.hi:
            return 1
        if self.hi < other.lo:
            return 0
        diff = self.sub(other)
        return self.em.not_(diff.sign_net())

    def gt(self, other: "AVal") -> int:
        return self.em.not_(other.ge(self))

    def select(self, other: "AVal", sel: int) -> "AVal":
        lo, hi = min(self.lo, other.lo), max(self.hi, other.hi)
        width = bits_for_range(lo, hi)
        a = self.bits_extended(width)
        b = other.bits_extended(width)
        mux_ = self.em.mux_
        nets = [mux_(a[bit], b[bit], sel) for bit in range(width)]
        return AVal(self.em, nets, lo, hi)


# ----------------------------------------------------------------------
# Block generators (mirror blocks.py's module functions)
# ----------------------------------------------------------------------
def bespoke_multiplier_rows(x: AVal, coefficient: int,
                            recoding: str = "csd") -> AVal:
    """``BM_w`` as emitted rows — mirrors :func:`blocks.bespoke_multiplier`."""
    em = x.em
    if coefficient == 0 or (x.lo == 0 and x.hi == 0):
        return AVal.constant(em, 0)
    if recoding == "csd":
        digits = csd_digits(coefficient)
    elif recoding == "binary":
        digits = binary_digits(coefficient)
    else:
        raise ValueError(f"unknown recoding {recoding!r}")
    accumulator: AVal | None = None
    for position, digit in digits:
        term = x.shifted(position)
        if accumulator is None:
            accumulator = term if digit > 0 else term.neg()
        elif digit > 0:
            accumulator = accumulator.add(term)
        else:
            accumulator = accumulator.sub(term)
    assert accumulator is not None
    return accumulator


def _balanced_sum(values: list[AVal]) -> AVal:
    if not values:
        raise ValueError("sum of no values")
    layer = values
    while len(layer) > 1:
        next_layer = []
        for index in range(0, len(layer) - 1, 2):
            next_layer.append(layer[index].add(layer[index + 1]))
        if len(layer) % 2:
            next_layer.append(layer[-1])
        layer = next_layer
    return layer[0]


def _argmax(em: ArrayEmitter, values: list[AVal]) -> AVal:
    if not values:
        raise ValueError("argmax of no values")
    best_value = values[0]
    best_index = AVal.constant(em, 0)
    for index, candidate in enumerate(values[1:], start=1):
        take = candidate.gt(best_value)
        best_value = best_value.select(candidate, take)
        best_index = best_index.select(AVal.constant(em, index), take)
    return best_index


def _one_vs_one_votes(em: ArrayEmitter, scores: list[AVal]) -> list[AVal]:
    n_classes = len(scores)
    if n_classes < 2:
        raise ValueError("1-vs-1 voting needs at least two classes")
    vote_bits: list[list[int]] = [[] for _ in range(n_classes)]
    for i in range(n_classes):
        for j in range(i + 1, n_classes):
            i_wins = scores[i].ge(scores[j])
            vote_bits[i].append(i_wins)
            vote_bits[j].append(em.not_(i_wins))
    counts = []
    for bits in vote_bits:
        values = [AVal(em, [bit], 0, 1) for bit in bits]
        counts.append(_balanced_sum(values))
    return counts


def _weighted_sum(em: ArrayEmitter, inputs: list[AVal],
                  coefficients, bias: int) -> AVal:
    products = [bespoke_multiplier_rows(value, int(coeff))
                for value, coeff in zip(inputs, coefficients)
                if int(coeff) != 0]
    if not products:
        return AVal.constant(em, int(bias))
    return _balanced_sum(products).add_constant(int(bias))


def _emit_inputs(em: ArrayEmitter, n_features: int,
                 input_bits: int) -> list[AVal]:
    return [em.input_bus(f"x{index}", input_bits)
            for index in range(n_features)]


# ----------------------------------------------------------------------
# Model-level emission (mirrors bespoke.py's generators)
# ----------------------------------------------------------------------
def emit_bespoke_arrays(model: QuantMLP | QuantSVM,
                        name: str = "bespoke") -> ArrayCircuit:
    """The unstripped (but already-folded) row form of a model's circuit."""
    em = ArrayEmitter(name)
    _emit_model(em, model)
    return em.finish()


def _emit_model(em: ArrayEmitter, model: QuantMLP | QuantSVM) -> None:
    if isinstance(model, QuantMLP):
        _emit_mlp(em, model)
    elif isinstance(model, QuantSVM):
        _emit_svm(em, model)
    else:
        raise TypeError(
            f"cannot build a bespoke circuit for {type(model).__name__}")


def _emit_mlp(em: ArrayEmitter, model: QuantMLP) -> None:
    activations = _emit_inputs(em, model.weights[0].shape[0],
                               model.input_bits)
    last = len(model.weights) - 1
    for layer, (w_int, b_int) in enumerate(zip(model.weights, model.biases)):
        sums = [_weighted_sum(em, activations, w_int[:, unit], b_int[unit])
                for unit in range(w_int.shape[1])]
        if layer < last:
            shift = model.shifts[layer]
            activations = [s.relu().truncate_lsbs(shift) for s in sums]
    em.watch = [list(s.nets) for s in sums]
    if model.kind == "classifier":
        em.meta["kind"] = "classifier"
        em.set_output_bus(CLASS_OUTPUT, _argmax(em, sums), signed=False)
    else:
        em.meta["kind"] = "regressor"
        em.set_output_bus(REGRESSOR_OUTPUT, sums[0])


def _emit_svm(em: ArrayEmitter, model: QuantSVM) -> None:
    inputs = _emit_inputs(em, model.weights.shape[0], model.input_bits)
    scores = [_weighted_sum(em, inputs, model.weights[:, unit],
                            model.biases[unit])
              for unit in range(model.weights.shape[1])]
    em.watch = [list(s.nets) for s in scores]
    if model.kind == "classifier":
        em.meta["kind"] = "classifier"
        counts = _one_vs_one_votes(em, scores)
        em.set_output_bus(CLASS_OUTPUT, _argmax(em, counts), signed=False)
    else:
        em.meta["kind"] = "regressor"
        em.set_output_bus(REGRESSOR_OUTPUT, scores[0])


# ----------------------------------------------------------------------
# Synthesized builds (+ telemetry, lazy service bridge as in compiled.py)
# ----------------------------------------------------------------------
_telemetry = None


def _service_telemetry():
    global _telemetry
    if _telemetry is None:
        from ..service import telemetry as resolved
        _telemetry = resolved
    return _telemetry


def _record_build(t0: float, emitted: int) -> None:
    """``build.bespoke_ms`` + ``build.gates_emitted``."""
    tel = _service_telemetry()
    tel.observe("build.bespoke_ms", (perf_counter() - t0) * 1e3)
    tel.counter("build.gates_emitted", emitted)


def build_bespoke_arrays(model: QuantMLP | QuantSVM,
                         name: str = "bespoke") -> ArrayCircuit:
    """Emit + strip a model's bespoke circuit; returns the folded form.

    The returned :class:`ArrayCircuit` is directly evaluable by the
    compiled engines; ``to_netlist()`` gives what
    :func:`~repro.hw.bespoke.build_bespoke_netlist` returns.
    """
    t0 = perf_counter()
    with _service_telemetry().span("build.bespoke",
                                   kind=type(model).__name__):
        em = ArrayEmitter(name)
        _emit_model(em, model)
        emitted = len(em.ops)
        stripped = em.finish_synthesized()
    _record_build(t0, emitted)
    return stripped


def build_weighted_sum_arrays(coefficients, input_bits: int,
                              bias: int = 0) -> ArrayCircuit:
    """A standalone weighted-sum circuit, emitted and stripped."""
    t0 = perf_counter()
    em = ArrayEmitter("weighted_sum")
    inputs = _emit_inputs(em, len(coefficients), input_bits)
    em.set_output_bus("sum", _weighted_sum(em, inputs, coefficients, bias))
    emitted = len(em.ops)
    stripped = em.finish_synthesized()
    _record_build(t0, emitted)
    return stripped


def build_bespoke_multiplier_arrays(coefficient: int,
                                    input_bits: int) -> ArrayCircuit:
    """A standalone ``BM_w``, emitted and stripped.

    The hottest call site (the area library builds one per candidate
    coefficient per width) consumes the folded :class:`ArrayCircuit`
    directly — ``area_mm2`` reads the ``ops`` array — so no ``Netlist``
    is materialized at all.
    """
    t0 = perf_counter()
    em = ArrayEmitter(f"bm_{coefficient}_{input_bits}b")
    x = em.input_bus("x", input_bits)
    em.set_output_bus("p", bespoke_multiplier_rows(x, coefficient))
    emitted = len(em.ops)
    stripped = em.finish_synthesized()
    _record_build(t0, emitted)
    return stripped
