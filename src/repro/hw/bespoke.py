"""Bespoke circuit generation: quantized model -> gate-level netlist.

Bespoke architectures hardwire every model coefficient into the circuit
(Section III-A, following Mubarik et al.): each product ``x_i * w_i``
becomes a :func:`~repro.hw.blocks.bespoke_multiplier` specialized to the
coefficient value, products are reduced by exactly-sized adder trees, and
intercepts fold into the carry chains as constants.  Classifier heads end
in an argmax comparator tree (MLPs) or a 1-vs-1 vote network (SVMs);
regressors expose the raw weighted sum.

The generated netlist's integer behaviour is bit-identical to the golden
model's ``predict_int`` — the equivalence tests assert this on every
dataset sample — so accuracy measured on simulated netlists is exact, not
approximate.

The netlist ``meta`` carries what the pruning pass needs:

* ``kind``: "classifier" or "regressor";
* ``watch_buses``: the pre-argmax neuron/score buses used to compute the
  error-significance statistic phi (Section III-C's classifier-aware
  definition).

A synthesized build (the default) is emitted through
:mod:`repro.hw.array_builder`, which applies the synthesis folding rules
as it appends gate rows.  ``optimize=False`` returns the raw per-gate
build through the :class:`~repro.hw.blocks.Value`/``Netlist`` builders;
folded by :func:`~repro.hw.synthesis.synthesize_reference`, it is the
independent oracle the array builds are pinned against gate-for-gate.
"""

from __future__ import annotations

import numpy as np

from ..quant.qmodel import QuantMLP, QuantSVM
from .array_builder import (
    CLASS_OUTPUT,
    REGRESSOR_OUTPUT,
    build_bespoke_arrays,
    build_bespoke_multiplier_arrays,
    build_weighted_sum_arrays,
)
from .blocks import Value, argmax, balanced_sum, bespoke_multiplier, one_vs_one_votes
from .netlist import Netlist

__all__ = [
    "build_bespoke_netlist",
    "build_weighted_sum_netlist",
    "build_bespoke_multiplier_netlist",
    "input_payload",
    "CLASS_OUTPUT",
    "REGRESSOR_OUTPUT",
]


def _input_values(nl: Netlist, n_features: int, input_bits: int) -> list[Value]:
    """One unsigned input bus per feature: x0, x1, ..."""
    return [Value.input_bus(nl, f"x{index}", input_bits)
            for index in range(n_features)]


def _weighted_sum(inputs: list[Value], coefficients, bias: int) -> Value:
    """Sum of bespoke products plus the hardwired intercept."""
    products = [bespoke_multiplier(value, int(coeff))
                for value, coeff in zip(inputs, coefficients)
                if int(coeff) != 0]
    if not products:
        return Value.constant(inputs[0].nl, int(bias))
    return balanced_sum(products).add_constant(int(bias))


def build_bespoke_netlist(model: QuantMLP | QuantSVM, name: str = "bespoke",
                          optimize: bool = True) -> Netlist:
    """Generate (and by default synthesize) the fully-parallel circuit."""
    if optimize:
        return build_bespoke_arrays(model, name).to_netlist()
    if isinstance(model, QuantMLP):
        return _build_mlp(model, name)
    if isinstance(model, QuantSVM):
        return _build_svm(model, name)
    raise TypeError(
        f"cannot build a bespoke circuit for {type(model).__name__}")


def _build_mlp(model: QuantMLP, name: str) -> Netlist:
    nl = Netlist(name=name)
    activations = _input_values(nl, model.weights[0].shape[0], model.input_bits)
    last = len(model.weights) - 1
    for layer, (w_int, b_int) in enumerate(zip(model.weights, model.biases)):
        sums = [_weighted_sum(activations, w_int[:, unit], b_int[unit])
                for unit in range(w_int.shape[1])]
        if layer < last:
            shift = model.shifts[layer]
            activations = [s.relu().truncate_lsbs(shift) for s in sums]
    nl.meta["watch_buses"] = [s.nets for s in sums]
    if model.kind == "classifier":
        nl.meta["kind"] = "classifier"
        index = argmax(sums)
        nl.set_output_bus(CLASS_OUTPUT, index.nets)
    else:
        nl.meta["kind"] = "regressor"
        output = sums[0]
        nl.set_output_bus(REGRESSOR_OUTPUT, output.nets, signed=output.signed)
    return nl


def _build_svm(model: QuantSVM, name: str) -> Netlist:
    nl = Netlist(name=name)
    inputs = _input_values(nl, model.weights.shape[0], model.input_bits)
    scores = [_weighted_sum(inputs, model.weights[:, unit], model.biases[unit])
              for unit in range(model.weights.shape[1])]
    nl.meta["watch_buses"] = [s.nets for s in scores]
    if model.kind == "classifier":
        nl.meta["kind"] = "classifier"
        counts = one_vs_one_votes(scores)
        index = argmax(counts)
        nl.set_output_bus(CLASS_OUTPUT, index.nets)
    else:
        nl.meta["kind"] = "regressor"
        output = scores[0]
        nl.set_output_bus(REGRESSOR_OUTPUT, output.nets, signed=output.signed)
    return nl


def build_weighted_sum_netlist(coefficients, input_bits: int, bias: int = 0,
                               optimize: bool = True) -> Netlist:
    """A standalone weighted-sum circuit (used by the area-proxy study)."""
    if optimize:
        return build_weighted_sum_arrays(coefficients, input_bits,
                                         bias).to_netlist()
    nl = Netlist(name="weighted_sum")
    inputs = _input_values(nl, len(coefficients), input_bits)
    total = _weighted_sum(inputs, coefficients, bias)
    nl.set_output_bus("sum", total.nets, signed=total.signed)
    return nl


def build_bespoke_multiplier_netlist(coefficient: int, input_bits: int,
                                     optimize: bool = True) -> Netlist:
    """A standalone ``BM_w`` (the area library uses its array form)."""
    if optimize:
        return build_bespoke_multiplier_arrays(coefficient,
                                               input_bits).to_netlist()
    nl = Netlist(name=f"bm_{coefficient}_{input_bits}b")
    x = Value.input_bus(nl, "x", input_bits)
    product = bespoke_multiplier(x, coefficient)
    nl.set_output_bus("p", product.nets, signed=product.signed)
    return nl


def input_payload(X_quant: np.ndarray) -> dict[str, np.ndarray]:
    """Simulation stimulus dict for a bespoke circuit: one bus per feature."""
    X_quant = np.asarray(X_quant)
    return {f"x{index}": X_quant[:, index]
            for index in range(X_quant.shape[1])}
