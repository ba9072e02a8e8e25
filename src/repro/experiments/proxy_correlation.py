"""Section III-B area-proxy validation (Pearson correlation study).

The coefficient approximation minimizes ``sum_i AREA(BM_w~i)`` as a proxy
for the area of the full weighted-sum circuit.  The paper validates the
proxy on 1000 randomly generated weighted sums (random coefficients and
input sizes) and reports a Pearson correlation of 0.91 against the area
Design Compiler measures for the complete circuit (multipliers + adder
tree).  This experiment repeats that study against this package's
synthesis flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.multiplier_area import BespokeMultiplierLibrary, default_library
from ..hw.area import area_mm2
from ..hw.bespoke import build_weighted_sum_netlist
from ..quant.fixed_point import coeff_range

__all__ = ["ProxyStudy", "run", "format_table"]


@dataclass(frozen=True)
class ProxyStudy:
    """Correlation between the multiplier-sum proxy and synthesized area."""

    proxy_mm2: np.ndarray
    synthesized_mm2: np.ndarray
    pearson_r: float
    p_value: float

    @property
    def n_circuits(self) -> int:
        return len(self.proxy_mm2)


def run(n_circuits: int = 1000, seed: int = 7,
        min_coefficients: int = 3, max_coefficients: int = 21,
        input_widths: tuple[int, ...] = (4, 6, 8),
        library: BespokeMultiplierLibrary | None = None) -> ProxyStudy:
    """Generate random weighted sums and correlate proxy vs real area."""
    library = library if library is not None else default_library()
    rng = np.random.default_rng(seed)
    lo, hi = coeff_range(library.coeff_bits)
    proxy = np.empty(n_circuits)
    synthesized = np.empty(n_circuits)
    for index in range(n_circuits):
        n_coefficients = int(rng.integers(min_coefficients,
                                          max_coefficients + 1))
        coefficients = rng.integers(lo, hi + 1, size=n_coefficients)
        input_bits = int(input_widths[rng.integers(0, len(input_widths))])
        proxy[index] = library.sum_area(coefficients, input_bits)
        netlist = build_weighted_sum_netlist(coefficients, input_bits)
        synthesized[index] = area_mm2(netlist)
    # scipy is needed by this experiment only; importing it here keeps
    # it off every other process's start-up path.
    from scipy import stats

    result = stats.pearsonr(proxy, synthesized)
    return ProxyStudy(proxy, synthesized, float(result.statistic),
                      float(result.pvalue))


def format_table(study: ProxyStudy) -> str:
    return (
        "AREA PROXY VALIDATION (Section III-B)\n"
        f"  random weighted sums: {study.n_circuits}\n"
        f"  Pearson r (proxy vs synthesized): {study.pearson_r:.3f} "
        f"(paper: 0.91)\n"
        f"  p-value: {study.p_value:.2e}\n"
        f"  proxy mean {study.proxy_mm2.mean():.1f} mm^2, "
        f"synthesized mean {study.synthesized_mm2.mean():.1f} mm^2")
