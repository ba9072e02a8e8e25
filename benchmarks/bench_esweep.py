"""Benchmark of the coefficient e-sweep (Fig. 2 lifted to circuits).

Per circuit, the identical per-``e`` coefficient design family
(``e = 1..10``) is produced four ways, written to ``BENCH_esweep.json``:

* **naive per-e loop** — the pre-sweep way through the public API: one
  :meth:`~repro.core.cross_layer.CrossLayerFramework.explore` call per
  radius (``include=("coeff",)``), each re-deriving the evaluator and
  exact baseline and scoring one netlist at a time;
* **seed per-e pipeline** — the pre-engine internals for calibration
  (builder-replay reference synthesis + bigint evaluation, evaluator
  shared), reported alongside: single-netlist evaluation is roughly at
  engine parity (see ROADMAP), so this line shows the baseline is not
  a strawman;
* **cold sweep** — :meth:`~repro.core.cross_layer.CrossLayerFramework.
  sweep_e`: one candidate-ladder pass for all radii, one evaluator and
  exact baseline, variants kept in synthesis array form and scored in
  one multi-netlist batched pass (:class:`~repro.hw.compiled.
  MultiNetlistSim`).  Its speedup is bounded by the per-radius bespoke
  build both paths share — reported and regression-gated;
* **warm sweep** — the sweep as shipped: a store-backed
  :meth:`~repro.service.runner.ExplorationService.sweep` re-run
  against its populated store.  Every radius resolves by content key
  (stored netlist fingerprint → base key → empty-pruneset variant
  record): no area search, no bespoke rebuild, no simulation.  This is
  the subsystem's steady state — sweeps are resumable store-backed
  jobs — and carries the ≥3x acceptance floor.

The report also isolates the **bespoke build stage** — the
per-radius netlist construction every cold path above shares.  The
same per-``e`` approximated models (derived outside the timed region)
are built through the per-gate oracle (the raw
``build_bespoke_netlist(m, optimize=False)`` build, then
``synthesize``) and the shipped array emitter
(``build_bespoke_netlist(m)``); the ratio is regression-gated at ≥2x.
Schema 3 drops schema 2's gate-builder cold sweep along with the
``builder=`` selector it ran through; the seed per-e pipeline still
builds per-gate and checks through ``synthesize_reference`` + bigint.

Identity is asserted across *all* paths per run, plus a store-backed
cross sweep (small tau grid) whose warm re-run must be all-hits and
record-identical to cold.

Exit status (full runs): warm sweep ≥ 3x the naive loop on ≥ 3 of the
5 circuits, cold sweep ≥ 2.2x on ≥ 3, array-vs-gate build stage ≥ 2x
on ≥ 3, and every identity bit true (identity is enforced in smoke
runs too).

Run standalone (not collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_esweep.py           # full
    PYTHONPATH=src python benchmarks/bench_esweep.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.coeff_approx import CoefficientApproximator  # noqa: E402
from repro.core.cross_layer import CrossLayerFramework  # noqa: E402
from repro.core.multiplier_area import default_library  # noqa: E402
from repro.eval.accuracy import CircuitEvaluator  # noqa: E402
from repro.experiments.zoo import get_case  # noqa: E402
from repro.hw.bespoke import build_bespoke_netlist  # noqa: E402
from repro.hw.synthesis import synthesize, synthesize_reference  # noqa: E402
from repro.service import DesignStore, ExplorationService  # noqa: E402
from repro.service.runner import ExploreRequest  # noqa: E402

OUTPUT = REPO_ROOT / "BENCH_esweep.json"

CIRCUITS = [
    ("redwine", "svm_r"),
    ("redwine", "mlp_c"),
    ("redwine", "svm_c"),
    ("whitewine", "svm_c"),
    ("cardio", "svm_c"),
]
SMOKE_CIRCUITS = [("redwine", "svm_r")]

WARM_FLOOR = 3.0
# Raised from 1.8 when array-level emission shrank the bespoke build —
# the term the naive loop and the cold sweep share, whose size bounded
# the ratio between them.
COLD_FLOOR = 2.2
BUILD_FLOOR = 2.0
FLOOR_CIRCUITS = 3


def _repeat(fn, repeats: int) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _point_tuple(point) -> tuple:
    return (point.accuracy, point.area_mm2, point.power_mw, point.n_gates)


def _record_tuple(record) -> tuple:
    return (record.accuracy, record.area_mm2, record.power_mw,
            record.n_gates)


def bench_circuit(dataset: str, kind: str, e_values, repeats: int,
                  scratch: pathlib.Path) -> dict:
    case = get_case(dataset, kind)
    model, split = case.quant_model, case.split

    def naive_loop():
        """The pre-sweep public-API way: one explore() per radius."""
        rows = []
        for e in e_values:
            framework = CrossLayerFramework(e=e, clock_ms=case.clock_ms)
            result = framework.explore(model, split.X_train, split.X_test,
                                       split.y_test, include=("coeff",))
            rows.append((e, _point_tuple(result.coeff_point)))
        return rows

    def seed_loop():
        """The pre-engine internals (reference synthesis + bigint)."""
        evaluator = CircuitEvaluator.from_split(
            model, split.X_train, split.X_test, split.y_test,
            clock_ms=case.clock_ms, engine="bigint")
        rows = []
        for e in e_values:
            approximator = CoefficientApproximator(
                library=default_library(), e=e)
            approx_model, _reports = approximator.approximate_model(model)
            raw = build_bespoke_netlist(approx_model, optimize=False)
            rows.append((e, _record_tuple(
                evaluator.evaluate(synthesize_reference(raw)))))
        return rows

    def cold_sweep():
        framework = CrossLayerFramework(clock_ms=case.clock_ms)
        return framework.sweep_e(model, split.X_train, split.X_test,
                                 split.y_test, e_values=e_values,
                                 include=("coeff",))

    # The bespoke build stage in isolation: the same per-e approximated
    # models (derived outside the timed region — the area search is not
    # under test here) built per-gate (the oracle) and array-emitted.
    approx_models = []
    for e in e_values:
        approximator = CoefficientApproximator(
            library=default_library(), e=e)
        approx_model, _reports = approximator.approximate_model(model)
        approx_models.append(approx_model)

    def build_stage_gate():
        for approx_model in approx_models:
            synthesize(build_bespoke_netlist(approx_model, optimize=False))

    def build_stage_array():
        for approx_model in approx_models:
            build_bespoke_netlist(approx_model)

    naive_s, naive_rows = _repeat(naive_loop, repeats)
    seed_s, seed_rows = _repeat(seed_loop, max(1, repeats - 1))
    cold_s, sweep_result = _repeat(cold_sweep, repeats)
    build_gate_s, _ = _repeat(build_stage_gate, repeats + 2)
    build_array_s, _ = _repeat(build_stage_array, repeats + 2)

    # The shipped sweep: store-backed, then re-run warm (pure lookups).
    store = DesignStore(scratch / f"{dataset}_{kind}.sqlite")
    request = ExploreRequest.from_dict({"dataset": dataset, "model": kind})
    store_cold_s, store_cold = _repeat(
        lambda: ExplorationService(store).sweep(request, e_values,
                                                include_cross=False), 1)
    warm_s, warm = _repeat(
        lambda: ExplorationService(store).sweep(request, e_values,
                                                include_cross=False),
        repeats)
    warm_all_hits = all(hit for _e, _r, hit, _d, _rep in warm)

    sweep_records = [(e, _point_tuple(sweep_result.coeff_point(e)))
                     for e in e_values]
    identical = (sweep_records == naive_rows == seed_rows
                 == [(e, _record_tuple(r))
                     for e, r, *_rest in store_cold]
                 == [(e, _record_tuple(r)) for e, r, *_rest in warm])

    # Cross families through the store: cold explore per radius, then a
    # warm re-sweep that must be all grid hits and record-identical.
    cross_store = DesignStore(scratch / f"{dataset}_{kind}_cross.sqlite")
    cross_request = ExploreRequest.from_dict({
        "dataset": dataset, "model": kind,
        "tau_grid": [0.9, 0.95, 0.99]})
    cross_e = e_values[:3]
    cross_cold_s, cross_cold = _repeat(
        lambda: ExplorationService(cross_store).sweep(cross_request,
                                                      cross_e), 1)
    cross_warm_s, cross_warm = _repeat(
        lambda: ExplorationService(cross_store).sweep(cross_request,
                                                      cross_e), 1)
    cross_identical = (
        [(e, record, designs) for e, record, _h, designs, _r in cross_cold]
        == [(e, record, designs)
            for e, record, _h, designs, _r in cross_warm])
    cross_all_hits = all(hit for _e, _r, hit, _d, _rep in cross_warm) \
        and all(rep.grid_hit for *_x, rep in cross_warm)

    return {
        "circuit": f"{dataset}/{kind}",
        "n_gates": sweep_result.baseline.n_gates,
        "e_values": list(e_values),
        "naive_loop_s": naive_s,
        "seed_loop_s": seed_s,
        "sweep_cold_s": cold_s,
        "sweep_store_cold_s": store_cold_s,
        "sweep_warm_s": warm_s,
        "build_gate_s": build_gate_s,
        "build_array_s": build_array_s,
        "build_ratio": build_gate_s / build_array_s,
        "speedup_cold": naive_s / cold_s,
        "speedup_warm": naive_s / warm_s,
        "identical_designs": identical,
        "warm_all_hits": warm_all_hits,
        "cross_cold_s": cross_cold_s,
        "cross_warm_s": cross_warm_s,
        "cross_warm_identical": cross_identical,
        "cross_warm_all_hits": cross_all_hits,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", "--quick", dest="smoke",
                        action="store_true",
                        help="small circuit set + reduced ladder (CI)")
    parser.add_argument("--out", type=pathlib.Path, default=OUTPUT)
    args = parser.parse_args(argv)

    circuits = SMOKE_CIRCUITS if args.smoke else CIRCUITS
    e_values = tuple(range(1, 5)) if args.smoke else tuple(range(1, 11))
    repeats = 2 if args.smoke else 3

    import tempfile

    rows = []
    with tempfile.TemporaryDirectory(prefix="bench_esweep_") as scratch:
        for dataset, kind in circuits:
            row = bench_circuit(dataset, kind, e_values, repeats,
                                pathlib.Path(scratch))
            rows.append(row)
            print(f"[esweep] {row['circuit']}: naive "
                  f"{row['naive_loop_s']:.2f}s (seed "
                  f"{row['seed_loop_s']:.2f}s) -> sweep cold "
                  f"{row['sweep_cold_s']:.2f}s ({row['speedup_cold']:.2f}x)"
                  f" -> warm {row['sweep_warm_s'] * 1e3:.1f}ms "
                  f"({row['speedup_warm']:.0f}x), build gate "
                  f"{row['build_gate_s']:.2f}s -> array "
                  f"{row['build_array_s']:.2f}s "
                  f"({row['build_ratio']:.2f}x), identical="
                  f"{row['identical_designs']}, cross warm hits="
                  f"{row['cross_warm_all_hits']} identical="
                  f"{row['cross_warm_identical']}")

    floor = {
        "warm_min_speedup": WARM_FLOOR,
        "cold_min_speedup": COLD_FLOOR,
        "build_min_ratio": BUILD_FLOOR,
        "min_circuits": FLOOR_CIRCUITS,
        "n_meeting_warm": sum(1 for row in rows
                              if row["speedup_warm"] >= WARM_FLOOR),
        "n_meeting_cold": sum(1 for row in rows
                              if row["speedup_cold"] >= COLD_FLOOR),
        "n_meeting_build": sum(1 for row in rows
                               if row["build_ratio"] >= BUILD_FLOOR),
        "enforced": not args.smoke,
    }
    floor["met"] = (floor["n_meeting_warm"] >= FLOOR_CIRCUITS
                    and floor["n_meeting_cold"] >= FLOOR_CIRCUITS
                    and floor["n_meeting_build"] >= FLOOR_CIRCUITS)
    all_identical = all(row["identical_designs"] and row["warm_all_hits"]
                        and row["cross_warm_identical"]
                        and row["cross_warm_all_hits"] for row in rows)
    report = {
        "schema": 3,
        "smoke": args.smoke,
        "e_values": list(e_values),
        "circuits": rows,
        "best_speedup_cold": max(
            (row["speedup_cold"] for row in rows), default=0.0),
        "best_speedup_warm": max(
            (row["speedup_warm"] for row in rows), default=0.0),
        "best_build_ratio": max(
            (row["build_ratio"] for row in rows), default=0.0),
        "floor": floor,
        "all_identical": all_identical,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\ne-sweep vs naive per-e loop: cold best "
          f"{report['best_speedup_cold']:.2f}x "
          f"({floor['n_meeting_cold']}/{len(rows)} >= {COLD_FLOOR}x), "
          f"warm best {report['best_speedup_warm']:.0f}x "
          f"({floor['n_meeting_warm']}/{len(rows)} >= {WARM_FLOOR:.0f}x), "
          f"build array vs gate best {report['best_build_ratio']:.2f}x "
          f"({floor['n_meeting_build']}/{len(rows)} >= {BUILD_FLOOR:.0f}x) "
          f"(all identical: {all_identical})")
    print(f"[report saved to {args.out}]")
    if not all_identical:
        print("FAIL: e-sweep identity contract violated")
        return 1
    if floor["enforced"] and not floor["met"]:
        print("FAIL: e-sweep speedup floors not met "
              f"(warm {floor['n_meeting_warm']}, cold "
              f"{floor['n_meeting_cold']}, build "
              f"{floor['n_meeting_build']} of {len(rows)}; need "
              f"{FLOOR_CIRCUITS} each)")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
