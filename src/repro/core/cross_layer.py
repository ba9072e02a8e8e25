"""The automated cross-layer approximation framework (Sections III-IV).

Given a quantized model and a dataset split, :class:`CrossLayerFramework`
produces every design family of the paper's Fig. 3:

* ``exact``  — the area-optimized bespoke baseline (black triangle);
* ``coeff``  — only hardware-driven coefficient approximation (red star);
* ``prune``  — only netlist pruning, applied to the exact circuit
  (gray crosses);
* ``cross``  — coefficient approximation followed by pruning of the
  approximated netlist (green dots), the paper's proposal.

Every evaluated design carries measured accuracy (test-set simulation),
synthesized area, and activity-based power, so the result object can
directly regenerate Fig. 3 (Pareto spaces), Table II (area/power at <1%
accuracy loss, with fallback to the parent design when nothing meets the
threshold — the paper's 0%-gain entries), and Table III (execution time).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..eval.accuracy import CircuitEvaluator, EvaluationRecord
from ..hw.array_builder import build_bespoke_arrays
from ..hw.bespoke import build_bespoke_netlist
from .coeff_approx import ApproximatedSum, CoefficientApproximator
from .multiplier_area import BespokeMultiplierLibrary
from .pareto import best_within_accuracy_loss, pareto_front
from .pruning import DEFAULT_TAU_GRID, NetlistPruner

__all__ = ["DesignPoint", "ExplorationResult", "ESweepResult",
           "CrossLayerFramework", "DEFAULT_E_SWEEP", "TECHNIQUES",
           "TECHNIQUE_LABELS"]

# The Fig. 2 sweep range: every coefficient search radius from 1 to 10.
DEFAULT_E_SWEEP = tuple(range(1, 11))

TECHNIQUES = ("exact", "coeff", "prune", "cross")

# Legend names used in the paper's Fig. 3.
TECHNIQUE_LABELS = {
    "exact": "Exact Bespoke [1]",
    "coeff": "Only Coeff. Approx.",
    "prune": "Only Pruning",
    "cross": "Coef. Approx. & Pruning",
}


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated design in the accuracy/area/power space.

    ``e`` tags the coefficient search radius that produced the design's
    base model — ``None`` for the exact family and for single-``e``
    explorations; e-sweeps (:meth:`CrossLayerFramework.sweep_e`) stamp
    it so the union Pareto can attribute every point to its radius.
    """

    technique: str
    accuracy: float
    area_mm2: float
    power_mw: float
    n_gates: int
    tau_c: float | None = None
    phi_c: int | None = None
    n_pruned: int = 0
    duplicate: bool = False
    e: int | None = None

    @property
    def area_cm2(self) -> float:
        return self.area_mm2 / 100.0

    @staticmethod
    def from_record(technique: str, record: EvaluationRecord,
                    **extra) -> "DesignPoint":
        return DesignPoint(technique, record.accuracy, record.area_mm2,
                           record.power_mw, record.n_gates, **extra)


@dataclass
class ExplorationResult:
    """Everything the framework evaluated for one circuit."""

    name: str
    points: list[DesignPoint]
    runtime_s: float
    coeff_reports: list[ApproximatedSum] = field(default_factory=list)

    @property
    def baseline(self) -> DesignPoint:
        """The exact bespoke design everything is normalized against."""
        return next(p for p in self.points if p.technique == "exact")

    @property
    def coeff_point(self) -> DesignPoint:
        return next(p for p in self.points if p.technique == "coeff")

    def technique(self, *names: str) -> list[DesignPoint]:
        wanted = set(names)
        return [p for p in self.points if p.technique in wanted]

    @property
    def n_designs(self) -> int:
        """Designs in the explored space (the paper counts >4300 total)."""
        return len(self.points)

    @property
    def n_unique_designs(self) -> int:
        return sum(1 for p in self.points if not p.duplicate)

    def normalized_area(self, point: DesignPoint) -> float:
        return point.area_mm2 / self.baseline.area_mm2

    def pareto(self, *techniques: str) -> list[DesignPoint]:
        """Accuracy-vs-area Pareto front over the chosen techniques."""
        pool = self.technique(*techniques) if techniques else self.points
        return pareto_front(pool, lambda p: p.area_mm2, lambda p: p.accuracy)

    def best_within_loss(self, technique: str,
                         max_loss: float = 0.01) -> DesignPoint:
        """Area-optimal design of one technique at bounded accuracy loss.

        Candidate pools include the technique's parent design, so when no
        approximate design meets the threshold the selection degrades to
        the parent (the paper's 0%-gain Table II entries): pruning falls
        back to the exact baseline, cross falls back to the coefficient-
        approximated design (and transitively to the baseline).
        """
        pools = {
            "exact": ["exact"],
            "coeff": ["coeff", "exact"],
            "prune": ["prune", "exact"],
            "cross": ["cross", "coeff", "exact"],
        }
        if technique not in pools:
            raise ValueError(f"unknown technique {technique!r}")
        candidates = [p for p in self.technique(*pools[technique])
                      if not p.duplicate]
        chosen = best_within_accuracy_loss(
            candidates, self.baseline.accuracy, max_loss,
            lambda p: p.area_mm2, lambda p: p.accuracy)
        if chosen is None:  # baseline is always eligible (zero loss)
            chosen = self.baseline
        return chosen


@dataclass
class ESweepResult:
    """Per-``e`` coeff+cross families of one circuit's e-sweep.

    The Fig. 2-style exploration generalized to whole circuits: one
    exact baseline plus, for every coefficient search radius ``e``, the
    coefficient-approximated design (``technique="coeff"``) and — when
    requested — its pruning family (``technique="cross"``), every point
    stamped with its ``e``.  :meth:`pareto` ranges over the *union* of
    the families, so the result directly answers the question Fig. 2
    answers for lone multipliers: which radius actually buys area at
    circuit level, and where it saturates.
    """

    name: str
    e_values: tuple[int, ...]
    points: list[DesignPoint]
    runtime_s: float
    coeff_reports: dict[int, list[ApproximatedSum]] = field(
        default_factory=dict)

    @property
    def baseline(self) -> DesignPoint:
        """The exact bespoke design every family normalizes against."""
        return next(p for p in self.points if p.technique == "exact")

    def family(self, e: int) -> list[DesignPoint]:
        """Every evaluated point of one radius (coeff + cross)."""
        return [p for p in self.points if p.e == e]

    def coeff_point(self, e: int) -> DesignPoint:
        return next(p for p in self.points
                    if p.technique == "coeff" and p.e == e)

    def technique(self, *names: str) -> list[DesignPoint]:
        wanted = set(names)
        return [p for p in self.points if p.technique in wanted]

    @property
    def n_designs(self) -> int:
        return len(self.points)

    def pareto(self, *techniques: str) -> list[DesignPoint]:
        """Accuracy-vs-area Pareto front over the union of the families."""
        pool = self.technique(*techniques) if techniques else self.points
        return pareto_front(pool, lambda p: p.area_mm2, lambda p: p.accuracy)


class CrossLayerFramework:
    """End-to-end automated flow of the paper.

    Args:
        e: coefficient search radius (the paper fixes 4; Fig. 2 shows the
            area gains saturating beyond it).
        strategy: selection strategy for step 3 of the coefficient
            approximation (see :class:`CoefficientApproximator`).
        tau_grid: pruning thresholds (defaults to 80..99%).
        clock_ms: circuit clock for power analysis (the paper uses 200 ms,
            250 ms for the Pendigits MLP-C).
        library: shared bespoke-multiplier area cache.
        n_workers: fan the pruning explorations' tau_c chains across a
            process pool (serial when ``None``/``0``/``1``; pool failures
            fall back to serial automatically).
        engine: evaluation backend for every score and exploration —
            ``"auto"`` (default: the batched multi-variant engine where
            the host supports it), ``"batched"``, ``"compiled"``
            (per-variant word-parallel engine, the PR-1 baseline), or
            the legacy ``"bigint"`` oracle.  All engines produce the
            identical design space; see
            :class:`~repro.eval.accuracy.CircuitEvaluator` for the
            selector semantics.
        store: optional content-addressed design store (a
            :class:`~repro.service.store.DesignStore` or a path to
            one).  When set, the pruning explorations route through the
            service layer's resumable sharded jobs: finished grids are
            lookups, interrupted ones resume from their last shard
            checkpoint, and the records are bit-identical to a
            store-less run (the store-hit identity contract).  The
            coefficient approximation is memoized in the store too, so
            warm ``coeff``/``cross`` runs skip the area search.
        identity: exploration record-identity mode — ``"exact"``
            (default: design lists bit-identical to ``explore_legacy``)
            or ``"relaxed"`` (the batched walk shares rewrites across
            the tau axis; accuracies/coordinates stay identical, gate
            and area records may differ within the documented
            tolerance).  See :class:`~repro.core.pruning.NetlistPruner`.
    """

    def __init__(self, e: int = 4, strategy: str = "auto",
                 tau_grid: tuple[float, ...] = DEFAULT_TAU_GRID,
                 clock_ms: float | None = None,
                 library: BespokeMultiplierLibrary | None = None,
                 n_workers: int | None = None,
                 engine: str = "auto",
                 store=None,
                 identity: str = "exact") -> None:
        self.approximator = CoefficientApproximator(
            library=library, e=e, strategy=strategy)
        self.tau_grid = tau_grid
        self.clock_ms = clock_ms
        self.n_workers = n_workers
        self.engine = engine
        if store is not None and not hasattr(store, "get_variant"):
            from ..service.store import DesignStore  # lazy: core <-> service
            store = DesignStore(store)
        self.store = store
        self.identity = identity

    def _pruned_designs(self, pruner: NetlistPruner, label: str,
                        grid_meta: dict | None = None):
        """One pruning exploration, through the store when configured.

        ``grid_meta`` (the coeff-netlist content key for cross-family
        explorations) rides into the stored grid metadata so
        ``store gc`` keeps the base netlist reachable while the grid
        survives.
        """
        if self.store is None:
            try:
                return pruner.explore()
            finally:
                pruner.close()  # deterministic worker-pool teardown
        from ..service.jobs import ExplorationJob  # lazy: core <-> service
        return ExplorationJob(pruner, self.store, label=label,
                              grid_meta=grid_meta).run()

    def _coeff_grid_meta(self, model, approximator=None) -> dict | None:
        """Grid metadata tying a cross exploration to its coeff netlist."""
        if self.store is None:
            return None
        from ..service.store import coeff_netlist_key  # lazy import
        approximator = approximator or self.approximator
        return {"coeff_netlist_key": coeff_netlist_key(model, approximator),
                "e": approximator.e}

    def _approximate(self, model, approximator=None):
        """Coefficient approximation, memoized in the store when set."""
        if approximator is None:
            approximator = self.approximator
        if self.store is None:
            return approximator.approximate_model(model)
        from ..service.store import approximate_model_cached
        return approximate_model_cached(approximator, model, self.store)

    def _coeff_netlist(self, model, approx_model, name: str,
                       approximator=None):
        """The synthesized coefficient-approximated netlist.

        With a store configured the netlist itself is content-addressed
        (``coeff_netlists`` table): a warm hit rebuilds it from JSON
        and skips the whole bespoke build+synthesis — together with the
        coefficient cache this is what makes warm cross-layer sweeps
        skip both the area search *and* the rebuild.
        """
        if self.store is None:
            return build_bespoke_netlist(approx_model, name=name)
        from ..service.store import build_coeff_netlist_cached
        netlist, _hit = build_coeff_netlist_cached(
            approximator or self.approximator, model, self.store,
            name=name, approx_model=approx_model)
        return netlist

    def explore(self, model, X_train01, X_test01, y_test,
                name: str = "circuit",
                include: tuple[str, ...] = TECHNIQUES) -> ExplorationResult:
        """Run the full design-space exploration for one quantized model.

        ``include`` can drop families (e.g. skip "prune") when an
        experiment only needs part of the space.
        """
        start = time.perf_counter()
        evaluator = CircuitEvaluator.from_split(
            model, X_train01, X_test01, y_test, clock_ms=self.clock_ms,
            engine=self.engine, identity=self.identity)
        points: list[DesignPoint] = []

        exact_netlist = build_bespoke_netlist(model, name=f"{name}_exact")

        coeff_reports: list[ApproximatedSum] = []
        coeff_netlist = None
        if "coeff" in include or "cross" in include:
            approx_model, coeff_reports = self._approximate(model)
            coeff_netlist = self._coeff_netlist(
                model, approx_model, name=f"{name}_coeff")

        # The exact and coefficient-approximated designs score in one
        # multi-netlist pass (records bit-identical to per-netlist
        # evaluation — the evaluate_many contract).
        pair = [exact_netlist] if coeff_netlist is None \
            else [exact_netlist, coeff_netlist]
        records = evaluator.evaluate_many(pair)
        points.append(DesignPoint.from_record("exact", records[0]))
        if coeff_netlist is not None:
            points.append(DesignPoint.from_record("coeff", records[1]))

        if "prune" in include:
            pruner = NetlistPruner(exact_netlist, evaluator, self.tau_grid,
                                   n_workers=self.n_workers,
                                   engine=self.engine,
                                   identity=self.identity)
            for design in self._pruned_designs(pruner, f"{name}/prune"):
                points.append(DesignPoint.from_record(
                    "prune", design.record, tau_c=design.tau_c,
                    phi_c=design.phi_c, n_pruned=design.n_pruned,
                    duplicate=design.duplicate_of is not None))

        if "cross" in include:
            pruner = NetlistPruner(coeff_netlist, evaluator, self.tau_grid,
                                   n_workers=self.n_workers,
                                   engine=self.engine,
                                   identity=self.identity)
            for design in self._pruned_designs(
                    pruner, f"{name}/cross",
                    grid_meta=self._coeff_grid_meta(model)):
                points.append(DesignPoint.from_record(
                    "cross", design.record, tau_c=design.tau_c,
                    phi_c=design.phi_c, n_pruned=design.n_pruned,
                    duplicate=design.duplicate_of is not None))

        runtime = time.perf_counter() - start
        return ExplorationResult(name, points, runtime, coeff_reports)

    def sweep_e(self, model, X_train01, X_test01, y_test,
                name: str = "circuit",
                e_values: tuple[int, ...] = DEFAULT_E_SWEEP,
                include: tuple[str, ...] = ("coeff", "cross")
                ) -> ESweepResult:
        """Sweep the coefficient search radius across whole circuits.

        The Fig. 2 e-sweep lifted from lone multipliers to the full
        cross-layer flow: for every ``e`` in ``e_values`` the model is
        re-approximated and the resulting design family evaluated —
        ``"coeff"`` (always) and optionally ``"cross"`` (a pruning
        exploration of each radius's netlist, store-backed and
        resumable per ``e`` when the framework has a store).

        Shared-work structure, versus a naive per-``e`` loop through
        :meth:`explore`:

        * the candidate search runs **once** — every radius reads its
          rung of one prefix-minima ladder
          (:meth:`~repro.core.multiplier_area.BespokeMultiplierLibrary.
          candidate_ladder`);
        * the evaluator (quantized split, packed stimulus) and the
          exact baseline are built and scored once;
        * all per-``e`` designs score in one multi-netlist batched
          pass (:meth:`~repro.eval.accuracy.CircuitEvaluator.
          evaluate_many`); without a store (and without ``"cross"``)
          the variants stay in synthesis array form, skipping netlist
          materialization and plan re-levelization entirely;
        * with a store, each radius's approximation *and* synthesized
          netlist are content-addressed, so a warm re-sweep skips the
          area search and the rebuild, and each radius's pruning grid
          resumes like any other exploration job.

        Records are bit-identical to the naive loop's (enforced by
        ``benchmarks/bench_esweep.py`` on every run).
        """
        start = time.perf_counter()
        evaluator = CircuitEvaluator.from_split(
            model, X_train01, X_test01, y_test, clock_ms=self.clock_ms,
            engine=self.engine, identity=self.identity)
        e_values = tuple(int(e) for e in e_values)

        exact_netlist = build_bespoke_netlist(model, name=f"{name}_exact")
        want_cross = "cross" in include
        # Array-form variants skip netlist materialization, but only
        # the compiled engines can consume them (the bigint oracle
        # reads the Netlist gate interface) — and the store needs
        # netlist JSON.
        as_arrays = self.store is None and not want_cross \
            and evaluator.resolved_engine() in ("compiled", "batched")

        variants = []
        reports_by_e: dict[int, list[ApproximatedSum]] = {}
        for e in e_values:
            approximator = self.approximator.with_e(e)
            approx_model, reports = self._approximate(model, approximator)
            reports_by_e[e] = reports
            if as_arrays:
                variants.append((e, approx_model, build_bespoke_arrays(
                    approx_model, name=f"{name}_coeff_e{e}")))
            else:
                variants.append((e, approx_model, self._coeff_netlist(
                    model, approx_model, name=f"{name}_coeff_e{e}",
                    approximator=approximator)))

        records = evaluator.evaluate_many(
            [exact_netlist] + [circ for _e, _m, circ in variants])
        points: list[DesignPoint] = [
            DesignPoint.from_record("exact", records[0])]
        for (e, _m, _c), record in zip(variants, records[1:]):
            points.append(DesignPoint.from_record("coeff", record, e=e))

        if want_cross:
            for e, _approx_model, coeff_netlist in variants:
                pruner = NetlistPruner(coeff_netlist, evaluator,
                                       self.tau_grid,
                                       n_workers=self.n_workers,
                                       engine=self.engine,
                                       identity=self.identity)
                for design in self._pruned_designs(
                        pruner, f"{name}/cross@e{e}",
                        grid_meta=self._coeff_grid_meta(
                            model, self.approximator.with_e(e))):
                    points.append(DesignPoint.from_record(
                        "cross", design.record, tau_c=design.tau_c,
                        phi_c=design.phi_c, n_pruned=design.n_pruned,
                        duplicate=design.duplicate_of is not None, e=e))

        runtime = time.perf_counter() - start
        return ESweepResult(name, e_values, points, runtime, reports_by_e)
