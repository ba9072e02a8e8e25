"""Batch job runner: many exploration requests, one store, JSONL out.

The facade the CLI (``repro-printed-ml explore`` / ``serve-batch``)
and any embedding server talk to.  A **request** names a circuit and a
pruning grid::

    {"dataset": "redwine", "model": "svm_r", "base": "coeff",
     "tau_grid": [0.9, 0.95, 0.99]}

* ``dataset`` / ``model`` select a zoo circuit (trained + quantized
  deterministically, so the content hash is reproducible across
  processes);
* ``base`` is ``"exact"`` (the bespoke baseline) or ``"coeff"`` (the
  coefficient-approximated netlist — the paper's cross-layer input);
* ``tau_grid`` defaults to the paper's 80..99% sweep.

A **manifest** is a JSON document with a ``requests`` list (or a bare
list).  :meth:`ExplorationService.run_manifest` deduplicates requests
against the store *and within the batch* — identical requests resolve
to the same content key, so the second occurrence is a lookup — and
streams results as JSONL: a ``request`` header line per request,
a ``design`` line per design point, and one final ``summary`` line.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from ..core.multiplier_area import default_library
from ..core.coeff_approx import CoefficientApproximator
from ..core.cross_layer import DEFAULT_E_SWEEP
from ..core.pruning import DEFAULT_TAU_GRID, NetlistPruner, PrunedDesign
from ..eval.accuracy import CircuitEvaluator
from ..hw.bespoke import build_bespoke_netlist
from .faults import fault_point
from .jobs import DEFAULT_SHARD_SIZE, ExplorationJob, JobReport
from .jsonl import write_line
from .telemetry import counter as _metric
from .telemetry import span as _span
from .leases import DEFAULT_LEASE_TTL_S, FleetReport, run_fleet_worker
from .store import (
    DesignStore,
    base_fingerprint,
    base_fingerprint_from_parts,
    build_coeff_netlist_cached,
    coeff_netlist_key,
    evaluator_fingerprint,
    grid_key as make_grid_key,
    model_fingerprint,
    variant_key,
)

__all__ = ["ExploreRequest", "ExplorationService", "request_records",
           "summary_record"]

_BASES = ("exact", "coeff")
_IDENTITIES = ("exact", "relaxed")
_DEFAULT_E = 4  # the paper's fixed coefficient search radius


@dataclass(frozen=True)
class ExploreRequest:
    """One (dataset, model, grid) exploration request.

    ``identity`` selects the exploration's record-identity mode
    (``"exact"``/``"relaxed"``; ``None`` inherits the service default)
    — see :class:`~repro.core.pruning.NetlistPruner`.  Relaxed and
    exact runs of the same circuit resolve to *different* content keys
    by construction.

    ``e`` is the coefficient search radius of a ``base="coeff"``
    request (``None``: the paper's e = 4).  Sweeps enumerate it —
    :meth:`ExplorationService.sweep` runs one request per radius, and
    a manifest may carry per-request ``e`` values; content addressing
    makes requests at the same radius resolve to the same keys however
    they were spelled.
    """

    dataset: str
    model: str
    base: str = "coeff"
    tau_grid: tuple[float, ...] = DEFAULT_TAU_GRID
    label: str | None = None
    identity: str | None = None
    e: int | None = None

    @staticmethod
    def from_dict(data: dict) -> "ExploreRequest":
        known = {"dataset", "model", "base", "tau_grid", "label",
                 "identity", "e"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown request fields {sorted(unknown)}; "
                             f"expected a subset of {sorted(known)}")
        try:
            dataset, model = data["dataset"], data["model"]
        except KeyError as exc:
            raise ValueError(
                f"request is missing required field {exc.args[0]!r}") from exc
        base = data.get("base", "coeff")
        if base not in _BASES:
            raise ValueError(f"unknown base {base!r}; use one of {_BASES}")
        identity = data.get("identity")
        if identity is not None and identity not in _IDENTITIES:
            raise ValueError(f"unknown identity {identity!r}; "
                             f"use one of {_IDENTITIES}")
        e = data.get("e")
        if e is not None:
            e = int(e)
            if e < 0:
                raise ValueError("coefficient search radius e must be >= 0")
            if base != "coeff":
                raise ValueError(
                    "e is only meaningful for base='coeff' requests")
        tau_grid = data.get("tau_grid")
        tau_grid = DEFAULT_TAU_GRID if tau_grid is None \
            else tuple(float(t) for t in tau_grid)
        return ExploreRequest(dataset, model, base, tau_grid,
                              data.get("label"), identity, e)

    @property
    def name(self) -> str:
        name = self.label or f"{self.dataset}/{self.model}/{self.base}"
        if self.label is None and self.e is not None:
            name += f"@e{self.e}"
        if self.label is None and self.identity == "relaxed":
            name += "@relaxed"
        return name


def _design_record(design: PrunedDesign, **tags) -> dict:
    """One ``design`` line; ``tags`` (``index``, a sweep's ``e``) lead."""
    return {"type": "design", **tags,
            "tau_c": design.tau_c, "phi_c": design.phi_c,
            "n_pruned": design.n_pruned,
            "duplicate_of": design.duplicate_of,
            **design.record.to_dict()}


def request_records(index: int, request: ExploreRequest,
                    designs: list[PrunedDesign], report: JobReport
                    ) -> list[dict]:
    """One explored request's lines: its ``request`` header, then a
    ``design`` line per design.  :meth:`ExplorationService.run_manifest`
    and ``repro serve`` both render these, so their bytes agree."""
    header = {
        "type": "request", "index": index,
        "dataset": request.dataset, "model": request.model,
        "base": request.base, "label": request.name,
        "tau_grid_points": len(request.tau_grid),
        "n_designs": len(designs),
        **report.to_dict(),
    }
    return [header, *(_design_record(design, index=index)
                      for design in designs)]


def summary_record(n_requests: int, n_grid_hits: int, n_designs: int,
                   start: float, store_stats: dict) -> dict:
    """A manifest's closing ``summary`` line (``start``: perf_counter)."""
    return {"type": "summary", "n_requests": n_requests,
            "n_grid_hits": n_grid_hits, "n_designs": n_designs,
            "runtime_s": time.perf_counter() - start, "store": store_stats}


class ExplorationService:
    """Store-backed exploration server for many circuits and grids.

    One service owns one :class:`~repro.service.store.DesignStore` and a
    per-process cache of prepared (netlist, evaluator) pairs, so a batch
    touching the same circuit under several grids trains/builds it once
    and the store deduplicates the evaluations.
    """

    def __init__(self, store: DesignStore | str, n_workers: int | None = None,
                 engine: str = "auto",
                 shard_size: int = DEFAULT_SHARD_SIZE,
                 identity: str = "exact",
                 evaluator_cache: dict | None = None,
                 evaluator_fp_cache: dict | None = None,
                 build_cache: dict | None = None) -> None:
        if identity not in _IDENTITIES:
            raise ValueError(f"unknown identity {identity!r}; "
                             f"use one of {_IDENTITIES}")
        # Paths open a local SQLite store; anything else (a DesignStore,
        # or a store-shaped facade like coordinator.RemoteStore) passes
        # through duck-typed.
        self.store = DesignStore(store) \
            if isinstance(store, (str, bytes)) or hasattr(store, "__fspath__") \
            else store
        self.n_workers = n_workers
        self.engine = engine
        self.shard_size = shard_size
        self.identity = identity
        # Evaluators are pure compute contexts (no store state), so a
        # multi-tenant embedder may pass shared caches — one trained
        # split serves every tenant.  Keys derived *through the store*
        # (_netlists holds store-hit flags, _base_keys folds the
        # store's namespace) stay per-instance.
        self._evaluators: dict[tuple, CircuitEvaluator] = \
            evaluator_cache if evaluator_cache is not None else {}
        self._evaluator_fps: dict[tuple, str] = \
            evaluator_fp_cache if evaluator_fp_cache is not None else {}
        # Content-keyed bespoke builds, shareable across tenant services
        # like the evaluator caches: a cold miss builds once per process
        # even when the tenants' stores differ.  None disables sharing
        # (and the build.cache metric) without changing results.
        self._build_cache: dict | None = build_cache
        self._netlists: dict[tuple, tuple] = {}
        self._base_keys: dict[tuple, str] = {}

    def _case(self, dataset: str, model: str):
        """The zoo circuit, its fitted model cached in this store."""
        from ..experiments.zoo import get_case  # heavy import, deferred
        return get_case(dataset, model, store=self.store)

    def _evaluator(self, dataset: str, model: str) -> CircuitEvaluator:
        """The per-(dataset, model) scoring context, cached per process.

        One evaluator (quantized split, packed stimulus) serves every
        base/radius of a circuit — which is what lets a sweep score all
        its per-``e`` netlists in one multi-netlist batch.
        """
        key = (dataset, model)
        cached = self._evaluators.get(key)
        if cached is not None:
            return cached
        case = self._case(dataset, model)
        split = case.split
        evaluator = CircuitEvaluator.from_split(
            case.quant_model, split.X_train, split.X_test, split.y_test,
            clock_ms=case.clock_ms, engine=self.engine)
        self._evaluators[key] = evaluator
        return evaluator

    def _netlist(self, request: ExploreRequest) -> tuple:
        """``(netlist, grid_meta, store_hit)`` for one request's base.

        ``coeff`` bases route through the store's coefficient cache
        *and* coefficient-netlist table: a warm request skips the area
        search and the bespoke rebuild.  ``grid_meta`` carries the
        netlist's content key so ``store gc`` keeps it reachable while
        any surviving grid was explored on it.
        """
        key = (request.dataset, request.model, request.base, request.e)
        cached = self._netlists.get(key)
        if cached is not None:
            return cached
        case = self._case(request.dataset, request.model)
        model = case.quant_model
        name = f"{request.dataset}_{request.model}_{request.base}"
        if request.base == "coeff":
            e = _DEFAULT_E if request.e is None else request.e
            approximator = CoefficientApproximator(
                library=default_library(), e=e)
            netlist, hit = build_coeff_netlist_cached(
                approximator, model, self.store, name=name,
                build_cache=self._build_cache)
            grid_meta = {
                "coeff_netlist_key": coeff_netlist_key(model, approximator),
                "e": e,
            }
        else:
            netlist, hit = self._exact_netlist(model, name)
            grid_meta = {}
        self._netlists[key] = (netlist, grid_meta, hit)
        return self._netlists[key]

    def _exact_netlist(self, model, name: str) -> tuple:
        """``(netlist, hit)`` for an exact base, via the shared cache.

        Exact bases have no store table; the process-wide build cache
        keyed by the model fingerprint plays the same role, so tenants
        cold-missing the same circuit share one build.  The cached
        netlist is immutable-by-convention (like the shared evaluators)
        and its name is tenant-independent, so the object is shared
        as-is.
        """
        if self._build_cache is None:
            return build_bespoke_netlist(model, name=name), False
        key = ("exact-netlist", model_fingerprint(model))
        netlist = self._build_cache.get(key)
        if netlist is not None:
            _metric("build.cache", result="hit")
            return netlist, True
        _metric("build.cache", result="miss")
        netlist = build_bespoke_netlist(model, name=name)
        self._build_cache[key] = netlist
        return netlist, False

    def _evaluator_fp(self, dataset: str, model: str) -> str:
        key = (dataset, model)
        cached = self._evaluator_fps.get(key)
        if cached is None:
            cached = evaluator_fingerprint(self._evaluator(dataset, model))
            self._evaluator_fps[key] = cached
        return cached

    def _base_key(self, request: ExploreRequest) -> str:
        """The request's base fingerprint, without a netlist if possible.

        ``coeff`` bases whose netlist the store already holds resolve
        through the *stored* netlist fingerprint
        (:meth:`~repro.service.store.DesignStore.
        get_coeff_netlist_fingerprint`) — no bespoke build, no JSON
        deserialize.  Everything else materializes the netlist once
        (cached per process) and fingerprints it.
        """
        identity = request.identity or self.identity
        cache_key = (request.dataset, request.model, request.base,
                     request.e, identity)
        cached = self._base_keys.get(cache_key)
        if cached is not None:
            return cached
        base_key = None
        if request.base == "coeff" \
                and cache_key[:4] not in self._netlists:
            model = self._case(request.dataset, request.model).quant_model
            e = _DEFAULT_E if request.e is None else request.e
            approximator = CoefficientApproximator(
                library=default_library(), e=e)
            stored_fp = self.store.get_coeff_netlist_fingerprint(
                coeff_netlist_key(model, approximator))
            if stored_fp is not None:
                base_key = base_fingerprint_from_parts(
                    stored_fp,
                    self._evaluator_fp(request.dataset, request.model),
                    identity, namespace=self.store.namespace)
        if base_key is None:
            netlist, _meta, _hit = self._netlist(request)
            base_key = base_fingerprint(
                netlist, self._evaluator(request.dataset, request.model),
                identity, namespace=self.store.namespace)
        self._base_keys[cache_key] = base_key
        return base_key

    def _warm_grid(self, request: ExploreRequest):
        """A finished grid served purely by content key, or ``None``.

        The warm fast path: base and grid keys derive from stored
        fingerprints, so a repeated request never rebuilds (or even
        deserializes) its base netlist — it is one SQLite lookup
        (a ``grid_hit`` in the ``service.requests`` metric).
        """
        start = time.perf_counter()
        gkey = make_grid_key(self._base_key(request), request.tau_grid)
        designs = self.store.get_grid(gkey)
        if designs is None:
            return None
        _metric("service.requests", outcome="grid_hit")
        report = JobReport(gkey, grid_hit=True,
                           runtime_s=time.perf_counter() - start)
        return designs, report

    def lookup(self, request: ExploreRequest):
        """:meth:`explore`'s warm half, same span and metric: a stored
        grid as ``(designs, report)``, or ``None`` (nothing computed)."""
        with _span("service.request", dataset=request.dataset,
                   model=request.model, base=request.base):
            return self._warm_grid(request)

    def job(self, request: ExploreRequest) -> ExplorationJob:
        """The resumable job a request maps to (exposes its content key)."""
        netlist, grid_meta, _hit = self._netlist(request)
        evaluator = self._evaluator(request.dataset, request.model)
        pruner = NetlistPruner(netlist, evaluator, request.tau_grid,
                               n_workers=self.n_workers, engine=self.engine,
                               identity=request.identity or self.identity)
        return ExplorationJob(pruner, self.store,
                              shard_size=self.shard_size,
                              label=request.name,
                              grid_meta=grid_meta)

    def explore(self, request: ExploreRequest, resume: bool = True,
                on_shard=None) -> tuple[list[PrunedDesign], JobReport]:
        """Run (or look up) one request; returns (designs, report).

        A finished grid is served straight off its content key (no
        netlist materialization — see :meth:`_warm_grid`); anything
        else goes through the resumable job.
        """
        with _span("service.request", dataset=request.dataset,
                   model=request.model, base=request.base):
            warm = self._warm_grid(request) if resume else None
            if warm is not None:
                return warm
            job = self.job(request)
            report = JobReport(job.grid_key())
            designs = job.run(resume=resume, on_shard=on_shard,
                              report=report)
            _metric("service.requests", outcome="computed")
            return designs, report

    def sweep(self, request: ExploreRequest,
              e_values: tuple[int, ...] = DEFAULT_E_SWEEP,
              resume: bool = True, include_cross: bool = True,
              on_shard=None) -> list[tuple]:
        """Per-radius coeff+cross families of one circuit (Fig. 2 style).

        Runs one ``base="coeff"`` request per ``e`` in ``e_values``:
        the coefficient-approximated designs score in a single
        multi-netlist batch (their netlists come store-warm when
        possible), and — with ``include_cross`` — each radius's pruning
        grid runs as its own resumable :class:`ExplorationJob`.  The
        sweep is therefore *sharded by radius on top of the per-grid
        shard checkpoints*: a kill loses at most the in-flight shard of
        the in-flight radius, and a resumed sweep reproduces the cold
        sweep exactly (finished radii are grid hits, the interrupted
        one resumes from its checkpoint).

        The per-radius coefficient records are themselves
        content-addressed (empty-pruneset ``variants`` rows under each
        radius's base fingerprint), and base fingerprints resolve from
        the stored netlist fingerprints — so a warm re-sweep touches
        neither the approximator, nor the bespoke builder, nor the
        simulator: it is a sequence of SQLite lookups.

        Returns ``[(e, coeff record, warm_hit, designs, report)]``
        with ``designs``/``report`` ``None`` when cross is skipped.
        """
        e_values = tuple(int(e) for e in e_values)
        requests = [replace(request, base="coeff", e=e) for e in e_values]
        evaluator = self._evaluator(request.dataset, request.model)
        base_keys = [self._base_key(req) for req in requests]
        record_keys = [variant_key(base_key, ()) for base_key in base_keys]
        records = [self.store.get_variant(key) if resume else None
                   for key in record_keys]
        missing = [i for i, record in enumerate(records) if record is None]
        if missing:
            fresh = evaluator.evaluate_many(
                [self._netlist(requests[i])[0] for i in missing])
            for i, record in zip(missing, fresh):
                records[i] = record
                self.store.put_variant(record_keys[i], base_keys[i], (),
                                       record)
        cold = set(missing)
        results = []
        for i, (req, record) in enumerate(zip(requests, records)):
            designs = report = None
            if include_cross:
                designs, report = self.explore(req, resume=resume,
                                               on_shard=on_shard)
            results.append((req.e, record, i not in cold, designs, report))
        return results

    def sweep_records(self, request: ExploreRequest, e_values,
                      resume: bool = True,
                      include_cross: bool = True) -> list[dict]:
        """:meth:`sweep` as JSONL records: one ``sweep`` header; per
        radius a ``coeff`` line (the coefficient-approximated design's
        record, with its ``coeff_hit`` warm flag) and — with cross — a
        ``request`` header plus ``design`` lines, every one tagged with
        its ``e``; one final ``summary``."""
        start = time.perf_counter()
        results = self.sweep(request, e_values, resume=resume,
                             include_cross=include_cross)
        records = [{
            "type": "sweep",
            "dataset": request.dataset, "model": request.model,
            "e_values": [e for e, *_rest in results],
            "tau_grid_points": len(request.tau_grid),
            "include_cross": include_cross,
        }]
        n_designs = n_cached = 0
        for index, (e, record, hit, designs, report) in enumerate(results):
            records.append({
                "type": "coeff", "index": index, "e": e,
                "coeff_hit": hit, **record.to_dict(),
            })
            if designs is None:
                continue
            n_cached += int(report.grid_hit)
            n_designs += len(designs)
            records.append({
                "type": "request", "index": index, "e": e,
                "dataset": request.dataset, "model": request.model,
                "base": "coeff", "n_designs": len(designs),
                **report.to_dict(),
            })
            records.extend(_design_record(design, index=index, e=e)
                           for design in designs)
        records.append({
            "type": "summary",
            "kind": "sweep",
            "n_e_values": len(results),
            "n_grid_hits": n_cached,
            "n_designs": n_designs,
            "runtime_s": time.perf_counter() - start,
            "store": self.store.stats(),
        })
        return records

    def run_sweep(self, request: ExploreRequest, e_values, out,
                  resume: bool = True,
                  include_cross: bool = True) -> dict:
        """Stream :meth:`sweep_records` as JSONL; returns the summary."""
        records = self.sweep_records(request, e_values, resume=resume,
                                     include_cross=include_cross)
        for record in records:
            write_line(out, record)
        return records[-1]

    def run_manifest(self, manifest, out, resume: bool = True) -> dict:
        """Stream a manifest of requests to ``out`` as JSONL.

        ``manifest`` is a dict with a ``requests`` list, or a bare
        list of request dicts.  Returns the summary dict that is also
        written as the last line.
        """
        if isinstance(manifest, dict):
            manifest = manifest.get("requests", [])
        requests = [ExploreRequest.from_dict(d) for d in manifest]

        start = time.perf_counter()
        n_cached = n_designs = 0
        for index, request in enumerate(requests):
            fault_point("service.request", index=index,
                        dataset=request.dataset)
            designs, report = self.explore(request, resume=resume)
            n_cached += int(report.grid_hit)
            n_designs += len(designs)
            for record in request_records(index, request, designs, report):
                write_line(out, record)
        summary = summary_record(len(requests), n_cached, n_designs, start,
                                 self.store.stats())
        write_line(out, summary)
        return summary

    def fleet_worker(self, request: ExploreRequest, worker_id: str,
                     ttl_s: float = DEFAULT_LEASE_TTL_S,
                     poll_s: float = 0.2, max_wait_s: float = 600.0
                     ) -> tuple[list[PrunedDesign], "FleetReport"]:
        """Run one lease-based fleet worker for ``request``'s grid.

        N processes calling this against the same store drain the
        grid's shards concurrently (see
        :func:`~repro.service.leases.run_fleet_worker`); each returns
        the identical finished design list.  A grid the store already
        holds is returned as a warm hit without building the netlist's
        pruner job.
        """
        warm = self._warm_grid(request)
        if warm is not None:
            designs, job_report = warm
            report = FleetReport(worker=worker_id,
                                 grid_key=job_report.grid_key,
                                 grid_hit=True,
                                 runtime_s=job_report.runtime_s)
            return designs, report
        job = self.job(request)
        return run_fleet_worker(job, worker_id, ttl_s=ttl_s,
                                poll_s=poll_s, max_wait_s=max_wait_s)
