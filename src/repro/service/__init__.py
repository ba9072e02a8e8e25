"""Exploration service layer: persistent, resumable, multi-request DSE.

PRs 1–2 made a *single* exploration fast (compiled + batched engines);
this package makes the *system* around it scale to many models, grids,
and repeated requests without recomputing anything twice:

* :mod:`repro.service.store` — content-addressed SQLite store of every
  evaluated variant record and every finished grid, self-healing on
  corruption (quarantine + rebuild) with bounded busy/locked retry;
* :mod:`repro.service.jobs` — sharded, checkpointed exploration jobs
  that resume exactly where a killed run stopped, with job-level shard
  retry and supervision telemetry;
* :mod:`repro.service.leases` — lease-based shard claiming: N worker
  processes drain one grid concurrently against one shared store, with
  stale-lease reclamation for dead workers and monotonic fencing
  tokens so a reclaimed (zombie) holder can never land a stale write;
* :mod:`repro.service.coordinator` — the multi-host half of the fleet:
  one RPC table from which both the store-shaped HTTP client and the
  server's coordinator plane are generated, so the same worker loop
  runs against a ``repro serve`` coordinator over the network, with
  keep-alive, deadline-bounded retry, and heartbeat lease renewal;
* :mod:`repro.service.retry` — the one retry/backoff policy (exponential
  with decorrelated jitter, deadline-bounded) shared by the store's
  busy/locked loop and the coordinator client;
* :mod:`repro.service.faults` — deterministic fault injection
  (``REPRO_FAULTS``) at named sites across the whole stack, the
  machinery behind ``benchmarks/bench_faults.py``'s crash-consistency
  chaos bench;
* :mod:`repro.service.jsonl` — line-atomic JSONL writes and the strict
  crash-tolerant reader;
* :mod:`repro.service.telemetry` — the unified observability layer:
  a dependency-free metrics registry (counters / gauges / histograms,
  rendered as Prometheus text by ``GET /v1/metrics``), span tracing
  linking server request → job → shard → engine walk under one trace
  id, and a structured JSONL event log (``--events-log``) — all
  provably inert: served bytes and store contents are identical with
  telemetry on, off, or sampled;
* :mod:`repro.service.runner` — the batch facade behind the
  ``repro-printed-ml explore`` / ``sweep-e`` / ``serve-batch`` CLI:
  manifests of (dataset, model, grid) requests, coefficient e-sweeps,
  store deduplication, JSONL results, fleet workers.

See the "Service layer" and "Fault model & recovery" sections of
``docs/ARCHITECTURE.md`` for the store schema, the hash contract, the
shard/checkpoint lifecycle, and the lease/supervision machinery.
"""

from .coordinator import (CoordinatorClient, CoordinatorError,
                          RemoteLeaseManager, RemoteStore)
from .faults import FaultError, FaultInjector, NetworkFault, fault_point
from .jobs import ExplorationJob, JobReport
from .jsonl import JSONLError, read_jsonl, write_line
from .leases import FleetReport, LeaseManager, run_fleet_worker
from .retry import RetryError, RetryPolicy, retry_call
from .runner import ExplorationService, ExploreRequest
from .server import ExploreServer, ServeConfig, serve
from .store import DesignStore, FencedWriteError
from .telemetry import (MetricsRegistry, Telemetry, configure, counter,
                        gauge, get_hub, observe, span)

__all__ = [
    "CoordinatorClient",
    "CoordinatorError",
    "DesignStore",
    "FencedWriteError",
    "NetworkFault",
    "RemoteLeaseManager",
    "RemoteStore",
    "RetryError",
    "RetryPolicy",
    "retry_call",
    "ExplorationJob",
    "JobReport",
    "ExplorationService",
    "ExploreRequest",
    "ExploreServer",
    "ServeConfig",
    "serve",
    "FaultError",
    "FaultInjector",
    "fault_point",
    "FleetReport",
    "LeaseManager",
    "run_fleet_worker",
    "JSONLError",
    "read_jsonl",
    "write_line",
    "MetricsRegistry",
    "Telemetry",
    "configure",
    "counter",
    "gauge",
    "get_hub",
    "observe",
    "span",
]
