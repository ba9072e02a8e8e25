"""In-memory span tracer for the benchmark's traced runs.

The tracer lives outside the program.  :func:`install` wraps the public
functions of each layer listed in :data:`LAYERS` -- at the module that
defines them *and* at every ``repro`` module that imported the name --
so a call through ``runner.build_bespoke_netlist`` is timed the same as
one through ``hw.bespoke.build_bespoke_netlist``.  Every call appends
one span ``(id, layer, start, end, parent, thread, request_id, extra)``
to a list kept in memory; :func:`dump` writes it out once, when the
process ends.  Parents come from a per-thread stack, so a span's
children always ran on its thread, inside its interval.

:func:`aggregate` turns spans into per-layer calls, self and total
times, the layer tree, and the per-layer extras.  It imports nothing
from the program, so the load generator uses it too.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

# layer -> public callables timed, as (module, "name" or "Class.method").
LAYERS: dict[str, list[tuple[str, str]]] = {
    "datasets.load": [("repro.datasets.registry", "load_dataset")],
    "ml.fit": [("repro.ml", "MLPClassifier.fit"),
               ("repro.ml", "MLPRegressor.fit"),
               ("repro.ml", "LinearSVMClassifier.fit"),
               ("repro.ml", "LinearSVMRegressor.fit")],
    "quant.quantize": [("repro.quant.qmodel", "quantize_model")],
    "hw.bespoke.build": [("repro.hw.bespoke", "build_bespoke_netlist")],
    "core.coeff_approx": [
        ("repro.core.coeff_approx",
         "CoefficientApproximator.approximate_model")],
    "hw.synthesis.fold": [("repro.hw.synthesis", "synthesize_arrays")],
    "core.pruning.walk": [("repro.core.pruning", "NetlistPruner.chain_rows")],
    "hw.incremental.tie": [("repro.hw.incremental",
                            "IncrementalCircuit.tie")],
    "eval.accuracy.evaluate": [
        ("repro.eval.accuracy", "CircuitEvaluator.evaluate"),
        ("repro.eval.accuracy", "CircuitEvaluator.evaluate_batch"),
        ("repro.eval.accuracy", "CircuitEvaluator.evaluate_many"),
        ("repro.eval.accuracy", "CircuitEvaluator.train_activity")],
    "service.jobs.run": [("repro.service.jobs", "ExplorationJob.run")],
    "service.store.read": [
        ("repro.service.store", f"DesignStore.{name}")
        for name in ("get_variant", "get_grid", "get_shard", "get_coeff",
                     "get_coeff_netlist", "get_coeff_netlist_fingerprint",
                     "variants_for_base")],
    "service.store.write": [
        ("repro.service.store", f"DesignStore.{name}")
        for name in ("put_variant", "put_variants", "put_grid", "put_shard",
                     "put_coeff", "put_coeff_netlist", "clear_shards")],
    "service.store.fingerprint": [
        ("repro.service.store", name)
        for name in ("base_fingerprint", "evaluator_fingerprint",
                     "netlist_fingerprint", "model_fingerprint",
                     "grid_key")],
    "service.runner.explore": [
        ("repro.service.runner", "ExplorationService.explore"),
        ("repro.service.runner", "ExplorationService.run_manifest")],
    "service.jsonl.render": [("repro.service.jsonl", "write_line")],
}

# Pseudo-layers: the shim's timed ``import repro.cli`` and the part of
# each measured operation that no span covers.
IMPORT = "import"
UNATTRIBUTED = "service.server.unattributed"
LAYER_NAMES = [IMPORT, *LAYERS, UNATTRIBUTED]

SPANS: list[tuple] = []
_ids = itertools.count(1)
_local = threading.local()


def _variants(name, args, kwargs, result):
    if name == "evaluate":
        return 1
    if name in ("evaluate_batch", "evaluate_many"):
        return len(args[1] if len(args) > 1 else next(iter(kwargs.values())))
    return 0


def _job_run(name, args, kwargs, result):
    report = kwargs.get("report", args[3] if len(args) > 3 else None)
    unique = sum(1 for design in result if design.duplicate_of is None)
    return [report.shards_computed if report is not None else 0,
            unique, len(result)]


def _store_read(name, args, kwargs, result):
    return int(result is not None and result != {})


def _runner(name, args, kwargs, result):
    return int(result[1].grid_hit) if name == "explore" else None


# layer -> extra(name, args, kwargs, result), stored on the span.
_EXTRAS = {
    "eval.accuracy.evaluate": _variants,
    "service.jobs.run": _job_run,
    "service.store.read": _store_read,
    "service.runner.explore": _runner,
}


def record(layer: str, start: float, end: float) -> None:
    """Append a span timed by the caller (the shim's import span)."""
    SPANS.append((next(_ids), layer, start, end, -1,
                  threading.get_ident(), None, None))


def _wrap(layer: str, fn, request_id):
    name = fn.__name__
    extra_of = _EXTRAS.get(layer)
    clock = time.perf_counter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        parent = stack[-1] if stack else -1
        sid = next(_ids)
        stack.append(sid)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            SPANS.append((sid, layer, start, clock(), parent,
                          threading.get_ident(), request_id(), None))
            raise
        finally:
            stack.pop()
        end = clock()
        extra = None if extra_of is None \
            else extra_of(name, args, kwargs, result)
        SPANS.append((sid, layer, start, end, parent,
                      threading.get_ident(), request_id(), extra))
        return result

    traced.__wrapped_layer__ = layer
    return traced


def install() -> None:
    """Wrap every layer's callables in this process.

    Call after ``import repro.cli`` (which imports every layer module).
    """
    from repro.service.telemetry import current_request_id

    modules = [module for name, module in list(sys.modules.items())
               if name == "repro" or name.startswith("repro.")]
    for layer, targets in LAYERS.items():
        for module_name, attr in targets:
            owner = sys.modules[module_name]
            if "." in attr:
                class_name, method = attr.split(".")
                cls = getattr(owner, class_name)
                owner = next(klass for klass in cls.__mro__
                             if method in vars(klass))
                original = vars(owner)[method]
                if hasattr(original, "__wrapped_layer__"):
                    continue  # inherited: already wrapped on the base
                setattr(owner, method,
                        _wrap(layer, original, current_request_id))
                continue
            original = getattr(owner, attr)
            traced = _wrap(layer, original, current_request_id)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, traced)


def dump(path: str) -> None:
    """Write every span recorded in this process to ``path`` (JSON)."""
    with open(path, "w", encoding="utf-8") as out:
        json.dump({"spans": SPANS}, out)


def load(path) -> list[tuple]:
    with open(path, encoding="utf-8") as src:
        return [tuple(span) for span in json.load(src)["spans"]]


def aggregate(span_sets: list[tuple[list, float | None]]) -> dict:
    """Per-layer totals of the span trees of the measured window.

    ``span_sets`` holds one ``(spans, since)`` pair per process (span
    ids are only unique within a process); only trees whose root span
    started at or after ``since`` count (``None``: all).  Returns
    ``{"layers": {layer: {calls, self_s, total_s}}, "tree": {path:
    {calls, self_s, total_s}}, "roots_s": float, "extras": {...}}``;
    ``roots_s``, the summed duration of the top-level spans kept,
    equals their summed self time.
    """
    layers = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
              for name in LAYER_NAMES}
    tree: dict[str, dict] = {}
    extras = dict.fromkeys(("variants", "shards_computed", "unique",
                            "designs", "reads", "read_hits", "explores",
                            "grid_hits"), 0)
    roots_s = 0.0

    def visit(span, children: dict, path: tuple, outer: frozenset) -> None:
        layer = span[1]
        duration = span[3] - span[2]
        kids = children.get(span[0], [])
        self_s = duration - sum(kid[3] - kid[2] for kid in kids)
        path = (*path, layer)
        for row in (layers[layer],
                    tree.setdefault(" > ".join(path), {
                        "calls": 0, "self_s": 0.0, "total_s": 0.0})):
            row["calls"] += 1
            row["self_s"] += self_s
        tree[" > ".join(path)]["total_s"] += duration
        if layer not in outer:  # recursion into a layer counts once
            layers[layer]["total_s"] += duration
        extra = span[7]
        if layer == "eval.accuracy.evaluate" and layer not in outer:
            extras["variants"] += extra or 0
        elif layer == "service.jobs.run" and extra:
            extras["shards_computed"] += extra[0]
            extras["unique"] += extra[1]
            extras["designs"] += extra[2]
        elif layer == "service.store.read":
            extras["reads"] += 1
            extras["read_hits"] += extra or 0
        elif layer == "service.runner.explore" and extra is not None:
            extras["explores"] += 1
            extras["grid_hits"] += extra
        for kid in kids:
            visit(kid, children, path, outer | {layer})

    for spans, since in span_sets:
        children: dict[int, list] = {}
        for span in spans:
            children.setdefault(span[4], []).append(span)
        for root in children.get(-1, []):
            if since is None or root[2] >= since:
                roots_s += root[3] - root[2]
                visit(root, children, (), frozenset())
    return {"layers": layers, "tree": tree, "roots_s": roots_s,
            "extras": extras}
