"""Spans around calls into the ebs modules, recorded from outside the package.

`Tracer.patch` wraps the public functions of each module (and the process
pool the search uses) by rebinding the module attributes, so calls between
ebs modules are seen too; `restore` undoes it.  Spans stay in memory as
[layer, name, start, end, parent index, operation, info] and `layer_metrics`
turns them into the per-layer figures.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import ProcessPoolExecutor

import ebs
import ebs.cli
import ebs.constants
import ebs.sequences
import ebs.structure

MODULES = (ebs, ebs.constants, ebs.sequences, ebs.structure, ebs.cli)
LAYERS = ("constants", "sequences", "structure", "cli")


def _arg(args, kwargs, pos, name, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _structure_info(r, args, kwargs) -> dict:
    return {"nodes": r.nodes, "flags": list(r.flags),
            "brute": _arg(args, kwargs, 1, "method", "formula") != "formula"}


# (layer, module, function name, what to keep from the result)
FUNCTIONS = (
    ("constants", ebs.constants, "erdos_burgess", None),
    ("constants", ebs.constants, "eb_exact", None),
    ("constants", ebs.constants, "eb_bounds", lambda r, a, k: {"lower": r.lower}),
    ("constants", ebs.constants, "eb_bruteforce",
     lambda r, a, k: {"nodes": r.nodes, "value": r.value}),
    ("constants", ebs.constants, "davenport",
     lambda r, a, k: {"nodes": r.nodes, "method": _arg(a, k, 1, "method", "formula")}),
    ("sequences", ebs.sequences, "is_idempotent_sum_free", None),
    ("sequences", ebs.sequences, "idempotent_witness", None),
    ("sequences", ebs.sequences, "is_minimal_idempotent_sum", None),
    ("sequences", ebs.sequences, "is_idempotent_sum", None),
    ("structure", ebs.structure, "lhat", _structure_info),
    ("structure", ebs.structure, "l_const", _structure_info),
    ("structure", ebs.structure, "classify_free_sequence", None),
    ("structure", ebs.structure, "savchev_chen", None),
    ("cli", ebs.cli, "main", lambda r, a, k: {"exit": r}),
)
PREDICATES = ("is_idempotent_sum_free", "idempotent_witness", "is_minimal_idempotent_sum",
              "is_idempotent_sum")


class Tracer:
    """Records spans for the calls made while patched; not thread-safe (the
    benchmark is one caller)."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.pool_tasks = 0
        self.pickle_bytes = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def call(self, layer, name, fn, args, kwargs, info=None):
        span = [layer, name, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
            if info is not None:
                span[6] = info(result, args, kwargs)
            return result
        except Exception as exc:
            span[6] = {"error": type(exc).__name__, "nodes": getattr(exc, "nodes", 0)}
            if name == "davenport":
                span[6]["method"] = _arg(args, kwargs, 1, "method", "formula")
            raise
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, layer, name, fn, info):
        def wrapper(*args, **kwargs):
            return self.call(layer, name, fn, args, kwargs, info)
        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, name, old, new):
        for mod in MODULES:
            if getattr(mod, name, None) is old:
                self._saved.append((mod, name, old))
                setattr(mod, name, new)

    def patch(self) -> None:
        for layer, mod, name, info in FUNCTIONS:
            old = getattr(mod, name)
            self._rebind(name, old, self._wrap(layer, name, old, info))
        engine = ebs.sequences.ReachEngine
        for name in ("for_spec", "for_group"):
            raw = engine.__dict__[name]
            self._saved.append((engine, name, raw))
            setattr(engine, name, classmethod(self._wrap(
                "sequences", "engine_build", raw.__func__,
                lambda r, a, k: {"entries": len(r.labels) * r.num_states})))
        self._saved.append((ebs.constants, "ProcessPoolExecutor", ProcessPoolExecutor))
        ebs.constants.ProcessPoolExecutor = _traced_pool(self)

    def restore(self) -> None:
        while self._saved:
            obj, name, old = self._saved.pop()
            setattr(obj, name, old)


def _traced_pool(tracer: Tracer):
    """A ProcessPoolExecutor whose start-up (construction plus the first
    submit, which forks the workers) and shutdown are spans, and which
    counts tasks and the pickled size of every engine it ships."""

    class TracedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            self._spawn = [time.perf_counter(), None]
            self._sizes = {}
            super().__init__(*args, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            tracer.pool_tasks += 1
            engine = args[0] if args else None
            if engine is not None:
                size = self._sizes.get(id(engine))
                if size is None:
                    size = self._sizes[id(engine)] = len(pickle.dumps(engine))
                tracer.pickle_bytes += size
            if self._spawn[1] is not None:
                return super().submit(fn, *args, **kwargs)
            start = self._spawn[0]
            try:
                return super().submit(fn, *args, **kwargs)
            finally:
                self._spawn[1] = time.perf_counter()
                stack = tracer._stack
                tracer.spans.append(["constants", "pool.spawn", start, self._spawn[1],
                                     stack[-1] if stack else -1, tracer.op, None])

        def shutdown(self, *args, **kwargs):
            return tracer.call("constants", "pool.shutdown", super().shutdown, args, kwargs)

    return TracedPool


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            out[s[4]] -= s[3] - s[2]
    return out


def _outermost(spans, i, names) -> bool:
    """True when no ancestor of span i has a name in `names`."""
    p = spans[i][4]
    while p >= 0:
        if spans[p][1] in names:
            return False
        p = spans[p][4]
    return True


def _top_constants(spans, i) -> int:
    """The outermost constants-layer ancestor of span i (i itself if none)."""
    top, p = i, spans[i][4]
    while p >= 0:
        if spans[p][0] == "constants":
            top = p
        p = spans[p][4]
    return top


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer figures from one traced pass whose wall time is wall_s."""
    spans = tracer.spans
    selfs = self_times(spans)
    dur = [s[3] - s[2] for s in spans]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[1], []).append(i)

    def total(name, times, outer=None):
        return sum(times[i] for i in by_name.get(name, ())
                   if outer is None or _outermost(spans, i, outer))

    def info_sum(name, key, cond=lambda d: True):
        return sum((spans[i][6] or {}).get(key, 0) for i in by_name.get(name, ())
                   if spans[i][6] and cond(spans[i][6]))

    def rate(nodes, seconds):
        return nodes / seconds if seconds > 0 else 0.0

    m = {}
    # constants: search
    lower_of = {}
    for i in by_name.get("eb_bounds", ()):
        if spans[i][6]:
            lower_of[spans[i][4]] = spans[i][6]["lower"]
    probes = 0
    for i in by_name.get("eb_bruteforce", ()):
        d = spans[i][6] or {}
        if "value" in d and i in lower_of:
            probes += d["value"] - lower_of[i] + 1
    search_nodes = info_sum("eb_bruteforce", "nodes", lambda d: "value" in d)
    search_self = total("eb_bruteforce", selfs)
    m["constants.search.nodes"] = search_nodes
    m["constants.search.self_ms"] = 1000 * search_self
    m["constants.search.nodes_per_s"] = rate(search_nodes, search_self)
    m["constants.search.probes"] = probes
    # constants: Davenport
    dav = by_name.get("davenport", ())
    resolutions: dict[int, int] = {}
    for i in dav:
        parent = spans[i][4]
        if ((spans[i][6] or {}).get("method") == "formula" and parent >= 0
                and spans[parent][0] == "constants" and spans[parent][1] != "davenport"):
            top = _top_constants(spans, i)
            resolutions[top] = resolutions.get(top, 0) + 1
    m["constants.davenport.calls"] = len(dav)
    m["constants.davenport.brute_nodes"] = info_sum("davenport", "nodes",
                                                    lambda d: d.get("method") == "brute")
    m["constants.davenport.ms"] = 1000 * total("davenport", dur, {"davenport"})
    m["constants.davenport.resolutions_per_top_call"] = (
        sum(resolutions.values()) / len(resolutions) if resolutions else 0.0)
    m["constants.eb_exact.calls"] = len(by_name.get("eb_exact", ()))
    m["constants.eb_exact.self_ms"] = 1000 * total("eb_exact", selfs)
    m["constants.eb_bounds.calls"] = len(by_name.get("eb_bounds", ()))
    m["constants.eb_bounds.ms"] = 1000 * total("eb_bounds", dur, {"eb_bounds"})
    # constants: pool
    m["constants.pool.tasks"] = tracer.pool_tasks
    m["constants.pool.spawn_ms"] = 1000 * total("pool.spawn", dur)
    m["constants.pool.shutdown_ms"] = 1000 * total("pool.shutdown", dur)
    m["constants.pool.engine_pickle_bytes"] = tracer.pickle_bytes
    # sequences
    builds = by_name.get("engine_build", ())
    m["sequences.engine_build.calls"] = len(builds)
    m["sequences.engine_build.ms"] = 1000 * total("engine_build", dur)
    m["sequences.engine_build.table_entries"] = info_sum("engine_build", "entries")
    preds = [i for name in PREDICATES for i in by_name.get(name, ())]
    m["sequences.predicate.calls"] = len(preds)
    m["sequences.predicate.ms"] = 1000 * sum(dur[i] for i in preds
                                             if _outermost(spans, i, PREDICATES))
    # structure
    for name, key in (("lhat", "lhat_brute"), ("l_const", "l_brute")):
        brute = [i for i in by_name.get(name, ()) if (spans[i][6] or {}).get("brute")]
        nodes = sum(spans[i][6]["nodes"] for i in brute)
        secs = sum(dur[i] for i in brute)
        m[f"structure.{key}.nodes"] = nodes
        m[f"structure.{key}.ms"] = 1000 * secs
        m[f"structure.{key}.nodes_per_s"] = rate(nodes, secs)
    for name, key in (("classify_free_sequence", "classify"), ("savchev_chen", "savchev_chen")):
        m[f"structure.{key}.calls"] = len(by_name.get(name, ()))
        m[f"structure.{key}.ms"] = 1000 * total(name, dur, {name})
    m["structure.formula_mismatch"] = sum(
        "formula-brute-mismatch" in (spans[i][6] or {}).get("flags", ())
        for name in ("lhat", "l_const") for i in by_name.get(name, ()))
    # self time per layer; what no top-level span covers is the benchmark's own
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = 1000 * sum(t for s, t in zip(spans, selfs) if s[0] == layer)
    covered = sum(d for s, d in zip(spans, dur) if s[4] < 0)
    m["trace.wall_s"] = wall_s
    m["trace.uncovered_ms"] = 1000 * (wall_s - covered)
    m["trace.spans"] = len(spans)
    return m
