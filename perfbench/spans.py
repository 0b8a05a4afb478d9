"""Benchmark-side spans and the per-layer reduction of a span trace.

:func:`install` wraps the public calls the program's own spans miss —
``MappingService.map_request``, the admission token wait, the worker
pool's queue wait versus run, the vector engine's batch entry points
and engine phases, ``MappedWorkloadTraffic`` construction, and the SSS
solve as a whole, and the steps of a full answer (cache-key hashing,
the stale-serving index update, the translation into the requester's
labels, the hit-ratio gauge, the degradation ladder's decision and the
admission token's release) — with :func:`repro.obs.reqtrace.span`.  The wrappers
are no-ops unless a trace is active, and only the traced run installs
them.

:func:`layer_report` turns the span events of a trace (the daemon's
``--trace-out`` JSONL, or an in-process tracer) into per-layer self
times, waits and counts.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np


def install() -> None:
    """Patch the span wrappers into the imported program (idempotent)."""
    from repro.core import registry, sss
    from repro.noc import traffic, vector_engine
    from repro.obs import reqtrace
    from repro.service import admission, app, batcher, canonical, degrade, workers

    if getattr(app.MappingService, "_perfbench_spans", False):
        return
    app.MappingService._perfbench_spans = True
    span = reqtrace.span

    def wrap(fn, name):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        return inner

    # A span's end bookkeeping runs while its parent is open; recording
    # its cost lets the report charge it to tracing, not to the parent.
    tracer_end = reqtrace.SpanTracer._end

    def timed_end(self, live, wall_seconds):
        t0 = time.perf_counter()
        tracer_end(self, live, wall_seconds)
        # The emitted event holds this same attrs dict.
        live.attrs["end_us"] = (time.perf_counter() - t0) * 1e6

    reqtrace.SpanTracer._end = timed_end

    # The problem fingerprint is computed lazily, on first use after the
    # canonicalize span has closed.
    fingerprint = canonical.CanonicalProblem.fingerprint.func

    def traced_fingerprint(self):
        with span("canonical.fingerprint"):
            return fingerprint(self)

    prop = functools.cached_property(traced_fingerprint)
    prop.__set_name__(canonical.CanonicalProblem, "fingerprint")
    canonical.CanonicalProblem.fingerprint = prop

    map_request = app.MappingService.map_request

    async def traced_map_request(self, payload):
        with span("map_request"):
            return await map_request(self, payload)

    app.MappingService.map_request = traced_map_request

    # The steps of the full-fidelity answer outside the program's own
    # spans: cache-key hashing, the stale-serving index update and the
    # translation of the cached entry into the requester's labels.
    app.config_fingerprint = wrap(app.config_fingerprint, "cache.key")
    degrade.NearestIndex.put = wrap(degrade.NearestIndex.put, "nearest.put")
    for method in ("perm_from_canonical", "by_app_from_canonical"):
        fn = getattr(canonical.CanonicalRequest, method)
        setattr(canonical.CanonicalRequest, method, wrap(fn, "canonical.translate"))
    # The hit-ratio gauge after each lookup, and the degradation ladder's
    # choice of level and its count.
    app.MappingService._update_hit_ratio = wrap(
        app.MappingService._update_hit_ratio, "cache.stats"
    )
    for method in ("level_for", "record"):
        fn = getattr(degrade.DegradeController, method)
        setattr(degrade.DegradeController, method, wrap(fn, "degrade.decide"))

    admit = admission.AdmissionController.admit

    class _TimedAdmit:
        def __init__(self, cm):
            self.cm = cm

        async def __aenter__(self):
            with span("admission.wait"):
                return await self.cm.__aenter__()

        async def __aexit__(self, *exc):
            with span("admission.release"):
                return await self.cm.__aexit__(*exc)

    def traced_admit(self):
        return _TimedAdmit(admit(self))

    admission.AdmissionController.admit = traced_admit

    pool_run = workers.WorkerPool.run

    async def traced_pool_run(self, fn, *args, breaker=None):
        with span("pool.run"):
            # pool.exec starts on the worker thread: its start minus
            # pool.run's start is the queue wait (semaphore + spawn).
            def execute(*a):
                with span("pool.exec"):
                    return fn(*a)

            return await pool_run(self, execute, *args, breaker=breaker)

    workers.WorkerPool.run = traced_pool_run

    traced_run_batch = wrap(vector_engine.run_batch, "vector.run_batch")
    vector_engine.run_batch = traced_run_batch
    batcher.run_batch = traced_run_batch
    vector_engine.simulate_batch = wrap(vector_engine.simulate_batch, "vector.simulate_batch")

    engine_init = vector_engine.VectorEngine.__init__
    engine_run = vector_engine.VectorEngine.run

    def traced_engine_init(self, *args, **kwargs):
        with span("vector.build"):
            engine_init(self, *args, **kwargs)

    def traced_engine_run(self, *args, **kwargs):
        with span("vector.run") as s:
            start = self.now
            results = engine_run(self, *args, **kwargs)
            s.set(batch=self.B, cycles=int(self.now - start))
            return results

    vector_engine.VectorEngine.__init__ = traced_engine_init
    vector_engine.VectorEngine.run = traced_engine_run
    traffic.MappedWorkloadTraffic.__init__ = wrap(
        traffic.MappedWorkloadTraffic.__init__, "traffic.build"
    )
    traced_sss = wrap(sss.sort_select_swap, "sss")
    sss.sort_select_swap = traced_sss
    registry.ALGORITHMS["sss"] = traced_sss


def read_trace(path: str) -> list[dict]:
    """Span events of a JSONL trace file."""
    events = []
    with open(path) as fh:
        for line in fh:
            doc = json.loads(line)
            if doc.get("ev") == "span":
                events.append(doc)
    return events


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


#: Spans that only wrap other stages; their self time is unattributed.
GLUE = ("serve.request", "map_request", "sim.batch", "vector.simulate_batch", "vector.run_batch")
#: Share of server time the stage spans must account for.
COVERAGE_TARGET = 0.9


def layer_report(events, trace_ids=None) -> dict:
    """Per-layer figures (milliseconds) from span events in microseconds.

    ``trace_ids`` limits the report to the timed requests.  Self time is
    a span's duration minus the union of its children's intervals and
    minus the tracer's own cost of closing those children (``obs.tracer``).
    Coverage is the share of the root spans' time, less that tracer
    cost, spent in the self time of stage spans, i.e. outside ``GLUE``.
    """
    by_trace = defaultdict(list)
    for ev in events:
        if trace_ids is None or ev["trace_id"] in trace_ids:
            by_trace[ev["trace_id"]].append(ev)
    durs = defaultdict(list)
    selfs = defaultdict(float)
    root_total = 0.0
    queue_waits, batch_waits = [], []
    enqueue_t0 = {}
    run_batches = []
    engine_runs = []
    for tid, spans in by_trace.items():
        children = defaultdict(list)
        by_id = {}
        for s in spans:
            by_id[s["span_id"]] = s
            children[s["parent_span"]].append(s)
        for s in spans:
            kids = children.get(s["span_id"], [])
            lo, hi = s["t0"], s["t0"] + s["dur"]
            cover = _covered(
                (max(lo, k["t0"]), min(hi, k["t0"] + k["dur"])) for k in kids
                if k["t0"] < hi and k["t0"] + k["dur"] > lo
            )
            ended = min(s["dur"] - cover, sum(k["attrs"].get("end_us", 0.0) for k in kids))
            selfs[s["name"]] += s["dur"] - cover - ended
            selfs["obs.tracer"] += ended
            durs[s["name"]].append(s["dur"])
            if s["parent_span"] == -1:
                root_total += s["dur"]
            if s["name"] == "pool.exec":
                parent = by_id.get(s["parent_span"])
                if parent is not None and parent["name"] == "pool.run":
                    queue_waits.append(s["t0"] - parent["t0"])
            elif s["name"] == "batch.enqueue":
                enqueue_t0[tid] = s["t0"]
            elif s["name"] == "engine.run_batch":
                run_batches.append(s)
            elif s["name"] == "vector.run":
                engine_runs.append(s)
    for rb in run_batches:
        for tid in rb["attrs"].get("coalesced", []):
            if tid in enqueue_t0:
                batch_waits.append(rb["t0"] - enqueue_t0[tid])

    def mean_ms(name, per=None):
        total = sum(durs.get(name, []))
        n = per if per is not None else len(durs.get(name, []))
        return total / n / 1e3 if n else 0.0

    solves = len(durs.get("worker.solve", [])) or len(durs.get("sss", []))
    glue = sum(selfs.get(name, 0.0) for name in GLUE)
    program_total = root_total - selfs["obs.tracer"]
    sim_cycles = sum(r["attrs"]["batch"] * r["attrs"]["cycles"] for r in engine_runs)
    run_us = sum(r["dur"] for r in engine_runs)
    return {
        "requests": len(by_trace),
        "app.server_ms": mean_ms("map_request"),
        "canonical.ms": sum(
            mean_ms(name, len(by_trace))
            for name in ("canonicalize", "canonical.fingerprint", "canonical.translate")
        ),
        "cache.key_ms": mean_ms("cache.key", len(by_trace)),
        "nearest.put_ms": mean_ms("nearest.put", len(by_trace)),
        "admission.wait_ms": mean_ms("admission.wait"),
        "workers.queue_ms": float(np.percentile(queue_waits, 99)) / 1e3 if queue_waits else 0.0,
        "workers.busy_ms": mean_ms("pool.exec"),
        "batcher.wait_ms": float(np.mean(batch_waits)) / 1e3 if batch_waits else 0.0,
        "sss.ms": mean_ms("sss", solves),
        "sss.sort_ms": mean_ms("sss.sort", solves),
        "sss.select_ms": mean_ms("sss.select", solves),
        "sss.swap_ms": mean_ms("sss.swap", solves),
        "sss.polish_ms": mean_ms("sss.polish", solves),
        "bounds.ms": mean_ms("worker.bounds", solves),
        "hungarian.calls_per_solve": len(durs.get("hungarian", [])) / solves if solves else 0.0,
        "hungarian.ms_per_solve": mean_ms("hungarian", solves),
        "traffic.build_ms": mean_ms("traffic.build"),
        "vector.build_ms": mean_ms("vector.build"),
        "vector.step_us_per_sim_cycle": run_us / sim_cycles if sim_cycles else 0.0,
        "vector.batch_size": float(np.mean([r["attrs"]["batch"] for r in engine_runs])) if engine_runs else 0.0,
        "vector.sim_cycles_per_s": sim_cycles / (run_us / 1e6) if run_us else 0.0,
        "obs.trace_coverage": 1.0 - glue / program_total if program_total else 0.0,
        "tracer_share": selfs["obs.tracer"] / root_total if root_total else 0.0,
        "self_ms": {name: v / 1e3 / max(1, len(by_trace)) for name, v in sorted(selfs.items())},
    }

