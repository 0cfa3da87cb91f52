"""Per-layer tracing from outside the program.

:class:`Recorder` wraps public functions of each ``repro`` layer with a
timer, so a traced run can say where its time went without any change to
the program.  Every wrapped call is one span (name, start, end, parent);
spans of coarse calls are kept in memory and written at the end as a
Chrome trace that Perfetto loads, while hot calls (one per queued job per
scheduler pass) only add to per-name totals, which keeps memory bounded.
Self time is a call's duration minus the time its wrapped children took.
"""

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

#: Per-layer metric names and units, as listed in ``BENCHMARK.json``.
PER_LAYER_UNITS = {
    "setup.import_s": "s",
    "workload.calibrate_s": "s",
    "workload.calibrate_calls": "count",
    "workload.generate_s": "s",
    "workload.jobs_generated": "count",
    "cluster.build_s": "s",
    "cluster.start_s": "s",
    "cluster.incidents": "count",
    "scheduler.sort_s": "s",
    "scheduler.sort_calls": "count",
    "scheduler.priority_evals": "count",
    "scheduler.place_s": "s",
    "scheduler.place_calls": "count",
    "scheduler.place_success_ratio": "ratio",
    "scheduler.preempt_plan_s": "s",
    "scheduler.preempt_plan_calls": "count",
    "scheduler.preempt_plan_success_ratio": "ratio",
    "scheduler.quota_checks": "count",
    "scheduler.share": "ratio",
    "sim.run_s": "s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.self_s": "s",
    "campaign.trace_build_s": "s",
    "core.columns_s": "s",
    "analysis.job_status_s": "s",
    "analysis.failure_rates_s": "s",
    "analysis.rolling_failures_s": "s",
    "analysis.job_sizes_s": "s",
    "analysis.mttf_s": "s",
    "analysis.goodput_s": "s",
    "analysis.ettr_s": "s",
    "analysis.lemon_s": "s",
    "analysis.headline_s": "s",
    "analysis.checkpoint_sweep_s": "s",
    "analysis.total_s": "s",
    "runtime.digest_s": "s",
    "runtime.digest_calls": "count",
    "runtime.cache_put_s": "s",
    "runtime.cache_bytes_written": "B",
    "runtime.cache_misses": "count",
    "runtime.pool_overhead_s": "s",
    "runtime.cache_get_s": "s",
    "runtime.cache_hits": "count",
    "backends.wave_s": "s",
    "backends.waves": "count",
    "obs.emit_s": "s",
    "obs.emit_calls": "count",
    "obs.span_s": "s",
    "obs.spans": "count",
    "obs.metric_lookups": "count",
    "obs.bytes_written": "B",
    "obs.post_s": "s",
    "live.trace_load_s": "s",
    "live.replay_s": "s",
    "live.items": "count",
    "serve.health_ms": "ms",
    "serve.ettr_ms": "ms",
    "serve.mttf_ms": "ms",
    "serve.lemons_ms": "ms",
    "serve.metrics_ms": "ms",
    "serve.snapshot_ms": "ms",
    "serve.whatif_hit_ms": "ms",
    "serve.whatif_miss_ms": "ms",
    "serve.parse_s": "s",
    "serve.handler_s": "s",
    "serve.encode_s": "s",
    "serve.encode_bytes": "B",
    "serve.whatif_cache_hits": "count",
}

#: analysis figure function -> span name (also the metric stem).
ANALYSIS_FIGURES = {
    "job_status_breakdown": "analysis.job_status",
    "attributed_failure_rates": "analysis.failure_rates",
    "failure_rate_timeline": "analysis.rolling_failures",
    "job_size_distribution": "analysis.job_sizes",
    "mttf_analysis": "analysis.mttf",
    "goodput_loss_analysis": "analysis.goodput",
    "ettr_comparison": "analysis.ettr",
    "lemon_analysis": "analysis.lemon",
    "headline_numbers": "analysis.headline",
    "checkpoint_sweep": "analysis.checkpoint_sweep",
}

#: Spans this many or more are only totalled, not kept one by one.
SPAN_CAP = 100_000


class Recorder:
    """Collects spans and per-name totals from wrapped calls."""

    def __init__(self):
        self.active = True
        self.spans = []  # (span_id, name, start, end, parent_id)
        self.dropped = 0
        #: name -> [calls, total seconds, self seconds]
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])
        #: free-form counts (priority evaluations, successes, bytes, ...)
        self.counts = defaultdict(float)
        self._stack = []  # [span_id, seconds spent in wrapped children]
        self._next_id = 0
        self.origin = perf_counter()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _close(self, name, span_id, parent_id, start, end, child_s, keep):
        duration = end - start
        agg = self.totals[name]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child_s
        if keep:
            if len(self.spans) < SPAN_CAP:
                self.spans.append((span_id, name, start, end, parent_id))
            else:
                self.dropped += 1

    def span(self, name):
        """Context manager for a span the benchmark itself opens."""
        return _Span(self, name)

    def wrap_call(self, fn, name, keep=True, after=None):
        """A timed stand-in for the plain (synchronous) function ``fn``.

        ``after(result, args, kwargs)`` runs outside the timed interval,
        for counts that depend on a call's inputs or result.  The span
        bookkeeping is written out inline rather than through ``_Span``
        because this runs once per placement probe and quota check (over
        400k calls in one rsc1_campaign round).
        """
        recorder = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            stack = recorder._stack
            parent_id = stack[-1][0] if stack else None
            span_id = recorder._next_id
            recorder._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                recorder._close(name, span_id, parent_id, start, end, frame[1], keep)
            if after is not None:
                after(result, args, kwargs)
            return result

        return timed

    def wrap_async(self, fn, name, after=None):
        """A timed stand-in for a coroutine function.

        Coroutines interleave on one loop, so their spans are kept flat
        (no parent) and do not take part in self-time accounting.
        """
        recorder = self

        @functools.wraps(fn)
        async def timed(*args, **kwargs):
            if not recorder.active:
                return await fn(*args, **kwargs)
            span_id = recorder._next_id
            recorder._next_id += 1
            start = perf_counter()
            try:
                result = await fn(*args, **kwargs)
            finally:
                end = perf_counter()
                recorder._close(name, span_id, None, start, end, 0.0, True)
            if after is not None:
                after(result, args, kwargs)
            return result

        return timed

    def wrap_method(self, cls, attr, name, keep=True, after=None):
        """Replace ``cls.attr`` (plain, class- or static method) in place."""
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap_call(raw.__func__, name, keep, after)))
        elif isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(self.wrap_call(raw.__func__, name, keep, after)))
        elif inspect.iscoroutinefunction(raw):
            setattr(cls, attr, self.wrap_async(raw, name, after))
        else:
            setattr(cls, attr, self.wrap_call(raw, name, keep, after))

    def wrap_function(self, module, attr, name, keep=True, after=None):
        """Replace a module-level function everywhere it was imported.

        ``from x import f`` copies the reference, so every loaded
        ``repro`` module holding the same object is patched too.
        """
        original = getattr(module, attr)
        if inspect.iscoroutinefunction(original):
            timed = self.wrap_async(original, name, after)
        else:
            timed = self.wrap_call(original, name, keep, after)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, timed)
        return timed

    def count(self, name, amount=1):
        if self.active:
            self.counts[name] += amount

    # ------------------------------------------------------------------
    # reading back
    # ------------------------------------------------------------------
    def total_s(self, name):
        return self.totals[name][1] if name in self.totals else 0.0

    def self_s(self, name):
        return self.totals[name][2] if name in self.totals else 0.0

    def calls(self, name):
        return self.totals[name][0] if name in self.totals else 0

    def chrome_trace(self, path, pid=1, label="perfbench"):
        """Write kept spans as Chrome trace-event JSON (Perfetto loads it)."""
        names = {span_id: name for span_id, name, _, _, _ in self.spans}
        events = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        ]
        for span_id, name, start, end, parent_id in self.spans:
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": round((start - self.origin) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": pid,
                    # Coroutine spans interleave; they get their own track.
                    "tid": 1 if name.startswith("serve.") else 0,
                    "args": {"id": span_id, "parent": names.get(parent_id)},
                }
            )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        return len(events) - 1

    def summary(self):
        """Per-name call totals, for the traced run's own report."""
        return {
            name: {"calls": agg[0], "total_s": agg[1], "self_s": agg[2]}
            for name, agg in sorted(self.totals.items())
        }


class _Span:
    """A span the benchmark opens; its time is charged to its parent."""

    __slots__ = ("recorder", "name", "parent_id", "span_id", "frame", "start")

    def __init__(self, recorder, name):
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        rec = self.recorder
        self.parent_id = rec._stack[-1][0] if rec._stack else None
        self.span_id = rec._next_id
        rec._next_id += 1
        self.frame = [self.span_id, 0.0]
        rec._stack.append(self.frame)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        rec = self.recorder
        rec._stack.pop()
        if rec._stack:
            rec._stack[-1][1] += end - self.start
        rec._close(
            self.name, self.span_id, self.parent_id, self.start, end,
            self.frame[1], True,
        )
        return False


class _TimedContext:
    """Times only a context manager's enter and exit, not its body."""

    __slots__ = ("inner", "recorder", "name")

    def __init__(self, inner, recorder, name):
        self.inner = inner
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        start = perf_counter()
        try:
            return self.inner.__enter__()
        finally:
            self.recorder.counts[self.name] += perf_counter() - start

    def __exit__(self, *exc):
        start = perf_counter()
        try:
            return self.inner.__exit__(*exc)
        finally:
            self.recorder.counts[self.name] += perf_counter() - start


# ---------------------------------------------------------------------------
# What each workload wraps
# ---------------------------------------------------------------------------
def install_simulation(rec):
    """workload / cluster / scheduler / sim / campaign / core layers."""
    from repro.campaign import Campaign
    from repro.cluster.cluster import Cluster
    from repro.core.columns import ColumnarTrace
    from repro.scheduler import placement, priority
    from repro.scheduler.engine import SlurmLikeScheduler
    from repro.scheduler.preemption import PreemptionPolicy
    from repro.scheduler.quota import QuotaManager
    from repro.sim.engine import Engine
    from repro.workload.generator import WorkloadGenerator

    rec.wrap_method(WorkloadGenerator, "_calibrated_rate_per_day", "workload.calibrate")
    rec.wrap_method(
        WorkloadGenerator, "generate", "workload.generate",
        after=lambda result, a, k: rec.count("jobs_generated", len(result)),
    )
    rec.wrap_method(Cluster, "__init__", "cluster.build")
    rec.wrap_method(Cluster, "start", "cluster.start")
    rec.wrap_method(
        Cluster, "_handle_incident", "cluster.incident", keep=False,
    )
    for cls in _classes_defining(priority, "sort_pending"):
        rec.wrap_method(
            cls, "sort_pending", "scheduler.sort", keep=False,
            after=lambda result, a, k: rec.count("priority_evals", len(a[1])),
        )
    for cls in _classes_defining(placement, "place"):
        rec.wrap_method(
            cls, "place", "scheduler.place", keep=False,
            after=lambda result, a, k: rec.count("place_ok", result is not None),
        )
    rec.wrap_method(
        PreemptionPolicy, "plan", "scheduler.preempt_plan", keep=False,
        after=lambda result, a, k: rec.count("plan_ok", result is not None),
    )
    rec.wrap_method(QuotaManager, "may_start", "scheduler.quota", keep=False)
    rec.wrap_method(SlurmLikeScheduler, "_schedule_pass", "scheduler.pass")

    # Each campaign's engine runs once from time 0, so its executed-event
    # counter after the call is that call's event count.
    rec.wrap_method(
        Engine, "run_until", "sim.run",
        after=lambda result, a, k: rec.count("events", a[0].executed_events),
    )
    rec.wrap_method(Campaign, "_build_trace", "campaign.trace_build")
    rec.wrap_method(Campaign, "run", "campaign.run")
    rec.wrap_method(ColumnarTrace, "from_trace", "core.columns")


def install_analysis(rec):
    import repro.analysis as analysis

    for fn_name, span in ANALYSIS_FIGURES.items():
        rec.wrap_function(analysis, fn_name, span)


def install_runtime(rec):
    import os

    from repro.backends.inline import InlineBackend
    from repro.runtime import hashing
    from repro.runtime.cache import TraceCache
    from repro.runtime.pool import CampaignPool

    rec.wrap_function(hashing, "trace_digest", "runtime.digest")

    def count_get(result, args, kwargs):
        rec.count("cache_hits" if result is not None else "cache_misses")

    def count_put(result, args, kwargs):
        if result is not None:
            rec.count("cache_bytes_written", os.path.getsize(result))

    rec.wrap_method(TraceCache, "get_by_digest", "runtime.cache_get", after=count_get)
    rec.wrap_method(TraceCache, "put_by_digest", "runtime.cache_put", after=count_put)
    rec.wrap_method(CampaignPool, "run", "runtime.pool")
    rec.wrap_method(InlineBackend, "poll", "backends.wave")


def install_obs(rec):
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.spans import SpanTracer
    from repro.obs.tracer import Tracer

    rec.wrap_method(Tracer, "emit", "obs.emit", keep=False)
    for attr in ("counter", "gauge", "histogram", "timer"):
        original = getattr(MetricsRegistry, attr)

        def lookup(self, *args, _original=original, **kwargs):
            rec.count("metric_lookups")
            return _original(self, *args, **kwargs)

        setattr(MetricsRegistry, attr, functools.wraps(original)(lookup))
    span_original = SpanTracer.span

    @functools.wraps(span_original)
    def span(self, *args, **kwargs):
        inner = span_original(self, *args, **kwargs)
        if not rec.active:
            return inner
        rec.count("spans")
        return _TimedContext(inner, rec, "span_s")

    SpanTracer.span = span


def _classes_defining(module, attr):
    return [
        obj
        for obj in vars(module).values()
        if inspect.isclass(obj)
        and obj.__module__ == module.__name__
        and attr in vars(obj)
    ]


# ---------------------------------------------------------------------------
# Totals -> the per-layer metrics of BENCHMARK.json
# ---------------------------------------------------------------------------
def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(rec, import_s=0.0):
    """The per-layer metrics this recorder saw (missing layers read 0)."""
    t, c, n = rec.total_s, rec.calls, rec.counts
    run_s = t("sim.run")
    events = n.get("events", 0)
    out = {
        "setup.import_s": import_s,
        "workload.calibrate_s": t("workload.calibrate"),
        "workload.calibrate_calls": c("workload.calibrate"),
        "workload.generate_s": t("workload.generate"),
        "workload.jobs_generated": n.get("jobs_generated", 0),
        "cluster.build_s": t("cluster.build"),
        "cluster.start_s": t("cluster.start"),
        "cluster.incidents": c("cluster.incident"),
        "scheduler.sort_s": t("scheduler.sort"),
        "scheduler.sort_calls": c("scheduler.sort"),
        "scheduler.priority_evals": n.get("priority_evals", 0),
        "scheduler.place_s": t("scheduler.place"),
        "scheduler.place_calls": c("scheduler.place"),
        "scheduler.place_success_ratio": _ratio(n.get("place_ok", 0), c("scheduler.place")),
        "scheduler.preempt_plan_s": t("scheduler.preempt_plan"),
        "scheduler.preempt_plan_calls": c("scheduler.preempt_plan"),
        "scheduler.preempt_plan_success_ratio": _ratio(
            n.get("plan_ok", 0), c("scheduler.preempt_plan")
        ),
        "scheduler.quota_checks": c("scheduler.quota"),
        "scheduler.share": _ratio(t("scheduler.pass"), run_s),
        "sim.run_s": run_s,
        "sim.events": events,
        "sim.events_per_s": _ratio(events, run_s),
        "sim.self_s": rec.self_s("sim.run"),
        "campaign.trace_build_s": t("campaign.trace_build"),
        "core.columns_s": t("core.columns"),
        "analysis.total_s": t("analysis.pass"),
        "runtime.digest_s": t("runtime.digest"),
        "runtime.digest_calls": c("runtime.digest"),
        "runtime.cache_put_s": t("runtime.cache_put"),
        "runtime.cache_bytes_written": n.get("cache_bytes_written", 0),
        "runtime.cache_misses": n.get("cache_misses", 0),
        "runtime.pool_overhead_s": rec.self_s("runtime.pool"),
        "runtime.cache_get_s": t("runtime.cache_get"),
        "runtime.cache_hits": n.get("cache_hits", 0),
        "backends.wave_s": t("backends.wave"),
        "backends.waves": c("backends.wave"),
        "obs.emit_s": t("obs.emit"),
        "obs.emit_calls": c("obs.emit"),
        "obs.span_s": n.get("span_s", 0.0),
        "obs.spans": n.get("spans", 0),
        "obs.metric_lookups": n.get("metric_lookups", 0),
        "obs.bytes_written": n.get("obs_bytes_written", 0),
        "obs.post_s": t("obs.post"),
        "live.trace_load_s": t("live.trace_load"),
        "live.replay_s": t("live.replay"),
        "live.items": n.get("live_items", 0),
        "serve.parse_s": n.get("parse_s", 0.0),
        "serve.handler_s": t("serve.handler"),
        "serve.encode_s": t("serve.encode"),
        "serve.encode_bytes": n.get("encode_bytes", 0),
        "serve.whatif_cache_hits": n.get("whatif_cache_hits", 0),
    }
    for span in ANALYSIS_FIGURES.values():
        out[span + "_s"] = t(span)
    return out
