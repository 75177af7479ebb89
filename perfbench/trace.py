"""Spans and counters recorded around the program's public callables.

Only the traced run installs a :class:`Tracer`; the timed runs never import
a wrapper into the program. Each wrapper replaces a name *where its caller
resolves it* (a class attribute, or the module global a caller reads), so
the program runs unchanged apart from the timing calls, and
:meth:`Tracer.restore` puts every original back.

Operator hook wrappers carry the batch twin that
``repro.executor.operators.base.batch_hook_of`` resolves: without it a
batched drain would fall back to one call per row, and the trace would
measure a different program.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Callable

from perfbench.stats import Span, median, percentile, self_times

#: The operator hook lists the estimators register into (the last two are
#: the index nested-loops join's, which fire per row).
HOOK_LISTS = (
    "build_hooks",
    "probe_hooks",
    "input_hooks",
    "left_input_hooks",
    "right_input_hooks",
    "inner_input_hooks",
    "outer_hooks",
)

_clock = time.perf_counter


class Tracer:
    """In-memory span recorder; spans are written out only at the end."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Call counts and aggregate seconds, keyed by (query id, name). A
        #: query runs on one thread at a time (a session under its step
        #: lock), so the unlocked increments never race on a key.
        self.counts: Counter[tuple[str | None, str]] = Counter()
        self.totals: Counter[tuple[str | None, str]] = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- context -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def qid(self) -> str | None:
        """Query id stamped on spans recorded by the calling thread."""
        return getattr(self._local, "qid", None)

    @qid.setter
    def qid(self, value: str | None) -> None:
        self._local.qid = value

    # -- recording ---------------------------------------------------------

    def wrap(self, fn: Callable, name: str, qid_of: Callable | None = None) -> Callable:
        """``fn`` recording one span per call. ``qid_of(args)`` may name the
        query the call belongs to; it is then the thread's query id for the
        duration of the call."""
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        local = self._local

        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            outer_qid = getattr(local, "qid", None)
            qid = qid_of(args) if qid_of is not None else outer_qid
            local.qid = qid
            stack.append(sid)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                local.qid = outer_qid
                spans.append(Span(sid, name, start, end, parent, qid))

        # Keep pairing attributes (``batch_hook_name``) a caller may read.
        traced.__dict__.update(getattr(fn, "__dict__", {}))
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def counted(self, fn: Callable, name: str) -> Callable:
        """``fn`` counting its calls without a span (for per-row callables)."""
        counts = self.counts
        local = self._local

        def count(*args, **kwargs):
            counts[getattr(local, "qid", None), name] += 1
            return fn(*args, **kwargs)

        count.__dict__.update(getattr(fn, "__dict__", {}))
        count.__wrapped__ = fn
        count.__name__ = getattr(fn, "__name__", name)
        return count

    def install(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``make(original)``; :meth:`restore` undoes it."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def patch(self, owner: object, attr: str, name: str, *, count_only: bool = False,
              qid_of: Callable | None = None) -> None:
        """Replace ``owner.attr`` by its traced (or counted) twin."""
        if count_only:
            self.install(owner, attr, lambda original: self.counted(original, name))
        else:
            self.install(owner, attr, lambda original: self.wrap(original, name, qid_of=qid_of))

    def after(self, owner: type, attr: str, hook: Callable) -> None:
        """Run ``hook(obj)`` after every call of method ``owner.attr``."""

        def make(original):
            def method(obj, *args, **kwargs):
                result = original(obj, *args, **kwargs)
                hook(obj)
                return result

            method.__wrapped__ = original
            return method

        self.install(owner, attr, make)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- operator hooks ----------------------------------------------------

    def wrap_hook(self, hook: Callable) -> Callable:
        """A timed row hook that advertises a traced batch twin when the
        original has one, so ``make_batch_dispatch`` still amortizes.

        Batch calls record ``core.hook`` spans. Row calls can number one
        per input row, so they are counted and timed in aggregate
        (``core.hook_row_s``) instead of spanned.
        """
        from repro.executor.operators.base import batch_hook_of

        counts = self.counts
        totals = self.totals
        local = self._local
        twin = batch_hook_of(hook)

        def row_hook(*args):
            qid = getattr(local, "qid", None)
            counts[qid, "core.hook_calls.row"] += 1
            start = _clock()
            try:
                return hook(*args)
            finally:
                totals[qid, "core.hook_row_s"] += _clock() - start

        if twin is not None:
            batch = self.wrap(twin, "core.hook")

            def batch_hook(keys, rows):
                counts[getattr(local, "qid", None), "core.hook_calls.batch"] += 1
                return batch(keys, rows)

            row_hook.batch_hook = batch_hook
        return row_hook

    def wrap_plan_hooks(self, root) -> None:
        """Wrap every hook in the plan's hook lists (after estimators attached)."""
        from repro.executor.plan import walk

        for op in walk(root):
            for attr in HOOK_LISTS:
                hooks = getattr(op, attr, None)
                if hooks:
                    hooks[:] = [self.wrap_hook(h) for h in hooks]

    # -- output ------------------------------------------------------------

    def select(self, name: str, qids=None) -> list[Span]:
        """Spans named ``name``, of the given query ids (default: all)."""
        return [s for s in self.spans if s.name == name and (qids is None or s.qid in qids)]

    def seconds(self, name: str, qids=None) -> float:
        """Total duration of the selected spans."""
        return sum(s.end - s.start for s in self.select(name, qids))

    def median_ms(self, name: str, self_time: dict[int, float] | None = None) -> float:
        """Median duration (or self time, given ``self_times``) in ms; 0 if none."""
        found = self.select(name)
        if not found:
            return 0.0
        return median(self_time[s.sid] if self_time else s.end - s.start
                      for s in found) * 1000.0

    def count(self, name: str, qids=None) -> int:
        """Calls of ``name``, over the given query ids (default: all)."""
        return sum(n for (qid, key), n in self.counts.items()
                   if key == name and (qids is None or qid in qids))

    def total(self, name: str, qids=None) -> float:
        return sum(t for (qid, key), t in self.totals.items()
                   if key == name and (qids is None or qid in qids))

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")


def install_query_path(tracer: Tracer) -> None:
    """Trace compile, annotate, analysis, fetch, snapshot and group-count
    observation: the layers every workload's queries pass through."""
    import repro.executor.plan
    import repro.optimizer.planner
    import repro.sql
    import repro.sql.compiler
    from repro.core.distinct import HybridGroupCountEstimator
    from repro.core.progress import ProgressMonitor
    from repro.executor.engine import PlanCursor

    tracer.patch(repro.sql, "compile_select", "sql.compile")
    tracer.patch(repro.sql.compiler, "annotate_plan", "optimizer.annotate")
    tracer.patch(repro.optimizer.planner, "annotate_plan", "optimizer.annotate")
    tracer.patch(repro.executor.plan, "check_plan", "analysis.check")
    tracer.patch(PlanCursor, "fetch", "executor.fetch")
    tracer.patch(ProgressMonitor, "snapshot", "core.snapshot")
    tracer.patch(HybridGroupCountEstimator, "observe", "core.group_observe.row",
                 count_only=True)
    tracer.patch(HybridGroupCountEstimator, "observe_batch", "core.group_observe.batch",
                 count_only=True)


def query_path_layers(tracer: Tracer, first_qids: set[str],
                      monitored: list[list[str]]) -> dict[str, float]:
    """Per-layer metrics of an in-process workload's query path.

    Counts cover ``first_qids`` (the first run of every query), so they
    repeat exactly for a seed; timings cover every run. ``monitored``
    holds, per query, the ids of its monitored runs: hook time is the
    median over a query's runs, summed over queries.
    """
    snaps = [s.end - s.start for s in tracer.select("core.snapshot")]

    def hook_s(qid: str) -> float:
        return tracer.seconds("core.hook", {qid}) + tracer.total("core.hook_row_s", {qid})

    out = {
        # Compile self time: annotate and analysis are reported on their own.
        "sql.compile_ms": tracer.median_ms("sql.compile", self_times(tracer.spans)),
        "optimizer.annotate_ms": tracer.median_ms("optimizer.annotate"),
        "analysis.check_ms": tracer.median_ms("analysis.check"),
        "executor.fetch_calls": len(tracer.select("executor.fetch", first_qids)),
        "core.hook_s": sum(median(hook_s(q) for q in qids) for qids in monitored),
        "core.snapshot_count": len(tracer.select("core.snapshot", first_qids)),
        "core.snapshot_us_p50": (percentile(snaps, 50.0) or 0.0) * 1e6,
        "core.snapshot_us_p99": (percentile(snaps, 99.0) or 0.0) * 1e6,
        "trace.spans": len(tracer.spans),
    }
    for name in ("core.hook_calls.batch", "core.hook_calls.row",
                 "core.group_observe.row", "core.group_observe.batch"):
        out[name] = tracer.count(name, first_qids)
    return out
