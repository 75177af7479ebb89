"""Guard: progress monitoring stays lightweight (the paper's core pitch).

The framework's selling point is being *online and lightweight* — estimator
hooks on the build/probe streams plus a bounded-frequency tick bus. This
suite runs the same plan bare and monitored (TickBus + ProgressMonitor in
``once`` mode) and asserts the monitored run stays under a generous
wall-clock ratio, in both row-at-a-time and batched execution. Three plan
shapes:

* a filtered hash join;
* a join + GROUP BY whose group-count estimation is pushed down into the
  join (weighted per-probe-tuple observations, the MLE recompute schedule
  and the listener batch path);
* a join whose build side has 60k distinct keys, so that any per-snapshot
  work proportional to the build histogram (the bound refinement reads
  its max multiplicity on every snapshot) dominates the run.

Timing tests are inherently jittery on shared CI runners, so each
configuration takes the best of three runs, alternating bare and monitored
runs, and the ratio bound is loose —
this catches accidental per-row blowups (an O(n) snapshot per tick, a hook
on the wrong loop), not single-digit-percent regressions; those belong to
``benchmarks/bench_overhead.py``.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.core.progress import ProgressMonitor
from repro.datagen.skew import customer_variant
from repro.executor.engine import ExecutionEngine, TickBus
from repro.executor.expressions import col, lit
from repro.executor.operators import AggregateSpec, Filter, HashAggregate, HashJoin, SeqScan

#: Monitored wall-clock may be at most this multiple of bare wall-clock.
MAX_OVERHEAD_RATIO = 2.5
BEST_OF = 3
TICK_INTERVAL = 256

_BUILD = customer_variant(z=0.5, domain_size=200, variant=0, num_rows=2_000, name="ovb")
_PROBE = customer_variant(z=0.5, domain_size=200, variant=1, num_rows=16_000, name="ovp")


# Many groups with diverse join-output frequencies: an MLE recompute per
# probe tuple (or a per-snapshot histogram scan) costs several times the
# bare run here.
_GB_BUILD = customer_variant(z=0.5, domain_size=1000, variant=0, num_rows=4_000, name="gbb")
_GB_PROBE = customer_variant(z=0.5, domain_size=1000, variant=1, num_rows=16_000, name="gbp")


_WIDE_BUILD = customer_variant(z=0.5, domain_size=1000, variant=0, num_rows=60_000, name="wdb")
_WIDE_PROBE = customer_variant(z=0.5, domain_size=1000, variant=1, num_rows=60_000, name="wdp")


def _make_plan() -> HashJoin:
    probe = Filter(SeqScan(_PROBE), col("ovp.nationkey") < lit(120))
    return HashJoin(
        SeqScan(_BUILD),
        probe,
        "ovb.nationkey",
        "ovp.nationkey",
        num_partitions=2,
    )


def _make_groupby_plan() -> HashAggregate:
    probe = Filter(SeqScan(_GB_PROBE), col("gbp.nationkey") < lit(600))
    join = HashJoin(
        SeqScan(_GB_BUILD),
        probe,
        "gbb.nationkey",
        "gbp.nationkey",
        num_partitions=2,
    )
    return HashAggregate(join, ["gbp.nationkey"], [AggregateSpec("count")])


def _make_wide_build_plan() -> HashJoin:
    return HashJoin(
        SeqScan(_WIDE_BUILD),
        SeqScan(_WIDE_PROBE),
        "wdb.custkey",
        "wdp.custkey",
        num_partitions=2,
    )


def _timed_run(plan, batch_size: int | None, monitored: bool) -> tuple[float, int]:
    """Seconds to drain ``plan`` (and snapshots taken, when monitored)."""
    bus = TickBus(interval=TICK_INTERVAL) if monitored else None
    monitor = ProgressMonitor(plan, mode="once", bus=bus) if monitored else None
    gc.collect()
    started = time.perf_counter()
    ExecutionEngine(plan, bus=bus, collect_rows=False).run(batch_size=batch_size)
    elapsed = time.perf_counter() - started
    return elapsed, len(monitor.snapshots) if monitor is not None else 0


def _best_seconds(batch_size: int | None, make_plan) -> tuple[float, float, int]:
    """Best-of-``BEST_OF`` bare and monitored seconds, plus the monitored
    snapshot count. Bare and monitored runs alternate, so drift in machine
    speed during the measurement hits both sides alike."""
    bare = monitored = float("inf")
    snapshots = 0
    for _ in range(BEST_OF):
        bare = min(bare, _timed_run(make_plan(), batch_size, monitored=False)[0])
        seconds, snapshots = _timed_run(make_plan(), batch_size, monitored=True)
        monitored = min(monitored, seconds)
    return bare, monitored, snapshots


def _assert_bounded(mode: str, batch_size: int | None, make_plan) -> None:
    bare, monitored, snapshots = _best_seconds(batch_size, make_plan)
    assert snapshots > 0, "monitor recorded no snapshots; the guard measured nothing"
    ratio = monitored / bare
    assert ratio <= MAX_OVERHEAD_RATIO, (
        f"{mode}: monitored run took {ratio:.2f}x the bare run "
        f"(bare {bare * 1e3:.1f} ms, monitored {monitored * 1e3:.1f} ms, "
        f"limit {MAX_OVERHEAD_RATIO}x)"
    )


_MODES = pytest.mark.parametrize(
    "mode,batch_size", [("row", None), ("batch", 1024)], ids=["row", "batch-1024"]
)


@_MODES
def test_monitoring_overhead_is_bounded(mode, batch_size):
    _assert_bounded(mode, batch_size, _make_plan)


@_MODES
def test_pushed_down_groupby_overhead_is_bounded(mode, batch_size):
    plan = _make_groupby_plan()
    monitor = ProgressMonitor(plan, mode="once")
    assert monitor.manager is not None
    (estimate,) = monitor.manager.group_estimators.values()
    assert estimate.pushed_down, "the guard must exercise the push-down path"
    _assert_bounded(mode, batch_size, _make_groupby_plan)


@_MODES
def test_wide_build_overhead_is_bounded(mode, batch_size):
    _assert_bounded(mode, batch_size, _make_wide_build_plan)


def test_batch_monitoring_amortizes_ticks():
    """Batched instrumentation must not snapshot more often than row mode —
    tick_n fires at most once per batch."""
    _, row_snapshots = _timed_run(_make_plan(), None, monitored=True)
    _, batch_snapshots = _timed_run(_make_plan(), 1024, monitored=True)
    assert 0 < batch_snapshots <= row_snapshots
