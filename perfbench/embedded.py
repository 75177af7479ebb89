"""``embedded_tpch``: five plan shapes, closed loop, monitored vs unmonitored.

Operators and estimator hooks do nearly all the work here (compile is 1-3%
of a query), so a change to a hook, to ``ProgressMonitor.snapshot`` or to
an operator shows on this workload, while the service layers are bypassed.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from dataclasses import dataclass

import repro.sql
from repro import ExecutionEngine, JoinSpec, Planner, ProgressMonitor, TickBus
from repro.executor.plan import walk

from perfbench.common import PER_LAYER, Outcome, cycle, peak_rss_mb, say, setup_tpch
from perfbench.stats import median, rows_checksum
from perfbench.trace import install_query_path, query_path_layers

SCALE_FACTOR = 0.05
SKEW_Z = 1.0
TICK_INTERVAL = 1000
BATCH_SIZE = 1024
TABLES = ("region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem")

SQL = {
    # compile_select's defaults: 8 partitions, 1 in memory, so the join spills.
    "hybrid_join": (
        "SELECT l.orderkey, l.quantity, o.custkey"
        " FROM lineitem l JOIN orders o ON l.orderkey = o.orderkey"
    ),
    # The group columns lie in the probe stream (the FROM table), so the
    # group-count estimator is pushed down into the join's estimator chain.
    "join_groupby": (
        "SELECT o.custkey, COUNT(*) AS n, SUM(l.quantity) AS qty"
        " FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey GROUP BY o.custkey"
    ),
    # The Algorithm-1 push-down chain over a three-way join.
    "chain3_groupby": (
        "SELECT c.nationkey, COUNT(*) AS n, SUM(l.extendedprice) AS revenue"
        " FROM customer c JOIN orders o ON c.custkey = o.custkey"
        " JOIN lineitem l ON o.orderkey = l.orderkey GROUP BY c.nationkey"
    ),
}
PLANNER_METHODS = {"merge_join": "merge", "inl_join": "index_nl"}
SHAPES = ("hybrid_join", "join_groupby", "chain3_groupby", "merge_join", "inl_join")


@dataclass
class Execution:
    shape: str
    cycle: int
    monitored: bool
    compile_s: float
    wall_s: float
    gnm: int
    row_count: int
    checksum: int
    snapshots: int = 0
    mae: float = 0.0
    monotone: bool = True

    @property
    def qid(self) -> str:
        return qid_of(self.cycle, self.shape, self.monitored)


def qid_of(cycle: int, shape: str, monitored: bool) -> str:
    return f"c{cycle}.{shape}.{'mon' if monitored else 'unmon'}"


def build_plan(catalog, shape: str):
    if shape in SQL:
        return repro.sql.compile_select(catalog, SQL[shape]).plan
    spec = JoinSpec("orders", "lineitem.orderkey", "orderkey", method=PLANNER_METHODS[shape])
    return Planner(catalog).build("lineitem", [spec])


def execute(catalog, shape: str, cycle: int, monitored: bool, tracer) -> Execution:
    if tracer is not None:
        tracer.qid = qid_of(cycle, shape, monitored)
    started = time.perf_counter()
    plan = build_plan(catalog, shape)
    compile_s = time.perf_counter() - started
    bus = monitor = None
    if monitored:
        bus = TickBus(TICK_INTERVAL)
        monitor = ProgressMonitor(plan, mode="once", bus=bus)
        if tracer is not None:
            tracer.wrap_plan_hooks(plan)
    gc.collect()
    started = time.perf_counter()
    result = ExecutionEngine(plan, bus=bus).run(batch_size=BATCH_SIZE)
    wall = time.perf_counter() - started
    run = Execution(
        shape=shape,
        cycle=cycle,
        monitored=monitored,
        compile_s=compile_s,
        wall_s=wall,
        gnm=sum(op.tuples_emitted for op in walk(plan)),
        row_count=result.row_count,
        checksum=rows_checksum(result.rows),
    )
    if monitor is not None:
        snaps = monitor.snapshots
        run.snapshots = len(snaps)
        run.monotone = all(a.work_done <= b.work_done for a, b in zip(snaps, snaps[1:]))
        curve = monitor.progress_curve()
        run.mae = sum(abs(est - act) for act, est in curve) / len(curve) if curve else 0.0
    if tracer is not None:
        tracer.qid = None
    return run


def measure(catalog, seconds: float, tracer, outcome: Outcome) -> list[Execution]:
    """Run every shape once (unmonitored and monitored), then keep cycling
    while the next shape pair still fits in ``seconds``."""
    runs: list[Execution] = []
    first: dict[str, Execution] = {}

    def pair(shape: str, cycle_no: int) -> None:
        # Alternate which twin runs first so slow drift hits both.
        for monitored in (False, True) if cycle_no % 2 == 0 else (True, False):
            run = execute(catalog, shape, cycle_no, monitored, tracer)
            ref = first.setdefault(shape, run)
            outcome.check(
                (run.checksum, run.row_count, run.gnm) == (ref.checksum, ref.row_count, ref.gnm),
                f"{shape} cycle {cycle_no} {'monitored' if monitored else 'unmonitored'}: "
                f"rows/K differ from the first run ({run.row_count} rows, K={run.gnm} "
                f"vs {ref.row_count}, {ref.gnm})",
            )
            if monitored:
                outcome.check(run.monotone, f"{shape}: work_done decreased")
            runs.append(run)

    cycle(SHAPES, seconds, pair)
    return runs


def run(seed: int, seconds: float, tracer) -> Outcome:
    outcome = Outcome()
    catalog, setup_s, sums = setup_tpch(seed, SCALE_FACTOR, SKEW_Z, TABLES)
    if tracer is not None:
        install_query_path(tracer)
    runs = measure(catalog, seconds, tracer, outcome)

    by_shape: dict[str, dict[bool, list[Execution]]] = defaultdict(lambda: defaultdict(list))
    for r in runs:
        by_shape[r.shape][r.monitored].append(r)
    mon_s = {s: median(r.wall_s for r in by_shape[s][True]) for s in SHAPES}
    unmon_s = {s: median(r.wall_s for r in by_shape[s][False]) for s in SHAPES}
    latency_s = {s: median(r.compile_s + r.wall_s for r in by_shape[s][True]) for s in SHAPES}
    first_mon = {s: by_shape[s][True][0] for s in SHAPES}
    gnm = sum(first_mon[s].gnm for s in SHAPES)
    for s in SHAPES:
        say(
            f"shape {s}: monitored {mon_s[s]:.4f} s, unmonitored {unmon_s[s]:.4f} s, "
            f"overhead {mon_s[s] / unmon_s[s]:.4f}x, K={first_mon[s].gnm}, "
            f"rows={first_mon[s].row_count}, snapshots={first_mon[s].snapshots}, "
            f"mae={first_mon[s].mae:.6f} (n={len(by_shape[s][True])} runs)"
        )
    outcome.e2e = {
        "setup_s": setup_s,
        "gnm_per_s": gnm / sum(mon_s.values()),
        "monitor_overhead": sum(mon_s.values()) / sum(unmon_s.values()),
        "progress_mae": sum(first_mon[s].mae for s in SHAPES) / len(SHAPES),
        "latency_ms_p50": median(latency_s.values()) * 1000.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.fingerprint = {
        "tables": sums,
        "rows": {s: first_mon[s].checksum for s in SHAPES},
        "executor.gnm_calls": gnm,
        "core.snapshot_count": sum(first_mon[s].snapshots for s in SHAPES),
        "progress_mae": repr(outcome.e2e["progress_mae"]),
    }
    if tracer is not None:
        outcome.layers = layers(tracer, by_shape, first_mon, mon_s, unmon_s, setup_s)
    return outcome


def layers(tracer, by_shape, first_mon, mon_s, unmon_s, generate_s) -> dict[str, float]:
    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update(query_path_layers(
        tracer,
        {r.qid for r in first_mon.values()},
        [[r.qid for r in runs[True]] for runs in by_shape.values()],
    ))
    out.update({
        "datagen.generate_s": generate_s,
        "executor.unmonitored_s": sum(unmon_s.values()),
        "executor.gnm_calls": sum(r.gnm for r in first_mon.values()),
    })
    for shape in mon_s:
        out[f"embedded.{shape}.monitored_s"] = mon_s[shape]
        out[f"embedded.{shape}.overhead"] = mon_s[shape] / unmon_s[shape]
    return out
