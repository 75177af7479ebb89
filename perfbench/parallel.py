"""``parallel_p2``: two fragmentable plans at P=2 against the serial engine.

The only workload where fragmenting, worker processes, pipes and delta
folding run. Each plan runs through ``ExecutionEngine.run(parallel=2)``,
serially monitored (the same ``once`` monitor, tick interval and batch
size the workers use: the speed-up reference) and serially unmonitored.
"""

from __future__ import annotations

import gc
import math
import time
from collections import defaultdict
from dataclasses import dataclass

import repro.sql
from repro import ExecutionEngine, ProgressMonitor, TickBus
from repro.executor.plan import walk

from perfbench.common import PER_LAYER, Outcome, cycle, peak_rss_mb, say, setup_tpch
from perfbench.embedded import SCALE_FACTOR, SKEW_Z, TABLES
from perfbench.stats import median, rows_checksum
from perfbench.trace import install_query_path, query_path_layers

PARALLELISM = 2
TICK_INTERVAL = 1000
BATCH_SIZE = 1024
PLANS = {
    # Partition-wise hash join, partial aggregates merged on the coordinator.
    "lineitem_orders_groupby": (
        "SELECT o.custkey, COUNT(*) AS n, SUM(l.quantity) AS qty"
        " FROM lineitem l JOIN orders o ON l.orderkey = o.orderkey GROUP BY o.custkey"
    ),
    # A global aggregate: the merge is one row, so the run measures workers.
    "customer_orders_global": (
        "SELECT COUNT(*) AS n, SUM(o.totalprice) AS total, AVG(o.totalprice) AS avg_price"
        " FROM customer c JOIN orders o ON c.custkey = o.custkey"
    ),
}
MODES = ("serial", "monitored", "p2")


@dataclass
class Execution:
    plan: str
    round: int
    mode: str
    compile_s: float
    wall_s: float
    rows: list
    gnm: int = 0
    snapshots: int = 0
    mae: float = 0.0

    @property
    def qid(self) -> str:
        return f"r{self.round}.{self.plan}.{self.mode}"


def execute(catalog, name: str, rnd: int, mode: str, tracer) -> Execution:
    if tracer is not None:
        tracer.qid = f"r{rnd}.{name}.{mode}"
    started = time.perf_counter()
    plan = repro.sql.compile_select(catalog, PLANS[name]).plan
    compile_s = time.perf_counter() - started
    bus = monitor = None
    if mode == "monitored":
        bus = TickBus(TICK_INTERVAL)
        monitor = ProgressMonitor(plan, mode="once", bus=bus)
        if tracer is not None:
            tracer.wrap_plan_hooks(plan)
    gc.collect()
    started = time.perf_counter()
    result = ExecutionEngine(plan, bus=bus).run(
        batch_size=BATCH_SIZE, parallel=PARALLELISM if mode == "p2" else None
    )
    wall = time.perf_counter() - started
    run = Execution(name, rnd, mode, compile_s, wall, result.rows)
    if mode != "p2":
        run.gnm = sum(op.tuples_emitted for op in walk(plan))
    if monitor is not None:
        run.snapshots = len(monitor.snapshots)
        curve = monitor.progress_curve()
        run.mae = sum(abs(est - act) for act, est in curve) / len(curve) if curve else 0.0
    if tracer is not None:
        tracer.qid = None
    return run


def same_rows(a: list[tuple], b: list[tuple]) -> bool:
    """Equal as multisets; float aggregates may differ in the last digits
    because partial aggregation changes the order of additions."""
    if len(a) != len(b):
        return False
    for x, y in zip(sorted(a, key=repr), sorted(b, key=repr)):
        if len(x) != len(y):
            return False
        for u, v in zip(x, y):
            if isinstance(u, float) or isinstance(v, float):
                if not math.isclose(u, v, rel_tol=1e-9, abs_tol=1e-6):
                    return False
            elif u != v:
                return False
    return True


def measure(catalog, seconds: float, tracer, outcome: Outcome) -> list[Execution]:
    """Run every plan once in every mode, then keep cycling while the next
    plan's three runs still fit in ``seconds``."""
    runs: list[Execution] = []
    reference: dict[str, Execution] = {}

    def triple(name: str, rnd: int) -> None:
        for mode in MODES if rnd % 2 == 0 else tuple(reversed(MODES)):
            run = execute(catalog, name, rnd, mode, tracer)
            ref = reference.setdefault(name, run)
            if mode == "p2" or ref.mode == "p2":
                ok = same_rows(run.rows, ref.rows)
            else:
                ok = (rows_checksum(run.rows), run.gnm) == (rows_checksum(ref.rows), ref.gnm)
            outcome.check(ok, f"{name} round {rnd} {mode}: rows differ from the "
                              f"{ref.mode} run ({len(run.rows)} vs {len(ref.rows)} rows)")
            if run is not ref:
                run.rows = []
            runs.append(run)

    cycle(PLANS, seconds, triple)
    return runs


def run(seed: int, seconds: float, tracer) -> Outcome:
    outcome = Outcome()
    catalog, setup_s, sums = setup_tpch(seed, SCALE_FACTOR, SKEW_Z, TABLES)
    if tracer is not None:
        install_parallel_tracing(tracer)
    runs = measure(catalog, seconds, tracer, outcome)

    by: dict[tuple[str, str], list[Execution]] = defaultdict(list)
    for r in runs:
        by[r.plan, r.mode].append(r)
    wall = {key: median(r.wall_s for r in rs) for key, rs in by.items()}
    latency = {p: median(r.compile_s + r.wall_s for r in by[p, "p2"]) for p in PLANS}
    first_mon = {p: by[p, "monitored"][0] for p in PLANS}
    gnm = sum(r.gnm for r in first_mon.values())
    serial_s = sum(wall[p, "monitored"] for p in PLANS)
    p2_s = sum(wall[p, "p2"] for p in PLANS)
    for p in PLANS:
        say(f"plan {p}: P=2 {wall[p, 'p2']:.4f} s, serial monitored "
            f"{wall[p, 'monitored']:.4f} s, serial unmonitored {wall[p, 'serial']:.4f} s, "
            f"speedup {wall[p, 'monitored'] / wall[p, 'p2']:.4f}x, K={first_mon[p].gnm} "
            f"(n={len(by[p, 'p2'])} runs)")
    say(f"speedup_vs_serial {serial_s / p2_s:.6g} x")
    outcome.e2e = {
        "setup_s": setup_s,
        "gnm_per_s": gnm / p2_s,
        "monitor_overhead": serial_s / sum(wall[p, "serial"] for p in PLANS),
        "progress_mae": sum(r.mae for r in first_mon.values()) / len(PLANS),
        "latency_ms_p50": median(latency.values()) * 1000.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.fingerprint = {
        "tables": sums,
        # The first run of each plan is serial; its rows are kept as the reference.
        "rows": {p: rows_checksum(by[p, "serial"][0].rows) for p in PLANS},
        "executor.gnm_calls": gnm,
        "core.snapshot_count": sum(r.snapshots for r in first_mon.values()),
        "progress_mae": repr(outcome.e2e["progress_mae"]),
    }
    if tracer is not None:
        outcome.layers = layers(tracer, by, wall, first_mon, setup_s, serial_s / p2_s)
    return outcome


def install_parallel_tracing(tracer) -> None:
    """Coordinator-side layers; worker processes are forked from this one,
    so spans they record stay in the workers and are not reported."""
    import repro.parallel.fragments
    from repro.parallel.coordinator import Coordinator
    from repro.parallel.monitor import PartitionedProgressMonitor

    install_query_path(tracer)
    # ExecutionEngine resolves try_compile from its module at call time.
    tracer.patch(repro.parallel.fragments, "try_compile", "parallel.fragment")
    tracer.patch(Coordinator, "start", "parallel.start")
    tracer.patch(Coordinator, "pump", "parallel.pump")
    tracer.patch(Coordinator, "result", "parallel.merge")
    tracer.patch(PartitionedProgressMonitor, "observe", "parallel.fold")


def layers(tracer, by, wall, first_mon, generate_s, speedup) -> dict[str, float]:
    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update(query_path_layers(
        tracer,
        {r.qid for r in first_mon.values()},
        [[r.qid for r in by[p, "monitored"]] for p in PLANS],
    ))
    p2_first = {f"r0.{p}.p2" for p in PLANS}

    def per_run(name: str) -> float:
        """Seconds in ``name`` per P=2 run: median over runs, summed over plans."""
        return sum(median(tracer.seconds(name, {r.qid}) for r in by[p, "p2"]) for p in PLANS)

    out.update({
        "datagen.generate_s": generate_s,
        "executor.unmonitored_s": sum(wall[p, "serial"] for p in PLANS),
        "executor.gnm_calls": sum(r.gnm for r in first_mon.values()),
        "parallel.speedup_vs_serial": speedup,
        "parallel.fragment_ms": tracer.median_ms("parallel.fragment"),
        "parallel.start_ms": tracer.median_ms("parallel.start"),
        "parallel.pump_s": per_run("parallel.pump"),
        "parallel.pump_calls": len(tracer.select("parallel.pump", p2_first)),
        "parallel.fold_ms": per_run("parallel.fold") * 1000.0,
        "parallel.deltas": len(tracer.select("parallel.fold", p2_first)),
        "parallel.merge_ms": tracer.median_ms("parallel.merge"),
        "parallel.serial_s": sum(wall[p, "monitored"] for p in PLANS),
    })
    return out
