"""Plumbing shared by the workload processes."""

from __future__ import annotations

import gc
import json
import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.stats import Summary, median, summarize, table_checksum

ROOT = Path(__file__).resolve().parent.parent
#: Working files: history stores, span dumps and server stats.
WORK = ROOT / ".perfbench_work"

#: Metrics a user of each workload sees (name -> unit); every workload
#: reports all of them.
USER_METRICS = {
    "setup_s": "s",
    "gnm_per_s": "1/s",
    "monitor_overhead": "x",
    "progress_mae": "1",
    "latency_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

#: The gated subset: ratios, deterministic values and set-up time. The
#: absolute speed metrics follow the host's speed too closely to gate
#: (see perfbench/README.md) and are reported with the per-layer metrics.
END_TO_END = {
    name: USER_METRICS[name]
    for name in ("setup_s", "monitor_overhead", "progress_mae", "peak_rss_mb")
}

#: Per-layer metrics every traced run reports (name -> unit); a layer a
#: workload does not run reports 0.
PER_LAYER = {
    **{name: unit for name, unit in USER_METRICS.items() if name not in END_TO_END},
    "datagen.generate_s": "s",
    "sql.compile_ms": "ms",
    "optimizer.annotate_ms": "ms",
    "analysis.check_ms": "ms",
    "executor.unmonitored_s": "s",
    "executor.gnm_calls": "count",
    "executor.fetch_calls": "count",
    "core.hook_s": "s",
    "core.hook_calls.batch": "count",
    "core.hook_calls.row": "count",
    "core.group_observe.row": "count",
    "core.group_observe.batch": "count",
    "core.snapshot_count": "count",
    "core.snapshot_us_p50": "us",
    "core.snapshot_us_p99": "us",
    **{
        f"embedded.{shape}.{metric}": unit
        for shape in ("hybrid_join", "join_groupby", "chain3_groupby", "merge_join", "inl_join")
        for metric, unit in (("monitored_s", "s"), ("overhead", "x"))
    },
    "service.max_rate_qps": "1/s",
    "service.latency_ms_p95": "ms",
    "service.first_frame_ms_p50": "ms",
    "service.first_frame_ms_p95": "ms",
    "server.submit_rtt_ms_p50": "ms",
    "server.queue_wait_ms_p50": "ms",
    "server.queue_wait_ms_p95": "ms",
    "server.step_ms_p50": "ms",
    "server.step_ms_p95": "ms",
    "server.steps_per_query": "count",
    "server.encode_us_p50": "us",
    "server.frames_published": "count",
    "server.frames_received": "count",
    "server.delta_share": "1",
    "server.wire_bytes_per_query": "B",
    "server.seq_gaps": "count",
    "robust.prior_ms": "ms",
    "robust.append_ms": "ms",
    "parallel.speedup_vs_serial": "x",
    "parallel.fragment_ms": "ms",
    "parallel.start_ms": "ms",
    "parallel.pump_s": "s",
    "parallel.pump_calls": "count",
    "parallel.fold_ms": "ms",
    "parallel.deltas": "count",
    "parallel.merge_ms": "ms",
    "parallel.serial_s": "s",
    "loadgen.late_ms_p95": "ms",
    "loadgen.late_ms_max": "ms",
    "trace.spans": "count",
    **{f"trace.overhead.{name}": unit for name, unit in USER_METRICS.items()},
}


def hash_seed(seed: int) -> str:
    """The ``PYTHONHASHSEED`` every process of one run uses."""
    return str(seed % 4294967296)


def child_env(seed: int) -> dict[str, str]:
    """Environment for a process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed(seed)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env.pop("REPRO_FAULTS", None)
    return env


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(make, repeats: int = 3):
    """Run ``make()`` ``repeats`` times; return the last result and the
    median wall time. Earlier results are dropped before the next build so
    peak memory reflects one copy."""
    walls = []
    result = None
    for _ in range(repeats):
        result = None
        gc.collect()
        start = time.perf_counter()
        result = make()
        walls.append(time.perf_counter() - start)
    return result, median(walls), walls


def catalog_checksums(catalog, names) -> dict[str, str]:
    return {name: table_checksum(catalog.table(name).rows()) for name in names}


def setup_tpch(seed: int, sf: float, skew_z: float, tables) -> tuple[object, float, dict]:
    """Generate the TPC-H catalog three times (``setup_s`` is the median);
    return the last catalog, ``setup_s`` and the table checksums."""
    from repro import generate_tpch

    catalog, setup_s, walls = timed_setup(
        lambda: generate_tpch(sf=sf, seed=seed, skew_z=skew_z)
    )
    say(f"setup: TPC-H sf {sf} z={skew_z}, generated {len(walls)}x in "
        + ", ".join(f"{w:.3f}" for w in walls) + " s")
    sums = catalog_checksums(catalog, tables)
    say("table checksums: " + " ".join(f"{k}={v}" for k, v in sums.items()))
    return catalog, setup_s, sums


def cycle(keys, seconds: float, run_group) -> None:
    """Call ``run_group(key, cycle)`` for every key once, then keep cycling
    while the next group still fits in ``seconds`` (judged by its last run)."""
    last: dict = {}
    begin = time.perf_counter()
    round_no = 0
    while True:
        for key in keys:
            if round_no and time.perf_counter() - begin + last[key] > seconds:
                return
            start = time.perf_counter()
            run_group(key, round_no)
            last[key] = time.perf_counter() - start
        round_no += 1


@dataclass
class Outcome:
    """What one workload process reports back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    fingerprint: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; a failed check is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def emit(self) -> None:
        """Print the report lines, then the result as the last line."""
        rate = self.failed / self.attempted if self.attempted else 1.0
        say(f"error_rate {rate:.6g} ({self.failed} failed of {self.attempted} attempted)")
        for problem in self.problems:
            say(f"FAILED: {problem}")
        for name, unit in USER_METRICS.items():
            if name in self.e2e:
                say(f"{name} {self.e2e[name]:.6g} {unit}")
        payload = {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "e2e": self.e2e,
            "layers": self.layers,
            "fingerprint": self.fingerprint,
        }
        print(json.dumps(payload), flush=True)


def say(line: str) -> None:
    print(line, flush=True)


def report_timing(name: str, values, unit: str, scale: float = 1.0) -> Summary:
    summary = summarize([v * scale for v in values])
    say(f"{name}: {summary.describe(unit)}")
    return summary
