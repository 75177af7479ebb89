"""``service_open_loop``: short queries submitted on schedule to the service.

The service runs in a child process (``perfbench.server_child``) with two
workers, no sampling, no parallel execution and a fresh history store. One
load-generator process submits on a fixed schedule, one connection at a
time, and holds one ``watch`` connection (delta frames, all sessions).
Queries last tens of milliseconds, so compile, scheduling, session steps,
frame encoding, the socket and history dominate: this workload bypasses
the layers ``embedded_tpch`` stresses, and the reverse.

Every request is timed from its due time, not its send time, so a stalled
generator shows up as latency, and the generator's own lateness is
reported. After a fixed reference phase a ladder of rates runs past
capacity; ``max_rate_qps`` is the highest ladder rate whose p95 latency
meets :data:`LATENCY_LIMIT_MS` with no refusal and no growing backlog.
"""

from __future__ import annotations

import json
import math
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

from repro import ExecutionEngine, ProgressMonitor, TickBus, generate_tpch
from repro.server.client import ProgressClient, ServiceError
from repro.server.protocol import decode, encode
from repro.server.wire import apply_delta

import repro.sql
from perfbench import server_child
from perfbench.common import (
    PER_LAYER,
    WORK,
    Outcome,
    catalog_checksums,
    child_env,
    report_timing,
    say,
)
from perfbench.stats import Span, median, percentile
from perfbench.trace import query_path_layers

REF_RATE = 10.0
REF_REQUESTS = 200
LATENCY_LIMIT_MS = 250.0
#: Ladder: start at twice the reference rate, grow geometrically until a
#: step fails, then bisect the last interval this many times. Steps share
#: what is left of ``--seconds`` after the reference phase.
LADDER_START = 2.5 * REF_RATE
LADDER_FACTOR = 1.2
LADDER_MAX = 200.0
BISECTIONS = 1
#: The ladder is sized for this many steps; it stops at the first failure.
LADDER_STEPS = 4
MIN_STEP_S = 1.0
#: Seconds to wait for stragglers after a phase before calling them timed out.
GRACE_S = 10.0
SETUP_STARTS = 5
#: The service's quantum and tick interval, mirrored by the in-process
#: reference runs that measure monitoring overhead on these queries.
QUANTUM_ROWS = 512
TICK_INTERVAL = 2000

TEMPLATES = {
    "orders_customer_group": (
        "SELECT c.nationkey, COUNT(*) AS cnt, SUM(o.totalprice) AS total"
        " FROM orders o JOIN customer c ON o.custkey = c.custkey"
        " WHERE o.totalprice < {} GROUP BY c.nationkey",
        (100000.0, 250000.0, 400000.0),
    ),
    "orders_customer_project": (
        "SELECT o.orderkey, c.name FROM orders o JOIN customer c ON o.custkey = c.custkey"
        " WHERE o.orderdate < {}",
        (19930101, 19950101, 19970101),
    ),
    "customer_nation_group": (
        "SELECT n.regionkey, COUNT(*) AS cnt FROM customer c"
        " JOIN nation n ON c.nationkey = n.nationkey"
        " WHERE c.acctbal > {} GROUP BY n.regionkey",
        (0.0, 2500.0, 5000.0),
    ),
    "partsupp_supplier_group": (
        "SELECT s.nationkey, COUNT(*) AS cnt, SUM(ps.availqty) AS qty"
        " FROM partsupp ps JOIN supplier s ON ps.suppkey = s.suppkey"
        " WHERE ps.availqty < {} GROUP BY s.nationkey",
        (2500, 5000, 9000),
    ),
}


def distinct_queries() -> list[str]:
    return [sql.format(lit) for sql, lits in TEMPLATES.values() for lit in lits]


def draw_queries(rng: random.Random, n: int) -> list[str]:
    """``n`` queries in seeded order. Every run of twelve consecutive
    requests holds each template-literal pair once, so the mix, and the
    latency a run reports, does not drift with the draw."""
    out: list[str] = []
    while len(out) < n:
        block = distinct_queries()
        rng.shuffle(block)
        out.extend(block)
    return out[:n]


# -- the server process --------------------------------------------------------


class ServerProcess:
    """One ``perfbench.server_child`` process and its client."""

    def __init__(self, seed: int, trace: bool, tag: str):
        self.history = WORK / f"history-{seed}-{tag}.jsonl"
        self.stats_path = WORK / f"server-{seed}-{tag}.json"
        for path in (self.history, self.stats_path):
            path.unlink(missing_ok=True)
        cmd = [sys.executable, "-m", "perfbench.server_child", "--seed", str(seed),
               "--history", str(self.history), "--stats", str(self.stats_path),
               "--trace", str(int(trace))]
        self.proc = subprocess.Popen(cmd, env=child_env(seed), stdout=subprocess.PIPE,
                                     text=True)
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=30)
            raise RuntimeError(f"server child exited with code {self.proc.returncode}")
        self.ready = json.loads(line)
        self.port = int(self.ready["port"])
        self.client = ProgressClient("127.0.0.1", self.port, timeout=30.0)

    def wait_ping(self, timeout_s: float = 30.0) -> None:
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                if self.client.ping():
                    return
            except ServiceError:
                if time.monotonic() > deadline:
                    raise
            time.sleep(0.01)

    def stop(self) -> dict:
        """Shut the service down, wait for the process, return its stats."""
        try:
            self.client.shutdown_server()
        except ServiceError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        stats = json.loads(self.stats_path.read_text()) if self.stats_path.exists() else {}
        for path in (self.history, self.stats_path):
            path.unlink(missing_ok=True)
        return stats

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


# -- the watch stream ----------------------------------------------------------


@dataclass
class Frame:
    arrival: float
    seq: int
    state: str
    progress: float
    work_done: float
    row_count: int
    elapsed_s: float
    delta: bool
    nbytes: int


class Watcher(threading.Thread):
    """Reads one all-sessions delta watch stream and timestamps every frame."""

    def __init__(self, port: int):
        super().__init__(name="perfbench-watch", daemon=True)
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=None)
        self.sock.sendall(encode({"op": "watch", "delta": True}))
        self.lock = threading.Lock()
        self.frames: dict[str, list[Frame]] = defaultdict(list)
        self.terminal: dict[str, float] = {}
        self.bad: list[str] = []

    def run(self) -> None:
        bases: dict[str, dict] = {}
        with self.sock.makefile("rb") as stream:
            for line in stream:
                arrival = time.perf_counter()
                event = decode(line)
                kind = event.get("event")
                if kind == "end":
                    return
                is_delta = kind == "delta"
                if is_delta:
                    sid = str(event["session_id"])
                    try:
                        wire = apply_delta(bases[sid], event)
                    except (KeyError, ValueError) as exc:
                        self.bad.append(f"{sid}: delta not applicable: {exc}")
                        continue
                elif kind == "snapshot":
                    wire = event["session"]
                    sid = str(wire["session_id"])
                else:
                    continue
                bases[sid] = wire
                frame = Frame(arrival, int(wire["seq"]), wire["state"], float(wire["progress"]),
                              float(wire["work_done"]), int(wire["row_count"]),
                              float(wire["elapsed_s"]), is_delta, len(line))
                with self.lock:
                    self.frames[sid].append(frame)
                    if frame.state in ("finished", "cancelled", "failed"):
                        self.terminal[sid] = arrival

    def done(self, sids) -> bool:
        with self.lock:
            return all(sid in self.terminal for sid in sids)

    def in_flight(self, sids) -> int:
        with self.lock:
            return sum(1 for sid in sids if sid not in self.terminal)

    def close(self) -> None:
        self.join(timeout=30)
        self.sock.close()


# -- the load generator --------------------------------------------------------


@dataclass
class Request:
    sql: str
    due: float
    sent: float = 0.0
    rtt: float = 0.0
    sid: str | None = None
    refused: bool = False
    error: str | None = None


@dataclass
class Step:
    rate: float
    seconds: float
    requests: list[Request] = field(default_factory=list)
    p95_ms: float = 0.0
    refusals: int = 0
    backlog: int = 0
    achieved: float = 0.0

    @property
    def ok(self) -> bool:
        return (self.p95_ms <= LATENCY_LIMIT_MS and self.refusals == 0
                and self.backlog <= max(3.0, 0.1 * self.rate * self.seconds))


def submit_schedule(client: ProgressClient, queries: list[str], rate: float,
                    watcher: Watcher, submitted: list[str]) -> tuple[list[Request], int, int]:
    """Submit ``queries`` open loop at ``rate``; returns the requests and the
    number of sessions in flight before the first and after the last submit.
    ``submitted`` collects every admitted session id."""
    begin = time.perf_counter() + 0.01
    start_inflight = watcher.in_flight(submitted)
    requests = []
    for i, sql in enumerate(queries):
        req = Request(sql, begin + i / rate)
        delay = req.due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        req.sent = time.perf_counter()
        try:
            req.sid = client.submit(sql)["session_id"]
            submitted.append(req.sid)
        except ServiceError as exc:
            req.refused = exc.code == "admission"
            req.error = str(exc)
        req.rtt = time.perf_counter() - req.sent
        requests.append(req)
    return requests, start_inflight, watcher.in_flight(submitted)


def wait_terminal(watcher: Watcher, requests: list[Request], timeout_s: float) -> None:
    sids = [r.sid for r in requests if r.sid]
    deadline = time.perf_counter() + timeout_s
    while not watcher.done(sids) and time.perf_counter() < deadline:
        time.sleep(0.01)


def latency_ms(watcher: Watcher, req: Request, now: float) -> float:
    """Due time to terminal frame; a refused or unfinished request counts as
    missing the limit (its latency so far, at least the grace period)."""
    if req.refused or req.sid is None:
        return math.inf
    arrival = watcher.terminal.get(req.sid)
    return ((arrival if arrival is not None else now) - req.due) * 1000.0


def run_step(client, watcher, submitted, rng, rate: float, seconds: float) -> Step:
    step = Step(rate, seconds)
    n = max(int(round(rate * seconds)), 1)
    reqs, before, after = submit_schedule(client, draw_queries(rng, n), rate, watcher,
                                          submitted)
    step.requests = reqs
    step.backlog = after - before
    wait_terminal(watcher, reqs, 1.0)
    now = time.perf_counter()
    lats = sorted(latency_ms(watcher, r, now) for r in reqs)
    # A decision statistic over the step's requests (plain nearest rank).
    step.p95_ms = lats[max(math.ceil(0.95 * len(lats)) - 1, 0)]
    step.refusals = sum(r.refused for r in reqs)
    ends = [watcher.terminal[r.sid] for r in reqs if r.sid in watcher.terminal]
    if ends:
        step.achieved = len(ends) / (max(ends) - reqs[0].due)
    say(f"ladder {rate:.2f} qps: p95 {step.p95_ms:.1f} ms, refusals {step.refusals}, "
        f"backlog {step.backlog:+d}, achieved {step.achieved:.2f} qps, "
        f"{'ok' if step.ok else 'FAIL'} (n={n})")
    return step


def run_ladder(client, watcher, submitted, rng, step_s: float) -> list[Step]:
    steps: list[Step] = []
    lo = hi = None
    rate = LADDER_START
    while rate <= LADDER_MAX:
        wait_terminal(watcher, [r for s in steps for r in s.requests], 5.0)
        step = run_step(client, watcher, submitted, rng, rate, step_s)
        steps.append(step)
        if not step.ok:
            hi = rate
            break
        lo = rate
        rate *= LADDER_FACTOR
    for _ in range(BISECTIONS if hi is not None else 0):
        wait_terminal(watcher, [r for s in steps for r in s.requests], 5.0)
        mid = math.sqrt((lo or REF_RATE) * hi)
        step = run_step(client, watcher, submitted, rng, mid, step_s)
        steps.append(step)
        if step.ok:
            lo = mid
        else:
            hi = mid
    return steps


# -- reference runs ----------------------------------------------------------


def reference_runs(seed: int) -> tuple[dict, float, float, dict]:
    """In-process runs of every distinct query on the service's data: the
    row counts the service must reproduce, monitored/unmonitored wall time
    (best of three) and the table checksums."""
    catalog = generate_tpch(sf=server_child.SCALE_FACTOR, seed=seed, skew_z=server_child.SKEW_Z)
    rows: dict[str, int] = {}
    mon_total = unmon_total = 0.0
    for sql in distinct_queries():
        best = {False: math.inf, True: math.inf}
        for _ in range(3):
            for monitored in (False, True):
                plan = repro.sql.compile_select(catalog, sql).plan
                bus = None
                if monitored:
                    bus = TickBus(TICK_INTERVAL)
                    ProgressMonitor(plan, mode="once", bus=bus)
                started = time.perf_counter()
                result = ExecutionEngine(plan, bus=bus, collect_rows=False).run(
                    batch_size=QUANTUM_ROWS)
                best[monitored] = min(best[monitored], time.perf_counter() - started)
                rows[sql] = result.row_count
        mon_total += best[True]
        unmon_total += best[False]
    return rows, mon_total, unmon_total, catalog_checksums(catalog, server_child.TABLES)


# -- the workload --------------------------------------------------------------


def check_session(outcome: Outcome, watcher: Watcher, req: Request, expected_rows: int) -> None:
    if req.sid is None:
        outcome.check(False, f"submit failed: {req.error}")
        return
    frames = watcher.frames.get(req.sid, [])
    last = frames[-1] if frames else None
    problems = []
    if last is None or req.sid not in watcher.terminal:
        problems.append("no terminal frame (timeout)")
    else:
        if last.state != "finished":
            problems.append(f"ended {last.state}")
        if last.progress != 1.0:
            problems.append(f"final progress {last.progress}")
        if last.row_count != expected_rows:
            problems.append(f"row_count {last.row_count} != reference {expected_rows}")
    if any(b.seq <= a.seq for a, b in zip(frames, frames[1:])):
        problems.append("seq not strictly increasing")
    if any(b.progress < a.progress for a, b in zip(frames, frames[1:])):
        problems.append("progress decreased")
    outcome.check(not problems, f"session {req.sid}: " + "; ".join(problems))


def run(seed: int, seconds: float, tracer) -> Outcome:
    outcome = Outcome()
    WORK.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    walls = []
    generate = []
    server = None
    try:
        for i in range(SETUP_STARTS):
            started = time.perf_counter()
            server = ServerProcess(seed, trace=tracer is not None and i == SETUP_STARTS - 1,
                                   tag="traced" if tracer is not None else "untraced")
            server.wait_ping()
            walls.append(time.perf_counter() - started)
            generate.append(server.ready["generate_s"])
            if i < SETUP_STARTS - 1:
                server.stop()
        setup_s = median(walls)
        say(f"setup: service started {len(walls)}x (data generation, catalog, start until "
            "ping) in " + ", ".join(f"{w:.3f}" for w in walls) + " s")
        expected, mon_s, unmon_s, tables = reference_runs(seed)
        say("table checksums: " + " ".join(f"{k}={v}" for k, v in tables.items()))

        watcher = Watcher(server.port)
        watcher.start()
        client = server.client
        submitted: list[str] = []
        measure_start = time.perf_counter()
        # Warm-up: every distinct query once, so history priors exist.
        warm, _, _ = submit_schedule(client, distinct_queries(), REF_RATE, watcher, submitted)
        wait_terminal(watcher, warm, GRACE_S)
        ref, _, _ = submit_schedule(client, draw_queries(rng, REF_REQUESTS), REF_RATE,
                                    watcher, submitted)
        wait_terminal(watcher, ref, GRACE_S)
        # Peak memory is taken at the reference load: sessions stay
        # registered, so the ladder's varying query count would move it.
        server.proc.send_signal(signal.SIGUSR1)
        for req in warm + ref:
            check_session(outcome, watcher, req, expected[req.sql])
        left = seconds - (time.perf_counter() - measure_start)
        steps = run_ladder(client, watcher, submitted, rng,
                           max(left / LADDER_STEPS, MIN_STEP_S))
        stats = server.stop()
        server = None
        watcher.close()
        outcome.check(stats["tables"] == tables,
                      "the service generated different tables than the load generator")
        outcome.check(not watcher.bad, f"watch stream: {watcher.bad[:3]}")
    finally:
        if server is not None:
            server.kill()

    now = time.perf_counter()
    done = [r for r in ref if r.sid in watcher.terminal]
    lat = [latency_ms(watcher, r, now) for r in ref]
    first = [(watcher.frames[r.sid][0].arrival - r.due) * 1000.0 for r in done]
    late = [(r.sent - r.due) * 1000.0 for r in ref]
    report_timing("latency_ms (due to terminal frame, reference rate)", lat, "ms")
    report_timing("first_frame_ms (due to first frame, reference rate)", first, "ms")
    report_timing("submit_rtt_ms (reference rate)", [r.rtt * 1000.0 for r in ref], "ms")
    report_timing("loadgen.late_ms (send time after due time, reference rate)", late, "ms")
    # Past capacity a submit waits on the busy server, so the generator
    # falls behind; latency still counts from the due time.
    report_timing("loadgen.late_ms (ladder)",
                  [(r.sent - r.due) * 1000.0 for s in steps for r in s.requests], "ms")
    passing = [s for s in steps if s.ok]
    best = max(passing, key=lambda s: s.rate) if passing else None
    if best is None:
        say("max_rate_qps: no ladder step met the limits; reporting the reference phase")
    max_rate = best.achieved if best is not None else len(done) / (
        max(watcher.terminal[r.sid] for r in done) - ref[0].due)
    ref_frames = [watcher.frames[r.sid] for r in done]
    gnm = sum(f[-1].work_done for f in ref_frames)
    template_of = {sql.format(lit): name for name, (sql, lits) in TEMPLATES.items()
                   for lit in lits}
    for name in TEMPLATES:
        mine = [r for r in done if template_of[r.sql] == name]
        say(f"template {name}: latency p50 "
            f"{median(latency_ms(watcher, r, now) for r in mine):.2f} ms, "
            f"progress mae {progress_mae([watcher.frames[r.sid] for r in mine]):.6f} "
            f"(n={len(mine)})")
    outcome.e2e = {
        "setup_s": setup_s,
        # Per session: getnext calls over its time from first step to finish.
        "gnm_per_s": median(f[-1].work_done / f[-1].elapsed_s for f in ref_frames),
        "monitor_overhead": mon_s / unmon_s,
        "progress_mae": progress_mae(ref_frames),
        "latency_ms_p50": percentile(lat, 50.0),
        "peak_rss_mb": stats["peak_rss_mb_ref"],
    }
    say(f"max_rate_qps {max_rate:.6g} 1/s")
    ref_sids = [r.sid for r in done]
    outcome.fingerprint = {
        "tables": tables,
        "rows": sorted(f[-1].row_count for f in ref_frames),
        "executor.gnm_calls": gnm,
        # One frame is published per monitor snapshot.
        "frames": sum(len(f) for f in ref_frames),
        "progress_mae": repr(outcome.e2e["progress_mae"]),
    }
    if tracer is not None:
        # Spans and counters were recorded in the server process.
        tracer.spans.extend(Span(*s) for s in stats["spans"])
        for qid, name, n in stats["counts"]:
            tracer.counts[qid, name] += n
        for qid, name, t in stats["totals"]:
            tracer.totals[qid, name] += t
        outcome.layers = layers(tracer, watcher, ref, ref_sids, lat, first, late,
                                median(generate), unmon_s)
        outcome.layers["service.max_rate_qps"] = max_rate
        outcome.check(
            outcome.layers["core.snapshot_count"] == outcome.fingerprint["frames"],
            "monitor snapshots and published frames disagree",
        )
    return outcome


def progress_mae(sessions: list[list[Frame]]) -> float:
    """Mean over sessions of the mean |reported − actual progress| over the
    frames the watcher saw; actual progress is work done over the final
    work done."""
    maes = []
    for frames in sessions:
        total = frames[-1].work_done
        if total <= 0:
            continue
        maes.append(sum(abs(f.progress - f.work_done / total) for f in frames) / len(frames))
    return sum(maes) / len(maes) if maes else 0.0


def layers(tracer, watcher, ref, ref_sids, lat, first, late, generate_s, unmon_s) -> dict:
    out = dict.fromkeys(PER_LAYER, 0.0)
    sids = set(ref_sids)
    out.update(query_path_layers(tracer, sids, [[sid] for sid in ref_sids]))
    admitted = {s.qid: s.start for s in tracer.select("server.admitted")}
    first_step: dict[str, float] = {}
    for s in tracer.select("server.step", sids):
        first_step[s.qid] = min(first_step.get(s.qid, math.inf), s.start)
    queue_wait = [(first_step[q] - admitted[q]) * 1000.0 for q in first_step if q in admitted]
    steps = [s.end - s.start for s in tracer.select("server.step", sids)]
    encodes = [s.end - s.start for s in tracer.select("server.encode", sids)]
    frames = [f for sid in ref_sids for f in watcher.frames[sid]]
    gaps = sum(
        b.seq - a.seq - 1
        for sid in ref_sids
        for a, b in zip(watcher.frames[sid], watcher.frames[sid][1:])
    )
    out.update({
        "datagen.generate_s": generate_s,
        "executor.unmonitored_s": unmon_s,
        "executor.gnm_calls": sum(watcher.frames[sid][-1].work_done for sid in ref_sids),
        "service.latency_ms_p95": percentile(lat, 95.0) or 0.0,
        "service.first_frame_ms_p50": percentile(first, 50.0) or 0.0,
        "service.first_frame_ms_p95": percentile(first, 95.0) or 0.0,
        "server.submit_rtt_ms_p50": percentile([r.rtt * 1000.0 for r in ref], 50.0) or 0.0,
        "server.queue_wait_ms_p50": percentile(queue_wait, 50.0) or 0.0,
        "server.queue_wait_ms_p95": percentile(queue_wait, 95.0) or 0.0,
        "server.step_ms_p50": (percentile(steps, 50.0) or 0.0) * 1000.0,
        "server.step_ms_p95": (percentile(steps, 95.0) or 0.0) * 1000.0,
        "server.steps_per_query": len(steps) / len(ref_sids),
        "server.encode_us_p50": (percentile(encodes, 50.0) or 0.0) * 1e6,
        "server.frames_published": len(encodes),
        "server.frames_received": len(frames),
        "server.delta_share": sum(f.delta for f in frames) / len(frames),
        "server.wire_bytes_per_query": sum(f.nbytes for f in frames) / len(ref_sids),
        "server.seq_gaps": gaps,
        "robust.prior_ms": tracer.median_ms("robust.prior"),
        "robust.append_ms": tracer.median_ms("robust.append"),
        "loadgen.late_ms_p95": percentile(late, 95.0) or 0.0,
        "loadgen.late_ms_max": max(late),
    })
    return out
