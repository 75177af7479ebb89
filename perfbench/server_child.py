"""The progress service under test, in its own process.

    python3 -m perfbench.server_child --seed N --history PATH --stats PATH [--trace 1]

Generates the service's TPC-H catalog from the seed, starts a
``ProgressService`` on an ephemeral port, prints one JSON line (``port``,
data generation time) and serves until a ``shutdown`` request. It then
writes its peak memory, its table checksums and, when traced, its spans
to ``--stats``; ``SIGUSR1`` records its peak memory so far. With ``--trace 1`` the tracing wrappers are installed
here, in the process whose layers they measure.
"""

from __future__ import annotations

import argparse
import json
import signal
import time
from pathlib import Path

from perfbench.common import catalog_checksums, peak_rss_mb
from perfbench.stats import Span

SCALE_FACTOR = 0.01
SKEW_Z = 1.0
WORKERS = 2
TABLES = ("region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem")


def install_server_tracing(tracer) -> None:
    """Wrap the service's layers where the service resolves them."""
    import repro.server.service
    from repro.robust.store import HistoryStore
    from repro.server.service import ProgressService
    from repro.server.session import QuerySession
    from repro.server.wire import SessionStreamEncoder
    from perfbench.trace import install_query_path

    install_query_path(tracer)
    tracer.patch(QuerySession, "step", "server.step", qid_of=lambda args: args[0].session_id)
    tracer.patch(SessionStreamEncoder, "encode", "server.encode",
                 qid_of=lambda args: args[1].session_id)
    tracer.patch(repro.server.service, "write_frame", "server.write_frame")
    tracer.patch(HistoryStore, "prior", "robust.prior")
    tracer.patch(HistoryStore, "append_run", "robust.append")
    tracer.after(QuerySession, "__init__", lambda session: tracer.wrap_plan_hooks(session.plan))

    def traced_submit(submit):
        traced = tracer.wrap(submit, "server.submit")

        def submit_sql(service, *args, **kwargs):
            session = traced(service, *args, **kwargs)
            now = time.perf_counter()
            # Admission mark: queue wait runs from here to the first step.
            tracer.spans.append(Span(0, "server.admitted", now, now, 0, session.session_id))
            return session

        return submit_sql

    tracer.install(ProgressService, "submit_sql", traced_submit)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--history", type=Path, required=True)
    parser.add_argument("--stats", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    from repro import generate_tpch
    from repro.server.service import ProgressService

    started = time.perf_counter()
    catalog = generate_tpch(sf=SCALE_FACTOR, seed=args.seed, skew_z=SKEW_Z)
    generate_s = time.perf_counter() - started
    tracer = None
    if args.trace:
        from perfbench.trace import Tracer

        tracer = Tracer()
        install_server_tracing(tracer)
    service = ProgressService(
        catalog,
        port=0,
        workers=WORKERS,
        sample_fraction=0.0,
        max_parallel=0,
        history_path=args.history,
    )
    marks: dict[str, float] = {}
    # The load generator signals the end of its reference phase.
    signal.signal(signal.SIGUSR1,
                  lambda _signum, _frame: marks.setdefault("peak_rss_mb_ref", peak_rss_mb()))
    _, port = service.start()
    print(json.dumps({"port": port, "generate_s": generate_s}), flush=True)
    try:
        service.serve_forever()
    finally:
        service.shutdown()
        service.scheduler.shutdown(wait=True)
    stats = {
        "peak_rss_mb": peak_rss_mb(),
        **marks,
        # Computed after serving, so they stay out of the timed start-up.
        "tables": catalog_checksums(catalog, TABLES),
        "spans": [],
        "counts": [],
        "totals": [],
    }
    if tracer is not None:
        tracer.restore()
        stats["spans"] = [list(span) for span in tracer.spans]
        stats["counts"] = [[qid, name, n] for (qid, name), n in tracer.counts.items()]
        stats["totals"] = [[qid, name, t] for (qid, name), t in tracer.totals.items()]
    args.stats.write_text(json.dumps(stats))


if __name__ == "__main__":
    main()
