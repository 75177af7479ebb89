"""One workload in one process: ``python3 -m perfbench.workload ...``.

``run.py`` starts this with ``PYTHONHASHSEED`` derived from the seed and
``src`` on the path; it prints report lines and, last, a JSON line that
``run.py`` turns into the benchmark's result.
"""

from __future__ import annotations

import argparse

from perfbench.common import WORK

WORKLOADS = ("embedded_tpch", "service_open_loop", "parallel_p2")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from perfbench.trace import Tracer

        tracer = Tracer()
    if args.workload == "embedded_tpch":
        from perfbench import embedded as module
    elif args.workload == "service_open_loop":
        from perfbench import service as module
    else:
        from perfbench import parallel as module
    try:
        outcome = module.run(args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        tracer.dump(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
    outcome.emit()


if __name__ == "__main__":
    main()
