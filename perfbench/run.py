"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs one workload (``embedded_tpch``, ``service_open_loop`` or
``parallel_p2``) in its own process, with ``PYTHONHASHSEED`` and every
input derived from ``--seed``, prints the workload's report and, as the
last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics listed in
``BENCHMARK.json``; ``--trace 1`` runs the workload untraced and then
traced, reports the per-layer metrics (the ungated user metrics, such as
``gnm_per_s``, from the untraced run) plus the tracing overhead (traced
minus untraced user metrics), and fails the run unless the traced run
reproduced the untraced run's rows, getnext counts, snapshot count and
progress error exactly. Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The whole run, both processes of a traced run included, ends by then.
DEADLINE_S = 170.0


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(2)


def run_child(workload: str, seed: int, seconds: int, trace: int, deadline: float,
              prefix: str = "") -> dict:
    from perfbench.common import child_env

    cmd = [
        sys.executable, "-m", "perfbench.workload",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    # A session of its own, so a timeout also stops the server child and
    # the parallel workers the workload started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(seed), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{workload} (trace={trace}) did not finish in time")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = out.splitlines()
    for line in lines[:-1]:
        print(prefix + line, flush=True)
    if proc.returncode != 0 or not lines:
        fail(f"{workload} (trace={trace}) exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} (trace={trace}) printed no result line")


def metric_names(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def pick(values: dict, names: dict[str, str]) -> dict:
    missing = sorted(set(names) - set(values))
    if missing:
        fail(f"workload did not report {missing}")
    return {name: {"value": values[name], "unit": unit} for name, unit in names.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn a termination request into an exception, so the children stop too.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no repro sources under {ROOT / 'src'}; run from a source checkout")
    sys.path.insert(0, str(ROOT))
    from perfbench.workload import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)}")
    deadline = time.monotonic() + DEADLINE_S

    if not args.trace:
        res = run_child(args.workload, args.seed, args.seconds, 0, deadline)
        result = {
            "correct": res["correct"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": pick(res["e2e"], metric_names("end_to_end")),
        }
    else:
        base = run_child(args.workload, args.seed, args.seconds, 0, deadline, "[untraced] ")
        traced = run_child(args.workload, args.seed, args.seconds, 1, deadline, "[traced] ")
        layers = dict(traced["layers"])
        # Ungated user metrics are reported as measured without tracing.
        layers.update({name: value for name, value in base["e2e"].items()
                       if name not in metric_names("end_to_end")})
        for name, value in base["e2e"].items():
            layers[f"trace.overhead.{name}"] = traced["e2e"][name] - value
            print(f"tracing overhead on {name}: {traced['e2e'][name] - value:+.6g} "
                  f"(untraced {value:.6g}, traced {traced['e2e'][name]:.6g})", flush=True)
        same = base["fingerprint"] == traced["fingerprint"]
        print("traced run reproduces the untraced run: "
              + ("yes" if same else f"NO\n  untraced {base['fingerprint']}\n"
                 f"  traced   {traced['fingerprint']}"), flush=True)
        result = {
            "correct": base["correct"] and traced["correct"] and same,
            "attempted": base["attempted"] + traced["attempted"] + 1,
            "failed": base["failed"] + traced["failed"] + (0 if same else 1),
            "metrics": pick(layers, metric_names("per_layer")),
        }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
