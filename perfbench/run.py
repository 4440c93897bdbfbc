"""Edit-stream benchmark for ``unlearn``.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1]

Each workload runs in its own worker process (``worker.py``), for
isolation and so that ``peak_rss_mb`` is that workload's alone. The
launcher fixes the BLAS/OpenMP thread count at ``BLAS_THREADS`` before
numpy is loaded, because the edit loop is one closed-loop client and a
single thread gives the steadiest figures on a small shared machine.

With ``--workload`` the worker's lines are passed through and the last
line is the result object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``. Without ``--workload`` every workload runs in turn
and a table of every metric, by name and unit, is printed. A failed
correctness check, a missing ``src/unlearn`` or a worker that overruns
exits non-zero without a result line. Spans and per-run results are
written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 170


def run_worker(workload: str, args) -> tuple[int, list]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: worker overran {WORKER_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Edit-stream benchmark for unlearn.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # subprocess.run kills its worker when an exception unwinds it; make
    # a TERM signal unwind the same way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "unlearn" / "__init__.py").is_file():
        print(f"no unlearn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload:
        code, lines = run_worker(args.workload, args)
        if code == 0:
            print("\n".join(lines))
        return code

    status = 0
    for workload in WORKLOADS:
        code, lines = run_worker(workload, args)
        if code:
            status = code
            continue
        result = json.loads(lines[-1])
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:42s} {metric['value']:>16.6g} {metric['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
