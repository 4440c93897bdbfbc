"""Run one workload in this process and print its result line.

Started by ``run.py``, which fixes the BLAS thread count before numpy
is imported; ``unlearn`` is imported from the checkout's ``src``.
Prints an ``info`` JSON line (environment, informational figures, the
sha256 of the published parameter stream) and then the result line. A
failed correctness check goes to stderr and exits 1 without a result
line.

Untraced run (``--trace 0``): passes of learn plus the whole seeded
edit stream, each followed by standalone set-ups, repeated while the
next pass still fits in ``--seconds`` and at least MIN_PASSES times.
Every pass of one seed repeats the same computation, so the published
stream and every count must repeat exactly. An edit's latency is the
mean of its repeats, and the percentiles are over the stream's edits.
When the machine's speed changes during a run, the mean moves in
proportion to the time spent at each speed; pooled samples, or a median
of the repeats, jump from one speed to the other when the edits' costs
cluster, as they do on the distributed workload.

Traced run (``--trace 1``): the first TRACE_EDITS edits of the same
stream, in four passes: untraced (warm-up), traced, untraced, traced.
All passes must publish byte-identical streams and the two traced
passes must give identical counts. The prefix keeps the in-memory span
store small: an edit of the distributed workload makes ~15k spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import unlearn  # noqa: E402

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up is timed standalone, at least SETUP_REPEATS times, and after
# each pass topped up to SETUP_SHARE of the run so far; its median is
# reported. A single learn can take a few milliseconds, too short to
# time once, and spreading the repeats over the run lets them see the
# same machine speed as the edits. The cold learn of the first pass is
# left out.
SETUP_REPEATS = 5
SETUP_SHARE = 0.1
# The repeat check needs a second pass.
MIN_PASSES = 2
TRACE_EDITS = 60
OUT_DIR = ROOT / ".perfbench"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


class CheckFailed(Exception):
    pass


def percentile_ms(values, q) -> float:
    return float(np.percentile(values, q)) * 1e3


def untraced_run(spec, inp, seed, seconds):
    start = time.perf_counter()
    deadline = start + seconds
    passes, setups = [], []
    cycle = 0.0
    while (len(passes) < MIN_PASSES
           or time.perf_counter() + cycle <= deadline):
        passes.append(spec.run_pass(inp, seed))
        if len(passes) == 1:
            # Read before the set-ups and repeats, whose number depends
            # on the clock: the peak then covers one fixed computation.
            peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                           / 1024)
        while (len(setups) < SETUP_REPEATS or sum(setups)
               < SETUP_SHARE * (time.perf_counter() - start)):
            setups.append(spec.setup_s(inp, seed))
        if len(passes) == 1:
            cycle = time.perf_counter() - start
    first = passes[0]
    failures = spec.check(inp, first.outputs)
    for p in passes[1:]:
        if p.digest != first.digest or p.grads != first.grads:
            failures.append("a repeated pass of the same seed published "
                            "another stream or spent another budget")
            break
    if failures:
        raise CheckFailed(failures)
    lat = np.mean([p.latencies for p in passes], axis=0)
    ops = np.array(first.ops)
    edits = lat.size * len(passes)
    metrics = {
        "setup_s": float(np.median(setups)),
        "edit_p50_ms": percentile_ms(lat, 50),
        "edit_p90_ms": percentile_ms(lat, 90),
        "add_p50_ms": percentile_ms(lat[ops == "add"], 50),
        "delete_p50_ms": percentile_ms(lat[ops == "delete"], 50),
        "edits_per_s": edits / sum(p.loop_s for p in passes),
        "grads_per_edit": first.grads / len(first.latencies),
        "peak_rss_mb": peak_rss_mb,
    }
    attempted = len(inp.updates) * len(passes)
    failed = sum(p.failed for p in passes)
    info = {
        "passes": len(passes),
        "edits": edits,
        "setups": len(setups),
        "excess_risk": spec.excess_risk(inp, first.outputs),
        "failed_edit_ratio": failed / attempted,
        "output_digest": first.digest,
    }
    return metrics, attempted, failed, info


def traced_run(spec, inp, seed, workload):
    # Untraced warm-up (its outputs are checked), then traced, untraced,
    # traced: the overhead ratio compares warm passes, and a linear
    # drift of the machine's speed cancels out of it.
    warmup = spec.run_pass(inp, seed)
    failures = spec.check(inp, warmup.outputs)
    tracer = Tracer()
    traced = []
    with tracer.installed():
        traced.append(spec.run_pass(inp, seed))
    base = spec.run_pass(inp, seed)
    with tracer.installed():
        traced.append(spec.run_pass(inp, seed))
    if any(p.digest != warmup.digest for p in traced + [base]):
        failures.append("the traced run published another parameter "
                        "stream than the untraced run")
    spans = tracer.arrays()
    per_pass = [layers.layer_metrics(spans, [p]) for p in traced]
    for name in layers.EXACT_COUNTS:
        if per_pass[0][name] != per_pass[1][name]:
            failures.append(f"count {name} differs between repeated passes: "
                            f"{per_pass[0][name]} != {per_pass[1][name]}")
    if any(p.grads != base.grads for p in traced):
        failures.append("traced and untraced passes spent another budget")
    if failures:
        raise CheckFailed(failures)
    metrics = layers.layer_metrics(spans, traced)
    metrics["trace.overhead_ratio"] = (
        sum(p.loop_s for p in traced) / len(traced) / base.loop_s)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{workload}.npz")
    passes = [warmup, base] + traced
    attempted = len(inp.updates) * len(passes)
    failed = sum(p.failed for p in passes)
    info = {
        "passes": len(passes),
        "spans": int(spans["name"].size),
        "failed_edit_ratio": failed / attempted,
        "output_digest": base.digest,
    }
    return metrics, attempted, failed, info


def result_object(trace, metrics, attempted, failed) -> dict:
    """The result line: the metrics BENCHMARK.json lists for this mode."""
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in listed}
    if names != set(metrics):
        raise ValueError("metrics do not match BENCHMARK.json: "
                         f"{sorted(names ^ set(metrics))}")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in listed},
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(unlearn.__file__).resolve().parents:
        print(f"unlearn was imported from {unlearn.__file__}, not from "
              f"{src}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    inp = spec.inputs(args.seed, "full",
                      edits=TRACE_EDITS if args.trace else None)
    try:
        if args.trace:
            metrics, attempted, failed, info = traced_run(
                spec, inp, args.seed, args.workload)
        else:
            metrics, attempted, failed, info = untraced_run(
                spec, inp, args.seed, args.seconds)
    except CheckFailed as exc:
        for failure in exc.args[0]:
            print(f"{args.workload}: correctness check failed: {failure}",
                  file=sys.stderr)
        return 1
    try:
        result = result_object(args.trace, metrics, attempted, failed)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                env=environment())
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
