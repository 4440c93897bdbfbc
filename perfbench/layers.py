"""Per-layer metrics of a traced run, from spans and chain reports.

Spans are attributed to the edit whose clock interval contains their
start. For the single-machine and distributed workloads the benchmark
times each edit itself. ``run_chain`` hides its rounds, so for the
harness workload round i runs from the start of its ``core.unlearn``
span to the start of the next one (the last round ends with
``run_chain``), which matches the interval the harness's own
``wall_time_s`` covers. Set-up (learn, round 0) is never attributed.

Every ``*_per_edit`` and ``*_per_round`` figure is a total over the
traced edits divided by their number; the harness workload's edits are
its rounds 1..L. Layers a workload does not reach read 0.

The ``distributed.*`` counts come from ``PartitionedState.last_report``:
changed positions and touched partitions are summed over the copies,
``touched_ratio`` divides touched partitions by copies x K, and
``partition_iters_per_edit`` is the mean iteration count of a touched
partition (``DistConfig.partition_iters``).
"""

from __future__ import annotations

import numpy as np

from tracer import NAMES, self_times

# Counts that must repeat exactly on a repeated pass of the same seed.
EXACT_COUNTS = (
    "optimizer.iters_per_edit",
    "losses.grad_calls_per_edit",
    "distributed.touched_partitions_per_edit",
    "harness.closed_form_calls_per_round",
)

REFERENCES = (NAMES.index("harness.reference_minimum"),
              NAMES.index("harness.reference_optimum"))


def _windows(spans, passes):
    """Start, end and op of every completed edit of ``passes``."""
    starts, ends, ops = [], [], []
    name, parent, start = spans["name"], spans["parent"], spans["start"]
    chains = np.flatnonzero((name == NAMES.index("harness.run_chain"))
                            & (parent < 0))
    unlearns = name == NAMES.index("core.unlearn")
    for p in passes:
        ops.extend(p.ops)
        if p.windows is not None:
            starts.extend(w[0] for w in p.windows)
            ends.extend(w[1] for w in p.windows)
            continue
        # A harness pass is the one top-level run_chain span inside it.
        lo, hi = p.interval
        chain = chains[(start[chains] >= lo) & (start[chains] <= hi)][0]
        rounds = start[np.flatnonzero(unlearns & (parent == chain))]
        starts.extend(rounds)
        ends.extend(list(rounds[1:]) + [spans["end"][chain]])
    return np.array(starts), np.array(ends), np.array(ops)


def layer_metrics(spans: dict, passes: list) -> dict:
    """Every per-layer metric over the edits of ``passes``."""
    starts, ends, ops = _windows(spans, passes)
    edits = starts.size
    adds = int(np.sum(ops == "add"))
    deletes = edits - adds
    start, name = spans["start"], spans["name"]
    duration = spans["end"] - start
    own = self_times(spans)
    which = np.searchsorted(starts, start, side="right") - 1
    inside = (which >= 0) & (start < ends[np.maximum(which, 0)])
    is_add = inside & (ops[np.maximum(which, 0)] == "add")

    def sel(span_name):
        return inside & (name == NAMES.index(span_name))

    def ms(span_name, per=edits, mask=None):
        m = sel(span_name) if mask is None else sel(span_name) & mask
        return float(duration[m].sum()) * 1e3 / per if per else 0.0

    def self_ms(span_name):
        return float(own[sel(span_name)].sum()) * 1e3 / edits

    def count(span_name):
        return int(np.sum(sel(span_name))) / edits

    def total(span_name):
        return float(spans["value"][sel(span_name)].sum())

    grad_calls = int(np.sum(sel("losses.grad")))
    projections = int(np.sum(sel("losses.project")))
    iterations = total("optimizer.pgd")
    pgd_self = float(own[sel("optimizer.pgd")].sum())

    parent_name = np.where(spans["parent"] >= 0, name[spans["parent"]], -1)
    top_reference = (inside & np.isin(name, REFERENCES)
                     & ~np.isin(parent_name, REFERENCES))
    chains = np.flatnonzero(name == NAMES.index("harness.run_chain"))
    chain_children = inside & np.isin(spans["parent"], chains)
    chain_self = (float(np.sum(ends - starts) - duration[chain_children].sum())
                  if chains.size else 0.0)

    reports = [r for p in passes for r in p.outputs.get("reports", ())]
    copies = [c for r in reports for c in r.copies]
    touched = sum(len(c.touched) for c in copies)
    touching = [c.iterations for c in copies if c.touched]
    partitions = (len(copies) * copies[0].modified_per_partition.size
                  if copies else 1)

    return {
        "data.apply_ms_per_edit": ms("data.apply"),
        "data.apply_add_ms": ms("data.apply", adds, is_add),
        "data.apply_delete_ms": ms("data.apply", deletes, ~is_add),
        "data.bytes_copied_per_edit": total("data.apply") / edits,
        "losses.grad_calls_per_edit": grad_calls / edits,
        "losses.grad_ms_per_edit": ms("losses.grad"),
        "losses.grad_us_per_call": (ms("losses.grad", grad_calls) * 1e3
                                    if grad_calls else 0.0),
        "losses.grad_rows_per_edit": total("losses.grad") / edits,
        "losses.project_ms_per_edit": ms("losses.project"),
        "losses.project_bind_ratio": (total("losses.project") / projections
                                      if projections else 0.0),
        "losses.loss_ms_per_edit": ms("losses.loss"),
        "optimizer.pgd_calls_per_edit": count("optimizer.pgd"),
        "optimizer.iters_per_edit": iterations / edits,
        "optimizer.pgd_ms_per_edit": ms("optimizer.pgd"),
        "optimizer.pgd_self_ms_per_edit": self_ms("optimizer.pgd"),
        "optimizer.self_us_per_iter": (pgd_self * 1e6 / iterations
                                       if iterations else 0.0),
        "core.resolve_ms_per_edit": ms("core.resolve"),
        "core.publish_ms_per_edit": ms("core.publish"),
        "core.unlearn_self_ms_per_edit": self_ms("core.unlearn"),
        "distributed.reservoir_ms_per_edit":
            ms("distributed.reservoir_update"),
        "distributed.changed_positions_per_edit":
            sum(int(c.modified_per_partition.sum()) for c in copies) / edits,
        "distributed.touched_partitions_per_edit": touched / edits,
        "distributed.touched_ratio": touched / partitions,
        "distributed.partition_iters_per_edit": (sum(touching) / len(touching)
                                                 if touching else 0.0),
        "distributed.select_best_ms_per_edit":
            ms("distributed.select_best"),
        "distributed.unlearn_self_ms_per_edit":
            self_ms("distributed.dist_unlearn"),
        "harness.reference_ms_per_round":
            float(duration[top_reference].sum()) * 1e3 / edits,
        "harness.fresh_mean_ms_per_round": ms("core.fresh_mean"),
        "harness.closed_form_calls_per_round": count("harness.closed_form"),
        "harness.run_chain_self_ms_per_round": chain_self * 1e3 / edits,
        "trace.edit_ms_per_edit": float(np.sum(ends - starts)) * 1e3 / edits,
    }
