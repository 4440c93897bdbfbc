"""Outside-in span tracer for the ``unlearn`` layers.

The tracer never edits the library. It replaces public functions and
methods with timing wrappers, at the names their callers actually look
up: ``core`` and ``distributed`` import ``pgd`` and ``publish`` by name,
so each of those module attributes is patched as well as the defining
one. Methods are patched on ``Dataset``, ``LossModel`` and
``ParamSpace``. Everything is restored when the ``installed`` context
exits.

Spans are kept in memory as flat arrays (name id, start, end, parent
index, probe value) and written out once at the end. The library is
single-threaded, so the spans of one call tree nest and siblings never
overlap: a span's self time is its duration minus the summed durations
of its direct children, which equals the part of its interval that the
children cover.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np

import unlearn.core
import unlearn.data
import unlearn.distributed
import unlearn.harness
import unlearn.losses
import unlearn.optimizer


def _rows(args, result):
    return float(args[1].size)


def _bound(args, result):
    # ParamSpace.project returns its (float) input unchanged unless the
    # ball constraint binds, so identity tells whether it bound.
    return 0.0 if result is args[1] else 1.0


def _iterations(args, result):
    return float(args[3].iterations)


def _bytes_copied(args, result):
    old = args[0]
    return float(sum(
        new.nbytes for new, prev in ((result.features, old.features),
                                     (result.labels, old.labels))
        if not np.shares_memory(new, prev)))


# (span name, probe, [(owner, attribute), ...]). The first owner defines
# the original callable; the others are by-name imports of the same
# object and receive the same wrapper.
TARGETS = (
    ("data.apply", _bytes_copied, [(unlearn.data.Dataset, "apply")]),
    ("losses.grad", _rows,
     [(unlearn.losses.LossModel, "empirical_gradient")]),
    ("losses.loss", None, [(unlearn.losses.LossModel, "empirical_loss")]),
    ("losses.project", _bound, [(unlearn.losses.ParamSpace, "project")]),
    ("optimizer.pgd", _iterations,
     [(unlearn.optimizer, "pgd"), (unlearn.core, "pgd"),
      (unlearn.distributed, "pgd"), (unlearn.harness, "pgd")]),
    ("core.resolve", None, [(unlearn.core.UnlearnConfig, "resolve")]),
    ("core.publish", None,
     [(unlearn.core, "publish"), (unlearn.distributed, "publish")]),
    ("core.learn", None, [(unlearn.core, "learn")]),
    ("core.unlearn", None, [(unlearn.core, "unlearn")]),
    ("core.fresh_mean", None,
     [(unlearn.core, "fresh_mean"), (unlearn.harness, "fresh_mean")]),
    ("distributed.dist_learn", None,
     [(unlearn.distributed, "dist_learn"), (unlearn.harness, "dist_learn")]),
    ("distributed.dist_unlearn", None,
     [(unlearn.distributed, "dist_unlearn"),
      (unlearn.harness, "dist_unlearn")]),
    ("distributed.reservoir_update", None,
     [(unlearn.distributed, "reservoir_update")]),
    ("distributed.select_best", None,
     [(unlearn.distributed, "select_best")]),
    ("distributed.dist_publish", None,
     [(unlearn.distributed, "dist_publish")]),
    ("harness.run_chain", None, [(unlearn.harness, "run_chain")]),
    ("harness.prepare", None, [(unlearn.harness, "prepare")]),
    ("harness.reference_minimum", None,
     [(unlearn.harness, "reference_minimum")]),
    ("harness.reference_optimum", None,
     [(unlearn.harness, "reference_optimum")]),
    ("harness.closed_form", None,
     [(unlearn.losses, "closed_form_ridge_optimizer"),
      (unlearn.harness, "closed_form_ridge_optimizer")]),
)

NAMES = tuple(name for name, _, _ in TARGETS)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.name = array("h")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._stack = [-1]

    def wrap(self, name: str, fn, probe=None):
        nid = NAMES.index(name)
        names, parents, starts, ends, values = (
            self.name, self.parent, self.start, self.end, self.value)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            values.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if probe is not None:
                values[idx] = probe(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for name, probe, owners in TARGETS:
                owner, attr = owners[0]
                wrapper = self.wrap(name, vars(owner)[attr], probe)
                for owner, attr in owners:
                    saved.append((owner, attr, vars(owner)[attr]))
                    setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "value": np.frombuffer(self.value, dtype=float).copy(),
        }

    def save(self, path):
        """Write the spans as an uncompressed ``.npz`` archive."""
        np.savez(path, names=np.array(NAMES), **self.arrays())


def self_times(spans: dict) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    duration = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    covered = np.bincount(spans["parent"][has_parent],
                          weights=duration[has_parent],
                          minlength=duration.size)
    return duration - covered
