"""The benchmark tracer's patch targets stay where it looks for them.

``perfbench/tracer.py`` wraps library functions at every name their
callers look up. Entering its patch context raises if one of those names
has been renamed or deleted, so this test catches that in the unit suite.
"""

import importlib.util
from pathlib import Path

from unlearn import harness
from unlearn.harness import ExperimentConfig

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_target_and_restores_it():
    tracing = load_tracer()
    originals = [(owner, attr, vars(owner)[attr])
                 for _, _, owners in tracing.TARGETS
                 for owner, attr in owners]
    tracer = tracing.Tracer()
    with tracer.installed():
        for owner, attr, original in originals:
            assert vars(owner)[attr] is not original, attr
        harness.run_chain(ExperimentConfig(n=40, dim=2, update_length=2,
                                           iters=2))
        harness.run_chain(ExperimentConfig(n=40, dim=2, update_length=2,
                                           iters=1, mode="distributed",
                                           delta=0.01, copies=1))
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, attr
    # The harness reaches every chain step through the patched names.
    names = [tracing.NAMES[i] for i in tracer.name]
    under_chain = {names[i] for i, p in enumerate(tracer.parent)
                   if p >= 0 and names[p] == "harness.run_chain"}
    for step in ("core.learn", "core.unlearn", "distributed.dist_learn",
                 "distributed.dist_unlearn", "harness.prepare"):
        assert step in under_chain, step
    # The distributed edit reaches its per-layer spans by name too.
    under_edit = {names[i] for i, p in enumerate(tracer.parent)
                  if p >= 0 and names[p] == "distributed.dist_unlearn"}
    for layer in ("distributed.reservoir_update", "distributed.select_best",
                  "distributed.dist_publish"):
        assert layer in under_edit, layer
