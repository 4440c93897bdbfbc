"""The benchmark's per-round split of a harness chain stays visible.

``perfbench/layers.py`` cuts the harness workload into rounds at the
``core.unlearn`` spans that sit directly under the top-level
``harness.run_chain`` span. If a refactor moved the chain's edits out
from under ``run_chain``, or made a round edit more than once, every
per-round figure would silently change meaning; this test fails first.
"""

from unlearn import harness
from unlearn.harness import ExperimentConfig

from test_tracer_targets import load_tracer


def test_gap_chain_has_one_edit_span_per_round_under_run_chain():
    tracing = load_tracer()
    tracer = tracing.Tracer()
    config = ExperimentConfig(n=200, dim=4, mode="regularized_strong",
                              update_strategy="random", update_length=7,
                              iters=3)
    with tracer.installed():
        records = harness.run_chain(config, compute_gap=True)
    assert len(records) == 8
    names = [tracing.NAMES[i] for i in tracer.name]
    parents = list(tracer.parent)
    chains = [i for i, name in enumerate(names)
              if name == "harness.run_chain" and parents[i] < 0]
    assert len(chains) == 1
    edits = [i for i, name in enumerate(names)
             if name == "core.unlearn" and parents[i] == chains[0]]
    assert len(edits) == config.update_length
    assert names.count("core.unlearn") == config.update_length
    # Rounds follow one another: each edit starts after the last ended.
    starts = [tracer.start[i] for i in edits]
    ends = [tracer.end[i] for i in edits]
    assert all(end <= start for end, start in zip(ends, starts[1:]))
