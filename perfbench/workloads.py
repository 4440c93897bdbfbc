"""The benchmark's workloads: seeded inputs, one timed pass, checks.

Every workload is a single-process closed loop with one client: the
next edit is sent only after the previous one has published, because
each edit depends on the state the one before left behind. Inputs come
from ``gen_synthetic_dataset`` and ``gen_adversarial_sequence`` before
anything is timed, so the chain receives only generated inputs.

Why each workload exists, and which layers it stresses:

ridge_secret_churn
    Ridge, ``strong_secret``, n=2e4, d=50, alternating extreme adds and
    deletes. The edit time splits between ``Dataset.apply`` (copying
    the arrays) and ``LossModel.empirical_gradient``; a data store or a
    ridge sufficient-statistics path should show here.
dist_ridge_churn
    ``dist_params`` with n=500, d=20, three copies. Thousands of tiny
    ``pgd`` iterations on partitions of about 23 points per edit: the
    per-iteration Python overhead of ``optimizer``/``losses``.
    ``Dataset.apply`` is negligible, so a data-store change should not
    move it. iters=1 and delta=1e-3 (not 5 and 1e-4) bring an edit from
    about 0.4 s to 60-100 ms, so that one run holds three passes of 120
    edits each (two when the machine is slow): the cost of an edit
    varies widely with the partitions it touches, and fewer distinct
    edits let the seed move the figures.
harness_gap_regstrong
    ``run_chain(..., compute_gap=True)``, ``regularized_strong`` ridge,
    n=2e4, d=20, random stream. Most of a round is the harness oracles
    (``fresh_mean`` and two closed-form solves). The only workload
    through ``harness`` and ``RegularizedLoss``.

The ridge dataset is kept to 8 MB: with 40 MB arrays the run-to-run
spread of edit latency on a shared 2-core host reached 0.25, against
about 0.1 at this size. Every layer keeps the same O(n d) cost shape.

A fourth workload, logistic ``strong_perfect`` on a random stream, was
dropped so that the others get longer runs in the same time budget:
the host's speed changes over tens of seconds, and the distributed
workload's figures spread past their bounds in 30-second runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from unlearn import core, distributed, harness
from unlearn.data import gen_adversarial_sequence, gen_synthetic_dataset
from unlearn.losses import ParamSpace, RidgeLoss

clock = time.perf_counter

# False-alarm probability of each side of each noise test (see
# ``_check_noise``).
NOISE_TAIL = 1e-9
REL_TOL = 1e-9


@dataclass
class Pass:
    """One learn plus one full edit stream, as the benchmark saw it.

    ``latencies``, ``ops`` and ``windows`` describe the edits that
    completed, in stream order; ``windows`` is the clock interval of
    each. The harness workload cannot see its rounds from outside, so
    it leaves them to the tracer (``None``); ``interval`` brackets the
    whole pass so the tracer's spans can be matched to it. ``outputs``
    is whatever ``check`` reads.
    """

    latencies: list
    ops: list
    loop_s: float
    grads: int
    digest: str
    failed: int
    windows: list | None
    interval: tuple
    outputs: dict = field(repr=False)


@dataclass
class Inputs:
    data: object
    loss: object
    config: object
    updates: tuple


def _digest(vectors) -> str:
    h = hashlib.sha256()
    for v in vectors:
        h.update(np.ascontiguousarray(v, dtype=float).tobytes())
    return h.hexdigest()


def _check_noise(published, sources, sigma, failures):
    """Check that each published parameter is its source plus N(0, s^2 I).

    Each round's noise norm must lie within ``gaussian_tail_radius``, a
    bound that only catches gross corruption (about 250 sigma at d=50,
    against a typical norm of 7 sigma). The pooled statistic
    sum_i |p_i - s_i|^2 / sigma^2 over R rounds of dimension d follows
    chi^2(k), k = d R; the Laurent-Massart bounds
    P(X >= k + 2 sqrt(k x) + 2x) <= e^-x and P(X <= k - 2 sqrt(k x))
    <= e^-x, with e^-x = NOISE_TAIL, test it on both sides, so missing,
    halved or doubled noise fails at the benchmark's sizes.
    """
    dim = published[0].size
    norms = np.array([np.linalg.norm(p - s)
                      for p, s in zip(published, sources)])
    radius = core.gaussian_tail_radius(sigma, dim, NOISE_TAIL)
    far = np.flatnonzero(~(norms <= radius * (1 + REL_TOL)))
    if far.size:
        failures.append(f"published parameter is further than {radius:.3g} "
                        f"from its source at rounds {far[:5].tolist()}")
    k = norms.size * dim
    x = -math.log(NOISE_TAIL)
    low, high = k - 2 * math.sqrt(k * x), k + 2 * math.sqrt(k * x) + 2 * x
    pooled = float(np.sum((norms / sigma) ** 2))
    if not low <= pooled <= high:
        failures.append("published noise is not N(0, sigma^2 I): "
                        f"sum |p - s|^2 / sigma^2 = {pooled:.6g} over {k} "
                        f"coordinates, outside [{low:.6g}, {high:.6g}]")


def _finite(published, failures):
    bad = [i for i, theta in enumerate(published)
           if not np.all(np.isfinite(theta))]
    if bad:
        failures.append(f"non-finite published parameter at rounds {bad[:5]}")


def _chain_pass(learn, step, updates, record):
    """Learn, then send each edit once the previous one has published.

    ``step(state, update)`` returns the next state and is timed per
    edit; ``record(state)`` runs after learn and after each edit,
    outside the timing. An edit the library rejects with ``ValueError``
    counts as failed and leaves the state as it was. Only this frame holds a state, so no dataset outlives
    the round that replaced it. Returns the final state and the timing
    fields of a ``Pass``.
    """
    begin = clock()
    state = learn()
    learn_budget = state.budget
    record(state)
    latencies, ops, windows = [], [], []
    failed = 0
    start = clock()
    for update in updates:
        t0 = clock()
        try:
            state = step(state, update)
        except ValueError:
            failed += 1
            continue
        t1 = clock()
        latencies.append(t1 - t0)
        ops.append(update.op)
        windows.append((t0, t1))
        record(state)
    loop_s = clock() - start
    return state, dict(latencies=latencies, ops=ops,
                       loop_s=loop_s, grads=state.budget - learn_budget,
                       failed=failed, windows=windows,
                       interval=(begin, clock()))


class CoreWorkload:
    """A single-machine ridge chain driven through ``learn``/``unlearn``.

    ``mode`` must keep the secret iterate: the check compares it with a
    fresh retrain.
    """

    def __init__(self, mode, lam, epsilon, delta, iters, strategy, sizes):
        self.mode = mode
        self.lam = lam
        self.epsilon = epsilon
        self.delta = delta
        self.iters = iters
        self.strategy = strategy
        self.sizes = sizes

    def inputs(self, seed: int, size: str, edits: int | None = None
               ) -> Inputs:
        n, dim, length = self.sizes[size]
        length = min(length, edits or length)
        data = gen_synthetic_dataset(n, dim, seed=seed)
        loss = RidgeLoss(ParamSpace(dim, 1.0), lam=self.lam)
        config = core.UnlearnConfig(self.mode, self.epsilon, self.delta,
                                    self.iters)
        updates = gen_adversarial_sequence(data, length, self.strategy,
                                           seed=seed)
        return Inputs(data, loss, config, tuple(updates))

    def setup_s(self, inp: Inputs, seed: int) -> float:
        t0 = clock()
        core.learn(inp.data, inp.loss, inp.config, seed=seed)
        return clock() - t0

    def run_pass(self, inp: Inputs, seed: int) -> Pass:
        loss, config = inp.loss, inp.config
        # Per-round vectors only: holding the states would hold one
        # dataset copy per round.
        out = {"published": [], "secret": [], "sizes": []}

        def record(state):
            out["published"].append(state.theta_pub)
            out["secret"].append(state.theta_hat)
            out["sizes"].append(state.data.size)

        state, timed = _chain_pass(
            lambda: core.learn(inp.data, loss, config, seed=seed),
            lambda s, u: core.unlearn(s, u, loss, config),
            inp.updates, record)
        out.update(budget=state.budget, final_data=state.data)
        return Pass(digest=_digest(out["published"]), outputs=out, **timed)

    def check(self, inp: Inputs, out: dict) -> list:
        failures = []
        loss, config, n0 = inp.loss, inp.config, inp.data.size
        sched = config.resolve(loss, n0, inp.data.dim)
        published, secret = out["published"], out["secret"]
        _finite(published, failures)
        _check_noise(published, secret, sched.sigma, failures)
        expected = sched.train_iters(n0) * n0 + sum(
            sched.update_iters(i) * n
            for i, n in enumerate(out["sizes"][1:], start=1))
        if out["budget"] != expected:
            failures.append(f"budget {out['budget']} != schedule total "
                            f"{expected}")
        eff = sched.effective_loss
        bound = core.mean_gap_bound(eff.lipschitz, eff.strong_convexity,
                                    sched.gamma, sched.n, config.iters)
        mean = core.fresh_mean(out["final_data"], loss, config).theta
        gap = float(np.linalg.norm(secret[-1] - mean))
        if not gap <= bound * (1 + REL_TOL):
            failures.append(f"retrain gap {gap:.3g} exceeds bound "
                            f"{bound:.3g}")
        return failures

    def excess_risk(self, inp: Inputs, out: dict) -> float:
        data = out["final_data"]
        fmin, _ = harness.reference_minimum(inp.loss, data, inp.config.iters)
        return float(inp.loss.empirical_loss(data, out["published"][-1])
                     - fmin)


class DistWorkload:
    """The subsampled chain driven through ``dist_learn``/``dist_unlearn``."""

    def __init__(self, lam, sample_exponent, iters, epsilon, delta, copies,
                 strategy, sizes):
        self.lam = lam
        self.sample_exponent = sample_exponent
        self.iters = iters
        self.epsilon = epsilon
        self.delta = delta
        self.copies = copies
        self.strategy = strategy
        self.sizes = sizes

    def inputs(self, seed: int, size: str, edits: int | None = None
               ) -> Inputs:
        n, dim, length = self.sizes[size]
        length = min(length, edits or length)
        data = gen_synthetic_dataset(n, dim, seed=seed)
        loss = RidgeLoss(ParamSpace(dim, 1.0), lam=self.lam)
        config = distributed.dist_params(
            n, dim, loss, self.sample_exponent, self.iters, self.epsilon,
            self.delta, copies=self.copies)
        updates = gen_adversarial_sequence(data, length, self.strategy,
                                           seed=seed)
        return Inputs(data, loss, config, tuple(updates))

    def setup_s(self, inp: Inputs, seed: int) -> float:
        t0 = clock()
        distributed.dist_learn(inp.data, inp.loss, inp.config, seed=seed)
        return clock() - t0

    def run_pass(self, inp: Inputs, seed: int) -> Pass:
        loss, config = inp.loss, inp.config
        out = {key: [] for key in ("published", "sources", "shapes",
                                   "budgets", "reports")}

        def record(state):
            out["published"].append(state.theta_pub)
            # The copy the chain should have published: recomputed here,
            # outside the timing, so the check sees its choice too.
            averages = [c.average() for c in state.copies]
            best = distributed.select_best(averages, state.data, loss)
            out["sources"].append(averages[best])
            out["shapes"].append([(c.features.shape, c.labels.shape)
                                  for c in state.copies])
            out["budgets"].append(state.budget)
            if state.last_report is not None:
                out["reports"].append(state.last_report)

        state, timed = _chain_pass(
            lambda: distributed.dist_learn(inp.data, loss, config,
                                           seed=seed),
            lambda s, u: distributed.dist_unlearn(s, u, loss, config),
            inp.updates, record)
        out["final_data"] = state.data
        return Pass(digest=_digest(out["published"]), outputs=out, **timed)

    def check(self, inp: Inputs, out: dict) -> list:
        failures = []
        config = inp.config
        b, k = config.sample_size, config.num_partitions
        chunk = b // k
        published = out["published"]
        _finite(published, failures)
        _check_noise(published, out["sources"], config.sigma, failures)
        budgets = out["budgets"]
        learn_cost = config.copies * k * config.train_iters * chunk
        if budgets[0] != learn_cost:
            failures.append(f"learn budget {budgets[0]} != {learn_cost}")
        for rnd, shapes in enumerate(out["shapes"]):
            if any(f != (b, config.dim) or l != (b,) for f, l in shapes):
                failures.append(f"a copy lost its {b} rows at round {rnd}")
                break
        for rnd, report in enumerate(out["reports"], start=1):
            spent = [c.gradient_evaluations for c in report.copies]
            if budgets[rnd] - budgets[rnd - 1] != sum(spent):
                failures.append(f"round {rnd} budget does not match its "
                                "report")
            over = [g for c, g in zip(report.copies, spent)
                    if g > config.n * report.total_iters
                    + len(c.touched) * chunk]
            if over:
                failures.append(f"round {rnd} spent {over[0]} point-"
                                "gradients, over n T_i plus one sweep per "
                                "touched partition")
        return failures

    def excess_risk(self, inp: Inputs, out: dict) -> float:
        data = out["final_data"]
        fmin, _ = harness.reference_minimum(inp.loss, data,
                                            inp.config.train_iters)
        return float(inp.loss.empirical_loss(data, out["published"][-1])
                     - fmin)


class HarnessWorkload:
    """``harness.run_chain`` with the retrain-gap oracle on every round."""

    def __init__(self, sizes, **fields):
        self.sizes = sizes
        self.fields = fields

    def inputs(self, seed: int, size: str, edits: int | None = None
               ) -> Inputs:
        n, dim, length = self.sizes[size]
        length = min(length, edits or length)
        config = harness.ExperimentConfig(n=n, dim=dim, update_length=length,
                                          seed=seed, **self.fields)
        # The same call run_chain makes, so the ops line up with rounds.
        data, loss, updates = harness.prepare(config)
        return Inputs(data, loss, config, tuple(updates))

    def setup_s(self, inp: Inputs, seed: int) -> float:
        # The round-0 record times learn plus its oracles, after prepare.
        config = inp.config.override(update_length=0)
        return harness.run_chain(config, compute_gap=True)[0].wall_time_s

    def run_pass(self, inp: Inputs, seed: int) -> Pass:
        begin = clock()
        records = harness.run_chain(inp.config, compute_gap=True)
        interval = (begin, clock())
        latencies = [r.wall_time_s for r in records[1:]]
        canonical = json.dumps([r.to_dict() for r in records],
                               sort_keys=True, separators=(",", ":"))
        return Pass(
            latencies=latencies,
            ops=[u.op for u in inp.updates], loop_s=sum(latencies),
            grads=records[-1].budget - records[0].budget,
            digest=hashlib.sha256(canonical.encode()).hexdigest(),
            failed=0, windows=None, interval=interval,
            outputs={"records": records})

    def check(self, inp: Inputs, out: dict) -> list:
        failures = []
        cfg = inp.config.core_config()
        n0 = inp.data.size
        sched = cfg.resolve(inp.loss, n0, inp.data.dim)
        eff = sched.effective_loss
        gap_bound = core.mean_gap_bound(eff.lipschitz, eff.strong_convexity,
                                        sched.gamma, sched.n, cfg.iters)
        drift_bound = core.drift_bound(eff.lipschitz, eff.strong_convexity,
                                       sched.gamma, sched.n, cfg.iters)
        for r in out["records"]:
            values = (r.excess_risk, r.drift, r.mean_gap)
            if not all(v is not None and math.isfinite(v) for v in values):
                failures.append(f"round {r.round}: non-finite record")
                continue
            if not r.mean_gap <= gap_bound * (1 + REL_TOL):
                failures.append(f"round {r.round}: mean gap {r.mean_gap:.3g}"
                                f" exceeds {gap_bound:.3g}")
            if not r.drift <= drift_bound * (1 + REL_TOL) + r.drift_tolerance:
                failures.append(f"round {r.round}: drift {r.drift:.3g} "
                                f"exceeds {drift_bound:.3g}")
            iters = (sched.train_iters(n0) if r.round == 0
                     else sched.update_iters(r.round))
            points = n0 if r.round == 0 else r.n_points
            if r.grads_round != iters * points:
                failures.append(f"round {r.round}: spent {r.grads_round} "
                                f"point-gradients, schedule says "
                                f"{iters * points}")
        return failures

    def excess_risk(self, inp: Inputs, out: dict) -> float:
        return out["records"][-1].excess_risk


# Sizes are (n, d, edits per pass) for the benchmark ("full") and for
# the smoke test ("tiny"). ``inputs(..., edits=k)`` gives the first k
# edits of the same seeded stream. The tiny streams are long enough
# (d (edits + 1) > 4 ln(1/NOISE_TAIL)) for the pooled noise test to
# have a lower bound above 0.
WORKLOADS = {
    "ridge_secret_churn": CoreWorkload(
        "strong_secret", lam=1.0, epsilon=1.0, delta=0.05, iters=5,
        strategy="churn",
        sizes={"full": (20_000, 50, 400), "tiny": (400, 5, 24)}),
    "dist_ridge_churn": DistWorkload(
        lam=1.0, sample_exponent=1.0, iters=1, epsilon=1.0, delta=1e-3,
        copies=3, strategy="churn",
        sizes={"full": (500, 20, 120), "tiny": (40, 3, 40)}),
    "harness_gap_regstrong": HarnessWorkload(
        mode="regularized_strong", loss_kind="ridge", lam=1.0, epsilon=1.0,
        delta=0.05, iters=5, update_strategy="random",
        sizes={"full": (20_000, 20, 100), "tiny": (400, 5, 12)}),
}
