"""Eleven acceptance checks, one printed status line each.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines appear.
Every check enforces both its property and its own wall-clock budget.
"""
import math
import time

import numpy as np
from scipy import stats

from helpers import ball_points
from unlearn.core import (
    UnlearnConfig,
    drift_bound,
    fresh_mean,
    gaussian_mechanism_epsilon,
    learn,
    mean_gap_bound,
    perfect_drift_bound,
    unlearn,
)
from unlearn.data import (
    DataPoint,
    Dataset,
    Update,
    gen_adversarial_sequence,
    gen_synthetic_dataset,
)
from unlearn.distributed import (
    dist_learn,
    dist_params,
    dist_unlearn,
    reservoir_update,
    select_best,
)
from unlearn.harness import ExperimentConfig, emit_report, run_chain
from unlearn.losses import ParamSpace, RidgeLoss, closed_form_ridge_optimizer
from unlearn.optimizer import GDConfig, contraction_factor, pgd

DELTA1 = math.exp(-1.0)


def finish(label, t0, budget_s, failures):
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget_s
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")
    assert not failures, failures[:5]
    assert elapsed < budget_s, f"over budget: {elapsed:.1f}s >= {budget_s}s"


def ridge(dim, lam=1.0, radius=1.0):
    return RidgeLoss(ParamSpace(dim, radius), lam=lam)


def test_criterion_01_contraction():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(101)
    loss_by_dim = {d: ridge(d, lam=0.05, radius=25.0) for d in (1, 5, 20)}
    for k in range(50):
        dim = (1, 5, 20)[k % 3]
        loss = loss_by_dim[dim]
        data = gen_synthetic_dataset(200, dim, noise=0.3, seed=100 + k)
        star = closed_form_ridge_optimizer(data, 0.05, loss.space)
        gamma = contraction_factor(loss)
        theta = ball_points(rng, 1, dim, radius=25.0)[0]
        start = np.linalg.norm(theta - star)
        step = GDConfig.for_loss(loss, 1)
        for t in range(1, 51):
            theta = pgd(loss, data, theta, step).theta
            if np.linalg.norm(theta - star) > gamma ** t * start * (1 + 1e-9):
                failures.append((k, t))
    finish("criterion-01 contraction", t0, 10.0, failures)


def test_criterion_02_sensitivity():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(202)
    loss = ridge(5)
    limit = 2.0 * loss.lipschitz / (1.0 * 100) * (1 + 1e-9)
    for k in range(1000):
        data = gen_synthetic_dataset(100, 5, noise=0.2, seed=2000 + k)
        if k % 2 == 0:
            x = rng.standard_normal(5)
            x /= np.linalg.norm(x)
            upd = Update("add", DataPoint(x, rng.choice([-1.0, 1.0])))
        else:
            i = rng.integers(data.size)
            upd = Update("delete", DataPoint(data.features[i],
                                             data.labels[i]))
        star = closed_form_ridge_optimizer(data, 1.0, loss.space)
        moved = closed_form_ridge_optimizer(data.apply(upd), 1.0, loss.space)
        if np.linalg.norm(moved - star) > limit:
            failures.append((k, upd.op))
    finish("criterion-02 sensitivity", t0, 30.0, failures)


def test_criterion_03_secret_drift_certificate():
    t0 = time.perf_counter()
    failures = []
    loss = ridge(5)
    lip, m = loss.lipschitz, loss.strong_convexity
    for iters in (1, 3, 5):
        cfg = UnlearnConfig("strong_secret", 1.0, DELTA1, iters)
        sched = cfg.resolve(loss, 500, 5)
        d_limit = drift_bound(lip, m, sched.gamma, 500, iters) * (1 + 1e-9)
        g_limit = mean_gap_bound(lip, m, sched.gamma, 500, iters) * (1 + 1e-9)
        for seed in range(20):
            data = gen_synthetic_dataset(500, 5, noise=0.1, seed=300 + seed)
            updates = gen_adversarial_sequence(data, 100, seed=330 + seed)
            state = learn(data, loss, cfg, seed=seed)
            for rnd in range(1, 101):
                state = unlearn(state, updates[rnd - 1], loss, cfg)
                star = closed_form_ridge_optimizer(state.data, 1.0,
                                                   loss.space)
                drift = np.linalg.norm(state.theta_hat - star)
                mean = fresh_mean(state.data, loss, cfg).theta
                gap = float(np.linalg.norm(mean - state.theta_hat))
                eps = gaussian_mechanism_epsilon(gap, sched.sigma, DELTA1)
                if drift > d_limit or gap > g_limit or eps > 1 + 1e-9:
                    failures.append((iters, seed, rnd, drift, gap, eps))
    finish("criterion-03 drift-certificate", t0, 120.0, failures)


def test_criterion_04_perfect_mode_high_probability():
    t0 = time.perf_counter()
    loss = ridge(5)
    cfg = UnlearnConfig("strong_perfect", 1.0, DELTA1, 3)
    sched = cfg.resolve(loss, 500, 5)
    data = gen_synthetic_dataset(500, 5, noise=0.1, seed=400)
    updates = gen_adversarial_sequence(data, 100, seed=401)
    # One fixed data/update stream; only the publication noise varies.
    stars = []
    current = data
    for upd in updates:
        current = current.apply(upd)
        stars.append(closed_form_ridge_optimizer(current, 1.0, loss.space))
    limit = perfect_drift_bound(loss.lipschitz, loss.strong_convexity,
                                sched.gamma, 500, 3, sched.sigma, 5) \
        * (1 + 1e-9)
    clean = 0
    for trial in range(200):
        state = learn(data, loss, cfg, seed=10_000 + trial)
        good = True
        for rnd in range(1, 101):
            state = unlearn(state, updates[rnd - 1], loss, cfg)
            if np.linalg.norm(state.theta_hat - stars[rnd - 1]) > limit:
                good = False
                break
        clean += good
    frequency = clean / 200.0
    failures = [] if frequency >= 1.0 - DELTA1 / 2.0 else [frequency]
    finish("criterion-04 perfect-mode", t0, 300.0, failures)


def test_criterion_05_schedules():
    t0 = time.perf_counter()
    failures = []
    loss = ridge(2)
    for xi in (1.0, 2.0):
        cfg = UnlearnConfig("regularized_weak", 1.0, DELTA1, 2,
                            schedule_exponent=xi)
        sched = cfg.resolve(loss, 100, 2)
        for i in range(1, 101):
            if sched.update_iters(i) != i ** (2 * int(xi)) * 2:
                failures.append(("weak", xi, i))
    for mode in ("strong_secret", "regularized_strong", "strong_perfect"):
        sched = UnlearnConfig(mode, 1.0, DELTA1, 3).resolve(loss, 100, 2)
        first = sched.update_iters(1)
        for i in range(1, 10_001):
            if sched.update_iters(i) / first > 1.0 + math.log2(i):
                failures.append((mode, i))
    finish("criterion-05 schedules", t0, 1.0, failures)


def test_criterion_06_reservoir_marginals():
    t0 = time.perf_counter()
    values = np.arange(1, 51) / 64.0  # exact binary fractions
    base = Dataset(values[:, None], values)
    prefix = [
        Update("add", DataPoint([51 / 64], 51 / 64)),
        Update("delete", DataPoint([3 / 64], 3 / 64)),
        Update("add", DataPoint([7 / 64], 7 / 64)),   # now multiplicity 2
        Update("delete", DataPoint([63 / 64], 63 / 64)),  # absent: no-op
        Update("add", DataPoint([52 / 64], 52 / 64)),
    ]
    steps = []
    current = base
    for upd in prefix:
        current = current.apply(upd)
        steps.append((upd, current))
    assert current.size == 52
    multiplicity = np.zeros(64, dtype=int)
    for label in current.labels:
        multiplicity[round(label * 64)] += 1
    valid = np.flatnonzero(multiplicity)
    positions = np.random.default_rng(606).choice(100, 20, replace=False)
    counts = np.zeros((20, 64), dtype=np.int64)
    replays = 100_000
    for t in range(replays):
        rng = np.random.default_rng([607, t])
        indices, data = rng.integers(50, size=(1, 100)), base
        for upd, edited in steps:
            indices, _ = reservoir_update(indices, upd, data, edited, [rng])
            data = edited
        seen = np.rint(current.labels[indices[0, positions]] * 64).astype(int)
        counts[np.arange(20), seen] += 1
    expected = replays * multiplicity[valid] / current.size
    failures = []
    for p in range(20):
        if counts[p].sum() != replays or counts[p].sum() != \
                counts[p, valid].sum():
            failures.append(("support", p))
            continue
        result = stats.chisquare(counts[p, valid], f_exp=expected)
        if result.pvalue < 0.01 / 20:
            failures.append((p, result.pvalue))
    finish("criterion-06 reservoir-marginals", t0, 120.0, failures)


def test_criterion_07_modified_count_bound():
    t0 = time.perf_counter()
    values = np.arange(1, 101) / 128.0
    base = Dataset(values[:, None], values)
    added = base.apply(Update("add", DataPoint([101 / 128], 101 / 128)))
    deletions = {}
    limit = (10.0 * 100 / 100) * math.log(1.0 / math.exp(-2.0))
    within = 0
    trials = 10_000
    for t in range(trials):
        rng = np.random.default_rng([707, t])
        indices = rng.integers(100, size=(1, 100))
        if t % 2 == 0:
            upd = Update("add", DataPoint([101 / 128], 101 / 128))
            edited = added
        else:
            v = values[t % 100]
            upd = Update("delete", DataPoint([v], v))
            if t % 100 not in deletions:
                deletions[t % 100] = base.apply(upd)
            edited = deletions[t % 100]
        _, (changed,) = reservoir_update(indices, upd, base, edited, [rng])
        within += changed.size <= limit
    frequency = within / trials
    failures = [] if frequency >= 1.0 - math.exp(-2.0) else [frequency]
    finish("criterion-07 modified-count", t0, 30.0, failures)


def test_criterion_08_distributed_recursion():
    t0 = time.perf_counter()
    failures = []
    loss = ridge(5)
    data = gen_synthetic_dataset(400, 5, noise=0.1, seed=808)
    config = dist_params(400, 5, loss, 1.0, 1, 1.0, 1.0 / 400, copies=3)
    assert (config.sample_size, config.num_partitions) == (400, 20)
    updates = gen_adversarial_sequence(data, 50, strategy="random", seed=809)
    state = dist_learn(data, loss, config, seed=810)
    gamma, chunk = config.gamma, config.sample_size // config.num_partitions
    move = 4.0 * loss.lipschitz * config.num_partitions \
        / (loss.strong_convexity * config.sample_size)

    def partition_star(copy, j):
        rows = slice(j * chunk, (j + 1) * chunk)
        sub = Dataset(copy.features[rows], copy.labels[rows])
        return closed_form_ridge_optimizer(sub, 1.0, loss.space)

    stars = [[partition_star(c, j) for j in range(config.num_partitions)]
             for c in state.copies]
    residual = [[float(np.linalg.norm(c.thetas[j] - stars[ci][j]))
                 for j in range(config.num_partitions)]
                for ci, c in enumerate(state.copies)]
    for ci, c in enumerate(state.copies):
        for j in range(config.num_partitions):
            base_limit = gamma ** config.train_iters \
                * np.linalg.norm(stars[ci][j]) * (1 + 1e-9) + 1e-12
            if residual[ci][j] > base_limit:
                failures.append(("learn", ci, j))
    for rnd in range(1, 51):
        previous = state.copies
        state = dist_unlearn(state, updates[rnd - 1], loss, config)
        budget_i = 400 * config.total_update_iters(rnd)
        for ci, report in enumerate(state.last_report.copies):
            copy = state.copies[ci]
            touched = set(report.touched)
            grads = report.iterations * len(touched) * chunk
            if report.gradient_evaluations != grads or \
                    grads > budget_i + len(touched) * chunk:
                failures.append(("budget", rnd, ci))
            for j in range(config.num_partitions):
                s = int(report.modified_per_partition[j])
                if j not in touched:
                    if s != 0 or not np.array_equal(
                            copy.thetas[j], previous[ci].thetas[j]):
                        failures.append(("untouched", rnd, ci, j))
                    continue
                stars[ci][j] = partition_star(copy, j)
                fresh = float(np.linalg.norm(copy.thetas[j] - stars[ci][j]))
                limit = gamma ** report.iterations \
                    * (residual[ci][j] + move * s) * (1 + 1e-9) + 1e-12
                if fresh > limit:
                    failures.append(("recursion", rnd, ci, j, fresh, limit))
                residual[ci][j] = fresh
    finish("criterion-08 distributed-recursion", t0, 300.0, failures)


def test_criterion_09_boosting():
    t0 = time.perf_counter()
    loss = ridge(3)
    data = gen_synthetic_dataset(60, 3, noise=0.1, seed=909)
    config = dist_params(60, 3, loss, 1.0, 1, 1.0, 0.01, beta=0.1)
    assert config.copies == 5
    star = closed_form_ridge_optimizer(data, 1.0, loss.space)
    all_sq = []
    picked = []
    for trial in range(500):
        state = dist_learn(data, loss, config, seed=9000 + trial)
        averages = [c.average() for c in state.copies]
        squared = [float(np.linalg.norm(a - star) ** 2) for a in averages]
        all_sq.extend(squared)
        picked.append(squared[select_best(averages, data, loss)])
    pooled_mean = float(np.mean(all_sq))
    frequency = float(np.mean([x < 2.0 * pooled_mean for x in picked]))
    failures = [] if frequency >= 0.9 else [frequency]
    finish("criterion-09 boosting", t0, 120.0, failures)


def test_criterion_10_accuracy_trend():
    t0 = time.perf_counter()
    loss = ridge(5)

    def steady_mean_excess(n, iters):
        data = gen_synthetic_dataset(n, 5, noise=0.1, seed=1010 + n)
        updates = gen_adversarial_sequence(data, 60, seed=1040 + n)
        cfg = UnlearnConfig("strong_secret", 1.0, DELTA1, iters)
        minima = []
        current = data
        for upd in updates:
            current = current.apply(upd)
            star = closed_form_ridge_optimizer(current, 1.0, loss.space)
            minima.append(loss.empirical_loss(current, star))
        samples = []
        for trial in range(20):
            state = learn(data, loss, cfg, seed=7000 + trial)
            for rnd in range(1, 61):
                state = unlearn(state, updates[rnd - 1], loss, cfg)
                if rnd > 30:
                    samples.append(loss.empirical_loss(
                        state.data, state.theta_pub) - minima[rnd - 1])
        return float(np.mean(samples))

    by_iters = [steady_mean_excess(500, i) for i in (1, 2, 4, 8, 16)]
    by_n = [steady_mean_excess(n, 4) for n in (250, 500, 1000)]
    failures = []
    if not all(a > b for a, b in zip(by_iters, by_iters[1:])):
        failures.append(("iters", by_iters))
    if not all(a > b for a, b in zip(by_n, by_n[1:])):
        failures.append(("n", by_n))
    finish("criterion-10 accuracy-trend", t0, 600.0, failures)


def test_criterion_11_determinism(tmp_path):
    t0 = time.perf_counter()
    failures = []
    configs = [
        ExperimentConfig(n=120, update_length=6, iters=3),
        ExperimentConfig(n=60, dim=3, mode="distributed", delta=0.01,
                         copies=2, update_length=4, iters=1),
    ]
    for idx, cfg in enumerate(configs):
        paths = []
        for run in range(2):
            rec = tmp_path / f"r{idx}-{run}.jsonl"
            summ = tmp_path / f"s{idx}-{run}.json"
            emit_report(run_chain(cfg), rec, summ)
            paths.append((rec, summ))
        if paths[0][0].read_bytes() != paths[1][0].read_bytes() or \
                paths[0][1].read_bytes() != paths[1][1].read_bytes():
            failures.append(cfg.mode)
    finish("criterion-11 determinism", t0, 60.0, failures)
