import dataclasses
import hashlib
import math

import mpmath
import numpy as np
import pytest
from scipy import stats
from hypothesis import given, settings, strategies as st

from unlearn import data as data_module, distributed
from unlearn.core import _rows_digest
from unlearn.data import (DataPoint, Dataset, Update, _Rows,
                          gen_adversarial_sequence, gen_synthetic_dataset)
from unlearn.distributed import (
    DIST_SNAPSHOT_FORMAT,
    CopyState,
    PartitionedState,
    dist_learn,
    dist_params,
    dist_publish,
    dist_unlearn,
    reservoir_update,
    select_best,
)
from unlearn.losses import (LogisticLoss, ParamSpace, RidgeLoss,
                            closed_form_ridge_optimizer)
from unlearn.rng import substream

from helpers import BAD_ADDS, traced_peak


def ridge_loss(dim, lam=1.0, radius=1.0):
    return RidgeLoss(ParamSpace(dim, radius), lam=lam)


def small_problem(n=60, dim=3, delta=0.01, copies=2, iters=1, seed=0):
    data = gen_synthetic_dataset(n, dim, noise=0.05, seed=seed)
    loss = ridge_loss(dim)
    config = dist_params(n, dim, loss, 1.0, iters, 1.0, delta, copies=copies)
    return data, loss, config


def test_subsample_shape_rounding():
    loss = ridge_loss(5)
    cfg = dist_params(400, 5, loss, 1.0, 1, 1.0, 1.0 / 400)
    assert (cfg.sample_size, cfg.num_partitions) == (400, 20)
    cfg = dist_params(60, 3, loss, 1.0, 1, 1.0, 0.01)
    assert (cfg.sample_size, cfg.num_partitions) == (63, 7)
    assert cfg.sample_size % cfg.num_partitions == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3000), st.floats(1.0, 4.0 / 3.0))
def test_partition_count_always_divides_the_sample(n, xi):
    loss = ridge_loss(2)
    cfg = dist_params(n, 2, loss, xi, 1, 1.0, 1e-6)
    raw = math.ceil(n ** xi)
    assert cfg.num_partitions == max(1, math.isqrt(raw))
    assert cfg.sample_size % cfg.num_partitions == 0
    assert cfg.sample_size >= raw


def test_parameter_validation():
    loss = ridge_loss(2)
    with pytest.raises(ValueError, match="sample exponent"):
        dist_params(100, 2, loss, 0.9, 1, 1.0, 1e-3)
    with pytest.raises(ValueError, match="sample exponent"):
        dist_params(100, 2, loss, 1.5, 1, 1.0, 1e-3)
    with pytest.raises(ValueError, match="delta too large"):
        dist_params(60, 2, loss, 1.0, 1, 1.0, 0.02)
    with pytest.raises(ValueError, match="sample budget exceeded"):
        dist_params(2_000_000, 2, loss, 1.0, 1, 1.0, 1e-7)
    with pytest.raises(ValueError, match="beta"):
        dist_params(60, 2, loss, 1.0, 1, 1.0, 0.01, beta=1.5)
    with pytest.raises(ValueError, match="copy count"):
        dist_params(60, 2, loss, 1.0, 1, 1.0, 0.01, copies=0)
    with pytest.raises(ValueError, match="iteration budget"):
        dist_params(60, 2, loss, 1.0, 0, 1.0, 0.01)


@pytest.mark.parametrize("field, value, name", [
    ("n", 2.5, "point count n"), ("n", 100.0, "point count n"),
    ("n", True, "point count n"), ("iters", 1.5, "iteration budget"),
    ("iters", True, "iteration budget"), ("copies", 1.5, "copy count"),
    ("copies", True, "copy count"), ("copies", 2.0, "copy count"),
])
def test_parameters_reject_counts_that_are_not_integers(field, value,
                                                        name):
    """``iters=1.5`` calibrated sigma to 1.5 and spent 1 (243x less noise
    than the spent budget supports), ``n=2.5`` was recorded, and
    ``copies=1.5`` or True became 1."""
    args = {"n": 100, "iters": 1, "copies": 2, field: value}
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        dist_params(args["n"], 3, RidgeLoss(ParamSpace(3, 1.0), lam=1.0),
                    1.0, args["iters"], 1.0, 1e-3, copies=args["copies"])


def test_copy_count_from_failure_probability():
    loss = ridge_loss(2)
    assert dist_params(60, 2, loss, 1.0, 1, 1.0, 0.01, beta=0.1).copies == 5
    assert dist_params(60, 2, loss, 1.0, 1, 1.0, 0.01, beta=0.05).copies == 6
    assert dist_params(60, 2, loss, 1.0, 1, 1.0, 0.01, copies=3).copies == 3


def test_contraction_underflow_is_reported():
    loss = ridge_loss(2)
    with pytest.raises(ValueError, match="contraction underflow"):
        dist_params(10000, 2, loss, 1.0, 7, 1.0, 1e-5)


def test_noise_scale_against_high_precision_arithmetic():
    loss = ridge_loss(5)  # m=1, M=2, L=3, gamma=1/3
    cfg = dist_params(400, 5, loss, 1.0, 1, 1.0, 1.0 / 400)
    with mpmath.workdps(50):
        g = (mpmath.mpf(1) / 3) ** 20
        log2d = mpmath.log(2 * mpmath.mpf(400))
        gap = mpmath.sqrt(log2d + 1) - mpmath.sqrt(log2d)
        want = 4 * mpmath.sqrt(2) * 3 * g / (400 * (1 - g) * gap)
        assert cfg.exponent == 20.0
        assert cfg.sigma == pytest.approx(float(want), rel=1e-12)


def test_noise_scale_shrinks_with_budget():
    loss = ridge_loss(3)
    small = dist_params(100, 3, loss, 1.0, 1, 1.0, 1e-3).sigma
    large = dist_params(100, 3, loss, 1.0, 3, 1.0, 1e-3).sigma
    assert large < small


def test_round_budget_matches_direct_arithmetic():
    _, _, cfg = small_problem()
    for i in (1, 7):
        tail = math.log(2.0 * i / cfg.delta)
        inner = math.log(1.0 + 10.0 * i * tail) / math.log(1.0 / cfg.gamma)
        want = 10.0 * tail * (cfg.iters + 63.0 ** 2 / (7.0 * 60.0 ** 2) * inner)
        assert cfg.total_update_iters(i) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError, match="round index"):
        cfg.total_update_iters(0)


def test_partition_budget_splits_the_round_budget():
    _, _, cfg = small_problem()
    t1 = cfg.total_update_iters(1)
    want = math.ceil(7 * 60 * t1 / (63 * 2))
    assert cfg.partition_iters(1, 2) == want
    with pytest.raises(ValueError, match="touched partition count"):
        cfg.partition_iters(1, 0)


def test_round_budget_growth_is_logarithmic():
    _, _, cfg = small_problem()
    t1 = cfg.total_update_iters(1)
    for i in (2, 10, 100, 1000, 10000):
        assert cfg.total_update_iters(i) / t1 <= 1.0 + math.log2(i)


def test_learn_requires_matching_size():
    data, loss, cfg = small_problem()
    wrong = gen_synthetic_dataset(61, 3, seed=1)
    with pytest.raises(ValueError, match="size does not match"):
        dist_learn(wrong, loss, cfg)


def test_learn_is_deterministic_per_seed():
    data, loss, cfg = small_problem()
    a = dist_learn(data, loss, cfg, seed=5)
    b = dist_learn(data, loss, cfg, seed=5)
    c = dist_learn(data, loss, cfg, seed=6)
    assert np.array_equal(a.theta_pub, b.theta_pub)
    assert np.array_equal(a.copies[0].features, b.copies[0].features)
    assert not np.array_equal(a.theta_pub, c.theta_pub)


def test_learn_budget_and_partition_accuracy():
    data, loss, cfg = small_problem()
    state = dist_learn(data, loss, cfg, seed=7)
    chunk = cfg.sample_size // cfg.num_partitions
    assert state.budget == cfg.copies * cfg.sample_size * cfg.train_iters
    log2d = math.log(2.0 / cfg.delta)
    bound = 4 * loss.lipschitz * cfg.gamma ** cfg.exponent / (
        1.0 * cfg.sample_size * (1.0 + 10.0 * log2d))
    for copy in state.copies:
        for j in range(cfg.num_partitions):
            rows = slice(j * chunk, (j + 1) * chunk)
            assert copy.labels[rows].size == chunk
            sub = Dataset(copy.features[rows], copy.labels[rows])
            star = closed_form_ridge_optimizer(sub, 1.0, loss.space)
            gap = np.linalg.norm(copy.thetas[j] - star)
            assert gap <= cfg.gamma ** cfg.train_iters * \
                np.linalg.norm(star) * (1 + 1e-9) + 1e-12
            assert gap <= bound


def test_bootstrap_marginals_match_the_sampling_rate():
    n, dim = 16, 2
    data = gen_synthetic_dataset(n, dim, seed=9)
    loss = ridge_loss(dim)
    cfg = dist_params(n, dim, loss, 1.0, 1, 1.0, 0.05, copies=10000)
    state = dist_learn(data, loss, cfg, seed=9)
    probe = data.point(0)
    counts = np.array([
        int((np.all(c.features == probe.x, axis=1)
             & (c.labels == probe.y)).sum())
        for c in state.copies
    ])
    want = cfg.sample_size / n
    stderr = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - want) <= 3 * stderr


def test_reservoir_add_overwrite_rate():
    rng = substream(11, "reservoir", 0)
    b, n_new = 50, 25
    new_point = DataPoint(np.array([0.9, 0.0]), 0.5)
    base = gen_synthetic_dataset(n_new - 1, 2, seed=11)
    new_data = base.apply(Update("add", new_point))
    indices = np.tile(np.arange(n_new - 1), 3)[None, :b]
    means = []
    for _ in range(2000):
        out, (changed,) = reservoir_update(indices, Update("add", new_point),
                                           base, new_data, [rng])
        assert np.all((out == indices) | (out == n_new - 1))
        assert np.array_equal(np.flatnonzero(out != indices), changed)
        means.append(changed.size)
    counts = np.array(means)
    stderr = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - b / n_new) <= 3 * stderr


def test_reservoir_add_of_an_existing_value_counts_no_changes():
    rng = substream(12, "reservoir", 0)
    point = DataPoint(np.array([0.1, 0.2]), -0.5)
    data = Dataset(np.tile(point.x, (20, 1)), np.full(20, point.y))
    new_data = data.apply(Update("add", point))
    indices = np.arange(20)[None]
    out, (changed,) = reservoir_update(indices, Update("add", point), data,
                                       new_data, [rng])
    assert changed.size == 0
    assert np.any(out == 20)  # positions took the new copy, all the same
    features, labels = new_data.rows(out[0])
    assert np.array_equal(features, data.features)
    assert np.array_equal(labels, data.labels)


def _with_rows(base, *points):
    """``base`` with ``points`` added, in order, at indices base.size on."""
    for point in points:
        base = base.apply(Update("add", point))
    return base


def test_reservoir_delete_replaces_every_copy():
    rng = substream(13, "reservoir", 0)
    base = gen_synthetic_dataset(30, 2, seed=13)
    victim = DataPoint(np.array([0.7, 0.1]), 0.25)
    data = _with_rows(base, victim)
    indices = np.arange(12)[None].copy()
    indices[0, [2, 5, 9]] = 30
    new_data = data.apply(Update("delete", victim))
    out, (changed,) = reservoir_update(indices, Update("delete", victim),
                                       data, new_data, [rng])
    assert list(changed) == [2, 5, 9]
    assert np.all((out >= 0) & (out < new_data.size))
    features, labels = new_data.rows(out[0])
    assert not np.any(np.all(features == victim.x, axis=1)
                      & (labels == victim.y))
    keep = [p for p in range(12) if p not in (2, 5, 9)]
    assert np.array_equal(out[0, keep], indices[0, keep])  # all below 30
    assert out.shape == indices.shape


def test_reservoir_delete_compares_every_coordinate():
    """Rows that share the deleted point's first coordinate, but differ
    in another coordinate or in the label, stay where they are, and
    their indices move down past the removed row."""
    rng = substream(16, "reservoir", 0)
    base = gen_synthetic_dataset(30, 3, seed=16)
    victim = DataPoint(np.array([0.7, 0.1, -0.2]), 0.25)
    near = [DataPoint([0.7, 0.1, 0.2], 0.25),
            DataPoint([0.7, -0.1, -0.2], 0.25), DataPoint(victim.x, -0.25)]
    data = _with_rows(base, victim, *near)
    indices = np.arange(12)[None].copy()
    indices[0, [2, 5, 9]] = 30
    indices[0, [3, 7, 11]] = [31, 32, 33]
    new_data = data.apply(Update("delete", victim))
    out, (changed,) = reservoir_update(indices, Update("delete", victim),
                                       data, new_data, [rng])
    assert list(changed) == [2, 5, 9]
    keep = [p for p in range(12) if p not in (2, 5, 9)]
    assert list(out[0, [3, 7, 11]]) == [30, 31, 32]
    before, after = data.rows(indices[0, keep]), new_data.rows(out[0, keep])
    assert after[0].tobytes() == before[0].tobytes()
    assert after[1].tobytes() == before[1].tobytes()


def test_reservoir_delete_reads_only_the_rows_it_draws():
    """Redrawing a deleted point's positions gathers none of the edited
    dataset's rows, only the ones drawn."""
    base = gen_synthetic_dataset(30, 2, seed=15)
    victim = base.point(20)
    new_data = base.apply(Update("delete", victim))
    indices = np.arange(12)[None].copy()
    indices[0, 3] = 20
    _, (changed,) = reservoir_update(indices, Update("delete", victim), base,
                                     new_data, [substream(15, "reservoir", 0)])
    assert list(changed) == [3]
    assert new_data._features is None and new_data._labels is None


def test_a_distributed_delete_searches_the_rows_once(monkeypatch):
    """``Dataset.apply`` finds the deleted point, and the reservoir's
    ``find`` on the same version is answered from that result: 30
    deletes search the row buffer 30 times, not 60."""
    data, loss, config = small_problem(n=60, copies=3, seed=17)
    state = dist_learn(data, loss, config, seed=17)
    updates = gen_adversarial_sequence(data, 60, "churn", seed=17)
    searches, search = [], _Rows.find
    monkeypatch.setattr(_Rows, "find", lambda *a: searches.append(1)
                        or search(*a))
    for update in updates:
        state = dist_unlearn(state, update, loss, config)
    assert sum(u.op == "delete" for u in updates) == 30
    assert len(searches) == 30


def test_reservoir_delete_of_an_absent_value_is_silent():
    rng = substream(14, "reservoir", 0)
    base = gen_synthetic_dataset(10, 2, seed=14)
    ghost = DataPoint(np.array([0.0, 0.99]), -0.75)
    indices = np.arange(10)[None]
    out, (changed,) = reservoir_update(indices, Update("delete", ghost), base,
                                       base, [rng])
    assert changed.size == 0
    assert np.array_equal(out, indices)


def test_select_best_prefers_low_loss_and_low_index():
    data = gen_synthetic_dataset(20, 2, seed=15)
    loss = ridge_loss(2)
    star = closed_form_ridge_optimizer(data, 1.0, loss.space)
    off = loss.space.project(star + np.array([0.5, 0.5]))
    assert select_best([off, star, star], data, loss) == 1
    assert select_best([star, star, off], data, loss) == 0
    assert select_best([off], data, loss) == 0


def test_dist_publish_averages_then_perturbs():
    thetas = np.array([[1.0, 0.0], [0.0, 1.0]])
    rng = substream(16, "noise")
    out = dist_publish(thetas, 1e-300, rng)
    assert np.allclose(out, [0.5, 0.5], atol=1e-12)
    copy = CopyState(np.zeros((2, 2)), np.zeros(2), thetas, rng)
    assert np.linalg.norm(copy.average()) <= 1.0


def test_untouched_partitions_carry_over_bit_identically():
    data, loss, cfg = small_problem(seed=17)
    state = dist_learn(data, loss, cfg, seed=17)
    new_point = DataPoint(np.array([0.0, 0.0, 0.9]), 0.5)
    after = dist_unlearn(state, Update("add", new_point), loss, cfg)
    assert after.round_index == 1
    chunk = cfg.sample_size // cfg.num_partitions
    for before_c, after_c, report in zip(state.copies, after.copies,
                                         after.last_report.copies):
        for j in report.touched:
            assert report.modified_per_partition[j] >= 1
        for j in range(cfg.num_partitions):
            if j in report.touched:
                continue
            assert np.array_equal(before_c.thetas[j], after_c.thetas[j])
        assert report.gradient_evaluations == \
            report.iterations * len(report.touched) * chunk
        cap = cfg.n * after.last_report.total_iters + \
            len(report.touched) * chunk
        assert report.gradient_evaluations <= cap
    spent = sum(r.gradient_evaluations for r in after.last_report.copies)
    assert after.budget == state.budget + spent


def test_void_deletion_in_the_distributed_chain_still_publishes():
    data, loss, cfg = small_problem(seed=18)
    state = dist_learn(data, loss, cfg, seed=18)
    ghost = DataPoint(np.array([0.0, 0.99, 0.0]), -0.9)
    after = dist_unlearn(state, Update("delete", ghost), loss, cfg)
    assert after.round_index == 1
    assert after.budget == state.budget
    assert not np.array_equal(after.theta_pub, state.theta_pub)
    for before_c, after_c in zip(state.copies, after.copies):
        assert np.array_equal(before_c.thetas, after_c.thetas)


@pytest.mark.parametrize("x, y", BAD_ADDS)
def test_dist_unlearn_rejects_adds_outside_the_bounds(x, y):
    data, loss, cfg = small_problem(seed=18)
    state = dist_learn(data, loss, cfg, seed=18)
    message = "exceeds declared bound" if np.isfinite(x).all() \
        and np.isfinite(y) else "non-finite"
    with pytest.raises(ValueError, match=message):
        dist_unlearn(state, Update("add", DataPoint(x, y)), loss, cfg)


def test_dist_unlearn_rejects_labels_outside_the_loss_label_set():
    data = gen_synthetic_dataset(60, 3, model="logistic", seed=18)
    loss = LogisticLoss(ParamSpace(3, 1.0), lam=1.0)
    cfg = dist_params(60, 3, loss, 1.0, 1, 1.0, 0.01, copies=2)
    state = dist_learn(data, loss, cfg, seed=18)
    half = Update("add", DataPoint(np.array([0.1, 0.0, 0.0]), 0.5))
    with pytest.raises(ValueError, match="logistic labels"):
        dist_unlearn(state, half, loss, cfg)
    good = Update("add", DataPoint(np.array([0.1, 0.0, 0.0]), 1.0))
    assert dist_unlearn(state, good, loss, cfg).data.size == 61


def test_single_partition_single_copy_degenerate_case():
    data = gen_synthetic_dataset(2, 2, seed=19)
    loss = ridge_loss(2)
    cfg = dist_params(2, 2, loss, 1.0, 1, 1.0, 0.3, copies=1)
    assert cfg.num_partitions == 1
    state = dist_learn(data, loss, cfg, seed=19)
    after = dist_unlearn(state, Update("add", data.point(0)), loss, cfg)
    assert after.data.size == 3


def test_snapshot_restore_replays_identically():
    data, loss, cfg = small_problem(seed=20)
    rng = np.random.default_rng(20)
    state = dist_learn(data, loss, cfg, seed=20)
    updates = []
    for _ in range(4):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        updates.append(Update("add", DataPoint(direction, 0.5)))
    for update in updates[:2]:
        state = dist_unlearn(state, update, loss, cfg)
    snap = state.snapshot()
    assert snap["format"] == DIST_SNAPSHOT_FORMAT
    resumed = PartitionedState.restore(snap, state.data, loss, cfg)
    for before_c, after_c in zip(state.copies, resumed.copies):
        assert np.array_equal(before_c.features, after_c.features)
        assert np.array_equal(before_c.labels, after_c.labels)
        assert np.array_equal(before_c.thetas, after_c.thetas)
    for update in updates[2:]:
        state = dist_unlearn(state, update, loss, cfg)
        resumed = dist_unlearn(resumed, update, loss, cfg)
    assert np.array_equal(state.theta_pub, resumed.theta_pub)
    assert state.budget == resumed.budget


def test_restored_chain_carries_the_moments_byte_equal():
    """The chain builds its data's moments at learn, for ``select_best``,
    and carries them through every edit; a restored chain reads the
    same bytes."""
    data, loss, cfg = small_problem(seed=26)
    state = dist_learn(data, loss, cfg, seed=26)
    assert state.data.cached_moments[1] == 0
    for update in gen_adversarial_sequence(data, 5, "random", seed=26):
        state = dist_unlearn(state, update, loss, cfg)
    snap = state.snapshot()
    assert snap["format"] == "unlearn-dist-state/4"
    assert snap["moments"]["carried"] == 5
    restored = PartitionedState.restore(snap, state.data, loss, cfg)
    moments, carried = state.data.cached_moments
    again = restored.data.cached_moments
    assert again[0].tobytes() == moments.tobytes()
    assert again[1] == carried


def test_a_dist_snapshot_gathers_and_caches_no_rows():
    """A distributed snapshot reads the edited chain's rows with
    ``Dataset.rows``: the live version caches no gathered rows, and the
    snapshot still names each position's row by its first equal row and
    carries the digest of the stacked rows."""
    data, loss, cfg = small_problem(n=5000, dim=20, delta=1e-4, seed=27)
    state = dist_learn(data, loss, cfg, seed=27)
    for update in (Update("add", DataPoint(np.full(20, 0.01), 0.5)),
                   Update("delete", data.point(7))):
        state = dist_unlearn(state, update, loss, cfg)
    assert state.data._features is None
    snap = state.snapshot()
    assert state.data._features is None and state.data._labels is None
    rows = np.column_stack([state.data.features, state.data.labels])
    _, first, inverse = np.unique(rows, axis=0, return_index=True,
                                  return_inverse=True)
    indices = first[inverse.ravel()][state.indices]
    assert [copy["indices"] for copy in snap["copies"]] == indices.tolist()
    assert snap["rows_sha256"] == hashlib.sha256(rows.tobytes()).hexdigest()


def test_a_dist_snapshot_names_rows_in_little_more_than_the_rows():
    """``snapshot`` names each position's row by its first equal row with
    a stable sort over the gathered columns, not a ``np.unique`` over the
    stacked rows: the indices are the same, duplicate rows included, and
    the snapshot's tracemalloc peak stays under 1.5 times the rows plus
    labels."""
    n, dim = 20000, 20
    data = gen_synthetic_dataset(n, dim, noise=0.05, seed=28)
    loss = ridge_loss(dim)
    cfg = dist_params(n, dim, loss, 1.0, 1, 1.0, 1e-5, copies=3)
    state = dist_learn(data, loss, cfg, seed=28)
    twice = [Update("add", data.point(j)) for j in (3, 3, 11)]
    drift = gen_adversarial_sequence(data, 3, strategy="drift", seed=28)
    for update in twice + list(drift):
        state = dist_unlearn(state, update, loss, cfg)
    snap = {}
    peak = traced_peak(lambda: snap.update(state.snapshot()))
    assert peak < 1.5 * n * (dim + 1) * 8
    rows = np.column_stack([state.data.features, state.data.labels])
    _, first, inverse = np.unique(rows, axis=0, return_index=True,
                                  return_inverse=True)
    assert first.size < state.data.size
    indices = first[inverse.ravel()][state.indices]
    assert [copy["indices"] for copy in snap["copies"]] == indices.tolist()


def test_dist_learn_descends_one_block_of_partitions_at_a_time():
    """Learn gathers, builds and maps ``_BLOCK_PARTITIONS`` partitions at
    a time, so over 300 partitions at xi = 4/3 its tracemalloc peak stays
    under the rows of one copy's subsample, B d floats, where gathering
    every partition at once held all C B rows and their stacks."""
    n, dim = 1000, 20
    data = gen_synthetic_dataset(n, dim, noise=0.05, seed=29)
    loss = ridge_loss(dim)
    cfg = dist_params(n, dim, loss, 4.0 / 3.0, 1, 1.0, 1e-5, copies=3)
    assert cfg.copies * cfg.num_partitions == 300
    peak = traced_peak(lambda: dist_learn(data, loss, cfg, seed=29))
    assert peak < cfg.sample_size * dim * 8


def test_restore_rejects_unknown_formats():
    data, loss, cfg = small_problem(seed=21)
    state = dist_learn(data, loss, cfg, seed=21)
    snap = state.snapshot()
    with pytest.raises(ValueError, match="state format"):
        PartitionedState.restore({**snap, "format": "x/2"}, data, loss, cfg)


def test_restore_rejects_a_dataset_of_another_dimension():
    data, loss, cfg = small_problem(seed=21)
    state = dist_learn(data, loss, cfg, seed=21)
    snap = state.snapshot()
    wider = gen_synthetic_dataset(60, 5, seed=21)
    with pytest.raises(ValueError, match="dimension does not match"):
        PartitionedState.restore(snap, wider, loss, cfg)
    assert PartitionedState.restore(snap, state.data, loss,
                                    cfg).snapshot() == snap


def test_dist_learn_rejects_a_loss_of_another_dimension():
    data, _, cfg = small_problem(seed=26)
    with pytest.raises(ValueError, match="loss dimension 4 does not match "
                                         "the dataset's 3"):
        dist_learn(data, ridge_loss(4), cfg, seed=26)


def test_dist_learn_rejects_a_config_of_another_dimension():
    data, loss, cfg = small_problem(seed=26)
    with pytest.raises(ValueError, match="dimension does not match the "
                                         "configuration"):
        dist_learn(data, loss, dataclasses.replace(cfg, dim=4), seed=26)


def test_restore_rejects_a_config_of_another_dimension():
    data, loss, cfg = small_problem(seed=26)
    snap = dist_learn(data, loss, cfg, seed=26).snapshot()
    with pytest.raises(ValueError, match="dimension does not match the "
                                         "config"):
        PartitionedState.restore(snap, data, loss,
                                 dataclasses.replace(cfg, dim=4))
    with pytest.raises(ValueError, match="loss dimension 4 does not match"):
        PartitionedState.restore(snap, data, ridge_loss(4), cfg)
    assert PartitionedState.restore(snap, data, loss,
                                    cfg).snapshot() == snap


def test_partitions_are_positional_and_drawn_from_no_stream(monkeypatch):
    assert [f.name for f in dataclasses.fields(CopyState)] == \
        ["features", "labels", "thetas", "rng"]
    labels = []
    original = distributed.substream

    def recorded(seed, *path):
        labels.append(path[0])
        return original(seed, *path)

    monkeypatch.setattr(distributed, "substream", recorded)
    data, loss, cfg = small_problem(seed=22)
    dist_learn(data, loss, cfg, seed=22)
    assert set(labels) == {"bootstrap", "reservoir", "noise"}


def test_dist_unlearn_rejects_another_loss_or_config():
    data, loss, cfg = small_problem(seed=23)
    state = dist_learn(data, loss, cfg, seed=23)
    update = Update("add", DataPoint(np.array([0.0, 0.6, 0.0]), 0.5))
    with pytest.raises(ValueError, match="not the chain's own"):
        dist_unlearn(state, update, ridge_loss(3), cfg)
    more = dist_params(60, 3, loss, 1.0, 1, 1.0, 0.01, copies=3)
    with pytest.raises(ValueError, match="not the chain's own"):
        dist_unlearn(state, update, loss, more)
    same = dist_params(60, 3, loss, 1.0, 1, 1.0, 0.01, copies=2)
    assert dist_unlearn(state, update, loss, same).round_index == 1


def test_a_dist_chain_shares_its_inputs_rows_and_no_write_reaches_it():
    base, loss, cfg = small_problem(seed=23)
    features, labels = base.features.copy(), base.labels.copy()
    data = Dataset(features, labels)
    state = dist_learn(data, loss, cfg, seed=23)
    other = dist_learn(data, loss, cfg, seed=24)
    restored = PartitionedState.restore(state.snapshot(), data, loss, cfg)
    features[:], labels[:] = 0.0, 0.0
    for chain in (state, other, restored):
        assert np.shares_memory(chain.data.features, data.features)
        assert np.shares_memory(chain.data.labels, data.labels)
        assert np.array_equal(chain.data.features, base.features)
        assert np.array_equal(chain.data.labels, base.labels)
        assert chain.data._rows is not data._rows
    assert state.data._rows is not other.data._rows
    assert np.array_equal(state.theta_pub, restored.theta_pub)


def test_dist_learn_and_restore_reject_non_finite_rows():
    data, loss, cfg = small_problem(seed=26)
    state = dist_learn(data, loss, cfg, seed=26)
    labels = data.labels.copy()
    labels[5] = -np.inf
    bad = Dataset(data.features, labels)
    with pytest.raises(ValueError, match="non-finite"):
        dist_learn(bad, loss, cfg, seed=26)
    snap = {**state.snapshot(), "rows_sha256": _rows_digest(bad)}
    with pytest.raises(ValueError, match="non-finite"):
        PartitionedState.restore(snap, bad, loss, cfg)


def test_dist_learn_and_add_check_rows_against_the_loss_bounds():
    base = gen_synthetic_dataset(60, 3, noise=0.05, feature_bound=0.9,
                                 seed=24)
    data = Dataset(base.features, base.labels, feature_bound=10.0)
    loss = ridge_loss(3)
    cfg = dist_params(60, 3, loss, 1.0, 1, 1.0, 0.01, copies=2)
    state = dist_learn(data, loss, cfg, seed=24)
    far = DataPoint(np.array([5.0, 0.0, 0.0]), 0.0)
    with pytest.raises(ValueError, match="feature norm exceeds"):
        dist_unlearn(state, Update("add", far), loss, cfg)
    wide = Dataset(np.vstack([data.features[1:], far.x]),
                   np.append(data.labels[1:], far.y), feature_bound=10.0)
    with pytest.raises(ValueError, match="feature norm exceeds"):
        dist_learn(wide, loss, cfg, seed=24)


def test_restore_checks_everything_it_is_handed():
    data, loss, cfg = small_problem(seed=25)
    state = dist_learn(data, loss, cfg, seed=25)
    state = dist_unlearn(state, Update("delete", data.point(0)), loss, cfg)
    snap = state.snapshot()
    assert (snap["initial_size"], snap["size"]) == (60, 59)
    copy0 = snap["copies"][0]

    def with_copy0(**fields):
        return {**snap, "copies": [{**copy0, **fields}] + snap["copies"][1:]}

    shape = "do not have the config's shape"
    cases = [
        ({**snap, "copies": snap["copies"][:1]}, shape),
        (with_copy0(indices=copy0["indices"][:-1]), "with a sequence"),
        (with_copy0(indices=[59] + copy0["indices"][1:]), shape),
        (with_copy0(indices=[-1] + copy0["indices"][1:]), shape),
        (with_copy0(thetas=[[0.0] * 5]), "with a sequence"),
        ({**snap, "copies": [{**c, "thetas": [[0.0] * 5]}
                             for c in snap["copies"]]}, shape),
        ({**snap, "format": "unlearn-dist-state/1"}, "state format"),
        (with_copy0(thetas=[[float("nan")] * 3] + copy0["thetas"][1:]),
         "not finite"),
        ({**snap, "theta_pub": [float("nan")] * 3}, "not finite"),
        (with_copy0(indices=[1.5] + copy0["indices"][1:]), "not integers"),
        (with_copy0(indices=[True] + copy0["indices"][1:]), "not integers"),
        (with_copy0(indices=3), "not integers"),
        ({**snap, "copies": 3}, "copies are not a list"),
        ({**snap, "copies": {"0": copy0}}, "copies are not a list"),
        ({**snap, "round": 1.5}, "not a nonnegative integer"),
        ({**snap, "budget": -1}, "not a nonnegative integer"),
        ({**snap, "initial_size": 118}, "n_0 does not match"),
        (with_copy0(rng={"bit_generator": "PCG64"}), "malformed RNG state"),
        ({**snap, "noise_rng": None}, "malformed RNG state"),
        ({k: v for k, v in snap.items() if k != "copies"}, "lacks a field"),
        ({**snap, "copies": [{k: v for k, v in copy0.items() if k != "rng"}]
          + snap["copies"][1:]}, "lacks a field"),
    ]
    for snapshot, message in cases:
        with pytest.raises(ValueError, match=message):
            PartitionedState.restore(snapshot, state.data, loss, cfg)
    other_rows = gen_synthetic_dataset(59, 3, noise=0.05, seed=99)
    with pytest.raises(ValueError, match="rows do not match"):
        PartitionedState.restore(snap, other_rows, loss, cfg)
    other = dist_params(60, 3, loss, 1.0, 2, 1.0, 0.01, copies=2)
    with pytest.raises(ValueError, match="snapshot's sigma"):
        PartitionedState.restore(snap, state.data, loss, other)
    fresh = Dataset(state.data.features, state.data.labels)
    restored = PartitionedState.restore(snap, fresh, loss, cfg)
    assert restored.data.initial_size == 60
    assert restored.snapshot() == snap


@settings(max_examples=10, deadline=None)
@given(cut=st.integers(0, 5), strategy=st.sampled_from(["churn", "random"]),
       seed=st.integers(0, 2 ** 16))
def test_snapshot_restore_replay_is_byte_equal(cut, strategy, seed):
    data, loss, cfg = small_problem(n=40, seed=seed)
    updates = gen_adversarial_sequence(data, 5, strategy, seed=seed)
    state = dist_learn(data, loss, cfg, seed=seed)
    for update in updates[:cut]:
        state = dist_unlearn(state, update, loss, cfg)
    resumed = PartitionedState.restore(state.snapshot(), state.data, loss,
                                       cfg)
    for update in updates[cut:]:
        state = dist_unlearn(state, update, loss, cfg)
        resumed = dist_unlearn(resumed, update, loss, cfg)
        assert state.theta_pub.tobytes() == resumed.theta_pub.tobytes()
    assert state.snapshot() == resumed.snapshot()


# The row-valued, per-copy edit the stacked chain replaced: each copy
# held its (B, d) rows and its generator, refreshed them by value and
# ran ``pgd`` on every touched partition in turn.

def _reference_reservoir(features, labels, update, new_data, rng):
    b = labels.size
    features, labels = features.copy(), labels.copy()
    point = update.point
    if update.op == "add":
        count = int(rng.binomial(b, 1.0 / new_data.size))
        pos = rng.choice(b, size=count, replace=False) if count else \
            np.empty(0, dtype=int)
        same = np.all(features[pos] == point.x, axis=1) & \
            (labels[pos] == point.y)
        changed = pos[~same]
        features[pos], labels[pos] = point.x, point.y
    else:
        hits = np.flatnonzero(np.all(features == point.x, axis=1)
                              & (labels == point.y))
        changed = np.empty(0, dtype=int)
        if hits.size:
            draws = [new_data.point(j)
                     for j in rng.integers(new_data.size, size=hits.size)]
            fresh_f = np.array([p.x for p in draws])
            fresh_l = np.array([p.y for p in draws])
            same = np.all(features[hits] == fresh_f, axis=1) & \
                (labels[hits] == fresh_l)
            changed = hits[~same]
            features[hits], labels[hits] = fresh_f, fresh_l
    return features, labels, np.sort(changed)


def _reference_descend(loss, features, labels, thetas, touched, iterations):
    chunk = labels.size // thetas.shape[0]
    gd = distributed.GDConfig.for_loss(loss, iterations)
    thetas = thetas.copy()
    grads = 0
    for j in touched:
        rows = slice(j * chunk, (j + 1) * chunk)
        trace = distributed.pgd(loss, Dataset(features[rows], labels[rows]),
                                thetas[j], gd)
        thetas[j] = trace.theta
        grads += trace.gradient_evaluations
    return thetas, grads


def _clone(rng):
    twin = np.random.default_rng()
    twin.bit_generator.state = rng.bit_generator.state
    return twin


def _reference_chain(data, loss, config, seed, updates):
    """Yield (theta_pub, budget, copies, reports) after learn and after
    each edit, copies as (features, labels, thetas) per copy."""
    data = Dataset(data.features.copy(), data.labels.copy())
    k = config.num_partitions
    copies, budget = [], 0
    for c in range(config.copies):
        idx = substream(seed, "bootstrap", c).integers(
            data.size, size=config.sample_size)
        thetas, grads = _reference_descend(
            loss, data.features[idx], data.labels[idx],
            np.zeros((k, config.dim)), range(k), config.train_iters)
        copies.append([data.features[idx], data.labels[idx], thetas,
                       substream(seed, "reservoir", c)])
        budget += grads
    noise = substream(seed, "noise")
    best = select_best([c[2].mean(axis=0) for c in copies], data, loss)
    yield dist_publish(copies[best][2], config.sigma, noise), budget, \
        copies, None
    chunk = config.sample_size // k
    for i, update in enumerate(updates, start=1):
        data = data.apply(update)
        reports = []
        for copy in copies:
            copy[0], copy[1], changed = _reference_reservoir(
                copy[0], copy[1], update, data, copy[3])
            per_part = np.bincount(changed // chunk, minlength=k)
            touched = np.flatnonzero(per_part)
            iterations = config.partition_iters(i, touched.size) \
                if touched.size else 0
            copy[2], grads = _reference_descend(loss, copy[0], copy[1],
                                                copy[2], touched, iterations)
            budget += grads
            reports.append((per_part, tuple(touched), iterations, grads))
        best = select_best([c[2].mean(axis=0) for c in copies], data, loss)
        yield dist_publish(copies[best][2], config.sigma, noise), budget, \
            copies, reports


# (loss, data model, pgd calls of the stacked chain, n, d, xi)
EQUIVALENCE_CASES = {
    # every partition descent mapped in closed form
    "ridge": (lambda d: RidgeLoss(ParamSpace(d, 1.0), lam=1.0), "linear",
              0, 40, 3, 1.0),
    # the ball binds, so every certificate fails and pgd's loop runs
    "ridge_small_ball": (lambda d: RidgeLoss(ParamSpace(d, 0.02), lam=1.0),
                         "linear", None, 40, 3, 1.0),
    "logistic": (lambda d: LogisticLoss(ParamSpace(d, 1.0), lam=1.0),
                 "logistic", None, 40, 3, 1.0),
    # 2 copies of 17 partitions: learn descends them in three blocks
    "ridge_blocks": (lambda d: RidgeLoss(ParamSpace(d, 1.0), lam=1.0),
                     "linear", 0, 300, 3, 1.0),
    "ridge_small_ball_blocks": (
        lambda d: RidgeLoss(ParamSpace(d, 0.02), lam=1.0), "linear", None,
        300, 3, 1.0),
    # xi = 4/3, d = 20: learn's T = 11 < d, so each of its 2 x 21
    # partitions, three blocks of them, goes to ``pgd``'s short map; the
    # edits' descents are mapped
    "ridge_short_learn": (lambda d: RidgeLoss(ParamSpace(d, 1.0), lam=1.0),
                          "linear", 42, 100, 20, 4.0 / 3.0),
}


@pytest.mark.parametrize("strategy", ["churn", "random"])
@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_stacked_edit_matches_the_per_copy_reference(case, strategy,
                                                     monkeypatch):
    make_loss, model, loops, n, dim, xi = EQUIVALENCE_CASES[case]
    data = gen_synthetic_dataset(n, dim, model=model, noise=0.05, seed=41)
    loss = make_loss(dim)
    # delta <= 1/B
    cfg = dist_params(n, dim, loss, xi, 1, 1.0, min(0.01, 0.5 / n ** xi),
                      copies=2)
    assert (cfg.copies * cfg.num_partitions
            > distributed._BLOCK_PARTITIONS) == (n > 40)
    assert (cfg.train_iters < dim) == (xi > 1.0)
    updates = gen_adversarial_sequence(data, 10, strategy, seed=42)
    calls = []
    original = distributed.pgd
    monkeypatch.setattr(distributed, "pgd",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    state = dist_learn(data, loss, cfg, seed=43)
    reference = _reference_chain(data, loss, cfg, 43, updates)
    stepped = 0
    for rnd in range(len(updates) + 1):
        if rnd:
            state = dist_unlearn(state, updates[rnd - 1], loss, cfg)
        before = len(calls)
        theta_pub, budget, copies, reports = next(reference)
        stepped += len(calls) - before
        assert state.theta_pub.tobytes() == theta_pub.tobytes(), rnd
        assert state.budget == budget
        for view, (features, labels, thetas, _) in zip(state.copies,
                                                       copies):
            assert view.features.tobytes() == features.tobytes()
            assert view.labels.tobytes() == labels.tobytes()
            assert view.thetas.tobytes() == thetas.tobytes()
        if reports is not None:
            got = [(tuple(r.modified_per_partition), r.touched, r.iterations,
                    r.gradient_evaluations)
                   for r in state.last_report.copies]
            assert got == [(tuple(p), t, i, g) for p, t, i, g in reports]
    # The reference always loops; the stacked chain calls ``pgd`` only
    # where the certificate fails, which is everywhere or nowhere in
    # these cases, or where a descent is shorter than d.
    assert stepped > 0
    assert len(calls) - stepped == (stepped if loops is None else loops)


def test_refused_partitions_reuse_the_batch_system(monkeypatch):
    """Every partition of a radius-0.02 ridge chain is refused the map,
    and ``pgd`` loops over the batch's moments: one moment matrix built
    from the data's rows (for ``select_best``) and one stacked build of
    the 12 partitions', not one more per partition. Learn descends from
    the origin, unconverged, so the lifted map's certificate refuses
    every partition before any system is solved."""
    data = gen_synthetic_dataset(150, 3, noise=0.05, seed=7)
    loss = ridge_loss(3, radius=0.02)
    cfg = dist_params(150, 3, loss, 1.0, 1, 1.0, 0.001, copies=1)
    assert cfg.num_partitions == 12 and cfg.train_iters >= 3
    builds, solves, refused = [], [], []
    row_moments, solve = data_module._row_moments, np.linalg.solve
    original = distributed.pgd

    def counted(rows):
        builds.append(rows.shape[:-1])
        return row_moments(rows)

    for module in (data_module, distributed):
        monkeypatch.setattr(module, "_row_moments", counted)
    monkeypatch.setattr(np.linalg, "solve",
                        lambda *a: solves.append(1) or solve(*a))
    monkeypatch.setattr(distributed, "pgd", lambda *a, **k: refused.append(
        k["refused"]) or original(*a, **k))
    state = dist_learn(data, loss, cfg, seed=3)
    chunk = cfg.sample_size // cfg.num_partitions
    assert sorted(builds) == [(12, chunk), (150,)]
    assert len(solves) == 0
    assert refused == [True] * 12
    # The same bytes as ``pgd`` on each partition's rows alone.
    monkeypatch.undo()
    for j, theta in enumerate(state.thetas[0]):
        features, labels = state.data.rows(
            state.indices[0, j * chunk:(j + 1) * chunk])
        alone = distributed.pgd(loss, Dataset(features, labels),
                                np.zeros(3),
                                distributed.GDConfig.for_loss(
                                    loss, cfg.train_iters))
        assert alone.theta.tobytes() == theta.tobytes()


def test_benchmark_learn_solves_nothing_and_edits_solve_as_before(
        monkeypatch):
    """At the benchmark's distributed config (n = 500, d = 20, xi = 1,
    3 copies of 22 partitions, T = 31 >= d and rho^T > 2^-53) learn
    descends from the origin unconverged: every partition is mapped by
    the lifted power, with no system solved and no ``pgd`` call. An edit
    starts warm, so it solves once per block of touched partitions, as
    before, and maps them all."""
    data = gen_synthetic_dataset(500, 20, seed=5)
    loss = RidgeLoss(ParamSpace(20, 1.0), lam=1.0)
    cfg = dist_params(500, 20, loss, 1.0, 1, 1.0, 1e-3, copies=3)
    assert (cfg.copies * cfg.num_partitions, cfg.train_iters) == (66, 31)
    solves, calls = [], []
    solve, original = np.linalg.solve, distributed.pgd
    monkeypatch.setattr(np.linalg, "solve",
                        lambda *a: solves.append(1) or solve(*a))
    monkeypatch.setattr(distributed, "pgd",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    state = dist_learn(data, loss, cfg, seed=5)
    assert (solves, calls) == ([], [])
    for update in gen_adversarial_sequence(data, 8, "churn", seed=5):
        solves.clear()
        state = dist_unlearn(state, update, loss, cfg)
        touched = sum(len(r.touched) for r in state.last_report.copies)
        assert len(solves) == math.ceil(touched
                                        / distributed._BLOCK_PARTITIONS)
        assert calls == []


def test_logistic_partitions_all_run_the_pgd_loop(monkeypatch):
    """Only ridge-family stacks go to ``map_many``: at learn and on every
    edit, each touched partition of a logistic chain runs ``pgd``'s loop,
    one gradient per iteration."""
    data = gen_synthetic_dataset(40, 3, model="logistic", noise=0.05,
                                 seed=44)
    loss = LogisticLoss(ParamSpace(3, 1.0), lam=1.0)
    cfg = dist_params(40, 3, loss, 1.0, 1, 1.0, 0.01, copies=2)
    monkeypatch.setattr(distributed, "map_many",
                        lambda *a: pytest.fail("map_many called"))
    steps, grads = [], []
    original, gradient = distributed.pgd, LogisticLoss.empirical_gradient
    monkeypatch.setattr(distributed, "pgd", lambda *a, **k: steps.append(
        a[3].iterations) or original(*a, **k))
    monkeypatch.setattr(LogisticLoss, "empirical_gradient",
                        lambda *a: grads.append(1) or gradient(*a))
    state = dist_learn(data, loss, cfg, seed=44)
    assert steps == [cfg.train_iters] * (cfg.copies * cfg.num_partitions)
    assert len(grads) == sum(steps)
    edited = 0
    for update in gen_adversarial_sequence(data, 6, "churn", seed=45):
        steps.clear(), grads.clear()
        state = dist_unlearn(state, update, loss, cfg)
        assert steps == [r.iterations for r in state.last_report.copies
                         for _ in r.touched]
        assert len(grads) == sum(steps)
        edited += len(steps)
    assert edited > 0


def test_chain_reservoir_occupancy_is_uniform():
    """After a long churn stream every data row fills about B/n of each
    copy's positions; the counts are pinned, as the reservoir's draws
    are those of the row-valued reservoir it replaced."""
    n, dim = 30, 2
    data = gen_synthetic_dataset(n, dim, noise=0.05, seed=31)
    loss = ridge_loss(dim)
    cfg = dist_params(n, dim, loss, 1.0, 1, 1.0, 0.01, copies=100)
    state = dist_learn(data, loss, cfg, seed=31)
    for update in gen_adversarial_sequence(data, 400, "churn", seed=31):
        state = dist_unlearn(state, update, loss, cfg)
    assert state.data.features.tobytes() == data.features.tobytes()
    counts = np.bincount(state.indices.ravel(), minlength=n)
    assert counts.sum() == cfg.copies * cfg.sample_size
    assert stats.chisquare(counts).pvalue > 1e-3
    assert counts.tolist() == [
        91, 104, 101, 112, 96, 101, 96, 87, 103, 107, 93, 113, 97, 103, 103,
        92, 105, 100, 104, 102, 76, 86, 100, 100, 104, 110, 97, 108, 104, 105]
