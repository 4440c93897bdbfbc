import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unlearn import distributed
from unlearn.data import (DataPoint, Dataset, Update,
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

from helpers import BAD_ADDS


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
        dist_params(400, 2, loss, 1.0, 1, 1.0, 1e-3, max_sample_size=100)
    with pytest.raises(ValueError, match="beta"):
        dist_params(60, 2, loss, 1.0, 1, 1.0, 0.01, beta=1.5)
    with pytest.raises(ValueError, match="copy count"):
        dist_params(60, 2, loss, 1.0, 1, 1.0, 0.01, copies=0)
    with pytest.raises(ValueError, match="iteration budget"):
        dist_params(60, 2, loss, 1.0, 0, 1.0, 0.01)


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
    means = []
    for _ in range(2000):
        features = np.tile(base.features, (3, 1))[:b]
        labels = np.tile(base.labels, 3)[:b]
        _, _, changed = reservoir_update(features, labels,
                                         Update("add", new_point),
                                         new_data, rng)
        means.append(changed.size)
    counts = np.array(means)
    stderr = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - b / n_new) <= 3 * stderr


def test_reservoir_add_of_an_existing_value_counts_no_changes():
    rng = substream(12, "reservoir", 0)
    point = DataPoint(np.array([0.1, 0.2]), -0.5)
    features = np.tile(point.x, (20, 1))
    labels = np.full(20, point.y)
    new_data = Dataset(features, labels)
    out_f, out_l, changed = reservoir_update(features, labels,
                                             Update("add", point),
                                             new_data, rng)
    assert changed.size == 0
    assert np.array_equal(out_f, features)
    assert np.array_equal(out_l, labels)


def test_reservoir_delete_replaces_every_copy():
    rng = substream(13, "reservoir", 0)
    base = gen_synthetic_dataset(30, 2, seed=13)
    victim = DataPoint(np.array([0.7, 0.1]), 0.25)
    features = base.features[:12].copy()
    labels = base.labels[:12].copy()
    for pos in (2, 5, 9):
        features[pos] = victim.x
        labels[pos] = victim.y
    new_data = base  # the edited dataset no longer holds the victim
    out_f, out_l, changed = reservoir_update(features, labels,
                                             Update("delete", victim),
                                             new_data, rng)
    assert list(changed) == [2, 5, 9]
    assert not np.any(np.all(out_f == victim.x, axis=1) & (out_l == victim.y))
    for pos in (2, 5, 9):
        hit = np.all(base.features == out_f[pos], axis=1) & \
            (base.labels == out_l[pos])
        assert hit.any()  # replacements drawn from the edited dataset
    assert out_f.shape == features.shape


def test_reservoir_delete_of_an_absent_value_is_silent():
    rng = substream(14, "reservoir", 0)
    base = gen_synthetic_dataset(10, 2, seed=14)
    ghost = DataPoint(np.array([0.0, 0.99]), -0.75)
    out_f, out_l, changed = reservoir_update(base.features, base.labels,
                                             Update("delete", ghost),
                                             base, rng)
    assert changed.size == 0
    assert np.array_equal(out_f, base.features)
    assert np.array_equal(out_l, base.labels)


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
    with pytest.raises(ValueError, match="exceeds declared bound"):
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
