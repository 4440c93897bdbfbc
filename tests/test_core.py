import hashlib
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from unlearn import core
from unlearn.core import (
    MODES,
    SNAPSHOT_FORMAT,
    UnlearnConfig,
    UnlearnState,
    drift_bound,
    fresh_mean,
    gaussian_mechanism_epsilon,
    gaussian_tail_radius,
    learn,
    mean_gap_bound,
    perfect_drift_bound,
    perfect_iters_floor,
    publish,
    regularized_strong_params,
    sensitivity_bound,
    sigma_perfect,
    sigma_strong,
    unlearn,
    weak_params,
    weak_schedule,
)
from unlearn.data import (DataPoint, Dataset, Update,
                          gen_adversarial_sequence, gen_synthetic_dataset,
                          moments_tolerance)
from unlearn.distributed import PartitionedState, dist_learn, dist_params
from unlearn.losses import (
    LogisticLoss,
    LossModel,
    ParamSpace,
    RegularizedLoss,
    RidgeLoss,
    closed_form_ridge_optimizer,
)
from unlearn.rng import substream

from helpers import BAD_ADDS, traced_peak

E = math.e
DELTA1 = math.exp(-1.0)


class StubLoss(LossModel):
    """Quadratic with hand-picked certified constants for formula tests."""

    def __init__(self, space, m=1.0, M=3.0, L=1.0):
        super().__init__(space)
        self.strong_convexity = m
        self.smoothness = M
        self.lipschitz = L

    def point_loss(self, x, y, theta):
        theta = np.asarray(theta, dtype=float)
        return 0.5 * self.strong_convexity * float(theta @ theta)

    def point_gradient(self, x, y, theta):
        return self.strong_convexity * np.asarray(theta, dtype=float)


def ridge_chain_problem(n=200, dim=3, lam=1.0, seed=0):
    data = gen_synthetic_dataset(n, dim, noise=0.05, label_bound=0.5,
                                 seed=seed)
    loss = RidgeLoss(ParamSpace(dim, 1.0), label_bound=0.5, lam=lam)
    return data, loss


def test_exposed_modes():
    assert MODES == ("strong_secret", "strong_perfect", "regularized_strong",
                     "regularized_weak")


def test_mechanism_epsilon_by_hand():
    # gap equal to sigma: quadratic term 1/2, linear term sqrt(2 log(1/delta))
    assert gaussian_mechanism_epsilon(0.05, 0.05, math.exp(-2.0)) == \
        pytest.approx(2.5, rel=1e-12)
    assert gaussian_mechanism_epsilon(0.0, 0.3, 0.1) == 0.0


def test_mechanism_epsilon_input_checks():
    with pytest.raises(ValueError, match="gap"):
        gaussian_mechanism_epsilon(-0.1, 0.1, 0.1)
    with pytest.raises(ValueError, match="noise scale"):
        gaussian_mechanism_epsilon(0.1, 0.0, 0.1)
    with pytest.raises(ValueError, match="delta"):
        gaussian_mechanism_epsilon(0.1, 0.1, 1.0)


def test_sensitivity_and_drift_bounds_by_hand():
    assert sensitivity_bound(2.0, 0.5, 10) == pytest.approx(0.8, rel=1e-15)
    # 4L/(mn) * gamma^I / (1 - gamma^I) with gamma^I = 1/4
    want = 0.4 * (0.25 / 0.75)
    assert drift_bound(1.0, 1.0, 0.5, 10, 2) == pytest.approx(want, rel=1e-13)
    assert mean_gap_bound(1.0, 1.0, 0.5, 10, 2) == \
        pytest.approx(2 * want, rel=1e-13)
    assert perfect_drift_bound(1.0, 1.0, 0.5, 10, 1, 0.1, 2) == \
        pytest.approx(0.6, rel=1e-13)


def test_strong_mode_noise_scale_closed_form():
    # 4 sqrt(2) L gamma / (m n (1 - gamma) (sqrt(log(1/d) + eps) -
    # sqrt(log(1/d)))) at gamma=1/2, n=100 reduces to (4 + 2 sqrt(2)) / 50
    got = sigma_strong(1.0, 1.0, 0.5, 100, 1, 1.0, DELTA1)
    assert got == pytest.approx((4.0 + 2.0 * math.sqrt(2.0)) / 50.0, rel=1e-12)


def test_strong_mode_noise_scale_monotonicity():
    base = sigma_strong(1.0, 1.0, 0.5, 100, 2, 1.0, DELTA1)
    assert sigma_strong(1.0, 1.0, 0.5, 100, 4, 1.0, DELTA1) < base
    assert sigma_strong(1.0, 1.0, 0.5, 200, 2, 1.0, DELTA1) < base
    assert sigma_strong(1.0, 1.0, 0.4, 100, 2, 1.0, DELTA1) < base


def test_privacy_budget_preconditions():
    with pytest.raises(ValueError, match="epsilon must not exceed"):
        sigma_strong(1.0, 1.0, 0.5, 100, 1, 3.0, DELTA1)
    with pytest.raises(ValueError, match="delta"):
        sigma_strong(1.0, 1.0, 0.5, 100, 1, 1.0, 0.0)
    with pytest.raises(ValueError, match="epsilon"):
        sigma_strong(1.0, 1.0, 0.5, 100, 1, 0.0, DELTA1)


def test_perfect_mode_needs_enough_iterations():
    floor = perfect_iters_floor(1.0 / 3.0, 5, 1.0, DELTA1)
    assert 2.0 < floor <= 3.0
    assert sigma_perfect(3.0, 1.0, 1.0 / 3.0, 500, 5, 3, 1.0, DELTA1) > 0
    with pytest.raises(ValueError, match="insufficient iterations"):
        sigma_perfect(3.0, 1.0, 1.0 / 3.0, 500, 5, 2, 1.0, DELTA1)
    floor = perfect_iters_floor(0.5, 1, 1.0, DELTA1)
    assert 3.0 < floor <= 4.0
    assert sigma_perfect(1.0, 1.0, 0.5, 100, 1, 4, 1.0, DELTA1) > 0
    with pytest.raises(ValueError, match="insufficient iterations"):
        sigma_perfect(1.0, 1.0, 0.5, 100, 1, 3, 1.0, DELTA1)


def test_perfect_mode_needs_more_noise_than_secret_mode():
    secret = sigma_strong(1.0, 1.0, 0.5, 100, 4, 1.0, DELTA1)
    perfect = sigma_perfect(1.0, 1.0, 0.5, 100, 1, 4, 1.0, DELTA1)
    assert perfect > secret


def test_regularized_strong_parameters_closed_form():
    m_reg, sigma = regularized_strong_params(1.0, 1.0, 2.0, 100, 1, 10,
                                             1.0, DELTA1)
    assert m_reg == pytest.approx(2000.0 ** -0.4, rel=1e-12)
    gamma = 1.0 / (1.0 + 2.0 * m_reg)
    want = sigma_strong(1.0 + 2.0 * m_reg, m_reg, gamma, 100, 10, 1.0, DELTA1)
    assert sigma == pytest.approx(want, rel=1e-12)


def test_weak_parameters_match_direct_arithmetic():
    rng = np.random.default_rng(3)
    for _ in range(10):
        L = float(rng.uniform(0.5, 3.0))
        M = float(rng.uniform(0.5, 3.0))
        D = float(rng.uniform(1.0, 4.0))
        n = int(rng.integers(50, 500))
        iters = int(rng.integers(1, 20))
        eps = float(rng.uniform(0.2, 1.0))
        delta = float(rng.uniform(0.05, 0.3))
        m_reg, sigma = weak_params(L, M, D, n, 2, iters, eps, delta, 1.0)
        want_m = (L * L * M * M * 2 * math.log(1 / delta)
                  / (D * D * eps * eps * n * n * iters)) ** 0.25
        assert m_reg == pytest.approx(want_m, rel=1e-12)
        gap = math.sqrt(math.log(1 / delta) + eps) - math.sqrt(math.log(1 / delta))
        want_s = (2 * math.sqrt(2) * math.sqrt(M) * (L + m_reg * D)
                  / (m_reg * math.sqrt(m_reg * iters) * n * gap))
        assert sigma == pytest.approx(want_s, rel=1e-12)


def test_weak_schedule_grows_polynomially():
    assert weak_schedule(1, 2, 1.0) == 2
    assert weak_schedule(3, 2, 1.0) == 18
    assert weak_schedule(2, 3, 2.0) == 48
    with pytest.raises(ValueError, match="round index"):
        weak_schedule(0, 2, 1.0)


def test_config_validation():
    with pytest.raises(ValueError, match="unknown mode"):
        UnlearnConfig("secret", 1.0, 0.1, 5)
    with pytest.raises(ValueError, match="epsilon must not exceed"):
        UnlearnConfig("strong_secret", 3.0, DELTA1, 5)
    with pytest.raises(ValueError, match="delta"):
        UnlearnConfig("strong_secret", 1.0, 0.0, 5)
    with pytest.raises(ValueError, match="iteration budget"):
        UnlearnConfig("strong_secret", 1.0, 0.1, 0)
    with pytest.raises(ValueError, match="schedule exponent"):
        UnlearnConfig("regularized_weak", 1.0, 0.1, 5, schedule_exponent=0.5)


@pytest.mark.parametrize("exponent", [float("nan"), float("inf")],
                         ids=["nan", "inf"])
@pytest.mark.parametrize("make", [
    lambda xi: UnlearnConfig("regularized_weak", 1.0, 0.1, 5,
                             schedule_exponent=xi),
    lambda xi: weak_params(1.0, 1.0, 2.0, 100, 3, 5, 1.0, 0.1, xi),
    lambda xi: weak_schedule(3, 5, xi),
], ids=["config", "weak_params", "weak_schedule"])
def test_non_finite_schedule_exponent_is_rejected(make, exponent):
    with pytest.raises(ValueError, match=r"must lie in \[1, inf\)"):
        make(exponent)


def test_resolved_training_budget_matches_hand_count():
    # D m n / (2L) = 100 and gamma = 1/2: T = ceil(5 + log2(100)) = 12
    loss = StubLoss(ParamSpace(2, 1.0))
    sched = UnlearnConfig("strong_secret", 1.0, DELTA1, 5).resolve(loss, 100, 2)
    assert sched.gamma == 0.5
    assert sched.train_iters(100) == 12


def test_training_budget_floor_is_logged(caplog):
    loss = StubLoss(ParamSpace(2, 1.0), m=1.0, M=3.0, L=3.0)
    sched = UnlearnConfig("strong_secret", 1.0, DELTA1, 5).resolve(loss, 2, 2)
    with caplog.at_level(logging.WARNING, logger="unlearn.core"):
        assert sched.train_iters(2) == 5
    assert "learning budget floor" in caplog.text


def test_update_budgets_per_mode():
    loss = StubLoss(ParamSpace(5, 1.0), m=1.0, M=2.0, L=3.0)  # gamma = 1/3
    secret = UnlearnConfig("strong_secret", 1.0, DELTA1, 7).resolve(loss, 500, 5)
    assert [secret.update_iters(i) for i in (1, 5, 50)] == [7, 7, 7]
    perfect = UnlearnConfig("strong_perfect", 1.0, DELTA1, 3).resolve(loss, 500, 5)
    # log(log(20 e)) / log 3 = 1.26, so round one pays two extra steps
    assert perfect.update_iters(1) == 5
    budgets = [perfect.update_iters(i) for i in range(1, 200)]
    assert all(a <= b for a, b in zip(budgets, budgets[1:]))
    weak = UnlearnConfig("regularized_weak", 1.0, DELTA1, 2).resolve(loss, 500, 5)
    assert [weak.update_iters(i) for i in (1, 2, 3)] == [2, 8, 18]
    with pytest.raises(ValueError, match="round index"):
        secret.update_iters(0)


def test_resolve_requires_two_points():
    loss = StubLoss(ParamSpace(2, 1.0))
    with pytest.raises(ValueError, match="two points"):
        UnlearnConfig("strong_secret", 1.0, DELTA1, 5).resolve(loss, 1, 2)


def test_publish_noise_moments_and_tail():
    rng = substream(123, "noise")
    theta = np.array([0.3, -0.2, 0.1, 0.0])
    sigma = 0.02
    draws = np.stack([publish(theta, sigma, rng) for _ in range(20000)])
    err = draws.mean(axis=0) - theta
    assert np.abs(err).max() < 4 * sigma / math.sqrt(20000) * 2
    assert_allclose(draws.std(axis=0), sigma, rtol=0.05)
    radius = gaussian_tail_radius(sigma, 4, 0.1)
    misses = (np.linalg.norm(draws - theta, axis=1) > radius).mean()
    assert misses <= 0.1
    assert gaussian_tail_radius(sigma, 4, 0.01) > radius


def test_publish_does_not_reproject():
    rng = substream(5, "noise")
    theta = np.array([1.0, 0.0])  # on the boundary of a radius-1 ball
    norms = [np.linalg.norm(publish(theta, 0.5, rng)) for _ in range(64)]
    assert max(norms) > 1.0


def test_publish_rejects_bad_noise_scales():
    rng = substream(6, "noise")
    with pytest.raises(ValueError, match="noise scale"):
        publish(np.zeros(2), 0.0, rng)
    with pytest.raises(ValueError, match="noise scale"):
        publish(np.zeros(2), math.inf, rng)


def test_learn_lands_near_the_exact_minimizer():
    data, loss = ridge_chain_problem()
    config = UnlearnConfig("strong_secret", 1.0, DELTA1, 3)
    state = learn(data, loss, config, seed=1)
    star = closed_form_ridge_optimizer(data, 1.0, loss.space)
    sched = config.resolve(loss, data.size, data.dim)
    limit = 4 * loss.lipschitz * sched.gamma ** 3 / (1.0 * data.size)
    assert np.linalg.norm(state.theta_hat - star) <= limit
    assert state.round_index == 0
    assert state.budget == sched.train_iters(data.size) * data.size


def test_learn_is_deterministic_per_seed():
    data, loss = ridge_chain_problem()
    config = UnlearnConfig("strong_secret", 1.0, DELTA1, 3)
    a = learn(data, loss, config, seed=7)
    b = learn(data, loss, config, seed=7)
    c = learn(data, loss, config, seed=8)
    assert np.array_equal(a.theta_pub, b.theta_pub)
    assert not np.array_equal(a.theta_pub, c.theta_pub)
    assert np.array_equal(a.theta_hat, c.theta_hat)  # noise only differs


def test_learn_requires_two_points():
    _, loss = ridge_chain_problem()
    tiny = Dataset(np.array([[0.1, 0.0, 0.0]]), np.array([0.1]))
    with pytest.raises(ValueError, match="two points"):
        learn(tiny, loss, UnlearnConfig("strong_secret", 1.0, DELTA1, 3))


def test_fresh_mean_reproduces_the_training_run():
    data, loss = ridge_chain_problem()
    config = UnlearnConfig("strong_secret", 1.0, DELTA1, 3)
    state = learn(data, loss, config, seed=2)
    trace = fresh_mean(state.data, loss, config)
    assert np.array_equal(trace.theta, state.theta_hat)


def test_unlearn_tracks_the_moving_minimizer():
    data, loss = ridge_chain_problem()
    config = UnlearnConfig("strong_secret", 1.0, DELTA1, 4)
    state = learn(data, loss, config, seed=3)
    sched = config.resolve(loss, data.size, data.dim)
    rng = np.random.default_rng(4)
    expected_budget = state.budget
    for i in range(1, 7):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        update = Update("add", DataPoint(direction, 0.5))
        state = unlearn(state, update, loss, config)
        expected_budget += sched.update_iters(i) * state.data.size
        star = closed_form_ridge_optimizer(state.data, 1.0, loss.space)
        drift = np.linalg.norm(state.theta_hat - star)
        limit = drift_bound(loss.lipschitz, 1.0, sched.gamma,
                            data.size, 4)
        assert drift <= limit
        gap = np.linalg.norm(fresh_mean(state.data, loss, config).theta
                             - state.theta_hat)
        assert gap <= mean_gap_bound(loss.lipschitz, 1.0, sched.gamma,
                                     data.size, 4)
    assert state.round_index == 6
    assert state.budget == expected_budget


def test_add_then_delete_returns_to_the_start():
    data, loss = ridge_chain_problem()
    config = UnlearnConfig("strong_secret", 1.0, DELTA1, 20)
    state0 = learn(data, loss, config, seed=5)
    point = DataPoint(np.array([1.0, 0.0, 0.0]), 0.5)
    state1 = unlearn(state0, Update("add", point), loss, config)
    state2 = unlearn(state1, Update("delete", point), loss, config)
    assert np.linalg.norm(state2.theta_hat - state0.theta_hat) < 1e-6
    assert state2.data.size == data.size


def test_void_deletion_still_republishes():
    data, loss = ridge_chain_problem()
    config = UnlearnConfig("strong_secret", 1.0, DELTA1, 3)
    state = learn(data, loss, config, seed=6)
    ghost = DataPoint(np.array([0.0, 1.0, 0.0]), -0.5)
    after = unlearn(state, Update("delete", ghost), loss, config)
    assert after.data.size == data.size
    assert after.round_index == 1
    assert not np.array_equal(after.theta_pub, state.theta_pub)


def test_unlearn_rejects_mode_mismatch():
    data, loss = ridge_chain_problem()
    secret = UnlearnConfig("strong_secret", 1.0, DELTA1, 3)
    state = learn(data, loss, secret, seed=7)
    perfect = UnlearnConfig("strong_perfect", 1.0, DELTA1, 3)
    with pytest.raises(ValueError, match="not the chain's own"):
        unlearn(state, Update("add", DataPoint(np.zeros(3), 0.0)), loss,
                perfect)


@pytest.mark.parametrize("x, y", BAD_ADDS)
def test_unlearn_rejects_adds_outside_the_bounds(x, y):
    data, loss = ridge_chain_problem()
    config = UnlearnConfig("strong_secret", 1.0, DELTA1, 3)
    state = learn(data, loss, config, seed=8)
    message = "exceeds declared bound" if np.isfinite(x).all() \
        and np.isfinite(y) else "non-finite"
    with pytest.raises(ValueError, match=message):
        unlearn(state, Update("add", DataPoint(x, y)), loss, config)


def test_unlearn_rejects_labels_outside_the_loss_label_set():
    data = gen_synthetic_dataset(100, 3, model="logistic", seed=8)
    loss = LogisticLoss(ParamSpace(3, 1.0), lam=1.0)
    config = UnlearnConfig("strong_secret", 1.0, DELTA1, 3)
    state = learn(data, loss, config, seed=8)
    half = Update("add", DataPoint(np.array([0.1, 0.0, 0.0]), 0.5))
    with pytest.raises(ValueError, match="logistic labels"):
        unlearn(state, half, loss, config)
    regularized = UnlearnConfig("regularized_strong", 1.0, DELTA1, 3)
    state = learn(data, loss, regularized, seed=8)
    with pytest.raises(ValueError, match="logistic labels"):
        unlearn(state, half, loss, regularized)
    good = Update("add", DataPoint(np.array([0.1, 0.0, 0.0]), -1.0))
    assert unlearn(state, good, loss, regularized).data.size == 101


def round_updates(rounds, dim=3, seed=99):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(rounds):
        direction = rng.standard_normal(dim)
        direction /= np.linalg.norm(direction)
        out.append(Update("add", DataPoint(direction, 0.5)))
    return out


@pytest.mark.parametrize("mode,iters", [("strong_secret", 3),
                                        ("strong_perfect", 4)])
def test_snapshot_restore_replays_identically(mode, iters):
    # the noise generator is live, so the checkpoint must be cut at the
    # round it describes, before the original chain moves on
    data, loss = ridge_chain_problem()
    config = UnlearnConfig(mode, 1.0, DELTA1, iters)
    updates = round_updates(4)
    state = learn(data, loss, config, seed=11)
    for update in updates[:2]:
        state = unlearn(state, update, loss, config)
    resumed = UnlearnState.restore(state.snapshot(), state.data, loss, config)
    for update in updates[2:]:
        state = unlearn(state, update, loss, config)
        resumed = unlearn(resumed, update, loss, config)
    assert np.array_equal(state.theta_pub, resumed.theta_pub)
    assert state.budget == resumed.budget


def test_snapshot_withholds_the_secret_only_in_perfect_mode():
    data, loss = ridge_chain_problem()
    secret = learn(data, loss, UnlearnConfig("strong_secret", 1.0, DELTA1, 3),
                   seed=12)
    snap = secret.snapshot()
    assert snap["format"] == SNAPSHOT_FORMAT
    assert snap["theta_hat"] is not None
    perfect = learn(data, loss,
                    UnlearnConfig("strong_perfect", 1.0, DELTA1, 4), seed=12)
    assert perfect.theta_hat is not None  # held in memory within the round
    assert perfect.snapshot()["theta_hat"] is None


def test_restore_rejects_unknown_formats_and_missing_secrets():
    data, loss = ridge_chain_problem()
    perfect_cfg = UnlearnConfig("strong_perfect", 1.0, DELTA1, 4)
    state = learn(data, loss, perfect_cfg, seed=13)
    snap = state.snapshot()
    with pytest.raises(ValueError, match="state format"):
        UnlearnState.restore({**snap, "format": "unlearn-state/9"}, data,
                             loss, perfect_cfg)
    restored = UnlearnState.restore(snap, state.data, loss, perfect_cfg)
    update = Update("add", DataPoint(np.array([1.0, 0.0, 0.0]), 0.5))
    # the perfect chain never needs the secret again
    after = unlearn(restored, update, loss, perfect_cfg)
    assert after.round_index == 1
    # but a secret-state chain cannot continue without its secret
    secret_cfg = UnlearnConfig("strong_secret", 1.0, DELTA1, 4)
    secret = learn(data, loss, secret_cfg, seed=13)
    with pytest.raises(ValueError, match="lacks the secret parameter"):
        UnlearnState.restore({**secret.snapshot(), "theta_hat": None},
                             secret.data, loss, secret_cfg)


def test_restore_checks_the_dataset_and_the_mode():
    data, loss = ridge_chain_problem()
    config = UnlearnConfig("strong_secret", 1.0, DELTA1, 3)
    state = learn(data, loss, config, seed=13)
    snap = state.snapshot()
    wider = gen_synthetic_dataset(200, 5, seed=13)
    with pytest.raises(ValueError, match="dimension does not match"):
        UnlearnState.restore(snap, wider, loss, config)
    with pytest.raises(ValueError, match="mode 'bogus' does not match"):
        UnlearnState.restore({**snap, "mode": "bogus"}, state.data, loss,
                             config)
    restored = UnlearnState.restore(snap, state.data, loss, config)
    assert restored.snapshot() == snap


def test_learn_rejects_a_loss_of_another_dimension():
    data, _ = ridge_chain_problem()
    wider = RidgeLoss(ParamSpace(4, 1.0), label_bound=0.5, lam=1.0)
    config = UnlearnConfig("strong_secret", 1.0, DELTA1, 3)
    with pytest.raises(ValueError, match="loss dimension 4 does not match "
                                         "the dataset's 3"):
        learn(data, wider, config, seed=13)


# How each array field of a snapshot is made ragged: a row cut short,
# a list where a number was, or, for a copy's indices, one copy holding
# one index fewer than the others.
RAGGED = {
    "moments.matrix": lambda m: [m[0][:-1]] + m[1:],
    "theta_pub": lambda v: [v[:2]] + v[1:],
    "theta_hat": lambda v: [v[:2]] + v[1:],
    "copies.indices": lambda v: v[:-1],
    "copies.thetas": lambda t: [t[0][:-1]] + t[1:],
}


def _first_to_text(value):
    if isinstance(value[0], list):
        return [_first_to_text(value[0])] + value[1:]
    return ["x"] + value[1:]


@pytest.mark.parametrize("defect", ["ragged", "text"])
@pytest.mark.parametrize("field", sorted(RAGGED))
def test_restore_names_a_malformed_array_field(field, defect):
    """A ragged or non-numeric array in a snapshot is rejected with a
    ``ValueError`` that names its field, not numpy's bare message."""
    data, loss = ridge_chain_problem(n=40, seed=9)
    if field.startswith("copies."):
        config = dist_params(40, 3, loss, 1.0, 1, 1.0, 0.01, copies=2)
        state = dist_learn(data, loss, config, seed=9)
        restore = PartitionedState.restore
    else:
        config = UnlearnConfig("strong_secret", 1.0, DELTA1, 3)
        state = learn(data, loss, config, seed=9)
        restore = UnlearnState.restore
    snap = state.snapshot()
    assert restore(snap, state.data, loss, config).snapshot() == snap
    head, _, key = field.rpartition(".")
    record = snap[head] if head else snap
    if head == "copies":
        record = record[0]
    record[key] = (RAGGED[field] if defect == "ragged"
                   else _first_to_text)(record[key])
    with pytest.raises(ValueError, match=f"snapshot {field} "):
        restore(snap, state.data, loss, config)


def test_restore_rejects_a_loss_of_another_dimension():
    data, loss = ridge_chain_problem()
    config = UnlearnConfig("strong_secret", 1.0, DELTA1, 3)
    snap = learn(data, loss, config, seed=13).snapshot()
    wider = RidgeLoss(ParamSpace(4, 1.0), label_bound=0.5, lam=1.0)
    with pytest.raises(ValueError, match="loss dimension 4 does not match"):
        UnlearnState.restore(snap, data, wider, config)
    assert UnlearnState.restore(snap, data, loss, config).snapshot() == snap


def test_perfect_mode_restarts_from_the_public_parameter():
    data, loss = ridge_chain_problem()
    config = UnlearnConfig("strong_perfect", 1.0, DELTA1, 4)
    state = learn(data, loss, config, seed=14)
    stripped = UnlearnState.restore(state.snapshot(), state.data, loss,
                                    config)
    update = Update("add", DataPoint(np.array([0.0, 1.0, 0.0]), 0.5))
    a = unlearn(state, update, loss, config)
    b = unlearn(stripped, update, loss, config)
    assert np.array_equal(a.theta_pub, b.theta_pub)


def test_regularized_strong_risk_decomposition():
    data, loss = ridge_chain_problem(n=100, dim=2, lam=0.0, seed=21)
    config = UnlearnConfig("regularized_strong", 1.0, DELTA1, 10)
    state = learn(data, loss, config, seed=21)
    sched = config.resolve(loss, data.size, data.dim)
    g = sched.effective_loss
    wide = ParamSpace(2, 10.0)
    star = closed_form_ridge_optimizer(data, 0.0, wide)
    star_reg = closed_form_ridge_optimizer(data, sched.m_reg, wide)
    assert loss.space.contains(star)
    theta = state.theta_hat
    # smoothness of the regularized objective at its interior minimizer
    lhs_a = g.empirical_loss(data, theta) - g.empirical_loss(data, star_reg)
    rhs_a = 0.5 * g.smoothness * np.linalg.norm(theta - star_reg) ** 2
    assert lhs_a <= rhs_a * (1 + 1e-9) + 1e-15
    # swapping objectives costs at most the quadratic term difference
    excess = loss.empirical_loss(data, theta) - loss.empirical_loss(data, star)
    rhs_b = lhs_a + 0.5 * sched.m_reg * (
        np.linalg.norm(star) ** 2 - np.linalg.norm(theta) ** 2)
    assert excess <= rhs_b + 1e-12
    assert excess <= rhs_a * (1 + 1e-9) + 0.5 * sched.m_reg * \
        np.linalg.norm(star) ** 2 + 1e-12


def test_learn_resolves_the_schedule_once_per_chain(monkeypatch):
    calls = []
    original = UnlearnConfig.resolve

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(UnlearnConfig, "resolve", counted)
    data, loss = ridge_chain_problem()
    config = UnlearnConfig("strong_secret", 1.0, DELTA1, 3)
    state = learn(data, loss, config, seed=15)
    for update in round_updates(10):
        state = unlearn(state, update, loss, config)
    assert state.round_index == 10
    assert len(calls) == 1
    assert state.schedule.n == data.size


def test_unlearn_rejects_another_loss_or_config():
    data, loss = ridge_chain_problem()
    config = UnlearnConfig("strong_secret", 1.0, DELTA1, 3)
    state = learn(data, loss, config, seed=16)
    update = round_updates(1)[0]
    twin = RidgeLoss(ParamSpace(3, 1.0), label_bound=0.5, lam=1.0)
    weaker = RidgeLoss(ParamSpace(3, 1.0), label_bound=0.5, lam=0.01)
    for other in (twin, weaker):
        with pytest.raises(ValueError, match="not the chain's own"):
            unlearn(state, update, other, config)
    looser = UnlearnConfig("strong_secret", 0.5, DELTA1, 3)
    with pytest.raises(ValueError, match="not the chain's own"):
        unlearn(state, update, loss, looser)
    assert unlearn(state, update, loss,
                   UnlearnConfig("strong_secret", 1.0, DELTA1, 3)).budget > 0


def wide_bound_dataset(n=60, dim=3, seed=17):
    # Rows of norm up to 0.9 under a declared feature bound of 10, so
    # only the loss's own bound of 1 can reject a wider row.
    base = gen_synthetic_dataset(n, dim, noise=0.05, label_bound=0.5,
                                 feature_bound=0.9, seed=seed)
    return Dataset(base.features, base.labels, feature_bound=10.0,
                   label_bound=0.5)


def test_a_chain_shares_its_inputs_rows_and_no_write_reaches_it():
    base, loss = ridge_chain_problem(n=40, seed=3)
    features, labels = base.features.copy(), base.labels.copy()
    data = Dataset(features, labels, label_bound=0.5)
    config = UnlearnConfig("strong_secret", 1.0, DELTA1, 3)
    state = learn(data, loss, config, seed=3)
    other = learn(data, loss, config, seed=4)
    restored = UnlearnState.restore(state.snapshot(), data, loss, config)
    features[:], labels[:] = 0.0, 0.0
    for chain in (state, other, restored):
        assert np.shares_memory(chain.data.features, data.features)
        assert np.shares_memory(chain.data.labels, data.labels)
        assert np.array_equal(chain.data.features, base.features)
        assert np.array_equal(chain.data.labels, base.labels)
        assert chain.data._rows is not data._rows
    assert state.data._rows is not other.data._rows
    point = DataPoint(np.array([0.1, 0.2, 0.0]), 0.25)
    unlearn(state, Update("add", point), loss, config)
    assert data._rows.count == other.data._rows.count == data.size


def test_learn_and_restore_reject_non_finite_rows():
    data, loss = ridge_chain_problem(n=40, seed=4)
    config = UnlearnConfig("strong_secret", 1.0, DELTA1, 3)
    state = learn(data, loss, config, seed=4)
    for value in (np.nan, np.inf):
        features = data.features.copy()
        features[7, 1] = value
        bad = Dataset(features, data.labels, label_bound=0.5)
        with pytest.raises(ValueError, match="non-finite"):
            learn(bad, loss, config, seed=4)
        snap = {**state.snapshot(), "rows_sha256": core._rows_digest(bad)}
        with pytest.raises(ValueError, match="non-finite"):
            UnlearnState.restore(snap, bad, loss, config)


def test_learn_allocates_nothing_the_size_of_the_rows():
    data = gen_synthetic_dataset(20_000, 50, seed=5)
    loss = RidgeLoss(ParamSpace(50, 1.0), lam=1.0)
    config = UnlearnConfig("strong_secret", 1.0, 0.05, 5)
    peak = traced_peak(lambda: learn(data, loss, config, seed=5))
    assert peak < data.features.nbytes / 8


def test_rows_digest_hashes_the_stacked_rows_block_by_block(monkeypatch):
    data = gen_synthetic_dataset(2500, 3, seed=6)
    edited = data.apply(Update("add", DataPoint(np.full(3, 0.1), 0.5)))
    edited = edited.apply(Update("delete", data.point(1500)))
    compacted = Dataset(data.features[:10], data.labels[:10], initial_size=2)
    for _ in range(6):
        compacted = compacted.apply(Update("delete", compacted.point(3)))
    assert compacted._rows.base == compacted.size == 4
    empty = Dataset(np.zeros((0, 3)), np.zeros(0))
    for block in (core._DIGEST_ROWS, 3):
        monkeypatch.setattr(core, "_DIGEST_ROWS", block)
        for version in (data, edited, compacted, empty):
            rows = np.column_stack([version.features, version.labels])
            assert core._rows_digest(version) == \
                hashlib.sha256(rows.tobytes()).hexdigest()


def test_a_snapshot_gathers_and_caches_no_rows():
    """``_rows_digest`` reads the edited chain's rows block by block from
    the row buffer: the digest is that of the stacked rows, the live
    version caches no gathered rows, and the snapshot allocates far less
    than the rows."""
    data = gen_synthetic_dataset(20_000, 50, seed=5)
    loss = RidgeLoss(ParamSpace(50, 1.0), lam=1.0)
    config = UnlearnConfig("strong_secret", 1.0, 0.05, 5)
    state = unlearn(learn(data, loss, config, seed=5),
                    Update("add", DataPoint(np.full(50, 0.01), 0.5)),
                    loss, config)
    assert state.data._features is None
    peak = traced_peak(state.snapshot)
    assert state.data._features is None and state.data._labels is None
    assert peak < data.features.nbytes / 8
    snap = state.snapshot()
    rows = np.column_stack([state.data.features, state.data.labels])
    assert snap["rows_sha256"] == hashlib.sha256(rows.tobytes()).hexdigest()


def test_learn_checks_rows_against_the_loss_bounds():
    data = wide_bound_dataset()
    loss = RidgeLoss(ParamSpace(3, 1.0), label_bound=0.5, lam=1.0)
    config = UnlearnConfig("strong_secret", 1.0, DELTA1, 3)
    state = learn(data, loss, config, seed=17)
    wide = Dataset(np.vstack([data.features, [[5.0, 0.0, 0.0]]]),
                   np.append(data.labels, 0.0), feature_bound=10.0,
                   label_bound=0.5)
    with pytest.raises(ValueError, match="feature norm exceeds"):
        learn(wide, loss, config, seed=17)
    far = Update("add", DataPoint(np.array([5.0, 0.0, 0.0]), 0.0))
    with pytest.raises(ValueError, match="feature norm exceeds"):
        unlearn(state, far, loss, config)
    regularized = UnlearnConfig("regularized_strong", 1.0, DELTA1, 3)
    with pytest.raises(ValueError, match="feature norm exceeds"):
        learn(wide, loss, regularized, seed=17)
    # A wrapped loss checks adds against its base's bounds.
    wrapped = RegularizedLoss(RidgeLoss(ParamSpace(3, 1.0), label_bound=0.5),
                              1.0)
    state = learn(data, wrapped, config, seed=17)
    with pytest.raises(ValueError, match="feature norm exceeds"):
        unlearn(state, far, wrapped, config)
    near = Update("add", DataPoint(np.array([0.5, 0.0, 0.0]), 0.25))
    assert unlearn(state, near, wrapped, config).data.size == data.size + 1
    # The dataset's own declared bound still holds where it is tighter.
    tight = Dataset(data.features, data.labels, feature_bound=0.5,
                    label_bound=0.5)
    with pytest.raises(ValueError, match="feature norm exceeds"):
        learn(tight, loss, config, seed=17)


def deleting_chain(config, deletes=5, n=20, seed=18):
    data, loss = ridge_chain_problem(n=n, seed=seed)
    state = learn(data, loss, config, seed=seed)
    for i in range(deletes):
        state = unlearn(state, Update("delete", state.data.point(i)), loss,
                        config)
    return state, loss


def test_restore_onto_a_fresh_dataset_keeps_the_chain_calibration():
    config = UnlearnConfig("strong_secret", 1.0, DELTA1, 3)
    state, loss = deleting_chain(config)
    fresh = Dataset(state.data.features, state.data.labels,
                    state.data.feature_bound, state.data.label_bound)
    assert fresh.initial_size == 15
    restored = UnlearnState.restore(state.snapshot(), fresh, loss, config)
    assert restored.data.initial_size == 20
    assert restored.schedule.n == state.schedule.n == 20
    assert restored.schedule.sigma == state.schedule.sigma
    # Both chains may delete down to 10 points, and neither below.
    for chain in (state, restored):
        for _ in range(5):
            chain = unlearn(chain, Update("delete", chain.data.point(0)),
                            loss, config)
        with pytest.raises(ValueError, match="floor violated"):
            unlearn(chain, Update("delete", chain.data.point(0)), loss,
                    config)


def test_restore_checks_everything_it_is_handed():
    config = UnlearnConfig("strong_secret", 1.0, DELTA1, 3)
    state, loss = deleting_chain(config)
    snap = state.snapshot()
    assert snap["format"] == "unlearn-state/5"
    assert (snap["initial_size"], snap["size"]) == (20, 15)
    cases = [
        ({**snap, "theta_hat": [0.1] * 5}, state.data, loss, config,
         "dimension does not match"),
        ({**snap, "format": "unlearn-state/1"}, state.data, loss, config,
         "state format"),
        (snap, gen_synthetic_dataset(15, 3, noise=0.05, label_bound=0.5,
                                     seed=99), loss, config,
         "rows do not match"),
        (snap, state.data, loss,
         UnlearnConfig("strong_secret", 0.5, DELTA1, 3), "snapshot's sigma"),
        (snap, state.data, RidgeLoss(ParamSpace(3, 1.0), label_bound=0.5,
                                     lam=0.5), config, "snapshot's sigma"),
        (snap, state.data, RidgeLoss(ParamSpace(3, 1.0), feature_bound=0.1,
                                     label_bound=0.5, lam=1.0), config,
         "exceeds declared bound"),
    ]

    def altered(message, **fields):
        return ({**snap, **fields}, state.data, loss, config, message)

    def without(field):
        return ({k: v for k, v in snap.items() if k != field}, state.data,
                loss, config, "lacks a field")

    not_count, bad_rng = "not a nonnegative integer", "malformed RNG state"
    cases += [
        altered("not finite", theta_hat=[float("nan")] * 3),
        altered("not finite", theta_pub=[0.0, float("inf"), 0.0]),
        *(altered(not_count, round=value) for value in (2.7, "3", True)),
        altered(not_count, budget=-1),
        altered(not_count, initial_size=20.5),
        *(altered(bad_rng, noise_rng=value) for value in (
            {"bit_generator": "PCG64"}, "seed",
            {**snap["noise_rng"], "state": {"state": -1, "inc": 3}})),
        *(without(field) for field in ("budget", "mode", "sigma")),
    ]
    for snapshot, data, other_loss, other_config, message in cases:
        with pytest.raises(ValueError, match=message):
            UnlearnState.restore(snapshot, data, other_loss, other_config)


@settings(max_examples=12, deadline=None)
@given(mode=st.sampled_from(MODES), cut=st.integers(0, 6),
       strategy=st.sampled_from(["churn", "random", "drift"]),
       seed=st.integers(0, 2 ** 16))
def test_snapshot_restore_replay_is_byte_equal(mode, cut, strategy, seed):
    data, loss = ridge_chain_problem(n=30, seed=seed)
    config = UnlearnConfig(mode, 1.0, DELTA1,
                           4 if mode == "strong_perfect" else 2)
    updates = gen_adversarial_sequence(data, 6, strategy, seed=seed)
    state = learn(data, loss, config, seed=seed)
    for update in updates[:cut]:
        state = unlearn(state, update, loss, config)
    resumed = UnlearnState.restore(state.snapshot(), state.data, loss,
                                   config)
    for update in updates[cut:]:
        state = unlearn(state, update, loss, config)
        resumed = unlearn(resumed, update, loss, config)
        assert state.theta_pub.tobytes() == resumed.theta_pub.tobytes()
    assert state.snapshot() == resumed.snapshot()


def test_snapshot_carries_the_moments_and_restore_checks_them():
    config = UnlearnConfig("strong_secret", 1.0, DELTA1, 3)
    state, loss = deleting_chain(config)
    snap = state.snapshot()
    moments = state.data.moments()
    assert moments.shape == (4, 4)
    assert snap["moments"] == {"matrix": moments.tolist(), "carried": 5}
    restored = UnlearnState.restore(snap, state.data, loss, config)
    assert restored.data.cached_moments[0].tobytes() == moments.tobytes()
    assert restored.data.cached_moments[1] == 5
    # Against the rows' fresh moments: 15 rows carrying 5 updates have
    # summed at most 15 + 2 * 5 products.
    fresh = Dataset(state.data.features, state.data.labels).moments()
    tol = moments_tolerance(15, 5, loss.feature_bound, loss.label_bound, 3)
    unit = 2.0 ** -53  # 2 gamma_25 * 25 * R_x^2 with R_x = 1
    assert tol[0, 1] == pytest.approx(2 * 25 * 25 * unit / (1 - 25 * unit),
                                      rel=1e-12, abs=0)
    # X^T y's entries pay R_x R_y, with R_y = 0.5.
    assert tol[0, 3] == tol[3, 0] == pytest.approx(tol[0, 1] / 2,
                                                   rel=1e-12, abs=0)
    for at in ((0, 1), (2, 3), (3, 1)):
        tampered = with_moment_entry(snap, at, fresh[at] + 0.5 * tol[at])
        UnlearnState.restore(tampered, state.data, loss, config)
        for value in (fresh[at] + 1.5 * tol[at], fresh[at] - 1.5 * tol[at],
                      float("nan")):
            with pytest.raises(ValueError,
                               match="moments do not match the rows"):
                UnlearnState.restore(with_moment_entry(snap, at, value),
                                     state.data, loss, config)
    for matrix in (moments[:3, :3].tolist(), moments[:, :3].tolist(),
                   moments[0].tolist()):
        short = {**snap, "moments": {**snap["moments"], "matrix": matrix}}
        with pytest.raises(ValueError,
                           match="moments do not match the dataset"):
            UnlearnState.restore(short, state.data, loss, config)
    for carried in (-1, 16, 2.0, None):
        odd = {**snap, "moments": {**snap["moments"], "carried": carried}}
        with pytest.raises(ValueError, match="impossible update count"):
            UnlearnState.restore(odd, state.data, loss, config)
    with pytest.raises(ValueError, match="moments do not match the loss"):
        UnlearnState.restore({**snap, "moments": None}, state.data, loss,
                             config)


def with_moment_entry(snap, at, value):
    tampered = [row[:] for row in snap["moments"]["matrix"]]
    tampered[at[0]][at[1]] = value
    return {**snap, "moments": {**snap["moments"], "matrix": tampered}}


def test_restore_checks_the_carried_yty():
    """y^T y, M's corner, is checked against the rows within its own
    bound, R_y^2 = 1/4 of the R_x^2 one; each field is required."""
    config = UnlearnConfig("strong_secret", 1.0, DELTA1, 3)
    state, loss = deleting_chain(config)
    snap = state.snapshot()
    fresh = Dataset(state.data.features, state.data.labels).moments()[3, 3]
    tol = moments_tolerance(15, 5, loss.feature_bound, loss.label_bound,
                            3)[3, 3]
    unit = 2.0 ** -53  # 2 gamma_25 * 25 * R_y^2 with R_y = 0.5
    assert tol == pytest.approx(2 * 25 * 25 * unit / (1 - 25 * unit) / 4,
                                rel=1e-12, abs=0)
    UnlearnState.restore(with_moment_entry(snap, (3, 3), fresh + 0.5 * tol),
                         state.data, loss, config)
    for value in (fresh + 1.5 * tol, fresh - 1.5 * tol, float("nan")):
        with pytest.raises(ValueError, match="moments do not match the rows"):
            UnlearnState.restore(with_moment_entry(snap, (3, 3), value),
                                 state.data, loss, config)
    for field in ("matrix", "carried"):
        missing = {k: v for k, v in snap["moments"].items() if k != field}
        with pytest.raises(ValueError, match="snapshot lacks a field"):
            UnlearnState.restore({**snap, "moments": missing}, state.data,
                                 loss, config)


def test_replay_recomputes_the_moments_at_the_same_edits():
    """A small chain recomputes its moments from the rows every few
    edits; a chain resumed from any round does so at the same edits and
    publishes the same bytes."""
    data, loss = ridge_chain_problem(n=8, seed=12)
    config = UnlearnConfig("strong_secret", 1.0, DELTA1, 2)
    updates = gen_adversarial_sequence(data, 30, "churn", seed=12)
    state = learn(data, loss, config, seed=12)
    snapshots, carried = [], []
    for update in updates:
        snapshots.append(state.snapshot())
        state = unlearn(state, update, loss, config)
        carried.append(state.data.cached_moments[1])
        assert carried[-1] <= state.data.size
    assert carried.count(0) == 3
    for cut in (0, 7, 10, 23):
        resumed = UnlearnState.restore(
            snapshots[cut], replay_rows(data, updates[:cut]), loss, config)
        for update in updates[cut:]:
            resumed = unlearn(resumed, update, loss, config)
        assert resumed.snapshot() == state.snapshot()


def replay_rows(data, updates):
    for update in updates:
        data = data.apply(update)
    return data


def test_restore_rejects_the_previous_snapshot_format():
    config = UnlearnConfig("strong_secret", 1.0, DELTA1, 3)
    state, loss = deleting_chain(config, deletes=1)
    old = {k: v for k, v in state.snapshot().items() if k != "moments"}
    with pytest.raises(ValueError, match="unrecognized state format"):
        UnlearnState.restore({**old, "format": "unlearn-state/2"},
                             state.data, loss, config)


def test_logistic_chain_round_trips_without_moments():
    data = gen_synthetic_dataset(60, 3, model="logistic", seed=5)
    loss = LogisticLoss(ParamSpace(3, 1.0), lam=1.0)
    config = UnlearnConfig("strong_secret", 1.0, DELTA1, 3)
    updates = gen_adversarial_sequence(data, 6, "random", seed=5)
    state = learn(data, loss, config, seed=5)
    for update in updates[:3]:
        state = unlearn(state, update, loss, config)
    snap = state.snapshot()
    assert snap["moments"] is None
    with pytest.raises(ValueError, match="moments do not match the loss"):
        UnlearnState.restore(
            {**snap, "moments": {"matrix": [[0.0] * 4] * 4, "carried": 0}},
            state.data, loss, config)
    resumed = UnlearnState.restore(snap, state.data, loss, config)
    for update in updates[3:]:
        state = unlearn(state, update, loss, config)
        resumed = unlearn(resumed, update, loss, config)
        assert state.theta_pub.tobytes() == resumed.theta_pub.tobytes()
    assert resumed.data.cached_moments is None
    assert state.snapshot() == resumed.snapshot()


def chain_config(mode):
    return UnlearnConfig(mode, 1.0, DELTA1,
                         4 if mode == "strong_perfect" else 2)


@settings(max_examples=12, deadline=None)
@given(mode=st.sampled_from(MODES), seed=st.integers(0, 2 ** 16),
       rounds=st.integers(0, 3))
def test_void_delete_matches_a_real_one_in_shape_and_budget(mode, seed,
                                                            rounds):
    data, loss = ridge_chain_problem(n=30, seed=seed)
    config = chain_config(mode)
    updates = gen_adversarial_sequence(data, rounds, "churn", seed=seed)

    def chain():
        state = learn(data, loss, config, seed=seed)
        for update in updates:
            state = unlearn(state, update, loss, config)
        return state

    real_prev, void_prev = chain(), chain()
    real = unlearn(real_prev, Update("delete", real_prev.data.point(0)),
                   loss, config)
    absent = DataPoint(np.full(3, 0.01), 0.123)
    assert void_prev.data.find(absent).size == 0
    void = unlearn(void_prev, Update("delete", absent), loss, config)
    iters = real.schedule.update_iters(rounds + 1)
    for before, after in ((real_prev, real), (void_prev, void)):
        assert after.round_index == rounds + 1
        assert after.theta_pub.shape == before.theta_pub.shape == (3,)
        assert after.budget - before.budget == iters * after.data.size
    assert void.data.size == void_prev.data.size == real.data.size + 1
    # Each published one draw of the same noise stream.
    assert real.noise_rng.bit_generator.state == \
        void.noise_rng.bit_generator.state


@settings(max_examples=12, deadline=None)
@given(mode=st.sampled_from(MODES), seed=st.integers(0, 2 ** 16),
       edits=st.lists(st.tuples(st.booleans(), st.integers(0, 10 ** 6)),
                      min_size=1, max_size=16))
def test_chain_never_crosses_the_size_floor(mode, seed, edits):
    data, loss = ridge_chain_problem(n=12, seed=seed)
    config = chain_config(mode)
    state = learn(data, loss, config, seed=seed)
    for add, pick in edits:
        if add:
            update = Update("add", DataPoint(np.full(3, 0.1), 0.25))
        else:
            update = Update("delete",
                            state.data.point(pick % state.data.size))
        if not add and state.data.size - 1 < 6:
            with pytest.raises(ValueError, match="floor violated"):
                unlearn(state, update, loss, config)
        else:
            state = unlearn(state, update, loss, config)
        assert state.data.size >= state.data.initial_size / 2 == 6


@settings(max_examples=12, deadline=None)
@given(mode=st.sampled_from(MODES), seed=st.integers(0, 2 ** 16),
       strategy=st.sampled_from(["churn", "random", "drift"]),
       bad=st.lists(st.tuples(st.integers(0, 8),
                              st.integers(0, len(BAD_ADDS) - 1)),
                    max_size=4))
def test_every_published_dataset_passes_the_loss_checks(mode, seed,
                                                        strategy, bad):
    data, loss = ridge_chain_problem(n=30, seed=seed)
    config = chain_config(mode)
    stream = list(gen_adversarial_sequence(data, 8, strategy, seed=seed))
    rejected = [Update("add", DataPoint(*BAD_ADDS[k])) for _, k in bad]
    for (at, _), update in zip(bad, rejected):
        stream.insert(at, update)
    state = learn(data, loss, config, seed=seed)
    loss.check_dataset(state.data)
    for update in stream:
        if any(update is r for r in rejected):
            with pytest.raises(ValueError):
                unlearn(state, update, loss, config)
            continue
        state = unlearn(state, update, loss, config)
        loss.check_dataset(state.data)
