import logging
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

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
from unlearn.data import DataPoint, Dataset, Update, gen_synthetic_dataset
from unlearn.losses import (
    LogisticLoss,
    LossModel,
    ParamSpace,
    RidgeLoss,
    closed_form_ridge_optimizer,
)
from unlearn.rng import substream

from helpers import BAD_ADDS

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
    with pytest.raises(ValueError, match="mode does not match"):
        unlearn(state, Update("add", DataPoint(np.zeros(3), 0.0)), loss,
                perfect)


@pytest.mark.parametrize("x, y", BAD_ADDS)
def test_unlearn_rejects_adds_outside_the_bounds(x, y):
    data, loss = ridge_chain_problem()
    config = UnlearnConfig("strong_secret", 1.0, DELTA1, 3)
    state = learn(data, loss, config, seed=8)
    with pytest.raises(ValueError, match="exceeds declared bound"):
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
    resumed = UnlearnState.restore(state.snapshot(), state.data)
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
        UnlearnState.restore({**snap, "format": "unlearn-state/9"}, data)
    restored = UnlearnState.restore(snap, state.data)
    update = Update("add", DataPoint(np.array([1.0, 0.0, 0.0]), 0.5))
    # the perfect chain never needs the secret again
    after = unlearn(restored, update, loss, perfect_cfg)
    assert after.round_index == 1
    # but a secret-state chain cannot continue from a perfect snapshot
    restored.mode = "strong_secret"
    secret_cfg = UnlearnConfig("strong_secret", 1.0, DELTA1, 4)
    with pytest.raises(ValueError, match="lacks the secret parameter"):
        unlearn(restored, update, loss, secret_cfg)


def test_restore_checks_the_dataset_and_the_mode():
    data, loss = ridge_chain_problem()
    state = learn(data, loss, UnlearnConfig("strong_secret", 1.0, DELTA1, 3),
                  seed=13)
    snap = state.snapshot()
    wider = gen_synthetic_dataset(200, 5, seed=13)
    with pytest.raises(ValueError, match="dimension does not match"):
        UnlearnState.restore(snap, wider)
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        UnlearnState.restore({**snap, "mode": "bogus"}, state.data)
    restored = UnlearnState.restore(snap, state.data)
    assert restored.snapshot() == snap


def test_perfect_mode_restarts_from_the_public_parameter():
    data, loss = ridge_chain_problem()
    config = UnlearnConfig("strong_perfect", 1.0, DELTA1, 4)
    state = learn(data, loss, config, seed=14)
    stripped = UnlearnState.restore(state.snapshot(), state.data)
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
