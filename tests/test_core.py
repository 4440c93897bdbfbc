import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
from unlearn.data import (DataPoint, Dataset, Update,
                          gen_adversarial_sequence, gen_synthetic_dataset)
from unlearn.losses import (
    LogisticLoss,
    LossModel,
    ParamSpace,
    RegularizedLoss,
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
    assert snap["format"] == "unlearn-state/2"
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
