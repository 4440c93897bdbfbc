import numpy as np
import pytest
from numpy.testing import assert_allclose

from unlearn.data import Dataset
from unlearn.losses import (
    LossModel,
    ParamSpace,
    RegularizedLoss,
    RidgeLoss,
    closed_form_ridge_optimizer,
)
from unlearn.optimizer import GDConfig, pgd, contraction_factor

from helpers import ball_points


class QuadLoss(LossModel):
    """Data-independent quadratic, used to pin conditioning exactly."""

    def __init__(self, space, curvature=1.0):
        super().__init__(space)
        self.strong_convexity = curvature
        self.smoothness = curvature
        self.lipschitz = curvature * space.radius

    def point_loss(self, x, y, theta):
        theta = np.asarray(theta, dtype=float)
        return 0.5 * self.strong_convexity * float(theta @ theta)

    def point_gradient(self, x, y, theta):
        return self.strong_convexity * np.asarray(theta, dtype=float)


def ridge_problem(seed=0, n=40, dim=3, lam=1.0, radius=5.0):
    rng = np.random.default_rng(seed)
    features = ball_points(rng, n, dim)
    labels = rng.uniform(-0.5, 0.5, size=n)
    data = Dataset(features, labels, 1.0, 0.5)
    space = ParamSpace(dim, radius)
    loss = RidgeLoss(space, label_bound=0.5, lam=lam)
    return data, loss, space


def test_step_sizes_follow_the_two_regimes():
    _, loss, _ = ridge_problem()
    strong = GDConfig.for_loss(loss, iterations=10)
    assert strong.step_size == 2.0 / (loss.smoothness + loss.strong_convexity)
    flat = GDConfig.for_loss(loss, iterations=10, regime="convex_smooth")
    assert flat.step_size == 1.0 / loss.smoothness


def test_strongly_convex_regime_requires_positive_curvature():
    _, loss, _ = ridge_problem(lam=0.0)
    with pytest.raises(ValueError, match="strong convexity"):
        GDConfig.for_loss(loss, iterations=5)


def test_zero_iterations_returns_the_start_point():
    data, loss, _ = ridge_problem()
    theta0 = np.array([0.1, 0.2, -0.3])
    trace = pgd(loss, data, theta0, GDConfig.for_loss(loss, iterations=0))
    assert_allclose(trace.theta, theta0)
    assert trace.gradient_evaluations == 0


def test_gradient_evaluations_count_points_times_iterations():
    data, loss, _ = ridge_problem(n=17)
    trace = pgd(loss, data, np.zeros(3), GDConfig.for_loss(loss, iterations=9))
    assert trace.gradient_evaluations == 9 * 17


def test_contraction_toward_the_exact_minimizer():
    data, loss, space = ridge_problem(seed=3)
    star = closed_form_ridge_optimizer(data, 1.0, space)
    gamma = contraction_factor(loss)
    rng = np.random.default_rng(4)
    theta0 = ball_points(rng, 1, 3, radius=space.radius)[0]
    start_gap = np.linalg.norm(theta0 - star)
    for iters in range(1, 51):
        trace = pgd(loss, data, theta0, GDConfig.for_loss(loss, iterations=iters))
        # the additive term absorbs rounding once the bound hits float noise
        limit = gamma ** iters * start_gap * (1 + 1e-9) + 1e-13
        assert np.linalg.norm(trace.theta - star) <= limit


def test_distance_to_minimizer_never_increases():
    data, loss, space = ridge_problem(seed=5)
    star = closed_form_ridge_optimizer(data, 1.0, space)
    cfg = GDConfig.for_loss(loss, iterations=1)
    theta = np.array([2.0, -1.0, 0.5])
    prev = np.linalg.norm(theta - star)
    for _ in range(40):
        theta = pgd(loss, data, theta, cfg).theta
        cur = np.linalg.norm(theta - star)
        assert cur <= prev + 1e-12
        assert space.contains(theta)
        prev = cur


def test_warm_start_outside_the_ball_still_contracts():
    data, loss, space = ridge_problem(seed=6, radius=1.0)
    star = closed_form_ridge_optimizer(data, 1.0, ParamSpace(3, 5.0))
    assert space.contains(star)
    gamma = contraction_factor(loss)
    theta0 = np.array([10.0, 10.0, 10.0])
    trace = pgd(loss, data, theta0, GDConfig.for_loss(loss, iterations=25))
    limit = gamma ** 25 * np.linalg.norm(theta0 - star) * (1 + 1e-9)
    assert np.linalg.norm(trace.theta - star) <= limit
    assert space.contains(trace.theta)


def test_convex_regime_meets_the_function_gap_rate():
    data, loss, space = ridge_problem(seed=7, lam=0.0)
    star = closed_form_ridge_optimizer(data, 0.0, space)
    fmin = loss.empirical_loss(data, star)
    rng = np.random.default_rng(8)
    theta0 = ball_points(rng, 1, 3, radius=space.radius)[0]
    gap0 = np.linalg.norm(theta0 - star) ** 2
    for iters in (1, 5, 20):
        cfg = GDConfig.for_loss(loss, iterations=iters, regime="convex_smooth")
        trace = pgd(loss, data, theta0, cfg)
        excess = loss.empirical_loss(data, trace.theta) - fmin
        assert excess <= loss.smoothness * gap0 / (2 * iters) * (1 + 1e-9)


def test_runs_are_deterministic():
    data, loss, _ = ridge_problem(seed=9)
    cfg = GDConfig.for_loss(loss, iterations=30)
    a = pgd(loss, data, np.zeros(3), cfg)
    b = pgd(loss, data, np.zeros(3), cfg)
    assert np.array_equal(a.theta, b.theta)


def test_start_point_dimension_checked():
    data, loss, _ = ridge_problem()
    with pytest.raises(ValueError, match="wrong dimension"):
        pgd(loss, data, np.zeros(2), GDConfig.for_loss(loss, iterations=1))


def test_empty_dataset_rejected():
    _, loss, _ = ridge_problem()
    empty = Dataset(np.zeros((0, 3)), np.zeros(0))
    with pytest.raises(ValueError, match="empty dataset"):
        pgd(loss, empty, np.zeros(3), GDConfig.for_loss(loss, iterations=1))


def test_contraction_factor_values():
    space = ParamSpace(2, 1.0)
    assert contraction_factor(QuadLoss(space)) == 0.0
    ridge = RidgeLoss(ParamSpace(2, 1.0), feature_bound=np.sqrt(2.0), lam=1.0)
    assert contraction_factor(ridge) == pytest.approx(0.5, abs=1e-15)


def test_contraction_factor_of_regularized_flat_loss():
    base = RidgeLoss(ParamSpace(2, 1.0), lam=0.0)
    reg = RegularizedLoss(base, 0.5)
    expected = base.smoothness / (base.smoothness + 2 * 0.5)
    assert contraction_factor(reg) == pytest.approx(expected, abs=1e-15)


def test_contraction_factor_requires_strong_convexity():
    flat = RidgeLoss(ParamSpace(2, 1.0), lam=0.0)
    with pytest.raises(ValueError, match="strong convexity"):
        contraction_factor(flat)


def test_contraction_factor_rejects_inconsistent_constants():
    bad = QuadLoss(ParamSpace(2, 1.0))
    bad.smoothness = 0.5
    with pytest.raises(ValueError, match="smoothness"):
        contraction_factor(bad)
