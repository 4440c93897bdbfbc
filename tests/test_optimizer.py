import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from unlearn import data as data_module
from unlearn.data import Dataset
from unlearn.losses import (
    LogisticLoss,
    LossModel,
    ParamSpace,
    RegularizedLoss,
    RidgeLoss,
    closed_form_ridge_optimizer,
)
from unlearn.optimizer import (GDConfig, contraction_factor, map_many,
                               map_solved, pgd, solve_many)

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


@pytest.mark.parametrize("step_size, iterations, match", [
    (float("inf"), 5, "step size must be positive and finite"),
    (float("nan"), 5, "step size must be positive and finite"),
    (0.5, 2.5, "iteration count must be an integer"),
    (0.5, 2.0, "iteration count must be an integer"),
    (0.5, True, "iteration count must be an integer"),
])
def test_gd_config_rejects_what_pgd_cannot_run(step_size, iterations,
                                               match):
    """An infinite step gave a NaN iterate with only a RuntimeWarning, and
    a fractional count failed inside ``pgd`` with a TypeError."""
    with pytest.raises(ValueError, match=match):
        GDConfig(step_size, iterations)
    assert GDConfig(0.5, np.int64(3)).iterations == 3


def loop_pgd(loss, data, theta0, cfg):
    """The iterative descent, step by step, as the reference."""
    theta = np.asarray(theta0, dtype=float)
    for _ in range(cfg.iterations):
        theta = loss.space.project(
            theta - cfg.step_size * loss.empirical_gradient(data, theta))
    return theta


def count_gradients(monkeypatch):
    calls = []
    original = LossModel.empirical_gradient

    def counted(self, data, theta):
        calls.append(data.size)
        return original(self, data, theta)

    monkeypatch.setattr(LossModel, "empirical_gradient", counted)
    return calls


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40),
       dim=st.integers(1, 6), extra_iters=st.integers(0, 300),
       radius=st.floats(0.2, 5.0), lam=st.floats(0.01, 2.0),
       added=st.one_of(st.none(), st.floats(0.01, 1.0)),
       start=st.floats(0.0, 3.0))
def test_closed_form_agrees_with_the_loop(seed, n, dim, extra_iters, radius,
                                          lam, added, start):
    rng = np.random.default_rng(seed)
    data = Dataset(ball_points(rng, n, dim), rng.uniform(-1, 1, size=n))
    loss = RidgeLoss(ParamSpace(dim, radius), lam=lam)
    if added is not None:
        loss = RegularizedLoss(loss, added)
    # Starts from the center to three radii out: inside and outside.
    theta0 = ball_points(rng, 1, dim, radius=start * radius)[0]
    cfg = GDConfig.for_loss(loss, iterations=dim + extra_iters)
    fast = pgd(loss, data, theta0, cfg)
    slow = loop_pgd(loss, data, theta0, cfg)
    scale = max(np.linalg.norm(slow), np.linalg.norm(theta0))
    assert np.linalg.norm(fast.theta - slow) <= 1e-12 * scale
    assert fast.gradient_evaluations == cfg.iterations * n


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 30),
       dim=st.integers(1, 6), radius=st.floats(0.05, 5.0),
       lam=st.floats(0.01, 2.0), added=st.one_of(st.none(),
                                                  st.floats(0.01, 1.0)),
       problems=st.lists(st.tuples(st.integers(-3, 60),
                                   st.floats(0.0, 3.0)),
                         min_size=1, max_size=6))
def test_map_many_maps_what_pgd_maps_to_the_same_bytes(
        seed, size, dim, radius, lam, added, problems):
    """Each stacked problem of T >= d steps is mapped exactly when
    ``pgd`` on it alone takes no gradient step, and then to ``pgd``'s
    bytes; binding balls and far starts leave some unmapped, and short
    descents take the lifted power. A problem of T < d steps is never
    mapped: ``pgd`` takes it by its own affine steps or its loop, and
    either agrees with the loop."""
    rng = np.random.default_rng(seed)
    loss = RidgeLoss(ParamSpace(dim, radius), lam=lam)
    if added is not None:
        loss = RegularizedLoss(loss, added)
    datasets = [Dataset(ball_points(rng, size, dim),
                        rng.uniform(-1, 1, size=size)) for _ in problems]
    starts = np.array([ball_points(rng, 1, dim, radius=scale * radius)[0]
                       for _, scale in problems])
    steps = [max(dim + extra, 1) for extra, _ in problems]
    hessian, rhs = map(np.array, zip(*map(loss.quadratic, datasets)))
    eta = GDConfig.for_loss(loss, 0).step_size
    out, mapped = map_many(loss, hessian, rhs, starts, eta, steps)
    for p, data in enumerate(datasets):
        with pytest.MonkeyPatch.context() as patch:
            calls = count_gradients(patch)
            alone = pgd(loss, data, starts[p],
                        GDConfig.for_loss(loss, steps[p]))
        if steps[p] < dim:
            assert not mapped[p]
            slow = loop_pgd(loss, data, starts[p],
                            GDConfig.for_loss(loss, steps[p]))
            scale = max(np.linalg.norm(slow), np.linalg.norm(starts[p]))
            assert np.linalg.norm(alone.theta - slow) <= 1e-12 * scale
            continue
        assert mapped[p] == (calls == [])
        if mapped[p]:
            assert out[p].tobytes() == alone.theta.tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 30),
       dim=st.integers(1, 6), radius=st.floats(0.05, 5.0),
       lam=st.floats(0.01, 2.0), added=st.one_of(st.none(),
                                                  st.floats(0.01, 1.0)),
       problems=st.lists(st.tuples(st.one_of(st.integers(-5, -1),
                                             st.integers(0, 150)),
                                   st.sampled_from((0.0, 0.5, 1.0, 1.3))),
                         min_size=1, max_size=6))
def test_every_descent_decides_convergence_before_solving(
        seed, size, dim, radius, lam, added, problems):
    """The map decides from (H, g) and theta_0 alone which descents it
    maps and which have converged, so a stack of origins, warm starts,
    starts outside the ball and descents shorter than d runs one
    ``np.linalg.solve`` exactly when a converged descent exists, over
    those alone, and a converged one carries the solve's bytes; each
    other mapped one is within 1e-12 of the loop; and every problem is
    mapped exactly when ``pgd`` maps it alone, to its bytes.
    ``map_solved``, given theta*, gives the same bytes and leaves theta*
    as it was."""
    rng = np.random.default_rng(seed)
    loss = RidgeLoss(ParamSpace(dim, radius), lam=lam)
    if added is not None:
        loss = RegularizedLoss(loss, added)
    datasets = [Dataset(ball_points(rng, size, dim),
                        rng.uniform(-1, 1, size=size)) for _ in problems]
    starts = np.array([ball_points(rng, 1, dim, radius=scale * radius)[0]
                       for _, scale in problems])
    steps = [max(1, dim + extra) for extra, _ in problems]
    hessian, rhs = map(np.array, zip(*map(loss.quadratic, datasets)))
    eta, m = GDConfig.for_loss(loss, 0).step_size, loss.strong_convexity
    converged = []
    for h, g, start, t in zip(hessian, rhs, starts, steps):
        rho = max(abs(1 - eta * m),
                  abs(1 - eta * (np.trace(h) - (dim - 1) * m)))
        shift = np.linalg.norm(eta * g)
        bound = np.linalg.norm(start) + shift / (1 - rho)
        limit = radius * (1 - 1e-9)
        certified = rho < 1 and max(
            rho * np.linalg.norm(start) + shift, shift / (1 - rho)) <= limit
        converged.append(t >= dim and certified and
                         rho ** t * bound <= 2.0 ** -53 * shift / (1 + rho))
    solves = []
    with pytest.MonkeyPatch.context() as patch:
        solve = np.linalg.solve
        patch.setattr(np.linalg, "solve",
                      lambda *a: solves.append(len(a[0])) or solve(*a))
        out, mapped = map_many(loss, hessian, rhs, starts, eta, steps)
    assert solves == ([sum(converged)] if any(converged) else [])
    star = solve_many(hessian, rhs)
    kept = star.copy()
    again, remapped = map_solved(loss, hessian, star, starts, eta, steps, rhs)
    assert star.tobytes() == kept.tobytes()
    assert np.array_equal(remapped, mapped)
    assert again[mapped].tobytes() == out[mapped].tobytes()
    for p, data in enumerate(datasets):
        cfg = GDConfig.for_loss(loss, steps[p])
        with pytest.MonkeyPatch.context() as patch:
            calls = count_gradients(patch)
            alone = pgd(loss, data, starts[p], cfg)
        # Alone, a descent shorter than d takes the short map instead.
        assert mapped[p] == (steps[p] >= dim and calls == [])
        if not mapped[p]:
            continue
        assert out[p].tobytes() == alone.theta.tobytes()
        if converged[p]:
            assert out[p].tobytes() == star[p].tobytes()
        else:
            slow = loop_pgd(loss, data, starts[p], cfg)
            scale = max(np.linalg.norm(slow), np.linalg.norm(starts[p]))
            assert np.linalg.norm(out[p] - slow) <= 1e-12 * scale


def test_iterations_below_the_dimension_build_no_system(monkeypatch):
    """With T < d ``pgd`` takes the steps as theta <- A theta + c from the
    moments: it neither builds the normal equations nor solves them, and
    calls no gradient. From T = d on it maps through the system and
    builds no (A, c): unconverged, from the origin or a warm start, by
    the lifted power with no solve, and converged by a solve."""
    data, loss, _ = ridge_problem(seed=15, dim=5)
    cfg = GDConfig.for_loss(loss, iterations=4)
    expected = loop_pgd(loss, data, np.zeros(5), cfg)
    built, solved, affine = [], [], []
    quadratic, solve = LossModel.quadratic, np.linalg.solve
    affine_step = LossModel.affine_step
    monkeypatch.setattr(LossModel, "quadratic",
                        lambda *a: built.append(1) or quadratic(*a))
    monkeypatch.setattr(LossModel, "affine_step",
                        lambda *a: affine.append(1) or affine_step(*a))
    monkeypatch.setattr(np.linalg, "solve",
                        lambda *a: solved.append(1) or solve(*a))
    calls = count_gradients(monkeypatch)
    trace = pgd(loss, data, np.zeros(5), cfg)
    assert (built, solved, affine, len(calls)) == ([], [], [1], 0)
    assert trace.gradient_evaluations == 4 * data.size
    assert_allclose(trace.theta, expected, rtol=1e-12, atol=0)
    pgd(loss, data, np.zeros(5), GDConfig.for_loss(loss, iterations=5))
    assert (built, solved, affine, len(calls)) == ([1], [], [1], 0)
    pgd(loss, data, np.full(5, 0.1), GDConfig.for_loss(loss, iterations=5))
    assert (built, solved, affine, len(calls)) == ([1, 1], [], [1], 0)
    pgd(loss, data, np.full(5, 0.1), GDConfig.for_loss(loss, iterations=500))
    assert (built, solved, affine, len(calls)) == ([1, 1, 1], [1], [1], 0)


@pytest.mark.parametrize("regularized", [False, True])
def test_ridge_descent_inside_the_ball_takes_no_gradient_steps(monkeypatch,
                                                               regularized):
    data, loss, _ = ridge_problem(seed=10, n=23)
    if regularized:
        loss = RegularizedLoss(loss, 0.3)
    cfg = GDConfig.for_loss(loss, iterations=50)
    expected = loop_pgd(loss, data, np.zeros(3), cfg)
    calls = count_gradients(monkeypatch)
    trace = pgd(loss, data, np.zeros(3), cfg)
    assert calls == []
    assert trace.gradient_evaluations == 50 * 23
    assert_allclose(trace.theta, expected, rtol=1e-12, atol=0)


def loop_cases():
    data, ridge, _ = ridge_problem(seed=11)
    strong = GDConfig.for_loss(ridge, iterations=20)
    rng = np.random.default_rng(12)
    x = ball_points(rng, 30, 3)
    signs = np.where(x @ np.array([1.0, -1.0, 0.5]) >= 0, 1.0, -1.0)
    logistic = LogisticLoss(ParamSpace(3, 5.0), lam=0.5)
    wide = ridge_problem(seed=13, dim=5, radius=0.02)
    flat = RidgeLoss(ParamSpace(3, 5.0), label_bound=0.5, lam=0.0)
    # Labels proportional to the first feature put the minimizer near
    # (0.5, 0, 0), well outside a radius-0.05 ball.
    tied = Dataset(x, np.clip(x[:, 0], -0.5, 0.5), 1.0, 0.5)
    small = RidgeLoss(ParamSpace(3, 0.05), label_bound=0.5, lam=0.1)
    return {
        "ball binds": (small, tied, np.zeros(3),
                       GDConfig.for_loss(small, iterations=20)),
        # A perfect-mode warm start is a noisy published parameter,
        # which may lie far outside the ball.
        "warm start far outside": (ridge, data, np.full(3, 30.0), strong),
        "convex regime": (flat, data, np.zeros(3), GDConfig.for_loss(
            flat, iterations=20, regime="convex_smooth")),
        "convex regime with a ridge term": (ridge, data, np.zeros(3),
                                            GDConfig.for_loss(
                                                ridge, iterations=20,
                                                regime="convex_smooth")),
        # Past 2/M a step can expand theta - theta*, so even a start at
        # the minimizer proves nothing about later iterates.
        "step too long to contract": (
            ridge, data, closed_form_ridge_optimizer(data, 1.0, ridge.space),
            GDConfig(3.0 / ridge.smoothness, 20)),
        "logistic": (logistic, Dataset(x, signs), np.zeros(3),
                     GDConfig.for_loss(logistic, iterations=20)),
        # T < d, and |c| / (1 - rho) = 0.0216 exceeds the radius, so the
        # affine steps are not certified, though the iterates in fact
        # stay within 0.019 and no projection acts.
        "fewer steps than dimensions": (wide[1], wide[0], np.zeros(5),
                                        GDConfig.for_loss(wide[1],
                                                          iterations=4)),
        "nan start": (ridge, data, np.array([np.nan, 0.0, 0.0]), strong),
    }


@pytest.mark.parametrize("case", list(loop_cases()))
def test_descents_the_closed_form_cannot_certify_run_the_loop(monkeypatch,
                                                              case):
    loss, data, theta0, cfg = loop_cases()[case]
    expected = loop_pgd(loss, data, theta0, cfg)
    calls = count_gradients(monkeypatch)
    trace = pgd(loss, data, theta0, cfg)
    assert calls == [data.size] * cfg.iterations
    assert trace.gradient_evaluations == cfg.iterations * data.size
    assert np.array_equal(trace.theta, expected, equal_nan=True)


@pytest.mark.parametrize("case", list(loop_cases()))
def test_short_descents_the_affine_steps_cannot_certify_run_the_loop(
        monkeypatch, case):
    """The same cases cut to T = d - 1 steps: each fails the affine
    certificate (or its regime or loss has no affine steps), so the loop
    runs, byte for byte."""
    loss, data, theta0, cfg = loop_cases()[case]
    cfg = dataclasses.replace(cfg, iterations=data.dim - 1)
    expected = loop_pgd(loss, data, theta0, cfg)
    calls = count_gradients(monkeypatch)
    trace = pgd(loss, data, theta0, cfg)
    assert calls == [data.size] * cfg.iterations
    assert trace.gradient_evaluations == cfg.iterations * data.size
    assert np.array_equal(trace.theta, expected, equal_nan=True)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40),
       dim=st.integers(2, 8), steps=st.integers(1, 7),
       reach=st.floats(1.0 + 1e-6, 4.0), lam=st.floats(0.01, 2.0),
       added=st.one_of(st.none(), st.floats(0.01, 1.0)),
       start=st.floats(0.0, 0.99))
def test_short_descents_take_affine_steps_that_agree_with_the_loop(
        seed, n, dim, steps, reach, lam, added, start):
    """For T < d, a ball of radius ``reach`` / m always holds the affine
    certificate: |c| <= eta R_x R_y = eta and 1 - rho >= eta m, so
    |c| / (1 - rho) <= 1 / m. ``pgd`` then calls no gradient, agrees
    with the loop and reports T * n point-gradients."""
    rng = np.random.default_rng(seed)
    data = Dataset(ball_points(rng, n, dim), rng.uniform(-1, 1, size=n))
    radius = reach / (lam + (added or 0.0))
    loss = RidgeLoss(ParamSpace(dim, radius), lam=lam)
    if added is not None:
        loss = RegularizedLoss(loss, added)
    theta0 = ball_points(rng, 1, dim, radius=start * radius)[0]
    cfg = GDConfig.for_loss(loss, iterations=min(steps, dim - 1))
    slow = loop_pgd(loss, data, theta0, cfg)
    with pytest.MonkeyPatch.context() as patch:
        calls = count_gradients(patch)
        fast = pgd(loss, data, theta0, cfg)
    assert calls == []
    scale = max(np.linalg.norm(slow), np.linalg.norm(theta0))
    assert np.linalg.norm(fast.theta - slow) <= 1e-12 * scale
    assert fast.gradient_evaluations == cfg.iterations * n


def test_loop_on_fresh_ridge_data_reads_the_moments_only(monkeypatch):
    """A descent on data without moments builds X^T X from the rows once
    and takes every step's gradient from it, not from the rows."""
    loss, data, theta0, cfg = loop_cases()["ball binds"]
    builds, row_gradients = [], []
    row_moments, batch_gradient = data_module._row_moments, \
        RidgeLoss._batch_gradient

    def counted_moments(rows):
        builds.append(rows.shape[0])
        return row_moments(rows)

    def counted_gradient(self, features, labels, theta):
        row_gradients.append(labels.size)
        return batch_gradient(self, features, labels, theta)

    monkeypatch.setattr(data_module, "_row_moments", counted_moments)
    monkeypatch.setattr(RidgeLoss, "_batch_gradient", counted_gradient)
    pgd(loss, data, theta0, cfg)
    assert builds == [data.size]
    assert row_gradients == []


def test_converged_map_solves_and_takes_no_power(monkeypatch):
    """From the first T with
    rho^T (|theta_0| + |c| / (1 - rho)) <= 2^-53 |c| / (1 + rho) on, the
    map solves once and returns theta*: within rounding of
    theta* + A^T (theta_0 - theta*), and bytewise that iterate once A^T
    underflows. Below that T it solves nothing and takes the lifted
    power, within rounding of the same iterate."""
    data, loss, _ = ridge_problem(seed=14)
    theta0 = np.array([0.3, -0.2, 0.1])
    hessian, rhs = loss.quadratic(data)
    star = np.linalg.solve(hessian, rhs)
    eta, m = GDConfig.for_loss(loss, 1).step_size, loss.strong_convexity
    rho = max(abs(1 - eta * m), abs(1 - eta * (np.trace(hessian) - 2 * m)))
    shift = np.linalg.norm(eta * rhs)
    first = math.ceil(math.log(2.0 ** -53 * shift / (1 + rho)
                               / (np.linalg.norm(theta0)
                                  + shift / (1 - rho)))
                      / math.log(rho))
    assert first == 36
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda *a: solves.append(1) or solve(*a))
    for iterations in (first - 1, first, 2400):
        cfg = GDConfig.for_loss(loss, iterations=iterations)
        expected = star + np.linalg.matrix_power(
            np.eye(3) - eta * hessian, iterations) @ (theta0 - star)
        solves.clear()
        theta = pgd(loss, data, theta0, cfg).theta
        assert solves == ([] if iterations < first else [1])
        assert np.linalg.norm(theta - expected) \
            <= 2.0 ** -50 * np.linalg.norm(star)
    # By T = 2400 the power has underflowed to zero: bytewise theta*.
    assert not np.linalg.matrix_power(np.eye(3) - eta * hessian, 2400).any()
    assert theta.tobytes() == expected.tobytes() == star.tobytes()


@pytest.mark.parametrize("iterations", [3, 5, 40])
def test_a_start_outside_the_ball_maps_once_its_first_step_lands_inside(
        monkeypatch, iterations):
    """A ridge descent from |theta_0| = 1.2 r, where
    rho |theta_0| + |c| <= r puts the first iterate and, by induction,
    every later one inside the ball: whether T < d (the affine steps) or
    T >= d (the map), ``pgd`` calls no gradient and agrees with the
    loop, whose projections are all identities."""
    data, loss, _ = ridge_problem(seed=16, dim=5, lam=10.0, radius=1.0)
    theta0 = np.full(5, 1.2 / math.sqrt(5))
    cfg = GDConfig.for_loss(loss, iterations=iterations)
    hessian, rhs = loss.quadratic(data)
    eta, m = cfg.step_size, loss.strong_convexity
    rho = max(abs(1 - eta * m), abs(1 - eta * (np.trace(hessian) - 4 * m)))
    assert rho * np.linalg.norm(theta0) + np.linalg.norm(eta * rhs) <= 0.2
    slow = loop_pgd(loss, data, theta0, cfg)
    calls = count_gradients(monkeypatch)
    fast = pgd(loss, data, theta0, cfg)
    assert calls == []
    assert np.linalg.norm(fast.theta - slow) <= 1e-12 * np.linalg.norm(slow)


def test_binding_ball_case_really_binds():
    loss, data, theta0, cfg = loop_cases()["ball binds"]
    wide = ParamSpace(3, 5.0)
    assert np.linalg.norm(closed_form_ridge_optimizer(data, 0.1, wide)) > 0.05
    assert np.linalg.norm(pgd(loss, data, theta0, cfg).theta) == \
        pytest.approx(0.05, rel=1e-12)
