import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from unlearn.data import (DataPoint, Dataset, Update, check_bounds,
                          moments_tolerance)
from unlearn.losses import (
    LogisticLoss,
    ParamSpace,
    RegularizedLoss,
    RidgeLoss,
    closed_form_ridge_optimizer,
)
from unlearn.optimizer import GDConfig, pgd

from helpers import (
    ball_points,
    numeric_gradient,
    scalar_logistic_loss,
    scalar_ridge_loss,
)


def make_dataset(rng, n, dim, label_bound=1.0):
    features = ball_points(rng, n, dim)
    labels = rng.uniform(-label_bound, label_bound, size=n)
    return Dataset(features, labels, 1.0, label_bound)


def test_param_space_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        ParamSpace(3, 0.0)
    with pytest.raises(ValueError):
        ParamSpace(3, -1.0)


NAN, INF = float("nan"), float("inf")
LAM = "ridge coefficient must be nonnegative and finite"
BOUNDS = "bounds must be positive and finite"
EXTRA = r"added regularization must lie in \(0, inf\)"


@pytest.mark.parametrize("make, match", [
    (lambda: ParamSpace(3, INF), "radius must be positive and finite"),
    (lambda: RidgeLoss(ParamSpace(3, 1.0), lam=NAN), LAM),
    (lambda: RidgeLoss(ParamSpace(3, 1.0), lam=INF), LAM),
    (lambda: RidgeLoss(ParamSpace(3, 1.0), feature_bound=INF), BOUNDS),
    (lambda: RidgeLoss(ParamSpace(3, 1.0), label_bound=INF), BOUNDS),
    (lambda: LogisticLoss(ParamSpace(3, 1.0), lam=NAN), LAM),
    (lambda: LogisticLoss(ParamSpace(3, 1.0), lam=INF), LAM),
    (lambda: LogisticLoss(ParamSpace(3, 1.0), feature_bound=INF), BOUNDS),
    (lambda: RegularizedLoss(RidgeLoss(ParamSpace(3, 1.0)), NAN), EXTRA),
    (lambda: RegularizedLoss(RidgeLoss(ParamSpace(3, 1.0)), INF), EXTRA),
], ids=["radius-inf", "ridge-lam-nan", "ridge-lam-inf",
        "ridge-feature-bound-inf", "ridge-label-bound-inf",
        "logistic-lam-nan", "logistic-lam-inf",
        "logistic-feature-bound-inf", "extra-nan", "extra-inf"])
def test_non_finite_constants_are_rejected(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_param_space_diameter_and_contains():
    space = ParamSpace(2, 1.5)
    assert space.diameter == 3.0
    assert space.contains(np.array([1.5, 0.0]))
    assert space.contains(np.zeros(2))
    assert not space.contains(np.array([1.51, 0.0]))


def test_project_identity_inside_ball():
    space = ParamSpace(3, 2.0)
    theta = np.array([0.5, -0.5, 1.0])
    assert_allclose(space.project(theta), theta)


def test_project_rescales_onto_sphere():
    space = ParamSpace(2, 1.0)
    assert_allclose(space.project(np.array([3.0, 4.0])), [0.6, 0.8])


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6))
def test_project_idempotent(values):
    theta = np.array(values)
    space = ParamSpace(theta.size, 1.0)
    once = space.project(theta)
    assert np.linalg.norm(once) <= 1.0 + 1e-9
    assert_allclose(space.project(once), once, atol=1e-15)


def reference_project(space, theta):
    # ParamSpace.project as written with np.linalg.norm.
    theta = np.asarray(theta, dtype=float)
    norm = float(np.linalg.norm(theta))
    if norm <= space.radius:
        return theta
    return theta * (space.radius / norm)


def outcome(check, *args):
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


def reference_check(point, feature_bound, label_bound):
    # The bound check as called with np.linalg.norm: its message or None.
    return outcome(check_bounds, float(np.linalg.norm(point.x)),
                   abs(point.y), feature_bound, label_bound)


@settings(max_examples=150, deadline=None)
@given(values=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8),
       scale=st.floats(0.25, 4.0),
       layout=st.sampled_from(("contiguous", "strided", "reversed")))
def test_norms_take_numpys_bytes_in_project_and_the_bound_checks(
        values, scale, layout):
    """``project``, ``check_point`` and an add's check take the norm as
    sqrt(x . x), without np.linalg.norm's dispatch: on any vector, laid
    out in memory any way, each returns what the np.linalg.norm version
    returns, to the byte, and ``project`` its input itself exactly when
    that does. A radius or bound equal to the norm is the sharp case."""
    wide = np.zeros((len(values), 3))
    wide[:, 1] = values
    theta = {"contiguous": wide[:, 1].copy(), "strided": wide[:, 1],
             "reversed": wide[::-1, 1]}[layout]
    norm = float(np.linalg.norm(theta))
    for radius in (norm, norm * scale, np.nextafter(norm, 0.0)):
        if not radius > 0:
            continue
        space = ParamSpace(theta.size, radius)
        got, want = space.project(theta), reference_project(space, theta)
        assert (got is theta) == (want is theta)
        assert got.tobytes() == want.tobytes()
    point = DataPoint(theta, 0.5)
    assert point.x is theta  # the layout reaches the checks
    for bound in (norm, norm * scale, norm / (1 + 2e-12)):
        if not bound > 0:
            continue
        loss = RidgeLoss(ParamSpace(theta.size, 1.0), feature_bound=bound)
        data = Dataset(np.zeros((2, theta.size)), np.zeros(2), bound, 1.0)
        want = reference_check(point, bound, 1.0)
        assert outcome(loss.check_point, point) == want
        assert outcome(data.apply, Update("add", point)) == want


def test_bound_checks_keep_their_messages_and_raise_no_type_error():
    """NaN, infinite and oversized points are rejected with the messages
    of the np.linalg.norm check, a NaN or infinite value as non-finite
    and an oversized one by the bound it breaks, and a point whose ``x``
    is not a vector
    is still a ``ValueError`` (or passes ``check_point`` by its
    Frobenius norm, as before), never a ``TypeError``."""
    space = ParamSpace(2, 1.0)
    losses = [RidgeLoss(space, feature_bound=0.5, label_bound=2.0),
              LogisticLoss(space, feature_bound=0.5)]
    losses.append(RegularizedLoss(losses[1], 0.5))
    points = [DataPoint([np.nan, 0.0], 1.0), DataPoint([np.inf, 0.0], 1.0),
              DataPoint([0.0, -np.inf], 1.0), DataPoint([0.3, 0.4], 1.0),
              DataPoint([0.3, 0.4 + 1e-9], 1.0), DataPoint([0.3, 0.0], np.nan),
              DataPoint([0.3, 0.0], -np.inf), DataPoint([0.3, 0.0], 2.5),
              DataPoint([0.3, 0.0], 1.0)]
    messages = [reference_check(p, 0.5, 2.0) for p in points]
    assert messages == ["non-finite feature or label"] * 3 + [
        None, "feature norm exceeds declared bound"] + [
        "non-finite feature or label"] * 2 + [
        "label magnitude exceeds declared bound", None]
    for loss in losses:
        label_bound = loss.label_bound
        assert [outcome(loss.check_point, p) for p in points] == [
            reference_check(p, 0.5, label_bound) for p in points]
    data = Dataset(np.zeros((2, 2)), np.zeros(2), 0.5, 2.0)
    assert [outcome(data.apply, Update("add", p)) for p in points] == messages
    for x in ([[0.1, 0.2]], [[0.1, 0.2], [0.3, 0.0]], [[0.6, 0.0]], 0.1):
        point = DataPoint(x, 1.0)
        assert outcome(losses[0].check_point, point) == \
            reference_check(point, 0.5, 2.0)
        assert outcome(data.apply, Update("add", point)) == \
            "added point has wrong dimension"


def test_ridge_zero_label_zero_parameter_gives_zero_loss():
    data = Dataset(np.array([[0.3, 0.4]]), np.array([0.0]))
    loss = RidgeLoss(ParamSpace(2, 1.0), lam=0.0)
    assert loss.empirical_loss(data, np.zeros(2)) == 0.0


def test_ridge_single_point_matches_scalar_arithmetic():
    rng = np.random.default_rng(7)
    for lam in (0.0, 0.7, 2.0):
        x = ball_points(rng, 1, 3)[0]
        y = float(rng.uniform(-1, 1))
        theta = ball_points(rng, 1, 3)[0]
        data = Dataset(x[None, :], np.array([y]))
        loss = RidgeLoss(ParamSpace(3, 1.0), lam=lam)
        want = scalar_ridge_loss(x, y, theta, lam)
        assert abs(loss.empirical_loss(data, theta) - want) < 1e-12
        assert abs(loss.point_loss(x, y, theta) - want) < 1e-12


def test_logistic_single_point_matches_scalar_arithmetic():
    rng = np.random.default_rng(8)
    for lam in (0.0, 0.5):
        x = ball_points(rng, 1, 4)[0]
        y = float(rng.choice([-1.0, 1.0]))
        theta = ball_points(rng, 1, 4)[0]
        loss = LogisticLoss(ParamSpace(4, 1.0), lam=lam)
        want = scalar_logistic_loss(x, y, theta, lam)
        assert abs(loss.point_loss(x, y, theta) - want) < 1e-12


def test_duplicated_point_leaves_average_loss_unchanged():
    x = np.array([[0.2, -0.1]])
    y = np.array([0.5])
    single = Dataset(x, y)
    double = Dataset(np.vstack([x, x]), np.concatenate([y, y]))
    loss = RidgeLoss(ParamSpace(2, 1.0), lam=0.3)
    theta = np.array([0.1, 0.4])
    assert loss.empirical_loss(single, theta) == loss.empirical_loss(double, theta)


def test_empty_dataset_rejected():
    empty = Dataset(np.zeros((0, 2)), np.zeros(0))
    loss = RidgeLoss(ParamSpace(2, 1.0))
    with pytest.raises(ValueError, match="empty dataset"):
        loss.empirical_loss(empty, np.zeros(2))
    with pytest.raises(ValueError, match="empty dataset"):
        loss.empirical_gradient(empty, np.zeros(2))


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    data = make_dataset(rng, 20, 3)
    cases = [
        RidgeLoss(ParamSpace(3, 1.0), lam=0.8),
        LogisticLoss(ParamSpace(3, 1.0), lam=0.2),
        RegularizedLoss(RidgeLoss(ParamSpace(3, 1.0), lam=0.0), 0.5),
    ]
    logistic_data = Dataset(data.features, np.sign(data.labels + 0.25))
    for loss in cases:
        use = logistic_data if isinstance(loss, LogisticLoss) else data
        for _ in range(5):
            theta = ball_points(rng, 1, 3)[0]
            grad = loss.empirical_gradient(use, theta)
            approx = numeric_gradient(
                lambda t: loss.empirical_loss(use, t), theta)
            assert_allclose(grad, approx, atol=1e-6)


def test_gradient_vanishes_at_interior_minimizer():
    rng = np.random.default_rng(12)
    data = make_dataset(rng, 50, 3, label_bound=0.5)
    space = ParamSpace(3, 5.0)
    loss = RidgeLoss(ParamSpace(3, 5.0), label_bound=0.5, lam=1.0)
    star = closed_form_ridge_optimizer(data, 1.0, space)
    assert np.linalg.norm(loss.empirical_gradient(data, star)) <= 1e-8


def test_point_gradient_norms_stay_within_lipschitz_constant():
    rng = np.random.default_rng(13)
    space = ParamSpace(3, 1.0)
    for loss, labels in (
        (RidgeLoss(space, lam=0.5), rng.uniform(-1, 1, 10000)),
        (LogisticLoss(space, lam=0.5), rng.choice([-1.0, 1.0], 10000)),
    ):
        xs = ball_points(rng, 10000, 3)
        thetas = ball_points(rng, 10000, 3)
        worst = max(
            np.linalg.norm(loss.point_gradient(x, y, t))
            for x, y, t in zip(xs, labels, thetas)
        )
        assert worst <= loss.lipschitz * (1 + 1e-9)


def test_gradient_differences_stay_within_smoothness_constant():
    rng = np.random.default_rng(14)
    space = ParamSpace(4, 1.0)
    for loss, y_pool in (
        (RidgeLoss(space, lam=0.3), rng.uniform(-1, 1, 1000)),
        (LogisticLoss(space, lam=0.3), rng.choice([-1.0, 1.0], 1000)),
    ):
        xs = ball_points(rng, 1000, 4)
        a = ball_points(rng, 1000, 4)
        b = ball_points(rng, 1000, 4)
        for x, y, t1, t2 in zip(xs, y_pool, a, b):
            diff = np.linalg.norm(
                loss.point_gradient(x, y, t1) - loss.point_gradient(x, y, t2))
            assert diff <= loss.smoothness * np.linalg.norm(t1 - t2) * (1 + 1e-9) + 1e-12


def test_strong_convexity_lower_bound_holds():
    rng = np.random.default_rng(15)
    space = ParamSpace(3, 1.0)
    for loss, y_pool in (
        (RidgeLoss(space, lam=0.7), rng.uniform(-1, 1, 1000)),
        (LogisticLoss(space, lam=0.4), rng.choice([-1.0, 1.0], 1000)),
    ):
        m = loss.strong_convexity
        xs = ball_points(rng, 1000, 3)
        a = ball_points(rng, 1000, 3)
        b = ball_points(rng, 1000, 3)
        for x, y, t1, t2 in zip(xs, y_pool, a, b):
            lhs = loss.point_loss(x, y, t2)
            rhs = (loss.point_loss(x, y, t1)
                   + loss.point_gradient(x, y, t1) @ (t2 - t1)
                   + 0.5 * m * np.linalg.norm(t2 - t1) ** 2)
            assert lhs >= rhs - 1e-9


def test_regularize_updates_certified_constants():
    base = RidgeLoss(ParamSpace(2, 1.0), lam=0.0)
    assert base.lipschitz == 2.0
    assert base.strong_convexity == 0.0
    reg = RegularizedLoss(base, 1.0)
    assert reg.lipschitz == 4.0
    assert reg.smoothness == base.smoothness + 1.0
    assert reg.strong_convexity == 1.0


def test_regularize_rejects_nonpositive_extra():
    base = RidgeLoss(ParamSpace(2, 1.0))
    with pytest.raises(ValueError):
        RegularizedLoss(base, 0.0)
    with pytest.raises(ValueError):
        RegularizedLoss(base, -0.5)


def test_regularized_gradient_adds_linear_term():
    rng = np.random.default_rng(16)
    base = LogisticLoss(ParamSpace(3, 1.0), lam=0.0)
    reg = RegularizedLoss(base, 0.9)
    data = Dataset(ball_points(rng, 12, 3), rng.choice([-1.0, 1.0], 12))
    theta = ball_points(rng, 1, 3)[0]
    assert_allclose(
        reg.empirical_gradient(data, theta),
        base.empirical_gradient(data, theta) + 0.9 * theta,
        atol=1e-12,
    )
    assert reg.empirical_loss(data, np.zeros(3)) == base.empirical_loss(data, np.zeros(3))


def test_regularized_loss_exposes_base_and_extra():
    base = RidgeLoss(ParamSpace(2, 1.0), lam=0.1)
    reg = RegularizedLoss(base, 0.25)
    assert reg.base is base
    assert reg.extra == 0.25


def test_closed_form_single_point_by_hand():
    data = Dataset(np.array([[1.0]]), np.array([1.0]))
    star = closed_form_ridge_optimizer(data, 1.0, ParamSpace(1, 1.0))
    assert_allclose(star, [0.5])


def test_closed_form_shrinks_with_regularization():
    rng = np.random.default_rng(17)
    data = make_dataset(rng, 40, 2, label_bound=0.5)
    space = ParamSpace(2, 10.0)
    norms = [
        np.linalg.norm(closed_form_ridge_optimizer(data, lam, space))
        for lam in (0.1, 1.0, 10.0, 100.0)
    ]
    assert all(a >= b for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 1e-2


def test_closed_form_matches_long_gradient_descent():
    rng = np.random.default_rng(18)
    data = make_dataset(rng, 30, 3, label_bound=0.5)
    space = ParamSpace(3, 5.0)
    loss = RidgeLoss(space, label_bound=0.5, lam=1.0)
    star = closed_form_ridge_optimizer(data, 1.0, space)
    cfg = GDConfig.for_loss(loss, iterations=200)
    trace = pgd(loss, data, np.zeros(3), cfg)
    assert_allclose(trace.theta, star, atol=1e-8)


def test_closed_form_rejects_singular_system():
    data = Dataset(np.array([[1.0, 0.0]]), np.array([1.0]))
    with pytest.raises(ValueError, match="singular"):
        closed_form_ridge_optimizer(data, 0.0, ParamSpace(2, 1.0))


def test_closed_form_rejects_solution_outside_ball():
    data = Dataset(np.array([[1.0]]), np.array([1.0]))
    with pytest.raises(ValueError, match="oracle invalid"):
        closed_form_ridge_optimizer(data, 0.0, ParamSpace(1, 0.5))


def test_logistic_rejects_labels_off_the_unit_pair():
    data = Dataset(np.array([[0.1], [0.2]]), np.array([1.0, 0.5]))
    loss = LogisticLoss(ParamSpace(1, 1.0))
    with pytest.raises(ValueError, match="logistic labels"):
        loss.check_dataset(data)


def test_quadratic_form_reproduces_the_gradient():
    """``quadratic``'s (H, g) gives the gradient, and ``affine_step``'s
    (A, c) = (I - eta H, eta g) the gradient step."""
    rng = np.random.default_rng(21)
    data = make_dataset(rng, 30, 4)
    space = ParamSpace(4, 2.0)
    theta = ball_points(rng, 1, 4, radius=2.0)[0]
    ridge = RidgeLoss(space, lam=0.3)
    for loss in (ridge, RegularizedLoss(RegularizedLoss(ridge, 0.2), 0.1)):
        hessian, rhs = loss.quadratic(data)
        assert_allclose(hessian, hessian.T, rtol=0, atol=0)
        assert np.linalg.eigvalsh(hessian).min() >= \
            loss.strong_convexity * (1 - 1e-12)
        assert_allclose(hessian @ theta - rhs,
                        loss.empirical_gradient(data, theta),
                        rtol=1e-12, atol=1e-14)
        eta = GDConfig.for_loss(loss, 1).step_size
        step, shift = loss.affine_step(data, eta)
        assert_allclose(step, step.T, rtol=0, atol=0)
        assert_allclose(step, np.eye(4) - eta * hessian, rtol=0, atol=1e-15)
        assert_allclose(step @ theta + shift,
                        theta - eta * loss.empirical_gradient(data, theta),
                        rtol=1e-12, atol=1e-14)
    logistic = LogisticLoss(space, lam=0.3)
    for loss in (logistic, RegularizedLoss(logistic, 0.1)):
        assert loss.quadratic(data) is None
        assert loss.affine_step(data, 0.5) is None


def test_ridge_gradient_from_moments_matches_the_rows():
    """On fresh data the gradient builds the moments from the rows and
    keeps them; on them, and on moments carried through edits, it
    matches the row path to a tolerance set by the dtype."""
    rng = np.random.default_rng(23)
    ridge = RidgeLoss(ParamSpace(4, 1.0), lam=0.3)
    losses = (ridge, RegularizedLoss(ridge, 0.2))

    def assert_matches_rows(loss, data, theta):
        tol = 10 * (data.size + 60) * np.finfo(float).eps * loss.lipschitz
        assert_allclose(loss.empirical_gradient(data, theta),
                        loss._batch_gradient(data.features, data.labels,
                                             theta),
                        rtol=0, atol=tol)

    for loss in losses:
        fresh = make_dataset(rng, 200, 4)
        assert fresh.cached_moments is None
        assert_matches_rows(loss, fresh, ball_points(rng, 1, 4)[0])
        assert fresh.cached_moments is not None
    data = make_dataset(rng, 200, 4)
    data.moments()
    for x in ball_points(rng, 30, 4):
        data = data.apply(Update("add", DataPoint(x, rng.uniform(-1, 1))))
        data = data.apply(Update("delete", data.point(0)))
    for loss in losses:
        for theta in ball_points(rng, 5, 4):
            assert_matches_rows(loss, data, theta)


def test_ridge_values_from_carried_moments_match_the_rows():
    """After 2e4 edits, ridge-family values read from the carried
    moments match the rows' values. The bound is what the moments'
    error, as ``moments_tolerance`` bounds it, can move the value by,
    doubled to leave room for the rounding of both formulas."""
    rng = np.random.default_rng(29)
    ridge = RidgeLoss(ParamSpace(4, 1.0), lam=0.3)
    losses = (ridge, RegularizedLoss(ridge, 0.2))
    data = make_dataset(rng, 300, 4)
    data.moments()
    n0 = data.size
    for _ in range(20_000):
        if data.size - 1 < n0 / 2 or rng.random() < 0.5:
            point = DataPoint(ball_points(rng, 1, 4)[0], rng.uniform(-1, 1))
            data = data.apply(Update("add", point))
        else:
            data = data.apply(
                Update("delete", data.point(int(rng.integers(data.size)))))
    tol = moments_tolerance(data.size, data.cached_moments[1], 1.0, 1.0, 4)
    for loss in losses:
        for theta in ball_points(rng, 5, 4, radius=3.0):
            # |v^T (M' - M) v| <= |v|^T tol |v| for v = (theta, -1).
            lifted = np.abs(np.append(theta, -1.0))
            bound = 0.5 * float(lifted @ tol @ lifted) / data.size
            rows = loss._batch_loss(data.features, data.labels, theta)
            assert abs(loss.empirical_loss(data, theta) - rows) <= bound


def test_only_logistic_values_read_the_rows(monkeypatch):
    rng = np.random.default_rng(31)
    data = make_dataset(rng, 50, 3)
    theta = ball_points(rng, 1, 3)[0]
    calls = []
    for cls in (RidgeLoss, LogisticLoss):
        original = cls._batch_loss

        def counted(self, features, labels, theta, original=original):
            calls.append((type(self).__name__, labels.size))
            return original(self, features, labels, theta)

        monkeypatch.setattr(cls, "_batch_loss", counted)
    signs = np.where(data.features[:, 0] >= 0, 1.0, -1.0)
    logistic_data = Dataset(data.features, signs)
    LogisticLoss(ParamSpace(3, 1.0), lam=0.1).empirical_loss(logistic_data,
                                                             theta)
    assert calls == [("LogisticLoss", 50)]
    assert logistic_data.cached_moments is None
    ridge = RidgeLoss(ParamSpace(3, 1.0), lam=0.1)
    for loss in (ridge, RegularizedLoss(ridge, 0.2)):
        loss.empirical_loss(data, theta)
    assert calls == [("LogisticLoss", 50)]
    assert data.cached_moments is not None


def test_closed_form_solves_the_ridge_quadratic_exactly():
    rng = np.random.default_rng(22)
    data = make_dataset(rng, 50, 3)
    space = ParamSpace(3, 5.0)
    hessian, rhs = RidgeLoss(space, lam=0.7).quadratic(data)
    assert np.array_equal(closed_form_ridge_optimizer(data, 0.7, space),
                          np.linalg.solve(hessian, rhs))


def test_check_point_agrees_with_a_one_row_check_and_builds_no_dataset(
        monkeypatch):
    space = ParamSpace(2, 1.0)
    ridge = RidgeLoss(space, feature_bound=0.5, label_bound=2.0)
    logistic = LogisticLoss(space, feature_bound=0.5)
    points = [DataPoint([0.3, 0.0], 1.0), DataPoint([0.6, 0.0], 1.0),
              DataPoint([0.3, 0.0], 1.5), DataPoint([0.3, 0.0], -3.0),
              DataPoint([np.nan, 0.0], 1.0), DataPoint([0.3, 0.0], np.inf),
              DataPoint([0.3, 0.0], -1.0), DataPoint([0.3, 0.0], 0.5)]
    losses = [ridge, logistic, RegularizedLoss(logistic, 0.5)]

    def outcome(check, arg):
        try:
            check(arg)
        except ValueError as exc:
            return str(exc)
        return None

    expected = [[outcome(loss.check_dataset,
                         Dataset(p.x, [p.y], np.inf, np.inf))
                 for p in points] for loss in losses]
    assert expected[0][:4] == [None, "feature norm exceeds declared bound",
                               None, "label magnitude exceeds declared bound"]
    assert expected[1][-2:] == [None, "logistic labels must be -1 or +1"]
    assert expected[2] == expected[1]

    def no_dataset(*args, **kwargs):
        raise AssertionError("check_point built a Dataset")

    monkeypatch.setattr(Dataset, "__init__", no_dataset)
    assert [[outcome(loss.check_point, p) for p in points]
            for loss in losses] == expected
