"""Convex per-point losses with certified regularity constants.

Each loss model fixes a parameter space Theta (a Euclidean ball of
radius D/2 centered at the origin, so the diameter is D) and certifies
three constants that hold for every admissible data point and every
theta in Theta:

    strong_convexity  m: f_z(a) >= f_z(b) + <grad f_z(b), a-b> + m/2 |a-b|^2
    smoothness        M: |grad f_z(a) - grad f_z(b)| <= M |a-b|
    lipschitz         L: |grad f_z(theta)| <= L

Shipped models, for feature bound R_x, label bound R_y, ball radius r
(D = 2r) and ridge coefficient lam:

    ridge      f_z(theta) = (1/2)(<theta, x> - y)^2 + (lam/2)|theta|^2
               m = lam,  M = R_x^2 + lam,
               L = R_x (R_x r + R_y) + lam r
               (|grad| <= |<theta,x>-y| |x| + lam |theta|
                       <= (r R_x + R_y) R_x + lam r)

    logistic   f_z(theta) = log(1 + exp(-y <theta, x>)) + (lam/2)|theta|^2
               with y in {-1, +1}
               m = lam,  M = R_x^2 / 4 + lam,  L = R_x + lam r
               (the sigmoid factor is in (0, 1) and its derivative is
                at most 1/4)

Adding a quadratic (a/2)|theta|^2 on top of any model yields certified
constants (m + a, M + a, L + a D); the Lipschitz term uses the diameter
because the added gradient a * theta is only bounded by a * r <= a * D
on Theta and downstream noise calibration budgets for a D.

Ridge, and ridge plus added quadratics, are quadratic in theta: with
v = (theta, -1), total coefficient lam_eff (``ridge_lam``) and the
data's moments M = Z^T Z, Z = [X | y] (``Dataset.moments``), the
empirical loss is v^T M v / (2n) + lam_eff |theta|^2 / 2 and its
gradient (M v)[:d] / n + lam_eff theta. These, their ``quadratic`` form
and the closed-form oracle read only M, whose layout no module but
this one and ``data`` knows: built from the rows once for n d^2 and
carried through every edit, so from then on they cost O(d^2) or O(d^3)
whatever n is. One builder, ``normal_equations``, turns M into the
system (H, g) of the gradient H theta - g, for ``quadratic``, the
oracle and the stacked partition systems of the distributed chain
alike. A gradient step of size eta is then the affine map
theta -> A theta + c, with A = I - eta H
= (1 - eta lam_eff) I - (eta / n) X^T X and c = eta g = (eta / n) X^T y;
``affine_step`` reads (A, c) from M with no system solved. Since every
eigenvalue of H lies in [m, tr H - (d-1) m], |A u| <= rho |u| with
rho = max(|1 - eta m|, |1 - eta (tr H - (d-1) m)|), so
|A theta + c| <= rho |theta| + |c|: if rho < 1 and |theta_0| and
|c| / (1 - rho) are at most R, every iterate stays within R (see
``optimizer.pgd``). Losses and gradients of single points, and every
logistic quantity, come from the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import _BLOCK_ROWS, Dataset, _norm, check_bounds, check_integer

__all__ = [
    "ParamSpace",
    "LossModel",
    "RidgeLoss",
    "LogisticLoss",
    "RegularizedLoss",
    "closed_form_ridge_optimizer",
    "closed_form_refusal",
]


@dataclass(frozen=True)
class ParamSpace:
    """Origin-centered Euclidean ball of parameters.

    Attributes:
        dim: ambient dimension d.
        radius: ball radius; the diameter D used by the theory is twice
            this value.
    """

    dim: int
    radius: float

    def __post_init__(self):
        check_integer(self.dim, "dimension")
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if not 0 < self.radius < math.inf:
            raise ValueError("radius must be positive and finite")

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def contains(self, theta, tol=1e-9) -> bool:
        return float(np.linalg.norm(theta)) <= self.radius * (1 + tol)

    def project(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        norm = _norm(theta)
        if norm <= self.radius:
            return theta
        return theta * (self.radius / norm)


def _check_constants(lam, *bounds):
    if not 0 <= lam < math.inf:
        raise ValueError("ridge coefficient must be nonnegative and finite")
    if not all(0 < bound < math.inf for bound in bounds):
        raise ValueError("bounds must be positive and finite")


def _one_row(x, y):
    # (features, labels) of a batch holding the single point (x, y).
    return np.asarray(x, dtype=float)[None, :], np.array([float(y)])


class LossModel:
    """Base class wiring per-point losses into empirical quantities."""

    def __init__(self, space: ParamSpace):
        self.space = space

    # Certified constants and the data bounds they hold for, set by subclasses.
    strong_convexity: float
    smoothness: float
    lipschitz: float
    feature_bound: float
    label_bound: float
    # lam_eff of a ridge-family loss, whose gradient the moments give;
    # None for any other loss.
    ridge_lam: float | None = None

    def point_loss(self, x, y, theta) -> float:
        """Loss of the single point (x, y): a one-row batch."""
        return self._batch_loss(*_one_row(x, y),
                                np.asarray(theta, dtype=float))

    def point_gradient(self, x, y, theta) -> np.ndarray:
        """Gradient of the single point (x, y): a one-row batch."""
        return self._batch_gradient(*_one_row(x, y),
                                    np.asarray(theta, dtype=float))

    def _batch_loss(self, features, labels, theta) -> float:
        raise NotImplementedError

    def _batch_gradient(self, features, labels, theta) -> np.ndarray:
        raise NotImplementedError

    def empirical_loss(self, data: Dataset, theta) -> float:
        """Mean per-point loss over the multiset.

        Ridge-family losses take it from the data's moments.
        """
        if data.size == 0:
            raise ValueError("empty dataset")
        theta = np.asarray(theta, dtype=float)
        if self.ridge_lam is None:
            return self._batch_loss(data.features, data.labels, theta)
        lifted = np.append(theta, -1.0)
        return 0.5 * float(lifted @ data.moments() @ lifted) / data.size \
            + 0.5 * self.ridge_lam * float(theta @ theta)

    def empirical_gradient(self, data: Dataset, theta) -> np.ndarray:
        """Gradient of the mean loss; norm is at most L on Theta.

        Ridge-family losses take it from the data's moments.
        """
        if data.size == 0:
            raise ValueError("empty dataset")
        theta = np.asarray(theta, dtype=float)
        if self.ridge_lam is None:
            return self._batch_gradient(data.features, data.labels, theta)
        return data.moments()[:-1] @ np.append(theta, -1.0) / data.size \
            + self.ridge_lam * theta

    def quadratic(self, data: Dataset):
        """``(H, g)`` with empirical gradient ``H theta - g``; None if the
        loss is not quadratic.

        Built from the data's moments in O(d^2) (``normal_equations``).
        H is symmetric, its eigenvalues at least ``strong_convexity``;
        ``pgd`` relies on that bound.
        """
        if self.ridge_lam is None:
            return None
        return normal_equations(data.moments(), data.size, self.ridge_lam)

    def affine_step(self, data: Dataset, step_size: float):
        """``(A, c)`` with gradient step ``theta - step_size * gradient
        = A theta + c``; None if the loss is not quadratic.

        A = (1 - eta lam_eff) I - (eta / n) X^T X and c = (eta / n) X^T y,
        read from the data's moments in O(d^2), with no system built or
        solved. A is a fresh symmetric array, I - eta H for the H of
        ``quadratic``, so its eigenvalues are at most
        1 - eta ``strong_convexity``; ``pgd`` relies on that bound.
        """
        if self.ridge_lam is None:
            return None
        moments, scale = data.moments(), step_size / data.size
        step = moments[:-1, :-1] * -scale
        step.reshape(-1)[::data.dim + 1] += 1.0 - step_size * self.ridge_lam
        return step, moments[:-1, -1] * scale

    def check_dataset(self, data: Dataset):
        """Reject rows outside the loss's bounds or the dataset's own."""
        data.validate_bounds(self.feature_bound, self.label_bound)

    def check_point(self, point):
        """Reject the single point (x, y) outside the loss's bounds."""
        check_bounds(_norm(point.x), abs(point.y),
                     self.feature_bound, self.label_bound)


class RidgeLoss(LossModel):
    """Squared error with an optional quadratic penalty."""

    def __init__(self, space: ParamSpace, feature_bound=1.0, label_bound=1.0,
                 lam=0.0):
        super().__init__(space)
        _check_constants(lam, feature_bound, label_bound)
        self.feature_bound = float(feature_bound)
        self.label_bound = float(label_bound)
        self.lam = self.ridge_lam = float(lam)
        rx, ry, r = self.feature_bound, self.label_bound, space.radius
        self.strong_convexity = self.lam
        self.smoothness = rx * rx + self.lam
        self.lipschitz = rx * (rx * r + ry) + self.lam * r

    def _batch_loss(self, features, labels, theta):
        resid = features @ theta - labels
        return 0.5 * float(resid @ resid) / resid.size \
            + 0.5 * self.lam * float(theta @ theta)

    def _batch_gradient(self, features, labels, theta):
        resid = features @ theta - labels
        return features.T @ resid / resid.size + self.lam * theta


def normal_equations(moments, size, lam):
    """``(X^T X / n + lam I, X^T y / n)``, the ridge gradient's H and g,
    from the moments M (d+1, d+1) of n rows, or from a stack of them,
    (P, d+1, d+1), with n rows each; for a stack ``lam`` may be a (P, 1)
    column, one coefficient per system. H and g are views of a fresh
    M / n + lam I (the lam its corner gets is unused)."""
    system = moments / size
    dim = system.shape[-1] - 1
    system.reshape(-1, (dim + 1) ** 2)[:, ::dim + 2] += lam
    return system[..., :dim, :dim], system[..., :dim, dim]


def _expit(t):
    # 1 / (1 + exp(-t)) without overflow on either tail.
    return 0.5 * (1.0 + np.tanh(0.5 * t))


class LogisticLoss(LossModel):
    """Binary logistic loss, labels in {-1, +1}, optional quadratic penalty."""

    def __init__(self, space: ParamSpace, feature_bound=1.0, lam=0.0):
        super().__init__(space)
        _check_constants(lam, feature_bound)
        self.feature_bound = float(feature_bound)
        self.label_bound = 1.0
        self.lam = float(lam)
        rx, r = self.feature_bound, space.radius
        self.strong_convexity = self.lam
        self.smoothness = 0.25 * rx * rx + self.lam
        self.lipschitz = rx + self.lam * r

    def _batch_loss(self, features, labels, theta):
        margins = labels * (features @ theta)
        return float(np.mean(np.logaddexp(0.0, -margins))) \
            + 0.5 * self.lam * float(theta @ theta)

    def _batch_gradient(self, features, labels, theta):
        # X^T w summed over ``_BLOCK_ROWS``-row blocks in order, so no
        # product spans more rows (README: BLAS threads).
        margins = labels * (features @ theta)
        weights = labels * _expit(-margins)
        total = np.zeros(theta.shape)
        for start in range(0, labels.size, _BLOCK_ROWS):
            stop = start + _BLOCK_ROWS
            total += features[start:stop].T @ weights[start:stop]
        return -total / labels.size + self.lam * theta

    def check_dataset(self, data: Dataset):
        super().check_dataset(data)
        if not np.all(np.isin(data.labels, (-1.0, 1.0))):
            raise ValueError("logistic labels must be -1 or +1")

    def check_point(self, point):
        super().check_point(point)
        if point.y not in (-1.0, 1.0):
            raise ValueError("logistic labels must be -1 or +1")


class RegularizedLoss(LossModel):
    """A base loss plus (extra/2)|theta|^2 with certified constants.

    The constants follow the additive rule (m + a, M + a, L + a D); see
    the module docstring for why the Lipschitz term pays the diameter.
    """

    def __init__(self, base: LossModel, extra: float):
        if not 0 < extra < math.inf:
            raise ValueError("added regularization must lie in (0, inf)")
        super().__init__(base.space)
        self.base = base
        self.extra = float(extra)
        if base.ridge_lam is not None:
            self.ridge_lam = base.ridge_lam + self.extra
        self.strong_convexity = base.strong_convexity + self.extra
        self.smoothness = base.smoothness + self.extra
        self.lipschitz = base.lipschitz + self.extra * base.space.diameter

    @property
    def feature_bound(self) -> float:
        return self.base.feature_bound

    @property
    def label_bound(self) -> float:
        return self.base.label_bound

    def _batch_loss(self, features, labels, theta):
        return self.base._batch_loss(features, labels, theta) \
            + 0.5 * self.extra * float(theta @ theta)

    def _batch_gradient(self, features, labels, theta):
        return self.base._batch_gradient(features, labels, theta) \
            + self.extra * theta

    def check_dataset(self, data: Dataset):
        self.base.check_dataset(data)

    def check_point(self, point):
        self.base.check_point(point)


_SINGULAR = "singular normal equations; need lam > 0 or full-rank features"


def closed_form_ridge_optimizer(data: Dataset, lam: float,
                                space: ParamSpace) -> np.ndarray:
    """Exact minimizer of the empirical ridge loss over Theta.

    Solves (X^T X / n + lam I) theta = X^T y / n, from the data's
    moments M, the same system ``quadratic`` builds. Only valid when the
    unconstrained solution lies inside the ball, in which case it is
    also the constrained minimizer; otherwise this oracle refuses
    rather than return a wrong answer. The checks on the solution are
    ``closed_form_refusal``'s, which also judges a theta solved
    elsewhere, such as a row of a stacked solve.
    """
    if data.size == 0:
        raise ValueError("empty dataset")
    if lam < 0:
        raise ValueError("ridge coefficient must be nonnegative")
    hessian, rhs = normal_equations(data.moments(), data.size, lam)
    try:
        theta = np.linalg.solve(hessian, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(_SINGULAR) from exc
    refusal = closed_form_refusal(hessian, rhs, theta, space)
    if refusal is not None:
        raise ValueError(refusal)
    return theta


def closed_form_refusal(hessian, rhs, theta, space: ParamSpace):
    """Why ``theta``, solved from ``hessian theta = rhs``, is not the
    ball's ridge minimizer, or None if it is: it must be finite, solve
    the system to a relative residual of 1e-8 and lie in the ball."""
    if not np.isfinite(theta).all() or _norm(
            hessian @ theta - rhs) > 1e-8 * (_norm(rhs) + 1):
        return _SINGULAR
    if _norm(theta) > space.radius * (1 + 1e-9):
        return ("oracle invalid for constrained problem: "
                "unconstrained minimizer lies outside the ball")
    return None
