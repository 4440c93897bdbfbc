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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset

__all__ = [
    "ParamSpace",
    "LossModel",
    "RidgeLoss",
    "LogisticLoss",
    "RegularizedLoss",
    "closed_form_ridge_optimizer",
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
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if not self.radius > 0:
            raise ValueError("radius must be positive")

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def contains(self, theta, tol=1e-9) -> bool:
        return float(np.linalg.norm(theta)) <= self.radius * (1 + tol)

    def project(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        norm = float(np.linalg.norm(theta))
        if norm <= self.radius:
            return theta
        return theta * (self.radius / norm)


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
        """Mean per-point loss over the multiset."""
        if data.size == 0:
            raise ValueError("empty dataset")
        return self._batch_loss(data.features, data.labels,
                                np.asarray(theta, dtype=float))

    def empirical_gradient(self, data: Dataset, theta) -> np.ndarray:
        """Gradient of the mean loss; norm is at most L on Theta."""
        if data.size == 0:
            raise ValueError("empty dataset")
        return self._batch_gradient(data.features, data.labels,
                                    np.asarray(theta, dtype=float))

    def check_dataset(self, data: Dataset):
        """Reject rows outside the loss's bounds or the dataset's own."""
        Dataset(data.features, data.labels,
                min(self.feature_bound, data.feature_bound),
                min(self.label_bound, data.label_bound)).validate_bounds()

    def check_point(self, point):
        """Reject the single point (x, y): a one-row dataset."""
        self.check_dataset(Dataset(point.x, [point.y], np.inf, np.inf))

    def regularized(self, extra: float) -> "RegularizedLoss":
        return RegularizedLoss(self, extra)


class RidgeLoss(LossModel):
    """Squared error with an optional quadratic penalty."""

    def __init__(self, space: ParamSpace, feature_bound=1.0, label_bound=1.0,
                 lam=0.0):
        super().__init__(space)
        if lam < 0:
            raise ValueError("ridge coefficient must be nonnegative")
        if not (feature_bound > 0 and label_bound > 0):
            raise ValueError("bounds must be positive")
        self.feature_bound = float(feature_bound)
        self.label_bound = float(label_bound)
        self.lam = float(lam)
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


def _expit(t):
    # 1 / (1 + exp(-t)) without overflow on either tail.
    return 0.5 * (1.0 + np.tanh(0.5 * t))


class LogisticLoss(LossModel):
    """Binary logistic loss, labels in {-1, +1}, optional quadratic penalty."""

    def __init__(self, space: ParamSpace, feature_bound=1.0, lam=0.0):
        super().__init__(space)
        if lam < 0:
            raise ValueError("ridge coefficient must be nonnegative")
        if not feature_bound > 0:
            raise ValueError("bounds must be positive")
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
        margins = labels * (features @ theta)
        weights = labels * _expit(-margins)
        return -features.T @ weights / labels.size + self.lam * theta

    def check_dataset(self, data: Dataset):
        super().check_dataset(data)
        if not np.all(np.isin(data.labels, (-1.0, 1.0))):
            raise ValueError("logistic labels must be -1 or +1")


class RegularizedLoss(LossModel):
    """A base loss plus (extra/2)|theta|^2 with certified constants.

    The constants follow the additive rule (m + a, M + a, L + a D); see
    the module docstring for why the Lipschitz term pays the diameter.
    """

    def __init__(self, base: LossModel, extra: float):
        if extra <= 0:
            raise ValueError("added regularization must be positive")
        super().__init__(base.space)
        self.base = base
        self.extra = float(extra)
        self.strong_convexity = base.strong_convexity + self.extra
        self.smoothness = base.smoothness + self.extra
        self.lipschitz = base.lipschitz + self.extra * base.space.diameter

    def _batch_loss(self, features, labels, theta):
        return self.base._batch_loss(features, labels, theta) \
            + 0.5 * self.extra * float(theta @ theta)

    def _batch_gradient(self, features, labels, theta):
        return self.base._batch_gradient(features, labels, theta) \
            + self.extra * theta

    def check_dataset(self, data: Dataset):
        self.base.check_dataset(data)


def closed_form_ridge_optimizer(data: Dataset, lam: float,
                                space: ParamSpace) -> np.ndarray:
    """Exact minimizer of the empirical ridge loss over Theta.

    Solves (X^T X / n + lam I) theta = X^T y / n. Only valid when the
    unconstrained solution lies inside the ball, in which case it is
    also the constrained minimizer; otherwise this oracle refuses
    rather than return a wrong answer.
    """
    if data.size == 0:
        raise ValueError("empty dataset")
    if lam < 0:
        raise ValueError("ridge coefficient must be nonnegative")
    n = data.size
    gram = data.features.T @ data.features / n
    gram[np.diag_indices_from(gram)] += lam
    rhs = data.features.T @ data.labels / n
    try:
        theta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular normal equations; need lam > 0 or "
                         "full-rank features") from exc
    if not np.all(np.isfinite(theta)) or \
            np.linalg.norm(gram @ theta - rhs) > 1e-8 * (np.linalg.norm(rhs) + 1):
        raise ValueError("singular normal equations; need lam > 0 or "
                         "full-rank features")
    if np.linalg.norm(theta) > space.radius * (1 + 1e-9):
        raise ValueError("oracle invalid for constrained problem: "
                         "unconstrained minimizer lies outside the ball")
    return theta
