"""Projected gradient descent on empirical losses.

For an m-strongly-convex, M-smooth objective the step size 2/(M+m)
contracts the distance to the constrained minimizer by
gamma = (M-m)/(M+m) per iteration. For merely convex M-smooth
objectives the step size 1/M gives the usual M |theta_0 - theta*|^2 / (2T)
bound on the objective gap.

Quadratic losses (ridge, and ridge plus added quadratics) have gradient
H theta - g, so an unprojected step is the affine map
theta -> theta* + (I - eta H)(theta - theta*) with theta* = H^-1 g, and
T steps are theta_T = theta* + (I - eta H)^T (theta_0 - theta*). ``pgd``
uses that map, with the matrix power taken by repeated squaring, when
the projection provably never binds: the eigenvalues of H lie in
[m, tr H - (d-1) m], so every step contracts theta - theta* by at most
rho = max(|1 - eta m|, |1 - eta (tr H - (d-1) m)|), and if rho < 1 and
|theta*| + rho |theta_0 - theta*| <= r (1 - 1e-9) no iterate after the
start leaves the ball. It also needs the strongly convex regime and
T >= d: H and every loop gradient come from the data's moments (see
``Dataset.moments``), so the loop costs T d^2 flops and the power
d^3 log T, beside one n d^2 build of the moments that both share, and
the map pays from about T = d on, up to the log factor. Once
rho^T |theta_0 - theta*| <= 2^-53 |theta*| the T-step iterate agrees
with theta* to rounding, and the map returns theta* without taking the
power. Any other case runs the iterative loop. Both report the nominal
T * n point-gradients.

``map_many`` takes the same map on a stack of equal-sized problems at
once, by the same certificate and to the same bytes, and leaves the
problems it cannot certify to ``pgd``; the distributed chain sends all
its touched partitions through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .losses import LossModel

__all__ = ["GDConfig", "GDTrace", "pgd", "map_many", "contraction_factor"]

REGIMES = ("strongly_convex_smooth", "convex_smooth")


@dataclass(frozen=True)
class GDConfig:
    """Step size, iteration count and the regime that justifies them."""

    step_size: float
    iterations: int
    regime: str = "strongly_convex_smooth"

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if not self.step_size > 0:
            raise ValueError("step size must be positive")
        if self.iterations < 0:
            raise ValueError("iteration count must be nonnegative")

    @classmethod
    def for_loss(cls, loss: LossModel, iterations: int,
                 regime: str = "strongly_convex_smooth") -> "GDConfig":
        """Pick the canonical step size for ``loss`` in ``regime``."""
        if regime == "strongly_convex_smooth":
            if loss.strong_convexity <= 0:
                raise ValueError("requires strong convexity")
            eta = 2.0 / (loss.smoothness + loss.strong_convexity)
        else:
            eta = 1.0 / loss.smoothness
        return cls(step_size=eta, iterations=iterations, regime=regime)


@dataclass(frozen=True)
class GDTrace:
    """Final iterate plus the point-gradient work it cost.

    ``gradient_evaluations`` counts one unit per data point per
    iteration: T iterations on n points cost T * n.
    """

    theta: np.ndarray
    gradient_evaluations: int


def pgd(loss: LossModel, data: Dataset, theta0, config: GDConfig) -> GDTrace:
    """Run projected gradient descent and return the final iterate.

    Deterministic: same inputs, same float operations, same output.
    The start point may lie outside the ball (warm starts from noisy
    published parameters do); every iterate from the first step on is
    feasible, and the contraction guarantee is unaffected because the
    shipped losses satisfy their regularity bounds on all of R^d.

    When the regime is strongly convex, ``loss.quadratic`` gives (H, g),
    T >= d and the ball certificate |theta*| + rho |theta_0 - theta*|
    <= r (1 - 1e-9) holds with rho < 1 (see the module docstring), the
    T steps are taken at once as theta* + (I - eta H)^T (theta_0 -
    theta*); this agrees with the loop to rounding, since the loop's
    projections would all be identities. T >= d because only from
    about there on does the loop's T d^2 reach the map's d^3 log T.
    Otherwise the loop runs. Either way the trace counts T * n
    point-gradients.
    """
    if data.size == 0:
        raise ValueError("empty dataset")
    theta = np.asarray(theta0, dtype=float).copy()
    if theta.shape != (data.dim,):
        raise ValueError("start point has wrong dimension")
    evaluations = config.iterations * data.size
    if config.regime == "strongly_convex_smooth" and \
            config.iterations >= data.dim:
        mapped = _unprojected_map(loss, data, theta, config)
        if mapped is not None:
            return GDTrace(theta=mapped, gradient_evaluations=evaluations)
    space = loss.space
    for _ in range(config.iterations):
        grad = loss.empirical_gradient(data, theta)
        theta = space.project(theta - config.step_size * grad)
    return GDTrace(theta=theta, gradient_evaluations=evaluations)


def _unprojected_map(loss: LossModel, data: Dataset, theta0,
                     config: GDConfig):
    """T quadratic steps in closed form; None unless the ball cannot bind."""
    quad = loss.quadratic(data)
    if quad is None:
        return None
    hessian, rhs = quad
    rho = _contraction(loss, config.step_size, np.trace(hessian), data.dim)
    try:
        star = np.linalg.solve(hessian, rhs)
    except np.linalg.LinAlgError:
        return None
    size, gap = np.linalg.norm(star), np.linalg.norm(theta0 - star)
    if not _certified(rho, size, gap, loss.space.radius):
        return None
    if _converged(rho, config.iterations, gap, size):
        return star
    step = np.eye(data.dim) - config.step_size * hessian
    return star + np.linalg.matrix_power(step, config.iterations) \
        @ (theta0 - star)


def map_many(loss: LossModel, features, labels, theta0, step_size: float,
             iterations):
    """``pgd``'s closed-form map on P equal-sized problems at once.

    Problem p descends from ``theta0[p]`` for ``iterations[p]`` (an int)
    steps of ``step_size``, the strongly convex regime's, on the rows
    ``features[p]``, ``labels[p]``. Returns the (P, d) iterates and a
    (P,) mask of the problems mapped. A problem is mapped exactly when
    ``pgd`` would map it, by the same certificate, and then to the same
    bytes; the caller runs ``pgd`` on the rest. Nothing is mapped unless
    the loss is ridge-family.
    """
    count, size, dim = features.shape
    out = np.empty((count, dim))
    mapped = np.zeros(count, dtype=bool)
    if loss.ridge_lam is None or count == 0:
        return out, mapped
    # Each problem's normal equations, as ``loss.quadratic`` builds them.
    rows_t = features.transpose(0, 2, 1)
    hessian = rows_t @ features / size
    hessian.reshape(count, -1)[:, ::dim + 1] += loss.ridge_lam
    rhs = (rows_t @ labels[:, :, None])[:, :, 0] / size
    try:
        star = np.linalg.solve(hessian, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        return out, mapped
    diff = theta0 - star
    norm, gap = (np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0]).tolist()
                 for v in (star, diff))
    traces = hessian.trace(axis1=1, axis2=2).tolist()
    powered = {}
    for p, steps in enumerate(iterations):
        rho = _contraction(loss, step_size, traces[p], dim)
        if steps >= dim and _certified(rho, norm[p], gap[p],
                                       loss.space.radius):
            mapped[p] = True
            if not _converged(rho, steps, gap[p], norm[p]):
                powered.setdefault(steps, []).append(p)
    out[mapped] = star[mapped]
    for steps, group in powered.items():
        step = np.eye(dim) - step_size * hessian[group]
        out[group] += (np.linalg.matrix_power(step, steps)
                       @ diff[group][:, :, None])[:, :, 0]
    return out, mapped


def _contraction(loss: LossModel, step_size: float, trace: float,
                 dim: int) -> float:
    """rho, the most one unprojected step of ``step_size`` can stretch
    theta - theta*, from m and the trace of H (see the module
    docstring)."""
    m = loss.strong_convexity
    return max(abs(1.0 - step_size * m),
               abs(1.0 - step_size * (trace - (dim - 1) * m)))


def _certified(rho: float, size: float, gap: float, radius: float) -> bool:
    """Whether no unprojected step can leave the ball: rho < 1 and
    |theta*| + rho |theta_0 - theta*| <= r (1 - 1e-9)."""
    return rho < 1.0 and size + rho * gap <= radius * (1.0 - 1e-9)


def _converged(rho: float, iterations: int, gap: float, size: float) -> bool:
    """Whether rho^T gap <= 2^-53 size: the T-step iterate then agrees
    with theta* to rounding. Compared in logs, as rho^T may underflow."""
    if gap == 0.0 or rho == 0.0:
        return True
    return size > 0.0 and iterations * math.log(rho) + math.log(gap) \
        <= math.log(size) - 53.0 * math.log(2.0)


def contraction_factor(loss: LossModel) -> float:
    """Per-iteration contraction gamma = (M-m)/(M+m); needs m > 0."""
    m, big = loss.strong_convexity, loss.smoothness
    if m <= 0:
        raise ValueError("requires strong convexity")
    if big < m:
        raise ValueError("smoothness below strong convexity")
    return (big - m) / (big + m)
