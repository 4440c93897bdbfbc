"""Projected gradient descent on empirical losses.

For an m-strongly-convex, M-smooth objective the step size 2/(M+m)
contracts the distance to the constrained minimizer by
gamma = (M-m)/(M+m) per iteration. For merely convex M-smooth
objectives the step size 1/M gives the usual M |theta_0 - theta*|^2 / (2T)
bound on the objective gap.

Quadratic losses (ridge, and ridge plus added quadratics) have gradient
H theta - g, so an unprojected step is the affine map
theta -> A theta + c with A = I - eta H and c = eta g. The eigenvalues
of H lie in [m, tr H - (d-1) m], so A stretches no vector by more than
rho = max(|1 - eta m|, |1 - eta (tr H - (d-1) m)|). In the strongly
convex regime ``pgd`` takes T such steps at once, without a gradient
call, whenever one certificate, which needs no theta* = H^-1 g, proves
that no iterate after the start leaves the ball, so that no projection
would act: rho < 1 and
R = max(rho |theta_0| + |c|, |c| / (1 - rho)) <= r (1 - 1e-9). Then
|theta_1| <= rho |theta_0| + |c| <= R, and by induction
|theta_{k+1}| <= rho |theta_k| + |c| <= rho R + (1 - rho) R = R. A start
outside the ball passes when its first step lands inside. T against d
picks the path, as the loop costs T d^2 flops (every loop gradient
comes from the data's moments, see ``Dataset.moments``):

- T >= d: ``map_many``, the one closed-form map of T steps, takes a
  stack of normal-equation systems (H, g), as
  ``losses.normal_equations`` builds them. I - A = eta H has
  eigenvalues in [1 - rho, 1 + rho], so |theta*| lies in
  [|c| / (1 + rho), |c| / (1 - rho)], and |theta_T - theta*| is at most
  rho^T (|theta_0| + |c| / (1 - rho)). Once that is at most
  2^-53 |c| / (1 + rho), the T-step iterate agrees with theta* to
  rounding: the descent has converged, and the map returns theta*, from
  one ``solve_many`` over the converged descents alone. Any other is
  read off B^T (theta_0, 1) = (theta_T, 1) for the lifted step
  B = [[A, c], [0, 1]], the power taken by repeated squaring,
  d^3 log T flops and no solve, which pays from about T = d on.
- 0 < T < d: the T steps theta <- A theta + c, with (A, c) read from the
  moments by ``loss.affine_step``, two matrix-vector operations a step
  and no system built or solved.

``pgd`` sends its own long descents to ``map_many`` as a stack of one,
built by ``loss.quadratic``; the distributed chain sends the systems of
its touched ridge-family partitions a block at a time. So both take the
same map, by the same certificate, to the same bytes. A caller that
already holds theta*, as the harness's oracles do, calls
``map_solved``, the same map with no solve. Any descent neither path
certifies (a start too far outside the ball, a NaN start, a binding
ball, a step too long to contract, the convex regime, a loss that is
not quadratic) runs ``pgd``'s iterative loop. All report the nominal
T * n point-gradients.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .data import Dataset, _norm, check_integer
from .losses import LossModel

__all__ = ["GDConfig", "GDTrace", "pgd", "map_many", "solve_many",
           "map_solved", "contraction_factor"]

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
        if not 0 < self.step_size < math.inf:
            raise ValueError("step size must be positive and finite")
        check_integer(self.iterations, "iteration count")
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


def pgd(loss: LossModel, data: Dataset, theta0, config: GDConfig, *,
        refused: bool = False) -> GDTrace:
    """Run projected gradient descent and return the final iterate.

    Deterministic: same inputs, same float operations, same output.
    The start point may lie outside the ball (warm starts from noisy
    published parameters do); every iterate from the first step on is
    feasible, and the contraction guarantee is unaffected because the
    shipped losses satisfy their regularity bounds on all of R^d.

    In the strongly convex regime a quadratic loss's descent is taken
    without a gradient call when the certificate holds (see the module
    docstring): with T >= d, ``loss.quadratic`` gives (H, g) and the
    problem goes to ``map_many`` as a stack of one; with 0 < T < d,
    ``loss.affine_step`` gives (A, c) and the T steps run as
    theta <- A theta + c. Either agrees with the loop to rounding, since
    the loop's projections would all be identities. T is compared with
    d first, so a short descent builds no system and a long one no
    (A, c). ``refused`` says the caller's ``map_many`` has already
    refused this very descent, as the distributed chain's does for the
    partitions it cannot map, so it is not tried again. Otherwise the
    loop runs. Either way the trace counts T * n point-gradients.
    """
    if data.size == 0:
        raise ValueError("empty dataset")
    theta = np.asarray(theta0, dtype=float).copy()
    if theta.shape != (data.dim,):
        raise ValueError("start point has wrong dimension")
    evaluations = config.iterations * data.size
    out = None
    if config.regime == "strongly_convex_smooth":
        if 0 < config.iterations < data.dim:
            out = _short_map(loss, data, theta, config)
        elif config.iterations >= data.dim and not refused:
            out = _long_map(loss, data, theta, config)
    if out is not None:
        return GDTrace(theta=out, gradient_evaluations=evaluations)
    space = loss.space
    for _ in range(config.iterations):
        grad = loss.empirical_gradient(data, theta)
        theta = space.project(theta - config.step_size * grad)
    return GDTrace(theta=theta, gradient_evaluations=evaluations)


def _long_map(loss: LossModel, data: Dataset, theta, config: GDConfig):
    """``map_many``'s T-step iterate of this one descent, or None where
    it refuses or the loss is not quadratic."""
    quad = loss.quadratic(data)
    if quad is None:
        return None
    out, mapped = map_many(loss, quad[0][None], quad[1][None], theta[None],
                           config.step_size, (config.iterations,))
    return out[0] if mapped[0] else None


def _short_map(loss: LossModel, data: Dataset, theta, config: GDConfig):
    """The T steps as theta <- A theta + c, or None where the certificate
    fails or the loss is not quadratic."""
    affine = loss.affine_step(data, config.step_size)
    if affine is None:
        return None
    step, shift = affine
    eta, dim = config.step_size, data.dim
    # tr A = d - eta tr H.
    rho = _stretch(eta, loss.strong_convexity, (dim - step.trace()) / eta,
                   dim)
    if not _certified(rho, _norm(theta), _norm(shift), loss.space.radius):
        return None
    for _ in range(config.iterations):
        # ndarray.dot: the same product as @, with less dispatch.
        theta = step.dot(theta) + shift
    return theta


def _stretch(step_size: float, m: float, trace: float, dim: int) -> float:
    # rho: the most one step I - eta H can stretch a vector, as the
    # eigenvalues of H lie in [m, tr H - (d-1) m].
    return max(abs(1.0 - step_size * m),
               abs(1.0 - step_size * (trace - (dim - 1) * m)))


def _certified(rho: float, start: float, shift: float, radius: float):
    # rho < 1 and max(rho |theta_0| + |c|, |c| / (1 - rho)) <= r (1 - 1e-9),
    # written so that a NaN fails.
    limit = radius * (1.0 - 1e-9)
    return rho < 1.0 and rho * start + shift <= limit \
        and shift <= (1.0 - rho) * limit


def map_many(loss: LossModel, hessian, rhs, theta0, step_size: float,
             iterations):
    """The closed-form map of T quadratic steps, on P problems at once.

    Problem p has gradient ``hessian[p] theta - rhs[p]`` (a (P, d, d)
    and a (P, d) stack, as ``losses.normal_equations`` builds them) and
    descends from ``theta0[p]`` for ``iterations[p]`` (an int) steps of
    ``step_size``, the strongly convex regime's. Returns a fresh (P, d)
    array and a (P,) mask of the problems mapped, those with T >= d
    whose certificate holds; a row of the array is the problem's T-step
    iterate where the mask is set, and the caller runs ``pgd``, told the
    map ``refused``, on the rest. ``pgd`` maps its own T >= d descents
    here as a stack of one, so a stacked problem is mapped exactly when
    ``pgd`` maps it alone, and then to the same bytes.

    Neither the certificate nor the convergence test needs theta* (see
    the module docstring). A converged problem is mapped to theta*, and
    only the converged problems are solved, in one ``solve_many``; any
    other mapped problem, warm or from the origin, is mapped by the
    lifted power. A caller that already holds theta* calls
    ``map_solved``.
    """
    return _map(loss, hessian, rhs, None, theta0, step_size, iterations)


def solve_many(hessian, rhs):
    """theta* = H^-1 g of each system of the stack, a (P, d) array, in one
    ``np.linalg.solve``; None if a matrix of the stack is singular."""
    try:
        return np.linalg.solve(hessian, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        return None


def map_solved(loss: LossModel, hessian, star, theta0, step_size: float,
               iterations, rhs):
    """``map_many``'s map, given theta* = ``star``, the (P, d)
    ``solve_many`` of the stack, so nothing is solved: a converged
    problem is mapped to its row of ``star``, to ``map_many``'s bytes.
    The stack's ``rhs`` gives c = eta g. ``star`` is not written."""
    return _map(loss, hessian, rhs, star, theta0, step_size, iterations)


def _map(loss: LossModel, hessian, rhs, star, theta0, step_size: float,
         iterations):
    # ``map_many`` when ``star`` is None, else ``map_solved``.
    count, dim = rhs.shape
    m, radius = loss.strong_convexity, loss.space.radius
    pair = np.array((theta0, rhs))
    starts, sizes = np.sqrt((pair[..., None, :] @ pair[..., None])
                            [..., 0, 0]).tolist()
    out, mapped = np.empty((count, dim)), np.zeros(count, dtype=bool)
    converged, powered = [], {}
    for p, trace in enumerate(hessian.trace(axis1=1, axis2=2).tolist()):
        steps, start, shift = iterations[p], starts[p], step_size * sizes[p]
        rho = _stretch(step_size, m, trace, dim)
        if steps < dim or not _certified(rho, start, shift, radius):
            continue
        mapped[p] = True
        # Converged once rho^T (|theta_0| + |c| / (1 - rho)) is at most
        # 2^-53 |c| / (1 + rho). A ratio below the least normal float,
        # where rho^T may have underflowed, counts as unconverged.
        ratio = shift and 2.0 ** -53 * shift / (
            (1.0 + rho) * (start + shift / (1.0 - rho)))
        if ratio >= sys.float_info.min and rho ** steps <= ratio:
            converged.append(p)
        else:
            powered.setdefault(steps, []).append(p)
    if converged:
        group = _rows(converged, count)
        solved = solve_many(hessian[group], rhs[group]) if star is None \
            else star[group]
        if solved is None:
            mapped[group] = False
        else:
            out[group] = solved
    for steps, group in powered.items():
        size, group = len(group), _rows(group, count)
        power = np.zeros((size, dim + 1, dim + 1))
        np.multiply(hessian[group], -step_size, out=power[:, :dim, :dim])
        # 1 on the whole diagonal: I - eta H, and B's corner.
        power.reshape(size, -1)[:, ::dim + 2] += 1.0
        np.multiply(rhs[group], step_size, out=power[:, :dim, dim])
        # B^T (theta_0, 1), applying B^(2^k) for each bit k set in T.
        column = np.ones((size, dim + 1, 1))
        column[:, :dim, 0] = theta0[group]
        while True:
            steps, bit = divmod(steps, 2)
            if bit:
                column = power @ column
            if not steps:
                break
            power = power @ power
        out[group] = column[:, :dim, 0]
    return out, mapped


def _rows(group, count):
    # A group of the whole stack is indexed by views, not copies.
    return group if len(group) < count else slice(None)


def contraction_factor(loss: LossModel) -> float:
    """Per-iteration contraction gamma = (M-m)/(M+m); needs m > 0."""
    m, big = loss.strong_convexity, loss.smoothness
    if m <= 0:
        raise ValueError("requires strong convexity")
    if big < m:
        raise ValueError("smoothness below strong convexity")
    return (big - m) / (big + m)
