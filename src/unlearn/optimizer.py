"""Projected gradient descent on empirical losses.

For an m-strongly-convex, M-smooth objective the step size 2/(M+m)
contracts the distance to the constrained minimizer by
gamma = (M-m)/(M+m) per iteration. For merely convex M-smooth
objectives the step size 1/M gives the usual M |theta_0 - theta*|^2 / (2T)
bound on the objective gap.

Quadratic losses (ridge, and ridge plus added quadratics) have gradient
H theta - g, so an unprojected step is the affine map
theta -> A theta + c with A = I - eta H and c = eta g, or equally
theta -> theta* + A (theta - theta*) with theta* = H^-1 g. The
eigenvalues of H lie in [m, tr H - (d-1) m], so A stretches no vector
by more than rho = max(|1 - eta m|, |1 - eta (tr H - (d-1) m)|). In the
strongly convex regime ``pgd`` takes T such steps at once, without a
gradient call, whenever rho < 1 and a certificate proves that no
iterate after the start leaves the ball, so that no projection would
act. T against d picks the path, as the loop costs T d^2 flops (every
loop gradient comes from the data's moments, see ``Dataset.moments``):

- T >= d: ``map_many``, the one closed-form map of T steps, takes a
  stack of normal-equation systems (H, g), as
  ``losses.normal_equations`` builds them. A warm start is solved for
  theta* (``solve_many``) and mapped as
  theta_T = theta* + A^T (theta_0 - theta*), the matrix power taken by
  repeated squaring, d^3 log T flops, which pays from about T = d on.
  Its certificate is |theta*| + rho |theta_0 - theta*| <= r (1 - 1e-9):
  every iterate lies within rho |theta_0 - theta*| of theta*. Once
  rho^T |theta_0 - theta*| <= 2^-53 |theta*| the T-step iterate agrees
  with theta* to rounding, and the map returns theta* without taking
  the power.
- T >= d from the origin (learn, a retrain): |theta_0 - theta*| =
  |theta*|, so that test reduces to rho^T <= 2^-53 and is decided
  before any solve. A converged descent is solved and returns theta*
  as above. Any other is not solved: ``_lifted_map`` reads theta_T off
  the last column of B^T for the lifted step B = [[A, c], [0, 1]], as
  B^k (0, 1) = (theta_k, 1), the power again by repeated squaring,
  under the short map's certificate below, which needs no theta*.
- 0 < T < d: the T steps theta <- A theta + c, with (A, c) read from the
  moments by ``loss.affine_step``, two matrix-vector operations a step
  and no system solved. Its certificate needs no theta*: with
  R = max(|theta_0|, |c| / (1 - rho)) <= r (1 - 1e-9), induction gives
  |theta_{k+1}| <= rho |theta_k| + |c| <= rho R + (1 - rho) R = R, so
  every iterate stays within R of the origin.

``pgd`` sends its own long descents to ``map_many`` as a stack of one,
built by ``loss.quadratic``; the distributed chain sends the systems of
its touched ridge-family partitions a block at a time. So both take the
same map, by the same certificate, to the same bytes. A caller that
already holds theta*, as the harness's oracles do, calls
``map_solved``, the same map with no solve. Any descent neither path
certifies (a start outside the ball, a NaN start, a binding ball, a
step too long to contract, the convex regime, a loss that is not
quadratic) runs ``pgd``'s iterative loop. All report the nominal
T * n point-gradients.
"""

from __future__ import annotations

import math
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
    without a gradient call when its certificate holds (see the module
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
    """The T steps as theta <- A theta + c, or None where the
    certificate max(|theta_0|, |c| / (1 - rho)) <= r (1 - 1e-9) fails or
    the loss is not quadratic."""
    affine = loss.affine_step(data, config.step_size)
    if affine is None:
        return None
    step, shift = affine
    eta, dim = config.step_size, data.dim
    # tr A = d - eta tr H.
    rho = _stretch(eta, loss.strong_convexity, (dim - step.trace()) / eta,
                   dim)
    limit = loss.space.radius * (1.0 - 1e-9)
    # Written so that a NaN start fails the test too.
    if not (rho < 1.0 and _norm(theta) <= limit
            and _norm(shift) <= (1.0 - rho) * limit):
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


def map_many(loss: LossModel, hessian, rhs, theta0, step_size: float,
             iterations):
    """The closed-form map of T quadratic steps, on P problems at once.

    Problem p has gradient ``hessian[p] theta - rhs[p]`` (a (P, d, d)
    and a (P, d) stack, as ``losses.normal_equations`` builds them) and
    descends from ``theta0[p]`` for ``iterations[p]`` (an int) steps of
    ``step_size``, the strongly convex regime's. Returns a (P, d) array
    and a (P,) mask of the problems mapped, those with T >= d whose
    certificate holds; a row of the array is the problem's T-step
    iterate where the mask is set, and the caller runs ``pgd``, told the
    map ``refused``, on the rest. ``pgd`` maps its own T >= d descents
    here as a stack of one, so a stacked problem is mapped exactly when
    ``pgd`` maps it alone, and then to the same bytes.

    A descent is solved for theta* (``solve_many``) and mapped to
    theta* + A^T (theta_0 - theta*) under the certificate
    |theta*| + rho |theta_0 - theta*| <= r (1 - 1e-9), or to theta*
    itself once rho^T |theta_0 - theta*| <= 2^-53 |theta*|. From the
    origin |theta_0 - theta*| = |theta*|, so that test reduces to
    rho^T <= 2^-53 and is decided before any solve: a converged descent
    is solved as above, and any other is mapped by ``_lifted_map``,
    which needs no theta*, so a stack of them solves nothing. Nor is a
    descent shorter than d solved, as it is not mapped. A caller that
    already holds theta* calls ``map_solved``.
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
    """``map_many``'s map and certificate, given theta* = ``star``, the
    (P, d) ``solve_many`` of the stack, so nothing is solved again.

    Takes the from-origin rule ``map_many`` takes, to its bytes, which
    is why the stack's ``rhs`` is passed too. Returns ``star`` and the
    mask: each mapped row that has not converged is overwritten in place
    by its T-step iterate, so a caller that needs theta* afterwards
    passes a copy.
    """
    return _map(loss, hessian, rhs, star, theta0, step_size, iterations)


def _map(loss: LossModel, hessian, rhs, star, theta0, step_size: float,
         iterations):
    # ``map_many`` when ``star`` is None, else ``map_solved``.
    count, dim = rhs.shape
    m, limit = loss.strong_convexity, loss.space.radius * (1.0 - 1e-9)
    rhos = [_stretch(step_size, m, trace, dim)
            for trace in hessian.trace(axis1=1, axis2=2).tolist()]
    # The rows that need theta* and those lifted. Warm starts have
    # (almost surely) no zero coordinate, so one count passes a stack of
    # them, and if none is shorter than d the whole stack needs theta*.
    solved, lifted = range(count), []
    nonzero = np.count_nonzero(theta0)
    if nonzero < theta0.size or min(iterations) < dim:
        origin = [not nonzero] * count if nonzero in (0, theta0.size) \
            else (~theta0.any(axis=1)).tolist()
        solved = []
        for p, steps in enumerate(iterations):
            # From the origin unconverged while rho^T > 2^-53 (an
            # underflow is converged; a rho of 1 or more counts, and the
            # lifted certificate refuses it). A descent shorter than d is
            # not mapped, so it is not solved either.
            if steps >= dim:
                (lifted if origin[p] and (
                    rhos[p] >= 1.0 or rhos[p] ** steps > 2.0 ** -53)
                 else solved).append(p)
    mapped = np.zeros(count, dtype=bool)
    if star is None:
        if len(solved) == count:
            star = solve_many(hessian, rhs)
            if star is None:
                return np.empty(rhs.shape), mapped
        else:
            # The rows not solved are not mapped below.
            part = solve_many(hessian[solved], rhs[solved]) if solved \
                else None
            star = np.zeros((count, dim))
            if part is None:
                solved = []
            else:
                star[solved] = part
    diff = theta0 - star
    # From the origin alone |theta_0 - theta*| = |theta*|: one norm each.
    pair = np.array((star, diff)) if nonzero else star[None]
    norms = np.sqrt((pair[..., None, :] @ pair[..., None])[..., 0, 0]
                    ).tolist()
    sizes, gaps = norms[0], norms[-1]
    powered = {}
    for p in solved:
        steps, rho, size, gap = iterations[p], rhos[p], sizes[p], gaps[p]
        if steps < dim or not (rho < 1.0 and size + rho * gap <= limit):
            continue
        mapped[p] = True
        # Converged once rho^T gap <= 2^-53 |theta*|: the T-step iterate
        # is theta* to rounding. Compared in logs, as rho^T may underflow.
        if gap != 0.0 and rho != 0.0 and not (
                size > 0.0 and steps * math.log(rho) + math.log(gap)
                <= math.log(size) - 53.0 * math.log(2.0)):
            powered.setdefault(steps, []).append(p)
    for steps, group in powered.items():
        # A group of the whole stack is indexed by views, not copies.
        group = group if len(group) < count else slice(None)
        step = np.eye(dim) - step_size * hessian[group]
        star[group] += (np.linalg.matrix_power(step, steps)
                        @ diff[group][:, :, None])[:, :, 0]
    if lifted:
        _lifted_map(loss, hessian, rhs, step_size, iterations, rhos, lifted,
                    star, mapped)
    return star, mapped


def _lifted_map(loss: LossModel, hessian, rhs, step_size: float, iterations,
                rhos, rows, out, mapped):
    """Map the descents ``rows`` of the stack, each from the origin, with
    stretches ``rhos``: set ``mapped[p]`` where the certificate holds and
    write the T-step iterate to ``out[p]``. It is read off the last
    column of B^T for the lifted step B = [[A, c], [0, 1]], A = I - eta H
    and c = eta g, as B^k (0, 1) = (theta_k, 1); the power is taken by
    repeated squaring, d^3 log T flops and no solve. The certificate is
    ``_short_map``'s, which needs no theta*: rho < 1 and
    |c| / (1 - rho) <= r (1 - 1e-9)."""
    count, dim = rhs.shape
    shift = rhs * step_size
    norms = np.sqrt((shift[:, None, :] @ shift[:, :, None])[:, 0, 0]
                    ).tolist()
    limit = loss.space.radius * (1.0 - 1e-9)
    groups = {}
    for p in rows:
        if rhos[p] < 1.0 and norms[p] <= (1.0 - rhos[p]) * limit:
            mapped[p] = True
            groups.setdefault(iterations[p], []).append(p)
    for steps, group in groups.items():
        size = len(group)
        # A group of the whole stack is indexed by views, not copies.
        group = group if size < count else slice(None)
        power = np.zeros((size, dim + 1, dim + 1))
        np.multiply(hessian[group], -step_size, out=power[:, :dim, :dim])
        # 1 on the whole diagonal: I - eta H, and B's corner.
        power.reshape(size, -1)[:, ::dim + 2] += 1.0
        power[:, :dim, dim] = shift[group]
        # B^T (0, 1), with B^(2^k) applied for each bit k set in T; the
        # first is B^(2^k) (0, 1), B^(2^k)'s last column.
        column = None
        while True:
            steps, bit = divmod(steps, 2)
            if bit:
                column = power[:, :, dim] if column is None else \
                    (power @ column[:, :, None])[:, :, 0]
            if not steps:
                break
            power = power @ power
        out[group] = column[:, :dim]


def contraction_factor(loss: LossModel) -> float:
    """Per-iteration contraction gamma = (M-m)/(M+m); needs m > 0."""
    m, big = loss.strong_convexity, loss.smoothness
    if m <= 0:
        raise ValueError("requires strong convexity")
    if big < m:
        raise ValueError("smoothness below strong convexity")
    return (big - m) / (big + m)
