"""Noisy descent chains that make deletions statistically deniable.

The chain keeps a secret parameter theta_hat and publishes a noised
copy theta_tilde = theta_hat + N(0, sigma^2 I). After each edit the
secret parameter takes a short projected-gradient run on the edited
dataset, warm-started from the previous secret parameter (secret-state
modes) or from the previous published parameter (perfect mode, which
keeps no secret between rounds). The noise scale is calibrated so that
the published sequence is (epsilon, delta)-indistinguishable from a
fresh retrain on the edited data.

Modes:
    strong_secret       strongly convex loss, warm start theta_hat,
                        constant per-update budget.
    strong_perfect      strongly convex loss, warm start theta_tilde,
                        per-update budget grows like log log i.
    regularized_strong  convex loss made strongly convex by an added
                        quadratic chosen from the problem size.
    regularized_weak    like regularized_strong but with a smaller
                        added quadratic and a polynomially growing
                        per-update budget.

All calibration formulas are exposed as plain functions of the
certified constants so they can be checked independently of the chain.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Update, moments_tolerance
from .losses import LossModel, RegularizedLoss
from .optimizer import GDConfig, GDTrace, contraction_factor, pgd
from .rng import substream

logger = logging.getLogger(__name__)

__all__ = [
    "MODES",
    "UnlearnConfig",
    "ResolvedSchedule",
    "UnlearnState",
    "learn",
    "unlearn",
    "publish",
    "fresh_mean",
    "sigma_strong",
    "sigma_perfect",
    "perfect_iters_floor",
    "regularized_strong_params",
    "weak_params",
    "weak_schedule",
    "gaussian_mechanism_epsilon",
    "gaussian_tail_radius",
    "sensitivity_bound",
    "drift_bound",
    "mean_gap_bound",
    "perfect_drift_bound",
]

MODES = ("strong_secret", "strong_perfect", "regularized_strong",
         "regularized_weak")

SNAPSHOT_FORMAT = "unlearn-state/5"

_DIGEST_ROWS = 1024  # rows hashed per block by ``_rows_digest``


def _check_privacy(epsilon: float, delta: float):
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if epsilon > math.log(1.0 / delta) * (1 + 1e-12):
        raise ValueError("epsilon must not exceed log(1/delta)")


def _sqrt_gap(a: float, b: float) -> float:
    # sqrt(a) - sqrt(b) for a >= b >= 0, stable when a ~ b.
    return (a - b) / (math.sqrt(a) + math.sqrt(b))


def _check_contraction(gamma: float):
    if not 0 < gamma < 1:
        raise ValueError("contraction factor must be in (0, 1)")


def gaussian_mechanism_epsilon(gap: float, sigma: float, delta: float) -> float:
    """Privacy of releasing v + N(0, sigma^2 I) when v moves by ``gap``.

    Returns gap^2 / (2 sigma^2) + (gap / sigma) sqrt(2 log(1/delta)).
    """
    if gap < 0:
        raise ValueError("gap must be nonnegative")
    if not sigma > 0:
        raise ValueError("noise scale must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    ratio = gap / sigma
    return 0.5 * ratio * ratio + ratio * math.sqrt(2.0 * math.log(1.0 / delta))


def gaussian_tail_radius(sigma: float, dim: int, beta: float) -> float:
    """Radius containing N(0, sigma^2 I_d) except with probability beta."""
    if not 0 < beta < 1:
        raise ValueError("beta must be in (0, 1)")
    return sigma * math.sqrt(2.0 * dim) * math.log(2.0 * dim / beta)


def sensitivity_bound(lipschitz: float, strong_convexity: float,
                      n: int) -> float:
    """Worst-case minimizer movement under one add or delete: 2L/(mn)."""
    if strong_convexity <= 0:
        raise ValueError("requires strong convexity")
    if n < 1:
        raise ValueError("n must be positive")
    return 2.0 * lipschitz / (strong_convexity * n)


def drift_bound(lipschitz: float, strong_convexity: float, gamma: float,
                n: int, iters: int) -> float:
    """Steady bound on |theta_hat_i - theta*_i| for secret-state chains."""
    _check_contraction(gamma)
    g = gamma ** iters
    return (4.0 * lipschitz / (strong_convexity * n)) * g / (1.0 - g)


def mean_gap_bound(lipschitz: float, strong_convexity: float, gamma: float,
                   n: int, iters: int) -> float:
    """Bound on the retrain-vs-unlearn mean gap: twice the drift bound."""
    return 2.0 * drift_bound(lipschitz, strong_convexity, gamma, n, iters)


def perfect_drift_bound(lipschitz: float, strong_convexity: float,
                        gamma: float, n: int, iters: int, sigma: float,
                        dim: int) -> float:
    """High-probability drift bound when warm starts are noisy."""
    _check_contraction(gamma)
    g = gamma ** iters
    return g / (1.0 - g) * (
        4.0 * lipschitz / (strong_convexity * n)
        + sigma * math.sqrt(2.0 * dim)
    )


def sigma_strong(lipschitz: float, strong_convexity: float, gamma: float,
                 n: int, iters: int, epsilon: float, delta: float) -> float:
    """Noise scale for the constant-budget secret-state chain.

    sigma = 4 sqrt(2) L gamma^I / (m n (1 - gamma^I)
            (sqrt(log(1/delta) + epsilon) - sqrt(log(1/delta)))).
    """
    _check_privacy(epsilon, delta)
    _check_contraction(gamma)
    if strong_convexity <= 0:
        raise ValueError("requires strong convexity")
    if iters < 1:
        raise ValueError("iteration budget must be at least 1")
    g = gamma ** iters
    logd = math.log(1.0 / delta)
    c = _sqrt_gap(logd + epsilon, logd)
    return 4.0 * math.sqrt(2.0) * lipschitz * g / (
        strong_convexity * n * (1.0 - g) * c
    )


def perfect_iters_floor(gamma: float, dim: int, epsilon: float,
                        delta: float) -> float:
    """Smallest per-update budget admissible in perfect mode.

    Noisy warm starts are only tolerable when each run contracts away
    the injected noise; that requires
    I >= log(sqrt(2d) (1-gamma)^-1 / (sqrt(2 log(2/delta) + epsilon)
         - sqrt(2 log(2/delta)))) / log(1/gamma).
    """
    _check_privacy(epsilon, delta)
    _check_contraction(gamma)
    b2 = 2.0 * math.log(2.0 / delta)
    c = _sqrt_gap(b2 + epsilon, b2)
    return math.log(math.sqrt(2.0 * dim) / ((1.0 - gamma) * c)) \
        / math.log(1.0 / gamma)


def sigma_perfect(lipschitz: float, strong_convexity: float, gamma: float,
                  n: int, dim: int, iters: int, epsilon: float,
                  delta: float) -> float:
    """Noise scale for the perfect (no secret state) chain.

    sigma = 8 L gamma^I (1 - gamma^I)^-1 / (m n
            (sqrt(2 log(2/delta) + 3 epsilon)
             - sqrt(2 log(2/delta) + 2 epsilon))).
    """
    _check_privacy(epsilon, delta)
    _check_contraction(gamma)
    if strong_convexity <= 0:
        raise ValueError("requires strong convexity")
    if iters < perfect_iters_floor(gamma, dim, epsilon, delta):
        raise ValueError("insufficient iterations for perfect mode")
    g = gamma ** iters
    b2 = 2.0 * math.log(2.0 / delta)
    c = _sqrt_gap(b2 + 3.0 * epsilon, b2 + 2.0 * epsilon)
    return 8.0 * lipschitz * g / ((1.0 - g) * strong_convexity * n * c)


def regularized_strong_params(lipschitz: float, smoothness: float,
                              diameter: float, n: int, dim: int, iters: int,
                              epsilon: float, delta: float) -> tuple:
    """Added quadratic and noise scale for convex losses, constant budget.

    m_reg = (L M^(3/2) sqrt(d log(1/delta)) / (D epsilon n I))^(2/5),
    then the strong-mode noise scale with the regularized constants
    (L + m_reg D, m_reg) and contraction M / (M + 2 m_reg).
    """
    _check_privacy(epsilon, delta)
    if iters < 1:
        raise ValueError("iteration budget must be at least 1")
    m_reg = (
        lipschitz * smoothness ** 1.5 * math.sqrt(dim * math.log(1.0 / delta))
        / (diameter * epsilon * n * iters)
    ) ** 0.4
    gamma = smoothness / (smoothness + 2.0 * m_reg)
    sigma = sigma_strong(lipschitz + m_reg * diameter, m_reg, gamma, n,
                         iters, epsilon, delta)
    return m_reg, sigma


def weak_params(lipschitz: float, smoothness: float, diameter: float,
                n: int, dim: int, iters: int, epsilon: float, delta: float,
                schedule_exponent: float = 1.0) -> tuple:
    """Added quadratic and noise scale for the growing-budget chain.

    For growth exponent xi >= 1 (update i runs i^(2 xi) I iterations):

    m_reg = (L^2 M^((1+xi)/xi) d log(1/delta)
             / (D^2 epsilon^2 n^2 I^(1/xi)))^(xi/(3 xi + 1))
    sigma = 2 sqrt(2) M^(1/(2 xi)) (L + m_reg D)
            / (m_reg (m_reg I)^(1/(2 xi)) n
               (sqrt(log(1/delta) + epsilon) - sqrt(log(1/delta))))

    At xi = 1 these reduce to
    m_reg = sqrt(L M sqrt(d log(1/delta)) / (D epsilon n sqrt(I))).
    """
    _check_privacy(epsilon, delta)
    if not 1 <= schedule_exponent < math.inf:
        raise ValueError("schedule exponent must lie in [1, inf)")
    if iters < 1:
        raise ValueError("iteration budget must be at least 1")
    xi = float(schedule_exponent)
    logd = math.log(1.0 / delta)
    m_reg = (
        lipschitz ** 2 * smoothness ** ((1.0 + xi) / xi) * dim * logd
        / (diameter ** 2 * epsilon ** 2 * n ** 2 * iters ** (1.0 / xi))
    ) ** (xi / (3.0 * xi + 1.0))
    c = _sqrt_gap(logd + epsilon, logd)
    sigma = (
        2.0 * math.sqrt(2.0) * smoothness ** (1.0 / (2.0 * xi))
        * (lipschitz + m_reg * diameter)
        / (m_reg * (m_reg * iters) ** (1.0 / (2.0 * xi)) * n * c)
    )
    return m_reg, sigma


def weak_schedule(i: int, iters: int, schedule_exponent: float = 1.0) -> int:
    """Per-update budget for the growing-budget chain: ceil(i^(2 xi) I)."""
    if i < 1:
        raise ValueError("round index must be at least 1")
    if not 1 <= schedule_exponent < math.inf:
        raise ValueError("schedule exponent must lie in [1, inf)")
    two_xi = 2.0 * float(schedule_exponent)
    if two_xi.is_integer():
        return int(i) ** int(two_xi) * int(iters)
    return math.ceil(float(i) ** two_xi * iters)


@dataclass(frozen=True)
class UnlearnConfig:
    """Mode and privacy budget for a deletion chain.

    Attributes:
        mode: one of :data:`MODES`.
        epsilon, delta: indistinguishability budget; epsilon may not
            exceed log(1/delta), where the calibration constants hold.
        iters: base per-update iteration budget I.
        schedule_exponent: growth exponent for regularized_weak.
    """

    mode: str
    epsilon: float
    delta: float
    iters: int
    schedule_exponent: float = 1.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        _check_privacy(self.epsilon, self.delta)
        if self.iters < 1 or int(self.iters) != self.iters:
            raise ValueError("iteration budget must be a positive integer")
        if not 1 <= self.schedule_exponent < math.inf:
            raise ValueError("schedule exponent must lie in [1, inf)")

    def resolve(self, loss: LossModel, n: int, dim: int) -> "ResolvedSchedule":
        """Bind the config to a loss and problem size."""
        return ResolvedSchedule(self, loss, n, dim)


class ResolvedSchedule:
    """Everything the chain needs once loss and problem size are known.

    Attributes:
        effective_loss: the loss actually descended on (the input loss,
            or the input plus the mode's added quadratic).
        eta: descent step size for the effective loss.
        gamma: contraction factor used by the calibration formulas.
        sigma: publication noise scale.
        m_reg: added quadratic coefficient (0 in strong modes).
    """

    def __init__(self, config: UnlearnConfig, loss: LossModel, n: int,
                 dim: int):
        if n < 2:
            raise ValueError("need at least two points")
        self.config = config
        self.loss = loss
        self.n = int(n)
        self.dim = int(dim)
        mode = config.mode
        eps, delta, iters = config.epsilon, config.delta, config.iters
        if mode in ("strong_secret", "strong_perfect"):
            self.m_reg = 0.0
            self.effective_loss = loss
            self.gamma = contraction_factor(loss)
            if mode == "strong_secret":
                self.sigma = sigma_strong(
                    loss.lipschitz, loss.strong_convexity, self.gamma,
                    n, iters, eps, delta)
            else:
                self.sigma = sigma_perfect(
                    loss.lipschitz, loss.strong_convexity, self.gamma,
                    n, dim, iters, eps, delta)
        else:
            diameter = loss.space.diameter
            if mode == "regularized_strong":
                self.m_reg, self.sigma = regularized_strong_params(
                    loss.lipschitz, loss.smoothness, diameter, n, dim,
                    iters, eps, delta)
            else:
                self.m_reg, self.sigma = weak_params(
                    loss.lipschitz, loss.smoothness, diameter, n, dim,
                    iters, eps, delta, config.schedule_exponent)
            self.effective_loss = RegularizedLoss(loss, self.m_reg)
            # Calibration uses the convex-loss contraction M/(M + 2 m_reg);
            # descent on the effective loss can only contract faster.
            self.gamma = loss.smoothness / (loss.smoothness + 2.0 * self.m_reg)
        self.eta = GDConfig.for_loss(self.effective_loss, 1).step_size

    def train_iters(self, n_current: int) -> int:
        """Learning budget T >= I + log(D m n / 2L) / log(1/gamma).

        When D m n < 2 L the additive term is negative (tiny or badly
        scaled problems); the budget then falls back to I and the
        regime is logged.
        """
        arg = self.loss.space.diameter * self.effective_loss.strong_convexity \
            * n_current / (2.0 * self.loss.lipschitz)
        extra = math.log(arg) / math.log(1.0 / self.gamma)
        if extra < 0:
            logger.warning(
                "learning budget floor: D m n < 2 L, using %d iterations",
                self.config.iters)
            extra = 0.0
        return math.ceil(self.config.iters + extra)

    def update_iters(self, i: int) -> int:
        """Budget T_i for update round i >= 1."""
        if i < 1:
            raise ValueError("round index must be at least 1")
        mode = self.config.mode
        if mode in ("strong_secret", "regularized_strong"):
            return self.config.iters
        if mode == "strong_perfect":
            inner = math.log(4.0 * self.dim * i / self.config.delta)
            return self.config.iters + math.ceil(
                math.log(inner) / math.log(1.0 / self.gamma))
        return weak_schedule(i, self.config.iters,
                             self.config.schedule_exponent)


def publish(theta, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Release theta + N(0, sigma^2 I). The output is not re-projected."""
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ValueError("noise scale must be positive and finite")
    theta = np.asarray(theta, dtype=float)
    return theta + sigma * rng.standard_normal(theta.shape)


@dataclass(frozen=True)
class UnlearnState:
    """Chain position after round ``round_index``.

    ``schedule`` is the calibration ``learn`` fixed for the chain.
    ``theta_hat`` is the secret pre-noise parameter; in perfect mode it
    is dropped from snapshots (and is None after a restore) because the
    chain never consumes it across rounds there.
    """

    schedule: ResolvedSchedule
    round_index: int
    theta_hat: np.ndarray | None
    theta_pub: np.ndarray
    data: Dataset
    budget: int
    noise_rng: np.random.Generator

    def snapshot(self) -> dict:
        """Portable state between rounds (see ``_encode_state``), plus the
        mode and, outside perfect mode, the secret parameter."""
        mode = self.schedule.config.mode
        return {
            **_encode_state(SNAPSHOT_FORMAT, self, self.schedule.sigma),
            "mode": mode,
            "theta_hat": (None if mode == "strong_perfect"
                          else [float(v) for v in self.theta_hat]),
        }

    @classmethod
    def restore(cls, snapshot: dict, data: Dataset, loss: LossModel,
                config: UnlearnConfig) -> "UnlearnState":
        """Resume a chain on its rows; the schedule is rebuilt from n_0."""
        shared = _decode_state(SNAPSHOT_FORMAT, snapshot, data, loss)
        mode, theta_hat = _fields(snapshot, "mode", "theta_hat")
        if mode != config.mode:
            raise ValueError(f"snapshot mode {mode!r} does not match the "
                             "config")
        sched = config.resolve(loss, shared["data"].initial_size, data.dim)
        _check_sigma(snapshot, sched.sigma)
        if theta_hat is None and config.mode != "strong_perfect":
            raise ValueError("snapshot lacks the secret parameter")
        return cls(schedule=sched, theta_hat=None if theta_hat is None
                   else _vector(theta_hat, data.dim, "theta_hat"),
                   **shared)


def _restore_moments(snapshot: dict, data: Dataset,
                     loss: LossModel) -> Dataset:
    """``data`` carrying the snapshot's moments, checked against its rows.

    Moments carried by rank-1 updates differ from freshly computed ones
    at rounding level, and a resumed chain must descend on the very
    moments the original would have used, and recompute them from the
    rows at the same edit. So they travel with the snapshot, with the
    count of updates they carry, and are accepted within
    ``moments_tolerance`` of the rows' fresh moments. A ridge-family
    chain carries them from learn on and any other chain never does.
    """
    moments = _fields(snapshot, "moments")[0]
    if (moments is None) != (loss.ridge_lam is None):
        raise ValueError("snapshot moments do not match the loss")
    if moments is None:
        return data
    matrix, carried = _fields(moments, "matrix", "carried")
    matrix, fresh = _array(matrix, "moments.matrix"), data.moments()
    if matrix.shape != fresh.shape:
        raise ValueError("snapshot moments do not match the dataset's "
                         "dimension")
    if type(carried) is not int or not 0 <= carried <= data.size:
        raise ValueError("snapshot moments carry an impossible update count")
    tol = moments_tolerance(data.size, carried, loss.feature_bound,
                            loss.label_bound, data.dim)
    # Written as "not <=" so that NaN fails the test too.
    if not np.all(np.abs(matrix - fresh) <= tol):
        raise ValueError("snapshot moments do not match the rows")
    return data._with_moments(matrix, carried)


def _fields(record: dict, *names) -> list:
    """The named fields of a snapshot record, which must hold them all."""
    try:
        return [record[name] for name in names]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"snapshot lacks a field: {exc}") from exc


def _count(value) -> int:
    """A snapshot's round, budget or n_0: an int (not a bool), >= 0."""
    if type(value) is not int or value < 0:
        raise ValueError(f"snapshot count {value!r} is not a nonnegative "
                         "integer")
    return value


def _generator(state: dict) -> np.random.Generator:
    rng = np.random.default_rng()
    try:
        rng.bit_generator.state = state
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError("snapshot holds a malformed RNG state") from exc
    return rng


def _array(values, field: str, dtype=float) -> np.ndarray:
    """Snapshot field ``field`` as an array of ``dtype``; a ragged or
    non-numeric value is rejected in the field's name."""
    try:
        return np.asarray(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"snapshot {field} is malformed: {exc}") from exc


def _finite(theta: np.ndarray) -> np.ndarray:
    # A NaN or infinite parameter would be published, or descended from.
    if not np.all(np.isfinite(theta)):
        raise ValueError("snapshot parameters are not finite")
    return theta


def _vector(values, dim: int, field: str) -> np.ndarray:
    theta = _array(values, field)
    if theta.shape != (dim,):
        raise ValueError("snapshot dimension does not match the dataset")
    return _finite(theta)


def _rows_digest(data: Dataset) -> str:
    """SHA-256 of the (n, d + 1) rows [features | labels] in C order, fed
    a fixed block of rows at a time, each read from the row buffer
    (``Dataset.stacked``), so the rows are neither stacked whole nor
    gathered and cached on ``data``."""
    digest = hashlib.sha256()
    for start in range(0, data.size, _DIGEST_ROWS):
        digest.update(np.ascontiguousarray(data.stacked(
            np.arange(start, min(start + _DIGEST_ROWS, data.size)))))
    return digest.hexdigest()


def _encode_state(fmt: str, state, sigma: float) -> dict:
    """Snapshot fields shared by the single-machine and distributed states:
    the dataset by its digest plus, for a ridge-family loss, the moments
    it carries (else None)."""
    moments = state.data.cached_moments
    return {"format": fmt, "round": state.round_index, "budget": state.budget,
            "theta_pub": [float(v) for v in state.theta_pub],
            "noise_rng": state.noise_rng.bit_generator.state,
            "initial_size": state.data.initial_size, "sigma": sigma,
            "size": state.data.size, "rows_sha256": _rows_digest(state.data),
            "moments": None if moments is None else {
                "matrix": moments[0].tolist(), "carried": moments[1]}}


def _decode_state(fmt: str, snapshot: dict, data: Dataset,
                  loss: LossModel) -> dict:
    """Constructor fields of ``_encode_state``; ``data`` must hold its rows."""
    if snapshot.get("format") != fmt:
        raise ValueError("unrecognized state format")
    theta_pub, size, digest, n0, round_index, budget, rng = _fields(
        snapshot, "theta_pub", "size", "rows_sha256", "initial_size",
        "round", "budget", "noise_rng")
    theta_pub = _vector(theta_pub, data.dim, "theta_pub")
    if data.size != size or _rows_digest(data) != digest:
        raise ValueError("dataset rows do not match the snapshot")
    data = _chain_data(data, loss, _count(n0))
    return dict(round_index=_count(round_index), theta_pub=theta_pub,
                data=_restore_moments(snapshot, data, loss),
                budget=_count(budget), noise_rng=_generator(rng))


def _chain_data(data: Dataset, loss: LossModel, n0: int) -> Dataset:
    """A chain's own dataset over ``data``'s rows, checked against
    ``loss``, floor n0/2.

    ``data`` owns its rows in read-only arrays (see ``Dataset``), so the
    chain's dataset shares them without a copy, and no write by a caller
    reaches either. It starts a fresh row buffer of its own: were it a
    version of ``data``'s buffer, that buffer's tail would grow with
    every chain learned from the same data.
    """
    if loss.space.dim != data.dim:
        raise ValueError(f"loss dimension {loss.space.dim} does not match "
                         f"the dataset's {data.dim}")
    loss.check_dataset(data)
    return Dataset(data.features, data.labels, data.feature_bound,
                   data.label_bound, initial_size=n0)


def _check_sigma(snapshot: dict, sigma: float):
    if sigma != _fields(snapshot, "sigma")[0]:
        raise ValueError("loss or config does not match the snapshot's sigma")


def _check_chain(state_loss, state_config, loss, config):
    if loss is not state_loss or (config is not state_config
                                  and config != state_config):
        raise ValueError("loss or config is not the chain's own")


def fresh_mean(data: Dataset, loss: LossModel, config: UnlearnConfig) -> GDTrace:
    """Pre-noise output of a from-scratch train on ``data``.

    This is the retrain distribution's mean; publishing it with the
    config's noise scale is exactly what a fresh retrain would release.
    """
    sched = config.resolve(loss, data.initial_size, data.dim)
    gd = GDConfig(sched.eta, sched.train_iters(data.size))
    return pgd(sched.effective_loss, data, np.zeros(data.dim), gd)


def learn(data: Dataset, loss: LossModel, config: UnlearnConfig,
          seed: int = 0) -> UnlearnState:
    """Train from scratch and publish the round-0 parameters.

    The dataset passed here defines n_0 for the size floor and the
    noise calibration, regardless of its own edit history.
    """
    data = _chain_data(data, loss, data.size)
    sched = config.resolve(loss, data.size, data.dim)
    trace = pgd(sched.effective_loss, data, np.zeros(data.dim),
                GDConfig(sched.eta, sched.train_iters(data.size)))
    rng = substream(seed, "noise")
    theta_pub = publish(trace.theta, sched.sigma, rng)
    return UnlearnState(schedule=sched, round_index=0, theta_hat=trace.theta,
                        theta_pub=theta_pub, data=data,
                        budget=trace.gradient_evaluations, noise_rng=rng)


def unlearn(state: UnlearnState, update: Update, loss: LossModel,
            config: UnlearnConfig) -> UnlearnState:
    """Apply one edit and publish refreshed parameters.

    ``loss`` and ``config`` must be the chain's own. An added point must
    meet the loss's and the dataset's bounds and the loss's label set.
    Deleting an absent point leaves the dataset unchanged but still
    runs the descent and publishes, so observers cannot tell a void
    deletion from a real one.
    """
    sched = state.schedule
    _check_chain(sched.loss, sched.config, loss, config)
    if update.op == "add":
        loss.check_point(update.point)
    new_data = state.data.apply(update)
    i = state.round_index + 1
    warm = state.theta_pub if config.mode == "strong_perfect" \
        else state.theta_hat
    trace = pgd(sched.effective_loss, new_data, warm,
                GDConfig(sched.eta, sched.update_iters(i)))
    theta_pub = publish(trace.theta, sched.sigma, state.noise_rng)
    return UnlearnState(schedule=sched, round_index=i, theta_hat=trace.theta,
                        theta_pub=theta_pub, data=new_data,
                        budget=state.budget + trace.gradient_evaluations,
                        noise_rng=state.noise_rng)
