"""Experiment driver: chains, baselines, certificates, reports.

A single flat config describes the dataset, loss, mode, privacy budget
and edit stream. The harness runs the deletion chain, measures excess
risk and optimizer drift against oracles where they exist (long
reference descents otherwise, with the reference tolerance reported),
and writes reports whose bytes depend only on the config and seeds.

Each round of a single-machine chain is judged by three oracles: the
drift to the effective loss's minimizer theta*, the gap to a retrain's
mean and the excess risk over the base loss's minimum. ``run_chain``
and ``verify_unlearning_certificate`` take them from one helper,
``_core_oracles``, under the chain's own schedule. For a ridge-family
loss it makes one stacked normal-equation solve per round and derives
all three from it, each equal to the byte to what ``reference_optimum``,
``core.fresh_mean`` and ``reference_minimum`` return alone. Where the
closed form or the map refuses, or the loss is not quadratic, it runs
the descents those oracles fall back to.

Wall-clock timings are measured but kept out of the canonical report
so that identical runs stay byte-identical; pass ``include_timings``
to get them in a record dump.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import core
# ``fresh_mean`` is the retrain mean the gap oracle reproduces. The
# harness no longer calls it, but keeps the name: perfbench/tracer.py
# patches it here.
from .core import UnlearnConfig, fresh_mean, gaussian_mechanism_epsilon
from .data import (Dataset, gen_adversarial_sequence,
                   gen_synthetic_dataset, load_updates)
from .distributed import dist_learn, dist_params, dist_unlearn
from .losses import (LogisticLoss, LossModel, ParamSpace, RidgeLoss,
                     closed_form_refusal, closed_form_ridge_optimizer,
                     normal_equations)
from .optimizer import (GDConfig, contraction_factor, map_solved, pgd,
                        solve_many)
from .rng import spawn_key

__all__ = [
    "CertificateError",
    "ExperimentConfig",
    "MetricsRecord",
    "run_chain",
    "run_retrain_baseline",
    "verify_unlearning_certificate",
    "emit_report",
    "load_summary",
]

SCHEMA_VERSION = 1

HARNESS_MODES = core.MODES + ("distributed",)

# Accepted value types per annotated field type; ints pass as floats.
_FIELD_KINDS = {"int": numbers.Integral, "float": numbers.Real, "str": str}


class CertificateError(Exception):
    """An indistinguishability certificate failed to verify."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; every field is a config key."""

    n: int = 200
    dim: int = 5
    data_model: str = "linear"
    data_noise: float = 0.1
    data_path: str | None = None
    feature_bound: float = 1.0
    label_bound: float = 1.0
    radius: float = 1.0
    loss_kind: str = "ridge"
    lam: float = 1.0
    mode: str = "strong_secret"
    epsilon: float = 1.0
    delta: float = 0.05
    iters: int = 5
    schedule_exponent: float = 1.0
    sample_exponent: float = 1.0
    beta: float = 0.05
    copies: int | None = None
    update_strategy: str = "churn"
    update_length: int = 20
    updates_path: str | None = None
    seed: int = 0
    trials: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind, _, optional = str(f.type).partition(" | ")
            if value is None and optional:
                continue
            if isinstance(value, bool) or \
                    not isinstance(value, _FIELD_KINDS[kind]):
                raise ValueError(f"config key {f.name!r} must be {f.type}, "
                                 f"not {type(value).__name__}")
        if self.mode not in HARNESS_MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.loss_kind not in ("ridge", "logistic"):
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")
        if self.data_model not in ("linear", "logistic"):
            raise ValueError(f"unknown data model {self.data_model!r}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.update_length < 0:
            raise ValueError("update length must be nonnegative")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(mapping) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**mapping)

    def override(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **{k: v for k, v in kwargs.items()
                                if v is not None})

    def loss(self) -> LossModel:
        space = ParamSpace(self.dim, self.radius)
        if self.loss_kind == "ridge":
            return RidgeLoss(space, self.feature_bound, self.label_bound,
                             self.lam)
        return LogisticLoss(space, self.feature_bound, self.lam)

    def core_config(self) -> UnlearnConfig:
        if self.mode == "distributed":
            raise ValueError("distributed mode has no single-machine config")
        return UnlearnConfig(mode=self.mode, epsilon=self.epsilon,
                             delta=self.delta, iters=self.iters,
                             schedule_exponent=self.schedule_exponent)


def trial_seed(seed: int, trial: int) -> int:
    """Stable per-trial seed so trials can run in any order."""
    seq = np.random.SeedSequence(entropy=int(seed),
                                 spawn_key=spawn_key("trial", trial))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def prepare(config: ExperimentConfig, trial: int = 0):
    """Materialize (dataset, loss, updates) for one trial.

    The rows are not checked against the loss here: ``learn`` and
    ``dist_learn`` check them when the chain starts.
    """
    tseed = trial_seed(config.seed, trial)
    loss = config.loss()
    if config.data_path:
        data = Dataset.from_csv(config.data_path, config.feature_bound,
                                config.label_bound)
        if data.dim != config.dim:
            raise ValueError("config dim does not match the CSV")
    else:
        data = gen_synthetic_dataset(
            config.n, config.dim, model=config.data_model,
            noise=config.data_noise, feature_bound=config.feature_bound,
            label_bound=config.label_bound, seed=tseed)
    if config.updates_path:
        updates = load_updates(config.updates_path)
    else:
        updates = gen_adversarial_sequence(
            data, config.update_length, strategy=config.update_strategy,
            seed=tseed)
    return data, loss, updates


@dataclass
class MetricsRecord:
    """Per-round measurements of one chain.

    ``wall_time_s`` covers the round's learn or edit plus that round's
    oracles; it is left out of ``to_dict`` unless timings are asked for.
    """

    round: int
    n_points: int
    update_iters: float
    excess_risk: float
    reference_tolerance: float
    drift: float | None
    drift_tolerance: float | None
    mean_gap: float | None
    grads_round: int
    budget: int
    wall_time_s: float | None = None

    def to_dict(self, include_timings: bool = False) -> dict:
        out = asdict(self)
        if not include_timings:
            del out["wall_time_s"]
        return out


def _ridge_minimizer(loss: LossModel, data: Dataset):
    """Closed-form minimizer of ridge plus quadratics; None if refused."""
    if loss.ridge_lam is None:
        return None
    try:
        return closed_form_ridge_optimizer(data, loss.ridge_lam, loss.space)
    except ValueError:
        return None


def _value_bracket(loss: LossModel, data: Dataset, theta, tol: float):
    """(value, gap) around min ``loss``, given theta within tol of argmin."""
    gap = 0.5 * loss.smoothness * tol * tol
    return loss.empirical_loss(data, theta) - gap, gap


def reference_optimum(loss: LossModel, data: Dataset, hint_iters: int = 50):
    """Minimizer of ``loss`` over the ball with a certified tolerance.

    Uses the ridge closed form when it applies (tolerance 0), otherwise
    a long strongly-convex descent whose contraction bound supplies the
    tolerance. Requires strong convexity.
    """
    theta = _ridge_minimizer(loss, data)
    if theta is not None:
        return theta, 0.0
    return _descent_optimum(loss, data, hint_iters)


def _descent_optimum(loss: LossModel, data: Dataset, hint_iters: int):
    # reference_optimum where the closed form refuses or does not apply.
    gamma = contraction_factor(loss)
    iterations = max(200, 10 * hint_iters)
    trace = pgd(loss, data, np.zeros(data.dim),
                GDConfig.for_loss(loss, iterations))
    tol = gamma ** iterations * loss.space.radius
    return trace.theta, tol


def reference_minimum(loss: LossModel, data: Dataset, hint_iters: int = 50):
    """Lower bound on min loss over the ball, with its gap to the truth.

    Returns (value, tolerance) with value <= min <= value + tolerance,
    so excess risks measured against ``value`` are never negative.
    """
    theta = _ridge_minimizer(loss, data)
    if theta is not None:
        return _value_bracket(loss, data, theta, 0.0)
    return _descent_minimum(loss, data, hint_iters)


def _descent_minimum(loss: LossModel, data: Dataset, hint_iters: int):
    # reference_minimum where the closed form refuses or does not apply.
    if loss.strong_convexity > 0:
        return _value_bracket(loss, data,
                              *_descent_optimum(loss, data, hint_iters))
    iterations = max(2000, 10 * hint_iters)
    trace = pgd(loss, data, np.zeros(data.dim),
                GDConfig.for_loss(loss, iterations, regime="convex_smooth"))
    gap = loss.smoothness * loss.space.radius ** 2 / (2.0 * iterations)
    return loss.empirical_loss(data, trace.theta) - gap, gap


def _core_oracles(state, hint: int, compute_gap: bool, minimum: bool):
    """One core round's references: ``(theta_star, tol, mean, fmin)``.

    ``theta_star`` is the effective loss's minimizer within ``tol``, as
    ``reference_optimum`` gives it; ``mean`` (when ``compute_gap``, else
    None) is the retrain mean, ``core.fresh_mean``'s output under the
    chain's own schedule; ``fmin`` (when ``minimum``, else None) is
    ``reference_minimum``'s (value, tolerance) for the base loss. Each
    equals, to the byte, what those functions return.

    A ridge-family round solves its distinct normal equations in one
    stacked ``solve_many``: the effective loss's and, in the regularized
    modes when ``fmin`` is asked, the base loss's. A solution that
    ``closed_form_refusal`` accepts is that loss's minimizer with
    tolerance 0; one it refuses, or a loss with no closed form, takes
    the reference descent the named oracle falls back to. The mean maps
    a retrain's T_train steps from 0 under ``map_solved``, the map
    ``pgd`` takes through ``map_many`` with no solve: a converged map
    returns the solved theta* itself, any other is the lifted power. A
    descent the map refuses, or one too short to map, runs ``pgd``.
    """
    sched, data = state.schedule, state.data
    eff, loss = sched.effective_loss, sched.loss
    lams = [eff.ridge_lam]
    if minimum and eff is not loss:
        lams.append(loss.ridge_lam)
    star = None
    if eff.ridge_lam is not None:
        hessian, rhs = normal_equations(
            data.moments()[None].repeat(len(lams), 0), data.size,
            np.array(lams)[:, None])
        star = solve_many(hessian, rhs)
    solved = [star is not None and closed_form_refusal(
        hessian[p], rhs[p], star[p], loss.space) is None
        for p in range(len(lams))]
    if solved[0]:
        theta_star, tol = star[0], 0.0
    else:
        theta_star, tol = _descent_optimum(eff, data, hint)
    mean = fmin = None
    if compute_gap:
        zero = np.zeros(data.dim)
        train = GDConfig(sched.eta, sched.train_iters(data.size))
        if star is not None and train.iterations >= data.dim:
            out, mapped = map_solved(eff, hessian[:1], star[:1],
                                     zero[None], train.step_size,
                                     (train.iterations,), rhs[:1])
            mean = out[0] if mapped[0] else None
        if mean is None:
            mean = pgd(eff, data, zero, train,
                       refused=star is not None).theta
    if minimum:
        if eff is loss:
            # Strong modes: the drift oracle's minimizer is loss's own.
            fmin = _value_bracket(loss, data, theta_star, tol)
        elif solved[1]:
            fmin = _value_bracket(loss, data, star[1], 0.0)
        else:
            fmin = _descent_minimum(loss, data, hint)
    return theta_star, tol, mean, fmin


def _rounds(config: ExperimentConfig, trial: int):
    """Run one trial's chain: learn, then apply each edit in order.

    Yields ``(loss, params, state, t0)`` once per round, where
    ``params`` is the chain's UnlearnConfig or DistConfig and ``t0``
    is the clock reading taken just before the round's learn or edit.
    The chain functions are looked up when the trial starts, so a
    patched ``core.learn`` or ``dist_unlearn`` is the one that runs.
    """
    data, loss, updates = prepare(config, trial)
    seed = trial_seed(config.seed, trial)
    if config.mode == "distributed":
        params = dist_params(data.size, data.dim, loss,
                             config.sample_exponent, config.iters,
                             config.epsilon, config.delta, beta=config.beta,
                             copies=config.copies)
        learn, step = dist_learn, dist_unlearn
    else:
        params = config.core_config()
        learn, step = core.learn, core.unlearn
    t0 = time.perf_counter()
    state = learn(data, loss, params, seed=seed)
    yield loss, params, state, t0
    for update in updates:
        t0 = time.perf_counter()
        state = step(state, update, loss, params)
        yield loss, params, state, t0


def run_chain(config: ExperimentConfig, trial: int = 0,
              compute_gap: bool = False) -> list:
    """Run one trial of the configured chain; one record per round.

    Each record's ``wall_time_s`` covers the round's learn or edit plus
    that round's reference oracles (and the gap oracle when
    ``compute_gap`` is set); preparing the data is not included.
    Drift and gap are measured for the single-machine modes only.
    """
    distributed = config.mode == "distributed"
    records = []
    prev_budget = 0
    for rnd, (loss, params, state, t0) in enumerate(_rounds(config, trial)):
        drift = d_tol = gap = None
        if distributed:
            iters = (params.train_iters if rnd == 0
                     else params.total_update_iters(rnd))
            fmin, f_tol = reference_minimum(loss, state.data,
                                            params.train_iters)
        else:
            sched = state.schedule
            iters = (sched.update_iters(rnd) if rnd
                     else sched.train_iters(sched.n))
            theta_star, d_tol, mean, (fmin, f_tol) = _core_oracles(
                state, params.iters, compute_gap, minimum=True)
            drift = float(np.linalg.norm(state.theta_hat - theta_star))
            if compute_gap:
                gap = float(np.linalg.norm(mean - state.theta_hat))
        records.append(MetricsRecord(
            round=rnd,
            n_points=state.data.size,
            update_iters=float(iters),
            excess_risk=float(loss.empirical_loss(state.data,
                                                  state.theta_pub) - fmin),
            reference_tolerance=f_tol,
            drift=drift,
            drift_tolerance=d_tol,
            mean_gap=gap,
            grads_round=state.budget - prev_budget,
            budget=state.budget,
            wall_time_s=time.perf_counter() - t0,
        ))
        prev_budget = state.budget
    return records


def run_retrain_baseline(config: ExperimentConfig,
                         target_alpha: float | None = None) -> list:
    """Cost model of retraining to ``target_alpha`` after every edit.

    The contraction bound (M/2)(gamma^T r)^2 <= alpha certifies each
    retrain, as the deletion chain budgets its own work, so the retrains
    are counted, never run. The default alpha is the value the
    from-scratch training phase itself certifies. Records carry the
    per-round iteration counts next to the deletion chain's, plus the
    I + log(epsilon n / sqrt(d)) / log(1/gamma) expense shape.
    """
    data, loss, updates = prepare(config, 0)
    loss.check_dataset(data)
    sched = config.core_config().resolve(loss, data.size, data.dim)
    gamma = sched.gamma
    radius = loss.space.radius
    smooth = sched.effective_loss.smoothness
    if target_alpha is None:
        t_train = sched.train_iters(data.size)
        target_alpha = 0.5 * smooth * (gamma ** t_train * radius) ** 2
    if not target_alpha > 0:
        raise ValueError("target accuracy must be positive")
    raw = math.log(smooth * radius ** 2 / (2.0 * target_alpha)) \
        / (2.0 * math.log(1.0 / gamma))
    if raw > 1e7:
        raise ValueError("target accuracy below the reachable floor")
    iters_alpha = max(0, math.ceil(raw))
    records = []
    current = data
    budget = 0
    for rnd in range(len(updates) + 1):
        if rnd > 0:
            current = current.apply(updates[rnd - 1])
        budget += iters_alpha * current.size
        unlearn_iters = (sched.train_iters(data.size) if rnd == 0
                         else sched.update_iters(rnd))
        shape = config.iters + math.log(
            max(config.epsilon * current.size / math.sqrt(config.dim), 1.0)
        ) / math.log(1.0 / gamma)
        records.append({
            "round": rnd,
            "n_points": current.size,
            "baseline_iters": iters_alpha,
            "unlearn_iters": unlearn_iters,
            "iters_ratio": iters_alpha / max(unlearn_iters, 1),
            "shape_reference": shape,
            "certified_alpha": target_alpha,
            "budget": budget,
        })
    return records


def verify_unlearning_certificate(config: ExperimentConfig,
                                  trials: int | None = None) -> dict:
    """Measure the pre-noise retrain gap and certify indistinguishability.

    For every round of every trial the unlearned secret parameter is
    compared against a from-scratch retrain on the same edited data
    (noise plays no part in either mean). Secret-state modes must stay
    within their worst-case gap bound at every round; perfect mode must
    stay within its high-probability bound in at least a 1 - delta/2
    fraction of trials. The released-noise privacy of the worst
    measured gap is reported next to the configured budget.
    """
    if config.mode == "distributed":
        raise ValueError("certificates cover the single-machine modes")
    trials = config.trials if trials is None else trials
    perfect = config.mode == "strong_perfect"
    # Trial 0's learn fixes the schedule; its chain continues below.
    chain = _rounds(config, 0)
    sched = next(chain)[2].schedule
    loss, eff = sched.loss, sched.effective_loss
    if perfect:
        bound = 2.0 * core.perfect_drift_bound(
            loss.lipschitz, loss.strong_convexity, sched.gamma, sched.n,
            config.iters, sched.sigma, config.dim)
        mech_delta = config.delta / 2.0
    else:
        bound = core.mean_gap_bound(
            eff.lipschitz, eff.strong_convexity, sched.gamma, sched.n,
            config.iters)
        mech_delta = config.delta
    drift_limit = 0.5 * bound
    max_gap = 0.0
    max_drift = 0.0
    violations = []
    clean_trials = 0
    rounds = 0
    for t in range(trials):
        trial_ok = True
        if t:
            chain = _rounds(config, t)
            next(chain)  # round 0 is the from-scratch learn
        for rnd, (_, _, state, _) in enumerate(chain, start=1):
            theta_star, tol, mean, _ = _core_oracles(
                state, config.iters, compute_gap=True, minimum=False)
            gap = float(np.linalg.norm(mean - state.theta_hat))
            drift = float(np.linalg.norm(state.theta_hat - theta_star))
            max_gap = max(max_gap, gap)
            max_drift = max(max_drift, drift)
            ok = gap <= bound * (1 + 1e-9) and \
                drift <= drift_limit * (1 + 1e-9) + tol
            if not ok:
                trial_ok = False
                violations.append({"trial": t, "round": rnd, "gap": gap,
                                   "drift": drift})
            rounds += 1
        clean_trials += trial_ok
    frequency = clean_trials / max(trials, 1)
    required = 1.0 - config.delta / 2.0 if perfect else 1.0
    certified = gaussian_mechanism_epsilon(max_gap, sched.sigma, mech_delta)
    # Worst-case check: the deployed noise must cover the full gap bound,
    # not just the gap this run happened to produce.
    calibration = gaussian_mechanism_epsilon(bound, sched.sigma, mech_delta)
    budget = config.epsilon * (1 + 1e-9)
    passed = (frequency >= required and certified <= budget
              and calibration <= budget)
    return {
        "mode": config.mode,
        "trials": trials,
        "rounds": rounds,
        "sigma": sched.sigma,
        "gap_bound": bound,
        "drift_bound": drift_limit,
        "max_gap": max_gap,
        "max_drift": max_drift,
        "certified_epsilon": certified,
        "calibration_epsilon": calibration,
        "epsilon": config.epsilon,
        "frequency_observed": frequency,
        "frequency_required": required,
        "violations": violations,
        "passed": bool(passed),
    }


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def summarize(records: list) -> dict:
    """Aggregate per-round records into the summary schema."""
    dicts = [r.to_dict() if isinstance(r, MetricsRecord) else dict(r)
             for r in records]
    excess = [r["excess_risk"] for r in dicts if "excess_risk" in r]
    drifts = [r["drift"] for r in dicts if r.get("drift") is not None]
    summary = {
        "schema_version": SCHEMA_VERSION,
        "rounds": len(dicts),
        "total_budget": dicts[-1]["budget"] if dicts else 0,
    }
    if excess:
        arr = np.asarray(excess, dtype=float)
        summary["excess_risk"] = {
            "p50": float(np.percentile(arr, 50)),
            "p90": float(np.percentile(arr, 90)),
            "max": float(arr.max()),
        }
    if drifts:
        summary["max_drift"] = float(max(drifts))
    return summary


def emit_report(records: list, records_path, summary_path=None,
                include_timings: bool = False) -> dict:
    """Write one JSON object per round plus a summary document.

    Output bytes are a pure function of the records (canonical JSON,
    sorted keys); timings are only included on request because they
    break run-to-run byte equality.
    """
    dicts = [r.to_dict(include_timings) if isinstance(r, MetricsRecord)
             else dict(r) for r in records]
    with open(records_path, "w") as fh:
        for rec in dicts:
            fh.write(_canonical(rec))
            fh.write("\n")
    summary = summarize(records)
    if summary_path is not None:
        with open(summary_path, "w") as fh:
            fh.write(_canonical(summary))
            fh.write("\n")
    return summary


def load_summary(records_path) -> dict:
    """Rebuild the summary from a records file (for the report command)."""
    records = []
    with open(records_path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return summarize(records)
