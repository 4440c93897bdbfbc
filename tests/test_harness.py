import itertools
import json
import math

import numpy as np
import pytest

from unlearn import core, harness
from unlearn import data as data_module
from unlearn.cli import main
from unlearn.data import Dataset, load_updates, save_updates
from unlearn.distributed import dist_params
from unlearn.harness import (
    SCHEMA_VERSION,
    ExperimentConfig,
    emit_report,
    load_summary,
    prepare,
    reference_minimum,
    reference_optimum,
    run_chain,
    run_retrain_baseline,
    summarize,
    trial_seed,
    verify_unlearning_certificate,
)
from unlearn.losses import LossModel, RidgeLoss, closed_form_ridge_optimizer

QUICK = dict(n=120, update_length=6, iters=3)


def test_config_from_mapping_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys.*sigma"):
        ExperimentConfig.from_mapping({"sigma": 1.0})
    cfg = ExperimentConfig.from_mapping({"n": 50, "mode": "strong_perfect"})
    assert cfg.n == 50
    assert cfg.mode == "strong_perfect"


def test_config_field_validation():
    with pytest.raises(ValueError, match="unknown mode"):
        ExperimentConfig(mode="secret")
    with pytest.raises(ValueError, match="unknown loss kind"):
        ExperimentConfig(loss_kind="huber")
    with pytest.raises(ValueError, match="unknown data model"):
        ExperimentConfig(data_model="cubic")
    with pytest.raises(ValueError, match="trials"):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError, match="update length"):
        ExperimentConfig(update_length=-1)
    with pytest.raises(ValueError, match="'n' must be int, not str"):
        ExperimentConfig(n="200")
    with pytest.raises(ValueError, match="'iters' must be int, not float"):
        ExperimentConfig(iters=5.0)
    with pytest.raises(ValueError, match="'seed' must be int, not bool"):
        ExperimentConfig(seed=True)
    with pytest.raises(ValueError, match="'lam' must be float, not str"):
        ExperimentConfig(lam="1")
    assert ExperimentConfig(lam=2, copies=None).lam == 2  # ints pass as floats


def test_config_override_ignores_unset_flags():
    cfg = ExperimentConfig(n=100)
    out = cfg.override(n=None, iters=9, seed=None)
    assert out.n == 100
    assert out.iters == 9
    assert cfg.iters == 5  # original untouched


def test_trial_seeds_are_stable_and_distinct():
    assert trial_seed(1, 0) == trial_seed(1, 0)
    assert trial_seed(1, 0) != trial_seed(1, 1)
    assert trial_seed(1, 0) != trial_seed(2, 0)


def test_prepare_materializes_the_configured_pieces():
    cfg = ExperimentConfig(**QUICK, update_strategy="random")
    data, loss, updates = prepare(cfg, trial=0)
    assert data.size == 120
    assert data.dim == 5
    assert len(updates) == 6
    assert loss.strong_convexity == cfg.lam
    again, _, again_updates = prepare(cfg, trial=0)
    assert np.array_equal(again.features, data.features)
    assert [u.op for u in again_updates] == [u.op for u in updates]
    other, _, _ = prepare(cfg, trial=1)
    assert not np.array_equal(other.features, data.features)


def test_prepare_reads_dataset_and_update_files(tmp_path):
    cfg = ExperimentConfig(**QUICK)
    data, _, updates = prepare(cfg, 0)
    csv_path = tmp_path / "d.csv"
    upd_path = tmp_path / "u.jsonl"
    data.to_csv(csv_path)
    save_updates(updates, upd_path)
    file_cfg = cfg.override(data_path=str(csv_path), updates_path=str(upd_path))
    data2, _, updates2 = prepare(file_cfg, 0)
    assert np.array_equal(data2.features, data.features)
    assert len(updates2) == len(updates)
    with pytest.raises(ValueError, match="does not match the CSV"):
        prepare(cfg.override(data_path=str(csv_path), dim=4), 0)


def test_chain_records_shape_and_budget_accounting():
    cfg = ExperimentConfig(**QUICK)
    records = run_chain(cfg)
    assert len(records) == 7
    assert [r.round for r in records] == list(range(7))
    core_cfg = cfg.core_config()
    data, loss, _ = prepare(cfg, 0)
    sched = core_cfg.resolve(loss, data.size, data.dim)
    assert records[0].update_iters == sched.train_iters(data.size)
    assert all(r.update_iters == cfg.iters for r in records[1:])
    budgets = [r.budget for r in records]
    assert all(a <= b for a, b in zip(budgets, budgets[1:]))
    assert budgets[-1] == sum(r.grads_round for r in records)
    for r in records:
        assert r.excess_risk >= -1e-12
        assert r.reference_tolerance == 0.0  # ridge has an exact oracle
        assert r.mean_gap is None
        assert r.wall_time_s is not None


def test_chain_drift_stays_under_the_theory_bound():
    cfg = ExperimentConfig(**QUICK)
    records = run_chain(cfg, compute_gap=True)
    data, loss, _ = prepare(cfg, 0)
    sched = cfg.core_config().resolve(loss, data.size, data.dim)
    # Churn moves the size; the bound for the smallest dataset in the
    # chain dominates every round.
    n_min = min(r.n_points for r in records)
    drift_limit = core.drift_bound(loss.lipschitz, loss.strong_convexity,
                                   sched.gamma, n_min, cfg.iters)
    gap_limit = core.mean_gap_bound(loss.lipschitz, loss.strong_convexity,
                                    sched.gamma, n_min, cfg.iters)
    for r in records[1:]:
        assert r.drift <= drift_limit
        assert r.mean_gap <= gap_limit


def test_chain_runs_are_reproducible_per_trial():
    cfg = ExperimentConfig(**QUICK)
    a = [r.to_dict() for r in run_chain(cfg, trial=2)]
    b = [r.to_dict() for r in run_chain(cfg, trial=2)]
    c = [r.to_dict() for r in run_chain(cfg, trial=3)]
    assert a == b
    assert a != c


def test_published_excess_risk_meets_the_steady_state_bound():
    cfg = ExperimentConfig(n=200, update_length=200, iters=5)
    records = run_chain(cfg)
    data, loss, _ = prepare(cfg, 0)
    sched = cfg.core_config().resolve(loss, data.size, data.dim)
    n_min = min(r.n_points for r in records)
    drift = core.drift_bound(loss.lipschitz, loss.strong_convexity,
                             sched.gamma, n_min, cfg.iters)
    tail = core.gaussian_tail_radius(sched.sigma, cfg.dim, cfg.beta)
    bound = 0.5 * loss.smoothness * (drift + tail) ** 2
    hits = [r.excess_risk <= bound for r in records[1:]]
    assert np.mean(hits) >= 1.0 - cfg.beta


def test_logistic_chain_uses_descent_references():
    cfg = ExperimentConfig(n=80, dim=3, update_length=3, iters=3,
                           loss_kind="logistic", data_model="logistic")
    records = run_chain(cfg)
    data, loss, _ = prepare(cfg, 0)
    sched = cfg.core_config().resolve(loss, data.size, data.dim)
    n_min = min(r.n_points for r in records)
    drift_limit = core.drift_bound(loss.lipschitz, loss.strong_convexity,
                                   sched.gamma, n_min, cfg.iters)
    for r in records[1:]:
        assert r.drift_tolerance > 0.0
        assert r.drift <= drift_limit + r.drift_tolerance
        assert r.excess_risk >= -1e-12


def test_distributed_chain_record_shape():
    cfg = ExperimentConfig(n=60, dim=3, update_length=4, iters=1,
                           mode="distributed", delta=0.01, copies=2)
    records = run_chain(cfg)
    assert len(records) == 5
    data, loss, _ = prepare(cfg, 0)
    params = dist_params(data.size, data.dim, loss, cfg.sample_exponent,
                         cfg.iters, cfg.epsilon, cfg.delta, beta=cfg.beta,
                         copies=cfg.copies)
    assert records[0].update_iters == params.train_iters > 0
    for i, r in enumerate(records[1:], start=1):
        assert r.update_iters == params.total_update_iters(i)
    for r in records:
        assert r.drift is None
        assert r.mean_gap is None
        assert r.excess_risk >= -1e-12
    budgets = [r.budget for r in records]
    assert all(a <= b for a, b in zip(budgets, budgets[1:]))


def test_reference_oracles_agree_with_closed_forms():
    cfg = ExperimentConfig(**QUICK)
    data, loss, _ = prepare(cfg, 0)
    theta, tol = reference_optimum(loss, data)
    assert tol == 0.0
    star = closed_form_ridge_optimizer(data, cfg.lam, loss.space)
    assert np.array_equal(theta, star)
    value, vtol = reference_minimum(loss, data)
    assert vtol == 0.0
    assert value == loss.empirical_loss(data, star)


def test_reference_oracles_cover_losses_without_closed_forms():
    cfg = ExperimentConfig(n=60, dim=3, loss_kind="logistic",
                           data_model="logistic")
    data, loss, _ = prepare(cfg, 0)
    theta, tol = reference_optimum(loss, data)
    assert 0.0 <= tol < 1e-6
    # Projected fixed point: a minimizer does not move under one step.
    eta = 2.0 / (loss.smoothness + loss.strong_convexity)
    step = loss.space.project(theta - eta * loss.empirical_gradient(data,
                                                                    theta))
    assert np.linalg.norm(theta - step) <= 1e-9
    value, vtol = reference_minimum(loss, data)
    assert value <= loss.empirical_loss(data, theta) <= value + vtol


def counting(monkeypatch, name):
    """Count the calls the harness makes to its module-level ``name``."""
    calls = []
    original = getattr(harness, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, name, counted)
    return calls


def test_strong_mode_chain_runs_one_reference_descent_per_round(monkeypatch):
    cfg = ExperimentConfig(n=60, dim=3, update_length=2, iters=3,
                           loss_kind="logistic", data_model="logistic")
    descents = counting(monkeypatch, "pgd")
    records = run_chain(cfg)
    assert len(records) == 3
    assert len(descents) == 3


def test_core_chain_resolves_its_schedule_once(monkeypatch):
    """With or without the gap oracle: the retrain mean is taken under
    the chain's own schedule, not one resolved again each round."""
    calls = []
    original = core.UnlearnConfig.resolve

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(core.UnlearnConfig, "resolve", counted)
    for compute_gap in (False, True):
        calls.clear()
        records = run_chain(ExperimentConfig(n=60, dim=3, update_length=10,
                                             iters=3),
                            compute_gap=compute_gap)
        assert len(records) == 11
        assert all((r.mean_gap is not None) == compute_gap
                   for r in records)
        assert [args[1:] for args in calls] == [(60, 3)]


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


# Which of the map's branches the retrain mean takes on the grid below,
# per mode: converged (theta* itself), powered (theta* + A^T (0 - theta*))
# or refused (``pgd``'s loop). Short descents, T < d, take ``pgd``'s
# short map and never reach the map.
GRID_BRANCHES = {
    "strong_secret": {"powered", "refused"},
    "strong_perfect": {"powered", "refused"},
    "regularized_strong": {"converged", "powered", "refused"},
    "regularized_weak": {"converged", "powered", "refused"},
}


@pytest.mark.parametrize("mode", sorted(GRID_BRANCHES))
def test_round_oracles_match_the_named_oracles_to_the_byte(monkeypatch,
                                                           mode):
    """One stacked solve per round serves drift, gap and excess risk, and
    each equals what ``reference_optimum``, ``core.fresh_mean`` and
    ``reference_minimum`` return on their own, over radius 1 and 0.05,
    three sizes and three streams."""
    branches = set()
    original = harness.map_solved

    def spy(loss, hessian, star, *args):
        before = star.copy()
        out, mapped = original(loss, hessian, star, *args)
        branches.add("refused" if not mapped[0] else
                     "converged" if same_bytes(out, before) else "powered")
        return out, mapped

    monkeypatch.setattr(harness, "map_solved", spy)
    # A regularized mode's base loss may be merely convex (lam = 0).
    lams = (1.0, 0.0) if mode.startswith("regularized") else (1.0,)
    for lam, radius in itertools.product(lams, (1.0, 0.05)):
        for n, dim in ((60, 3), (400, 5), (2000, 20)):
            for stream in ("churn", "random", "drift"):
                cfg = ExperimentConfig(mode=mode, radius=radius, n=n,
                                       dim=dim, lam=lam,
                                       update_strategy=stream,
                                       update_length=5, iters=3, seed=5)
                try:
                    chain = list(harness._rounds(cfg, 0))
                except ValueError:
                    continue  # perfect mode's iteration floor at n=2000
                for loss, params, state, _ in chain:
                    eff, data = state.schedule.effective_loss, state.data
                    theta, tol, mean, fmin = harness._core_oracles(
                        state, cfg.iters, compute_gap=True, minimum=True)
                    ref_theta, ref_tol = reference_optimum(eff, data,
                                                           cfg.iters)
                    assert same_bytes(theta, ref_theta)
                    assert same_bytes(tol, ref_tol)
                    assert same_bytes(
                        mean, core.fresh_mean(data, loss, params).theta)
                    assert same_bytes(
                        fmin, reference_minimum(loss, data, cfg.iters))
    assert branches == GRID_BRANCHES[mode]


@pytest.mark.parametrize("mode", ["regularized_strong", "strong_secret"])
def test_gap_chain_solves_once_per_round(monkeypatch, mode):
    """The effective loss's system, and the base loss's in the
    regularized modes, go to one ``np.linalg.solve`` per round, which
    serves the drift, gap and excess-risk oracles alike."""
    solves = []
    solve = np.linalg.solve

    def counted(*args):
        solves.append(1)
        return solve(*args)

    per_round = []
    oracles = harness._core_oracles

    def round_oracles(*args, **kwargs):
        start = len(solves)
        out = oracles(*args, **kwargs)
        per_round.append(len(solves) - start)
        return out

    monkeypatch.setattr(np.linalg, "solve", counted)
    monkeypatch.setattr(harness, "_core_oracles", round_oracles)
    records = run_chain(ExperimentConfig(n=400, dim=5, mode=mode,
                                         update_strategy="random",
                                         update_length=6, iters=3),
                        compute_gap=True)
    assert len(records) == 7
    assert per_round == [1] * 7


def test_chain_scans_the_dataset_against_the_loss_once(monkeypatch):
    scans = []
    original = LossModel.check_dataset

    def counted(self, data):
        scans.append(data.size)
        return original(self, data)

    monkeypatch.setattr(LossModel, "check_dataset", counted)
    records = run_chain(ExperimentConfig(n=60, dim=3, update_length=1,
                                         update_strategy="random", iters=2))
    assert len(records) == 2
    assert scans.count(60) == 1


def test_gap_chain_builds_the_gram_from_rows_only_at_learn(monkeypatch):
    """Descents, the gap oracle and both closed-form references read the
    moments the chain carries; only learn computes them from rows."""
    builds = []
    original = data_module._row_moments

    def counted(features, labels):
        builds.append(labels.size)
        return original(features, labels)

    monkeypatch.setattr(data_module, "_row_moments", counted)
    cfg = ExperimentConfig(n=400, dim=5, mode="regularized_strong",
                           update_strategy="random", iters=3)
    for length, rounds in ((0, 1), (6, 7)):
        builds.clear()
        records = run_chain(cfg.override(update_length=length),
                            compute_gap=True)
        assert len(records) == rounds
        assert all(r.mean_gap is not None for r in records)
        assert builds == [400]


def test_gap_chain_reads_no_rows_for_its_loss_values(monkeypatch):
    """The oracles' values and the excess risk of a ridge-family chain
    come from the moments it carries, not from the rows."""
    rows = []
    original = RidgeLoss._batch_loss

    def counted(self, features, labels, theta):
        rows.append(labels.size)
        return original(self, features, labels, theta)

    monkeypatch.setattr(RidgeLoss, "_batch_loss", counted)
    records = run_chain(ExperimentConfig(n=400, dim=5,
                                         mode="regularized_strong",
                                         update_strategy="random", iters=3,
                                         update_length=6), compute_gap=True)
    assert len(records) == 7
    assert rows == []


def test_certificate_prepares_each_trial_once(monkeypatch):
    prepared = counting(monkeypatch, "prepare")
    report = verify_unlearning_certificate(
        ExperimentConfig(n=60, dim=3, update_length=2, iters=3), trials=2)
    assert report["rounds"] == 4
    assert len(prepared) == 2


def test_cli_baseline_checks_the_rows_against_the_loss(tmp_path):
    rng = np.random.default_rng(0)
    csv_path = tmp_path / "half.csv"
    Dataset(rng.uniform(-0.5, 0.5, size=(40, 3)), np.full(40, 0.5)).to_csv(
        csv_path)
    flags = ["baseline", "--records-out", str(tmp_path / "b.jsonl"),
             "--dim", "3", "--data-path", str(csv_path), "--update-length",
             "2"]
    assert main(flags) == 0
    assert main(flags + ["--loss-kind", "logistic"]) == 3


def test_reference_minimum_tries_the_closed_form_once(monkeypatch):
    cfg = ExperimentConfig(n=60, dim=3, radius=0.01)
    data, loss, _ = prepare(cfg, 0)
    with pytest.raises(ValueError, match="outside the ball"):
        closed_form_ridge_optimizer(data, cfg.lam, loss.space)
    solves = counting(monkeypatch, "closed_form_ridge_optimizer")
    value, tol = reference_minimum(loss, data)
    assert len(solves) == 1
    theta, _ = reference_optimum(loss, data)
    assert value <= loss.empirical_loss(data, theta) <= value + tol


def test_retrain_baseline_runs_no_descent(monkeypatch):
    descents = counting(monkeypatch, "pgd")
    records = run_retrain_baseline(ExperimentConfig(**QUICK))
    assert len(records) == 7
    assert descents == []


@pytest.mark.parametrize("loss_kind, lam", [("ridge", 1.0),
                                           ("logistic", 0.01)])
def test_strong_mode_excess_risk_matches_the_reference_minimum(loss_kind,
                                                               lam):
    # At lam=0.01 the logistic reference descent contracts slowly enough
    # to leave a nonzero tolerance, so the bracket's gap is exercised.
    model = "linear" if loss_kind == "ridge" else "logistic"
    cfg = ExperimentConfig(n=80, dim=3, update_length=4, iters=3, lam=lam,
                           loss_kind=loss_kind, data_model=model,
                           update_strategy="random")
    records = run_chain(cfg)
    data, loss, updates = prepare(cfg, 0)
    params = cfg.core_config()
    state = core.learn(data, loss, params, seed=trial_seed(cfg.seed, 0))
    states = [state]
    for update in updates:
        state = core.unlearn(state, update, loss, params)
        states.append(state)
    assert len(records) == len(states)
    for record, state in zip(records, states):
        fmin, tol = reference_minimum(loss, state.data, cfg.iters)
        excess = loss.empirical_loss(state.data, state.theta_pub) - fmin
        assert record.excess_risk == excess
        assert record.reference_tolerance == tol
        assert (tol > 0.0) == (loss_kind == "logistic")


def test_summarize_aggregates_the_records():
    cfg = ExperimentConfig(**QUICK)
    records = run_chain(cfg)
    summary = summarize(records)
    assert summary["schema_version"] == SCHEMA_VERSION
    assert summary["rounds"] == len(records)
    assert summary["total_budget"] == records[-1].budget
    excess = np.array([r.excess_risk for r in records])
    assert summary["excess_risk"]["max"] == excess.max()
    assert summary["excess_risk"]["p50"] == np.percentile(excess, 50)
    assert summary["max_drift"] == max(r.drift for r in records)
    assert summarize([]) == {"schema_version": SCHEMA_VERSION, "rounds": 0,
                             "total_budget": 0}


def test_reports_are_byte_deterministic(tmp_path):
    cfg = ExperimentConfig(**QUICK)
    records = run_chain(cfg)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    s1, s2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(records, p1, s1)
    emit_report(run_chain(cfg), p2, s2)
    assert p1.read_bytes() == p2.read_bytes()
    assert s1.read_bytes() == s2.read_bytes()
    assert load_summary(p1) == json.loads(s1.read_text())
    first = json.loads(p1.read_text().splitlines()[0])
    assert "wall_time_s" not in first
    emit_report(records, p1, include_timings=True)
    first = json.loads(p1.read_text().splitlines()[0])
    assert "wall_time_s" in first


def test_baseline_matches_the_training_budget_at_default_accuracy():
    cfg = ExperimentConfig(n=1000, dim=10, update_length=5, iters=5)
    records = run_retrain_baseline(cfg)
    data, loss, _ = prepare(cfg, 0)
    sched = cfg.core_config().resolve(loss, data.size, data.dim)
    t_train = sched.train_iters(data.size)
    assert abs(records[0]["baseline_iters"] - t_train) <= 1
    for rec in records[1:]:
        assert rec["baseline_iters"] >= rec["unlearn_iters"]
        assert rec["iters_ratio"] == rec["baseline_iters"] / rec["unlearn_iters"]
    assert records[-1]["budget"] == sum(
        rec["baseline_iters"] * rec["n_points"] for rec in records)


def test_baseline_rejects_unreachable_accuracy():
    # Near-flat curvature: the contraction per step is ~2e-5 nats, so
    # even the smallest positive float sits past the 1e7-iteration cap.
    flat = ExperimentConfig(n=60, dim=2, lam=1e-5, update_length=0)
    with pytest.raises(ValueError, match="reachable floor"):
        run_retrain_baseline(flat, target_alpha=5e-324)
    with pytest.raises(ValueError, match="must be positive"):
        run_retrain_baseline(flat, target_alpha=0.0)


def test_certificate_passes_for_the_secret_mode():
    cfg = ExperimentConfig(n=150, update_length=8, iters=3, trials=2)
    report = verify_unlearning_certificate(cfg)
    assert report["passed"] is True
    assert report["violations"] == []
    assert report["rounds"] == 16
    assert report["max_gap"] <= report["gap_bound"]
    assert report["max_drift"] <= report["drift_bound"]
    assert report["certified_epsilon"] <= cfg.epsilon
    assert report["calibration_epsilon"] == pytest.approx(cfg.epsilon,
                                                          rel=1e-9)
    assert report["frequency_observed"] == 1.0
    # The certificate walks the same chain as run_chain.
    chained = [r for t in range(cfg.trials)
               for r in run_chain(cfg, t, compute_gap=True)[1:]]
    assert report["max_gap"] == max(r.mean_gap for r in chained)
    assert report["max_drift"] == max(r.drift for r in chained)


def test_certificate_with_no_trials_fails():
    cfg = ExperimentConfig(n=100, update_length=3, iters=3)
    report = verify_unlearning_certificate(cfg, trials=0)
    assert report["rounds"] == 0
    assert report["passed"] is False


def test_certificate_passes_for_the_perfect_mode():
    cfg = ExperimentConfig(n=500, update_length=5, iters=3, trials=2,
                           mode="strong_perfect", delta=math.exp(-1.0))
    report = verify_unlearning_certificate(cfg)
    assert report["passed"] is True
    assert report["frequency_required"] == 1.0 - cfg.delta / 2.0
    assert report["calibration_epsilon"] <= cfg.epsilon


def test_certificate_fails_when_the_noise_is_halved(monkeypatch):
    true_sigma = core.sigma_strong

    def half_sigma(*args, **kwargs):
        return 0.5 * true_sigma(*args, **kwargs)

    monkeypatch.setattr(core, "sigma_strong", half_sigma)
    cfg = ExperimentConfig(n=150, update_length=4, iters=3)
    report = verify_unlearning_certificate(cfg)
    assert report["calibration_epsilon"] > cfg.epsilon
    assert report["passed"] is False


def test_certificate_on_an_empty_update_stream():
    cfg = ExperimentConfig(n=100, update_length=0, iters=3)
    report = verify_unlearning_certificate(cfg)
    assert report["max_gap"] == 0.0
    assert report["certified_epsilon"] == 0.0
    assert report["passed"] is True


def test_certificate_rejects_the_distributed_mode():
    cfg = ExperimentConfig(n=60, mode="distributed", delta=0.01)
    with pytest.raises(ValueError, match="single-machine"):
        verify_unlearning_certificate(cfg)


def write_config(tmp_path, **kwargs):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(kwargs))
    return str(path)


def test_cli_data_and_update_generation(tmp_path, monkeypatch):
    monkeypatch.setenv("UNLEARN_OUT_DIR", str(tmp_path / "out"))
    assert main(["gen-data", "--out", "d.csv", "--n", "40", "--dim", "2",
                 "--seed", "3"]) == 0
    csv_path = tmp_path / "out" / "d.csv"
    assert csv_path.exists()
    data = Dataset.from_csv(csv_path)
    assert data.size == 40
    assert main(["gen-updates", "--data", str(csv_path), "--out", "u.jsonl",
                 "--length", "6", "--strategy", "random"]) == 0
    updates = load_updates(tmp_path / "out" / "u.jsonl")
    assert len(updates) == 6


def test_cli_rejects_a_non_finite_csv_row(tmp_path, capsys):
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("x_1,x_2,y\n0.1,0.2,0.3\nnan,0.1,0.2\n")
    assert main(["gen-updates", "--data", str(csv_path), "--out",
                 str(tmp_path / "u.jsonl"), "--length", "2"]) == 3
    assert "non-finite value at line 3" in capsys.readouterr().err


def test_cli_rejects_a_csv_cell_that_is_not_a_number(tmp_path, capsys):
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("x_1,x_2,y\n0.1,0.2,0.3\n0.1,0.1,0.2\nabc,,0.2\n")
    assert main(["gen-updates", "--data", str(csv_path), "--out",
                 str(tmp_path / "u.jsonl"), "--length", "2"]) == 3
    assert "malformed CSV row at line 4" in capsys.readouterr().err


def test_cli_train_writes_a_snapshot(tmp_path):
    out = tmp_path / "state.json"
    code = main(["train", "--state-out", str(out), "--n", "60",
                 "--update-length", "0", "--iters", "3"])
    assert code == 0
    snap = json.loads(out.read_text())
    assert snap["format"] == "unlearn-state/4"
    assert snap["round"] == 0


def test_cli_run_is_byte_deterministic(tmp_path, capsys):
    config = write_config(tmp_path, n=100, update_length=4, iters=3)
    rec1, rec2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    sum1, sum2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert main(["run", "--config", config, "--records-out", str(rec1),
                 "--summary-out", str(sum1)]) == 0
    assert main(["run", "--config", config, "--records-out", str(rec2),
                 "--summary-out", str(sum2)]) == 0
    assert rec1.read_bytes() == rec2.read_bytes()
    assert sum1.read_bytes() == sum2.read_bytes()
    printed = capsys.readouterr().out.splitlines()
    assert json.loads(printed[-1])["schema_version"] == SCHEMA_VERSION
    first = json.loads(rec1.read_text().splitlines()[0])
    assert first["trial"] == 0


def test_cli_run_consumes_generated_files(tmp_path):
    config = write_config(tmp_path, n=40, dim=2, update_length=4, iters=3)
    csv_path = tmp_path / "d.csv"
    upd_path = tmp_path / "u.jsonl"
    assert main(["gen-data", "--out", str(csv_path), "--n", "40",
                 "--dim", "2"]) == 0
    assert main(["gen-updates", "--data", str(csv_path), "--out",
                 str(upd_path), "--length", "4"]) == 0
    records = tmp_path / "r.jsonl"
    code = main(["run", "--config", config, "--records-out", str(records),
                 "--data-path", str(csv_path), "--updates-path",
                 str(upd_path)])
    assert code == 0
    lines = records.read_text().splitlines()
    assert len(lines) == 5


def test_cli_report_rebuilds_the_summary(tmp_path):
    config = write_config(tmp_path, n=100, update_length=4, iters=3)
    records = tmp_path / "r.jsonl"
    summary = tmp_path / "s.json"
    assert main(["run", "--config", config, "--records-out", str(records),
                 "--summary-out", str(summary)]) == 0
    rebuilt = tmp_path / "s2.json"
    assert main(["report", "--records", str(records), "--summary-out",
                 str(rebuilt)]) == 0
    assert rebuilt.read_bytes() == summary.read_bytes()


def test_cli_baseline_prints_the_cost_ratio(tmp_path, capsys):
    config = write_config(tmp_path, n=200, update_length=3, iters=5)
    records = tmp_path / "b.jsonl"
    assert main(["baseline", "--config", config, "--records-out",
                 str(records)]) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert out["rounds"] == 3
    assert out["mean_iters_ratio"] >= 1.0


def test_cli_certify_round_trip(tmp_path):
    config = write_config(tmp_path, n=120, update_length=4, iters=3)
    out = tmp_path / "cert.json"
    assert main(["certify", "--config", config, "--cert-trials", "1",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True


def test_cli_certify_failure_exits_two(tmp_path, monkeypatch):
    def failing(config, trials=None):
        return {"mode": config.mode, "max_gap": 1.0, "gap_bound": 0.5,
                "certified_epsilon": 9.0, "calibration_epsilon": 9.0,
                "epsilon": 1.0, "frequency_observed": 0.0, "passed": False,
                "violations": [{"trial": 0, "round": 1}]}

    monkeypatch.setattr("unlearn.cli.verify_unlearning_certificate", failing)
    config = write_config(tmp_path, n=100, update_length=2, iters=3)
    assert main(["certify", "--config", config]) == 2


def test_cli_invalid_inputs_exit_three(tmp_path, capsys):
    assert main(["run", "--records-out", str(tmp_path / "r.jsonl"),
                 "--mode", "bogus"]) == 3
    assert main(["run"]) == 3  # missing required flag
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad), "--records-out",
                 str(tmp_path / "r.jsonl")]) == 3
    typed = write_config(tmp_path, n="200")
    assert main(["run", "--config", typed, "--records-out",
                 str(tmp_path / "r.jsonl")]) == 3
    assert main(["gen-data", "--out", str(tmp_path / "d.csv"),
                 "--model", "cubic"]) == 3
    updates = tmp_path / "u.jsonl"
    updates.write_text('{"op":"add","x":[[0.1,0.0,0.0]],"y":0.0}\n')
    capsys.readouterr()
    assert main(["run", "--records-out", str(tmp_path / "r.jsonl"), "--n",
                 "60", "--dim", "3", "--updates-path", str(updates)]) == 3
    assert "malformed update at line 1" in capsys.readouterr().err


def test_cli_rejects_a_logistic_add_with_a_bad_label(tmp_path):
    flags = ["run", "--records-out", str(tmp_path / "r.jsonl"), "--n", "60",
             "--dim", "3", "--loss-kind", "logistic", "--data-model",
             "logistic", "--updates-path"]
    for label, code in ((1.0, 0), (0.5, 3)):
        path = tmp_path / f"u{label}.jsonl"
        path.write_text(json.dumps({"op": "add", "x": [0.1, 0.0, 0.0],
                                    "y": label}) + "\n")
        assert main(flags + [str(path)]) == code


def test_cli_io_failures_exit_four(tmp_path):
    config = write_config(tmp_path, n=100, update_length=2, iters=3)
    assert main(["run", "--config", config, "--records-out",
                 "/nonexistent-dir/r.jsonl"]) == 4
    assert main(["report", "--records", str(tmp_path / "missing.jsonl")]) == 4
