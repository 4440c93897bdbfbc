"""Command-line entry points.

Subcommands:
    gen-data      write a synthetic dataset as CSV
    gen-updates   write an edit stream as JSONL
    train         learn on a dataset and save the state snapshot
    run           learn plus the full edit stream, emit records + summary
    baseline      retrain-from-scratch cost comparison
    certify       verify the indistinguishability certificate
    report        rebuild a summary from an existing records file

Configs are flat JSON objects; every key can be overridden by the flag
of the same name (dashes for underscores). Relative output paths are
placed under $UNLEARN_OUT_DIR when it is set.

Exit codes: 0 success, 2 certificate failure, 3 invalid configuration
or arguments, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields

import numpy as np

from . import core
from .data import Dataset, gen_adversarial_sequence, gen_synthetic_dataset, \
    save_updates
from .harness import (CertificateError, ExperimentConfig, emit_report,
                      load_summary, prepare, run_chain, run_retrain_baseline,
                      trial_seed, verify_unlearning_certificate)

EXIT_OK = 0
EXIT_CERTIFICATE = 2
EXIT_CONFIG = 3
EXIT_IO = 4


class _Parser(argparse.ArgumentParser):
    # Usage problems are configuration problems; keep exit code 2 for
    # certificate failures only.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _out_path(path: str) -> str:
    base = os.environ.get("UNLEARN_OUT_DIR")
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, path)
    return path


_FLAG_TYPES = {
    "int": int, "float": float, "str": str,
    "int | None": int, "float | None": float, "str | None": str,
}


def _config_flags(sub: argparse.ArgumentParser):
    for f in fields(ExperimentConfig):
        caster = _FLAG_TYPES.get(str(f.type), str)
        sub.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name,
                         type=caster, default=None,
                         help=f"override config key {f.name!r}")


def _load_config(args) -> ExperimentConfig:
    mapping = {}
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config must be a JSON object")
        mapping.update(loaded)
    config = ExperimentConfig.from_mapping(mapping)
    overrides = {f.name: getattr(args, f.name, None)
                 for f in fields(ExperimentConfig)}
    return config.override(**overrides)


def _write_json(obj, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
        fh.write("\n")


def _cmd_gen_data(args) -> int:
    data = gen_synthetic_dataset(
        args.n, args.dim, model=args.model, noise=args.noise,
        feature_bound=args.feature_bound, label_bound=args.label_bound,
        seed=args.seed)
    data.to_csv(_out_path(args.out))
    return EXIT_OK


def _cmd_gen_updates(args) -> int:
    data = Dataset.from_csv(args.data, args.feature_bound, args.label_bound)
    seq = gen_adversarial_sequence(data, args.length, strategy=args.strategy,
                                   seed=args.seed)
    save_updates(seq, _out_path(args.out))
    return EXIT_OK


def _cmd_train(args) -> int:
    config = _load_config(args)
    data, loss, _ = prepare(config, 0)
    state = core.learn(data, loss, config.core_config(),
                       seed=trial_seed(config.seed, 0))
    _write_json(state.snapshot(), _out_path(args.state_out))
    return EXIT_OK


def _cmd_run(args) -> int:
    config = _load_config(args)
    records = []
    for trial in range(config.trials):
        for rec in run_chain(config, trial=trial,
                             compute_gap=args.with_gap):
            rec = rec.to_dict(include_timings=args.timings)
            rec["trial"] = trial
            records.append(rec)
    summary = emit_report(records, _out_path(args.records_out),
                          _out_path(args.summary_out) if args.summary_out
                          else None,
                          include_timings=args.timings)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def _cmd_baseline(args) -> int:
    config = _load_config(args)
    records = run_retrain_baseline(config, target_alpha=args.alpha)
    emit_report(records, _out_path(args.records_out))
    ratios = [r["iters_ratio"] for r in records[1:]]
    print(json.dumps({
        "rounds": len(records) - 1,
        "baseline_iters": records[0]["baseline_iters"],
        "mean_iters_ratio": float(np.mean(ratios)) if ratios else None,
    }, sort_keys=True))
    return EXIT_OK


def _cmd_certify(args) -> int:
    config = _load_config(args)
    report = verify_unlearning_certificate(config, trials=args.cert_trials)
    if args.out:
        _write_json(report, _out_path(args.out))
    print(json.dumps({k: report[k] for k in
                      ("mode", "max_gap", "gap_bound", "certified_epsilon",
                       "calibration_epsilon", "epsilon",
                       "frequency_observed", "passed")},
                     sort_keys=True))
    if not report["passed"]:
        offenders = report["violations"][:3]
        raise CertificateError(f"certificate failed; first violations: "
                               f"{offenders}")
    return EXIT_OK


def _cmd_report(args) -> int:
    summary = load_summary(args.records)
    if args.summary_out:
        _write_json(summary, _out_path(args.summary_out))
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="unlearn", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--dim", type=int, default=5)
    p.add_argument("--model", choices=("linear", "logistic"),
                   default="linear")
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--feature-bound", type=float, default=1.0)
    p.add_argument("--label-bound", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("gen-updates", help="write an edit stream JSONL")
    p.add_argument("--data", required=True, help="dataset CSV to edit")
    p.add_argument("--out", required=True)
    p.add_argument("--length", type=int, default=20)
    p.add_argument("--strategy",
                   choices=("churn", "drift", "random", "deletes"),
                   default="churn")
    p.add_argument("--feature-bound", type=float, default=1.0)
    p.add_argument("--label-bound", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen_updates)

    p = sub.add_parser("train", help="learn and save a state snapshot")
    p.add_argument("--config")
    p.add_argument("--state-out", required=True)
    _config_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("run", help="run the full chain and emit reports")
    p.add_argument("--config")
    p.add_argument("--records-out", required=True)
    p.add_argument("--summary-out")
    p.add_argument("--with-gap", action="store_true",
                   help="also measure the retrain mean gap each round")
    p.add_argument("--timings", action="store_true",
                   help="include wall times (breaks byte determinism)")
    _config_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("baseline", help="retrain-from-scratch comparison")
    p.add_argument("--config")
    p.add_argument("--records-out", required=True)
    p.add_argument("--alpha", type=float, default=None,
                   help="target accuracy; default matches training")
    _config_flags(p)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("certify", help="verify the deletion certificate")
    p.add_argument("--config")
    p.add_argument("--cert-trials", type=int, default=None)
    p.add_argument("--out")
    _config_flags(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("report", help="summarize an existing records file")
    p.add_argument("--records", required=True)
    p.add_argument("--summary-out")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("UNLEARN_LOG", "WARNING"))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
