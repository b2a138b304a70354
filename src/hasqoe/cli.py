"""Command-line interface.

Subcommands: ``predict`` (score sessions with a weight file), ``fit``
(estimate weights from a labeled dataset), ``evaluate`` (PCC/RMSE,
optionally under the repeated split protocol), ``gen`` (synthesize
datasets).  Exit codes: 0 success, 1 usage or parse failure, 2 domain
validation failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import io
from .errors import DegenerateMetricError, UsageError, ValidationError
from .evaluation import (
    LinearModel,
    SplitProtocol,
    _finite,
    baseline_runner,
    evaluate_predictions,
    fixed_weights_runner,
    refit_runner,
    run_split_protocol,
)
from .fitting import LabeledDataset, fit
from .model import feature_matrix, predict_matrix
from .synth import GeneratorConfig, generate_labeled_dataset, generate_sessions

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _emit(text: str, output: str | None) -> None:
    if output:
        io.atomic_write_text(output, text)
    else:
        sys.stdout.write(text)


def _read_input(spec: str):
    """The columns of a session file, or of the bundled demo trace for ``"example"``."""
    if spec == "example":
        return io.example_dataset()
    return io.read_dataset(spec)


def cmd_predict(args) -> None:
    weights = io.read_weights(args.weights)
    batch, _, _ = _read_input(args.input)
    features = feature_matrix(batch)
    values = _finite(predict_matrix(features, weights)).tolist()
    if args.format == "json":
        payload = [{"index": k, "prediction": value} for k, value in enumerate(values)]
        if args.features:
            for record, row in zip(payload, features.tolist()):
                record["features"] = row
        _emit(json.dumps(payload, indent=2, allow_nan=False) + "\n", args.output)
    else:
        _emit(
            io.predictions_csv_text(values, features if args.features else None),
            args.output,
        )


def cmd_fit(args) -> None:
    dataset = LabeledDataset.from_columns(*io.read_dataset(args.input))
    report = fit(dataset, nonnegative=args.nonnegative)
    io.write_weights(report.weights, args.output)
    if args.report:
        io.write_json(report.to_dict(), args.report)
    else:
        sys.stdout.write(json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n")


def _linear_model(args) -> LinearModel:
    if args.weights is not None:
        return fixed_weights_runner(io.read_weights(args.weights))
    if args.refit:
        return refit_runner(nonnegative=args.nonnegative)
    if args.coefficients:
        return baseline_runner(args.baseline, io.read_baseline_coefficients(args.coefficients))
    return baseline_runner(args.baseline)


def _external_predictions(path: str, n_sessions: int) -> list[float]:
    table = io.read_external_predictions(path)
    ids = set(range(n_sessions))
    for problem, bad in (("missing", ids - set(table)), ("name unknown", set(table) - ids)):
        if bad:
            raise UsageError(f"external predictions {problem} session ids {sorted(bad)[:5]}")
    predictions = [table[k] for k in range(n_sessions)]
    not_finite = [k for k, value in enumerate(predictions) if not math.isfinite(value)]
    if not_finite:
        raise UsageError(f"external predictions for session ids {not_finite[:5]} are not finite")
    return predictions


#: The split-protocol flags of ``evaluate`` with their defaults.  The
#: parser leaves them None, so that one given without --splits is an error
#: rather than ignored.
_PROTOCOL_DEFAULTS = {"test_size": 90, "test_pool": "multi-factor", "seed": 0, "compensate_on": "train"}


def cmd_evaluate(args) -> None:
    dataset = LabeledDataset.from_columns(*io.read_dataset(args.input))
    truths = dataset.labels()
    compensate = not args.no_compensation

    if args.coefficients is not None and args.baseline is None:
        raise UsageError("--coefficients only makes sense with --baseline")
    if args.nonnegative and not args.refit:
        raise UsageError("--nonnegative only makes sense with --refit")

    given = {name: getattr(args, name) for name in _PROTOCOL_DEFAULTS
             if getattr(args, name) is not None}
    if args.splits is not None:
        if args.external_predictions:
            raise UsageError("--external-predictions cannot be combined with --splits")
        options = {**_PROTOCOL_DEFAULTS, **given}
        protocol = SplitProtocol(
            n_repetitions=args.splits,
            test_size=options["test_size"],
            test_pool=options["test_pool"],
            rng_seed=options["seed"],
        )
        report = run_split_protocol(
            dataset,
            protocol,
            _linear_model(args),
            compensate=compensate,
            compensation_on=options["compensate_on"],
        )
    else:
        if args.refit:
            raise UsageError("--refit only makes sense with --splits")
        if given:
            flags = ", ".join(f"--{name.replace('_', '-')}" for name in given)
            raise UsageError(f"{flags} only make sense with --splits")
        if args.external_predictions is not None:
            predictions = _external_predictions(args.external_predictions, len(dataset))
        else:
            model = _linear_model(args)
            predictions = model.fit_predict(model.matrix(dataset.batch), truths)
        report = evaluate_predictions(predictions, truths, compensate=compensate)

    if args.format == "csv":
        _emit(io.per_split_csv_text(report), args.output)
    else:
        _emit(json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n", args.output)


def cmd_gen(args) -> None:
    if not args.weights and (args.noise_std != 0.0 or args.skip_clamped):
        raise UsageError("--noise-std and --skip-clamped only make sense with --weights")
    config = (
        io.read_generator_config(args.config) if args.config else GeneratorConfig()
    )
    if args.seed is not None:
        config = dataclasses.replace(config, rng_seed=args.seed)
    if args.weights:
        weights = io.read_weights(args.weights)
        dataset = generate_labeled_dataset(
            config,
            args.count,
            weights,
            noise_std=args.noise_std,
            skip_clamped=args.skip_clamped,
        )
        sessions = dataset.sessions
    else:
        sessions = generate_sessions(config, args.count)
    io.write_dataset(sessions, args.output)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hasqoe",
        description="Histogram-based QoE modeling for HTTP adaptive streaming sessions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="predict session MOS with a weight file")
    p.add_argument("--input", required=True,
                   help="session or dataset JSON ('example' for the bundled demo trace)")
    p.add_argument("--weights", required=True,
                   help="weights JSON file, or 'paper' for the bundled reference set")
    p.add_argument("--output", help="output file (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--features", action="store_true",
                   help="include the 22 histogram features per session")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("fit", help="fit the 22 weights to a labeled dataset")
    p.add_argument("--input", required=True, help="labeled dataset JSON")
    p.add_argument("--output", required=True, help="where to write the weights JSON")
    p.add_argument("--report", help="where to write the fit report JSON (default: stdout)")
    p.add_argument("--nonnegative", action="store_true",
                   help="constrain all weights to be non-negative")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("--input", required=True, help="labeled dataset JSON")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--weights", help="weights JSON file or 'paper'")
    mode.add_argument("--refit", action="store_true",
                      help="refit the model on each training split (requires --splits)")
    mode.add_argument("--baseline", choices=("guo", "vriendt", "liu"),
                      help="evaluate a comparison model instead")
    mode.add_argument("--external-predictions",
                      help="CSV of precomputed 'session-id,predicted-mos' rows")
    p.add_argument("--coefficients",
                   help="baseline coefficients JSON (fitted from data when omitted)")
    p.add_argument("--splits", type=int,
                   help="run the repeated random train/test protocol with this many repetitions")
    defaults = _PROTOCOL_DEFAULTS
    p.add_argument("--test-size", type=int,
                   help=f"test sessions per split "
                        f"(default: {defaults['test_size']}; only with --splits)")
    p.add_argument("--test-pool",
                   help=f"session tag test sets are drawn from, or 'all' "
                        f"(default: {defaults['test_pool']}; only with --splits)")
    p.add_argument("--seed", type=int,
                   help=f"protocol RNG seed (default: {defaults['seed']}; only with --splits)")
    p.add_argument("--no-compensation", action="store_true",
                   help="skip the first-order linear compensation")
    p.add_argument("--compensate-on", choices=("train", "test"),
                   help=f"portion the compensation line is fitted on "
                        f"(default: {defaults['compensate_on']}; only with --splits)")
    p.add_argument("--nonnegative", action="store_true",
                   help="with --refit, constrain fitted weights to be non-negative")
    p.add_argument("--output", help="report file (default: stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="csv writes the per-split metric table")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--count", type=int, required=True, help="number of sessions")
    p.add_argument("--output", required=True, help="dataset file to write")
    p.add_argument("--config", help="generator config JSON")
    p.add_argument("--seed", type=int, help="override the config RNG seed")
    p.add_argument("--weights",
                   help="label sessions with this weight file ('paper' for the bundled set)")
    p.add_argument("--noise-std", type=float, default=0.0,
                   help="Gaussian label noise (only with --weights)")
    p.add_argument("--skip-clamped", action="store_true",
                   help="regenerate sessions whose raw score falls below 1.0 MOS")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DegenerateMetricError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
