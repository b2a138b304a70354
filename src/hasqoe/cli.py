"""Command-line interface.

Subcommands: ``predict`` (score sessions with a weight file), ``fit``
(estimate weights from a labeled dataset), ``evaluate`` (PCC/RMSE,
optionally under the repeated split protocol), ``gen`` (synthesize
datasets).  Exit codes: 0 success, 1 usage, parse or out-of-memory
failure, 2 domain validation failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import io
from .baselines import MODEL_STATISTICS, BaselineCoefficients
from .errors import DegenerateMetricError, UsageError, ValidationError
from .evaluation import SplitProtocol, evaluate_predictions, run_split_protocol
from .fitting import (
    LabeledDataset,
    LinearModel,
    baseline_runner,
    fit,
    fixed_weights_runner,
    refit_runner,
)
from .model import feature_matrix, predict_matrix
from .synth import GeneratorConfig, generate_columns

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _path(value: str) -> str:
    """A path flag's value: any but the empty string, which would read as the flag not given."""
    if not value:
        raise argparse.ArgumentTypeError("expected a path, got ''")
    return value


def _emit(text: str, output: str | None, files=()) -> None:
    """Write ``text`` to ``output`` (stdout if None) and each text of ``files`` by ``io.write_texts``."""
    files = dict(files)
    if output is not None:
        files[output] = text
    io.write_texts(files)
    if output is None:
        sys.stdout.write(text)


def cmd_predict(args) -> None:
    weights = io.read_weights(args.weights)
    features = feature_matrix(io.read_dataset(args.input))
    values = predict_matrix(features, weights).tolist()
    text = io.predictions_json_text if args.format == "json" else io.predictions_csv_text
    _emit(text(values, features if args.features else None), args.output)


def cmd_fit(args) -> None:
    if args.report is not None and os.path.realpath(args.report) == os.path.realpath(args.output):
        raise UsageError(f"--report {args.report} and --output {args.output} name the same file")
    dataset = LabeledDataset(io.read_dataset(args.input))
    report = fit(dataset, nonnegative=args.nonnegative)
    _emit(io.json_text(report.to_dict()), args.report,
          {args.output: io.json_text(report.weights.to_dict())})


def _linear_model(args) -> LinearModel:
    if args.weights is not None:
        return fixed_weights_runner(io.read_weights(args.weights))
    if args.refit:
        return refit_runner(nonnegative=args.nonnegative)
    if args.coefficients is not None:
        return baseline_runner(args.baseline,
                               BaselineCoefficients.from_dict(io.read_json(args.coefficients)))
    return baseline_runner(args.baseline)


def _external_predictions(table: dict[int, float], n_sessions: int) -> list[float]:
    ids = set(range(n_sessions))
    for problem, bad in (("missing", ids - set(table)), ("name unknown", set(table) - ids)):
        if bad:
            raise UsageError(f"external predictions {problem} session ids {sorted(bad)[:5]}")
    predictions = [table[k] for k in range(n_sessions)]
    not_finite = [k for k, value in enumerate(predictions) if not math.isfinite(value)]
    if not_finite:
        raise UsageError(f"external predictions for session ids {not_finite[:5]} are not finite")
    return predictions


#: The split-protocol flags of ``evaluate`` with their defaults, those of
#: ``SplitProtocol`` and ``run_split_protocol``.  The parser leaves them None,
#: so that one given without --splits is an error rather than ignored.
_PROTOCOL_DEFAULTS = {"test_size": SplitProtocol.test_size, "test_pool": SplitProtocol.test_pool,
                      "seed": SplitProtocol.rng_seed,
                      "compensate_on": run_split_protocol.__kwdefaults__["compensation_on"]}


def cmd_evaluate(args) -> None:
    # The flags, then the model files, are checked before the input is read: no decoding is wasted.
    if args.coefficients is not None and args.baseline is None:
        raise UsageError("--coefficients only makes sense with --baseline")
    if args.nonnegative and not args.refit:
        raise UsageError("--nonnegative only makes sense with --refit")
    if args.no_compensation and args.compensate_on is not None:
        raise UsageError("--compensate-on cannot be combined with --no-compensation")
    if args.format == "csv" and args.external_predictions is not None:
        raise UsageError("--format csv cannot be combined with --external-predictions")
    given = {name: getattr(args, name) for name in _PROTOCOL_DEFAULTS
             if getattr(args, name) is not None}
    options = {**_PROTOCOL_DEFAULTS, **given}
    if args.splits is not None:
        if args.external_predictions is not None:
            raise UsageError("--external-predictions cannot be combined with --splits")
        protocol = SplitProtocol(
            n_repetitions=args.splits,
            test_size=options["test_size"],
            test_pool=options["test_pool"],
            rng_seed=options["seed"],
        )
    elif args.refit:
        raise UsageError("--refit only makes sense with --splits")
    elif args.format == "csv":
        raise UsageError("--format csv only makes sense with --splits")
    elif given:
        flags = ", ".join(f"--{name.replace('_', '-')}" for name in given)
        raise UsageError(f"{flags} only make sense with --splits")

    if args.external_predictions is not None:
        table = io.read_external_predictions(args.external_predictions)
    else:
        model = _linear_model(args)
    dataset = LabeledDataset(io.read_dataset(args.input))
    truths = dataset.labels()
    compensate = not args.no_compensation
    if args.splits is not None:
        report = run_split_protocol(
            dataset,
            protocol,
            model,
            compensate=compensate,
            compensation_on=options["compensate_on"],
        )
    else:
        if len(dataset) < 2:
            raise UsageError(f"evaluate needs at least 2 labeled sessions, got {len(dataset)}")
        if args.external_predictions is not None:
            predictions = _external_predictions(table, len(dataset))
        else:
            matrix = model.matrix(dataset.batch)
            predictions = model.predict(matrix, model.fit(matrix, truths)[0])
        report = evaluate_predictions(predictions, truths, compensate=compensate)

    text = io.per_split_csv_text(report) if args.format == "csv" else io.json_text(report.to_dict())
    _emit(text, args.output)


def cmd_gen(args) -> None:
    if args.weights is None and (args.noise_std != 0.0 or args.skip_clamped):
        raise UsageError("--noise-std and --skip-clamped only make sense with --weights")
    config = (GeneratorConfig.from_dict(io.read_json(args.config)) if args.config is not None
              else GeneratorConfig())
    if args.seed is not None:
        config = dataclasses.replace(config, rng_seed=args.seed)
    weights = io.read_weights(args.weights) if args.weights is not None else None
    io.write_dataset(generate_columns(config, args.count, weights, noise_std=args.noise_std,
                                      skip_clamped=args.skip_clamped), args.output)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hasqoe",
        description="Histogram-based QoE modeling for HTTP adaptive streaming sessions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="predict session MOS with a weight file")
    p.add_argument("--input", type=_path, required=True,
                   help="session or dataset JSON ('example' for the bundled demo trace)")
    p.add_argument("--weights", type=_path, required=True,
                   help="weights JSON file, or 'paper' for the bundled reference set")
    p.add_argument("--output", type=_path, help="output file (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--features", action="store_true",
                   help="include the 22 histogram features per session")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("fit", help="fit the 22 weights to a labeled dataset")
    p.add_argument("--input", type=_path, required=True, help="labeled dataset JSON")
    p.add_argument("--output", type=_path, required=True, help="where to write the weights JSON")
    p.add_argument("--report", type=_path,
                   help="where to write the fit report JSON (default: stdout)")
    p.add_argument("--nonnegative", action="store_true",
                   help="constrain all weights to be non-negative")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("--input", type=_path, required=True, help="labeled dataset JSON")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--weights", type=_path, help="weights JSON file or 'paper'")
    mode.add_argument("--refit", action="store_true",
                      help="refit the model on each training split (requires --splits)")
    mode.add_argument("--baseline", choices=tuple(MODEL_STATISTICS),
                      help="evaluate a comparison model instead")
    mode.add_argument("--external-predictions", type=_path,
                      help="CSV of precomputed 'session-id,predicted-mos' rows")
    p.add_argument("--coefficients", type=_path,
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
    p.add_argument("--output", type=_path, help="report file (default: stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="csv writes the per-split metric table")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--count", type=int, required=True, help="number of sessions")
    p.add_argument("--output", type=_path, required=True, help="dataset file to write")
    p.add_argument("--config", type=_path, help="generator config JSON")
    p.add_argument("--seed", type=int, help="override the config RNG seed")
    p.add_argument("--weights", type=_path,
                   help="label sessions with this weight file ('paper' for the bundled set)")
    p.add_argument("--noise-std", type=float, default=0.0,
                   help="Gaussian label noise (only with --weights)")
    p.add_argument("--skip-clamped", action="store_true",
                   help="regenerate sessions whose raw score falls below 1.0 MOS")
    p.set_defaults(func=cmd_gen)

    return parser


#: The exit code of each failure that ``main`` reports as one ``error:`` line.
_EXIT_CODES = {UsageError: EXIT_USAGE, OSError: EXIT_USAGE, MemoryError: EXIT_USAGE,
               ValidationError: EXIT_VALIDATION,
               DegenerateMetricError: EXIT_NUMERICAL, np.linalg.LinAlgError: EXIT_NUMERICAL}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # Every overflow is caught by a finiteness check, which reports it as one line.
        with np.errstate(over="ignore", invalid="ignore"):
            args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
