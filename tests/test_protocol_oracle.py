"""Differential test: the statistic-matrix protocol against a per-session oracle.

The oracle is the split loop the protocol used before it built one
statistic matrix per dataset: every split rebuilds its training set,
fits it (``fit`` or ``fit_baseline_coefficients``) and predicts session
by session (``predict``, or the intercept plus the sum of coefficient
times statistic, clamped to [1, 5], with the statistics of
``test_baselines.scalar_baseline_statistics``), predicting the training
sessions again when compensating on them.  Sums run in another order than the
matrix product, so per-split metrics must agree within 1e-12, not
bit for bit.
"""

import numpy as np
import pytest

from hasqoe import (
    MODEL_STATISTICS,
    GeneratorConfig,
    LabeledDataset,
    SplitProtocol,
    baseline_runner,
    fit,
    fit_baseline_coefficients,
    fixed_weights_runner,
    generate_labeled_dataset,
    linear_compensate,
    paper_weights,
    pcc,
    predict,
    refit_runner,
    rmse,
    run_split_protocol,
)
from hasqoe.model import MAX_MOS, MIN_MOS
from test_baselines import scalar_baseline_statistics


def weights_predictor(weights):
    def predictor(sessions) -> np.ndarray:
        return np.array([predict(s, weights) for s in sessions], dtype=float)

    return predictor


def coefficients_predictor(coefficients):
    def predictor(sessions) -> np.ndarray:
        values = []
        for session in sessions:
            stats = scalar_baseline_statistics(session)
            total = coefficients.intercept
            for name, coefficient in coefficients.coefficients.items():
                total += coefficient * stats[name]
            values.append(min(max(float(total), MIN_MOS), MAX_MOS))
        return np.array(values, dtype=float)

    return predictor


def oracle_protocol(dataset, protocol, runner, compensation_on):
    sessions = dataset.sessions
    pool = [
        k
        for k, s in enumerate(sessions)
        if protocol.test_pool == "all" or s.tag == protocol.test_pool
    ]
    substreams = np.random.SeedSequence(protocol.rng_seed).spawn(protocol.n_repetitions)
    per_split = []
    for substream in substreams:
        rng = np.random.default_rng(substream)
        drawn = rng.choice(pool, size=protocol.test_size, replace=False)
        test_indices = frozenset(int(i) for i in drawn)
        train_sessions = tuple(s for m, s in enumerate(sessions) if m not in test_indices)
        test_sessions = tuple(sessions[m] for m in sorted(test_indices))

        predictor = runner(LabeledDataset(train_sessions))
        predictions = predictor(test_sessions)
        truths = np.array([s.ground_truth_mos for s in test_sessions], dtype=float)

        slope = intercept = None
        if compensation_on is not None:
            if compensation_on == "train":
                reference = predictor(train_sessions)
                reference_truths = np.array(
                    [s.ground_truth_mos for s in train_sessions], dtype=float
                )
            else:
                reference, reference_truths = predictions, truths
            slope, intercept, _ = linear_compensate(reference, reference_truths)
            predictions = slope * predictions + intercept
        per_split.append((pcc(predictions, truths), rmse(predictions, truths), slope, intercept))
    return per_split


@pytest.fixture(scope="module")
def dataset() -> LabeledDataset:
    return generate_labeled_dataset(
        GeneratorConfig(rng_seed=51), 160, paper_weights(), noise_std=0.2
    )


@pytest.fixture(scope="module")
def models(dataset) -> dict:
    """(library model, oracle runner) for every model the protocol serves."""
    weights = paper_weights()
    cases = {
        "refit": (
            refit_runner(),
            lambda train: weights_predictor(fit(train).weights),
        ),
        "refit-nonnegative": (
            refit_runner(nonnegative=True),
            lambda train: weights_predictor(fit(train, nonnegative=True).weights),
        ),
        "paper-weights": (
            fixed_weights_runner(weights),
            lambda train: weights_predictor(weights),
        ),
    }
    for name in MODEL_STATISTICS:
        fixed = fit_baseline_coefficients(dataset, name)
        cases[f"{name}-fitted"] = (
            baseline_runner(name),
            lambda train, name=name: coefficients_predictor(
                fit_baseline_coefficients(train, name)
            ),
        )
        cases[f"{name}-fixed"] = (
            baseline_runner(name, fixed),
            lambda train, fixed=fixed: coefficients_predictor(fixed),
        )
    return cases


MODEL_NAMES = (
    "refit", "refit-nonnegative", "paper-weights",
    *(f"{name}-{kind}" for name in MODEL_STATISTICS for kind in ("fitted", "fixed")),
)


@pytest.mark.filterwarnings("ignore:design matrix is rank-deficient")
@pytest.mark.parametrize("compensation_on", ["train", "test", None])
@pytest.mark.parametrize("model_name", MODEL_NAMES)
def test_protocol_matches_per_session_oracle(
    dataset, models, model_name, compensation_on
) -> None:
    model, runner = models[model_name]
    protocol = SplitProtocol(n_repetitions=4, test_size=30, test_pool="all", rng_seed=12)
    report = run_split_protocol(
        dataset,
        protocol,
        model,
        compensate=compensation_on is not None,
        compensation_on=compensation_on or "train",
    )
    expected = oracle_protocol(dataset, protocol, runner, compensation_on)
    assert len(report.per_split) == len(expected)
    for metrics, (want_pcc, want_rmse, want_slope, want_intercept) in zip(
        report.per_split, expected
    ):
        assert abs(metrics.pcc - want_pcc) <= 1e-12
        assert abs(metrics.rmse - want_rmse) <= 1e-12
        if compensation_on is None:
            assert metrics.slope is None and metrics.intercept is None
        else:
            assert abs(metrics.slope - want_slope) <= 1e-12
            assert abs(metrics.intercept - want_intercept) <= 1e-12
