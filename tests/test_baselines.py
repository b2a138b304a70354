import numpy as np
import pytest

from hasqoe import (
    MODEL_STATISTICS,
    BaselineCoefficients,
    GeneratorConfig,
    InterruptionEvent,
    LabeledDataset,
    SessionTrace,
    UsageError,
    baseline_runner,
    extract_baseline_features,
    fit_baseline_coefficients,
    generate_labeled_dataset,
    generate_sessions,
    paper_weights,
)


def predict_all(model, sessions) -> np.ndarray:
    """Predictions of a baseline model with fixed coefficients (no labels needed)."""
    every_row = np.ones(len(sessions), dtype=bool)
    return model.fit_predict(model.matrix(sessions), np.zeros(len(sessions)), every_row)


def test_statistics_of_stepped_session() -> None:
    stats = extract_baseline_features(SessionTrace((5.0, 5.0, 3.0, 3.0)))
    assert stats.median_quality == 4.0
    assert stats.min_quality == 3.0
    assert stats.switch_count == 1  # only the 5->3 boundary rounds to a nonzero bin
    assert stats.mean_quality == 4.0
    assert stats.std_quality == 1.0  # population standard deviation
    assert stats.weighted_quality_sum == 4.0
    assert stats.mean_sq_down_amplitude == 4.0
    assert stats.stall_duration_sum == 0.0
    assert stats.stall_count == 0


def test_statistics_of_constant_session_with_stalls() -> None:
    trace = SessionTrace(
        (4.0, 4.0, 4.0),
        (InterruptionEvent(1, 0.5), InterruptionEvent(2, 2.0)),
    )
    stats = extract_baseline_features(trace)
    assert stats.switch_count == 0
    assert stats.std_quality == 0.0
    assert stats.mean_sq_down_amplitude == 0.0
    assert stats.stall_duration_sum == 2.5
    assert stats.stall_count == 2


def test_sub_half_step_wobble_is_not_a_switch_but_counts_as_down_amplitude() -> None:
    stats = extract_baseline_features(SessionTrace((4.0, 3.7, 4.0)))
    assert stats.switch_count == 0
    # raw negative deltas feed the squared-amplitude statistic regardless
    # of their bin
    assert stats.mean_sq_down_amplitude == pytest.approx(0.3**2, abs=1e-12)


def test_quality_statistics_are_order_invariant() -> None:
    a = extract_baseline_features(SessionTrace((5.0, 1.0, 3.0, 3.0)))
    b = extract_baseline_features(SessionTrace((3.0, 5.0, 3.0, 1.0)))
    for name in ("median_quality", "min_quality", "mean_quality", "std_quality"):
        assert a.as_dict()[name] == b.as_dict()[name]


def test_mean_sq_down_amplitude_zero_iff_no_drops() -> None:
    for trace in generate_sessions(GeneratorConfig(rng_seed=31), 200):
        stats = extract_baseline_features(trace)
        has_drop = any(b < a for a, b in zip(trace.segments, trace.segments[1:]))
        assert (stats.mean_sq_down_amplitude > 0.0) == has_drop


def test_baseline_predict_identity_on_mean() -> None:
    model = baseline_runner(
        "vriendt", BaselineCoefficients("vriendt", {"mean_quality": 1.0}, 0.0)
    )
    assert predict_all(model, [SessionTrace((4.0, 4.0, 4.0))]).tolist() == [4.0]


def test_baseline_predict_clamps_to_mos_scale() -> None:
    sessions = [SessionTrace((4.0, 4.0))]
    low = baseline_runner("guo", BaselineCoefficients("guo", {}, 0.0))
    high = baseline_runner("guo", BaselineCoefficients("guo", {}, 9.0))
    assert predict_all(low, sessions).tolist() == [1.0]
    assert predict_all(high, sessions).tolist() == [5.0]


def test_baseline_predict_rejects_unknown_statistic() -> None:
    model = baseline_runner("guo", BaselineCoefficients("guo", {"sharpness": 1.0}, 0.0))
    with pytest.raises(UsageError, match="unknown statistic"):
        predict_all(model, [SessionTrace((4.0, 4.0))])


def test_coefficients_round_trip() -> None:
    coefficients = BaselineCoefficients("liu", {"stall_count": -0.5}, 3.9)
    assert BaselineCoefficients.from_dict(coefficients.to_dict()) == coefficients
    with pytest.raises(UsageError):
        BaselineCoefficients.from_dict({"model": "liu"})


def test_fit_baseline_coefficients_recovers_a_linear_rule() -> None:
    # label sessions by a known linear rule of the guo statistics, then
    # recover it
    sessions = generate_sessions(GeneratorConfig(rng_seed=37), 120)
    rule = BaselineCoefficients("guo", {"median_quality": 0.5, "min_quality": 0.25}, 0.5)
    labeled = LabeledDataset(
        tuple(
            SessionTrace(
                s.segments,
                s.interruptions,
                ground_truth_mos=sum(
                    c * extract_baseline_features(s).as_dict()[n]
                    for n, c in rule.coefficients.items()
                )
                + rule.intercept,
                tag=s.tag,
            )
            for s in sessions
        )
    )
    fitted = fit_baseline_coefficients(labeled, "guo")
    assert fitted.coefficients["median_quality"] == pytest.approx(0.5, abs=1e-9)
    assert fitted.coefficients["min_quality"] == pytest.approx(0.25, abs=1e-9)
    assert fitted.intercept == pytest.approx(0.5, abs=1e-9)


def test_fit_baseline_rejects_unknown_model() -> None:
    dataset = generate_labeled_dataset(GeneratorConfig(rng_seed=3), 30, paper_weights())
    with pytest.raises(UsageError, match="unknown baseline model"):
        fit_baseline_coefficients(dataset, "p1203")


def test_fit_then_predict_is_bit_stable() -> None:
    dataset = generate_labeled_dataset(GeneratorConfig(rng_seed=41), 80, paper_weights())
    model = baseline_runner("vriendt", fit_baseline_coefficients(dataset, "vriendt"))
    first = predict_all(model, dataset.sessions)
    second = predict_all(model, dataset.sessions)
    assert first.tolist() == second.tolist()


def test_baseline_runner_fits_on_train_when_no_coefficients() -> None:
    dataset = generate_labeled_dataset(GeneratorConfig(rng_seed=43), 60, paper_weights())
    model = baseline_runner("liu")
    assert model.weights is None
    train = np.arange(60) >= 10
    values = model.fit_predict(model.matrix(dataset.sessions), dataset.labels(), train)
    assert values.shape == (60,)
    assert np.all((values >= 1.0) & (values <= 5.0))
    # the refit uses the training rows only
    fitted = fit_baseline_coefficients(LabeledDataset(dataset.sessions[10:]), "liu")
    expected = predict_all(baseline_runner("liu", fitted), dataset.sessions)
    assert np.abs(values - expected).max() < 1e-12


def test_model_statistics_cover_all_feature_names() -> None:
    stats = extract_baseline_features(SessionTrace((4.0, 4.0))).as_dict()
    for names in MODEL_STATISTICS.values():
        for name in names:
            assert name in stats
