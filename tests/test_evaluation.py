import math

import numpy as np
import pytest

from hasqoe import (
    DegenerateMetricError,
    GeneratorConfig,
    LabeledDataset,
    SplitProtocol,
    UsageError,
    baseline_runner,
    evaluate_predictions,
    fixed_weights_runner,
    linear_compensate,
    paper_weights,
    pcc,
    predict,
    refit_runner,
    rmse,
    run_split_protocol,
    generate_labeled_dataset,
)
from hasqoe.evaluation import split_masks


def brute_force_pcc(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = math.sqrt(sum((x - mx) ** 2 for x in xs) * sum((y - my) ** 2 for y in ys))
    return num / den


def brute_force_rmse(xs, ys):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(xs, ys)) / len(xs))


def test_pcc_examples() -> None:
    assert pcc((1.0, 2.0, 3.0), (1.0, 2.0, 3.0)) == pytest.approx(1.0, abs=1e-12)
    assert pcc((1.0, 2.0, 3.0), (3.0, 2.0, 1.0)) == pytest.approx(-1.0, abs=1e-12)
    assert pcc((1.0, 2.0, 3.0), (2.0, 4.0, 6.0)) == pytest.approx(1.0, abs=1e-12)


def test_pcc_rejects_constant_sequences() -> None:
    with pytest.raises(DegenerateMetricError, match="predictions"):
        pcc((2.0, 2.0, 2.0), (1.0, 2.0, 3.0))
    with pytest.raises(DegenerateMetricError, match="truths"):
        pcc((1.0, 2.0, 3.0), (2.0, 2.0, 2.0))


def test_metric_input_validation() -> None:
    with pytest.raises(UsageError, match="mismatch"):
        pcc((1.0, 2.0), (1.0, 2.0, 3.0))
    with pytest.raises(UsageError):
        pcc((1.0,), (1.0,))
    with pytest.raises(UsageError, match="mismatch"):
        rmse((1.0, 2.0), (1.0,))


def test_rmse_examples() -> None:
    assert rmse((0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 3.0)) == pytest.approx(
        math.sqrt(3.0), abs=1e-12
    )
    assert rmse((2.5, 3.5), (2.5, 3.5)) == 0.0


def test_metrics_against_brute_force() -> None:
    rng = np.random.default_rng(2024)
    for _ in range(120):
        n = int(rng.integers(2, 40))
        xs = rng.uniform(1.0, 5.0, size=n)
        ys = xs + rng.normal(0.0, 0.5, size=n)
        assert pcc(xs, ys) == pytest.approx(brute_force_pcc(list(xs), list(ys)), abs=1e-10)
        assert rmse(xs, ys) == pytest.approx(brute_force_rmse(list(xs), list(ys)), abs=1e-10)


def test_pcc_invariant_under_positive_affine_maps() -> None:
    rng = np.random.default_rng(99)
    xs = rng.uniform(1.0, 5.0, size=50)
    ys = xs + rng.normal(0.0, 0.3, size=50)
    base = pcc(xs, ys)
    for scale, shift in ((2.0, 0.0), (0.5, 1.0), (10.0, -3.0)):
        assert pcc(scale * xs + shift, ys) == pytest.approx(base, abs=1e-12)


def test_linear_compensate_identity_and_offset() -> None:
    xs = (1.0, 2.0, 3.0, 4.0)
    slope, intercept, adjusted = linear_compensate(xs, xs)
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert intercept == pytest.approx(0.0, abs=1e-12)
    shifted = tuple(x + 0.5 for x in xs)
    slope, intercept, adjusted = linear_compensate(xs, shifted)
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert intercept == pytest.approx(0.5, abs=1e-12)
    assert rmse(adjusted, shifted) == pytest.approx(0.0, abs=1e-12)


def test_linear_compensate_matches_brute_force_and_never_hurts() -> None:
    rng = np.random.default_rng(7)
    for _ in range(120):
        n = int(rng.integers(3, 60))
        xs = rng.uniform(1.0, 5.0, size=n)
        ys = 0.7 * xs + 0.9 + rng.normal(0.0, 0.4, size=n)
        slope, intercept, adjusted = linear_compensate(xs, ys)
        mx, my = xs.mean(), ys.mean()
        expected_slope = float(((xs - mx) * (ys - my)).sum() / ((xs - mx) ** 2).sum())
        assert slope == pytest.approx(expected_slope, abs=1e-10)
        assert intercept == pytest.approx(my - expected_slope * mx, abs=1e-10)
        assert rmse(adjusted, ys) <= rmse(xs, ys) + 1e-12
        if abs(pcc(xs, ys)) > 1e-6 and slope > 0:
            assert pcc(adjusted, ys) == pytest.approx(pcc(xs, ys), abs=1e-12)


def test_linear_compensate_rejects_constant_predictions() -> None:
    with pytest.raises(DegenerateMetricError):
        linear_compensate((2.0, 2.0, 2.0), (1.0, 2.0, 3.0))


def test_evaluate_predictions_report_shape() -> None:
    report = evaluate_predictions((1.0, 2.0, 3.0), (1.1, 2.1, 3.3), compensate=True)
    assert report.slope is not None
    assert "slope" in report.to_dict()
    plain = evaluate_predictions((1.0, 2.0, 3.0), (1.1, 2.1, 3.3))
    assert plain.slope is None
    assert "slope" not in plain.to_dict()
    assert set(plain.to_dict()) == {"pcc", "rmse"}


@pytest.fixture(scope="module")
def dataset() -> LabeledDataset:
    return generate_labeled_dataset(
        GeneratorConfig(rng_seed=51), 160, paper_weights(), noise_std=0.2
    )


def test_protocol_is_deterministic(dataset) -> None:
    protocol = SplitProtocol(n_repetitions=5, test_size=30, test_pool="all", rng_seed=9)
    runner = fixed_weights_runner(paper_weights())
    assert run_split_protocol(dataset, protocol, runner) == run_split_protocol(
        dataset, protocol, runner
    )
    other_seed = SplitProtocol(n_repetitions=5, test_size=30, test_pool="all", rng_seed=10)
    assert run_split_protocol(dataset, other_seed, runner) != run_split_protocol(
        dataset, protocol, runner
    )


def test_protocol_splits_are_disjoint_and_cover_dataset(dataset) -> None:
    protocol = SplitProtocol(n_repetitions=3, test_size=40, test_pool="all", rng_seed=3)
    masks = split_masks(dataset.tags, protocol)
    assert len(masks) == 3
    for k, test in enumerate(masks):
        # the test rows are the draw of split k's substream; every other
        # row, and only those, trains
        assert test.dtype == bool and test.shape == (len(dataset.sessions),)
        rng = np.random.default_rng(np.random.SeedSequence(3).spawn(3)[k])
        drawn = rng.choice(range(len(dataset.sessions)), size=40, replace=False)
        assert np.flatnonzero(test).tolist() == sorted(int(i) for i in drawn)
    assert not np.array_equal(masks[0], masks[1])


def test_single_split_equals_direct_evaluation(dataset) -> None:
    # a constant model ignores its training set, so one protocol split
    # must reproduce a direct evaluation of the drawn test subset
    protocol = SplitProtocol(n_repetitions=1, test_size=35, test_pool="all", rng_seed=4)
    report = run_split_protocol(dataset, protocol, fixed_weights_runner(paper_weights()))

    rng = np.random.default_rng(np.random.SeedSequence(4).spawn(1)[0])
    drawn = sorted(int(i) for i in rng.choice(range(160), size=35, replace=False))
    test_sessions = [dataset.sessions[k] for k in drawn]
    direct_pred = [predict(s, paper_weights()) for s in test_sessions]
    direct_truth = [s.ground_truth_mos for s in test_sessions]
    assert report.pcc == pytest.approx(pcc(direct_pred, direct_truth), abs=1e-12)
    assert report.rmse == pytest.approx(rmse(direct_pred, direct_truth), abs=1e-12)


def test_protocol_pool_selection(dataset) -> None:
    n_multi = sum(s.tag == "multi-factor" for s in dataset.sessions)
    assert n_multi > 20
    protocol = SplitProtocol(
        n_repetitions=3, test_size=n_multi + 1, test_pool="multi-factor", rng_seed=0
    )
    with pytest.raises(UsageError, match="pool"):
        run_split_protocol(dataset, protocol, fixed_weights_runner(paper_weights()))

    ok = SplitProtocol(n_repetitions=2, test_size=20, test_pool="multi-factor", rng_seed=0)
    for test in split_masks(dataset.tags, ok):
        assert int(test.sum()) == 20
        assert all(dataset.sessions[k].tag == "multi-factor" for k in np.flatnonzero(test))


def test_protocol_compensation_flags(dataset) -> None:
    protocol = SplitProtocol(n_repetitions=4, test_size=30, test_pool="all", rng_seed=12)
    runner = baseline_runner("guo")
    raw = run_split_protocol(dataset, protocol, runner)
    on_train = run_split_protocol(dataset, protocol, runner, compensate=True)
    on_test = run_split_protocol(
        dataset, protocol, runner, compensate=True, compensation_on="test"
    )
    assert raw.slope is None
    assert on_train.slope is not None
    # compensating on the test portion itself is the optimistic variant:
    # it can only shrink the test RMSE
    assert on_test.rmse <= on_train.rmse + 1e-12
    assert on_test.slope != on_train.slope
    with pytest.raises(UsageError):
        run_split_protocol(
            dataset, protocol, runner, compensate=True, compensation_on="everything"
        )


def test_protocol_validation() -> None:
    with pytest.raises(UsageError):
        SplitProtocol(n_repetitions=0)
    with pytest.raises(UsageError):
        SplitProtocol(test_size=0)
    with pytest.raises(UsageError, match="test_size"):
        SplitProtocol(test_size=1)


def test_per_split_metrics_shape(dataset) -> None:
    protocol = SplitProtocol(n_repetitions=6, test_size=25, test_pool="all", rng_seed=2)
    report = run_split_protocol(dataset, protocol, refit_runner())
    assert len(report.per_split) == 6
    assert report.pcc == pytest.approx(
        sum(m.pcc for m in report.per_split) / 6, abs=1e-12
    )
    assert report.rmse == pytest.approx(
        sum(m.rmse for m in report.per_split) / 6, abs=1e-12
    )
    assert [m.split for m in report.per_split] == list(range(6))
