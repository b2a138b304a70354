import dataclasses
import math
import warnings

import numpy as np
import pytest

from hasqoe import (
    GeneratorConfig,
    LabeledDataset,
    SessionTrace,
    UsageError,
    design_matrix,
    fit,
    generate_labeled_dataset,
    paper_weights,
    predict,
)


def make_dataset(n: int = 120, seed: int = 5) -> LabeledDataset:
    return generate_labeled_dataset(
        GeneratorConfig(rng_seed=seed), n, paper_weights(), skip_clamped=True
    )


def test_labeled_dataset_requires_labels() -> None:
    with pytest.raises(UsageError, match="no ground-truth MOS"):
        LabeledDataset((SessionTrace((5.0, 4.0)),))


def test_labeled_dataset_rejects_empty() -> None:
    with pytest.raises(UsageError, match="empty"):
        LabeledDataset(())


def test_design_matrix_signs() -> None:
    trace = SessionTrace((5.0, 3.0), ground_truth_mos=1.0)
    matrix = design_matrix([trace])
    assert matrix.shape == (1, 22)
    assert matrix[0, :5].min() >= 0.0  # quality frequencies enter positively
    assert matrix[0, 5:].max() <= 0.0  # penalties enter negatively
    # label ~ row @ weights reproduces the prediction equation pre-clamp
    w = np.array(paper_weights().as_vector())
    assert matrix[0] @ w == pytest.approx(-0.08, abs=1e-9)


def test_recovers_planted_weights() -> None:
    planted = paper_weights()
    dataset = generate_labeled_dataset(
        GeneratorConfig(rng_seed=5), 250, planted, skip_clamped=True
    )
    report = fit(dataset)
    recovered = np.array(report.weights.as_vector())
    assert np.abs(recovered - np.array(planted.as_vector())).max() < 1e-6
    assert report.condition_warning is False
    assert report.training_rmse < 1e-9
    assert report.training_pcc > 0.999999


def test_single_segment_sessions_decouple_level_weights() -> None:
    # one single-segment session per level: event columns are all zero,
    # so the level weights equal the labels and everything else is the
    # minimum-norm zero
    labels = (1.2, 2.1, 3.3, 3.9, 4.8)
    sessions = tuple(
        SessionTrace((float(level),), ground_truth_mos=label)
        for level, label in zip(range(1, 6), labels)
    )
    with pytest.warns(UserWarning):
        report = fit(LabeledDataset(sessions))
    assert report.weights.alpha == pytest.approx(labels, abs=1e-12)
    assert report.weights.beta_um == pytest.approx(0.0, abs=1e-12)
    assert all(v == pytest.approx(0.0, abs=1e-12) for v in report.weights.beta_down.values())
    assert report.weights.gamma == pytest.approx((0.0,) * 6, abs=1e-12)
    assert report.condition_warning is True


def test_duplicating_the_dataset_does_not_change_weights() -> None:
    dataset = make_dataset(80)
    doubled = LabeledDataset(dataset.sessions + dataset.sessions)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        once = np.array(fit(dataset).weights.as_vector())
        twice = np.array(fit(doubled).weights.as_vector())
    assert np.abs(once - twice).max() < 1e-9


def relabel(dataset: LabeledDataset, labels) -> LabeledDataset:
    return LabeledDataset(
        tuple(
            dataclasses.replace(s, ground_truth_mos=float(v))
            for s, v in zip(dataset.sessions, labels)
        )
    )


def test_scaling_labels_scales_weights() -> None:
    base = make_dataset(100)
    y = base.labels()
    # squash labels into [2, 4] so the 1.2x version is still a valid MOS
    squashed = 2.0 + 2.0 * (y - y.min()) / (y.max() - y.min())
    w1 = np.array(fit(relabel(base, squashed)).weights.as_vector())
    w2 = np.array(fit(relabel(base, 1.2 * squashed)).weights.as_vector())
    assert np.abs(w2 - 1.2 * w1).max() < 1e-8


def test_refit_on_affine_transform_of_own_predictions() -> None:
    # Every session satisfies sum(f_quality) == 1, so the all-ones vector
    # is in the design's column space: X @ e == 1 for e = five ones over
    # the quality columns.  Relabeling with a*raw + b therefore has the
    # exact solution a*w + b*e, and a full-rank refit must return it.
    dataset = generate_labeled_dataset(
        GeneratorConfig(rng_seed=17), 150, paper_weights(), noise_std=0.3, skip_clamped=True
    )
    first = fit(dataset)
    assert not first.condition_warning
    matrix = design_matrix(dataset.sessions)
    w1 = np.array(first.weights.as_vector())
    raw = matrix @ w1
    a = 3.0 / (raw.max() - raw.min())
    b = 1.5 - a * raw.min()
    ones_image = np.array([1.0] * 5 + [0.0] * 17)
    assert np.abs(matrix @ ones_image - 1.0).max() < 1e-12
    second = fit(relabel(dataset, a * raw + b))
    expected = a * w1 + b * ones_image
    assert np.abs(np.array(second.weights.as_vector()) - expected).max() < 1e-8
    assert second.training_rmse < 1e-9


def test_fit_is_deterministic() -> None:
    dataset = make_dataset(90)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = fit(dataset)
        b = fit(dataset)
    assert a.weights == b.weights
    assert a.training_rmse == b.training_rmse


@pytest.mark.filterwarnings("ignore:design matrix is rank-deficient")
def test_small_dataset_warns() -> None:
    dataset = LabeledDataset(
        tuple(SessionTrace((float(n),), ground_truth_mos=float(n)) for n in range(1, 6))
    )
    with pytest.warns(UserWarning, match="only 5 sessions"):
        fit(dataset)


@pytest.mark.parametrize("nonnegative", [False, True])
def test_fit_warnings_point_at_the_caller(nonnegative) -> None:
    dataset = LabeledDataset(
        tuple(SessionTrace((float(n),), ground_truth_mos=float(n)) for n in range(1, 6))
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit(dataset, nonnegative=nonnegative)
    messages = [str(w.message) for w in caught]
    assert len(messages) == 2
    assert "only 5 sessions" in messages[0] and "rank-deficient" in messages[1]
    assert {w.filename for w in caught} == {__file__}


def test_nonnegative_flag_keeps_weights_nonnegative() -> None:
    dataset = generate_labeled_dataset(
        GeneratorConfig(rng_seed=23), 200, paper_weights(), noise_std=0.5
    )
    report = fit(dataset, nonnegative=True)
    assert min(report.weights.as_vector()) >= 0.0


def test_training_metrics_use_clamped_predictions() -> None:
    # no skip_clamped: many labels sit at the 1.0 floor, so the linear
    # fit overshoots below it and the clamp must kick in for reporting
    from hasqoe import StallDurations

    config = GeneratorConfig(
        stall_prob_per_boundary=0.35,
        stall_durations=StallDurations("uniform", {"low": 2.0, "high": 6.0}),
        rng_seed=29,
    )
    dataset = generate_labeled_dataset(config, 200, paper_weights())
    with warnings.catch_warnings():
        # this stall-heavy recipe leaves some bins empty; deficiency is
        # incidental here
        warnings.simplefilter("ignore")
        report = fit(dataset)
    matrix = design_matrix(dataset.sessions)
    raw = matrix @ np.array(report.weights.as_vector())
    assert raw.min() < 1.0  # the construction must actually clamp
    labels = dataset.labels()
    clamped_rmse = float(np.sqrt(np.mean((np.maximum(raw, 1.0) - labels) ** 2)))
    unclamped_rmse = float(np.sqrt(np.mean((raw - labels) ** 2)))
    assert report.training_rmse == pytest.approx(clamped_rmse, abs=1e-12)
    assert report.training_rmse < unclamped_rmse


@pytest.mark.filterwarnings("ignore:fitting 22 weights", "ignore:design matrix is rank-deficient")
def test_constant_labels_leave_training_pcc_undefined() -> None:
    # The mean of seven 3.7s is not exactly 3.7, so the centred labels are
    # tiny non-zero numbers; the PCC must still be undefined, not 0.65.
    for qualities, label in ((range(1, 6), 3.0), ((1, 2, 3, 4, 5, 1, 2), 3.7)):
        dataset = LabeledDataset(
            tuple(SessionTrace((float(q),), ground_truth_mos=label) for q in qualities)
        )
        report = fit(dataset)
        assert math.isnan(report.training_pcc)
        assert report.to_dict()["training_pcc"] is None
