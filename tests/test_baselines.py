"""Tests of the comparison-model statistics and coefficients.

``scalar_baseline_statistics`` is the per-session computation the batch
``baseline_matrix`` replaced: numpy per session and one
``classify_switch`` call per boundary.  It stays as the oracle of the
differential test below and of ``tests/test_protocol_oracle.py``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hasqoe.model
import hasqoe.traces
from hasqoe import (
    DEFAULT_INTERRUPTION_EDGES,
    MODEL_STATISTICS,
    BaselineCoefficients,
    DegenerateMetricError,
    GeneratorConfig,
    InterruptionEvent,
    LabeledDataset,
    LinearModel,
    SessionTrace,
    UsageError,
    baseline_matrix,
    baseline_runner,
    baselines,
    classify_switch,
    fit_baseline_coefficients,
    generate_labeled_dataset,
    generate_sessions,
    paper_weights,
)

#: Every statistic name, each once.
ALL_STATISTICS = tuple(dict.fromkeys(n for names in MODEL_STATISTICS.values() for n in names))


def scalar_baseline_statistics(trace: SessionTrace) -> dict[str, float]:
    """Every comparison-model statistic of one session, computed on its own."""
    q = np.asarray(trace.segments, dtype=float)
    deltas = np.diff(q)
    # A "switch" is a boundary whose amplitude rounds to a nonzero bin;
    # sub-half-step wobble does not count.
    switch_count = sum(
        1
        for before, after in zip(trace.segments, trace.segments[1:])
        if classify_switch(before, after).amplitude_bin != 0
    )
    down = deltas[deltas < 0.0]
    durations = [e.duration_s for e in trace.interruptions]
    return {
        "median_quality": float(np.median(q)),
        "min_quality": float(q.min()),
        "switch_count": float(switch_count),
        "mean_quality": float(q.mean()),
        "std_quality": float(q.std()),
        "weighted_quality_sum": float(q.mean()),
        "mean_sq_down_amplitude": float(np.mean(down**2)) if down.size else 0.0,
        "stall_duration_sum": float(sum(durations)),
        "stall_count": float(len(durations)),
    }


def statistics(*sessions) -> list[dict[str, float]]:
    """Each session's statistics, read from its row of one ``baseline_matrix``."""
    matrix = baseline_matrix(sessions, ALL_STATISTICS)
    return [dict(zip(ALL_STATISTICS, row)) for row in matrix.tolist()]


def predict_all(model, sessions) -> np.ndarray:
    """Predictions of a baseline model with fixed coefficients (no labels needed)."""
    every_row = np.ones(len(sessions), dtype=bool)
    matrix = model.matrix(sessions)
    return model.predict(matrix, model.fit(matrix, np.zeros(len(sessions)), every_row)[0])


def test_statistics_of_stepped_session() -> None:
    [stats] = statistics(SessionTrace((5.0, 5.0, 3.0, 3.0)))
    assert stats["median_quality"] == 4.0
    assert stats["min_quality"] == 3.0
    assert stats["switch_count"] == 1  # only the 5->3 boundary rounds to a nonzero bin
    assert stats["mean_quality"] == 4.0
    assert stats["std_quality"] == 1.0  # population standard deviation
    assert stats["weighted_quality_sum"] == 4.0
    assert stats["mean_sq_down_amplitude"] == 4.0
    assert stats["stall_duration_sum"] == 0.0
    assert stats["stall_count"] == 0


def test_statistics_of_constant_session_with_stalls() -> None:
    trace = SessionTrace(
        (4.0, 4.0, 4.0),
        (InterruptionEvent(1, 0.5), InterruptionEvent(2, 2.0)),
    )
    [stats] = statistics(trace)
    assert stats["switch_count"] == 0
    assert stats["std_quality"] == 0.0
    assert stats["mean_sq_down_amplitude"] == 0.0
    assert stats["stall_duration_sum"] == 2.5
    assert stats["stall_count"] == 2


def test_sub_half_step_wobble_is_not_a_switch_but_counts_as_down_amplitude() -> None:
    [stats] = statistics(SessionTrace((4.0, 3.7, 4.0)))
    assert stats["switch_count"] == 0
    # raw negative deltas feed the squared-amplitude statistic regardless
    # of their bin
    assert stats["mean_sq_down_amplitude"] == pytest.approx(0.3**2, abs=1e-12)


@pytest.mark.parametrize("first, second", [(1.0, 5.0), (5.0, 1.0)])
def test_a_step_from_one_session_into_the_next_is_no_switch(first, second) -> None:
    # Two one-segment sessions in one run: the step between them spans four bins.
    batch = hasqoe.model._batch([SessionTrace((first,), (InterruptionEvent(1, 0.5),)),
                                 SessionTrace((second,))])
    features = hasqoe.model.feature_matrix(batch)
    switch_columns = slice(hasqoe.model.DOWN_SWITCH_SLOTS.start, hasqoe.model.GROUPED_SLOT + 1)
    assert not features[:, switch_columns].any()
    assert features[:, hasqoe.model.INTERRUPTION_SLOTS].sum(axis=1).tolist() == [1.0, 0.0]
    matrix = baseline_matrix(batch, ("switch_count", "mean_sq_down_amplitude"))
    assert matrix[:, :2].tolist() == [[0.0, 0.0], [0.0, 0.0]]
    assert hasqoe.model._switch_counts(batch.lengths, batch.quality).tolist() == [0, 0]


def test_quality_statistics_are_order_invariant() -> None:
    a, b = statistics(SessionTrace((5.0, 1.0, 3.0, 3.0)), SessionTrace((3.0, 5.0, 3.0, 1.0)))
    for name in ("median_quality", "min_quality", "mean_quality", "std_quality"):
        assert a[name] == b[name]


def test_mean_sq_down_amplitude_zero_iff_no_drops() -> None:
    traces = generate_sessions(GeneratorConfig(rng_seed=31), 200)
    for trace, stats in zip(traces, statistics(*traces)):
        has_drop = any(b < a for a, b in zip(trace.segments, trace.segments[1:]))
        assert (stats["mean_sq_down_amplitude"] > 0.0) == has_drop


def test_baseline_predict_identity_on_mean() -> None:
    model = baseline_runner(
        "vriendt",
        BaselineCoefficients(
            "vriendt", {"switch_count": 0.0, "mean_quality": 1.0, "std_quality": 0.0}, 0.0
        ),
    )
    assert predict_all(model, [SessionTrace((4.0, 4.0, 4.0))]).tolist() == [4.0]


def test_baseline_predict_clamps_to_mos_scale() -> None:
    sessions = [SessionTrace((4.0, 4.0))]
    zero = {"median_quality": 0.0, "min_quality": 0.0}
    low = baseline_runner("guo", BaselineCoefficients("guo", zero, 0.0))
    high = baseline_runner("guo", BaselineCoefficients("guo", zero, 9.0))
    assert predict_all(low, sessions).tolist() == [1.0]
    assert predict_all(high, sessions).tolist() == [5.0]


def test_baseline_predict_rejects_unknown_statistic() -> None:
    with pytest.raises(UsageError, match="unknown statistic"):
        predict_all(LinearModel(("sharpness",), (1.0, 0.0)), [SessionTrace((4.0, 4.0))])
    # coefficients must name exactly the model's own statistics, in any order
    for names in (("sharpness",), ("median_quality",), ("stall_count",),
                  ("median_quality", "min_quality", "stall_count")):
        coefficients = BaselineCoefficients("guo", dict.fromkeys(names, 1.0), 0.0)
        with pytest.raises(UsageError, match="must name exactly its statistics"):
            baseline_runner("guo", coefficients)
    reordered = BaselineCoefficients("guo", {"min_quality": 0.25, "median_quality": 0.5}, 0.5)
    expected = LinearModel(MODEL_STATISTICS["guo"], (0.5, 0.25, 0.5))
    assert baseline_runner("guo", reordered) == expected


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
                    c * stats[n] for n, c in rule.coefficients.items()
                )
                + rule.intercept,
                tag=s.tag,
            )
            for s, stats in zip(sessions, statistics(*sessions))
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


def test_fit_baseline_rejects_a_statistic_that_overflows() -> None:
    # Two finite stalls whose durations sum past the float range.
    dataset = generate_labeled_dataset(GeneratorConfig(rng_seed=3), 30, paper_weights())
    sessions = list(dataset.sessions)
    stalls = (InterruptionEvent(1, 1e308),) * 2
    sessions[3] = SessionTrace(sessions[3].segments, stalls,
                               ground_truth_mos=sessions[3].ground_truth_mos)
    with pytest.raises(DegenerateMetricError,
                       match=r"^session 3: stall_duration_sum overflows the float range$"):
        fit_baseline_coefficients(LabeledDataset(sessions), "liu")


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
    matrix = model.matrix(dataset.sessions)
    values = model.predict(matrix, model.fit(matrix, dataset.labels(), train)[0])
    assert values.shape == (60,)
    assert np.all((values >= 1.0) & (values <= 5.0))
    # the refit uses the training rows only
    fitted = fit_baseline_coefficients(LabeledDataset(dataset.sessions[10:]), "liu")
    expected = predict_all(baseline_runner("liu", fitted), dataset.sessions)
    assert np.abs(values - expected).max() < 1e-12


def test_model_statistics_cover_all_feature_names() -> None:
    assert set(scalar_baseline_statistics(SessionTrace((4.0, 4.0)))) == set(ALL_STATISTICS)
    for names in MODEL_STATISTICS.values():
        matrix = baseline_matrix([SessionTrace((4.0, 4.0))], names)
        assert matrix.shape == (1, len(names) + 1)
        assert matrix[0, -1] == 1.0  # the intercept column


#: Quarter steps put boundaries exactly on the +-0.5 switch threshold and
#: values exactly on the x.5 level edges, and make ties (medians) common.
GRID_QUALITIES = tuple(np.arange(1.0, 5.01, 0.25).tolist())
qualities = st.one_of(
    st.sampled_from(GRID_QUALITIES),
    st.sampled_from((float(np.nextafter(1.5, 0.0)), float(np.nextafter(4.5, 5.0)))),
    st.floats(min_value=1.0, max_value=5.0, allow_nan=False),
)


@st.composite
def sessions(draw):
    segments = draw(st.lists(qualities, min_size=1, max_size=30))
    stalls = draw(
        st.lists(
            st.builds(
                InterruptionEvent,
                st.integers(1, len(segments)),
                st.sampled_from(DEFAULT_INTERRUPTION_EDGES)
                | st.floats(min_value=1e-6, max_value=50.0, allow_nan=False),
            ),
            max_size=4,
        )
    )
    return SessionTrace(tuple(segments), tuple(stalls))


#: Statistics computed from the same values in the same operations as the oracle.
EXACT_STATISTICS = (
    "median_quality", "min_quality", "switch_count", "stall_count", "stall_duration_sum"
)


@settings(max_examples=200)
@given(st.lists(sessions(), min_size=1, max_size=20), st.integers(min_value=1, max_value=40))
def test_baseline_matrix_equals_the_scalar_oracle(dataset, chunk_segments) -> None:
    expected = np.array(
        [[scalar_baseline_statistics(s)[name] for name in ALL_STATISTICS] for s in dataset]
    )
    calls = []

    def spy(*args):
        calls.append(args)
        return classify_switch(*args)

    with mock.patch.object(hasqoe.model, "_CHUNK_SEGMENTS", chunk_segments), \
            mock.patch.object(hasqoe.traces, "classify_switch", spy), \
            mock.patch.object(baselines, "classify_switch", spy, create=True):
        matrix = baseline_matrix(dataset, ALL_STATISTICS)
    assert not calls
    assert matrix.shape == (len(dataset), len(ALL_STATISTICS) + 1)
    assert np.array_equal(matrix[:, -1], np.ones(len(dataset)))
    for column, name in enumerate(ALL_STATISTICS):
        if name in EXACT_STATISTICS:
            assert np.array_equal(matrix[:, column], expected[:, column]), name
        else:  # sums in another order
            assert np.abs(matrix[:, column] - expected[:, column]).max() <= 1e-14, name


@settings(max_examples=100)
@given(st.lists(sessions(), min_size=1, max_size=20), st.integers(min_value=1, max_value=40),
       st.lists(st.sampled_from(sorted(baselines._KNOWN_STATISTICS)), min_size=1, unique=True))
def test_any_statistics_in_any_order_equal_their_columns_of_the_full_matrix(
        dataset, chunk_segments, subset) -> None:
    batch = hasqoe.model._batch(dataset)
    with mock.patch.object(hasqoe.model, "_CHUNK_SEGMENTS", chunk_segments):
        full = baseline_matrix(batch, ALL_STATISTICS)
        for names in (*MODEL_STATISTICS.values(), subset):
            matrix = baseline_matrix(batch, names)
            assert matrix.shape == (len(dataset), len(names) + 1)
            assert matrix[:, -1].tobytes() == np.ones(len(dataset)).tobytes()
            for column, name in enumerate(names):
                expected = full[:, ALL_STATISTICS.index(name)]
                assert matrix[:, column].tobytes() == expected.tobytes(), (names, name)


class Sorted(Exception):
    pass


def test_only_guo_sorts_qualities() -> None:
    batch = hasqoe.model._batch(generate_sessions(GeneratorConfig(rng_seed=5), 200))
    with mock.patch.object(hasqoe.model, "_CHUNK_SEGMENTS", 256), \
            mock.patch.object(np, "argsort", side_effect=Sorted):
        for model in ("vriendt", "liu"):
            names = MODEL_STATISTICS[model]
            assert baseline_matrix(batch, names).shape == (200, len(names) + 1)
        with pytest.raises(Sorted):
            baseline_matrix(batch, MODEL_STATISTICS["guo"])


def assert_sorted_as_lexsort(batch) -> None:
    for _, run in batch.runs():
        statistics = baselines._RunStatistics(run)
        expected = np.lexsort((statistics.q, hasqoe.model._session_steps(run.lengths)[0]))
        assert np.array_equal(statistics.quality_order, expected)


@settings(max_examples=200)
@given(st.lists(st.lists(st.sampled_from([1.0, 2.5, 3.0, 5.0]), min_size=1, max_size=12),
                min_size=1, max_size=300),
       st.integers(min_value=1, max_value=60))
def test_the_median_sort_orders_segments_as_lexsort_does(qualities, chunk_segments) -> None:
    # Four quality values force ties; one-segment sessions and small runs come up often.
    batch = hasqoe.model._batch([SessionTrace(tuple(q)) for q in qualities])
    with mock.patch.object(hasqoe.model, "_CHUNK_SEGMENTS", chunk_segments):
        assert_sorted_as_lexsort(batch)


def test_the_median_sort_orders_runs_of_many_sessions_as_lexsort_does() -> None:
    # Runs of more than 255 sessions sort their session rows as uint16.
    batch = hasqoe.model._batch(generate_sessions(GeneratorConfig(n_segments=(1, 20)), 3000))
    with mock.patch.object(hasqoe.model, "_RUN_SESSIONS", 1000):
        assert max(len(run.lengths) for _, run in batch.runs()) > 255
        assert_sorted_as_lexsort(batch)
