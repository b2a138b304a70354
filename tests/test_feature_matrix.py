"""Differential tests of the batch feature pass against the per-segment loop it replaced.

``scalar_features`` is the former ``extract_features`` body: one
``bin_quality`` call per segment, one ``classify_switch`` call per
boundary and one ``bin_interruption`` call per stall.  The batch pass
must reproduce its frequencies bit for bit, and the batch scorer must
reproduce ``predict`` bit for bit.
"""

import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hasqoe import (
    DEFAULT_INTERRUPTION_EDGES,
    DegenerateMetricError,
    DOWN_SWITCH_BINS,
    InterruptionEvent,
    ModelWeights,
    SessionTrace,
    bin_interruption,
    bin_quality,
    classify_switch,
    extract_features,
    feature_matrix,
    io,
    model,
    predict,
    predict_matrix,
    traces,
)
from hasqoe.cli import main


def scalar_features(trace: SessionTrace) -> tuple:
    """The 22 frequencies of one session, counted segment by segment."""
    segments = trace.segments
    n = len(segments)

    quality_counts = [0] * 5
    for q in segments:
        quality_counts[bin_quality(q) - 1] += 1

    down_counts = {b: 0 for b in DOWN_SWITCH_BINS}
    um_count = 0
    for before, after in zip(segments, segments[1:]):
        event = classify_switch(before, after)
        if event.amplitude_bin >= 0:
            um_count += 1
        else:
            down_counts[(event.starting_quality_bin, event.amplitude_bin)] += 1

    interruption_counts = [0] * (len(DEFAULT_INTERRUPTION_EDGES) + 1)
    for event in trace.interruptions:
        interruption_counts[bin_interruption(event.duration_s) - 1] += 1

    total_events = (n - 1) + len(trace.interruptions)
    if total_events == 0:
        f_down = {b: 0.0 for b in DOWN_SWITCH_BINS}
        f_um = 0.0
        f_interruption = (0.0,) * len(interruption_counts)
    else:
        f_down = {b: c / total_events for b, c in down_counts.items()}
        f_um = um_count / total_events
        f_interruption = tuple(c / total_events for c in interruption_counts)

    return (
        *(c / n for c in quality_counts),
        *(f_down[b] for b in DOWN_SWITCH_BINS),
        f_um,
        *f_interruption,
    )


def oracle_matrix(sessions) -> np.ndarray:
    return np.array([scalar_features(s) for s in sessions], dtype=float).reshape(-1, 22)


#: Bin edges of the quality and amplitude axes, the ends of the scale, and
#: their float neighbours.
EDGE_QUALITIES = (
    1.0, 1.5, 2.5, 3.5, 4.5, 5.0, 2.0, 3.0, 4.0,
    float(np.nextafter(1.5, 0.0)), float(np.nextafter(4.5, 0.0)), float(np.nextafter(1.0, 2.0)),
    float(np.nextafter(5.0, 0.0)), float(np.nextafter(2.5, 5.0)),
)
qualities = st.one_of(
    st.sampled_from(EDGE_QUALITIES), st.floats(min_value=1.0, max_value=5.0, allow_nan=False)
)
positive_durations = st.floats(min_value=1e-6, max_value=50.0, allow_nan=False)


@st.composite
def sessions(draw):
    durations = st.sampled_from(DEFAULT_INTERRUPTION_EDGES) | positive_durations
    segments = draw(st.lists(qualities, min_size=1, max_size=30))
    stalls = draw(
        st.lists(
            st.builds(
                InterruptionEvent, st.integers(1, len(segments)), durations
            ),
            max_size=6,
        )
    )
    return SessionTrace(tuple(segments), tuple(stalls))


datasets = st.lists(sessions(), min_size=1, max_size=25)


@st.composite
def weight_sets(draw):
    values = draw(
        st.lists(
            st.floats(min_value=-60.0, max_value=60.0, allow_nan=False), min_size=22, max_size=22
        )
    )
    return ModelWeights.from_vector(values)


@given(datasets, weight_sets())
def test_feature_matrix_equals_the_scalar_loop(dataset, weights) -> None:
    matrix = feature_matrix(dataset)
    assert matrix.shape == (len(dataset), 22)
    assert np.array_equal(matrix, oracle_matrix(dataset))
    assert extract_features(dataset[0]).as_vector() == scalar_features(dataset[0])
    scores = predict_matrix(matrix, weights).tolist()
    assert scores == [predict(s, weights) for s in dataset]


def test_a_score_that_overflows_below_the_floor_raises() -> None:
    # A -inf score is reported, not floored to 1.0, by the scalar and the batch scorer alike.
    weights = ModelWeights.from_vector([-1.7e308] * 5 + [0.0] * 11 + [1.7e308] * 6)
    dataset = [SessionTrace((3.0, 3.0), (InterruptionEvent(1, 1.0),))]
    with np.errstate(over="ignore"):
        with pytest.raises(DegenerateMetricError, match="overflow the float range"):
            predict(dataset[0], weights)
        with pytest.raises(DegenerateMetricError, match="overflow the float range"):
            predict_matrix(feature_matrix(dataset), weights)


def test_single_segment_and_no_event_sessions() -> None:
    dataset = [
        SessionTrace((3.0,)),
        SessionTrace((1.0,), (InterruptionEvent(1, 0.25),)),
        SessionTrace((5.0,), (InterruptionEvent(1, 3.0), InterruptionEvent(1, 3.5))),
        SessionTrace((4.5, 4.5)),
    ]
    matrix = feature_matrix(dataset)
    assert np.array_equal(matrix, oracle_matrix(dataset))
    assert not matrix[0, 5:].any()


@settings(max_examples=50)
@given(datasets, st.integers(min_value=1, max_value=40))
def test_any_chunk_size_gives_the_same_matrix(dataset, chunk_segments) -> None:
    with mock.patch.object(model, "_CHUNK_SEGMENTS", chunk_segments):
        assert np.array_equal(feature_matrix(dataset), oracle_matrix(dataset))


def random_sessions(rng, lengths) -> list:
    edges = np.array(EDGE_QUALITIES)
    dataset = []
    for n in lengths:
        values = np.where(rng.random(n) < 0.3, rng.choice(edges, n), rng.uniform(1.0, 5.0, n))
        after = np.flatnonzero(rng.random(n) < 0.1) + 1
        durations = rng.choice([*DEFAULT_INTERRUPTION_EDGES, 0.1, 4.0], after.size)
        stalls = tuple(InterruptionEvent(int(a), float(d)) for a, d in zip(after, durations))
        dataset.append(SessionTrace(tuple(values.tolist()), stalls))
    return dataset


def test_chunks_hold_whole_sessions_and_a_long_session_alone() -> None:
    rng = np.random.default_rng(11)
    chunk = model._CHUNK_SEGMENTS
    lengths = [*rng.integers(1, 80, 250), 3 * chunk + 5, *rng.integers(1, 80, 250)]
    dataset = random_sessions(rng, lengths)

    seen = []
    count_into = model._count_into

    def spy(out, run):
        seen.append(run.lengths.tolist())
        count_into(out, run)

    with mock.patch.object(model, "_count_into", spy):
        matrix = feature_matrix(dataset)
    assert np.array_equal(matrix, oracle_matrix(dataset))
    assert len(seen) > 3
    assert [n for run in seen for n in run] == [len(s.segments) for s in dataset]
    assert [3 * chunk + 5] in seen
    assert all(sum(run) <= chunk for run in seen if len(run) > 1)


@st.composite
def labeled_sessions(draw):
    """A session of ``sessions()`` with a label and a tag, either of which may be None."""
    return dataclasses.replace(
        draw(sessions()),
        ground_truth_mos=draw(st.none() | st.sampled_from(EDGE_QUALITIES) | st.floats(1.0, 5.0)),
        tag=draw(st.none() | st.sampled_from(("multi-factor", "single-factor", ""))),
    )


@given(st.lists(labeled_sessions(), min_size=1, max_size=25), st.lists(st.integers(0, 24)),
       st.integers(1, 12), st.integers(1, 4))
@example(
    [SessionTrace((5.0,), (), 1.0, "a"), SessionTrace((1.0,), (InterruptionEvent(1, 0.25),))],
    [1, 1, 0], 1, 1,
)
def test_session_batch_round_trips_traces(dataset, picked, chunk_segments, run_sessions) -> None:
    batch = traces.batch_of(dataset)
    assert traces.traces_of(batch) == dataset
    picked = [k % len(dataset) for k in picked]
    keep = np.isin(np.arange(len(dataset)), picked)
    assert traces.traces_of(batch.select(keep)) == [
        session for session, kept in zip(dataset, keep) if kept
    ]
    # Runs of a few sessions, each a view of its rows, cover the batch.
    with mock.patch.object(model, "_CHUNK_SEGMENTS", chunk_segments), \
            mock.patch.object(model, "_RUN_SESSIONS", run_sessions):
        pieces = [(rows, traces.traces_of(run)) for rows, run in batch.runs()]
    assert [session for _, piece in pieces for session in piece] == dataset
    assert all(piece == dataset[rows] for rows, piece in pieces)
    assert all(len(piece) <= run_sessions for _, piece in pieces)
    assert all(sum(len(s.segments) for s in piece) <= chunk_segments
               for _, piece in pieces if len(piece) > 1)


def test_empty_dataset_gives_an_empty_matrix() -> None:
    assert feature_matrix([]).shape == (0, 22)
    assert traces.traces_of(traces.batch_of([])) == []


def test_cli_predictions_equal_scalar_predict(tmp_path, capsys) -> None:
    rng = np.random.default_rng(5)
    dataset = random_sessions(rng, rng.integers(1, 60, 200))
    # Level rewards above the event penalties keep most predictions off the floor.
    weights = ModelWeights.from_vector(
        [*rng.uniform(2.0, 6.0, 5), *rng.uniform(-1.0, 3.0, 17)]
    )
    data_path, weights_path = tmp_path / "sessions.json", tmp_path / "weights.json"
    io.write_dataset(dataset, str(data_path))
    io.write_weights(weights, str(weights_path))
    assert main(["predict", "--input", str(data_path), "--weights", str(weights_path),
                 "--format", "json"]) == 0
    got = [record["prediction"] for record in json.loads(capsys.readouterr().out)]
    expected = [predict(s, weights) for s in io.read_sessions(str(data_path))]
    assert got == expected
    assert sum(value > 1.0 for value in expected) > 150
