"""Fuzz tests of the JSON readers: every input parses or raises UsageError/ValidationError.

Inputs are arbitrary JSON values and valid records with one or two
values replaced anywhere inside them, so every field of every nested
record is reached: by ``NaN``, ``Infinity``, booleans, strings, ``null``,
arrays, objects and integers beyond the float range.  Whatever parses
must also be usable: weights and coefficients are finite floats, and a
generator config generates a session.  The columnar session reader
(``io.dataset_from_text``) is checked against the per-record one
(``io.sessions_from_text``) on such files, in all three file shapes.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hasqoe import (
    MODEL_STATISTICS,
    BaselineCoefficients,
    GeneratorConfig,
    LabeledDataset,
    ModelWeights,
    QualityWalk,
    StallDurations,
    UsageError,
    ValidationError,
    baseline_matrix,
    feature_matrix,
    generate_sessions,
    io,
    paper_weights,
)
from hasqoe.model import _label_column, _SessionBatch

scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
#: Replacement values: edge numbers and wrong types.
replacements = st.sampled_from(
    [math.nan, math.inf, -math.inf, 10**400, 1e308, -1, 0, 1, 2, 2.5, 0.0, -0.5, 0.5,
     None, True, False, "1", [], [1.0], {}, {"x": 1.0}]
)


def _paths(value, path=()):
    """The path to ``value`` (the empty path) and to every value inside it."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield from _paths(inner, (*path, key))


def _replaced(value, path, new):
    if not path:
        return new
    copy = list(value) if isinstance(value, list) else dict(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


def mutants(*valid):
    """One of the ``valid`` JSON values with one or two values inside it replaced."""

    @st.composite
    def mutant(draw):
        value = draw(st.sampled_from(valid))
        for _ in range(draw(st.integers(1, 2))):
            path = draw(st.sampled_from(list(_paths(value))[1:]))
            value = _replaced(value, path, draw(replacements))
        return value

    return mutant()


def parses(read, value) -> bool:
    try:
        read(value)
    except (UsageError, ValidationError):
        return False
    return True


def read_sessions(value):
    return io.sessions_from_text(json.dumps(value), "fuzz")


@settings(max_examples=300)
@given(json_values)
def test_arbitrary_json_values(value) -> None:
    for read in (read_sessions, ModelWeights.from_dict, BaselineCoefficients.from_dict,
                 QualityWalk.from_dict, StallDurations.from_dict, GeneratorConfig.from_dict):
        parses(read, value)


SESSIONS = [
    {"segments": [4.2, 3.0, 5.0], "interruptions": [{"after_segment": 2, "duration_s": 0.8}],
     "mos": 3.6, "tag": "multi-factor"},
    {"segments": [1.0]},
]


@settings(max_examples=500)
@given(mutants(SESSIONS, SESSIONS[0]), st.booleans())
def test_session_files(value, ndjson) -> None:
    if ndjson and isinstance(value, list):
        parses(lambda v: io.sessions_from_text("\n".join(map(json.dumps, v)), "fuzz"), value)
    else:
        parses(read_sessions, value)


qualities = st.sampled_from([1.0, 1.5, 2.49, 2.5, 3.0, 3.7, 4.5, 5.0, 1, 3, 5])
durations = st.sampled_from([0.01, 0.25, 0.5, 0.8, 1.0, 2.0, 3.0, 7.5, 1, 2])


@st.composite
def session_records(draw):
    """A valid session record, with interruptions, a label and a tag each present or not."""
    segments = draw(st.lists(qualities, min_size=1, max_size=12))
    record = {"segments": segments}
    events = [
        {"after_segment": draw(st.integers(1, len(segments))), "duration_s": draw(durations)}
        for _ in range(draw(st.integers(0, 3)))
    ]
    if events or draw(st.booleans()):
        record["interruptions"] = events
    for key, values in (("mos", st.sampled_from([1, 1.0, 2.75, 5.0, None])),
                        ("tag", st.sampled_from(["multi-factor", "single-factor", None]))):
        if draw(st.booleans()):
            record[key] = draw(values)
    return record


#: What corrupts a session file: a value of a wrong type, NaN, out of
#: range, not whole, too large, or beyond the float range, anywhere or in
#: a named field.
corruptions = st.sampled_from(
    [True, False, "3", None, math.nan, math.inf, -math.inf, 7.0, 5.000001, 0.999, 0, -1, 1.5,
     10**6, 10**400, 2**63 + 1, [], [3.0], {}, {"segments": [3.0]}]
)
FIELD_CORRUPTIONS = {
    "segments": [[], [True], ["3"], [None], [7.0], [math.nan], [10**400], [2**63 + 1], 3.0, {}],
    "after_segment": [0, -1, 1.5, 10**6, 10**400, math.nan, math.inf, True, "1", None, 2.0],
    "duration_s": [0, -1.0, 0.0, math.nan, math.inf, 10**400, True, "1", None, 2],
    "mos": [0.5, 5.5, math.nan, math.inf, True, "3", 10**400, None, 3],
    "tag": [1, True, [], None, "x"],
    "interruptions": [None, {}, [1], [[]], "x", []],
}


@st.composite
def session_files(draw):
    """The text of a session file: an array, NDJSON, a single object or an empty array.

    Most files are corrupted once or twice: a value replaced, anywhere or
    in a named field, or a key removed.
    """
    records = draw(st.lists(session_records(), min_size=1, max_size=5))
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        paths = list(_paths(records))[1:]
        named = sorted({p[-1] for p in paths if p[-1] in FIELD_CORRUPTIONS})
        how = draw(st.sampled_from(["field", "field", "any", "delete"])) if named else "any"
        if how != "any":
            name = draw(st.sampled_from(named))
            fields = [p for p in paths if p[-1] == name]
        if how == "field":
            path = draw(st.sampled_from(fields))
            records = _replaced(records, path, draw(st.sampled_from(FIELD_CORRUPTIONS[name])))
        elif how == "delete":
            path = draw(st.sampled_from(fields))
            container = records
            for step in path[:-1]:
                container = container[step]
            del container[path[-1]]
        else:
            records = _replaced(records, draw(st.sampled_from(paths)), draw(corruptions))
    shape = draw(st.sampled_from(["array", "array", "ndjson", "ndjson", "object", "empty"]))
    if shape == "object":
        return json.dumps(records[0])
    if shape == "ndjson":
        return "\n".join(map(json.dumps, records)) + "\n"
    return json.dumps(records if shape == "array" else [])


def outcome(read, *args):
    """``("ok", result)``, or ``("error", type, message)`` of a reader's own error."""
    try:
        return "ok", read(*args)
    except (UsageError, ValidationError) as exc:
        return "error", type(exc), str(exc)


def columns_equal(got, expected) -> None:
    """Two batches, label columns and tag lists are equal bit for bit."""
    (batch, labels, tags), (expected_batch, expected_labels, expected_tags) = got, expected
    for column, want in zip(batch, expected_batch):
        assert column.dtype == want.dtype and column.tobytes() == want.tobytes()
    assert labels.tobytes() == expected_labels.tobytes()
    assert list(tags) == list(expected_tags)


def assert_readers_agree(text: str) -> None:
    """The column reader gives the per-record reader's columns, or raises its error."""
    expected = outcome(io.sessions_from_text, text, "fuzz")
    got = outcome(io.dataset_from_text, text, "fuzz")
    if expected[0] == "error":
        assert got == expected
        return
    assert got[0] == "ok"
    traces = expected[1]
    batch, labels, tags = got[1]
    expected_columns = _SessionBatch.of(traces), _label_column(traces), [s.tag for s in traces]
    columns_equal(got[1], expected_columns)
    assert feature_matrix(batch).tobytes() == feature_matrix(traces).tobytes()
    for names in MODEL_STATISTICS.values():
        assert baseline_matrix(batch, names).tobytes() == baseline_matrix(traces, names).tobytes()

    # The labelled readers: a session without a label fails both the same way.
    expected = outcome(LabeledDataset, traces)
    got = outcome(LabeledDataset.from_columns, batch, labels, tags)
    if expected[0] == "error":
        assert got == expected
    else:
        assert got[1].labels().tobytes() == expected[1].labels().tobytes()
        assert got[1].tags == expected[1].tags
        assert got[1].sessions == expected[1].sessions


@settings(max_examples=600)
@given(session_files())
def test_the_column_reader_matches_the_per_record_reader(text) -> None:
    assert_readers_agree(text)


def _session(**fields) -> str:
    return json.dumps([{"segments": [3.0, 4.0, 5.0], "mos": 3.0}, fields])


def _stalled(after_segment, duration_s) -> str:
    return _session(segments=[3.0, 4.0, 5.0],
                    interruptions=[{"after_segment": after_segment, "duration_s": duration_s}])


@pytest.mark.parametrize(
    "text",
    [
        _session(segments=[]),
        _session(segments=[3.0, True]),
        _session(segments=[3.0, 0.999]),
        _session(segments=[3.0, 7.0]),
        _session(segments=[3.0, math.nan]),
        _session(segments=[3.0, 10**400]),
        _stalled(0, 1.0),
        _stalled(1.5, 1.0),
        _stalled(4, 1.0),
        _stalled(1, 0.0),
        _stalled(1, math.inf),
        _session(segments=[3.0], mos=True),
        _session(segments=[3.0], mos=5.5),
        _session(segments=[3.0], mos=math.nan),
        _session(segments=[3.0], tag=1),
        _session(segments=[3.0]),
    ],
)
def test_the_column_reader_matches_on_each_check(text) -> None:
    assert_readers_agree(text)


@pytest.mark.parametrize(
    "text",
    [
        '[{"segments": [3.0, 4.5], "mos": 2.0}, {"segments": [5], "tag": "x", '
        '"interruptions": [{"after_segment": 1.0, "duration_s": 3}]}]',
        '{"segments": [1.0]}\n\n{"segments": [2.0], "interruptions": []}\n',
        '{"segments": [4.0], "mos": null, "tag": null, "other": 1}',
    ],
)
def test_the_column_reader_takes_valid_files_without_traces(monkeypatch, text) -> None:
    def unexpected(text, source):
        raise AssertionError("read again by the per-record reader")

    expected = io.dataset_from_text(text, "inline")
    monkeypatch.setattr(io, "sessions_from_text", unexpected)
    columns_equal(io.dataset_from_text(text, "inline"), expected)


@settings(max_examples=500)
@given(mutants(paper_weights().to_dict()))
def test_weights_records(value) -> None:
    if parses(ModelWeights.from_dict, value):
        vector = ModelWeights.from_dict(value).as_vector()
        assert all(type(w) is float and math.isfinite(w) for w in vector)


ENTRY_KEYS = ("i", "j", "w")


@settings(max_examples=200)
@given(st.integers(0, 9), st.text(min_size=1, max_size=4).filter(lambda k: k not in ENTRY_KEYS))
def test_weights_records_reject_unknown_entry_keys(index, key) -> None:
    record = paper_weights().to_dict()
    record["beta_down"][index][key] = 1.0
    with pytest.raises(UsageError) as raised:
        ModelWeights.from_dict(record)
    assert str(raised.value) == f"unknown 'beta_down' entry keys: {[key]}"


@settings(max_examples=500)
@given(
    mutants(
        {"model": "guo", "coefficients": {"median_quality": 0.5, "min_quality": 0.25},
         "intercept": 0.5},
        {"model": "liu", "coefficients": {"stall_count": -0.1}},
    )
)
def test_baseline_coefficient_records(value) -> None:
    if parses(BaselineCoefficients.from_dict, value):
        parsed = BaselineCoefficients.from_dict(value)
        values = (*parsed.coefficients.values(), parsed.intercept)
        assert all(type(v) is float and math.isfinite(v) for v in values)


STALL_DURATIONS = [
    {"name": "bin_mixture", "params": {"bin_probs": [0, 0, 0, 0, 0.5, 0.5], "tail_max": 5.0}},
    {"name": "uniform", "params": {"low": 0.5, "high": 2.0}},
    {"name": "constant", "params": {"value": 2.5}},
]
GENERATOR_CONFIGS = [
    json.loads(json.dumps(
        GeneratorConfig(n_segments=(5, 15), stall_durations=StallDurations(**d)).to_dict()
    ))
    for d in STALL_DURATIONS
]


def generates(config: GeneratorConfig) -> None:
    """An accepted recipe generates: one short session with a stall at every boundary."""
    config = dataclasses.replace(config, n_segments=6, stall_prob_per_boundary=1.0)
    (trace,) = generate_sessions(config, 1)
    assert len(trace.segments) == 6 and len(trace.interruptions) == 5


@settings(max_examples=500)
@given(mutants(*(c["quality_walk"] for c in GENERATOR_CONFIGS)))
def test_quality_walk_records(value) -> None:
    if parses(QualityWalk.from_dict, value):
        generates(GeneratorConfig(quality_walk=QualityWalk.from_dict(value)))


@settings(max_examples=500)
@given(mutants(*STALL_DURATIONS))
def test_stall_duration_records(value) -> None:
    if parses(StallDurations.from_dict, value):
        generates(GeneratorConfig(stall_durations=StallDurations.from_dict(value)))


@settings(max_examples=500)
@given(mutants(*GENERATOR_CONFIGS))
def test_generator_config_records(value) -> None:
    if parses(GeneratorConfig.from_dict, value):
        generates(GeneratorConfig.from_dict(value))
