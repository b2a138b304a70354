"""Fuzz tests of the JSON readers: every input parses or raises UsageError/ValidationError.

Inputs are arbitrary JSON values and valid records with one or two
values replaced anywhere inside them, so every field of every nested
record is reached: by ``NaN``, ``Infinity``, booleans, strings, ``null``,
arrays, objects and integers beyond the float range.  Whatever parses
must also be usable: weights and coefficients are finite floats, and a
generator config generates a session.  The session reader
(``io.dataset_from_text``) is checked against a whole-file reference
(:func:`whole_file_sessions`) on such files, in all three file shapes,
with runs of one session up to the default size and runs capped at one
to three sessions, on arrays that only a whole-file decode would reject,
and on files with two faults, of which it reports the first in file
order.  ``io.read_dataset`` cuts a file into the runs that the batch
passes cut, and frees the file's text before it joins them.
"""

import dataclasses
import json
import math
import re
from unittest import mock

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
    model,
    paper_weights,
    traces,
)
from hasqoe.traces import batch_of, sessions_from_records

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
    return io.dataset_from_text(json.dumps(value), "fuzz")


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
        parses(lambda v: io.dataset_from_text("\n".join(map(json.dumps, v)), "fuzz"), value)
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


def _loads(text: str, source: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{source}: invalid JSON: {exc}") from None


def _elements_before_a_fault(text: str) -> list:
    """The elements of the JSON array that ``text`` opens, decoded one at a time up to a syntax fault.

    None are decoded unless only JSON whitespace precedes the ``[``.
    """
    decode, skip = json.JSONDecoder().raw_decode, json.decoder.WHITESPACE.match
    elements, end = [], skip(text, 0).end()  # at the "[" or "," before each element
    if not text.startswith("[", end):
        return elements
    while True:
        try:
            element, end = decode(text, skip(text, end + 1).end())
        except json.JSONDecodeError:
            return elements
        elements.append(element)
        end = skip(text, end).end()
        if not text.startswith(",", end):
            return elements


def whole_file_sessions(text: str, source: str) -> list:
    """The reference reader: ``json.loads`` of the whole text, or of each non-blank line.

    A single object is one record, an array its elements, and anything else
    NDJSON; then one ``SessionTrace`` per record, with the per-record reader.
    An array that does not decode whole reports the first fault in file
    order: a bad session among the elements before its syntax fault, or
    else that fault.
    """
    stripped = text.lstrip()
    if not stripped:
        raise UsageError(f"{source}: empty file")
    if stripped.startswith("["):
        try:
            records = json.loads(text)
        except json.JSONDecodeError as exc:
            sessions_from_records(_elements_before_a_fault(text))
            raise UsageError(f"{source}: invalid JSON: {exc}") from None
        if not records:
            raise UsageError(f"{source}: no sessions")
    else:
        try:
            records = [json.loads(text)]
        except json.JSONDecodeError:
            lines = (line for line in text.split("\n") if line.strip())
            records = (_loads(line, f"{source} line {k}") for k, line in enumerate(lines))
    return sessions_from_records(records)


def outcome(read, *args):
    """``("ok", result)``, or ``("error", type, message)`` of a reader's own error."""
    try:
        return "ok", read(*args)
    except (UsageError, ValidationError) as exc:
        return "error", type(exc), str(exc)


def columns_equal(got, expected) -> None:
    """Two batches are equal bit for bit, and their tag columns are object columns of equal tags."""
    *numbers, tags = got
    *expected_numbers, expected_tags = expected
    for column, want in zip(numbers, expected_numbers, strict=True):
        assert column.dtype == want.dtype and column.tobytes() == want.tobytes()
    assert tags.dtype == expected_tags.dtype == object
    assert tags.tolist() == expected_tags.tolist()
    assert set(map(type, tags.tolist())) <= {str, type(None)}


def assert_readers_agree(text: str) -> None:
    """The column reader gives the whole-file reference's columns, or raises its error."""
    expected = outcome(whole_file_sessions, text, "fuzz")
    got = outcome(io.dataset_from_text, text, "fuzz")
    if expected[0] == "error":
        assert got == expected
        return
    assert got[0] == "ok"
    traces, batch = expected[1], got[1]
    columns_equal(batch, batch_of(traces))
    assert feature_matrix(batch).tobytes() == feature_matrix(traces).tobytes()
    for names in MODEL_STATISTICS.values():
        assert baseline_matrix(batch, names).tobytes() == baseline_matrix(traces, names).tobytes()

    # The labelled readers: a session without a label fails both the same way.
    expected = outcome(LabeledDataset, traces)
    got = outcome(LabeledDataset, batch)
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


@pytest.mark.parametrize("bound", [1, 2, 3])
@settings(max_examples=300)
@given(text=session_files())
def test_the_column_reader_matches_across_run_boundaries(bound, text) -> None:
    with mock.patch.object(model, "_CHUNK_SEGMENTS", bound):  # a run of one or a few sessions
        assert_readers_agree(text)


A, B = '{"segments": [3.0]}', '{"segments": [4.0, 2.5], "mos": 3.0}'


BOUNDS = [1, 2, 3, model._CHUNK_SEGMENTS]


ARRAY_FAULTS = [
    ("[", UsageError, "f.json: invalid JSON: Expecting value: line 1 column 2 (char 1)"),
    ("[]", UsageError, "f.json: no sessions"),
    ("[ ]", UsageError, "f.json: no sessions"),
    (" \n[ ]\t", UsageError, "f.json: no sessions"),
    (f"[{A}, {B},]", UsageError,
     "f.json: invalid JSON: Expecting value: line 1 column 60 (char 59)"),
    (f"[{A} {B}]", UsageError,
     "f.json: invalid JSON: Expecting ',' delimiter: line 1 column 22 (char 21)"),
    (f"[{A}, {B}] x", UsageError,
     "f.json: invalid JSON: Extra data: line 1 column 61 (char 60)"),
    (f"[{A}, {B}]]", UsageError,
     "f.json: invalid JSON: Extra data: line 1 column 60 (char 59)"),
    (f"\n [{A},\n {B}] x\n", UsageError,
     "f.json: invalid JSON: Extra data: line 3 column 40 (char 63)"),
    (f'[{A}, {{"segments": [3.0, NaN]}}]', ValidationError,
     "session 1: segment 1 quality nan outside [1.0, 5.0]"),
    (f"[{A}, [{B}]]", UsageError, "session 1: session record must be an object, got list"),
]


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize(("text", "error", "message"), ARRAY_FAULTS)
def test_the_column_reader_rejects_arrays_as_the_whole_file_decoder_does(
        text, error, message, bound) -> None:
    with mock.patch.object(model, "_CHUNK_SEGMENTS", bound):
        for read in (io.dataset_from_text, whole_file_sessions):
            assert outcome(read, text, "f.json") == ("error", error, message)


BAD = '{"segments": [3.0, 7.0]}'
BAD_MESSAGE = "session 1: segment 1 quality 7.0 outside [1.0, 5.0]"


FIRST_FAULTS = [
    (f"[{A}, {BAD}, {B},]", ValidationError, BAD_MESSAGE),
    (f"[{A}, {BAD}, {B}] x", ValidationError, BAD_MESSAGE),
    (f"[{A} {B}, {BAD}]", UsageError,
     "f.json: invalid JSON: Expecting ',' delimiter: line 1 column 22 (char 21)"),
    (f"[{A}, {B},, {BAD}]", UsageError,
     "f.json: invalid JSON: Expecting value: line 1 column 60 (char 59)"),
    (f"{A}\n{BAD}\n{{x\n", ValidationError, BAD_MESSAGE),
    (f"{A}\n{{x\n{BAD}\n", UsageError,
     "f.json line 1: invalid JSON: Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1)"),
    (f"\x0b[{A}]", UsageError, "f.json: invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    (f"\xa0[{A}]", UsageError, "f.json: invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("[] x", UsageError, "f.json: invalid JSON: Extra data: line 1 column 4 (char 3)"),
    (f"[{A}, {B}", UsageError,
     "f.json: invalid JSON: Expecting ',' delimiter: line 1 column 59 (char 58)"),
    # An NDJSON file whose first record is a list reads as an array with extra data.
    ('[3.0]\n{"segments": []}\n{"segments": [1.0]}\n', UsageError,
     "session 0: session record must be an object, got float"),
    ('[3.0]\n{"segments": [1.0], "interruptions": [{"after_segment": 1, "duration_s": 0.5}]}\n',
     UsageError, "session 0: session record must be an object, got float"),
]


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize(("text", "error", "message"), FIRST_FAULTS)
def test_the_first_fault_in_file_order_is_reported(text, error, message, bound) -> None:
    with mock.patch.object(model, "_CHUNK_SEGMENTS", bound):
        for read in (io.dataset_from_text, whole_file_sessions):
            assert outcome(read, text, "f.json") == ("error", error, message)


def test_a_rejected_run_is_explained_on_its_own(monkeypatch) -> None:
    records = [json.loads(A), json.loads(B), json.loads(A), json.loads(BAD), json.loads(B)]
    seen = []

    def spy(run, start=0):
        seen.append((list(run), start))
        return sessions_from_records(run, start)

    def whole_file(*args):
        raise AssertionError("decoded as a whole")

    monkeypatch.setattr(traces, "sessions_from_records", spy)
    monkeypatch.setattr(io, "_parse_json", whole_file)
    monkeypatch.setattr(model, "_CHUNK_SEGMENTS", 1)
    with pytest.raises(ValidationError) as raised:
        io.dataset_from_text(json.dumps(records), "f.json")
    assert str(raised.value) == "session 3: segment 1 quality 7.0 outside [1.0, 5.0]"
    assert seen == [([records[3]], 3)]


LINE_PIECES = st.sampled_from(["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                               "\u2028", "\u2029", " ", "\t", "\x1f", "\xa0", "a", "b"])


@settings(max_examples=300)
@given(st.lists(LINE_PIECES, max_size=12).map("".join))
def test_ndjson_lines_are_split_at_lf_alone(text) -> None:
    expected = [line for line in text.split("\n") if line.strip()]
    with mock.patch.object(io, "_parse_json", lambda line, source: line):
        assert outcome(lambda: list(io._records(text, "f"))) == (
            ("ok", expected) if expected else ("error", UsageError, "f: empty file"))


def test_leading_whitespace_is_what_str_isspace_calls_whitespace() -> None:
    chars = "".join(map(chr, range(0x110000)))
    assert re.findall(r"\s", chars) == [c for c in chars if c.isspace()]


@pytest.mark.parametrize("bound", BOUNDS)
def test_the_column_reader_scans_arrays_without_a_whole_file_decode(monkeypatch, bound) -> None:
    records = [json.loads(A), json.loads(B), SESSIONS[0], SESSIONS[1], json.loads(B)]
    text = " \n\t[" + ",\n  ".join(map(json.dumps, records)) + "]\r\n "
    expected = batch_of(whole_file_sessions(text, "inline"))

    def whole_file(*args):
        raise AssertionError("decoded as a whole, or by the per-record reader")

    monkeypatch.setattr(io, "_parse_json", whole_file)
    monkeypatch.setattr(traces, "sessions_from_records", whole_file)
    monkeypatch.setattr(model, "_CHUNK_SEGMENTS", bound)
    columns_equal(io.dataset_from_text(text, "inline"), expected)


#: Session caps of a reader run: a run of one, two or three records.
CAPS = [1, 2, 3]


@pytest.mark.parametrize("cap", CAPS)
@settings(max_examples=200)
@given(text=session_files())
def test_the_column_reader_matches_across_capped_runs(cap, text) -> None:
    with mock.patch.object(model, "_RUN_SESSIONS", cap):
        assert_readers_agree(text)


@pytest.mark.parametrize("cap", CAPS)
def test_capped_runs_report_the_faults_of_the_whole_file_decoder(cap) -> None:
    with mock.patch.object(model, "_RUN_SESSIONS", cap):
        for text, error, message in ARRAY_FAULTS + FIRST_FAULTS:
            for read in (io.dataset_from_text, whole_file_sessions):
                assert outcome(read, text, "f.json") == ("error", error, message)


@pytest.mark.parametrize("cap", CAPS)
def test_capped_runs_scan_arrays_without_a_whole_file_decode(monkeypatch, cap) -> None:
    monkeypatch.setattr(model, "_RUN_SESSIONS", cap)
    test_the_column_reader_scans_arrays_without_a_whole_file_decode(monkeypatch,
                                                                    model._CHUNK_SEGMENTS)


def test_a_run_holds_at_most_the_cap_of_sessions(monkeypatch, tmp_path) -> None:
    stall = {"after_segment": 1, "duration_s": 0.5}
    records = [{"segments": [1.0 + k % 4, 5.0 - k % 3][:1 + k % 2], "mos": 1.0 + k % 5,
                "interruptions": [stall] if k % 3 == 0 else [],
                "tag": ["multi-factor", None][k % 2]} for k in range(2000)]
    path = tmp_path / "d.json"
    path.write_text(json.dumps(records))
    with mock.patch.object(model, "_RUN_SESSIONS", len(records)):
        uncapped = io.read_dataset(str(path))
    runs, columns = [], io._columns

    def spy(run):
        runs.append(len(run))
        return columns(run)

    monkeypatch.setattr(io, "_columns", spy)
    batch = io.read_dataset(str(path))
    assert max(runs) == model._RUN_SESSIONS and sum(runs) == len(records)
    for field in batch._fields:
        assert np.array_equal(getattr(batch, field), getattr(uncapped, field)), field


def _file(lengths, ndjson: bool) -> str:
    records = [{"segments": [1.0 + (k + t) % 5 for t in range(n)], "mos": 3.0,
                "interruptions": [{"after_segment": n, "duration_s": 0.5}] if k % 3 else []}
               for k, n in enumerate(lengths)]
    return "\n".join(map(json.dumps, records)) if ndjson else json.dumps(records)


CUT_FILES = {"short": [1, 2, 3, 1] * 150, "long": [50, 300, 120, 400] * 10,
             "mixed": [1, 400, 2, 3, 90, 1, 1, 250, 7] * 20}


@pytest.mark.parametrize("ndjson", [False, True])
@pytest.mark.parametrize("shape", sorted(CUT_FILES))
@pytest.mark.parametrize(("segments", "sessions"),
                         [(1, 1), (3, 2), (60, 5), (400, 3), (500, 1000),
                          (model._CHUNK_SEGMENTS, model._RUN_SESSIONS)])
def test_the_reader_cuts_a_file_where_the_batch_passes_cut_it(
        monkeypatch, tmp_path, ndjson, shape, segments, sessions) -> None:
    path = tmp_path / "d.json"
    path.write_text(_file(CUT_FILES[shape], ndjson))
    monkeypatch.setattr(model, "_CHUNK_SEGMENTS", segments)
    monkeypatch.setattr(model, "_RUN_SESSIONS", sessions)
    runs, columns = [], io._columns

    def spy(run):
        runs.append(len(run))
        return columns(run)

    monkeypatch.setattr(io, "_columns", spy)
    batch = io.read_dataset(str(path))
    assert batch.lengths.tolist() == CUT_FILES[shape]
    assert runs == [len(run.lengths) for _, run in batch.runs()]


#: Files whose runs end at a zero-segment record or next to a fault.
RUN_EDGE_FILES = [
    # The run in front of a session with two segments is rejected on its own.
    '[true, {"segments": [1.0, 1.0], "interruptions": [{"after_segment": 0, "duration_s": 0.01}]}]',
    '[{"segments": []}]',
    '{"segments": []}',
    '{"segments": []}\n{"segments": []}\n',
    f'[{A}, {{"segments": []}}]',
    f'[{A}, {B}, {{"segments": []}}]',
    f'[{{"segments": []}}, {{"segments": []}}, {A}]',
    f"[{A}, {BAD}, {{x]",
    f"[{BAD}, {{x]",
    "[true, {x]",
    f"{BAD}\n{{x\n",
    f"{A}\ntrue\n{{x\n",
]


@pytest.mark.parametrize("segments", [1, 2, 3])
@pytest.mark.parametrize("sessions", [1, 2, 3])
@pytest.mark.parametrize("text", RUN_EDGE_FILES)
def test_runs_that_end_at_a_zero_segment_record_or_a_fault_read_as_the_whole_file(
        text, segments, sessions) -> None:
    with mock.patch.object(model, "_CHUNK_SEGMENTS", segments), \
            mock.patch.object(model, "_RUN_SESSIONS", sessions):
        assert_readers_agree(text)


def test_no_records_read_as_an_empty_batch() -> None:
    columns_equal(io._dataset_of(iter([])), batch_of([]))


@pytest.mark.parametrize("ndjson", [False, True])
def test_the_text_is_freed_before_the_runs_are_joined(monkeypatch, ndjson) -> None:
    freed, joined = [], []

    class Text(str):
        def __del__(self) -> None:
            freed.append(True)

    def join(batches):
        joined.append(bool(freed))
        return concatenate(batches)

    sessions = [SESSIONS[k % 2] for k in range(300)]
    text = "\n".join(map(json.dumps, sessions)) if ndjson else json.dumps(sessions)
    concatenate = io._concatenate
    monkeypatch.setattr(io, "_read_text", lambda path: Text(text))
    monkeypatch.setattr(io, "_concatenate", join)
    assert len(io.read_dataset("f.json").lengths) == len(sessions)
    assert joined == [True]


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
    def unexpected(*args):
        raise AssertionError("read by the per-record reader")

    expected = batch_of(whole_file_sessions(text, "inline"))
    monkeypatch.setattr(traces, "sessions_from_records", unexpected)
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
