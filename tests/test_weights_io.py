import json
import math
import os
import stat
import threading
import tracemalloc
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hasqoe import (
    DOWN_SWITCH_BINS,
    GeneratorConfig,
    InterruptionEvent,
    ModelWeights,
    SessionTrace,
    UsageError,
    ValidationError,
    generate_labeled_dataset,
    generate_sessions,
    paper_weights,
)
from hasqoe import io, model
from hasqoe.traces import batch_of, traces_of

#: Segments per run of the dataset writer: one session per run, a few, and the default.
CHUNK_SIZES = [1, 2, 3, 7, 100, model._CHUNK_SEGMENTS]

REFERENCE_ALPHA = (1.11, 2.20, 3.20, 4.00, 4.50)
REFERENCE_BETA_DOWN = {
    (2, -1): 7.89,
    (3, -1): 3.93,
    (3, -2): 14.36,
    (4, -1): 0.01,
    (4, -2): 4.13,
    (4, -3): 18.99,
    (5, -1): 0.01,
    (5, -2): 3.93,
    (5, -3): 18.69,
    (5, -4): 24.76,
}
REFERENCE_GAMMA = (0.00, 8.42, 16.15, 24.16, 45.58, 50.65)


def test_bundled_weights_match_reference_tables_exactly() -> None:
    w = paper_weights()
    assert w.alpha == REFERENCE_ALPHA
    assert w.beta_down == REFERENCE_BETA_DOWN
    assert w.beta_um == 0.0
    assert w.gamma == REFERENCE_GAMMA


def test_bundled_weights_round_trip(tmp_path) -> None:
    w = paper_weights()
    assert ModelWeights.from_dict(w.to_dict()) == w
    path = tmp_path / "weights.json"
    io.write_weights(w, str(path))
    assert io.read_weights(str(path)) == w


def test_read_weights_paper_alias() -> None:
    assert io.read_weights("paper") == paper_weights()


def test_vector_round_trip() -> None:
    w = paper_weights()
    assert ModelWeights.from_vector(w.as_vector()) == w
    assert len(w.as_vector()) == 22


def test_weights_validation() -> None:
    w = paper_weights()
    with pytest.raises(ValidationError):
        ModelWeights(w.alpha[:4], w.beta_down, 0.0, w.gamma)
    missing = dict(w.beta_down)
    missing.pop((5, -4))
    with pytest.raises(ValidationError):
        ModelWeights(w.alpha, missing, 0.0, w.gamma)
    extra = dict(w.beta_down)
    extra[(1, -1)] = 1.0
    with pytest.raises(ValidationError):
        ModelWeights(w.alpha, extra, 0.0, w.gamma)
    with pytest.raises(ValidationError):
        ModelWeights.from_vector((1.0,) * 21)
    with pytest.raises(UsageError) as raised:
        ModelWeights(w.alpha, [1.0] * 10, 0.0, w.gamma)
    assert str(raised.value) == (
        "'beta_down' must be a dict keyed by down-switch bin, got " + repr([1.0] * 10))


def test_weights_from_dict_rejects_malformed() -> None:
    with pytest.raises(UsageError):
        ModelWeights.from_dict({"alpha": [1, 2, 3, 4, 5]})
    with pytest.raises(UsageError):
        ModelWeights.from_dict([1, 2, 3])


def test_weights_json_schema(tmp_path) -> None:
    path = tmp_path / "weights.json"
    io.write_weights(paper_weights(), str(path))
    data = json.loads(path.read_text())
    assert set(data) == {"alpha", "beta_down", "beta_um", "gamma"}
    assert len(data["alpha"]) == 5
    assert len(data["gamma"]) == 6
    assert {(e["i"], e["j"]) for e in data["beta_down"]} == set(DOWN_SWITCH_BINS)
    assert all(set(e) == {"i", "j", "w"} for e in data["beta_down"])


def test_read_dataset_array_ndjson_and_single(tmp_path) -> None:
    records = [
        {"segments": [5.0, 4.0], "mos": 4.1, "tag": "multi-factor"},
        {"segments": [3.0], "interruptions": [{"after_segment": 1, "duration_s": 0.7}]},
    ]
    array_path = tmp_path / "a.json"
    array_path.write_text(json.dumps(records))
    ndjson_path = tmp_path / "b.ndjson"
    ndjson_path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    single_path = tmp_path / "c.json"
    single_path.write_text(json.dumps(records[0]))

    from_array = io.read_sessions(str(array_path))
    from_ndjson = io.read_sessions(str(ndjson_path))
    assert from_array == from_ndjson
    assert len(from_array) == 2
    assert from_array[0].ground_truth_mos == 4.1
    assert from_array[0].tag == "multi-factor"
    assert io.read_sessions(str(single_path)) == [from_array[0]]


def test_read_sessions_reports_offending_record(tmp_path) -> None:
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"segments": [5.0]}, {"segments": [9.0]}]))
    with pytest.raises(ValidationError, match="session 1"):
        io.read_sessions(str(path))


def test_read_sessions_rejects_garbage(tmp_path) -> None:
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(UsageError, match="invalid JSON"):
        io.read_sessions(str(path))
    empty = tmp_path / "empty.json"
    empty.write_text("")
    with pytest.raises(UsageError, match="empty"):
        io.read_sessions(str(empty))


def test_dataset_round_trip(tmp_path) -> None:
    sessions = [
        SessionTrace([5.0, 4.4], (), 4.0, "single-factor"),
        SessionTrace([2.0, 2.0, 3.0], [InterruptionEvent(2, 1.5)], 2.2),
    ]
    path = tmp_path / "ds.json"
    io.write_dataset(sessions, str(path))
    assert io.read_sessions(str(path)) == sessions


def test_reading_a_dataset_holds_one_run_of_decoded_records(tmp_path) -> None:
    dataset = generate_labeled_dataset(GeneratorConfig(rng_seed=5), 5000, paper_weights(),
                                       noise_std=0.2)
    path = tmp_path / "ds.json"
    io.write_dataset(dataset.batch, str(path))
    text = path.read_text()
    tracemalloc.start()
    try:
        batch = io.dataset_from_text(text, "ds.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(map(np.array_equal, batch, dataset.batch))
    # A whole-file decode peaks at about 8x the columns' bytes; one run at a time, at about 2.3x.
    assert peak < 3 * sum(column.nbytes for column in batch)


#: Line ends, characters text mode leaves alone, letters of one to three UTF-8 bytes, and a
#: byte-order mark, which is skipped only at the start of a file.
TEXT_PIECES = st.sampled_from(["\r", "\n", "\r\n", "\r\r\n", "\x85", "\u2028", " ", "  ",
                               "a", "\xe9", "\u0436", "\u6c34", "\ufeff"])


@settings(max_examples=300)
@given(st.lists(TEXT_PIECES, max_size=16).map("".join))
def test_files_are_read_as_text_mode_reads_them(tmp_path_factory, text) -> None:
    path = tmp_path_factory.getbasetemp() / "text.json"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8-sig") as handle:
        assert io._read_text(str(path)) == handle.read()


def test_a_crlf_file_is_read_with_at_most_two_copies_alive(tmp_path) -> None:
    path = tmp_path / "crlf.json"
    for mark in (b"", b"\xef\xbb\xbf"):  # a decoded mark would make the text two bytes a letter
        path.write_bytes(mark + b'{"segments": [3.0, 4.5], "mos": 2.5}\r\n' * 80_000)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            text = io._read_text(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "\r" not in text and len(text) == size - len(mark) - 80_000
        # The bytes and their text, then one text and its replacement, not all three at once.
        assert peak <= 2.2 * size


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_write_dataset_in_slices_writes_one_array(tmp_path, monkeypatch, chunk) -> None:
    sessions = generate_sessions(GeneratorConfig(rng_seed=3), 7)
    path = tmp_path / "ds.json"
    monkeypatch.setattr(model, "_CHUNK_SEGMENTS", chunk)
    io.write_dataset(iter(sessions), str(path))
    whole = json.dumps([s.to_dict() for s in sessions], separators=(",", ":"))
    assert path.read_text() == whole + "\n"
    io.write_dataset([], str(path))
    assert path.read_text() == "[]\n"


@st.composite
def written_sessions(draw):
    """A session with integer or float qualities, often one segment or no stall, maybe a label and tag."""
    segments = draw(st.lists(st.integers(1, 5) | st.floats(1.0, 5.0), min_size=1, max_size=6))
    stalls = st.builds(InterruptionEvent, st.integers(1, len(segments)), st.floats(1e-6, 50.0))
    return SessionTrace(
        segments,
        draw(st.lists(stalls, max_size=3)),
        draw(st.none() | st.integers(1, 5) | st.floats(1.0, 5.0)),
        draw(st.none() | st.text(max_size=3)),
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(written_sessions(), max_size=10), st.sampled_from(CHUNK_SIZES))
def test_columnar_encoder_writes_what_to_dict_gives(sessions, chunk) -> None:
    expected = json.dumps([s.to_dict() for s in sessions], separators=(",", ":")) + "\n"
    with mock.patch.object(model, "_CHUNK_SEGMENTS", chunk):
        assert "".join(io._dataset_pieces(batch_of(sessions))) == expected


def record_oracle(batch) -> list[dict]:
    """Each session's record as the writer built it before it spelled sessions itself."""
    values = iter(batch.quality.tolist())
    events = iter([{"after_segment": a, "duration_s": d}
                   for a, d in zip(batch.after.tolist(), batch.durations.tolist())])
    records = []
    for length, n_stalls, label, tag in zip(batch.lengths.tolist(), batch.n_stalls.tolist(),
                                            batch.labels.tolist(), batch.tags.tolist()):
        record = {"segments": list(islice(values, length)),
                  "interruptions": list(islice(events, n_stalls))}
        if not math.isnan(label):
            record["mos"] = label
        if tag is not None:
            record["tag"] = tag
        records.append(record)
    return records


def oracle_text(batch) -> str:
    return json.dumps(record_oracle(batch), separators=(",", ":"), allow_nan=False) + "\n"


#: Tags with quotes, backslashes, control and non-ASCII characters, a lone surrogate and an
#: astral one, each of which JSON spells escaped.
ODD_TAGS = ['"', 'say "hi"', "back\\slash", "\x00\n\t", "\xe9t\xe9", "水", "\ud800",
            "\U0001f600", "multi-factor", ""]


@st.composite
def encoded_batches(draw):
    """A batch of up to 24 sessions of 1 to 400 segments, each with up to 3 stalls,
    a NaN or real label and a None, plain or odd tag."""
    n = draw(st.integers(1, 24))
    lengths = draw(hnp.arrays(np.intp, n, elements=st.integers(1, 400)))
    n_stalls = draw(hnp.arrays(np.intp, n, elements=st.integers(0, 3)))
    quality = draw(hnp.arrays(float, int(lengths.sum()), elements=st.floats(1.0, 5.0)))
    after = draw(hnp.arrays(np.intp, int(n_stalls.sum()), elements=st.integers(1, 400)))
    durations = draw(hnp.arrays(float, len(after), elements=st.floats(
        0.0, exclude_min=True, allow_infinity=False)))
    labels = draw(hnp.arrays(float, n, elements=st.just(math.nan) | st.floats(1.0, 5.0)))
    tags = draw(st.lists(st.none() | st.text(max_size=4) | st.sampled_from(ODD_TAGS),
                         min_size=n, max_size=n))
    return model._SessionBatch(lengths, quality, n_stalls,
                               np.minimum(after, np.repeat(lengths, n_stalls)), durations,
                               labels, np.array(tags, dtype=object))


#: Run sizes of the writer: a session or a few per run, and the default.
RUN_SIZES = [1, 7, 400, 1000, model._CHUNK_SEGMENTS]


@settings(max_examples=150, deadline=None)
@given(encoded_batches(), st.sampled_from(RUN_SIZES))
def test_session_encoder_writes_what_the_record_encoder_wrote(batch, chunk) -> None:
    with mock.patch.object(model, "_CHUNK_SEGMENTS", chunk):
        assert "".join(io._dataset_pieces(batch)) == oracle_text(batch)


@settings(max_examples=100, deadline=None)
@given(encoded_batches(), st.sampled_from(RUN_SIZES),
       st.sampled_from(["quality", "durations", "labels"]),
       st.sampled_from([math.nan, math.inf, -math.inf]), st.data())
def test_a_non_finite_value_raises_and_leaves_no_file(tmp_path_factory, batch, chunk, column,
                                                       value, data) -> None:
    values = getattr(batch, column).copy()
    assume(len(values) and not (column == "labels" and math.isnan(value)))  # NaN: no label
    values[data.draw(st.integers(0, len(values) - 1))] = value
    batch = batch._replace(**{column: values})
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        oracle_text(batch)
    directory = tmp_path_factory.mktemp("out")
    with mock.patch.object(model, "_CHUNK_SEGMENTS", chunk):
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            io.write_dataset(batch, str(directory / "ds.json"))
    assert list(directory.iterdir()) == []


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_written_files_follow_the_umask(tmp_path, umask) -> None:
    path = tmp_path / "out.json"
    previous = os.umask(umask)
    try:
        io.write_json({"a": 1}, str(path))
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask
        path.chmod(0o640)  # a file that is replaced takes the umask's mode, not its own
        io.write_dataset(generate_sessions(GeneratorConfig(rng_seed=3), 2), str(path))
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask
    finally:
        os.umask(previous)


def test_a_symlinked_output_writes_the_links_target(tmp_path) -> None:
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("old")
    link.symlink_to(target)
    io.write_json({"a": 1}, str(link))
    assert link.is_symlink() and target.read_text() == '{\n  "a": 1\n}\n'

    dangling = tmp_path / "dangling.json"
    dangling.symlink_to(tmp_path / "new.json")
    io.write_json({"b": 2}, str(dangling))
    assert dangling.is_symlink() and (tmp_path / "new.json").read_text() == '{\n  "b": 2\n}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "dangling.json", "link.json", "new.json", "target.json"]  # no temp file left


def test_a_failed_write_leaves_no_file(tmp_path) -> None:
    batch = batch_of(generate_sessions(GeneratorConfig(rng_seed=3), 2))
    batch.quality[0] = math.nan
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        io.write_dataset(batch, str(tmp_path / "ds.json"))
    assert list(tmp_path.iterdir()) == []


def test_a_refused_rename_leaves_the_later_targets_and_no_temp_file(tmp_path) -> None:
    # The first target is replaced before the second rename is refused: only the temp files are
    # all written before any target is replaced.
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    for path in (first, second):
        path.write_text("old\n")
    replace = os.replace

    def refuse_second(source, target):
        if os.path.basename(target) == second.name:
            raise PermissionError(1, "Operation not permitted", target)
        replace(source, target)

    with mock.patch.object(os, "replace", refuse_second):
        with pytest.raises(PermissionError):
            io.write_texts({str(first): "new\n", str(second): "new\n"})
    assert (first.read_text(), second.read_text()) == ("new\n", "old\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["first.txt", "second.txt"]


def test_a_fifo_output_is_written_in_place(tmp_path) -> None:
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    sessions = generate_sessions(GeneratorConfig(rng_seed=3), 300)  # more than a pipe buffer
    io.write_dataset(sessions, str(fifo))
    reader.join(timeout=30)
    assert not reader.is_alive()
    expected = json.dumps([s.to_dict() for s in sessions], separators=(",", ":")) + "\n"
    assert len(expected) > 1 << 16 and received == [expected]
    assert stat.S_ISFIFO(fifo.lstat().st_mode)


def test_external_predictions_csv(tmp_path) -> None:
    path = tmp_path / "ext.csv"
    path.write_text("session-id,predicted-mos\n0,4.2\n1,3.9\n")
    assert io.read_external_predictions(str(path)) == {0: 4.2, 1: 3.9}
    headerless = tmp_path / "raw.csv"
    headerless.write_text("0,4.2\n1,3.9\n")
    assert io.read_external_predictions(str(headerless)) == {0: 4.2, 1: 3.9}
    dup = tmp_path / "dup.csv"
    dup.write_text("0,4.2\n0,3.9\n")
    with pytest.raises(UsageError, match="duplicate"):
        io.read_external_predictions(str(dup))


def test_example_sessions_bundled() -> None:
    sessions = traces_of(io.read_dataset("example"))
    assert len(sessions) == 1
    assert set(sessions[0].segments) == {5.0}
