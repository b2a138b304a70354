"""File formats and atomic output: the one module that turns values into text and text into values.

Every input is UTF-8 text; a leading byte-order mark is skipped, and CRLF
and CR line ends read as LF.  Sessions travel as JSON objects with
``segments``, ``interruptions`` and optional ``mos``/``tag`` fields;
datasets as JSON arrays of those objects or as newline-delimited JSON,
and are written as compact JSON, a session at a time.  Any other JSON
file, such as a weights, baseline coefficients or generator recipe
record, is decoded by :func:`read_json` (the bundled weights by
:func:`paper_weights`) and checked by its record's ``from_dict``.
Weights, fit and evaluation reports and JSON predictions are written as
:func:`json_text` spells them: strict JSON, indented.  CSV outputs round
to 6 decimal places; JSON keeps full precision.  All file writes go
through a temp-file-and-rename so readers never observe partial output,
and :func:`write_texts` replaces none of its files until every temp file
is written and leaves no temp file behind (a rename refused after that
leaves the files renamed before it replaced); through a symlink the
rename lands on the link's target, and an existing target that is not a
regular file is written in place.

Session files have one reader.  :func:`read_dataset` decodes a file, or
the bundled demo session for ``"example"``, into a batch with its labels
and tags (``model._SessionBatch``) a run of sessions at a time, in one
loop: a JSON array an element at a time with the stdlib scanner, NDJSON
a line at a time, and each run that ``model._run_rows`` cuts, as every
batch pass cuts its runs, into columns checked in numpy, so one run's
decoded values are alive at once; it builds no ``SessionTrace``.  Only
the record iterator holds the file's text, so the text is freed once its
last record is decoded, before the last run goes into columns.  A run
the columns reject goes, alone, to the per-record reader
(``traces.sessions_from_records``), which raises its first error; so the
first fault in file order is reported, whatever the shape or run size.
:func:`read_sessions` gives the batch's sessions as traces.

Session files have one writer, :func:`write_dataset`, which encodes a
batch; given traces, it converts them to a batch first.  It spells each
session's text from the Python values of one run's columns, as
``json.dumps`` would spell the session's record, and builds no record.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import stat
import tempfile
from importlib import resources
from io import StringIO
from itertools import chain
from operator import itemgetter

import numpy as np

from . import model
from .errors import UsageError
from .model import FEATURE_NAMES, MAX_MOS, MIN_MOS, ModelWeights, _concatenate, _SessionBatch


def write_texts(outputs: dict) -> None:
    """Write each text of ``outputs`` to its path, as :func:`_atomic_write` writes it."""
    _atomic_write({path: (text,) for path, text in outputs.items()})


def _atomic_write(outputs: dict) -> None:
    """Write the strings each ``outputs[path]`` yields to ``path``, via a temp file beside it.

    No file is replaced until every temp file is written, so an output that cannot be written
    leaves every path as it was, and no temp file is left behind.  A rename can still be refused
    after that (another user's file in a sticky directory): the files renamed before it stay
    replaced.  A file gets the mode ``open`` would give a new file, ``0o666`` less the umask,
    rather than the temp file's owner-only one.  A symlink's target is written, and the link
    kept; an existing file that is not a regular one (a FIFO, a device) is written in place, as
    the rename would replace it, once the temp files are written.
    """
    umask = os.umask(0o077)  # the umask can only be read by setting it
    os.umask(umask)
    temps, in_place = [], []
    try:
        for path, pieces in outputs.items():
            try:
                regular = stat.S_ISREG(os.stat(path).st_mode)
            except OSError:  # no file yet, or an error that creating the temp file reports
                regular = True
            if not regular:
                in_place.append((path, pieces))
                continue
            target = os.path.realpath(path)
            try:
                fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp-",
                                                suffix="~")
            except OSError as exc:  # reported for the file asked for, not the temp file's name
                raise type(exc)(exc.errno, exc.strerror, path) from None
            temps.append((tmp_path, target))
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                os.chmod(tmp_path, 0o666 & ~umask)
                handle.writelines(pieces)
        for path, pieces in in_place:
            with open(path, "w", encoding="utf-8") as handle:
                handle.writelines(pieces)
        for tmp_path, target in temps:
            os.replace(tmp_path, target)
    except BaseException:
        for tmp_path, _ in temps:
            try:
                os.unlink(tmp_path)
            except OSError:  # renamed already
                pass
        raise


def json_text(data) -> str:
    """Every JSON output but a session file, as text: strict JSON, indented, with a last newline."""
    return json.dumps(data, indent=2, allow_nan=False) + "\n"


def write_json(data, path: str) -> None:
    write_texts({path: json_text(data)})


_BYTE_ORDER_MARK = "\ufeff".encode("utf-8")


def _read_text(path: str) -> str:
    """The UTF-8 text of a file with its line ends read as text mode reads them: CRLF and CR as LF.

    The bytes are freed once decoded, and each replacement frees the text it replaces, so at most
    two copies of the file are alive at once.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    start = len(_BYTE_ORDER_MARK) if data.startswith(_BYTE_ORDER_MARK) else 0
    try:
        # A view skips the mark without copying the bytes; a fault is reported at its file offset.
        text = str(memoryview(data)[start:], "utf-8")
    except UnicodeDecodeError as exc:
        fault = UnicodeDecodeError(exc.encoding, data, start + exc.start, start + exc.end, exc.reason)
        raise UsageError(f"{path}: not UTF-8 text: {fault}") from None
    del data
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        text = text.replace("\r", "\n")
    return text


def _parse_json(text: str, source: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deeply
        raise UsageError(f"{source}: invalid JSON: {exc}") from None


def _records(text: str, source: str):
    """The JSON value of each session of a file: a single object, a JSON array, or NDJSON lines.

    Array elements and NDJSON lines are decoded one at a time as the
    values are consumed, so that a bad session is reported before a later
    undecodable element or line.
    """
    start = re.match(r"\s*", text).end()  # the whitespace of str.isspace, without a copy
    if start == len(text):
        raise UsageError(f"{source}: empty file")
    if text.startswith("[", start):
        return _array_elements(text, start, source)
    try:
        return [json.loads(text)]
    except json.JSONDecodeError:  # multiple top-level values: newline-delimited JSON
        pass
    except RecursionError as exc:
        raise UsageError(f"{source}: invalid JSON: {exc}") from None
    # The non-blank lines, each a piece between two "\n"s (".+"): a line ends at LF alone, as a
    # string may hold U+0085, U+2028 or U+2029 raw, and CR line ends are read as LF before this.
    lines = filter(str.strip, map(re.Match.group, re.finditer(".+", text)))
    return (_parse_json(line, f"{source} line {k}") for k, line in enumerate(lines))


#: JSON whitespace, a comma and JSON whitespace: what lies between two array elements.
_ELEMENT_SEPARATOR = re.compile(r"[ \t\n\r]*,[ \t\n\r]*")


def _array_elements(text: str, start: int, source: str):
    """Each element of the JSON array that opens at ``text[start]``, decoded by the stdlib scanner.

    Where the scan fails, an empty array's ``]`` included, or after the last
    element if the text is not one JSON array, raises the error of ``json.loads``
    on the whole text, so the text is decoded whole only to explain a fault.
    """
    scan, skip = json.scanner.make_scanner(json.JSONDecoder()), json.decoder.WHITESPACE.match
    try:
        if skip(text, 0).end() == start:  # only JSON whitespace before the "["
            record, end = scan(text, skip(text, start + 1).end())
            yield record
            while separator := _ELEMENT_SEPARATOR.match(text, end):
                record, end = scan(text, separator.end())
                yield record
            end = skip(text, end).end()
            if text.startswith("]", end) and skip(text, end + 1).end() == len(text):
                return
    except (StopIteration, json.JSONDecodeError, RecursionError):  # StopIteration: no value there
        pass
    if _parse_json(text, source):
        raise AssertionError(f"{source}: the scan rejected a JSON array that json.loads reads")
    raise UsageError(f"{source}: no sessions")


def read_sessions(path: str) -> list:
    """Read a session file into ``SessionTrace`` objects: single object, JSON array, or NDJSON lines."""
    from .traces import traces_of

    return traces_of(read_dataset(path))


#: The Python types a JSON number decodes to.  ``bool`` is a subclass of
#: ``int``, so values are checked with ``type``, not ``isinstance``.
_JSON_NUMBER_TYPES = frozenset((int, float))
_DICTS, _LISTS = frozenset((dict,)), frozenset((list,))
_LABEL_TYPES = _JSON_NUMBER_TYPES | {type(None)}
_TAG_TYPES = frozenset((str, type(None)))


def _all_of(types: frozenset, values) -> bool:
    return types.issuperset(map(type, values))


def _columns(records: list):
    """The batch of decoded session records, or None where they need the per-record reader.

    Every value is checked as ``SessionTrace`` checks it, the ranges in
    numpy, so None covers every file that the per-record reader rejects.
    """
    if not _all_of(_DICTS, records):
        return None
    events = [r.get("interruptions", []) for r in records]
    if not _all_of(_LISTS, events):
        return None
    stalls = list(chain.from_iterable(events))
    if not _all_of(_DICTS, stalls):
        return None
    try:
        segments = list(map(itemgetter("segments"), records))
        after = list(map(itemgetter("after_segment"), stalls))
        durations = list(map(itemgetter("duration_s"), stalls))
    except KeyError:
        return None
    mos, tags = [r.get("mos") for r in records], [r.get("tag") for r in records]
    if not (
        _all_of(_LISTS, segments)
        and _all_of(_JSON_NUMBER_TYPES, chain(chain.from_iterable(segments), after, durations))
        and _all_of(_LABEL_TYPES, mos) and _all_of(_TAG_TYPES, tags)
    ):
        return None
    lengths = np.fromiter(map(len, segments), np.intp, len(records))
    n_stalls = np.fromiter(map(len, events), np.intp, len(records))
    try:
        quality = np.fromiter(chain.from_iterable(segments), float, lengths.sum())
        after, durations = np.array(after, dtype=float), np.array(durations, dtype=float)
        labels = np.array([math.nan if m is None else m for m in mos], dtype=float)
    except OverflowError:  # an integer beyond the float range
        return None
    # Every comparison with NaN is false, so a NaN fails each check; and
    # as many labels are NaN as are missing only if none is NaN in the file.
    unlabeled = np.isnan(labels)
    if not (
        lengths.all()
        and ((quality >= MIN_MOS) & (quality <= MAX_MOS)).all()
        and ((after >= 1) & (after == np.floor(after))).all()
        and (after <= np.repeat(lengths, n_stalls)).all()
        and ((durations > 0.0) & (durations < math.inf)).all()
        and (unlabeled | ((labels >= MIN_MOS) & (labels <= MAX_MOS))).all()
        and unlabeled.sum() == mos.count(None)
    ):
        return None
    return _SessionBatch(lengths, quality, n_stalls, after.astype(np.intp), durations, labels,
                         np.array(tags, dtype=object))


def dataset_from_text(text: str, source: str) -> _SessionBatch:
    """The batch of a session file, with the labels (NaN for none) and tags, read a run at a time.

    Records are cut into runs by ``model._run_rows`` (see :func:`_lengths`).  Each run goes
    into columns before the next is decoded, and nothing holds a run once it is in columns.
    The run in front of an undecodable record is checked before the decode fault is reported.
    :func:`read_dataset` hands the text to the record iterator alone, which frees it once its
    last record is decoded.
    """
    return _dataset_of(_records(text, source))


def _lengths(records, decoded: list):
    """Each record's segment count (1 for no list of segments) once it is in ``decoded``."""
    for record in records:
        decoded.append(record)
        segments = record.get("segments") if type(record) is dict else None
        yield len(segments) if type(segments) is list else 1


def _dataset_of(records) -> _SessionBatch:
    """The batch of the session records of an iterator, as :func:`dataset_from_text` reads them."""
    decoded, batches, rows = [], [], slice(0, 0)  # decoded: the records not yet in a run's columns
    runs = model._run_rows(_lengths(records, decoded))
    while True:
        try:
            rows = next(runs, None)
        except UsageError:  # a record that does not decode: the records after the last run first
            _run_batch(rows.stop, decoded)
            raise
        if rows is None:
            return _concatenate(batches or [_columns([])])
        batches.append(_run_batch(rows.start, decoded[:rows.stop - rows.start]))
        del decoded[:rows.stop - rows.start]


def _run_batch(start: int, run: list) -> _SessionBatch:
    """The batch of a list of records, the first of which has index ``start`` in its file.

    A run the column checks reject goes, alone, to the per-record reader, which raises its error.
    """
    batch = _columns(run)
    if batch is None:
        from .traces import sessions_from_records

        batch = model._batch(sessions_from_records(run, start))
    return batch


def read_dataset(spec: str) -> _SessionBatch:
    """Read a session file, or the bundled demo session (constant 5.0 MOS) for ``"example"``.

    The file becomes a batch (see :func:`dataset_from_text`); no traces are built.
    """
    if spec == "example":
        bundled = resources.files("hasqoe").joinpath("data/example_session.json")
        return dataset_from_text(bundled.read_text("utf-8"), "example_session.json")
    return _dataset_of(_records(_read_text(spec), spec))


def write_dataset(sessions, path: str) -> None:
    """Write sessions as one compact JSON array, encoded a session at a time.

    ``sessions`` is a sequence of ``SessionTrace`` objects, or a batch with
    its labels (NaN for none) and tags, as :func:`read_dataset` returns it.
    A non-finite quality, duration or label raises ``ValueError``, as
    ``json.dumps(..., allow_nan=False)`` does, and leaves no file.
    """
    _atomic_write({path: _dataset_pieces(model._batch(sessions))})


#: One interruption of a session file, from its ``(after_segment, duration_s)``.
_STALL = '{"after_segment":%d,"duration_s":%r}'


def _dataset_pieces(batch: _SessionBatch):
    """The text of :func:`write_dataset`, one session at a time.

    Each session is spelled as ``json.dumps(..., separators=(",", ":"))``
    spells ``SessionTrace.to_dict``: floats by their ``repr``, tags escaped
    to ASCII, no ``mos`` for a NaN label and no ``tag`` for None.  The
    columns go to Python values one run of ``batch.runs()`` at a time,
    after the run's floats are checked to be finite.
    """
    yield "["
    comma = ""
    for _, run in batch.runs():
        if not (np.isfinite(run.quality).all() and np.isfinite(run.durations).all()
                and not np.isinf(run.labels).any()):
            raise ValueError("Out of range float values are not JSON compliant")
        quality, after, durations = run.quality.tolist(), run.after.tolist(), run.durations.tolist()
        segment = stall = 0
        for length, n_stalls, label, tag in zip(run.lengths.tolist(), run.n_stalls.tolist(),
                                                run.labels.tolist(), run.tags.tolist()):
            text = (comma + '{"segments":[' + ",".join(map(repr, quality[segment:segment + length]))
                    + '],"interruptions":['
                    + ",".join(map(_STALL.__mod__, zip(after[stall:stall + n_stalls],
                                                       durations[stall:stall + n_stalls]))) + "]")
            if not math.isnan(label):
                text += ',"mos":' + repr(label)
            if tag is not None:
                text += ',"tag":' + json.encoder.encode_basestring_ascii(tag)
            yield text + "}"
            comma, segment, stall = ",", segment + length, stall + n_stalls
    yield "]\n"


def read_json(path: str):
    """The JSON value of a file, such as a record for ``ModelWeights.from_dict`` and its kin."""
    return _parse_json(_read_text(path), path)


def paper_weights() -> ModelWeights:
    """The published reference weight set bundled with the package."""
    text = resources.files("hasqoe").joinpath("data/paper_weights.json").read_text("utf-8")
    return ModelWeights.from_dict(_parse_json(text, "paper_weights.json"))


def read_weights(spec: str) -> ModelWeights:
    """Load weights from a JSON file, or the bundled set for ``"paper"``."""
    return paper_weights() if spec == "paper" else ModelWeights.from_dict(read_json(spec))


def write_weights(weights: ModelWeights, path: str) -> None:
    write_json(weights.to_dict(), path)


def read_external_predictions(path: str) -> dict[int, float]:
    """Read a ``session-id,predicted-mos`` CSV whose first non-blank row may be a header."""
    predictions: dict[int, float] = {}
    rows = [(k, row) for k, row in enumerate(csv.reader(StringIO(_read_text(path))))
            if "".join(row).strip()]
    for n, (k, row) in enumerate(rows):
        try:
            if len(row) != 2 or "_" in row[0] + row[1]:  # int() and float() skip a "_"
                raise ValueError
            session_id, value = int(row[0]), float(row[1])
        except ValueError:
            if n == 0:
                continue  # header row
            raise UsageError(f"{path} row {k}: not 'session-id,predicted-mos': {row!r}") from None
        if session_id in predictions:
            raise UsageError(f"{path} row {k}: duplicate session id {session_id}")
        predictions[session_id] = value
    if not predictions:
        raise UsageError(f"{path}: no predictions found")
    return predictions


def predictions_json_text(predictions, features=None) -> str:
    """JSON of per-session predictions; ``features``, a ``feature_matrix``, adds each one's row."""
    records = [{"index": k, "prediction": value} for k, value in enumerate(predictions)]
    if features is not None:
        for record, row in zip(records, features.tolist()):
            record["features"] = row
    return json_text(records)


def _csv_text(header, rows) -> str:
    """CSV of a header and tuple rows, each an integer label and then numbers with 6 decimals.

    No header name needs CSV quoting: each is a feature or field name.
    """
    row_format = "%d" + ",%.6f" * (len(header) - 1) + "\n"
    return ",".join(header) + "\n" + "".join(map(row_format.__mod__, rows))


def predictions_csv_text(predictions, features=None) -> str:
    """CSV of per-session predictions; ``features``, a ``feature_matrix``, adds its 22 columns."""
    if features is None:
        return _csv_text(["index", "prediction"], enumerate(predictions))
    rows = ((k, v, *row) for k, (v, row) in enumerate(zip(predictions, features.tolist())))
    return _csv_text(["index", "prediction", *FEATURE_NAMES], rows)


def per_split_csv_text(report) -> str:
    """CSV of per-split protocol metrics: the fields of each ``SplitMetrics.to_dict``."""
    if report.per_split is None:
        raise UsageError("report has no per-split metrics; run with --splits")
    records = [m.to_dict() for m in report.per_split]
    return _csv_text(records[0], (tuple(record.values()) for record in records))
