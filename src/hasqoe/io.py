"""File formats and atomic output.

Sessions travel as JSON objects with ``segments``, ``interruptions``
and optional ``mos``/``tag`` fields; datasets as JSON arrays of those
objects or as newline-delimited JSON, and are written as compact JSON,
a slice of sessions at a time.  Weights, baseline coefficients and
evaluation reports are single JSON objects, written indented.  CSV
outputs round to 6 decimal places; JSON keeps full precision.  All file
writes go through a temp-file-and-rename so readers never observe
partial output.

Session files have two readers.  :func:`read_dataset` decodes a file
into columns, a ``model._SessionBatch`` with a label and a tag column,
and checks every value in numpy; it builds no ``SessionTrace``.
:func:`read_sessions` builds one validated ``SessionTrace`` per record.
A file the columns reject is read again by the latter, so that its
errors, their messages and which one comes first are defined once.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from importlib import resources
from io import StringIO
from itertools import chain, islice
from operator import itemgetter

import numpy as np

from .baselines import BaselineCoefficients
from .errors import UsageError, ValidationError
from .model import (
    _JSON_NUMBER_TYPES,
    FEATURE_NAMES,
    MAX_MOS,
    MIN_MOS,
    ModelWeights,
    SessionTrace,
    _label_column,
    _SessionBatch,
    paper_weights,
)
from .synth import GeneratorConfig


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file in the same directory."""
    _atomic_write(path, (text,))


def _atomic_write(path: str, pieces) -> None:
    """Write the strings ``pieces`` yields to ``path`` via a temp file in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def write_json(data, path: str) -> None:
    atomic_write_text(path, json.dumps(data, indent=2, allow_nan=False) + "\n")


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _parse_json(text: str, source: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{source}: invalid JSON: {exc}") from None


def _records(text: str, source: str):
    """The JSON value of each session of a file: a single object, a JSON array, or NDJSON lines.

    NDJSON lines are decoded one at a time as the values are consumed, so
    that a bad session is reported before a later undecodable line.
    """
    stripped = text.lstrip()
    if not stripped:
        raise UsageError(f"{source}: empty file")
    if stripped.startswith("["):
        data = _parse_json(text, source)
        if not data:
            raise UsageError(f"{source}: no sessions")
        return data
    try:
        return [json.loads(text)]
    except json.JSONDecodeError:
        # Multiple top-level values: treat as newline-delimited JSON.
        lines = (line for line in text.splitlines() if line.strip())
        return (_parse_json(line, f"{source} line {k}") for k, line in enumerate(lines))


def _session_from_obj(obj, index: int) -> SessionTrace:
    try:
        return SessionTrace.from_dict(obj)
    except (UsageError, ValidationError) as exc:
        raise type(exc)(f"session {index}: {exc}") from None


def sessions_from_text(text: str, source: str) -> list[SessionTrace]:
    """Parse sessions from a single object, a JSON array, or NDJSON lines."""
    return [_session_from_obj(obj, k) for k, obj in enumerate(_records(text, source))]


def read_sessions(path: str) -> list[SessionTrace]:
    """Read a session file: single object, JSON array, or NDJSON lines."""
    return sessions_from_text(_read_text(path), path)


_DICTS, _LISTS = frozenset((dict,)), frozenset((list,))
_LABEL_TYPES = _JSON_NUMBER_TYPES | {type(None)}
_TAG_TYPES = frozenset((str, type(None)))


def _all_of(types: frozenset, values) -> bool:
    return types.issuperset(map(type, values))


def _columns(records: list):
    """The columns of decoded session records, or None where they need the per-record reader.

    Every value is checked as ``SessionTrace.from_dict`` checks it, the
    ranges in numpy, so None covers every file that reader rejects.
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
    return _SessionBatch(lengths, quality, n_stalls, after.astype(np.intp), durations), labels, tags


def dataset_from_text(text: str, source: str) -> tuple[_SessionBatch, np.ndarray, list]:
    """:func:`sessions_from_text` as columns: the sessions' batch, labels (NaN for none) and tags.

    A file the column checks do not pass is read again by
    :func:`sessions_from_text`, which raises its error.
    """
    try:
        columns = _columns(list(_records(text, source)))
    except UsageError:
        columns = None
    if columns is None:
        traces = sessions_from_text(text, source)
        columns = _SessionBatch.of(traces), _label_column(traces), [s.tag for s in traces]
    return columns


def read_dataset(path: str) -> tuple[_SessionBatch, np.ndarray, list]:
    """Read a session file into columns (see :func:`dataset_from_text`), building no traces."""
    return dataset_from_text(_read_text(path), path)


#: Sessions encoded at a time by :func:`write_dataset`, which bounds the
#: record dicts and text held at once.
_WRITE_SLICE = 2000


def write_dataset(sessions, path: str) -> None:
    """Write sessions as one compact JSON array, encoded a slice at a time by the C encoder."""
    _atomic_write(path, _dataset_pieces(iter(sessions)))


def _dataset_pieces(sessions):
    """The text of :func:`write_dataset`, piece by piece, from an iterator of sessions."""
    yield "["
    separator = ""
    while chunk := list(islice(sessions, _WRITE_SLICE)):
        text = json.dumps([s.to_dict() for s in chunk], separators=(",", ":"), allow_nan=False)
        yield separator
        yield text[1:-1]  # the records without the array's brackets
        separator = ","
    yield "]\n"


def _bundled_example() -> str:
    return resources.files("hasqoe").joinpath("data/example_session.json").read_text("utf-8")


def example_sessions() -> list[SessionTrace]:
    """The tiny demo trace bundled with the package (constant 5.0 MOS)."""
    return sessions_from_text(_bundled_example(), "example_session.json")


def example_dataset() -> tuple[_SessionBatch, np.ndarray, list]:
    """:func:`example_sessions` as columns (see :func:`dataset_from_text`)."""
    return dataset_from_text(_bundled_example(), "example_session.json")


def read_weights(spec: str) -> ModelWeights:
    """Load weights from a JSON file, or the bundled set for ``"paper"``."""
    if spec == "paper":
        return paper_weights()
    return ModelWeights.from_dict(_parse_json(_read_text(spec), spec))


def write_weights(weights: ModelWeights, path: str) -> None:
    write_json(weights.to_dict(), path)


def read_baseline_coefficients(path: str) -> BaselineCoefficients:
    return BaselineCoefficients.from_dict(_parse_json(_read_text(path), path))


def write_baseline_coefficients(coefficients: BaselineCoefficients, path: str) -> None:
    write_json(coefficients.to_dict(), path)


def read_generator_config(path: str) -> GeneratorConfig:
    return GeneratorConfig.from_dict(_parse_json(_read_text(path), path))


def read_external_predictions(path: str) -> dict[int, float]:
    """Read a ``session-id,predicted-mos`` CSV whose first non-blank row may be a header."""
    predictions: dict[int, float] = {}
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = [(k, row) for k, row in enumerate(csv.reader(handle)) if "".join(row).strip()]
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


def predictions_csv_text(predictions, features=None) -> str:
    """CSV of per-session predictions; ``features``, a ``feature_matrix``, adds its 22 columns."""
    buffer = StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    header = ["index", "prediction"]
    if features is not None:
        header += FEATURE_NAMES
        features = features.tolist()
    writer.writerow(header)
    for k, value in enumerate(predictions):
        row = [str(k), f"{value:.6f}"]
        if features is not None:
            row += [f"{v:.6f}" for v in features[k]]
        writer.writerow(row)
    return buffer.getvalue()


def per_split_csv_text(report) -> str:
    """CSV of per-split protocol metrics."""
    if report.per_split is None:
        raise UsageError("report has no per-split metrics; run with --splits")
    buffer = StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    compensated = any(m.slope is not None for m in report.per_split)
    header = ["split", "pcc", "rmse"] + (["slope", "intercept"] if compensated else [])
    writer.writerow(header)
    for m in report.per_split:
        row = [str(m.split), f"{m.pcc:.6f}", f"{m.rmse:.6f}"]
        if compensated:
            row += [f"{m.slope:.6f}", f"{m.intercept:.6f}"]
        writer.writerow(row)
    return buffer.getvalue()
