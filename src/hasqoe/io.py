"""File formats and atomic output.

Sessions travel as JSON objects with ``segments``, ``interruptions``
and optional ``mos``/``tag`` fields; datasets as JSON arrays of those
objects or as newline-delimited JSON.  Weights, baseline coefficients
and evaluation reports are single JSON objects.  CSV outputs round to
6 decimal places; JSON keeps full precision.  All file writes go
through a temp-file-and-rename so readers never observe partial output.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from importlib import resources
from io import StringIO

from .baselines import BaselineCoefficients
from .errors import UsageError, ValidationError
from .model import FEATURE_NAMES, ModelWeights, SessionTrace, paper_weights
from .synth import GeneratorConfig


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
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


def _session_from_obj(obj, index: int) -> SessionTrace:
    try:
        return SessionTrace.from_dict(obj)
    except (UsageError, ValidationError) as exc:
        raise type(exc)(f"session {index}: {exc}") from None


def sessions_from_text(text: str, source: str) -> list[SessionTrace]:
    """Parse sessions from a single object, a JSON array, or NDJSON lines."""
    stripped = text.lstrip()
    if not stripped:
        raise UsageError(f"{source}: empty file")
    if stripped.startswith("["):
        data = _parse_json(text, source)
        return [_session_from_obj(obj, k) for k, obj in enumerate(data)]
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        # Multiple top-level values: treat as newline-delimited JSON.
        sessions = []
        for k, line in enumerate(line for line in text.splitlines() if line.strip()):
            sessions.append(_session_from_obj(_parse_json(line, f"{source} line {k}"), k))
        return sessions
    return [_session_from_obj(data, 0)]


def read_sessions(path: str) -> list[SessionTrace]:
    """Read a session file: single object, JSON array, or NDJSON lines."""
    return sessions_from_text(_read_text(path), path)


def write_dataset(sessions, path: str) -> None:
    write_json([s.to_dict() for s in sessions], path)


def example_sessions() -> list[SessionTrace]:
    """The tiny demo trace bundled with the package (constant 5.0 MOS)."""
    text = resources.files("hasqoe").joinpath("data/example_session.json").read_text("utf-8")
    return sessions_from_text(text, "example_session.json")


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
    """Read a ``session-id,predicted-mos`` CSV (header row optional)."""
    predictions: dict[int, float] = {}
    with open(path, "r", encoding="utf-8", newline="") as handle:
        for k, row in enumerate(csv.reader(handle)):
            if not row or not "".join(row).strip():
                continue
            if len(row) < 2:
                raise UsageError(f"{path} row {k}: expected 'session-id,predicted-mos'")
            try:
                session_id, value = int(row[0]), float(row[1])
            except ValueError:
                if k == 0:
                    continue  # header row
                raise UsageError(f"{path} row {k}: bad values {row!r}") from None
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
