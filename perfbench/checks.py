"""Output checks for each kind of op.

Every check returns a list of problems; an op with any problem counts as
failed.  Invariants hold for any seed.  Feature columns, predictions,
fitted weights and generated labels are compared with ``oracle`` for any
seed; per-split protocol metrics and fitted weights are also compared
with the outputs recorded in ``reference.json`` when the seed has an
entry there.
"""

from __future__ import annotations

import csv
import io
import json
import math

import oracle

#: Absolute tolerance against recorded or oracle values.  CSV output has 6 decimals.
TOL_CSV = 1.5e-6
TOL_FLOAT = 1e-6
SPLIT_KEYS = ("pcc", "rmse", "slope", "intercept")


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def protocol(text: str, n_splits: int, reference: list | None) -> list[str]:
    """An ``evaluate --splits`` JSON report with train-side compensation."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    if set(report) != {*SPLIT_KEYS, "per_split"}:
        return [f"report keys {sorted(report)}"]
    splits = report["per_split"]
    if not isinstance(splits, list) or len(splits) != n_splits:
        return [f"expected {n_splits} splits"]
    for k, split in enumerate(splits):
        if set(split) != {"split", *SPLIT_KEYS} or split["split"] != k:
            problems.append(f"split {k} record {split}")
            continue
        if not all(_finite(split[key]) for key in SPLIT_KEYS):
            problems.append(f"split {k} has a non-finite metric")
            continue
        if not -1.0 <= split["pcc"] <= 1.0 or split["rmse"] < 0.0:
            problems.append(f"split {k} pcc {split['pcc']} rmse {split['rmse']}")
        if reference is not None:
            for key, expected in zip(SPLIT_KEYS, reference[k]):
                if abs(split[key] - expected) > TOL_FLOAT:
                    problems.append(f"split {k} {key} {split[key]} != reference {expected}")
    if not problems:
        for key in SPLIT_KEYS:
            mean = math.fsum(s[key] for s in splits) / n_splits
            if not _finite(report[key]) or abs(report[key] - mean) > 1e-9:
                problems.append(f"mean {key} {report[key]} != {mean}")
    return problems


def predictions(text: str, sessions: list[dict], expected: list[list[float]]) -> list[str]:
    """``predict --features`` CSV: index, prediction, then the 22 features per row.

    ``expected`` holds each session's oracle features.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0][:2] != ["index", "prediction"] or len(rows[0]) != 2 + oracle.N_FEATURES:
        return [f"header {rows[:1]}"]
    if len(rows) - 1 != len(sessions):
        return [f"{len(rows) - 1} rows for {len(sessions)} sessions"]
    problems = []
    for k, (row, session, want) in enumerate(zip(rows[1:], sessions, expected)):
        try:
            index, value, *got = int(row[0]), *(float(v) for v in row[1:])
        except ValueError:
            problems.append(f"row {k} unparsable: {row}")
            continue
        if index != k or len(got) != oracle.N_FEATURES:
            problems.append(f"row {k} index {index}, {len(got)} features")
            continue
        if value < 1.0 or abs(value - max(oracle.linear_score(want), 1.0)) > TOL_CSV:
            problems.append(f"row {k} prediction {value}")
        if any(abs(g - w) > TOL_CSV for g, w in zip(got, want)):
            problems.append(f"row {k} features differ from the oracle")
        if abs(sum(got[:5]) - 1.0) > 5 * TOL_CSV:
            problems.append(f"row {k} quality frequencies sum to {sum(got[:5])}")
        has_events = len(session["segments"]) > 1 or session["interruptions"]
        if abs(sum(got[5:]) - (1.0 if has_events else 0.0)) > 17 * TOL_CSV:
            problems.append(f"row {k} event frequencies sum to {sum(got[5:])}")
    return problems


def weight_vector(weights: dict) -> list[float]:
    """The 22 weights of a weights file in column order; raises on a malformed file."""
    if [(e["i"], e["j"]) for e in weights["beta_down"]] != list(oracle.DOWN_SWITCH_BINS):
        raise ValueError("beta_down bins out of order")
    vector = [*weights["alpha"], *(e["w"] for e in weights["beta_down"]), weights["beta_um"], *weights["gamma"]]
    if len(vector) != oracle.N_FEATURES or not all(_finite(v) for v in vector):
        raise ValueError(f"{len(vector)} weights, or a non-finite one")
    return vector


def fit(weights_text: str, report_text: str, rows: list[list[float]], labels: list[float],
        reference: list | None) -> list[str]:
    """``fit`` output: a weights file and a report on stdout.

    Whatever the solver, a least-squares solution satisfies the normal
    equations X'(Xw - y) = 0 on the signed design X, so they are checked
    directly; the training RMSE is recomputed from the clamped predictions.
    """
    try:
        w = weight_vector(json.loads(weights_text))
        report = json.loads(report_text)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        return [f"unreadable fit output: {exc!r}"]
    signed = [[s * f for s, f in zip(oracle.SIGNS, row)] for row in rows]
    residuals = [math.fsum(x * v for x, v in zip(row, w)) - y for row, y in zip(signed, labels)]
    gradient = [math.fsum(row[c] * r for row, r in zip(signed, residuals)) for c in range(oracle.N_FEATURES)]
    scale = max(abs(math.fsum(row[c] * y for row, y in zip(signed, labels))) for c in range(oracle.N_FEATURES))
    problems = []
    if max(abs(g) for g in gradient) > 1e-7 * scale:
        problems.append(f"weights miss the normal equations by {max(abs(g) for g in gradient)}")
    clamped = [max(r + y, 1.0) - y for r, y in zip(residuals, labels)]
    rmse = math.sqrt(math.fsum(c * c for c in clamped) / len(clamped))
    if set(report) != {"training_rmse", "training_pcc", "condition_warning"}:
        problems.append(f"report keys {sorted(report)}")
    elif abs(report["training_rmse"] - rmse) > 1e-9 * max(rmse, 1.0):
        problems.append(f"training_rmse {report['training_rmse']} != {rmse}")
    elif not -1.0 <= report["training_pcc"] <= 1.0:
        problems.append(f"training_pcc {report['training_pcc']}")
    if reference is not None and any(abs(a - b) > TOL_FLOAT for a, b in zip(w, reference)):
        problems.append("weights differ from the reference")
    return problems


def generated(text: str, count: int) -> tuple[list[str], int]:
    """``gen --weights paper --noise-std 0`` dataset; returns problems and its segment count."""
    try:
        sessions = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"dataset is not JSON: {exc}"], 0
    if not isinstance(sessions, list) or len(sessions) != count:
        return [f"expected {count} sessions"], 0
    problems = []
    segments = 0
    for k, session in enumerate(sessions):
        try:
            n = len(session["segments"])
            valid = n >= 1 and all(1.0 <= q <= 5.0 for q in session["segments"]) and all(
                1 <= e["after_segment"] <= n and e["duration_s"] > 0.0
                for e in session["interruptions"]
            )
            label, tag = session["mos"], session["tag"]
        except (KeyError, TypeError) as exc:
            problems.append(f"session {k} malformed: {exc!r}")
            continue
        segments += n
        if not valid:
            problems.append(f"session {k} has values out of range")
        elif abs(label - min(oracle.predict(session), 5.0)) > 1e-9:
            problems.append(f"session {k} label {label} != paper prediction")
        elif tag != oracle.tag(session):
            problems.append(f"session {k} tag {tag!r}")
    return problems, segments
