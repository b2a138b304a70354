"""Least-squares estimation of the 22 model weights.

The design matrix absorbs the sign convention of the prediction
equations: quality frequencies enter positively, down-switch, grouped
and interruption frequencies negatively.  Labels are then approximated
as ``X @ w`` and the solved ``w`` plugs straight into
:class:`~hasqoe.model.ModelWeights`.

:func:`fit` solves and scores through ``evaluation.LinearModel``, whose
one solve, :func:`solve`, uses an SVD rather than normal equations; with
rarely populated bins the design can be rank-deficient, in which case the
minimum-norm solution is returned and ``condition_warning`` is set.  The
clamp at 1.0 MOS is applied to the training metrics, not while solving.

A :class:`LabeledDataset` read from a file holds the columns of
``io.read_dataset``; :func:`fit` reads its batch and labels, so no
``SessionTrace`` is built for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateMetricError, UsageError
from .model import (
    EVENT_SLOTS,
    ModelWeights,
    SessionTrace,
    _label_column,
    _SessionBatch,
    feature_matrix,
)


class LabeledDataset:
    """Sessions that all carry a ground-truth MOS.

    Built from :class:`~hasqoe.model.SessionTrace` objects, or by
    :meth:`from_columns` from the columns ``io.read_dataset`` decodes a
    file into.  Fitting and the split protocol read :attr:`batch`,
    :meth:`labels` and :attr:`tags`; the traces and the batch are each
    built from the other only when a caller asks for them.
    """

    def __init__(self, sessions) -> None:
        self.sessions = tuple(sessions)
        self._labels = _checked_labels(_label_column(self.sessions))

    @classmethod
    def from_columns(cls, batch: _SessionBatch, labels: np.ndarray, tags) -> "LabeledDataset":
        """The dataset of a batch, its label column (NaN for no label) and its tags."""
        dataset = cls.__new__(cls)
        dataset.batch, dataset.tags = batch, tuple(tags)
        dataset._labels = _checked_labels(labels)
        return dataset

    def __len__(self) -> int:
        return len(self._labels)

    def __eq__(self, other) -> bool:
        if type(other) is not LabeledDataset:
            return NotImplemented
        return self.sessions == other.sessions

    def __hash__(self) -> int:
        return hash(self.sessions)

    def __repr__(self) -> str:
        return f"LabeledDataset(sessions={self.sessions!r})"

    @cached_property
    def sessions(self) -> tuple[SessionTrace, ...]:
        """Each session as a :class:`~hasqoe.model.SessionTrace` with its label and tag."""
        return tuple(self.batch.traces(range(len(self)), self._labels.tolist(), self.tags))

    @cached_property
    def batch(self) -> _SessionBatch:
        """The sessions as one ``model._SessionBatch``."""
        return _SessionBatch.of(self.sessions)

    @cached_property
    def tags(self) -> tuple[str | None, ...]:
        """Each session's tag."""
        return tuple(s.tag for s in self.sessions)

    def labels(self) -> np.ndarray:
        return self._labels.copy()


def _checked_labels(labels: np.ndarray) -> np.ndarray:
    """``labels``, unless there are none or a session has none (NaN)."""
    if not len(labels):
        raise UsageError("dataset is empty")
    missing = np.flatnonzero(np.isnan(labels))
    if missing.size:
        raise UsageError(f"session {missing[0]} has no ground-truth MOS label")
    return labels


@dataclass(frozen=True)
class FitReport:
    """Fitted weights plus training metrics of the clamped predictions."""

    weights: ModelWeights
    training_rmse: float
    training_pcc: float
    condition_warning: bool = False

    def to_dict(self) -> dict:
        """JSON-ready fields; an undefined (NaN) training PCC is written as ``None``."""
        return {
            "training_rmse": self.training_rmse,
            "training_pcc": None if math.isnan(self.training_pcc) else self.training_pcc,
            "condition_warning": self.condition_warning,
        }


def design_matrix(sessions) -> np.ndarray:
    """Signed feature rows, one session per row, 22 columns, of traces or a ``_SessionBatch``."""
    rows = feature_matrix(sessions)
    rows[:, EVENT_SLOTS] *= -1.0
    return rows


def lstsq_min_norm(matrix: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, int]:
    """Minimum-norm least-squares solution and the rank of the matrix."""
    solution, _, rank, _ = np.linalg.lstsq(matrix, targets, rcond=None)
    return solution, int(rank)


def fit(dataset: LabeledDataset, *, nonnegative: bool = False) -> FitReport:
    """Fit the 22 weights to a labeled dataset by least squares.

    With ``nonnegative=True`` the solve is constrained to w >= 0 using
    an active-set method; by default the solve is unconstrained.  An
    undefined training PCC (constant predictions or labels) is NaN.
    """
    from .evaluation import pcc, refit_runner, rmse  # evaluation imports this module

    model = refit_runner(nonnegative=nonnegative)
    matrix, labels = model.matrix(dataset.batch), dataset.labels()
    solution, deficient = model.fit(matrix, labels)
    clamped = model.predict(matrix, solution)
    try:
        training_pcc = pcc(clamped, labels)
    except (DegenerateMetricError, UsageError):
        training_pcc = math.nan
    return FitReport(
        weights=ModelWeights.from_vector(solution),
        training_rmse=rmse(clamped, labels),
        training_pcc=training_pcc,
        condition_warning=deficient,
    )


def solve(matrix, labels, *, nonnegative: bool = False) -> tuple[np.ndarray, int]:
    """Least-squares solution of ``matrix @ w ~ labels`` (see :func:`fit`) and the matrix's rank."""
    if nonnegative:
        from scipy.optimize import nnls

        solution, _ = nnls(matrix, labels)
        return solution, int(np.linalg.matrix_rank(matrix))
    return lstsq_min_norm(matrix, labels)
