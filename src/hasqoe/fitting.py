"""Least-squares estimation of the 22 model weights.

The design matrix absorbs the sign convention of the prediction
equations: quality frequencies enter positively, down-switch, grouped
and interruption frequencies negatively.  Labels are then approximated
as ``X @ w`` and the solved ``w`` plugs straight into
:class:`~hasqoe.model.ModelWeights`.

The solve uses an orthogonal factorization (SVD) rather than normal
equations; with rarely populated bins the design can be ill-conditioned
or rank-deficient, in which case the minimum-norm solution is returned
and ``condition_warning`` is set.  The clamp at 1.0 MOS is *not*
applied while solving, only when reporting training metrics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetricError, UsageError
from .model import EVENT_SLOTS, ModelWeights, SessionTrace, feature_matrix


@dataclass(frozen=True)
class LabeledDataset:
    """Sessions that all carry a ground-truth MOS."""

    sessions: tuple[SessionTrace, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sessions", tuple(self.sessions))
        if not self.sessions:
            raise UsageError("dataset is empty")
        for k, session in enumerate(self.sessions):
            if session.ground_truth_mos is None:
                raise UsageError(f"session {k} has no ground-truth MOS label")

    def __len__(self) -> int:
        return len(self.sessions)

    def labels(self) -> np.ndarray:
        return np.array([s.ground_truth_mos for s in self.sessions], dtype=float)


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
    """Signed feature rows, one session per row, 22 columns."""
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
    from .evaluation import pcc  # evaluation imports this module

    matrix = design_matrix(dataset.sessions)
    labels = dataset.labels()
    solution, deficient = solve(matrix, labels, nonnegative=nonnegative, warn=True)
    clamped = np.maximum(matrix @ solution, 1.0)
    residual = clamped - labels
    try:
        training_pcc = pcc(clamped, labels)
    except (DegenerateMetricError, UsageError):
        training_pcc = math.nan
    return FitReport(
        weights=ModelWeights.from_vector(solution),
        training_rmse=float(np.sqrt(np.mean(residual**2))),
        training_pcc=training_pcc,
        condition_warning=deficient,
    )


def solve(
    matrix: np.ndarray, labels: np.ndarray, *, nonnegative: bool = False, warn: bool = False
) -> tuple[np.ndarray, bool]:
    """Least-squares solution of ``matrix @ w ~ labels`` (see :func:`fit`) and rank deficiency.

    ``warn=True`` warns of fewer rows than columns and of rank deficiency.
    """
    n_rows, n_columns = matrix.shape
    if warn and n_rows < n_columns:
        warnings.warn(
            f"fitting {n_columns} weights from only {n_rows} sessions; "
            "the solution will be underdetermined",
            stacklevel=3,
        )
    if nonnegative:
        from scipy.optimize import nnls

        solution, _ = nnls(matrix, labels)
        rank = int(np.linalg.matrix_rank(matrix))
    else:
        solution, rank = lstsq_min_norm(matrix, labels)
    deficient = rank < n_columns
    if warn and deficient:
        warnings.warn(
            f"design matrix is rank-deficient (rank {rank} of {n_columns}); "
            "returning the minimum-norm solution",
            stacklevel=3,
        )
    return solution, deficient
