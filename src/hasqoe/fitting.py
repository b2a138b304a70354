"""The linear model: least squares over a per-session statistic matrix.

Every model the package fits or scores is a :class:`LinearModel`: the
histogram model over :func:`design_matrix`, refit or frozen, or a
comparison model over ``baselines.baseline_matrix`` (see the runners).
The design matrix absorbs the sign convention of the prediction
equations: quality frequencies enter positively, down-switch, grouped
and interruption frequencies negatively, so the solved ``w`` plugs
straight into :class:`~hasqoe.model.ModelWeights`.

:meth:`LinearModel.fit` is the one solve, and this module alone builds
the moments ``XᵀX`` and ``Xᵀy``.  An unconstrained fit solves the normal
equations ``XᵀX w = Xᵀy`` of its rows by LU (LAPACK ``gesv``) when
:func:`_gram_solve` certifies ``XᵀX`` full rank, and otherwise the rows
themselves by SVD (``np.linalg.lstsq``); ``nnls`` on the rows gives
non-negative weights.  :meth:`LinearModel.split_predictions` serves the
split protocol: it builds the moments of all rows once, and each split
subtracts those of its test rows.  A rank-deficient histogram fit warns,
and :func:`fit` sets ``condition_warning``.  :meth:`LinearModel.predict`
is the one clamp; it applies to the training metrics, not while solving.
:func:`fit` and :func:`fit_baseline_coefficients` fit on a whole dataset,
and ``evaluation.run_split_protocol`` on each training set.

A :class:`LabeledDataset` holds a batch with its labels and tags, made
from traces or given as read from a file or made by the generator;
:func:`fit` reads the batch, so a dataset given one builds no
``SessionTrace``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .baselines import MODEL_STATISTICS, BaselineCoefficients, _check_statistics, baseline_matrix
from .errors import DegenerateMetricError, UsageError
from .evaluation import pcc, rmse
from .model import (EVENT_SLOTS, MAX_MOS, MIN_MOS, N_PARAMETERS, ModelWeights, _batch, _finite,
                    _json_numbers, _SessionBatch, feature_matrix)


class LabeledDataset:
    """Sessions that all carry a ground-truth MOS.

    Built from :class:`~hasqoe.traces.SessionTrace` objects, which it
    keeps as :attr:`sessions`, or from a batch with its labels (NaN for
    none, which is an error here) and tags, such as ``io.read_dataset``
    decodes a file into.  Fitting and the split protocol read
    :attr:`batch` and :meth:`labels`; a dataset made from a batch builds
    its traces only when a caller asks for them.
    """

    def __init__(self, sessions) -> None:
        if not isinstance(sessions, _SessionBatch):
            self.sessions = sessions = tuple(sessions)
        self.batch = _checked(_batch(sessions))

    def __len__(self) -> int:
        return len(self.batch.labels)

    def __eq__(self, other) -> bool:
        if type(other) is not LabeledDataset:
            return NotImplemented
        # No label is NaN and no quality is -0.0, so equal columns mean equal traces.
        return all(map(np.array_equal, self.batch, other.batch))

    def __hash__(self) -> int:
        return hash(self.batch.quality.tobytes())

    def __repr__(self) -> str:
        return f"LabeledDataset(sessions={self.sessions!r})"

    @property
    def tags(self) -> tuple:
        """Each session's tag, ``str`` or None."""
        return tuple(self.batch.tags.tolist())

    @cached_property
    def sessions(self) -> tuple:
        """Each session as a :class:`~hasqoe.traces.SessionTrace` with its label and tag."""
        from .traces import traces_of

        return tuple(traces_of(self.batch))

    def labels(self) -> np.ndarray:
        return self.batch.labels.copy()


def _checked(batch: _SessionBatch) -> _SessionBatch:
    """``batch``, unless it has no sessions or a session has no label (NaN)."""
    if not len(batch.labels):
        raise UsageError("dataset is empty")
    missing = np.flatnonzero(np.isnan(batch.labels))
    if missing.size:
        raise UsageError(f"session {missing[0]} has no ground-truth MOS label")
    return batch


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


#: The largest ``trace(G) · trace(G⁻¹)`` of a Gram matrix ``G`` that :func:`_gram_solve` accepts.
_MAX_TRACE_PRODUCT = 1e8


def _gram(matrix: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The moments ``(XᵀX, Xᵀy)`` of the rows ``X`` with targets ``y``."""
    return matrix.T @ matrix, matrix.T @ targets


def _train_moments(matrix, labels, train, moments) -> tuple[np.ndarray, np.ndarray]:
    """The moments of the ``train`` rows (None: all), given ``moments`` of all rows or None.

    Those of all rows less those of the held-out rows, unless the training
    rows are the fewer: then theirs are built, so that no split loses
    precision to the cancellation.
    """
    if train is None:
        return _gram(matrix, labels)
    if moments is None or 2 * np.count_nonzero(train) < len(train):
        return _gram(matrix[train], labels[train])
    held_out = ~train
    gram, moment = _gram(matrix[held_out], labels[held_out])
    return moments[0] - gram, moments[1] - moment


def _gram_solve(gram: np.ndarray, moment: np.ndarray) -> np.ndarray | None:
    """The solution of ``gram @ w = moment``, or None unless ``gram`` is certified full rank.

    For a symmetric positive definite ``G``, ``trace(G) · trace(G⁻¹)`` lies
    between ``cond(G)`` and ``n² · cond(G)``.  A product that is finite and
    in ``(0, _MAX_TRACE_PRODUCT]`` therefore certifies a condition number
    far from rank deficiency.  A numerically singular ``G`` fails to
    invert, or inverts to a huge or a negative trace.
    """
    try:
        inverse = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        return None
    if not 0.0 < np.trace(gram) * np.trace(inverse) <= _MAX_TRACE_PRODUCT:
        return None
    return np.linalg.solve(gram, moment)  # more accurate than ``inverse @ moment``


@dataclass(frozen=True)
class LinearModel:
    """Least squares over a per-session statistic matrix, clamped to the MOS scale.

    ``statistics`` is ``"histogram"`` (22 signed columns, floored at
    1.0) or a tuple of baseline statistic names (plus an intercept
    column, clamped to [1, 5]).  ``weights`` fixes one finite weight per
    column; ``None`` refits them on each training set (w >= 0 if
    ``nonnegative``).
    """

    statistics: str | tuple[str, ...]
    weights: tuple[float, ...] | None = None
    nonnegative: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.statistics, tuple):
            _check_statistics(self.statistics)
        elif not isinstance(self.statistics, str) or self.statistics != "histogram":
            raise UsageError("'statistics' must be 'histogram' or a tuple of statistic names, "
                             f"got {self.statistics!r}")
        if self.weights is not None:
            weights = _json_numbers(self.weights, "'weights'")
            columns = N_PARAMETERS if self.statistics == "histogram" else len(self.statistics) + 1
            if len(weights) != columns or not all(map(math.isfinite, weights)):
                raise UsageError(f"'weights' must be {columns} finite numbers, one per column, "
                                 f"got {weights}")
            object.__setattr__(self, "weights", weights)
        if not isinstance(self.nonnegative, bool):
            raise UsageError(f"'nonnegative' must be true or false, got {self.nonnegative!r}")
        if self.nonnegative and self.weights is not None:
            raise UsageError("'nonnegative' constrains a refit; fixed 'weights' are not solved for")

    def matrix(self, sessions) -> np.ndarray:
        """The statistic matrix of traces or a ``model._SessionBatch``, one session per row."""
        if self.statistics == "histogram":
            return design_matrix(sessions)
        return baseline_matrix(sessions, self.statistics)

    def fit(self, matrix, labels, train=None, moments=None) -> tuple[np.ndarray, bool]:
        """Weights solved on the ``train`` rows (default: all) and whether those are rank-deficient.

        ``moments`` are ``(XᵀX, Xᵀy)`` of all rows, or None.  Fixed weights
        come back as they are.  A histogram refit warns, at its caller's
        caller, of fewer rows than columns or rank deficiency.
        """
        if self.weights is not None:
            return np.asarray(self.weights, dtype=float), False
        histogram = self.statistics == "histogram"
        n_rows = len(labels) if train is None else int(np.count_nonzero(train))
        n_columns = matrix.shape[1]
        if histogram and n_rows < n_columns:
            warnings.warn(
                f"fitting {n_columns} weights from only {n_rows} "
                f"session{'' if n_rows == 1 else 's'}; the solution will be underdetermined",
                stacklevel=3,
            )
        if n_rows >= n_columns and not self.nonnegative:
            weights = _gram_solve(*_train_moments(matrix, labels, train, moments))
            if weights is not None:  # certified full rank
                return weights, False
        if train is not None:
            matrix, labels = matrix[train], labels[train]
        if self.nonnegative:
            from scipy.optimize import nnls

            weights, rank = nnls(matrix, labels)[0], int(np.linalg.matrix_rank(matrix))
        else:
            weights, _, rank, _ = np.linalg.lstsq(matrix, labels, rcond=None)
            rank = int(rank)  # a numpy rank would make ``condition_warning`` a ``numpy.bool_``
        if histogram and rank < n_columns:
            warnings.warn(
                f"design matrix is rank-deficient (rank {rank} of {n_columns}); returning "
                + ("a non-negative solution, which need not have the minimum norm"
                   if self.nonnegative else "the minimum-norm solution"),
                stacklevel=3,
            )
        return weights, rank < n_columns

    def predict(self, matrix, weights) -> np.ndarray:
        """``matrix @ weights``, floored at 1.0 (histogram) or clipped to [1, 5] (baseline)."""
        raw = _finite(matrix @ np.asarray(weights, dtype=float))
        if self.statistics == "histogram":
            return np.maximum(raw, MIN_MOS)
        return np.clip(raw, MIN_MOS, MAX_MOS)

    def split_predictions(self, matrix, labels, tests):
        """For each held-out mask of ``tests``, every row's :meth:`predict` fitted on the rest.

        A generator.  An unconstrained refit builds ``(XᵀX, Xᵀy)`` of all
        rows once, and each split's :meth:`fit` subtracts those of its
        held-out rows.  :meth:`fit`'s warnings point at the frame that
        resumes the generator.
        """
        moments = None if self.weights is not None or self.nonnegative else _gram(matrix, labels)
        for test in tests:
            yield self.predict(matrix, self.fit(matrix, labels, ~test, moments)[0])


def refit_runner(*, nonnegative: bool = False) -> LinearModel:
    """The histogram model, refit on each training set."""
    return LinearModel("histogram", nonnegative=nonnegative)


def fixed_weights_runner(weights: ModelWeights) -> LinearModel:
    """The histogram model with one frozen weight set (training data ignored)."""
    return LinearModel("histogram", weights.as_vector())


def baseline_runner(model: str, coefficients: BaselineCoefficients | None = None) -> LinearModel:
    """A comparison model, with fixed ``coefficients`` or refit on each training set."""
    if model not in MODEL_STATISTICS:
        raise UsageError(
            f"unknown baseline model {model!r}; known models: {sorted(MODEL_STATISTICS)}"
        )
    if coefficients is None:
        return LinearModel(MODEL_STATISTICS[model])
    if coefficients.model != model:
        raise UsageError(f"coefficients are for baseline {coefficients.model!r}, not {model!r}")
    names = MODEL_STATISTICS[model]
    if coefficients.coefficients.keys() != set(names):
        raise UsageError(
            f"coefficients for baseline {model!r} must name exactly its statistics "
            f"{list(names)}, got {list(coefficients.coefficients)}"
        )
    return LinearModel(
        names, (*(coefficients.coefficients[name] for name in names), coefficients.intercept)
    )


def fit(dataset: LabeledDataset, *, nonnegative: bool = False) -> FitReport:
    """Fit the 22 weights to a labeled dataset by least squares.

    With ``nonnegative=True`` the solve is constrained to w >= 0 using
    an active-set method; by default the solve is unconstrained.  An
    undefined training PCC (constant predictions or labels) is NaN.
    """
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


def fit_baseline_coefficients(dataset: LabeledDataset, model: str) -> BaselineCoefficients:
    """Fit one comparison model's coefficients by OLS on a labeled dataset."""
    runner = baseline_runner(model)
    solution, _ = runner.fit(runner.matrix(dataset.batch), dataset.labels())
    *coefficients, intercept = solution.tolist()
    return BaselineCoefficients(model, dict(zip(runner.statistics, coefficients)), intercept)
