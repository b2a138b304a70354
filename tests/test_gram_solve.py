"""Differential tests: refits solved on the Gram matrix against the row solve.

An unconstrained refit solves ``XᵀX w = Xᵀy`` when ``fitting._gram_solve``
certifies ``XᵀX`` full rank, and otherwise its rows by SVD, as every fit
did before (``np.linalg.lstsq``).  The oracle here is that row solve: a fit
with the certificate patched to refuse every Gram.  Both must give the
same deficiency and warnings.  Where the Gram is accepted, weights and
predictions may differ by rounding; the normal equations' error grows
with ``cond(XᵀX)``, which the certificate caps at 1e8, and on generated
designs it stayed below 1e-12 relative to the largest weight, so
``TOLERANCE`` leaves a margin of a thousand.  Where it is refused, the
fit is the row solve, bit for bit.
"""

import warnings
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hasqoe import (GeneratorConfig, LabeledDataset, SplitProtocol, design_matrix, fit,
                    generate_labeled_dataset, paper_weights, refit_runner, run_split_protocol)
from hasqoe import evaluation, fitting
from hasqoe.fitting import _gram, _gram_solve, _train_moments

TOLERANCE = 1e-9  # relative to the largest weight, or 1


def lstsq_min_norm(matrix, targets):
    """The minimum-norm least-squares solution and the rank of ``matrix``."""
    solution, _, rank, _ = np.linalg.lstsq(matrix, targets, rcond=None)
    return solution, int(rank)


def traced(call):
    """``call()`` and the messages of the warnings it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [str(w.message) for w in caught]


def on_rows(call):
    """``traced(call)`` with every fit solved on its rows, as the row solve alone solves it."""
    with mock.patch.object(fitting, "_gram_solve", lambda gram, moment: None):
        return traced(call)


def assert_close(weights, expected) -> None:
    scale = max(1.0, float(np.abs(expected).max()))
    assert np.abs(np.asarray(weights) - expected).max() <= TOLERANCE * scale


def generated(n_segments, n, seed):
    dataset = generate_labeled_dataset(GeneratorConfig(n_segments=n_segments, rng_seed=seed), n,
                                       paper_weights(), noise_std=0.1)
    return design_matrix(dataset.batch), dataset.labels()


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=60),
    st.floats(min_value=0.0, max_value=0.4),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=20, max_value=500),
    st.floats(min_value=0.05, max_value=1.0),
)
def test_a_refit_is_the_row_solve(longest, stall_prob, seed, n, train_share) -> None:
    config = GeneratorConfig(n_segments=(1, longest), stall_prob_per_boundary=stall_prob,
                             rng_seed=seed)
    dataset = generate_labeled_dataset(config, n, paper_weights(), noise_std=0.2)
    model = refit_runner()
    matrix, labels = model.matrix(dataset.batch), dataset.labels()
    train = np.random.default_rng(seed).random(n) < train_share
    train[seed % n] = True
    moments = _gram(matrix, labels)

    (weights, deficient), messages = traced(lambda: model.fit(matrix, labels, train, moments))
    (expected, expected_deficient), expected_messages = on_rows(
        lambda: model.fit(matrix, labels, train, moments))
    solution, rank = lstsq_min_norm(matrix[train], labels[train])
    assert np.array_equal(expected, solution) and expected_deficient == (rank < 22)
    assert deficient == expected_deficient and messages == expected_messages
    assert_close(weights, expected)
    assert_close(model.predict(matrix, weights), model.predict(matrix, expected))
    if _gram_solve(*_train_moments(matrix, labels, train, moments)) is None:
        assert np.array_equal(weights, expected)
    else:
        assert rank == 22 and not messages  # an accepted Gram has full rank


def test_a_design_of_rank_21_warns_and_solves_on_its_rows() -> None:
    # Every session of two or more segments has an event, so the event
    # columns sum to -1 as the quality columns sum to 1.
    matrix, labels = generated((2, 30), 200, seed=3)
    assert lstsq_min_norm(matrix, labels)[1] == 21
    assert _gram_solve(*_gram(matrix, labels)) is None
    model = refit_runner()
    got, messages = traced(lambda: model.fit(matrix, labels))
    expected, expected_messages = on_rows(lambda: model.fit(matrix, labels))
    assert messages == expected_messages == [
        "design matrix is rank-deficient (rank 21 of 22); returning the minimum-norm solution"]
    assert got[1] and expected[1]
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(got[0], lstsq_min_norm(matrix, labels)[0])


def test_a_rank_deficient_protocol_refit_warns_once_at_the_protocol() -> None:
    # Each split's fit runs inside the generator ``split_predictions``, which
    # ``run_split_protocol`` resumes: that frame is the one the warning names.
    config = GeneratorConfig(n_segments=(2, 30), stall_prob_per_boundary=0.2, rng_seed=3)
    dataset = generate_labeled_dataset(config, 200, paper_weights(), noise_std=0.1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        run_split_protocol(dataset, SplitProtocol(n_repetitions=3), refit_runner())
    assert [str(w.message) for w in caught] == [
        "design matrix is rank-deficient (rank 21 of 22); returning the minimum-norm solution"]
    assert caught[0].filename == evaluation.__file__


def test_a_full_rank_design_too_ill_conditioned_for_the_gram_solves_on_its_rows() -> None:
    # Singular values from 1 down to 1e-7: lstsq calls this full rank, but
    # XᵀX has condition number 1e14, so the certificate must refuse it.
    rng = np.random.default_rng(8)
    left = np.linalg.qr(rng.standard_normal((400, 22)))[0]
    right = np.linalg.qr(rng.standard_normal((22, 22)))[0]
    matrix = left * np.logspace(0, -7, 22) @ right.T
    labels = rng.uniform(1.0, 5.0, 400)
    solution, rank = lstsq_min_norm(matrix, labels)
    assert rank == 22
    assert _gram_solve(*_gram(matrix, labels)) is None
    (weights, deficient), messages = traced(lambda: refit_runner().fit(matrix, labels))
    assert np.array_equal(weights, solution) and not deficient and messages == []


def test_constant_labels_fit_as_on_the_rows() -> None:
    # The quality columns sum to 1, so the constant is fit exactly.
    batch = generate_labeled_dataset(GeneratorConfig(rng_seed=4), 120, paper_weights()).batch
    dataset = LabeledDataset(batch._replace(labels=np.full(120, 3.7)))
    assert _gram_solve(*_gram(design_matrix(batch), dataset.labels())) is not None
    report, messages = traced(lambda: fit(dataset))
    expected, expected_messages = on_rows(lambda: fit(dataset))
    assert messages == expected_messages == []
    assert not report.condition_warning and not expected.condition_warning
    assert np.isnan(report.training_pcc) and np.isnan(expected.training_pcc)
    assert_close(report.weights.as_vector(), np.array(expected.weights.as_vector()))
    assert abs(report.training_rmse - expected.training_rmse) <= TOLERANCE


def test_a_split_with_fewer_training_rows_builds_their_own_gram() -> None:
    dataset = generate_labeled_dataset(GeneratorConfig(rng_seed=6), 300, paper_weights(),
                                       noise_std=0.2)
    model = refit_runner()
    matrix, labels = model.matrix(dataset.batch), dataset.labels()
    moments = _gram(matrix, labels)
    train = np.zeros(300, dtype=bool)
    train[::3] = True  # 100 training rows, 200 held out
    gram, moment = _train_moments(matrix, labels, train, moments)
    expected_gram, expected_moment = _gram(matrix[train], labels[train])
    assert np.array_equal(gram, expected_gram) and np.array_equal(moment, expected_moment)
    assert _gram_solve(gram, moment) is not None

    protocol = SplitProtocol(n_repetitions=5, test_size=200, test_pool="all", rng_seed=2)
    report, messages = traced(lambda: run_split_protocol(dataset, protocol, model, compensate=True))
    expected, expected_messages = on_rows(
        lambda: run_split_protocol(dataset, protocol, model, compensate=True))
    assert messages == expected_messages
    for got, want in zip(report.per_split, expected.per_split):
        for name in ("pcc", "rmse", "slope", "intercept"):
            assert abs(getattr(got, name) - getattr(want, name)) <= TOLERANCE


def test_one_training_session_fits_as_on_its_row() -> None:
    matrix, labels = generated((1, 40), 50, seed=7)
    train = np.arange(50) == 17
    model = refit_runner()
    got, messages = traced(lambda: model.fit(matrix, labels, train, _gram(matrix, labels)))
    expected, expected_messages = on_rows(lambda: model.fit(matrix, labels, train))
    assert messages == expected_messages == [
        "fitting 22 weights from only 1 session; the solution will be underdetermined",
        "design matrix is rank-deficient (rank 1 of 22); returning the minimum-norm solution",
    ]
    assert got[1] and expected[1]
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(got[0], lstsq_min_norm(matrix[train], labels[train])[0])
