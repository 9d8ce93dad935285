import numpy as np
import pytest

from cswlp import (
    DenseMatrix,
    Measurements,
    RestrictedTransform,
    SignalVector,
    SupportEstimate,
    WeightVector,
    best_k_term,
    snr_db,
    weighted_lp_norm,
)
from cswlp.audio import dct_matrix
from cswlp.core import _dct, _idct


def test_signal_vector_rejects_non_finite():
    with pytest.raises(ValueError):
        SignalVector(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        SignalVector(np.array([[1.0, 2.0]]))


def test_dense_matrix_must_be_underdetermined_or_square():
    DenseMatrix(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        DenseMatrix(np.zeros((4, 3)))


@pytest.mark.parametrize("N", [1, 2, 3, 8, 127, 128])
def test_restricted_transform_dct_matches_dense(N):
    rng = np.random.default_rng(N)
    rows = tuple(int(i) + 1 for i in np.sort(rng.choice(N, size=max(1, N // 3), replace=False)))
    rt = RestrictedTransform(rows=rows, size=N)
    dense = dct_matrix(N).T[np.asarray(rows) - 1]
    x = rng.standard_normal(N)
    r = rng.standard_normal(len(rows))
    assert np.max(np.abs(rt.apply(x) - dense @ x)) < 1e-12
    assert np.max(np.abs(rt.adjoint(r) - dense.T @ r)) < 1e-12
    assert np.max(np.abs(rt.as_dense() - dense)) < 1e-12


@pytest.mark.parametrize("N", [7, 8, 255, 256, 2048])
def test_restricted_transform_projects_onto_its_null_space_in_one_pass(N):
    # rows 1 and N are kept: the first and last samples sit at either end
    # of the FFT's even/odd-reversed sample order
    rng = np.random.default_rng(N)
    inner = rng.choice(np.arange(2, N), size=N // 3, replace=False)
    rt = RestrictedTransform(rows=(1, N, *(int(i) for i in inner)), size=N)
    d = rng.standard_normal(N)
    tol = 1e-13 * float(np.linalg.norm(d))
    pd = rt.project_null(d)
    assert np.linalg.norm(pd - (d - rt.adjoint(rt.apply(d)))) <= tol
    assert np.linalg.norm(rt.apply(pd)) <= tol
    assert np.linalg.norm(rt.project_null(pd) - pd) <= tol
    # the DCT pair built over the same helpers still inverts itself
    assert np.max(np.abs(_idct(_dct(d)) - d)) < 1e-13
    assert np.max(np.abs(_dct(_idct(d)) - d)) < 1e-13


def test_operators_adjoint_identity():
    rng = np.random.default_rng(17)
    dense = DenseMatrix(rng.standard_normal((4, 9)))
    dct = RestrictedTransform(rows=(2, 5, 6, 9), size=9)
    for op in (dense, dct):
        x = rng.standard_normal(9)
        r = rng.standard_normal(4)
        assert abs(float(op.apply(x) @ r) - float(x @ op.adjoint(r))) < 1e-12
    # the restricted transform has orthonormal rows: A A^T = I
    assert np.max(np.abs(dct.apply(dct.adjoint(r)) - r)) < 1e-12


@pytest.mark.parametrize("cols", [[0], [3, 0, 7], [8, 1, 2, 5], list(range(9))])
def test_operator_columns_match_dense_columns(cols):
    rng = np.random.default_rng(41)
    dense = DenseMatrix(rng.standard_normal((4, 9)))
    dct = RestrictedTransform(rows=(2, 5, 6, 9), size=9)
    idx = np.asarray(cols, dtype=np.intp)
    for op in (dense, dct):
        assert np.array_equal(op.columns(idx), op.as_dense()[:, idx])


def test_restricted_transform_rejects_bad_rows():
    with pytest.raises(ValueError):
        RestrictedTransform(rows=(0, 1), size=4)
    with pytest.raises(ValueError):
        RestrictedTransform(rows=(1, 1), size=4)
    with pytest.raises(ValueError):
        RestrictedTransform(rows=(5,), size=4)


def test_measurements_epsilon_must_be_nonnegative():
    Measurements(y=np.ones(3), epsilon=0.0)
    with pytest.raises(ValueError):
        Measurements(y=np.ones(3), epsilon=-1e-9)


def test_support_estimate_sorted_distinct_one_based():
    est = SupportEstimate((3, 1, 2))
    assert est.indices == (1, 2, 3)
    with pytest.raises(ValueError):
        SupportEstimate((0, 1))
    with pytest.raises(ValueError):
        SupportEstimate((2, 2))
    est.validate_within(3)
    with pytest.raises(ValueError):
        est.validate_within(2)


def test_weight_vector_pattern():
    wv = WeightVector(omega=0.25, estimate=SupportEstimate((2, 4)), size=5)
    assert np.array_equal(wv.weights, np.array([1.0, 0.25, 1.0, 0.25, 1.0]))
    with pytest.raises(ValueError):
        WeightVector(omega=1.5, estimate=SupportEstimate((2, 4)), size=5)
    with pytest.raises(ValueError):
        WeightVector(omega=0.5, estimate=SupportEstimate((2, 4)), size=3)


def test_weighted_lp_norm_spot_value():
    # p = 0.5, weights (1, 0.5): (1 + sqrt(0.5))^2
    got = weighted_lp_norm(np.array([1.0, 1.0]), np.array([1.0, 0.5]), 0.5)
    assert abs(got - 2.914213562373095) < 1e-12


def test_weighted_lp_norm_reduces_to_plain_lp():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(16)
    w = np.ones(16)
    for p in (0.3, 0.7, 1.0):
        direct = float(np.sum(np.abs(x) ** p) ** (1.0 / p))
        assert abs(weighted_lp_norm(x, w, p) - direct) < 1e-12


def test_weighted_lp_norm_rejects_bad_p():
    with pytest.raises(ValueError):
        weighted_lp_norm(np.ones(2), np.ones(2), 0.0)
    with pytest.raises(ValueError):
        weighted_lp_norm(np.ones(2), np.ones(2), 1.5)


def test_best_k_term_keeps_largest_and_breaks_ties_first():
    x = SignalVector(np.array([2.0, -2.0, 1.0]))
    approx, support = best_k_term(x, 1)
    assert np.array_equal(approx.entries, np.array([2.0, 0.0, 0.0]))
    assert support == (1,)
    approx2, support2 = best_k_term(x, 2)
    assert support2 == (1, 2)
    assert np.array_equal(approx2.entries, np.array([2.0, -2.0, 0.0]))


def test_best_k_term_edge_sizes():
    x = SignalVector(np.array([3.0, -1.0]))
    zero, empty = best_k_term(x, 0)
    assert not zero.entries.any() and empty == ()
    full, sup = best_k_term(x, 2)
    assert np.array_equal(full.entries, x.entries) and sup == (1, 2)
    with pytest.raises(ValueError):
        best_k_term(x, 3)


def test_snr_db_values():
    x = SignalVector(np.array([3.0, 4.0]))
    assert snr_db(x, x) == 300.0
    assert snr_db(x, SignalVector(np.zeros(2))) == 0.0
    half = SignalVector(np.array([3.0, 4.0]) * 0.9)
    assert abs(snr_db(x, half) - 20.0) < 1e-12
    # a near-exact reconstruction (about 315 dB uncapped) never outscores an exact one
    near = SignalVector(np.array([3.0, np.nextafter(4.0, 5.0)]))
    assert snr_db(x, near) == 300.0
    with pytest.raises(ValueError):
        snr_db(SignalVector(np.zeros(2)), x)


def test_apply_matches_dense():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((3, 5))
    x = rng.standard_normal(5)
    assert np.array_equal(DenseMatrix(A).apply(x), A @ x)
    rt = RestrictedTransform(rows=(1, 4), size=5)
    assert np.max(np.abs(rt.apply(x) - dct_matrix(5).T[[0, 3]] @ x)) < 1e-12
