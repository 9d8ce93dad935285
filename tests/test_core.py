import tracemalloc

import numpy as np
import pytest

from cswlp import (
    DenseMatrix,
    Measurements,
    RestrictedTransform,
    SignalVector,
    WeightVector,
    best_k_term,
    snr_db,
    weighted_lp_norm,
)
from cswlp import core
from cswlp.audio import dct_matrix
from cswlp.core import _idct


def test_signal_vector_rejects_non_finite():
    # the words of the array reader that DenseMatrix reads its matrix by too
    with pytest.raises(ValueError, match="^signal entries must be finite$"):
        SignalVector(np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match=r"^signal entries must be one-dimensional, got shape \(1, 2\)$"):
        SignalVector(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError, match="signal entries must not be empty"):
        SignalVector(np.array([]))


def test_dense_matrix_must_be_underdetermined_or_square():
    DenseMatrix(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        DenseMatrix(np.zeros((4, 3)))


def test_dense_matrix_refuses_a_non_matrix_and_non_finite_entries():
    for shape in ((3,), (3, 4, 2)):
        with pytest.raises(ValueError, match=rf"^matrix must be two-dimensional, got shape \({shape[0]},"):
            DenseMatrix(np.ones(shape))
    for bad in (np.nan, np.inf):
        M = np.ones((3, 4))
        M[1, 2] = bad
        with pytest.raises(ValueError, match="^matrix must be finite$"):
            DenseMatrix(M)



def test_dense_matrix_refuses_a_matrix_without_entries():
    # no decoder can use one, so it is refused as an empty vector is
    for shape in ((0, 3), (0, 0), (3, 0)):
        with pytest.raises(ValueError, match="^matrix must not be empty$"):
            DenseMatrix(np.zeros(shape))

@pytest.mark.parametrize("N", [1, 2, 3, 8, 127, 128])
def test_restricted_transform_dct_matches_dense(N):
    rng = np.random.default_rng(N)
    rows = tuple(int(i) + 1 for i in np.sort(rng.choice(N, size=max(1, N // 3), replace=False)))
    rt = RestrictedTransform(rows=rows, size=N)
    dense = dct_matrix(N).T[np.asarray(rows) - 1]
    x = rng.standard_normal(N)
    r = rng.standard_normal(len(rows))
    assert np.max(np.abs(rt.apply(x) - dense @ x)) < 1e-12
    assert np.max(np.abs(rt.pull_back(r) - dense.T @ r)) < 1e-12
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
    assert np.linalg.norm(pd - (d - rt.pull_back(rt.apply(d)))) <= tol
    assert np.linalg.norm(rt.apply(pd)) <= tol
    assert np.linalg.norm(rt.project_null(pd) - pd) <= tol
    # the DCT pair built over the same helpers still inverts itself; the
    # pull-back of the transform that keeps every row is the forward DCT-II
    dct = RestrictedTransform(rows=tuple(range(1, N + 1)), size=N).pull_back
    assert np.max(np.abs(_idct(dct(d)) - d)) < 1e-13
    assert np.max(np.abs(dct(_idct(d)) - d)) < 1e-13


def test_operators_adjoint_identity():
    # a restricted transform pulls back by its adjoint, A^T
    rng = np.random.default_rng(17)
    dct = RestrictedTransform(rows=(2, 5, 6, 9), size=9)
    x = rng.standard_normal(9)
    r = rng.standard_normal(4)
    assert abs(float(dct.apply(x) @ r) - float(x @ dct.pull_back(r))) < 1e-12
    # the restricted transform has orthonormal rows: A A^T = I
    assert np.max(np.abs(dct.apply(dct.pull_back(r)) - r)) < 1e-12


@pytest.mark.parametrize("cols", [[0], [3, 0, 7], [8, 1, 2, 5], list(range(9))])
def test_operator_columns_match_dense_columns(cols):
    rng = np.random.default_rng(41)
    dense = DenseMatrix(rng.standard_normal((4, 9)))
    dct = RestrictedTransform(rows=(2, 5, 6, 9), size=9)
    idx = np.asarray(cols, dtype=np.intp)
    for op in (dense, dct):
        assert np.array_equal(op.columns(idx), op.as_dense()[:, idx])


def _broadcast_idct_entries(N, idx, cols):
    # the table as one broadcast expression, each step a full-size array
    k = np.asarray(cols, dtype=np.float64)[None, :]
    m = np.asarray(idx, dtype=np.float64)[:, None]
    out = np.cos(np.pi * k * (2.0 * m + 1.0) / (2.0 * N)) * np.sqrt(2.0 / N)
    out[:, k[0] == 0.0] = np.sqrt(1.0 / N)
    return out


@pytest.mark.parametrize("N", [1, 8, 64])
def test_dct_tables_equal_the_broadcast_expression_bit_for_bit(N):
    every = np.arange(N)
    assert np.array_equal(dct_matrix(N), _broadcast_idct_entries(N, every, every).T)
    rows = tuple(range(1, N + 1, 3))
    rt = RestrictedTransform(rows=rows, size=N)
    idx = np.asarray(rows) - 1
    assert np.array_equal(rt.as_dense(), _broadcast_idct_entries(N, idx, every))
    cols = every[::-2]
    assert np.array_equal(rt.columns(cols), _broadcast_idct_entries(N, idx, cols))


def test_dct_matrix_peaks_at_one_table():
    dct_matrix.cache_clear()
    tracemalloc.start()
    try:
        table = dct_matrix(512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        dct_matrix.cache_clear()
    assert peak <= 1.25 * table.nbytes, peak / table.nbytes


def test_restricted_transform_rejects_bad_rows():
    with pytest.raises(ValueError):
        RestrictedTransform(rows=(0, 1), size=4)
    with pytest.raises(ValueError):
        RestrictedTransform(rows=(1, 1), size=4)
    with pytest.raises(ValueError):
        RestrictedTransform(rows=(5,), size=4)
    # a fractional row or size is refused, not truncated
    with pytest.raises(ValueError, match="rows must be integers, got 1.5"):
        RestrictedTransform(rows=(1.5, 2), size=4)
    with pytest.raises(ValueError, match="size must be an integer >= 1, got 2.5"):
        RestrictedTransform(rows=(1, 2), size=2.5)
    with pytest.raises(ValueError, match="rows must be non-empty"):
        RestrictedTransform(rows=(), size=4)


def test_measurements_epsilon_must_be_nonnegative():
    Measurements(y=np.ones(3), epsilon=0.0)
    with pytest.raises(ValueError):
        Measurements(y=np.ones(3), epsilon=-1e-9)


def test_weight_vector_pattern():
    wv = WeightVector(omega=0.25, estimate=(2, 4), size=5)
    assert np.array_equal(wv.weights, np.array([1.0, 0.25, 1.0, 0.25, 1.0]))
    with pytest.raises(ValueError):
        WeightVector(omega=1.5, estimate=(2, 4), size=5)
    with pytest.raises(ValueError):
        WeightVector(omega=0.5, estimate=(2, 4), size=3)
    # the estimate is stored sorted, as ints, whatever sequence it came in
    est = WeightVector(omega=0.5, estimate=[3, 1, 2.0], size=3).estimate
    assert est == (1, 2, 3) and all(type(i) is int for i in est)
    with pytest.raises(ValueError, match=r"estimate indices must lie in 1..2, got 3"):
        WeightVector(omega=0.5, estimate=(3, 1, 2), size=2)
    with pytest.raises(ValueError, match=r"estimate indices must lie in 1..3, got 0"):
        WeightVector(omega=0.5, estimate=(0, 1), size=3)
    with pytest.raises(ValueError, match="estimate indices must be distinct"):
        WeightVector(omega=0.5, estimate=(2, 2), size=3)
    with pytest.raises(ValueError, match="estimate indices must be integers, got 1.7"):
        WeightVector(omega=0.5, estimate=(1.7, 3), size=3)


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


def test_weighted_lp_norm_rejects_weights_that_do_not_fit():
    wv = WeightVector(omega=0.5, estimate=(1,), size=4)
    with pytest.raises(ValueError, match="weight size 4 does not match signal length 3"):
        weighted_lp_norm(np.ones(3), wv, 1.0)
    with pytest.raises(ValueError, match="weights length 4 does not match signal length 3"):
        weighted_lp_norm(np.ones(3), np.ones(4), 1.0)
    with pytest.raises(ValueError, match=r"weights must lie in \[0, 1\]"):
        weighted_lp_norm(np.ones(3), np.array([1.0, 0.5, 1.5]), 1.0)


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


def test_best_k_term_reads_k_as_a_count():
    # an integral float is its integer; a fraction, a negative or a nan
    # k is refused by check_domain's k_max rule
    x = SignalVector(np.array([3.0, -1.0, 2.0]))
    approx, support = best_k_term(x, 2.0)
    want, want_support = best_k_term(x, 2)
    assert np.array_equal(approx.entries, want.entries) and support == want_support == (1, 3)
    for k in (2.5, -1, float("nan")):
        with pytest.raises(ValueError, match="k_max must"):
            best_k_term(x, k)


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
    # a NaN estimate is refused, not scored at the cap
    with pytest.raises(ValueError, match="x_hat must be finite"):
        snr_db([1.0, 2.0], [np.nan, 1.0])
    with pytest.raises(ValueError, match="signal lengths differ"):
        snr_db(x, SignalVector(np.ones(3)))


def test_apply_matches_dense():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((3, 5))
    x = rng.standard_normal(5)
    assert np.array_equal(DenseMatrix(A).apply(x), A @ x)
    rt = RestrictedTransform(rows=(1, 4), size=5)
    assert np.max(np.abs(rt.apply(x) - dct_matrix(5).T[[0, 3]] @ x)) < 1e-12


@pytest.mark.parametrize("kind", ["dense", "dct"])
@pytest.mark.parametrize("share", [0.9, 1.1])
def test_exact_fit_judgement_is_scale_free(kind, share):
    # a point whose normwise backward error is share times the tolerance,
    # off A x = b along the row space; scaling x and b together by a power
    # of two scales every rounded step exactly, so the rule must judge
    # (c x, c b) as it judges (x, b).  An absolute limit below ||b|| = 1
    # would pass 2^-20 (x, b) and fail (x, b) at either share.
    rng = np.random.default_rng(83)
    if kind == "dense":
        A = DenseMatrix(rng.standard_normal((6, 10)) / np.sqrt(6))
    else:
        A = RestrictedTransform(rows=(2, 5, 6, 9, 13, 14), size=16)
    dense = A.as_dense()
    assert np.isclose(A._norm2, np.linalg.norm(dense, 2), rtol=1e-12, atol=0.0)
    x0 = np.zeros(A.shape[1])
    x0[[1, 4, 7]] = (2.0, -1.5, 1.0)
    b = A.apply(x0)
    u = rng.standard_normal(A.shape[0])
    u /= np.linalg.norm(u)
    gap = share * core._FEASIBILITY_TOL * (np.linalg.norm(dense, 2) * np.linalg.norm(x0) + np.linalg.norm(b))
    x = x0 + gap * A.pull_back(u)
    judged = []
    for c in (1.0, 2.0**-20, 2.0**20):
        y, y_norm = core._exact_fit(A, c * b, "test")
        judged.append(bool(core._fits(A.apply(c * x) - y, c * x, A._norm2, y_norm)))
    assert judged == [share < 1.0] * 3


def test_a_dense_operator_drops_r_once_inverted():
    # from its first read a DenseMatrix holds its matrix and one record,
    # Q, R^-1 and R's singular values: R itself, n x n like R^-1, is read
    # no more
    rng = np.random.default_rng(97)
    A = rng.standard_normal((5, 12))
    r = np.linalg.qr(A.T)[1]
    for read in (lambda op: op.project_null(np.ones(12)), lambda op: op._norm2):
        op = DenseMatrix(A)
        read(op)
        assert sorted(vars(op)) == ["_factors", "matrix"]
        q, r_inv, s = op._factors
        assert [q.shape, r_inv.shape, s.shape] == [(12, 5), (5, 5), (5,)]
        assert np.allclose(r_inv @ r, np.eye(5), rtol=0.0, atol=1e-12)
        assert np.array_equal(s, np.linalg.svd(r, compute_uv=False))
    # one row repeated: the record holds no R^-1, and each projection
    # raises the same error
    A[4] = A[1]
    op = DenseMatrix(A)
    messages = []
    for _ in range(2):
        with pytest.raises(core.RankDeficientError) as raised:
            op.project_null(np.ones(12))
        messages.append(str(raised.value))
    assert sorted(vars(op)) == ["_factors", "matrix"]
    q, r_inv, s = op._factors
    assert q.shape == (12, 5) and r_inv is None and s.shape == (5,)
    assert messages[0] == messages[1]


def test_weighted_lp_norm_is_inf_past_the_float_range():
    # 500 terms near 1 at p = 0.005: the sum is about 490 and its 200th
    # power leaves the float range; a value inside it is the formula's
    rng = np.random.default_rng(0)
    x = rng.standard_normal(500)
    assert weighted_lp_norm(x, np.ones(500), 0.005) == np.inf
    w = np.full(500, 0.5)
    for p in (0.05, 0.5, 1.0):
        assert weighted_lp_norm(x, w, p) == float(np.sum(np.abs(x) ** p * w**p)) ** (1.0 / p)
