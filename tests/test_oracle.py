import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from cswlp import (
    DenseMatrix,
    Measurements,
    OracleInfeasibleError,
    RankDeficientError,
    RestrictedTransform,
    SignalVector,
    SolverConfig,
    oracle,
    oracle_l0,
    oracle_weighted_lp,
    solve,
)
from cswlp.core import _weighted_lp_sum
from irls import irls_weighted_l1
from test_solver import backward_error


def test_l0_prefers_the_sparsest_fit():
    # column 1 alone reproduces y; larger supports are never reached
    A = np.array([[2.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    y = np.array([2.0, 0.0, 0.0])
    res = oracle_l0(DenseMatrix(A), y, 2)
    assert res.support == (1,)
    assert res.objective_value == 1.0
    assert np.allclose(res.minimizer.entries, [1.0, 0.0, 0.0])


def test_weighted_oracle_flips_with_the_weights():
    # collinear columns: either single column fits exactly
    A = np.array([[2.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    y = np.array([2.0, 0.0, 0.0])
    even = oracle_weighted_lp(DenseMatrix(A), y, np.ones(3), 0.5, 2)
    assert even.support == (1,)
    assert abs(even.objective_value - 1.0) < 1e-12
    tilted = oracle_weighted_lp(DenseMatrix(A), y, np.array([1.0, 0.1, 1.0]), 0.5, 2)
    assert tilted.support == (2,)
    assert abs(tilted.objective_value - 0.447213595499958) < 1e-12
    assert np.allclose(tilted.minimizer.entries, [0.0, 2.0, 0.0])


def test_zero_measurements_give_empty_support():
    A = np.eye(3, 4)
    res = oracle_l0(DenseMatrix(A), np.zeros(3), 2)
    assert res.support == ()
    assert res.objective_value == 0.0
    res_w = oracle_weighted_lp(DenseMatrix(A), np.zeros(3), np.ones(4), 0.5, 2)
    assert res_w.support == ()


def test_infeasible_measurements_raise():
    A = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]])
    y = np.array([1.0, 1.0])
    # no single column is proportional to y
    with pytest.raises(OracleInfeasibleError):
        oracle_l0(DenseMatrix(A), y, 1)
    with pytest.raises(OracleInfeasibleError):
        oracle_weighted_lp(DenseMatrix(A), y, np.ones(3), 0.5, 1)


# each decoder of min ||x||_{p,w} s.t. A x = b, returning its minimizer
_DECODERS = {
    "oracle_weighted_lp": lambda A, b, w=np.ones(10): oracle_weighted_lp(A, b, w, 0.5, 2).minimizer,
    "oracle_l0": lambda A, b: oracle_l0(A, b, 2).minimizer,
    "solve": lambda A, b, w=np.ones(10): solve(A, b, w, SolverConfig(p=0.5))[0],
}


def _refusal(decoder, *args) -> str:
    with pytest.raises(ValueError) as err:
        _DECODERS[decoder](*args)
    return str(err.value)


@pytest.mark.parametrize("decoder", list(_DECODERS), ids=["weighted_lp", "l0", "solve"])
def test_oracles_refuse_a_noise_bound(decoder):
    rng = np.random.default_rng(0)
    A = DenseMatrix(rng.standard_normal((5, 10)))
    x = np.zeros(10)
    x[2] = 1.0
    y = A.apply(x)
    assert np.allclose(_DECODERS[decoder](A, Measurements(y)).entries, x, rtol=0.0, atol=1e-8)
    # an exact fit cannot honour a noise bound, nor read a b of the wrong
    # length; solve and the oracles refuse both in one wording
    noisy = Measurements(y, epsilon=0.5)
    assert "epsilon=0.5" in _refusal(decoder, A, noisy)
    for b in (noisy, y[:4]):
        message = _refusal(decoder, A, b)
        assert message.startswith(decoder)
        assert message.replace(decoder, "solve") == _refusal("solve", A, b)


def test_size_caps_are_enforced():
    A = np.zeros((3, 21)) + np.eye(3, 21)
    with pytest.raises(ValueError):
        oracle_l0(DenseMatrix(A), np.ones(3), 2)
    B = np.eye(3, 6)
    with pytest.raises(ValueError):
        oracle_l0(DenseMatrix(B), np.ones(3), 5)
    with pytest.raises(ValueError):
        oracle_weighted_lp(DenseMatrix(B), np.ones(3), np.ones(6), 1.5, 2)


@pytest.mark.parametrize("decoder", ["oracle_weighted_lp", "oracle_l0"])
def test_an_operator_above_the_cap_is_refused_unbuilt(monkeypatch, decoder):
    # N is read from the operator's shape: as a dense matrix, 1000 rows of
    # the length-8000 transform would take 64 MB only to be refused
    def built(self):
        raise AssertionError("as_dense called on a refused operator")

    for cls in (DenseMatrix, RestrictedTransform):
        monkeypatch.setattr(cls, "as_dense", built)
    for A in (RestrictedTransform(rows=tuple(range(1, 1001)), size=8000), DenseMatrix(np.eye(3, 21))):
        expected = f"enumeration is capped at N <= 20, got N = {A.shape[1]}"
        assert _refusal(decoder, A, np.ones(A.shape[0])) == expected


@pytest.mark.parametrize("decoder", ["oracle_weighted_lp", "oracle_l0"])
def test_an_operator_above_the_cap_is_refused_unfactored(monkeypatch, decoder):
    # ||A||_2 is read after the last refusal: for a DenseMatrix it takes a
    # QR of A^T, an SVD of R and R^-1, which a refused operator never needs
    def factored(*args, **kwargs):
        raise AssertionError("a refused operator was factored")

    monkeypatch.setattr(np.linalg, "qr", factored)
    monkeypatch.setattr(np.linalg, "svd", factored)
    A = DenseMatrix(np.random.default_rng(5).standard_normal((30, 40)))
    assert _refusal(decoder, A, np.ones(30)) == "enumeration is capped at N <= 20, got N = 40"


@pytest.mark.parametrize("p", [0.5, 1.0])
def test_the_weighted_oracle_is_scale_free(p):
    # scaling b by a power of two c scales every fit by c and every value
    # by c^p exactly, so the oracle's decision must scale with them, bit
    # for bit; under an absolute tie margin, supersets whose extra entries
    # are rounding noise would win at large c, and everything would tie
    # at small c
    for seed in range(20):
        rng = np.random.default_rng(seed)
        A = DenseMatrix(rng.standard_normal((6, 10)) / np.sqrt(6))
        x = np.zeros(10)
        x[rng.choice(10, size=3, replace=False)] = rng.standard_normal(3)
        w = np.ones(10)
        w[rng.choice(10, size=3, replace=False)] = 0.5
        y = A.apply(x)
        ref = oracle_weighted_lp(A, y, w, p, 6)
        for c in (2.0**20, 2.0**-20, 2.0**40, 2.0**-40):
            res = oracle_weighted_lp(A, c * y, w, p, 6)
            assert res.support == ref.support, (seed, c)
            assert res.objective_value == c**p * ref.objective_value, (seed, c)
            assert np.array_equal(res.minimizer.entries, c * ref.minimizer.entries), (seed, c)


def test_supersets_never_displace_the_true_support():
    # exact fits on supersets pad with zeros and tie; earlier size wins
    rng = np.random.default_rng(31)
    A = rng.standard_normal((6, 10))
    x = np.zeros(10)
    x[[2, 7]] = (1.3, -0.4)
    res = oracle_weighted_lp(DenseMatrix(A), A @ x, np.ones(10), 0.5, 4)
    assert res.support == (3, 8)


def test_oracle_agrees_with_iterative_solver_noise_free():
    # n = 8 rows of 10: enough measurements for the descent to find the
    # global minimizer essentially always at this scale
    rng = np.random.default_rng(37)
    hits = 0
    for _ in range(20):
        A = rng.standard_normal((8, 10)) / np.sqrt(8)
        x = np.zeros(10)
        sup = rng.choice(10, size=2, replace=False)
        x[sup] = rng.standard_normal(2)
        y = A @ x
        res = oracle_weighted_lp(DenseMatrix(A), y, np.ones(10), 0.5, 4)
        xs, _ = solve(DenseMatrix(A), y, np.ones(10), SolverConfig(p=0.5))
        got = tuple(int(i) + 1 for i in np.flatnonzero(np.abs(xs.entries) > 1e-4 * np.max(np.abs(xs.entries))))
        hits += got == res.support
    assert hits >= 18


def test_support_estimate_weights_rescue_hard_instances():
    # at n = 6 unweighted descent misses some instances; weighting the
    # true support with omega < 1 recovers most of them
    rng = np.random.default_rng(41)
    plain_hits = 0
    steered_hits = 0
    trials = 40
    for _ in range(trials):
        A = rng.standard_normal((6, 10)) / np.sqrt(6)
        x = np.zeros(10)
        sup = np.sort(rng.choice(10, size=2, replace=False))
        x[sup] = rng.standard_normal(2)
        y = A @ x
        w = np.ones(10)
        res = oracle_weighted_lp(DenseMatrix(A), y, w, 0.5, 4)
        xs, _ = solve(DenseMatrix(A), y, w, SolverConfig(p=0.5))
        got = tuple(int(i) + 1 for i in np.flatnonzero(np.abs(xs.entries) > 1e-4 * np.max(np.abs(xs.entries))))
        plain_hits += got == res.support
        w2 = np.ones(10)
        w2[sup] = 0.3
        res2 = oracle_weighted_lp(DenseMatrix(A), y, w2, 0.5, 4)
        xs2, _ = solve(DenseMatrix(A), y, w2, SolverConfig(p=0.5))
        got2 = tuple(int(i) + 1 for i in np.flatnonzero(np.abs(xs2.entries) > 1e-4 * np.max(np.abs(xs2.entries))))
        steered_hits += got2 == res2.support
    assert steered_hits >= plain_hits
    assert steered_hits >= int(0.85 * trials)


def _reference_fits(A, y, k_max, tol=1e-8):
    # one lstsq per support, sizes ascending, lexicographic within a size,
    # kept when the fit's backward error is at most tol
    n, N = A.shape
    for size in range(k_max + 1):
        supports = [list(support) for support in combinations(range(N), size)]
        fits = np.zeros((len(supports), N))
        for fit, support in zip(fits, supports):
            fit[support] = np.linalg.lstsq(A[:, support], y, rcond=None)[0]
        for support, fit, eta in zip(supports, fits, backward_error(A, fits, y)):
            if eta <= tol:
                yield tuple(support), fit[support]


def _reference_l0(A, y, k_max):
    for support, z in _reference_fits(A, y, k_max):
        return support, z, float(len(support))
    raise OracleInfeasibleError("no fit")


def _reference_weighted_lp(A, y, w, p, k_max):
    best = None
    for support, z in _reference_fits(A, y, k_max):
        value = float(np.sum(w[list(support)] ** p * np.abs(z) ** p))
        if best is None or value < best[2] - 1e-12:
            best = (support, z, value)
    if best is None:
        raise OracleInfeasibleError("no fit")
    return best


def _assert_matches(res, ref, N):
    support, z, value = ref
    assert res.support == tuple(i + 1 for i in support)
    assert abs(res.objective_value - value) <= 1e-12
    full = np.zeros(N)
    full[list(support)] = z
    assert np.max(np.abs(res.minimizer.entries - full), initial=0.0) <= 1e-12


def _check_against_reference(A, y, w, p, k_max):
    N = A.shape[1]
    _assert_matches(oracle_l0(DenseMatrix(A), y, k_max), _reference_l0(A, y, k_max), N)
    res = oracle_weighted_lp(DenseMatrix(A), y, w, p, k_max)
    _assert_matches(res, _reference_weighted_lp(A, y, w, p, k_max), N)
    # the value it reports is the core objective of its minimizer, to the bit
    assert res.objective_value == _weighted_lp_sum(w**p, res.minimizer.entries, p)


def test_stacked_oracles_match_per_support_lstsq_on_criterion_3_instances():
    rng = np.random.default_rng(43)
    for trial in range(50):
        k = 1 + trial % 2
        A = rng.standard_normal((6, 10)) / np.sqrt(6)
        x = np.zeros(10)
        sup = rng.choice(10, size=k, replace=False)
        x[sup] = rng.standard_normal(k)
        w = np.ones(10)
        if trial % 4 >= 2:
            w[sup] = 0.3
        # k_max = n = 6 is the exact decoder
        for p, k_max in ((0.5, 4), (0.5, 6), (1.0, 6)):
            _check_against_reference(A, A @ x, w, p, k_max)


def test_stacked_oracles_match_reference_on_rank_deficient_supports():
    # duplicated and scaled columns make every support holding both of a
    # pair rank-deficient; the reference fits them by lstsq's minimum-norm
    # fit, the oracles drop them, and the answers agree
    rng = np.random.default_rng(47)
    A = rng.standard_normal((6, 10))
    A[:, 3] = A[:, 0]
    A[:, 5] = -2.5 * A[:, 1]
    A[:, 8] = A[:, 0]
    for x_support in ((0,), (1,), (0, 1), (1, 3, 6), (0, 2, 5, 7)):
        x = np.zeros(10)
        x[list(x_support)] = rng.standard_normal(len(x_support))
        for p in (0.5, 1.0):
            for w in (np.ones(10), rng.uniform(0.05, 1.0, 10)):
                for k_max in (4, 6):
                    _check_against_reference(A, A @ x, w, p, k_max)
    # zero columns around the exact fit (0.1, 0.2, 0.3) on columns 1, 5, 6:
    # summed in support order its objective at p = 1 is 0.6000000000000001,
    # summed over all ten entries, as its minimizer's, it is 0.6; with
    # n = 3 rows, k_max = 3 is the largest allowed
    E = np.zeros((3, 10))
    E[[0, 1, 2], [0, 4, 5]] = 1.0
    _check_against_reference(E, np.array([0.1, 0.2, 0.3]), np.ones(10), 1.0, 3)


def test_stacked_oracles_match_reference_at_the_size_caps():
    # n = 4 rows: every generic support of size 4 out of 20 fits exactly
    rng = np.random.default_rng(53)
    A = rng.standard_normal((4, 20))
    y = rng.standard_normal(4)
    _check_against_reference(A, y, rng.uniform(0.1, 1.0, 20), 0.5, 4)


def test_stacked_oracles_match_reference_on_zero_measurements():
    rng = np.random.default_rng(59)
    A = rng.standard_normal((6, 10))
    for k_max in (4, 6):
        _check_against_reference(A, np.zeros(6), np.ones(10), 0.5, k_max)


def test_oracles_need_no_lstsq(monkeypatch):
    # each size's supports are factored by one stacked QR and fitted from
    # their triangular factors; none calls lstsq
    def no_lstsq(*args, **kwargs):
        raise AssertionError("the oracle called lstsq")

    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    rng = np.random.default_rng(61)
    A = rng.standard_normal((6, 10))
    x = np.zeros(10)
    x[[2, 7]] = (1.3, -0.4)
    assert oracle_l0(DenseMatrix(A), A @ x, 4).support == (3, 8)
    assert oracle_weighted_lp(DenseMatrix(A), A @ x, np.ones(10), 0.5, 4).support == (3, 8)


def test_oracles_never_take_the_pseudo_inverse(monkeypatch):
    # a support with dependent columns is dropped unfitted: its fits lie in
    # a polyhedron whose vertices are fits on its independent subsets,
    # which are smaller and come earlier, so the answer cannot move
    def no_pinv(*args, **kwargs):
        raise AssertionError("the oracle called pinv")

    monkeypatch.setattr(np.linalg, "pinv", no_pinv)
    oracle._shared_fits.cache_clear()
    # the duplicated and scaled columns of the rank-deficient test
    rng = np.random.default_rng(47)
    A = rng.standard_normal((6, 10))
    A[:, 3] = A[:, 0]
    A[:, 5] = -2.5 * A[:, 1]
    A[:, 8] = A[:, 0]
    for x_support in ((0,), (1,), (0, 1), (1, 3, 6), (0, 2, 5, 7)):
        x = np.zeros(10)
        x[list(x_support)] = rng.standard_normal(len(x_support))
        for p in (0.5, 1.0):
            _check_against_reference(A, A @ x, rng.uniform(0.05, 1.0, 10), p, 4)


def test_a_solve_is_the_same_whichever_read_factors_the_operator(monkeypatch):
    # a DenseMatrix's first read, by the oracles, ||A||_2, a projection or
    # the solve itself, takes its one factorization record: Q, R^-1 and
    # the singular values.  The solve then gives the same bytes, and the
    # oracles then a solve invert R once.
    calls = []

    def counted(*args, inv=np.linalg.inv, **kwargs):
        calls.append(1)
        return inv(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", counted)
    A, y, w = _criterion_3_instance(83)
    reads = (
        None,
        lambda op: oracle_weighted_lp(op, y, w, 0.5, 4),
        lambda op: op._norm2,
        lambda op: op.project_null(np.ones(10)),
    )
    results = set()
    for read in reads:
        calls.clear()
        op = DenseMatrix(A)
        if read is not None:
            read(op)
            assert sorted(vars(op)) == ["_factors", "matrix"]
        x, trace = solve(op, y, w, SolverConfig(p=0.5))
        assert sorted(vars(op)) == ["_factors", "matrix"]
        assert calls == [1]
        columns = tuple(getattr(trace, c).tobytes() for c in trace.COLUMNS)
        results.add((x.entries.tobytes(), columns, trace.stop_reason, trace.restart_iters))
    assert len(results) == 1


def test_an_operator_read_by_the_oracles_is_factored_once(monkeypatch):
    # the oracles read ||A||_2 from the factorization record of A^T = Q R,
    # whose Q and R^-1 every later projection reuses
    factored = []

    def counted(a, *args, qr=np.linalg.qr, **kwargs):
        # the oracles' stacked QRs of support columns are 3-D
        if np.ndim(a) == 2:
            factored.append(a.shape)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    A, y, w = _criterion_3_instance(109)
    op = DenseMatrix(A)
    oracle_weighted_lp(op, y, w, 0.5, 4)
    solve(op, y, w, SolverConfig(p=0.5))
    op.project_null(np.ones(10))
    assert factored == [(10, 6)]


def test_a_rank_deficient_operator_serves_the_oracles_and_refuses_every_projection():
    # one row repeated: rank 3 of 4 rows; the oracles need only ||A||_2,
    # while each projection, and so each solve, raises on every call
    rng = np.random.default_rng(89)
    A = rng.standard_normal((4, 10))
    A[3] = A[1]
    x = np.zeros(10)
    x[[2, 6]] = (1.5, -0.7)
    op, y = DenseMatrix(A), A @ x
    assert oracle_weighted_lp(op, y, np.ones(10), 0.5, 3).support == (3, 7)
    assert oracle_l0(op, y, 3).support == (3, 7)
    message = r"^sensing matrix is rank deficient: smallest/largest singular value ratio \d\.\d{3}e[-+]\d\d$"
    calls = (
        lambda: solve(op, y, np.ones(10), SolverConfig(p=0.5)),
        lambda: op.project_null(np.ones(10)),
        lambda: op.pull_back(np.ones(4)),
    )
    for _ in range(2):
        for call in calls:
            with pytest.raises(RankDeficientError, match=message):
                call()


@pytest.mark.parametrize("delta", [1e-3, 1e-5, 1e-7])
def test_near_parallel_columns_keep_their_vertex(delta):
    # columns 3 and 7 are independent, at an angle delta: their pivot is
    # about delta of the column norm, far above exact dependence's 1e-16,
    # and b = 1.3 (a_3 - a_7) fits no other support of size <= 2
    rng = np.random.default_rng(73)
    A = rng.standard_normal((6, 10))
    a = A[:, 2]
    u = rng.standard_normal(6)
    u -= a * (a @ u) / (a @ a)
    A[:, 6] = np.cos(delta) * a + np.sin(delta) * np.linalg.norm(a) * u / np.linalg.norm(u)
    y = 1.3 * (A[:, 2] - A[:, 6])
    assert oracle_l0(DenseMatrix(A), y, 2).support == (3, 7)
    assert oracle_weighted_lp(DenseMatrix(A), y, np.ones(10), 0.5, 2).support == (3, 7)


@pytest.mark.parametrize("share", [0.9, 1.1])
def test_fits_are_judged_at_the_limit_not_the_screen(share):
    # y sits off the span of columns 3 and 8 by share * limit, the error
    # orthogonal to that span: its least-squares residual is exactly that
    rng = np.random.default_rng(67)
    A = rng.standard_normal((6, 10))
    cols = A[:, [3, 8]]
    y0 = cols @ np.array([1.5, -0.7])
    assert np.linalg.norm(y0) > 1.0
    u = rng.standard_normal(6)
    u -= cols @ np.linalg.lstsq(cols, u, rcond=None)[0]
    u /= np.linalg.norm(u)
    # ||e|| = share * 1e-8 * (||A||_2 ||z|| + ||y||), the backward error
    # rule's limit at the fit z; ||y|| = ||y0|| within 1e-16 relative
    z = np.zeros(10)
    z[[3, 8]] = (1.5, -0.7)
    y = y0 + share * 1e-8 * (np.linalg.norm(A, 2) * np.linalg.norm(z) + np.linalg.norm(y0)) * u
    assert abs(backward_error(A, z, y) / 1e-8 - share) < 1e-6
    if share < 1.0:
        assert oracle_l0(DenseMatrix(A), y, 2).support == (4, 9)
        assert oracle_weighted_lp(DenseMatrix(A), y, np.ones(10), 0.5, 2).support == (4, 9)
    else:
        with pytest.raises(OracleInfeasibleError):
            oracle_l0(DenseMatrix(A), y, 2)
        with pytest.raises(OracleInfeasibleError):
            oracle_weighted_lp(DenseMatrix(A), y, np.ones(10), 0.5, 2)


@pytest.mark.parametrize("decoder", list(_DECODERS), ids=["weighted_lp", "l0", "solve"])
def test_decoders_refuse_non_finite_inputs(decoder):
    rng = np.random.default_rng(71)
    A = rng.standard_normal((5, 10))
    y = A[:, 2].copy()
    for bad in (np.nan, np.inf):
        b = y.copy()
        b[1] = bad
        assert _refusal(decoder, DenseMatrix(A), b) == f"{decoder}: measurements must be finite"
        # a non-finite matrix reaches no decoder: DenseMatrix refuses it,
        # and every decoder refuses it as a plain array, by type
        M = A.copy()
        M[4, 7] = bad
        assert _refusal(decoder, M, y) == _operator_rule(decoder, "ndarray")
        if decoder != "oracle_l0":  # the l0 oracle takes no weights
            w = np.ones(10)
            w[3] = bad
            assert _refusal(decoder, DenseMatrix(A), y, w) == f"{decoder}: weights must be finite"


def _operator_rule(decoder, name):
    return f"{decoder}: A must be a DenseMatrix or RestrictedTransform, got {name}"


def test_oracles_refuse_a_plain_array_that_is_not_a_matrix():
    # the oracles read A only as an operator, so a plain array is refused
    # by its type before its shape is read
    for A in (np.ones(3), np.ones((3, 4, 2))):
        for decoder in ("oracle_weighted_lp", "oracle_l0"):
            assert _refusal(decoder, A, np.ones(3)) == _operator_rule(decoder, "ndarray")


def test_solve_refuses_an_operator_it_cannot_apply():
    # every decoder reads (A, b) by core._exact_fit, whose one rule takes
    # A only as an operator
    for decoder in _DECODERS:
        for A, name in ((np.ones((4, 8)), "ndarray"), ("A.bin", "str")):
            assert _refusal(decoder, A, np.ones(4)) == _operator_rule(decoder, name)


def _bits(res):
    return res.support, res.objective_value, res.minimizer.entries.tobytes()


def _criterion_3_instance(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((6, 10)) / np.sqrt(6)
    x = np.zeros(10)
    sup = rng.choice(10, size=2, replace=False)
    x[sup] = rng.standard_normal(2)
    w = np.ones(10)
    w[sup] = 0.3
    return A, A @ x, w


def _tables(A, y):
    """The held fit tables of the instance (A, y), read without fitting
    any size: a cache of the instance's sizes, which counts its fits as
    misses."""
    return oracle._prepare(DenseMatrix(A), y, 0, "oracle_l0")[2]


def _misses(A, y):
    return _tables(A, y).cache_info().misses


def test_weightings_of_one_instance_share_its_fits():
    A, y, w = _criterion_3_instance(79)
    oracle._shared_fits.cache_clear()
    first = _bits(oracle_weighted_lp(DenseMatrix(A), y, np.ones(10), 0.5, 4))
    misses = _misses(A, y)
    second = _bits(oracle_weighted_lp(DenseMatrix(A), y, w, 0.5, 4))
    # the first weighting fits sizes 0..4, the second misses none of them
    assert (misses, _misses(A, y)) == (5, 5)
    for weights, bits in zip((np.ones(10), w), (first, second)):
        oracle._shared_fits.cache_clear()
        assert _bits(oracle_weighted_lp(DenseMatrix(A), y, weights, 0.5, 4)) == bits


def test_a_changed_instance_is_fitted_afresh():
    A, y, w = _criterion_3_instance(83)
    A2 = A.copy()
    A2[4, 7] += 1e-9
    y2 = y.copy()
    y2[2] += 1e-9
    for A_c, y_c in ((A2, y), (A, y2)):
        oracle._shared_fits.cache_clear()
        fresh = _bits(oracle_weighted_lp(DenseMatrix(A_c), y_c, w, 0.5, 4))
        oracle._shared_fits.cache_clear()
        # only the original instance's sizes are cached; the changed one
        # must miss every size and be fitted again
        oracle_weighted_lp(DenseMatrix(A), y, w, 0.5, 4)
        assert _misses(A, y) == 5
        assert _bits(oracle_weighted_lp(DenseMatrix(A_c), y_c, w, 0.5, 4)) == fresh
        assert _misses(A_c, y_c) == 5
    # k_max is not part of the key: a larger k_max fits only the sizes it adds
    fresh = {}
    for k_max in (4, 6):
        oracle._shared_fits.cache_clear()
        fresh[k_max] = _bits(oracle_weighted_lp(DenseMatrix(A), y, w, 0.5, k_max))
    oracle._shared_fits.cache_clear()
    assert _bits(oracle_weighted_lp(DenseMatrix(A), y, w, 0.5, 4)) == fresh[4]
    misses = _misses(A, y)
    assert _bits(oracle_weighted_lp(DenseMatrix(A), y, w, 0.5, 6)) == fresh[6]
    assert _misses(A, y) == misses + 2


def test_a_returned_minimizer_does_not_alias_the_shared_fits():
    A, y, w = _criterion_3_instance(89)
    first = oracle_weighted_lp(DenseMatrix(A), y, w, 0.5, 4)
    expected = _bits(first)
    first.minimizer.entries[:] = 7.0
    assert _bits(oracle_weighted_lp(DenseMatrix(A), y, w, 0.5, 4)) == expected


def test_both_decoders_read_one_table():
    A, y, w = _criterion_3_instance(97)
    oracle._shared_fits.cache_clear()
    shared = (_bits(oracle_l0(DenseMatrix(A), y, 4)), _bits(oracle_weighted_lp(DenseMatrix(A), y, w, 0.5, 4)))
    # oracle_l0 stops at size 2; the weighted oracle reads those sizes and
    # fits 3 and 4, so each size is fitted once
    info = _tables(A, y).cache_info()
    assert (info.hits, info.misses) == (3, 5)
    oracle._shared_fits.cache_clear()
    assert _bits(oracle_l0(DenseMatrix(A), y, 4)) == shared[0]
    oracle._shared_fits.cache_clear()
    assert _bits(oracle_weighted_lp(DenseMatrix(A), y, w, 0.5, 4)) == shared[1]


def test_index_tables_are_freed_with_their_fits():
    # each size's C(N, size) support table is built with its fits, so
    # clearing the fits frees it; at 8 x 16 the tables of sizes 0..8 take
    # 2.1 MB
    def exact_decoder_call(n, N, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, N)) / np.sqrt(n)
        x = np.zeros(N)
        x[rng.choice(N, size=3, replace=False)] = rng.standard_normal(3)
        oracle_weighted_lp(DenseMatrix(A), A @ x, np.where(rng.random(N) < 0.3, 0.5, 1.0), 1.0, n)
        oracle._shared_fits.cache_clear()

    tracemalloc.start()
    try:
        exact_decoder_call(7, 14, 0)
        baseline = tracemalloc.get_traced_memory()[0]
        exact_decoder_call(8, 16, 1)
        grown = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024, grown


def _exact_8x16(seed=113):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((8, 16)) / np.sqrt(8)
    x = np.zeros(16)
    x[rng.choice(16, size=3, replace=False)] = rng.standard_normal(3)
    return DenseMatrix(A), A @ x, np.where(rng.random(16) < 0.3, 0.5, 1.0)


def test_the_fit_tables_of_one_instance_are_held():
    # every caller reads one instance's sizes and moves on: reading a
    # second 8 x 16 instance at k_max = n drops the first one's tables
    # (about 3 MB), so only one instance's are held
    oracle._shared_fits.cache_clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        oracle_weighted_lp(*_exact_8x16(113), 1.0, 8)
        one = tracemalloc.get_traced_memory()[0] - base
        oracle_weighted_lp(*_exact_8x16(114), 1.0, 8)
        two = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        oracle._shared_fits.cache_clear()
    assert one > 2**20, one
    assert two < 1.25 * one, (one / 2**20, two / 2**20)


def test_fit_tables_do_not_depend_on_the_block_size(monkeypatch):
    A, y, w = _exact_8x16()
    tables = {}
    for chunk in (1, 7, oracle._CHUNK):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        oracle._shared_fits.cache_clear()
        tables[chunk] = list(map(oracle._prepare(A, y, 8, "oracle_weighted_lp")[2], range(9)))
        oracle._shared_fits.cache_clear()
    # the default splits sizes 5 to 8 (4368 to 12,870 supports) into two
    # to four blocks; 1 and 7 split every size above 0
    for chunk in (1, 7):
        for (supports, fits), (expected_supports, expected_fits) in zip(tables[chunk], tables[oracle._CHUNK]):
            assert supports.dtype == expected_supports.dtype and supports.shape == expected_supports.shape
            assert supports.tobytes() == expected_supports.tobytes()
            assert fits.tobytes() == expected_fits.tobytes()


def test_an_exact_decoder_call_peaks_below_its_blocks():
    # an 8 x 16 call at k_max = n fits 39,203 supports; stacked at once
    # they peaked near 24 MB
    A, y, w = _exact_8x16()
    oracle._shared_fits.cache_clear()
    tracemalloc.start()
    try:
        oracle_weighted_lp(A, y, w, 1.0, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        oracle._shared_fits.cache_clear()
    assert peak < 16 * 2**20, peak / 2**20


def test_l0_fits_no_size_above_its_answer(monkeypatch):
    # a 1-sparse b on 10 x 20 at k_max = n: the answer has size 1, and the
    # 616,645 supports of sizes 2..10 are never fitted
    rng = np.random.default_rng(107)
    A = rng.standard_normal((10, 20))
    requested = []
    monkeypatch.setattr(oracle, "combinations", lambda pool, size: requested.append(size) or combinations(pool, size))
    oracle._shared_fits.cache_clear()
    res = oracle_l0(DenseMatrix(A), 1.7 * A[:, 4], 10)
    assert res.support == (5,)
    assert requested == [0, 1]
    assert _misses(A, 1.7 * A[:, 4]) == 2


@pytest.mark.parametrize("decoder", ["oracle_weighted_lp", "oracle_l0"])
def test_k_max_is_read_as_a_setting(decoder):
    A, y, w = _criterion_3_instance(101)
    call = {
        "oracle_weighted_lp": lambda k_max: oracle_weighted_lp(DenseMatrix(A), y, w, 0.5, k_max),
        "oracle_l0": lambda k_max: oracle_l0(DenseMatrix(A), y, k_max),
    }[decoder]
    # an integral float counts as an integer
    assert _bits(call(2.0)) == _bits(call(2))
    for k_max in (2.5, -1):
        with pytest.raises(ValueError, match=f"k_max must be an integer >= 0, got {float(k_max)}"):
            call(k_max)


@pytest.mark.parametrize("p", [0.5, 1.0])
def test_k_max_reaches_n(p):
    # no vertex of {A x = b} has more than n nonzeros, so k_max = n is the
    # exact decoder and a larger k_max is refused
    rng = np.random.default_rng(103)
    below = 0
    for trial in range(30):
        A = rng.standard_normal((6, 10)) / np.sqrt(6)
        x = np.zeros(10)
        x[rng.choice(10, size=2 + trial % 3, replace=False)] = rng.standard_normal(2 + trial % 3)
        w = rng.uniform(0.1, 1.0, 10)
        capped = oracle_weighted_lp(DenseMatrix(A), A @ x, w, p, 4).objective_value
        exact = oracle_weighted_lp(DenseMatrix(A), A @ x, w, p, 6).objective_value
        assert exact <= capped
        below += exact < capped
    # on some instances a vertex of 5 or 6 nonzeros beats every smaller one
    assert below > 0
    with pytest.raises(ValueError, match="k_max must lie in 0..6, got 7"):
        oracle_weighted_lp(DenseMatrix(A), A @ x, w, p, 7)
    with pytest.raises(ValueError, match="k_max must lie in 0..6, got 7"):
        oracle_l0(DenseMatrix(A), A @ x, 7)


@pytest.mark.parametrize("seed", [107, 11])
def test_exact_decoder_matches_irls_at_p_1(seed):
    # at p = 1 the decoder is convex, so IRLS converges to its minimizer,
    # which the oracle at k_max = n finds by enumerating the vertices;
    # seed 11's trial 25 ends 24 of IRLS's eps levels on the step cap
    rng = np.random.default_rng(seed)
    for trial in range(30):
        A = rng.standard_normal((6, 10)) / np.sqrt(6)
        x = np.zeros(10)
        x[rng.choice(10, size=3, replace=False)] = rng.standard_normal(3)
        w = np.where(rng.random(10) < 0.3, 0.5, 1.0)
        b = A @ x
        exact = oracle_weighted_lp(DenseMatrix(A), b, w, 1.0, 6)
        z = irls_weighted_l1(A, b, w)
        value = float(_weighted_lp_sum(w, z, 1.0))
        assert abs(value - exact.objective_value) <= 1e-9 * exact.objective_value, trial
        gap = float(np.linalg.norm(z - exact.minimizer.entries))
        assert gap <= 1e-9 * float(np.linalg.norm(exact.minimizer.entries)), trial
