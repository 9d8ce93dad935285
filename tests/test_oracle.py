from itertools import combinations

import numpy as np
import pytest

from cswlp import (
    DenseMatrix,
    Measurements,
    OracleInfeasibleError,
    SignalVector,
    SolverConfig,
    oracle_l0,
    oracle_weighted_lp,
    solve,
)


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
    "oracle_weighted_lp": lambda A, b: oracle_weighted_lp(A, b, np.ones(10), 0.5, 2).minimizer,
    "oracle_l0": lambda A, b: oracle_l0(A, b, 2).minimizer,
    "solve": lambda A, b: solve(A, b, np.ones(10), SolverConfig(p=0.5))[0],
}


def _refusal(decoder, A, b) -> str:
    with pytest.raises(ValueError) as err:
        _DECODERS[decoder](A, b)
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


def _reference_fits(A, y, k_max, residual_tol=1e-8):
    # one lstsq per support, sizes ascending, lexicographic within a size
    n, N = A.shape
    tol = residual_tol * max(1.0, float(np.linalg.norm(y)))
    for size in range(k_max + 1):
        for support in combinations(range(N), size):
            cols = A[:, support]
            z, *_ = np.linalg.lstsq(cols, y, rcond=None)
            if float(np.linalg.norm(cols @ z - y)) <= tol:
                yield support, z


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
    _assert_matches(
        oracle_weighted_lp(DenseMatrix(A), y, w, p, k_max), _reference_weighted_lp(A, y, w, p, k_max), N
    )


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
        _check_against_reference(A, A @ x, w, 0.5, 4)


def test_stacked_oracles_match_reference_on_rank_deficient_supports():
    # duplicated and scaled columns make every support holding both of a
    # pair rank-deficient; lstsq and the pseudo-inverse both return the
    # minimum-norm fit there
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
                _check_against_reference(A, A @ x, w, p, 4)


def test_stacked_oracles_match_reference_at_the_size_caps():
    # n = 4 rows: every generic support of size 4 out of 20 fits exactly
    rng = np.random.default_rng(53)
    A = rng.standard_normal((4, 20))
    y = rng.standard_normal(4)
    _check_against_reference(A, y, rng.uniform(0.1, 1.0, 20), 0.5, 4)


def test_stacked_oracles_match_reference_on_zero_measurements():
    rng = np.random.default_rng(59)
    A = rng.standard_normal((6, 10))
    _check_against_reference(A, np.zeros(6), np.ones(10), 0.5, 4)


def test_oracles_need_no_lstsq(monkeypatch):
    # every support of one size is fitted by one stacked pseudo-inverse
    def no_lstsq(*args, **kwargs):
        raise AssertionError("the oracle called lstsq")

    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    rng = np.random.default_rng(61)
    A = rng.standard_normal((6, 10))
    x = np.zeros(10)
    x[[2, 7]] = (1.3, -0.4)
    assert oracle_l0(DenseMatrix(A), A @ x, 4).support == (3, 8)
    assert oracle_weighted_lp(DenseMatrix(A), A @ x, np.ones(10), 0.5, 4).support == (3, 8)
