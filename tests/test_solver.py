import tracemalloc

import numpy as np
import pytest

from cswlp import (
    DenseMatrix,
    Measurements,
    RankDeficientError,
    RestrictedTransform,
    SignalVector,
    SolverConfig,
    SolverTrace,
    smoothed_gradient,
    smoothed_objective,
    snr_db,
    solve,
)
from cswlp import _kernels
from cswlp.solver import _projector_parts
from test_kernels import reference_backtrack


def _sparse_instance(N, n, k, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, N)) / np.sqrt(n)
    x = np.zeros(N)
    support = rng.choice(N, size=k, replace=False)
    x[support] = rng.standard_normal(k)
    return A, x, A @ x


def test_smoothed_objective_spot_value():
    # p = 1, sigma = 1, x = (3, 4): sqrt(10) + sqrt(17)
    got = smoothed_objective(np.array([3.0, 4.0]), np.ones(2), 1.0, 1.0)
    assert abs(got - 7.28538328578604) < 1e-12


def test_smoothed_gradient_spot_value():
    got = smoothed_gradient(np.array([3.0, 4.0]), np.ones(2), 1.0, 1.0)
    expected = np.array([3.0 / np.sqrt(10.0), 4.0 / np.sqrt(17.0)])
    assert np.allclose(got, expected, rtol=1e-14, atol=0)


def test_smoothed_objective_applies_weights():
    got = smoothed_objective(np.array([2.0]), np.array([0.5]), 0.5, 1.0)
    assert abs(got - 1.057371263440564) < 1e-12


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    x = rng.standard_normal(12)
    w = np.where(rng.random(12) < 0.5, 0.3, 1.0)
    p, sigma = 0.6, 0.7
    g = smoothed_gradient(x, w, p, sigma)
    h = 1e-6
    for i in range(12):
        e = np.zeros(12)
        e[i] = h
        fd = (smoothed_objective(x + e, w, p, sigma) - smoothed_objective(x - e, w, p, sigma)) / (2 * h)
        assert abs(fd - g[i]) <= 1e-7 * max(1.0, abs(g[i]))


def test_solver_config_validation():
    SolverConfig(p=0.5)
    for bad in (dict(p=0.0), dict(p=1.2), dict(p=0.5, sigma_decay=1.0), dict(p=0.5, max_iters=0), dict(p=0.5, step_shrink=1.0), dict(p=0.5, sigma_init=0.0)):
        with pytest.raises(ValueError):
            SolverConfig(**bad)


def test_square_system_returns_exact_solution_immediately():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((6, 6))
    x_true = rng.standard_normal(6)
    y = A @ x_true
    x, trace = solve(DenseMatrix(A), y, np.ones(6), SolverConfig(p=0.5))
    # null(A) is trivial, so the feasible start is the only feasible point
    assert np.allclose(x.entries, x_true, atol=1e-8)
    assert trace.t.shape[0] >= 1


def test_exact_recovery_small_sparse():
    A, x_true, y = _sparse_instance(N=32, n=16, k=3, seed=4)
    x, _ = solve(DenseMatrix(A), y, np.ones(32), SolverConfig(p=0.5))
    assert snr_db(SignalVector(x_true), x) >= 100.0


def test_iterates_start_at_min_norm_point_and_stay_feasible():
    A, x_true, y = _sparse_instance(N=40, n=20, k=4, seed=8)
    cfg = SolverConfig(p=0.5)
    x, trace = solve(DenseMatrix(A), y, np.ones(40), cfg, keep_iterates=True)
    assert trace.iterates is not None
    x0 = np.linalg.pinv(A) @ y
    assert np.allclose(trace.iterates[0], x0, atol=1e-10)
    limit = cfg.feasibility_tol * max(1.0, float(np.linalg.norm(y)))
    for it in trace.iterates:
        assert float(np.linalg.norm(A @ it - y)) <= limit
    assert len(trace.iterates) == trace.t.shape[0] + 1


def test_trace_rows_and_columns():
    A, _, y = _sparse_instance(N=24, n=12, k=2, seed=13)
    _, trace = solve(DenseMatrix(A), y, np.ones(24), SolverConfig(p=0.5, max_iters=40))
    assert SolverTrace.COLUMNS == ("t", "sigma", "objective", "step", "residual")
    rows = list(trace.rows())
    assert len(rows) == trace.t.shape[0]
    assert rows[0][0] == 1
    # sigma never increases along the run
    assert np.all(np.diff(trace.sigma) <= 0)
    # accepted steps lie in (0, 1]
    accepted = trace.step[trace.step > 0]
    assert np.all(accepted <= 1.0)


def _criterion_3_instance(k, trial, seed=12345):
    # the n = 6, N = 10 instances of the acceptance suite's oracle check
    rng = np.random.default_rng(np.random.SeedSequence([seed, k, trial]))
    A = rng.standard_normal((6, 10)) / np.sqrt(6)
    x = np.zeros(10)
    sup = np.sort(rng.choice(10, size=k, replace=False))
    vals = rng.standard_normal(k)
    while (vals == 0).any():
        vals = rng.standard_normal(k)
    x[sup] = vals
    return A, A @ x


@pytest.mark.parametrize("k, trial", [(1, 49), (2, 0), (1, 101)])
def test_solve_never_returns_more_than_n_entries(k, trial):
    # With every weight positive, a local minimizer's nonzero columns are
    # linearly independent, so it has at most n nonzero entries.  A sigma
    # schedule that outruns the iterate used to freeze these instances
    # with 9 entries above 1e-4 of the largest.
    A, y = _criterion_3_instance(k, trial)
    x, _ = solve(DenseMatrix(A), y, np.ones(10), SolverConfig(p=0.5))
    mags = np.abs(x.entries)
    assert np.count_nonzero(mags > 1e-4 * mags.max()) <= A.shape[0]


def test_restarts_are_seeded_inside_solve():
    # an instance whose first run is not certified sparse takes restarts;
    # they draw from a fixed seed, not from numpy's global state
    A, y = _criterion_3_instance(1, 49)
    cfg = SolverConfig(p=0.5)
    np.random.seed(1)
    first, trace = solve(DenseMatrix(A), y, np.ones(10), cfg)
    np.random.seed(2)
    np.random.standard_normal(7)
    again, _ = solve(DenseMatrix(A), y, np.ones(10), cfg)
    assert len(trace.restart_iters) >= 1
    assert len(trace) == trace.t.shape[0] + sum(trace.restart_iters) <= cfg.max_iters
    assert np.array_equal(first.entries, again.entries)


def _identity_instance(name):
    if name == "restarts":
        # criterion-3 shaped at p = 0.5; its first run is not sparse
        A, y = _criterion_3_instance(1, 49)
        return DenseMatrix(A), y, np.ones(10), SolverConfig(p=0.5)
    if name == "dense-p1":
        A, _, y = _sparse_instance(N=60, n=25, k=5, seed=23)
        return DenseMatrix(A), y, np.ones(60), SolverConfig(p=1.0)
    # an audio-shaped block: kept time samples of the inverse DCT
    rng = np.random.default_rng(29)
    rows = tuple(int(i) + 1 for i in np.sort(rng.choice(256, size=96, replace=False)))
    op = RestrictedTransform(rows=rows, size=256)
    coef = np.zeros(256)
    coef[rng.choice(40, size=12, replace=False)] = rng.standard_normal(12)
    w = np.ones(256)
    w[:40] = 0.3
    return op, op.apply(coef), w, SolverConfig(p=0.5)


@pytest.mark.parametrize("name", ["restarts", "dense-p1", "dct"])
def test_block_backtracking_reproduces_sequential_solve(monkeypatch, name):
    A, y, w, cfg = _identity_instance(name)
    # the sequential search as reference: every solve output, bit for bit
    x, trace = solve(A, y, w, cfg)
    monkeypatch.setattr(_kernels, "backtrack_raw", reference_backtrack)
    x_ref, trace_ref = solve(A, y, w, cfg)
    if name == "restarts":
        assert len(trace.restart_iters) >= 1
    assert np.array_equal(x.entries, x_ref.entries)
    for col in SolverTrace.COLUMNS:
        assert np.array_equal(getattr(trace, col), getattr(trace_ref, col)), col
    assert trace.restart_iters == trace_ref.restart_iters


def test_rank_deficient_matrix_is_rejected():
    A = np.array([[1.0, 2.0, 3.0, 0.0], [2.0, 4.0, 6.0, 0.0]])
    with pytest.raises(RankDeficientError):
        solve(DenseMatrix(A), np.array([1.0, 2.0]), np.ones(4), SolverConfig(p=0.5))


def test_precomputed_projector_reproduces_solve():
    A, _, y = _sparse_instance(N=30, n=15, k=3, seed=17)
    w = np.ones(30)
    cfg = SolverConfig(p=0.5)
    direct, _ = solve(DenseMatrix(A), y, w, cfg)
    shared, _ = solve(DenseMatrix(A), y, w, cfg, projector=_projector_parts(DenseMatrix(A)))
    assert np.array_equal(direct.entries, shared.entries)


@pytest.mark.parametrize("kind", ["dense", "dct"])
def test_projector_parts_pull_back_and_project(kind):
    rng = np.random.default_rng(19)
    if kind == "dense":
        A, _, y = _sparse_instance(N=20, n=10, k=2, seed=19)
        op = DenseMatrix(A)
    else:
        rows = tuple(int(i) + 1 for i in np.sort(rng.choice(20, size=10, replace=False)))
        op = RestrictedTransform(rows=rows, size=20)
        y = rng.standard_normal(10)
    project, pull_back = _projector_parts(op)
    # pinv(A) y is a feasible start
    assert np.allclose(op.apply(pull_back(y)), y, atol=1e-10)
    d = rng.standard_normal(20)
    pd = project(d)
    # the projected direction lies in null(A), and projecting it again
    # leaves it where it is
    assert np.max(np.abs(op.apply(pd))) < 1e-10
    assert np.allclose(project(pd), pd, atol=1e-10)
    # and it is the orthogonal projection, d - pinv(A) A d
    dense = op.as_dense()
    assert np.allclose(pd, d - np.linalg.pinv(dense) @ (dense @ d), atol=1e-10)


def test_dense_projector_builds_no_n_by_n_array():
    # a 3000 x 3000 float64 array would take 72 MB; the projector needs
    # only the 5 x 3000 pseudo-inverse
    A = DenseMatrix(np.random.default_rng(31).standard_normal((5, 3000)))
    tracemalloc.start()
    try:
        project, _ = _projector_parts(A)
        project(np.ones(3000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_weights_steer_recovery_toward_estimate():
    # two exact representations; zero weights on one of them select it
    rng = np.random.default_rng(23)
    basis = rng.standard_normal((8, 8))
    A = np.hstack([basis, basis])  # duplicated dictionary, 8 x 16
    z = np.zeros(16)
    z[3] = 1.5
    y = A @ z
    w = np.ones(16)
    w[[3, 11]] = 0.0  # both copies allowed, solver may spread across them
    x, _ = solve(DenseMatrix(A), y, w, SolverConfig(p=0.5))
    off = np.delete(np.arange(16), [3, 11])
    assert float(np.max(np.abs(x.entries[off]))) < 1e-6
    assert abs(x.entries[3] + x.entries[11] - 1.5) < 1e-6


def test_measurement_length_mismatch_raises():
    A = np.zeros((3, 6)) + np.eye(3, 6)
    with pytest.raises(ValueError):
        solve(DenseMatrix(A), np.ones(4), np.ones(6), SolverConfig(p=0.5))


def test_measurements_object_accepted():
    A, _, y = _sparse_instance(N=16, n=8, k=2, seed=29)
    got_arr, _ = solve(DenseMatrix(A), y, np.ones(16), SolverConfig(p=0.5))
    got_obj, _ = solve(DenseMatrix(A), Measurements(y=y), np.ones(16), SolverConfig(p=0.5))
    assert np.array_equal(got_arr.entries, got_obj.entries)
