import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from cswlp import (
    DenseMatrix,
    Measurements,
    RankDeficientError,
    RestrictedTransform,
    SolverDivergenceError,
    SignalVector,
    SolverConfig,
    SolverTrace,
    WeightVector,
    best_k_term,
    smoothed_gradient,
    smoothed_objective,
    snr_db,
    solve,
)
from cswlp import _kernels, experiments, solver
from cswlp.core import _FEASIBILITY_TOL
from cswlp.oracle import oracle_weighted_lp
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
    # the kernel takes value and gradient from one power r = u^(p/2) of
    # u = x^2 + sigma^2; its gradient p w^p (r / u) x is the closed form,
    # and its value is the public one and the line search's, bit for bit
    # (from 0, the search's unit step lands on x itself)
    for sigma in (10.0, 1e-3, 1e-9):
        for p in (0.3, 0.5, 1.0):
            wp = w**p
            f, g = _kernels.smoothed_objective_raw(x, wp, p, sigma)
            expected = p * wp * (x * x + sigma * sigma) ** (0.5 * p - 1.0) * x
            assert np.allclose(g, expected, rtol=1e-13, atol=0.0), (sigma, p)
            assert f == smoothed_objective(x, w, p, sigma)
            assert _kernels.backtrack_raw(np.zeros_like(x), x, wp, p, sigma, math.inf, 0.5, 1) == (1.0, f)
            assert np.array_equal(smoothed_gradient(x, w, p, sigma), g)


def test_solver_config_validation():
    SolverConfig(p=0.5)
    for bad in (dict(p=0.0), dict(p=1.2)):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    # the other settings are constants, not fields
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["p"]
    assert (SolverConfig.max_iters, SolverConfig.feasibility_tol, SolverConfig.snr_cap_db) == (500, 1e-8, 300.0)
    for setting in (dict(sigma_decay=0.98), dict(max_iters=60)):
        with pytest.raises(TypeError):
            SolverConfig(p=0.5, **setting)


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


def test_iterates_start_at_min_norm_point_and_stay_feasible(monkeypatch):
    A, x_true, y = _sparse_instance(N=40, n=20, k=4, seed=8)
    cfg = SolverConfig(p=0.5)
    iterates = record_iterates(monkeypatch)
    x, trace = solve(DenseMatrix(A), y, np.ones(40), cfg)
    x0 = np.linalg.pinv(A) @ y
    assert np.allclose(iterates[0], x0, atol=1e-10)
    limit = _FEASIBILITY_TOL * max(1.0, float(np.linalg.norm(y)))
    assert worst_residual(DenseMatrix(A), y, iterates, trace) <= limit
    # one search per row: every iterate but the last starts one
    assert len(iterates) == trace.t.shape[0]


def backward_error(A, x, y):
    """The normwise backward error ||A x - y|| / (||A||_2 ||x|| + ||y||) of
    x, or of each row of a stack x, for a plain matrix A; ||A||_2 comes
    from numpy's SVD, not from the solver's operator."""
    scale = np.linalg.norm(A, 2) * np.linalg.norm(x, axis=-1) + np.linalg.norm(y)
    # 0 where x = 0 = y, whose fit is exact
    return np.linalg.norm(x @ A.T - y, axis=-1) / np.maximum(scale, np.finfo(float).tiny)


def _count_pull_backs(monkeypatch) -> list[float]:
    """Record ||r|| for each ``DenseMatrix.pull_back(r)`` the solver takes."""
    pulls = []
    pull_back = DenseMatrix.pull_back

    def counted(op, r):
        pulls.append(float(np.linalg.norm(r)))
        return pull_back(op, r)

    monkeypatch.setattr(DenseMatrix, "pull_back", counted)
    return pulls


@pytest.mark.parametrize("kappa, p", [(1e8, 0.5), (1e9, 0.5), (1e9, 1.0)])
def test_iterates_stay_feasible_on_an_ill_conditioned_matrix(monkeypatch, kappa, p):
    # b lies almost along A's smallest singular direction, so pinv(A) b is
    # about kappa ||b|| long, and rounding A x alone costs about
    # eps ||A||_2 ||x||: more than the retired limit 1e-8 max(1, ||b||),
    # which in-loop pull-backs kept at kappa = 1e8 (about 80 over these
    # ten solves) and could not keep at 1e9 (about 660, and the limit
    # failed on all ten seeds).  The backward error stays at rounding
    # level on every recorded iterate and result with no pull-back but
    # each solve's start.
    pulls = _count_pull_backs(monkeypatch)
    iterates = record_iterates(monkeypatch)
    worst = 0.0
    for seed in range(10):
        A, _, U = _conditioned_instance(kappa, seed)
        y = U[:, -1] + 1e-3 * U[:, 0]
        iterates.clear()
        x, _ = solve(DenseMatrix(A), y, np.ones(60), SolverConfig(p=p))
        worst = max(worst, *backward_error(A, np.array([*iterates, x.entries]), y))
    assert worst <= _FEASIBILITY_TOL, worst
    assert len(pulls) == 10


def _compressible_instance(seed):
    # a compressible signal at N = 2 n, whose result is not sparse
    rng = np.random.default_rng(seed)
    N, n = 40, 20
    A = rng.standard_normal((n, N)) / np.sqrt(n)
    return A, A @ (rng.standard_normal(N) * np.arange(1, N + 1) ** -1.0)


@pytest.mark.parametrize("seed", [0, 9])
def test_final_pull_back_returns_a_result_within_the_limit(monkeypatch, seed):
    # a projection that leaks 1e-7 of each direction's row-space part
    # drifts the iterates off A x = b; this result is not refit (its n/2
    # largest entries leave b far off), so only the final check and its
    # pull-back bring it back within the rule
    A, y = _compressible_instance(seed)
    project = DenseMatrix.project_null
    monkeypatch.setattr(DenseMatrix, "project_null", lambda op, d: project(op, d) + 1e-7 * (d - project(op, d)))
    pulls = _count_pull_backs(monkeypatch)
    x, trace = solve(DenseMatrix(A), y, np.ones(40), SolverConfig(p=0.5))
    assert trace.restart_iters == ()
    # the start's pull-back, and the final one from ten times the limit or more
    tol = _FEASIBILITY_TOL
    assert len(pulls) == 2
    assert pulls[-1] > 10 * tol * (np.linalg.norm(A, 2) * np.linalg.norm(x.entries) + np.linalg.norm(y))
    assert backward_error(A, x.entries, y) <= tol


def _conditioned_instance(kappa, seed):
    # a 20 x 60 matrix with singular values from 1 down to 1 / kappa, its
    # left singular vectors U, and b = A x for a 4-sparse x
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    V, _ = np.linalg.qr(rng.standard_normal((60, 20)))
    A = (U * np.logspace(0, -np.log10(kappa), 20)) @ V.T
    x = np.zeros(60)
    x[rng.choice(60, size=4, replace=False)] = rng.standard_normal(4)
    return A, A @ x, U


@pytest.mark.parametrize("kappa", [1e0, 1e3, 1e6, 1e9])
def test_residual_is_measured_on_the_first_and_last_rows_only(monkeypatch, kappa):
    # every iterate and result of a sparse-signal b meets the backward
    # error rule at any condition number, and the trace measures the
    # residual on its first and last rows and nowhere else
    iterates = record_iterates(monkeypatch)
    for seed in range(10):
        A, y, _ = _conditioned_instance(kappa, seed)
        iterates.clear()
        x, trace = solve(DenseMatrix(A), y, np.ones(60), SolverConfig(p=0.5))
        worst = float(np.max(backward_error(A, np.array([*iterates, x.entries]), y)))
        assert worst <= _FEASIBILITY_TOL, (seed, worst)
        on = ~np.isnan(trace.residual)
        assert on[0] and on[-1] and not on[1:-1].any()


@pytest.mark.parametrize("p", [0.5, 1.0])
def test_residual_measured_every_iteration_gives_the_same_solve(monkeypatch, p):
    # measured at every iterate of a criterion-6 solve, the residual never
    # fails the backward error rule, so a check on every row could pull
    # nothing back and change nothing; the trace's first row holds the
    # residual at the second iterate, to the bit
    x, A, y, estimate = _criterion_6_instance(100, 1)
    w = WeightVector(omega=0.5, estimate=estimate, size=500)
    pulls = _count_pull_backs(monkeypatch)
    iterates = record_iterates(monkeypatch)
    got, trace = solve(A, y, w, SolverConfig(p=p))
    assert len(pulls) == 1
    every = np.array([*iterates, got.entries])
    assert float(np.max(backward_error(A.matrix, every, y))) <= _FEASIBILITY_TOL
    assert trace.residual[0] == np.linalg.norm(A.apply(iterates[1]) - y)


def test_trace_rows_and_columns(monkeypatch):
    A, _, y = _sparse_instance(N=24, n=12, k=2, seed=13)
    monkeypatch.setattr(solver, "_MAX_ITERS", 40)
    _, trace = solve(DenseMatrix(A), y, np.ones(24), SolverConfig(p=0.5))
    assert SolverTrace.COLUMNS == ("t", "sigma", "objective", "step", "residual")
    assert all(getattr(trace, c).shape == trace.t.shape for c in SolverTrace.COLUMNS)
    assert trace.t[0] == 1
    # sigma never increases along the run
    assert np.all(np.diff(trace.sigma) <= 0)
    # accepted steps lie in (0, 1]
    accepted = trace.step[trace.step > 0]
    assert np.all(accepted <= 1.0)


def _stop_instance(reason):
    if reason == "stationary":
        # pinv(A) b = (1, 0, 0) and its only nonzero entry has weight 0,
        # so the gradient vanishes at the start
        A = DenseMatrix(np.array([[1.0, 0.0, 0.0]]))
        return A, np.array([1.0]), np.array([0.0, 1.0, 1.0]), SolverConfig(p=0.5)
    A, _, y = _sparse_instance(N=40, n=20, k=4, seed=8)
    return DenseMatrix(A), y, np.ones(40), SolverConfig(p=0.5)


@pytest.mark.parametrize("reason", ["sigma_floor", "max_iters", "stationary"])
def test_trace_names_why_the_first_run_stopped(monkeypatch, reason):
    A, y, w, cfg = _stop_instance(reason)
    if reason == "max_iters":
        monkeypatch.setattr(solver, "_MAX_ITERS", 5)
    _, trace = solve(A, y, w, cfg)
    assert trace.stop_reason == reason
    last = trace.t.shape[0]
    if reason == "sigma_floor":
        assert last < solver._MAX_ITERS
        assert trace.sigma[-1] * solver._SIGMA_DECAY <= solver._SIGMA_FLOOR < trace.sigma[-1]
    elif reason == "max_iters":
        assert last == solver._MAX_ITERS
        assert trace.sigma[-1] * solver._SIGMA_DECAY > solver._SIGMA_FLOOR
    else:
        assert last == 1 and trace.step[0] == 0.0


def _criterion_3_instance(k, trial, seed=12345):
    # the n = 6, N = 10 instances of the acceptance suite's oracle check:
    # A, b and the sorted 0-based support of the k-sparse x
    rng = np.random.default_rng(np.random.SeedSequence([seed, k, trial]))
    A = rng.standard_normal((6, 10)) / np.sqrt(6)
    x = np.zeros(10)
    sup = np.sort(rng.choice(10, size=k, replace=False))
    vals = rng.standard_normal(k)
    while (vals == 0).any():
        vals = rng.standard_normal(k)
    x[sup] = vals
    return A, A @ x, sup


@pytest.mark.parametrize("k, trial", [(1, 49), (2, 0), (1, 101)])
def test_solve_never_returns_more_than_n_entries(k, trial):
    # With every weight positive, a local minimizer's nonzero columns are
    # linearly independent, so it has at most n nonzero entries.  A sigma
    # schedule that outruns the iterate used to freeze these instances
    # with 9 entries above 1e-4 of the largest.
    A, y, _ = _criterion_3_instance(k, trial)
    x, _ = solve(DenseMatrix(A), y, np.ones(10), SolverConfig(p=0.5))
    mags = np.abs(x.entries)
    assert np.count_nonzero(mags > 1e-4 * mags.max()) <= A.shape[0]


def test_restarts_are_seeded_inside_solve():
    # an instance whose first run is not certified sparse takes restarts;
    # they draw from a fixed seed, not from numpy's global state
    A, y, _ = _criterion_3_instance(1, 49)
    cfg = SolverConfig(p=0.5)
    np.random.seed(1)
    first, trace = solve(DenseMatrix(A), y, np.ones(10), cfg)
    np.random.seed(2)
    np.random.standard_normal(7)
    again, _ = solve(DenseMatrix(A), y, np.ones(10), cfg)
    assert len(trace.restart_iters) >= 1
    assert len(trace) == trace.t.shape[0] + sum(trace.restart_iters) <= solver._MAX_ITERS
    assert np.array_equal(first.entries, again.entries)


def test_audio_shaped_block_takes_no_restarts():
    # null space 160 against n = 96 measurements: restarts are not taken
    A, y, w, cfg = _identity_instance("dct")
    _, trace = solve(A, y, w, cfg)
    assert trace.restart_iters == ()
    assert len(trace) == trace.t.shape[0]


def test_dense_result_with_large_null_space_takes_no_restarts():
    # a compressible signal at N = 2 n: the first run is not certified
    # sparse, but a null space of n dimensions takes no restarts
    A, y = _compressible_instance(0)
    N, n = 40, 20
    x, trace = solve(DenseMatrix(A), y, np.ones(N), SolverConfig(p=0.5))
    mags = np.abs(x.entries)
    assert 2 * np.count_nonzero(mags > 1e-4 * mags.max()) > n
    assert trace.restart_iters == ()
    assert len(trace) == trace.t.shape[0] < solver._MAX_ITERS


def test_criterion_3_seed_5_instance_lands_on_the_oracle_support():
    # the first run ends at a 6-entry local minimizer; the third restart
    # ends with 9 entries, whose 3 largest leave a residual of 0.45 ||b||,
    # far above _HEAD_REL ||b||, and only their unscreened refit finds the
    # oracle's 2-entry support
    A, y, _ = _criterion_3_instance(2, 34, seed=5)
    x, trace = solve(DenseMatrix(A), y, np.ones(10), SolverConfig(p=0.5))
    assert len(trace.restart_iters) >= 1
    mags = np.abs(x.entries)
    got = tuple(int(i) + 1 for i in np.flatnonzero(mags > 1e-4 * mags.max()))
    assert got == oracle_weighted_lp(DenseMatrix(A), y, np.ones(10), 0.5, 4).support
    assert len(got) == 2


def _identity_instance(name):
    if name == "restarts":
        # criterion-3 shaped at p = 0.5; its first run is not sparse
        A, y, _ = _criterion_3_instance(1, 49)
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
def test_solve_matches_sequential_reference_search(monkeypatch, name):
    A, y, w, cfg = _identity_instance(name)
    # the sequential search as reference: every solve output, bit for bit
    x, trace = solve(A, y, w, cfg)
    monkeypatch.setattr(_kernels, "backtrack_raw", reference_backtrack)
    x_ref, trace_ref = solve(A, y, w, cfg)
    if name == "restarts":
        assert len(trace.restart_iters) >= 1
    assert np.array_equal(x.entries, x_ref.entries)
    for col in SolverTrace.COLUMNS:
        assert np.array_equal(getattr(trace, col), getattr(trace_ref, col), equal_nan=True), col
    assert trace.restart_iters == trace_ref.restart_iters


def _record_searches(monkeypatch) -> list[dict]:
    """Record each line search the solver runs: its point, direction,
    sigma, objective at the point, reference value and returned step."""
    calls = []
    search = _kernels.backtrack_raw

    def recorded(x, d, wp, p, sigma, f_ref, shrink, max_backtracks):
        step, f_new = search(x, d, wp, p, sigma, f_ref, shrink, max_backtracks)
        f0 = _kernels.smoothed_objective_raw(x, wp, p, sigma)[0]
        calls.append(dict(x=x.copy(), d=d.copy(), sigma=sigma, f0=f0, f_ref=f_ref, step=step))
        return step, f_new

    monkeypatch.setattr(_kernels, "backtrack_raw", recorded)
    return calls


def record_iterates(monkeypatch) -> list[np.ndarray]:
    """Record the point each line search starts from: every iterate of
    every run but each run's last.  The first run's
    last iterate is the point of the trace's last row, whose residual is
    always measured (see ``worst_residual``)."""
    iterates = []
    search = _kernels.backtrack_raw

    def recorded(x, *args):
        iterates.append(x.copy())
        return search(x, *args)

    monkeypatch.setattr(_kernels, "backtrack_raw", recorded)
    return iterates


def worst_residual(op, y, iterates, trace) -> float:
    """The largest ||A x - y|| over the recorded iterates and the first
    run's last iterate, whose residual the trace's last row holds."""
    return max(float(trace.residual[-1]), *(float(np.linalg.norm(op.apply(x) - y)) for x in iterates))


def _projected_gradient(op, x, w, p, sigma):
    # the gradient of the objective the solver minimizes, the smoothed one over p
    return op.project_null(-_kernels.smoothed_objective_raw(x, w**p / p, p, sigma)[1])


def test_first_iteration_tries_the_unit_step(monkeypatch):
    A, _, y = _sparse_instance(N=40, n=20, k=4, seed=8)
    op, w, cfg = DenseMatrix(A), np.ones(40), SolverConfig(p=0.5)
    calls = _record_searches(monkeypatch)
    _, trace = solve(op, y, w, cfg)
    pd = _projected_gradient(op, calls[0]["x"], w, cfg.p, solver._SIGMA_INIT)
    assert np.array_equal(calls[0]["d"], pd)
    assert trace.step[0] == calls[0]["step"] > 0.0


@pytest.mark.parametrize("p", [1.0, 0.5, 1e-6])
def test_trace_objective_is_the_smoothed_objective_over_p(monkeypatch, p):
    # each row records the value the solver minimizes at the row's new
    # iterate: the paper's smoothed objective divided by p
    A, _, y = _sparse_instance(N=40, n=20, k=4, seed=8)
    w = np.linspace(0.5, 1.0, 40)
    calls = _record_searches(monkeypatch)
    # N = 2n: no restart follows the first run, so call t is row t
    _, trace = solve(DenseMatrix(A), y, w, SolverConfig(p=p))
    assert trace.restart_iters == () and len(calls) == trace.t.shape[0]
    for row, call in enumerate(calls):
        x = call["x"] + call["step"] * call["d"]
        want = smoothed_objective(x, w, p, call["sigma"]) / p
        assert math.isclose(trace.objective[row], want, rel_tol=1e-12)


def test_rejected_row_records_the_iterates_objective(monkeypatch):
    # a search that rejects every step returns its reference max(recent),
    # not the objective at x; reject one whose reference lies above it
    A, _, y = _sparse_instance(N=40, n=20, k=4, seed=8)
    search = _kernels.backtrack_raw
    calls, rejected = [], []

    def reject_once(x, d, wp, p, sigma, f_ref, *rest):
        calls.append(f_ref)
        f0 = _kernels.smoothed_objective_raw(x, wp, p, sigma)[0]
        if not rejected and f_ref > f0:
            rejected.append((len(calls), f0))
            return 0.0, f_ref
        return search(x, d, wp, p, sigma, f_ref, *rest)

    monkeypatch.setattr(_kernels, "backtrack_raw", reject_once)
    # N = 2n: no restart follows the first run, so call t is row t
    _, trace = solve(DenseMatrix(A), y, np.ones(40), SolverConfig(p=0.5))
    [(t, f0)] = rejected
    assert trace.t[t - 1] == t and trace.step[t - 1] == 0.0
    assert trace.objective[t - 1] == f0


@pytest.mark.parametrize("sigma_init, case", [(1e-2, "short"), (1.0, "clipped"), (10.0, "s.y < 0")])
def test_second_iteration_takes_the_barzilai_borwein_step(monkeypatch, sigma_init, case):
    A, _, y = _sparse_instance(N=40, n=20, k=4, seed=8)
    op, w = DenseMatrix(A), np.ones(40)
    monkeypatch.setattr(solver, "_SIGMA_INIT", sigma_init)
    monkeypatch.setattr(solver, "_MAX_ITERS", 2)
    cfg = SolverConfig(p=0.5)
    calls = _record_searches(monkeypatch)
    _, trace = solve(op, y, w, cfg)
    assert len(calls) == 2 and trace.step[0] > 0.0
    x0, x1 = calls[0]["x"], calls[1]["x"]
    pd0 = calls[0]["d"]
    pd1 = _projected_gradient(op, x1, w, cfg.p, calls[1]["sigma"])
    s = x1 - x0
    sy = float(s.dot(pd0 - pd1))
    bb = float(s.dot(s)) / sy
    # a small sigma curves the objective more and gives a short step; a
    # larger one gives a step above 1, which is clipped; at sigma 10 the
    # level changes after one iteration and s.y turns negative, so the
    # unit step is tried again
    assert {"short": 0.0 < bb < 1.0, "clipped": bb > 1.0, "s.y < 0": sy < 0.0}[case]
    lam = min(1.0, bb) if sy > 0.0 else 1.0
    assert np.allclose(calls[1]["d"], lam * pd1, rtol=1e-12, atol=0.0)
    assert np.isclose(trace.step[1], lam * calls[1]["step"], rtol=1e-12, atol=0.0)


def test_nonmonotone_reference_resets_at_each_sigma_level(monkeypatch):
    # p = 1 takes no restarts, so every search belongs to one run
    A, _, y = _sparse_instance(N=60, n=25, k=5, seed=23)
    calls = _record_searches(monkeypatch)
    solve(DenseMatrix(A), y, np.ones(60), SolverConfig(p=1.0))
    levels, above = 0, 0
    for i, call in enumerate(calls):
        if i == 0 or call["sigma"] != calls[i - 1]["sigma"]:
            levels += 1
            start = i
            # a new level starts with no history but this iteration's
            assert call["f_ref"] == call["f0"]
        window = calls[max(start, i - 4) : i + 1]
        assert call["f_ref"] == max(c["f0"] for c in window)
        above += call["f_ref"] > call["f0"]
    # the reference exceeds the current objective somewhere, on many levels
    assert levels > 10 and above > 0


def test_recorded_step_is_the_spectral_step_times_the_search_step(monkeypatch):
    A, _, y = _sparse_instance(N=40, n=20, k=4, seed=8)
    op, w, cfg = DenseMatrix(A), np.ones(40), SolverConfig(p=0.5)
    calls = _record_searches(monkeypatch)
    _, trace = solve(op, y, w, cfg)
    x_prev = pd_prev = None
    # one search per row, each from that row's starting iterate
    assert len(calls) == trace.t.shape[0]
    for t in range(trace.t.shape[0]):
        x = calls[t]["x"]
        pd = _projected_gradient(op, x, w, cfg.p, trace.sigma[t])
        # the memory carries over from one sigma level to the next
        lam = 1.0
        if x_prev is not None:
            s = x - x_prev
            sy = float(s.dot(pd_prev - pd))
            if sy > 0.0:
                lam = min(1.0, float(s.dot(s)) / sy)
        x_prev, pd_prev = x, pd
        assert 0.0 < lam <= 1.0
        assert np.allclose(calls[t]["d"], lam * pd, rtol=1e-9, atol=1e-300)
        step = calls[t]["step"]
        assert step == 0.0 or round(math.log(step) / math.log(solver._STEP_SHRINK)) >= 0
        assert np.isclose(trace.step[t], lam * step, rtol=1e-9, atol=0.0)
        assert 0.0 <= trace.step[t] <= 1.0
    # both unit and shorter spectral steps occur
    assert (trace.step == 1.0).any() and ((trace.step > 0.0) & (trace.step < 1.0)).any()


def _criterion_6_instance(n, trial):
    # an instance of the acceptance suite's sparse sweep (seed 2, N = 500,
    # k = 40, alpha = 0.7): the signal, the operator, b and the estimate
    rng = experiments._instance_rng(2, n, 0, trial)
    x = experiments.gen_sparse_signal(500, 40, rng)
    A = experiments.gen_gaussian_matrix(n, 500, rng)
    estimate = experiments.gen_support_estimate(best_k_term(x, 40)[1], 0.7, 1.0, 500, rng)
    return x, A, A.apply(x.entries), estimate


def test_exact_recovery_does_not_depend_on_the_weights():
    # both weight vectors recover this instance: the refit must land on the
    # same columns, so the two results agree bit for bit, not to rounding
    x, A, y, estimate = _criterion_6_instance(100, 1)
    got = [
        solve(A, y, WeightVector(omega=omega, estimate=estimate, size=500), SolverConfig(p=0.5))[0]
        for omega in (0.0, 0.5)
    ]
    assert snr_db(x, got[0]) >= 200.0
    assert np.array_equal(got[0].entries, got[1].entries)


def test_result_that_is_not_sparse_is_refit_on_its_largest_entries(monkeypatch):
    # at p = 1 this run ends with more than n entries above 1e-4 of the
    # largest, but its n/2 largest hold the signal's support
    x, A, y, estimate = _criterion_6_instance(140, 0)
    w = WeightVector(omega=0.5, estimate=estimate, size=500)
    cfg = SolverConfig(p=1.0)
    x_hat, _ = solve(A, y, w, cfg)
    assert snr_db(x, x_hat) >= 200.0
    assert np.count_nonzero(x_hat.entries) == 40
    monkeypatch.setattr(solver, "_HEAD_REL", 0.0)
    unfit, _ = solve(A, y, w, cfg)
    mags = np.abs(unfit.entries)
    assert np.count_nonzero(mags > 1e-4 * mags.max()) > 140
    assert snr_db(x, unfit) < 60.0


def test_rank_deficient_matrix_is_rejected():
    A = np.array([[1.0, 2.0, 3.0, 0.0], [2.0, 4.0, 6.0, 0.0]])
    with pytest.raises(RankDeficientError):
        solve(DenseMatrix(A), np.array([1.0, 2.0]), np.ones(4), SolverConfig(p=0.5))


def _count_svds(monkeypatch) -> list[str]:
    """Record the name of each np.linalg.svd and np.linalg.qr call."""
    calls = []
    for name in ("svd", "qr"):
        def counted(*args, name=name, factor=getattr(np.linalg, name), **kwargs):
            calls.append(name)
            return factor(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_dense_matrix_takes_one_svd_for_every_solve(monkeypatch):
    A, _, y = _sparse_instance(N=30, n=15, k=3, seed=17)
    cfg = SolverConfig(p=0.5)
    weights = [np.ones(30), np.where(np.arange(30) < 5, 0.3, 1.0)]
    fresh = [solve(DenseMatrix(A), y, w, cfg)[0] for w in weights]

    calls = _count_svds(monkeypatch)
    op = DenseMatrix(A)
    shared = [solve(op, y, w, cfg)[0] for w in weights]
    # one QR of A^T and the singular values of its R
    assert sorted(calls) == ["qr", "svd"]
    for got, want in zip(shared, fresh):
        assert np.array_equal(got.entries, want.entries)


def test_rank_deficient_dense_matrix_takes_one_svd(monkeypatch):
    rng = np.random.default_rng(31)
    A = rng.standard_normal((4, 10))
    A[3] = A[1]
    calls = _count_svds(monkeypatch)
    op = DenseMatrix(A)
    for _ in range(3):
        with pytest.raises(RankDeficientError, match="sensing matrix is rank deficient"):
            solve(op, np.ones(4), np.ones(10), SolverConfig(p=0.5))
    assert sorted(calls) == ["qr", "svd"]


@pytest.mark.parametrize("kind", ["dense", "dense-ill-conditioned", "dct"])
def test_projector_parts_pull_back_and_project(kind):
    rng = np.random.default_rng(19)
    if kind == "dense":
        A, _, y = _sparse_instance(N=20, n=10, k=2, seed=19)
        op = DenseMatrix(A)
    elif kind == "dense-ill-conditioned":
        # singular values from 1 down to 1e-6
        A, y, _ = _conditioned_instance(1e6, 19)
        op = DenseMatrix(A)
    else:
        rows = tuple(int(i) + 1 for i in np.sort(rng.choice(20, size=10, replace=False)))
        op = RestrictedTransform(rows=rows, size=20)
        y = rng.standard_normal(10)
    project, pull_back = op.project_null, op.pull_back
    dense = op.as_dense()
    # pinv(A) y is a feasible start
    assert np.allclose(op.apply(pull_back(y)), y, atol=1e-10)
    assert np.allclose(pull_back(y), np.linalg.pinv(dense) @ y, atol=1e-10)
    d = rng.standard_normal(op.shape[1])
    pd = project(d)
    # the projected direction lies in null(A), and projecting it again
    # leaves it where it is
    assert np.max(np.abs(op.apply(pd))) < 1e-10
    assert np.allclose(project(pd), pd, atol=1e-10)
    # and it is the orthogonal projection, d - pinv(A) A d
    assert np.allclose(pd, d - np.linalg.pinv(dense) @ (dense @ d), atol=1e-10)


def test_dense_projector_builds_no_n_by_n_array():
    # a 3000 x 3000 float64 array would take 72 MB; the projector needs
    # only the 3000 x 5 Q of A^T = Q R
    A = DenseMatrix(np.random.default_rng(31).standard_normal((5, 3000)))
    tracemalloc.start()
    try:
        A.project_null(np.ones(3000))
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


def test_noise_bound_is_refused():
    A, _, y = _sparse_instance(N=16, n=8, k=2, seed=29)
    with pytest.raises(ValueError, match="epsilon=0.5"):
        solve(DenseMatrix(A), Measurements(y=y, epsilon=0.5), np.ones(16), SolverConfig(p=0.5))


def test_non_finite_objective_raises_naming_its_iteration(monkeypatch):
    A, _, y = _sparse_instance(N=16, n=8, k=2, seed=29)
    objective = _kernels.smoothed_objective_raw
    calls = []

    def blows_up_at_iteration_3(x, wp, p, sigma):
        calls.append(None)
        f0, g = objective(x, wp, p, sigma)
        return (math.inf if len(calls) == 3 else f0), g

    monkeypatch.setattr(_kernels, "smoothed_objective_raw", blows_up_at_iteration_3)
    with pytest.raises(SolverDivergenceError, match="^objective became non-finite at iteration 3$"):
        solve(DenseMatrix(A), y, np.ones(16), SolverConfig(p=0.5))


def test_measurements_object_accepted():
    A, _, y = _sparse_instance(N=16, n=8, k=2, seed=29)
    got_arr, _ = solve(DenseMatrix(A), y, np.ones(16), SolverConfig(p=0.5))
    got_obj, _ = solve(DenseMatrix(A), Measurements(y=y), np.ones(16), SolverConfig(p=0.5))
    assert np.array_equal(got_arr.entries, got_obj.entries)
