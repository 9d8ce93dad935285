import math
import os
import subprocess
import sys

import numpy as np
import pytest

import cswlp
from cswlp import _kernels


def _draws(count=25, N=24, seed=5):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        x = rng.standard_normal(N) * rng.uniform(0.1, 5.0)
        w = np.where(rng.random(N) < 0.4, rng.uniform(0.0, 1.0), 1.0)
        p = rng.uniform(0.1, 1.0)
        sigma = rng.uniform(1e-3, 10.0)
        yield x, w, p, sigma


def reference_backtrack(x, pd, wp, p, sigma, f0, shrink, max_backtracks):
    """The sequential search backtrack_raw must reproduce: one objective
    evaluation per trial step, from step 1, multiplying by shrink after
    each rejection."""
    step = 1.0
    for _ in range(max_backtracks):
        f_try = _kernels.smoothed_objective_raw(x + step * pd, wp, p, sigma)
        if math.isfinite(f_try) and f_try < f0:
            return step, f_try
        step *= shrink
    return 0.0, f0


def _projected_descent(x, wp, p, sigma, Q):
    """Negative gradient projected onto the null space of a matrix whose
    row space has the orthonormal basis Q, as the solver forms its
    direction."""
    g = _kernels.smoothed_gradient_raw(x, wp, p, sigma)
    return -(g - Q @ (Q.T @ g))


def test_backtrack_returns_first_decreasing_step():
    rng = np.random.default_rng(9)
    accepted, rejected, past_overflow = set(), 0, 0
    for N in (1, 10, 500, 2048):
        # row space of a random N/2 x N matrix
        Q, _ = np.linalg.qr(rng.standard_normal((N, N // 2)))
        for _ in range(6):
            x = rng.standard_normal(N) * rng.uniform(0.1, 5.0)
            x[rng.random(N) < 0.6] *= 1e-4
            w = np.where(rng.random(N) < 0.4, rng.uniform(0.0, 1.0), 1.0)
            p = float(rng.choice([0.5, 1.0, rng.uniform(0.1, 1.0)]))
            sigma = float(10.0 ** rng.uniform(-9.0, 1.0))
            wp = w**p
            f0 = _kernels.smoothed_objective_raw(x, wp, p, sigma)
            g = _kernels.smoothed_gradient_raw(x, wp, p, sigma)
            pd = _projected_descent(x, wp, p, sigma, Q)
            # projected descent, uphill, too long for a unit step, noisy
            # (the last three break the bound and reach the second block),
            # and no direction at all
            directions = (pd, g, -100.0 * g, -g + 0.01 * rng.standard_normal(N), np.zeros(N))
            # a direction whose first rows overflow to inf, from a point
            # large enough that a later row can still be accepted
            big = x * 1e150
            f0_big = _kernels.smoothed_objective_raw(big, wp, p, sigma)
            pd_big = _projected_descent(big, wp, p, sigma, Q)
            pd_big *= 1e156 / np.abs(pd_big).max()
            for shrink in (0.5, 0.7, 0.3):
                for max_backtracks in (1, 8, 30):
                    for d in directions:
                        args = (x, d, wp, p, sigma, f0, shrink, max_backtracks)
                        expected = reference_backtrack(*args)
                        assert _kernels.backtrack_raw(*args) == expected
                        if expected[0] > 0.0:
                            accepted.add(round(math.log(expected[0]) / math.log(shrink)))
                        else:
                            rejected += 1
                    args = (big, pd_big, wp, p, sigma, f0_big, shrink, max_backtracks)
                    with pytest.warns(RuntimeWarning, match="overflow"):
                        expected = reference_backtrack(*args)
                    with pytest.warns(RuntimeWarning, match="overflow"):
                        assert _kernels.backtrack_raw(*args) == expected
                    past_overflow += expected[0] > 0.0
    # unit steps, long searches and rejections all occur
    assert 0 in accepted and max(accepted) >= 10
    assert rejected > 0 and past_overflow > 0


def test_indicator_max_matches_brute_force():
    for x, w, p, sigma in _draws(count=15, seed=11):
        coef = float(np.sqrt(1.0 - p) / (1.0 - np.sqrt(p)))
        below = [coef * abs(xi) for xi, wi in zip(x, w) if coef * abs(xi) < wi * sigma]
        expected = max(below) if below else -1.0
        assert _kernels.indicator_max_raw(x, w, sigma, coef) == expected


def test_indicator_max_empty_candidate_set_is_sentinel():
    # indicators all above w*sigma: no candidate qualifies
    x = np.array([10.0, 20.0])
    w = np.ones(2)
    coef = float(np.sqrt(0.5) / (1.0 - np.sqrt(0.5)))
    assert _kernels.indicator_max_raw(x, w, 1e-6, coef) == -1.0


def test_import_ignores_backend_environment_variable():
    # a backend variable left in the environment, naming a package that
    # is not installed, must not stop the import
    src = os.path.dirname(os.path.dirname(cswlp.__file__))
    env = dict(os.environ, CSWLP_BACKEND="numba", PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", "import cswlp"], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_backtracking_rejects_when_no_decrease_possible():
    # uphill direction from a minimum: every trial step increases f
    x = np.zeros(3)
    w = np.ones(3)
    p = 0.5
    wp = w**p
    f0 = _kernels.smoothed_objective_raw(x, wp, p, 1.0)
    pd = np.ones(3)
    step, f_new = _kernels.backtrack_raw(x, pd, wp, p, 1.0, f0, 0.5, 8)
    assert step == 0.0
    assert f_new == f0
