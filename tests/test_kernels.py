import math
import os
import subprocess
import sys
import warnings

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


def _value(x, wp, p, sigma):
    """The smoothed objective's value, as smoothed_objective_raw gives it.
    Where x^2 overflows, its gradient's r / u is inf / inf, which the line
    search never forms, so only that warning is silenced."""
    with np.errstate(invalid="ignore"):
        return _kernels.smoothed_objective_raw(x, wp, p, sigma)[0]


def reference_backtrack(x, pd, wp, p, sigma, f0, shrink, max_backtracks):
    """The sequential search backtrack_raw must reproduce: one objective
    value per trial step, from step 1, multiplying by shrink after each
    rejection."""
    step = 1.0
    for _ in range(max_backtracks):
        f_try = _value(x + step * pd, wp, p, sigma)
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
            f0 = _kernels.smoothed_objective_raw(x, wp, p, sigma)[0]
            g = _kernels.smoothed_gradient_raw(x, wp, p, sigma)
            pd = _projected_descent(x, wp, p, sigma, Q)
            # projected descent, uphill, too long for a unit step, noisy,
            # and no direction at all
            directions = (pd, g, -100.0 * g, -g + 0.01 * rng.standard_normal(N), np.zeros(N))
            # a direction whose first rows overflow to inf, from a point
            # large enough that a later row can still be accepted
            big = x * 1e150
            f0_big = _kernels.smoothed_objective_raw(big, wp, p, sigma)[0]
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


def _warned(search, *args):
    """search(*args) and the distinct warnings it raised.  A block of
    trial steps raises a warning once for its array pass where the
    sequential search raises it once per step, so each is counted once."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = search(*args)
    return result, {(w.category, str(w.message)) for w in caught}


@pytest.mark.parametrize("N", [1, 10, 500, 2048])
def test_backtrack_blocks_match_the_sequential_search_at_every_boundary(N):
    # along d = -c x the objective at x + s d = (1 - s c) x falls below
    # f0 exactly when |1 - s c| < 1, so c = 1.5 2^j first accepts step
    # 0.5^j: the first and last rows of each block of 2, 4, 8 and 15
    # steps, and c = 1.5 2^30 rejects all 30
    rng = np.random.default_rng(73)
    for scale in (1.0, 1e152):
        # at 1e152 the rows far before the accepted one overflow their
        # square; the later rows of its block lie between x and the
        # accepted point, so they raise nothing the sequential search does not
        x = scale * rng.uniform(0.5, 2.0, N) * rng.choice([-1.0, 1.0], N)
        wp = rng.uniform(0.1, 1.0, N)
        p = float(rng.choice([0.5, 1.0, rng.uniform(0.1, 1.0)]))
        sigma = scale * float(rng.uniform(0.1, 2.0))
        f0 = _value(x, wp, p, sigma)
        for row in (0, 1, 2, 3, 6, 7, 14, 15, 29, 30):
            args = (x, -1.5 * 2.0**row * x, wp, p, sigma, f0, 0.5, 30)
            expected, expected_warnings = _warned(reference_backtrack, *args)
            assert expected[0] == (0.5**row if row < 30 else 0.0)
            got, got_warnings = _warned(_kernels.backtrack_raw, *args)
            assert got == expected
            assert got_warnings == expected_warnings
            if scale == 1.0 or row == 0:
                assert not got_warnings
            elif row >= 8:
                assert {str(message) for _, message in got_warnings} == {"overflow encountered in multiply"}


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


def test_backend_is_numpy():
    # the name each benchmark result records as its kernel backend
    assert _kernels.get_backend() == "numpy"


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
    f0 = _kernels.smoothed_objective_raw(x, wp, p, 1.0)[0]
    pd = np.ones(3)
    step, f_new = _kernels.backtrack_raw(x, pd, wp, p, 1.0, f0, 0.5, 8)
    assert step == 0.0
    assert f_new == f0
