import os
import subprocess
import sys

import numpy as np

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


def test_backtrack_returns_first_decreasing_step():
    rng = np.random.default_rng(9)
    for x, w, p, sigma in _draws(count=15, seed=10):
        wp = w**p
        g = _kernels.smoothed_gradient_raw(x, wp, p, sigma)
        f0 = _kernels.smoothed_objective_raw(x, wp, p, sigma)
        # descent, uphill, descent too long for a unit step, and noisy
        for pd in (-g, g, -100.0 * g, -g + 0.01 * rng.standard_normal(x.shape[0])):
            expected = (0.0, f0)
            for j in range(30):
                f_try = _kernels.smoothed_objective_raw(x + 0.5**j * pd, wp, p, sigma)
                if np.isfinite(f_try) and f_try < f0:
                    expected = (0.5**j, f_try)
                    break
            assert _kernels.backtrack_raw(x, pd, wp, p, sigma, f0, 0.5, 30) == expected


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
