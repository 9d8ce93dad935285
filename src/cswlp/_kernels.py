"""Hot numeric kernels of the solver, in plain numpy.

All kernels take plain float64 arrays.  ``wp`` is the elementwise
weight raised to the p-th power, precomputed by the caller.  The solver
calls them as ``_kernels.<name>`` so that a profiler can rebind them.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "get_backend",
    "smoothed_objective_raw",
    "smoothed_gradient_raw",
    "backtrack_raw",
    "indicator_max_raw",
]


def get_backend() -> str:
    """Name of the kernel implementation, recorded by benchmark runs."""
    return "numpy"


def smoothed_objective_raw(x, wp, p, sigma) -> float:
    return float(np.sum(wp * (x * x + sigma * sigma) ** (0.5 * p)))


# backtrack_raw evaluates through this private name, so rebinding the
# public one (as a profiler does) leaves its inner evaluations untimed.
_objective = smoothed_objective_raw


def smoothed_gradient_raw(x, wp, p, sigma) -> np.ndarray:
    return p * wp * (x * x + sigma * sigma) ** (0.5 * p - 1.0) * x


def backtrack_raw(x, pd, wp, p, sigma, f0, shrink, max_backtracks) -> tuple[float, float]:
    """First step shrink**j, j < max_backtracks, whose objective is finite
    and below f0, with that objective; (0.0, f0) when none is."""
    step = 1.0
    for _ in range(max_backtracks):
        f_try = _objective(x + step * pd, wp, p, sigma)
        if math.isfinite(f_try) and f_try < f0:
            return step, f_try
        step *= shrink
    return 0.0, f0


# No caller in the package; the benchmark tracer binds it.
def indicator_max_raw(x, w, sigma, coef) -> float:
    ind = coef * np.abs(x)
    below = ind < w * sigma
    if not below.any():
        return -1.0
    return float(ind[below].max())
