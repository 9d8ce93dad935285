"""Hot numeric kernels of the solver, in plain numpy.

All kernels take plain float64 arrays.  ``wp`` is the elementwise
weight raised to the p-th power, precomputed by the caller.  The solver
calls them as ``_kernels.<name>`` so that a profiler can rebind them.
``backtrack_raw`` is the line search: the first of the steps 1, shrink,
shrink^2, ... along the direction it is given whose objective falls
below a reference value.
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
    return float((wp * (x * x + sigma * sigma) ** (0.5 * p)).sum())


# Bound at import, for backtrack_raw.
_objective = smoothed_objective_raw


def smoothed_gradient_raw(x, wp, p, sigma) -> np.ndarray:
    return p * wp * (x * x + sigma * sigma) ** (0.5 * p - 1.0) * x


def backtrack_raw(x, pd, wp, p, sigma, f0, shrink, max_backtracks) -> tuple[float, float]:
    """First step shrink**j, j < max_backtracks, whose objective at
    x + shrink**j pd is finite and below f0, with that objective;
    (0.0, f0) when none is.

    The steps are tried in order, one objective evaluation each.  Each
    is computed through _objective, not the smoothed_objective_raw
    attribute, so that a profiler rebinding that attribute counts the
    evaluations of a search once, as this call.
    """
    step = 1.0
    for _ in range(max_backtracks):
        f = _objective(x + step * pd, wp, p, sigma)
        if math.isfinite(f) and f < f0:
            return step, f
        step *= shrink
    return 0.0, f0


# No caller in the package; the benchmark tracer binds it.
def indicator_max_raw(x, w, sigma, coef) -> float:
    ind = coef * np.abs(x)
    below = ind < w * sigma
    if not below.any():
        return -1.0
    return float(ind[below].max())
