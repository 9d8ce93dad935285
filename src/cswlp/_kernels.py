"""Hot numeric kernels of the solver, in plain numpy.

All kernels take plain float64 arrays.  ``wp`` is the elementwise
weight raised to the p-th power, precomputed by the caller.  The solver
calls them as ``_kernels.<name>`` so that a profiler can rebind them.
``smoothed_objective_raw`` gives the smoothed objective's value and
gradient from one power; ``smoothed_value_raw`` gives the value alone,
for the trial steps of ``backtrack_raw``.  ``backtrack_raw`` is the line
search: the first of the steps 1, shrink, shrink^2, ... along the
direction it is given whose objective falls below a reference value.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "get_backend",
    "smoothed_objective_raw",
    "smoothed_value_raw",
    "smoothed_gradient_raw",
    "backtrack_raw",
    "indicator_max_raw",
]


def get_backend() -> str:
    """Name of the kernel implementation, recorded by benchmark runs."""
    return "numpy"


def smoothed_objective_raw(x, wp, p, sigma) -> tuple[float, np.ndarray]:
    """Value sum wp (x^2 + sigma^2)^(p/2) and gradient
    p wp (x^2 + sigma^2)^(p/2 - 1) x, from one power r = u^(p/2) of
    u = x^2 + sigma^2: the gradient is p wp (r / u) x."""
    u = x * x + sigma * sigma
    r = u ** (0.5 * p)
    return float(wp.dot(r)), p * wp * (r / u) * x


def smoothed_value_raw(x, wp, p, sigma) -> float:
    """The value of smoothed_objective_raw alone, by the same operations,
    so the two agree bit for bit."""
    u = x * x + sigma * sigma
    return float(wp.dot(u ** (0.5 * p)))


def smoothed_gradient_raw(x, wp, p, sigma) -> np.ndarray:
    return smoothed_objective_raw(x, wp, p, sigma)[1]


def backtrack_raw(x, pd, wp, p, sigma, f0, shrink, max_backtracks) -> tuple[float, float]:
    """First step shrink**j, j < max_backtracks, whose objective at
    x + shrink**j pd is finite and below f0, with that objective;
    (0.0, f0) when none is.

    The steps are tried in order, one smoothed_value_raw evaluation
    each, so a profiler that rebinds smoothed_objective_raw counts the
    evaluations of a search once, as this call.
    """
    step = 1.0
    for _ in range(max_backtracks):
        f = smoothed_value_raw(x + step * pd, wp, p, sigma)
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
