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
    return float((wp * (x * x + sigma * sigma) ** (0.5 * p)).sum())


def smoothed_gradient_raw(x, wp, p, sigma) -> np.ndarray:
    return p * wp * (x * x + sigma * sigma) ** (0.5 * p - 1.0) * x


def backtrack_raw(x, pd, wp, p, sigma, f0, shrink, max_backtracks) -> tuple[float, float]:
    """First step shrink**j, j < max_backtracks, whose objective is finite
    and below f0, with that objective; (0.0, f0) when none is.

    The trial points x + shrink**j pd are evaluated as the rows of a
    block.  Every h(z) = (z^2 + sigma^2)^(p/2) has h'' <= p sigma^(p-2)
    when p <= 1, so along pd the objective's curvature is at most
    L = p sigma^(p-2) sum_i wp_i pd_i^2.  When pd is the orthogonally
    projected negative gradient, g . pd = -||pd||^2, and by the descent
    lemma every step below 2 ||pd||^2 / L lowers the objective.  The
    first block therefore ends at the first step below that bound.  The
    remaining steps form a second block, evaluated only when no row of
    the first is accepted (through rounding, or for a direction that is
    not a projected gradient).  Each row repeats the arithmetic of
    evaluating its step alone, so the result is the sequential search's.
    """
    # shrink**j by repeated multiplication, as step *= shrink gives it
    steps = np.full(max_backtracks, shrink)
    steps[0] = 1.0
    np.cumprod(steps, out=steps)
    # 2 ||pd||^2 / L, with sigma^(2-p) in the numerator so that a small
    # sigma cannot overflow it; no curvature at all bounds nothing
    curv = p * float((wp * pd).dot(pd))
    bound = 2.0 * float(pd.dot(pd)) * sigma ** (2.0 - p) / curv if curv > 0.0 else math.inf
    split = min(int(np.count_nonzero(steps >= bound)) + 1, max_backtracks)
    for block in (steps[:split], steps[split:]):
        # wp * ((x + step pd)^2 + sigma^2)^(p/2) row by row, in place: the
        # same values (sums and products commute exactly) with one block
        # array instead of six, whose allocation outweighs the rows at N=2048
        trial = block[:, None] * pd
        trial += x
        trial *= trial
        trial += sigma * sigma
        trial **= 0.5 * p
        trial *= wp
        f = trial.sum(axis=1)
        hits = np.flatnonzero(np.isfinite(f) & (f < f0))
        if hits.size:
            return float(block[hits[0]]), float(f[hits[0]])
    return 0.0, f0


# No caller in the package; the benchmark tracer binds it.
def indicator_max_raw(x, w, sigma, coef) -> float:
    ind = coef * np.abs(x)
    below = ind < w * sigma
    if not below.any():
        return -1.0
    return float(ind[below].max())
