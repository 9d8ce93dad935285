"""Hot numeric kernels of the solver, in plain numpy.

All kernels take plain float64 arrays.  ``wp`` is the elementwise
weight raised to the p-th power, precomputed by the caller.  The solver
calls them as ``_kernels.<name>`` so that a profiler can rebind them.
``smoothed_objective_raw`` gives the smoothed objective's value and
gradient from one power.  ``backtrack_raw`` is the line search: the
first of the steps 1, shrink, shrink^2, ... along the direction it is
given whose objective falls below a reference value.  It evaluates the
first step alone, which most searches accept, and the later ones in
blocks of 2, 4, 8, ... steps, one array pass per block.  Every trial
value is formed by the elementwise operations and the dot product of
``smoothed_objective_raw``'s value, in the same order, so it equals
that value bit for bit and the result is that of trying the steps one
by one.  Beside these two kernels the module holds only names that
the benchmark reads (listed at its end).
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

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


@cache
def _step_table(shrink: float, max_backtracks: int) -> np.ndarray:
    """The steps 1, shrink, shrink^2, ... of a search, each the previous
    times shrink as the sequential search forms them, as a read-only
    (max_backtracks, 1) column."""
    steps = [1.0]
    for _ in range(max_backtracks - 1):
        steps.append(steps[-1] * shrink)
    table = np.array(steps).reshape(-1, 1)
    table.flags.writeable = False
    return table


def backtrack_raw(x, pd, wp, p, sigma, f0, shrink, max_backtracks) -> tuple[float, float]:
    """First step shrink**j, j < max_backtracks, whose objective at
    x + shrink**j pd is finite and below f0, with that objective;
    (0.0, f0) when none is.  max_backtracks must be >= 1.

    Step 1 is evaluated alone, in place on x + pd.  The later steps go
    in blocks of 2, 4, 8, ... rows (2, 4, 8 and 15 of 30), each block
    one in-place pass x + s pd, its square, + sigma^2 and the power;
    then each row's value is wp.dot of that row, taken in order, so the
    values, and the step accepted, are those of evaluating the steps one
    by one.  Once a row is accepted, the rest of its block is discarded:
    a counter that derives evaluations from the returned step (as a
    profiler that rebinds this function may) counts the rows up to the
    accepted one, while the search computed fewer than twice as many.
    The discarded rows lie between x and the accepted point, so they
    overflow only where evaluating x itself would.
    """
    exponent, sigma_sq = 0.5 * p, sigma * sigma
    # x + 1.0 pd is x + pd, bit for bit
    u = x + pd
    u *= u
    u += sigma_sq
    u **= exponent
    f = float(wp.dot(u))
    if math.isfinite(f) and f < f0:
        return 1.0, f
    steps = _step_table(shrink, max_backtracks)
    lo, size = 1, 2
    while lo < max_backtracks:
        hi = min(lo + size, max_backtracks)
        u = steps[lo:hi] * pd
        u += x
        u *= u
        u += sigma_sq
        u **= exponent
        for j in range(hi - lo):
            f = float(wp.dot(u[j]))
            if math.isfinite(f) and f < f0:
                return float(steps[lo + j, 0]), f
        lo, size = hi, 2 * size
    return 0.0, f0


# Kept only for perfbench/, and deleted with the benchmark change of
# ROADMAP direction 4: get_backend, which its harness calls, and these
# two names, which its tracer rebinds and nothing calls.
smoothed_gradient_raw = None
indicator_max_raw = None
