"""Projected-gradient solver for smoothed weighted lp minimization.

Minimizes sum_i w_i^p (x_i^2 + sigma^2)^(p/2) / p over the affine set
{x : A x = b} while the smoothing level sigma is lowered toward zero.
Dividing by p moves no minimizer and takes p out of the gradient, so
steps keep their scale as p -> 0, where the objective tends, up to a
constant, to the log-sum penalty of Candes, Wakin & Boyd (J. Fourier
Anal. Appl. 2008).  Each iteration takes the objective and its gradient
g from one power of x_i^2 + sigma^2, projects -g onto the null space of A,
pd = -(g - pinv(A) A g), as the operator computes it (``project_null``;
-(g - Q Q^T g) for a dense A, with Q the orthonormal basis of its row
space from the QR A^T = Q R), and searches along pd by spectral
projected gradient (Birgin, Martinez & Raydan, "Nonmonotone spectral
projected gradient methods on convex sets", SIAM J. Optim. 2000).  The
first trial step is the Barzilai-Borwein length (IMA J. Numer. Anal.
1988) lambda = s.s / s.y with s = x - x_prev and y = pd_prev - pd,
clipped to at most 1; it is 1 on a run's first iteration and whenever
s.y <= 0.  The memory (x_prev, pd_prev) carries over from one sigma
level to the next.  The search then shrinks lambda pd by _STEP_SHRINK,
at most _MAX_BACKTRACKS times, until the objective falls below the
largest objective of the last _NONMONOTONE iterations at the current
sigma level (Grippo, Lampariello & Lucidi, SIAM J. Numer. Anal. 1986),
so the objective need not fall at every iteration.

Sigma starts at _SIGMA_INIT.  It is held until the iterate has settled
at the current level, and is then multiplied by _SIGMA_DECAY, as in the
fixed continuation schedule of Chartrand & Yin, "Iteratively reweighted
algorithms for compressive sensing" (ICASSP 2008).  The level has
settled when every trial step is rejected, after _LEVEL_ITERS
iterations, or when min(1, t_L) ||pd|| / ||x|| falls below
sqrt(sigma) / 100.  Here t_L = 2 ||pd||^2 / L, with
L = sigma^(p-2) sum_i w_i^p pd_i^2 the curvature bound of the
objective along pd, is a step that the descent lemma
guarantees to lower the objective; the test reads it rather than the
step taken, which a short spectral step would make fire early.  A run
ends when sigma falls to _SIGMA_FLOOR, at a stationary point, or when
the _MAX_ITERS iterations of the solve run out.

Each step lies in the null space of A, so an iterate leaves the affine
set only by rounding, about eps ||A||_2 ||x||.  A point fits A x = b when
its normwise backward error ||A x - b|| / (||A||_2 ||x|| + ||b||) is at
most feasibility_tol (``core._fits``); rounding keeps that at any
condition number.  The residual ||A x - b|| is measured on each run's
first and last iterations only, and a returned point that fails the
rule is pulled back onto the set by x - pinv(A) (A x - b).

The first run starts at the minimum-norm point pinv(A) b.  When p < 1,
the null space of A is not empty but smaller than the measurement count
(n < N < 2 n), and the result is not certified sparse (more than n/2
entries above 1e-4 of the largest one), up to _RESTARTS more runs start
from pinv(A) b plus a random null-space vector, at a small sigma, until
the best result is certified sparse.  In a null space that small a
random start often reaches a lower objective; in a larger one, as in an
audio block (1536 against n = 512) or a sweep instance (300-400 against
100-200), no restart was seen to, and restarts only spent the
iterations the first run left.  They draw from a generator built at the
first restart by the one seed rule, _stream(_RESTART_SEED), never from global
state, and spend only the iterations left of _MAX_ITERS.  A run result
with at most n entries above 1e-4 of the largest is replaced by the
least-squares fit of b on those entries when that fit is feasible and
has no larger objective; this removes the residue a finite sigma leaves
off the support.  A result with more than n such entries is fit on its
n/2 largest instead: a run that ends before the residue off a sparse
support has fallen below 1e-4 of the largest entry still yields that
support.  Where N >= 2 n, that refit is tried only when the n/2 largest
alone leave a residual below _HEAD_REL ||b||, which skips a fit that
cannot be feasible on a compressible result.  When the fit's own support
is smaller, it is fit again on that support, so a result does not keep
rounding-level entries on columns the first fit left near zero.  The
solve returns the result with the lowest weighted lp objective
sum_i w_i^p |x_i|^p.  The names that only the benchmark reads are
listed above SolverConfig.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import _kernels
from .core import (
    SensingOperator,
    SignalVector,
    SolverDivergenceError,
    _FEASIBILITY_TOL,
    _SNR_CAP_DB,
    _check_fields,
    _exact_fit,
    _fits,
    _largest,
    _signal_array,
    _stream,
    _weighted_lp_sum,
    _weights_array,
    check_domain,
)

__all__ = [
    "SolverConfig",
    "SolverTrace",
    "smoothed_objective",
    "smoothed_gradient",
    "solve",
]

# The iteration bound, sigma schedule and line search of the module docstring.
_MAX_ITERS = 500
_SIGMA_INIT = 10.0
_SIGMA_DECAY = 0.7
_SIGMA_FLOOR = 1e-9
_STEP_SHRINK = 0.5
_MAX_BACKTRACKS = 30

# A sigma level has settled once min(1, t_L) ||pd|| / ||x|| falls below
# this times sqrt(sigma), or after _LEVEL_ITERS iterations.
_SETTLE_REL = 1e-2
_LEVEL_ITERS = 20

# A trial step is accepted below the largest objective of this many
# latest iterations at the current sigma level.
_NONMONOTONE = 5

# Restarts from random feasible points, taken while the best result is
# not certified sparse, and only when p < 1 and n < N < 2 n: in a null
# space of n or more dimensions no random start was seen to reach a
# lower objective.  Each starts at pinv(A) b plus a null-space vector
# _RESTART_SCALE times as long as pinv(A) b, at smoothing level
# _RESTART_SIGMA.
_RESTARTS = 3
_RESTART_SEED = 20080331
_RESTART_SCALE = 5.0
_RESTART_SIGMA = 1e-2

# Entries above this fraction of the largest one count as the support.
_SUPPORT_REL = 1e-4

# Where N >= 2 n, a result with more than n support entries is refit on
# its n/2 largest only when those alone leave a residual below this
# fraction of ||b||.
_HEAD_REL = 1e-2

# Kept only for perfbench/ until ROADMAP direction 4 deletes them: its
# tracer rebinds _projector_parts (here, in experiments and in audio),
# which nothing calls, and it reads all three ClassVars of SolverConfig.
_projector_parts = None


@dataclass(frozen=True)
class SolverConfig:
    """The exponent ``p``; the iteration bound, sigma schedule and line
    search are module constants.  ``max_iters``, ``feasibility_tol`` and
    ``snr_cap_db`` are _MAX_ITERS and core's _FEASIBILITY_TOL and
    _SNR_CAP_DB, read only by the benchmark."""

    p: float
    max_iters: ClassVar[int] = _MAX_ITERS
    feasibility_tol: ClassVar[float] = _FEASIBILITY_TOL
    snr_cap_db: ClassVar[float] = _SNR_CAP_DB

    def __post_init__(self):
        _check_fields(self, "p")


@dataclass
class SolverTrace:
    """Per-iteration record of the first run, its stop reason, plus
    restart counts.

    The columns hold one row per iteration of the run that starts at
    pinv(A) b, so sigma never increases along them.  ``step`` is the
    accepted step lambda * shrink**j along the projected gradient, in
    (0, 1], and ``objective`` the smoothed objective over p there, the
    value the solver minimizes; under the nonmonotone acceptance it can
    rise from one row to the next at the same sigma.  ``step == 0``
    marks an iteration where every trial step was rejected and the
    iterate stayed put (sigma then moved to its next level).
    ``residual`` is ||A x - b|| at the row's iterate on the run's first
    and last rows, where it is measured, and NaN on every other row; it
    is never interpolated or filled in.  ``stop_reason`` says why that
    run ended: ``"sigma_floor"`` when sigma fell to _SIGMA_FLOOR,
    ``"stationary"`` when the gradient vanished, or ``"max_iters"`` when
    its iterations ran out first.  The trace keeps no restart's rows;
    ``restart_iters`` holds the iterations each one ran, in order.
    Restarts are taken only when p < 1, the null space of A is smaller
    than n, and the first result is not certified sparse (see the module
    docstring), so on most instances it is empty.
    ``len(trace)`` is the number of iterations the whole solve ran.
    """

    t: np.ndarray
    sigma: np.ndarray
    objective: np.ndarray
    step: np.ndarray
    residual: np.ndarray
    stop_reason: str
    restart_iters: tuple[int, ...] = ()

    # the per-iteration arrays, in the column order of the CLI's trace.csv
    COLUMNS = ("t", "sigma", "objective", "step", "residual")

    def __len__(self) -> int:
        return int(self.t.shape[0]) + sum(self.restart_iters)


def _smoothed(x, w, p: float, sigma: float) -> tuple[float, np.ndarray]:
    """The kernel's (value, gradient), with x, w, p and sigma each read by its reader."""
    [p], [sigma] = check_domain(p=[p], sigma=[sigma]).values()
    xa = _signal_array(x)
    return _kernels.smoothed_objective_raw(xa, _weights_array(w, xa.shape[0]) ** p, p, sigma)


def smoothed_objective(x, w, p: float, sigma: float) -> float:
    """Value of sum_i w_i^p (x_i^2 + sigma^2)^(p/2), which ``solve`` divides by p."""
    return _smoothed(x, w, p, sigma)[0]


def smoothed_gradient(x, w, p: float, sigma: float) -> np.ndarray:
    """Gradient p w_i^p (x_i^2 + sigma^2)^(p/2 - 1) x_i of the smoothed objective."""
    return _smoothed(x, w, p, sigma)[1]


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float array, computed as np.linalg.norm
    computes it, without that function's call overhead."""
    return math.sqrt(v.dot(v))


def solve(
    A: SensingOperator,
    b,
    w,
    cfg: SolverConfig,
) -> tuple[SignalVector, SolverTrace]:
    """Run the smoothed projected-gradient iteration.

    Parameters
    ----------
    A : sensing operator (dense matrix or restricted transform)
    b : Measurements with epsilon 0, or array_like measurement vector
    w : WeightVector or array_like weights in [0, 1]
    cfg : SolverConfig

    Returns
    -------
    (SignalVector, SolverTrace)

    The returned point is the run result with the lowest weighted lp
    objective; the trace records the first run (see SolverTrace).
    The returned x fits A x = b: its normwise backward error
    ||A x - b|| / (||A||_2 ||x|| + ||b||) is at most cfg.feasibility_tol
    (``core._fits``).  A non-finite objective raises
    SolverDivergenceError; a rank-deficient A raises RankDeficientError.
    ``core._exact_fit``, the reader of (A, b) in the oracles too,
    refuses an A that is neither operator, epsilon > 0, a non-finite b
    or a b of the wrong length, and ``core._weights_array`` non-finite
    weights, each by a ValueError naming ``solve``.
    """
    y, y_norm = _exact_fit(A, b, "solve")
    n, N = A.shape
    w_arr = _weights_array(w, N, "solve: weights")
    a_norm = A._norm2
    p = cfg.p
    wp = w_arr**p / p

    project, pull_back = A.project_null, A.pull_back
    x0 = pull_back(y)

    # a null space that is not empty but smaller than n: there random
    # restarts can reach a lower objective, and the n/2-largest refit
    # runs without its residual screen
    explore = n < N < 2 * n

    def descend(x, sigma, budget):
        """Run at most ``budget`` iterations from x at smoothing level
        sigma; returns the last x, one trace row per iteration run and
        why it stopped (see SolverTrace)."""
        rows: list[tuple[int, float, float, float, float]] = []
        at_level = 0
        recent = deque(maxlen=_NONMONOTONE)
        x_prev = pd_prev = None
        for t in range(1, budget + 1):
            f0, g = _kernels.smoothed_objective_raw(x, wp, p, sigma)
            if not math.isfinite(f0):
                raise SolverDivergenceError(f"objective became non-finite at iteration {t}")

            if not np.count_nonzero(g):
                # stationary at every smoothing level: only zero entries carry
                # nonzero weight, so the iterate never moves again
                rows.append((t, sigma, f0, 0.0, _norm(A.apply(x) - y)))
                return x, rows, "stationary"

            pd = project(-g)
            lam = 1.0
            if x_prev is not None:
                s = x - x_prev
                sy = float(s.dot(pd_prev - pd))
                if sy > 0.0:
                    lam = min(1.0, float(s.dot(s)) / sy)
            x_prev, pd_prev = x, pd
            recent.append(f0)
            d = lam * pd
            step, f_new = _kernels.backtrack_raw(
                x, d, wp, p, sigma, max(recent), _STEP_SHRINK, _MAX_BACKTRACKS
            )
            x_new = x + step * d

            # t_L = 2 ||pd||^2 / L, with sigma^(2-p) in the numerator so
            # that a small sigma cannot overflow it; with no curvature at
            # all it is infinite, and min(1, t_L) is 1
            pd_sq = float(pd.dot(pd))
            curv = p * float((wp * pd).dot(pd))
            bound = 2.0 * pd_sq * sigma ** (2.0 - p) / curv if curv > 0.0 else 1.0
            rel = min(1.0, bound) * math.sqrt(pd_sq) / max(_norm(x), 1e-30)
            at_level += 1
            settled = step == 0.0 or rel <= _SETTLE_REL * math.sqrt(sigma) or at_level >= _LEVEL_ITERS
            at_floor = settled and sigma * _SIGMA_DECAY <= _SIGMA_FLOOR

            res = _norm(A.apply(x_new) - y) if t == 1 or at_floor or t == budget else math.nan
            rows.append((t, sigma, f_new if step > 0.0 else f0, lam * step, res))

            x = x_new
            if settled:
                sigma *= _SIGMA_DECAY
                at_level = 0
                recent.clear()
                if at_floor:
                    return x, rows, "sigma_floor"
        return x, rows, "max_iters"

    def support(x) -> np.ndarray:
        mags = np.abs(x)
        return np.flatnonzero(mags > _SUPPORT_REL * mags.max())

    def fit(cols) -> np.ndarray:
        """Least-squares fit of b on the columns ``cols``, zero elsewhere."""
        z = np.zeros(N)
        z[cols] = np.linalg.lstsq(A.columns(cols), y, rcond=None)[0]
        return z

    def finish(x) -> tuple[np.ndarray, float]:
        """A run result, refit on its support when that helps, and its
        weighted lp objective."""
        value = float(_weighted_lp_sum(wp, x, p))
        cols = support(x)
        if cols.size > n:
            # not sparse: fit its n/2 largest entries instead; where the
            # null space is at least n, only when they alone come within
            # _HEAD_REL of b
            cols, head = _largest(x, n // 2)
            if not explore and _norm(A.apply(head) - y) > _HEAD_REL * y_norm:
                return x, value
        if 0 < cols.size <= n:
            z = fit(cols)
            inner = support(z)
            if inner.size < cols.size:
                # the fit leaves rounding-level values on the columns it
                # sets to about zero; fitting on its own support drops them
                z = fit(inner)
            z_value = float(_weighted_lp_sum(wp, z, p))
            if _fits(A.apply(z) - y, z, a_norm, y_norm) and z_value <= value:
                return z, z_value
        return x, value

    x, rows, stop_reason = descend(x0, _SIGMA_INIT, _MAX_ITERS)
    used = len(rows)
    best, best_value = finish(x)
    restart_iters: list[int] = []
    # at p = 1 the problem is convex and a restart can only end where the
    # first run did
    if p < 1.0 and explore:
        while len(restart_iters) < _RESTARTS and used < _MAX_ITERS and 2 * support(best).size > n:
            if not restart_iters:
                rng = _stream(_RESTART_SEED)
                scale = _RESTART_SCALE * _norm(x0)
            z = project(rng.standard_normal(N))
            start = x0 + (scale / _norm(z)) * z
            x, restart_rows, _ = descend(start, _RESTART_SIGMA, _MAX_ITERS - used)
            used += len(restart_rows)
            restart_iters.append(len(restart_rows))
            x, value = finish(x)
            if value < best_value:
                best, best_value = x, value

    x = best
    r = A.apply(x) - y
    if not _fits(r, x, a_norm, y_norm):
        x = x - pull_back(r)

    # every run records at least one row
    t, sigma, objective, step, residual = zip(*rows)
    trace = SolverTrace(
        t=np.asarray(t, dtype=np.int64),
        sigma=np.asarray(sigma, dtype=np.float64),
        objective=np.asarray(objective, dtype=np.float64),
        step=np.asarray(step, dtype=np.float64),
        residual=np.asarray(residual, dtype=np.float64),
        stop_reason=stop_reason,
        restart_iters=tuple(restart_iters),
    )
    return SignalVector(x), trace
