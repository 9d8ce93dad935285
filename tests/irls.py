"""Iteratively reweighted least squares for weighted l1 minimization: a
reference decoder for the tests, not a second solver path.

It follows Daubechies, DeVore, Fornasier & Gunturk, "Iteratively
reweighted least squares minimization for sparse recovery", Comm. Pure
Appl. Math. 63 (2010).  At p = 1 the decoder is convex, so its result is
the decoder's minimizer, which the solver's tests can be held to.
"""

import numpy as np

# eps halves once a step moves x by less than this share of eps, or after
# _LEVEL_STEPS steps at one eps, and the run ends when eps falls below
# _EPS_STOP, so it ends within 37 _LEVEL_STEPS steps.  For an x of order
# 1, a step's rounding reaches about 1e-15, so below eps = 1e-12 the
# halving rule alone can stall.  Most instances take under 1,000 steps per
# level; one 6 x 10 instance whose minimizer has two of its six nonzeros
# below 1e-2 takes some 4,300 per level below eps = 1e-4, and its result
# is the minimizer with a cap of 1,000 steps per level but not with 700.
_STEP_REL = 1e-3
_EPS_STOP = 1e-11
_LEVEL_STEPS = 2_000

# the result is refit on its entries above this share of the largest
_SUPPORT_REL = 1e-6


def irls_weighted_l1(A: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """min sum_i w_i |x_i| subject to A x = b, for a full-row-rank A and
    weights w > 0.

    Each step minimizes sum_i x_i^2 / D_i over A x = b, with
    D = sqrt(x^2 + eps^2) / w: x <- D A^T (A D A^T)^-1 b, from the
    minimum-norm x and eps = 1.  The result is the least-squares fit of
    b on the last x's entries above _SUPPORT_REL of the largest, which
    puts the rounding-level entries off that support at zero.
    """
    x = np.linalg.lstsq(A, b, rcond=None)[0]
    eps, at_level = 1.0, 0
    while eps >= _EPS_STOP:
        d = np.sqrt(x * x + eps * eps) / w
        x_new = d * (A.T @ np.linalg.solve((A * d) @ A.T, b))
        at_level += 1
        if np.linalg.norm(x_new - x) < _STEP_REL * eps or at_level == _LEVEL_STEPS:
            eps, at_level = eps / 2.0, 0
        x = x_new
    mags = np.abs(x)
    cols = np.flatnonzero(mags > _SUPPORT_REL * mags.max())
    z = np.zeros_like(x)
    z[cols] = np.linalg.lstsq(A[:, cols], b, rcond=None)[0]
    return z
