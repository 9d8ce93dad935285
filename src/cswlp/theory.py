"""Closed-form recovery conditions and error constants.

Bounds are expressed through the restricted-isometry constants of the
sensing matrix: delta_ak for columns drawn ak at a time and
delta_(a+1)k for (a+1)k at a time.  The weighted decoders depend on the
weight omega applied on an estimated support of size rho*k whose
overlap with the true support is alpha.  Every function takes these
scalars in one order, a, p, omega, alpha, rho (the column order of
``cswlp theory``'s table), leaving out what it does not read, and checks
them, the (alpha, rho) pair included, with ``core.check_domain``.
Everything here is scalar arithmetic; grids are handled by the callers.
"""

from __future__ import annotations

import math

from .core import ConditionViolatedError, check_domain

__all__ = [
    "delta_hat_lp",
    "delta_hat_wl1",
    "delta_hat_wlp",
    "error_constants",
    "proposition2_check",
    "sufficient_condition_holds",
]

# proposition2_check's relative tolerance on "weighted equals unweighted"
_COMPARE_TOL = 1e-12


def _gamma(p: float, omega: float, alpha: float, rho: float) -> float:
    """omega^p + (1 - omega^p) (1 + rho - 2 alpha rho)^(1 - p/2)."""
    wp = omega**p
    return wp + (1.0 - wp) * (1.0 + rho - 2.0 * alpha * rho) ** (1.0 - 0.5 * p)


def _contrast(a: float, e: float, gamma: float, f: float) -> float:
    """(a^e - gamma^f) / (a^e + gamma^f) for a > 1, gamma >= 0 and e, f
    > 0.  Where a power leaves the float range, as at small p, it is the
    same value from the logs, tanh((e ln a - f ln gamma) / 2), in [-1, 1]
    (``math.pow`` raises on overflow for numpy scalars too)."""
    try:
        t, g = math.pow(a, e), math.pow(gamma, f)
    except OverflowError:
        return math.tanh(0.5 * (e * math.log(a) - (f * math.log(gamma) if gamma else -math.inf)))
    return (t - g) / (t + g)


def delta_hat_lp(a: float, p: float) -> float:
    """Largest delta_(a+1)k for which plain lp recovery is guaranteed,
    assuming delta_ak matches it: (a^(2/p-1) - 1) / (a^(2/p-1) + 1)."""
    check_domain(a=[a], p=[p])
    return _contrast(a, 2.0 / p - 1.0, 1.0, 1.0)


def delta_hat_wl1(a: float, omega: float, alpha: float, rho: float) -> float:
    """Weighted l1 threshold (a - gamma^2) / (a + gamma^2) with
    gamma = omega + (1 - omega) sqrt(1 + rho - 2 alpha rho)."""
    check_domain(a=[a], omega=[omega], alpha=[alpha], rho=[rho])
    g = omega + (1.0 - omega) * math.sqrt(1.0 + rho - 2.0 * alpha * rho)
    return (a - g * g) / (a + g * g)


def delta_hat_wlp(a: float, p: float, omega: float, alpha: float, rho: float) -> float:
    """Weighted lp threshold (a^(2/p-1) - gamma^(2/p)) / (a^(2/p-1) + gamma^(2/p))
    with gamma = omega^p + (1 - omega^p) (1 + rho - 2 alpha rho)^(1 - p/2)."""
    check_domain(a=[a], p=[p], omega=[omega], alpha=[alpha], rho=[rho])
    return _contrast(a, 2.0 / p - 1.0, _gamma(p, omega, alpha, rho), 2.0 / p)


def sufficient_condition_holds(
    a: float, p: float, omega: float, alpha: float, rho: float, delta_ak: float, delta_a1k: float
) -> bool:
    """Whether delta_ak + ratio * delta_(a+1)k < ratio - 1 with
    ratio = a^(2/p-1) / gamma^(2/p).

    It is exactly D > 0 for the denominator D of ``error_constants``, so
    it is read from that one computation: it holds exactly when those
    constants are defined."""
    try:
        error_constants(a, p, omega, alpha, rho, delta_ak, delta_a1k)
    except ConditionViolatedError:
        return False
    return True


def error_constants(
    a: float, p: float, omega: float, alpha: float, rho: float, delta_ak: float, delta_a1k: float
) -> tuple[float, float]:
    """Constants (C1, C2) in the recovery bound
    ||x_hat - x||^p <= C1 epsilon^p + C2 k^(p/2-1) ||x - x_k||_{p,w}^p.

    With d1 = delta_ak and d2 = delta_(a+1)k, the noise coefficient is
        C1 = 2^p (1 + gamma a^(p/2-1) / (2/p-1)^(p/2)) / D
    and the tail coefficient is
        C2 = 2 a^(p/2-1) ((1+d1)^(p/2) + (1-d2)^(p/2) (2/p-1)^(-p/2)) / D
    with D = (1-d2)^(p/2) - (1+d1)^(p/2) a^(p/2-1) gamma.  D > 0 is
    exactly the sufficient condition; otherwise the bound is vacuous and
    ConditionViolatedError is raised.
    """
    # computed on the floats check_domain returns, whatever type was given
    a, p, omega, alpha, rho, d1, d2 = (v for (v,) in check_domain(
        a=[a], p=[p], omega=[omega], alpha=[alpha], rho=[rho], delta_ak=[delta_ak], delta_a1k=[delta_a1k]
    ).values())
    gamma = _gamma(p, omega, alpha, rho)
    half = 0.5 * p
    a_pow = a ** (half - 1.0)
    tail_pow = (2.0 / p - 1.0) ** half
    D = (1.0 - d2) ** half - (1.0 + d1) ** half * a_pow * gamma
    if D <= 0.0:
        raise ConditionViolatedError(
            f"condition denominator must be positive, got {D:.6g}"
        )
    c1 = 2.0**p * (1.0 + gamma * a_pow / tail_pow) / D
    c2 = 2.0 * a_pow * ((1.0 + d1) ** half + (1.0 - d2) ** half / tail_pow) / D
    return c1, c2


def proposition2_check(a: float, p: float, omega: float, alpha: float, rho: float, delta_grid) -> bool:
    """Compare weighted against unweighted constants over a grid of
    delta values, each taken as both delta_ak and delta_(a+1)k.

    For omega < 1 the weighted constants are smaller than the
    unweighted ones exactly when alpha > 1/2, equal at alpha = 1/2, and
    larger when alpha < 1/2.  Returns True when every grid point where
    both bounds apply matches that pattern (requires at least one such
    point).
    """
    check_domain(a=[a], p=[p], omega=[omega], alpha=[alpha], rho=[rho])
    if not (0.0 <= omega < 1.0):
        raise ValueError(f"omega must lie in [0, 1) for this comparison, got {omega}")
    compared = 0
    for delta in delta_grid:
        try:
            cw = error_constants(a, p, omega, alpha, rho, delta, delta)
            # at omega = 1, gamma is exactly 1.0: the unweighted constants
            cu = error_constants(a, p, 1.0, alpha, rho, delta, delta)
        except ConditionViolatedError:
            continue
        compared += 1
        for weighted, unweighted in zip(cw, cu):
            scale = max(abs(weighted), abs(unweighted), 1.0)
            gain = unweighted - weighted
            if alpha > 0.5:
                ok = gain > _COMPARE_TOL * scale
            elif alpha == 0.5:
                ok = abs(gain) <= _COMPARE_TOL * scale
            else:
                ok = gain < -_COMPARE_TOL * scale
            if not ok:
                return False
    return compared > 0
