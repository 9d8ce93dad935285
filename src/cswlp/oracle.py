"""Exhaustive-search reference decoders for tiny problems.

Both oracles enumerate candidate supports in ascending size and, within
a size, in lexicographic order.  Every support of one size is fitted by
least squares at once: its columns are gathered into one stack and
solved with one batched pseudo-inverse.  The oracles are exponential in
N and exist to check the iterative solver on instances small enough to
enumerate, so N is capped at 20 and support size at 4.  Both read b and
judge each fit by ``core._exact_fit``, the rule ``solve`` reads it by, so
Measurements with epsilon > 0 raise ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import comb

import numpy as np

from .core import (
    OracleInfeasibleError,
    SensingOperator,
    SignalVector,
    _exact_fit,
    _weights_array,
    check_domain,
)

__all__ = ["OracleResult", "oracle_l0", "oracle_weighted_lp"]

_MAX_N = 20
_MAX_SUPPORT = 4


@dataclass(frozen=True)
class OracleResult:
    """Minimizer found by enumeration.

    ``objective_value`` is the support size for the l0 oracle and the
    weighted lp objective sum_i w_i^p |z_i|^p for the weighted oracle.
    """

    minimizer: SignalVector
    support: tuple[int, ...]
    objective_value: float


def _prepare(A, b, k_max: int, decoder: str) -> tuple[np.ndarray, np.ndarray, float]:
    A_dense = A.as_dense() if isinstance(A, SensingOperator) else np.asarray(A, dtype=np.float64)
    y, limit = _exact_fit(A_dense, b, decoder)
    N = A_dense.shape[1]
    if N > _MAX_N:
        raise ValueError(f"enumeration is capped at N <= {_MAX_N}, got N = {N}")
    if not (0 <= k_max <= _MAX_SUPPORT):
        raise ValueError(f"k_max must lie in 0..{_MAX_SUPPORT}, got {k_max}")
    return A_dense, y, limit


@cache
def _supports(N: int, size: int) -> np.ndarray:
    """Every size-element subset of range(N) in lexicographic order, as
    a read-only (C(N, size), size) index table."""
    table = np.array(list(combinations(range(N), size)), dtype=np.intp).reshape(comb(N, size), size)
    table.flags.writeable = False
    return table


def _exact_fits(A_dense: np.ndarray, y: np.ndarray, k_max: int, limit: float):
    """For each size 0..k_max in turn, yield (supports, coefficients):
    the rows of the size's support table whose least-squares fit leaves
    a residual of at most ``limit``, the feasibility limit of
    ``core._exact_fit``, in table order, and their fits, both (F, size)
    arrays with F possibly 0."""
    n, N = A_dense.shape
    for size in range(k_max + 1):
        supports = _supports(N, size)
        cols = np.moveaxis(A_dense[:, supports], 1, 0)  # (S, n, size)
        # the singular-value cutoff lstsq(rcond=None) uses; pinv's default
        # is 1e-15, and its rtol keyword needs numpy 2
        z = np.linalg.pinv(cols, rcond=max(n, size) * np.finfo(np.float64).eps) @ y
        residuals = np.linalg.norm((cols @ z[:, :, None])[:, :, 0] - y, axis=1)
        fits = residuals <= limit
        yield supports[fits], z[fits]


def _result(N: int, support, z, value) -> OracleResult:
    """The fit z on the 0-based ``support``, embedded in R^N, with its
    1-based support and objective value."""
    full = np.zeros(N, dtype=np.float64)
    full[support] = z
    return OracleResult(SignalVector(full), tuple(int(i) + 1 for i in support), float(value))


def oracle_l0(A, b, k_max: int) -> OracleResult:
    """Sparsest exact fit: the first support (smallest size, then
    lexicographic) whose least-squares solution reproduces b.

    Raises OracleInfeasibleError when no support of size <= k_max fits.
    """
    A_dense, y, limit = _prepare(A, b, k_max, "oracle_l0")
    N = A_dense.shape[1]
    for supports, z in _exact_fits(A_dense, y, k_max, limit):
        if len(supports):
            return _result(N, supports[0], z[0], supports.shape[1])
    raise OracleInfeasibleError(f"no support of size <= {k_max} fits the measurements")


def oracle_weighted_lp(A, b, w, p: float, k_max: int) -> OracleResult:
    """Exact fit minimizing sum_i w_i^p |z_i|^p over supports of size <= k_max.

    Ties (within 1e-12) keep the earlier support in enumeration order.
    Raises OracleInfeasibleError when no support fits.
    """
    check_domain(p=[p])
    A_dense, y, limit = _prepare(A, b, k_max, "oracle_weighted_lp")
    N = A_dense.shape[1]
    wp = _weights_array(w, N) ** p
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for supports, z in _exact_fits(A_dense, y, k_max, limit):
        values = np.sum(wp[supports] * np.abs(z) ** p, axis=1)
        for i, value in enumerate(values.tolist()):
            if best is None or value < best[0] - 1e-12:
                best = (value, supports[i], z[i])
    if best is None:
        raise OracleInfeasibleError(f"no support of size <= {k_max} fits the measurements")
    value, support, z = best
    return _result(N, support, z, value)
