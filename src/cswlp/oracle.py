"""Exhaustive-search reference decoders for tiny problems.

Both oracles enumerate candidate supports in ascending size and, within
a size, in lexicographic order.  Every support of one size is fitted by
least squares at once: its columns are gathered into one stack and
solved with one batched pseudo-inverse.  The oracles are exponential in
N and exist to check the iterative solver on instances small enough to
enumerate, so N is capped at 20 and support size at 4.  Both read the
measurements as ``solve`` does: an exact fit, so Measurements with
epsilon > 0 raise ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import comb

import numpy as np

from .core import (
    Measurements,
    OracleInfeasibleError,
    SensingOperator,
    SignalVector,
    _signal_array,
    _weights_array,
    check_domain,
)
from .solver import SolverConfig

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


def _prepare(A, b, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    A_dense = A.as_dense() if isinstance(A, SensingOperator) else np.asarray(A, dtype=np.float64)
    if isinstance(b, Measurements) and b.epsilon > 0.0:
        raise ValueError(f"the oracles fit A z = b exactly; they cannot honour noise bound epsilon={b.epsilon!r}")
    y = b.y if isinstance(b, Measurements) else _signal_array(b)
    n, N = A_dense.shape
    if y.shape[0] != n:
        raise ValueError(f"measurement length {y.shape[0]} does not match operator rows {n}")
    if N > _MAX_N:
        raise ValueError(f"enumeration is capped at N <= {_MAX_N}, got N = {N}")
    if not (0 <= k_max <= _MAX_SUPPORT):
        raise ValueError(f"k_max must lie in 0..{_MAX_SUPPORT}, got {k_max}")
    return A_dense, y


@cache
def _supports(N: int, size: int) -> np.ndarray:
    """Every size-element subset of range(N) in lexicographic order, as
    a read-only (C(N, size), size) index table."""
    table = np.array(list(combinations(range(N), size)), dtype=np.intp).reshape(comb(N, size), size)
    table.flags.writeable = False
    return table


def _exact_fits(A_dense: np.ndarray, y: np.ndarray, k_max: int):
    """For each size 0..k_max in turn, yield (supports, coefficients):
    the rows of the size's support table whose least-squares fit leaves
    a residual of at most SolverConfig.feasibility_tol * max(1, ||y||),
    the solver's own feasibility rule, in table order, and their fits,
    both (F, size) arrays with F possibly 0."""
    n, N = A_dense.shape
    tol = SolverConfig.feasibility_tol * max(1.0, float(np.linalg.norm(y)))
    for size in range(k_max + 1):
        supports = _supports(N, size)
        cols = np.moveaxis(A_dense[:, supports], 1, 0)  # (S, n, size)
        # the singular-value cutoff lstsq(rcond=None) uses; pinv's default
        # is 1e-15, and its rtol keyword needs numpy 2
        z = np.linalg.pinv(cols, rcond=max(n, size) * np.finfo(np.float64).eps) @ y
        residuals = np.linalg.norm((cols @ z[:, :, None])[:, :, 0] - y, axis=1)
        fits = residuals <= tol
        yield supports[fits], z[fits]


def _embed(N: int, support, z) -> SignalVector:
    full = np.zeros(N, dtype=np.float64)
    full[support] = z
    return SignalVector(full)


def oracle_l0(A, b, k_max: int) -> OracleResult:
    """Sparsest exact fit: the first support (smallest size, then
    lexicographic) whose least-squares solution reproduces b.

    Raises OracleInfeasibleError when no support of size <= k_max fits.
    """
    A_dense, y = _prepare(A, b, k_max)
    N = A_dense.shape[1]
    for supports, z in _exact_fits(A_dense, y, k_max):
        if len(supports):
            return OracleResult(
                minimizer=_embed(N, supports[0], z[0]),
                support=tuple(int(i) + 1 for i in supports[0]),
                objective_value=float(supports.shape[1]),
            )
    raise OracleInfeasibleError(f"no support of size <= {k_max} fits the measurements")


def oracle_weighted_lp(A, b, w, p: float, k_max: int) -> OracleResult:
    """Exact fit minimizing sum_i w_i^p |z_i|^p over supports of size <= k_max.

    Ties (within 1e-12) keep the earlier support in enumeration order.
    Raises OracleInfeasibleError when no support fits.
    """
    check_domain(p=[p])
    A_dense, y = _prepare(A, b, k_max)
    N = A_dense.shape[1]
    wp = _weights_array(w, N) ** p
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for supports, z in _exact_fits(A_dense, y, k_max):
        values = np.sum(wp[supports] * np.abs(z) ** p, axis=1)
        for i, value in enumerate(values.tolist()):
            if best is None or value < best[0] - 1e-12:
                best = (value, supports[i], z[i])
    if best is None:
        raise OracleInfeasibleError(f"no support of size <= {k_max} fits the measurements")
    value, support, z = best
    return OracleResult(
        minimizer=_embed(N, support, z),
        support=tuple(int(i) + 1 for i in support),
        objective_value=value,
    )
