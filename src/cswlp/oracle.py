"""Exhaustive-search reference decoders for tiny problems.

Both oracles enumerate only supports with independent columns, which
loses no answer: for p <= 1 the objective is concave on each orthant,
which {A x = b} meets in a pointed polyhedron, so the minimum sits at a
vertex, whose nonzero columns are independent, as are the sparsest
fit's.  A fit on dependent columns lies in a polyhedron whose vertices
are fits on independent subsets of them: no larger, so enumerated, and
earlier, so they win ties.

Supports run in ascending size, lexicographic within a size.  Each is
factored from its lexicographic prefix, a row of the previous size's
table, by one batched Gram-Schmidt step: O(n s) and no SVD.  It is
dropped unfitted when its new pivot there is below _PIVOT_TOL of its
column's norm, or its prefix's was, or when b's residual off its span
rules out a fit; the rest are fitted from their triangular factor and
judged by ``core._exact_fit``, the rule ``solve`` reads b by, so
Measurements with epsilon > 0 raise ValueError.

The fits depend neither on the weights nor on the decoder, so both
oracles read one table, the last (A, b, k_max)'s, keyed by the bytes of
A and b: a repeat call on one instance, by either oracle or with other
weights, fits nothing again.  N is capped at 20.  k_max may reach n,
where ``oracle_weighted_lp`` is the exact decoder (no vertex has more
than n nonzeros, so a larger k_max is refused); one p = 1 call there
takes 0.14 s with an 81 MB peak RSS at n x N = 8 x 16, and 3.1 s with
985 MB at 10 x 20, on a 2-core x86 VM.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .core import (
    OracleInfeasibleError,
    SensingOperator,
    SignalVector,
    _as_matrix,
    _exact_fit,
    _weighted_lp_sum,
    _weights_array,
    check_domain,
)

__all__ = ["OracleResult", "oracle_l0", "oracle_weighted_lp"]

_MAX_N = 20
# a new column whose component off its prefix's span is below this share
# of its norm drops the support as dependent: exactly dependent columns
# leave about 1e-16, and independent ones at an angle above this are kept
_PIVOT_TOL = 1e-12


@dataclass(frozen=True)
class OracleResult:
    """Minimizer found by enumeration.

    ``objective_value`` is the support size for the l0 oracle and the
    weighted lp objective sum_i w_i^p |z_i|^p for the weighted oracle.
    """

    minimizer: SignalVector
    support: tuple[int, ...]
    objective_value: float


def _prepare(A, b, k_max, decoder: str) -> tuple[int, int, tuple]:
    """N, k_max as read, and the fit table of (A, b) up to size k_max;
    raises ValueError naming ``decoder`` on an input it refuses."""
    A_dense = A.as_dense() if isinstance(A, SensingOperator) else _as_matrix(A, f"{decoder}: matrix")
    y, limit = _exact_fit(A_dense, b, decoder)
    n, N = A_dense.shape
    if N > _MAX_N:
        raise ValueError(f"enumeration is capped at N <= {_MAX_N}, got N = {N}")
    (k_max,) = check_domain(k_max=[k_max])["k_max"]
    if k_max > n:
        raise ValueError(f"k_max must lie in 0..{n}, got {k_max}: no vertex has more than n = {n} nonzeros")
    return N, k_max, _shared_fits(A_dense.shape, A_dense.tobytes(), y.tobytes(), k_max, limit)


@cache
def _supports(N: int, size: int) -> np.ndarray:
    """Every size-element subset of range(N) in lexicographic order, as
    a read-only (C(N, size), size) index table."""
    table = np.array(list(combinations(range(N), size)), dtype=np.intp).reshape(comb(N, size), size)
    table.flags.writeable = False
    return table


@cache
def _prefixes(N: int, size: int) -> np.ndarray:
    """For each row of ``_supports(N, size)``, size >= 1, the row of
    ``_supports(N, size - 1)`` that holds its first size - 1 entries."""
    rank = {row: i for i, row in enumerate(map(tuple, _supports(N, size - 1).tolist()))}
    index = np.array([rank[row[:-1]] for row in map(tuple, _supports(N, size).tolist())], dtype=np.intp)
    index.flags.writeable = False
    return index


def _gram_schmidt_step(Q, R, r, dependent, a):
    """Append the column a[i] to the i-th factorization: Q (S, n, s-1)
    orthonormal, R (S, s-1, s-1) upper triangular and r the residual of
    the measurements off span(Q).  Classical Gram-Schmidt is run twice,
    which keeps Q orthonormal to working precision ("twice is enough").
    A row is marked ``dependent``, its new column of Q left 0, when its
    new pivot falls below _PIVOT_TOL ||a[i]|| or its prefix's was."""
    c = np.einsum("snk,sn->sk", Q, a)
    v = a - np.einsum("snk,sk->sn", Q, c)
    c2 = np.einsum("snk,sn->sk", Q, v)
    v -= np.einsum("snk,sk->sn", Q, c2)
    pivot = np.linalg.norm(v, axis=1)
    dependent = dependent | (pivot <= _PIVOT_TOL * np.linalg.norm(a, axis=1))
    q = v * np.divide(1.0, pivot, out=np.zeros_like(pivot), where=~dependent)[:, None]
    S, s = R.shape[0], R.shape[1] + 1
    R_new = np.zeros((S, s, s))
    R_new[:, :-1, :-1] = R
    R_new[:, :-1, -1] = c + c2
    R_new[:, -1, -1] = pivot
    r_new = r - q * np.einsum("sn,sn->s", q, r)[:, None]
    return np.concatenate((Q, q[:, :, None]), axis=2), R_new, r_new, dependent


@lru_cache(maxsize=1)
def _shared_fits(shape: tuple[int, int], matrix: bytes, y: bytes, k_max: int, limit: float):
    """One read-only (supports, fits) pair per size 0..k_max: the
    supports, in table order, that the drop rule keeps and whose fit
    z = R^-1 Q^T y leaves ||A_T z - y|| <= ``limit``, and those fits
    embedded in R^N.  A residual ||r|| above 2 limit is the rule's
    screen: no fit on such a support can reach the limit.  A and y come
    as C-order float64 bytes, so the cache is keyed by value and a
    changed entry is refitted."""
    n, N = shape
    A_dense, y = np.frombuffer(matrix).reshape(shape), np.frombuffer(y)
    # the empty support: no columns, and all of y is residual
    Q, R, r, dependent = np.zeros((1, n, 0)), np.zeros((1, 0, 0)), y[None, :], np.zeros(1, dtype=bool)
    sizes = []
    for size in range(k_max + 1):
        supports = _supports(N, size)
        if size:
            prefix = _prefixes(N, size)
            Q, R, r, dependent = _gram_schmidt_step(
                Q[prefix], R[prefix], r[prefix], dependent[prefix], A_dense[:, supports[:, -1]].T
            )
        tried = np.flatnonzero(~dependent & (np.linalg.norm(r, axis=1) <= 2.0 * limit))
        z = np.linalg.solve(R[tried], np.einsum("snk,n->sk", Q[tried], y)[:, :, None])[:, :, 0]
        cols = np.moveaxis(A_dense[:, supports[tried]], 1, 0)  # (F, n, size)
        fitted = np.linalg.norm((cols @ z[:, :, None])[:, :, 0] - y, axis=1) <= limit
        found = supports[tried[fitted]]
        fits = np.zeros((len(found), N))
        np.put_along_axis(fits, found, z[fitted], axis=1)
        found.flags.writeable = fits.flags.writeable = False
        sizes.append((found, fits))
    return tuple(sizes)


def oracle_l0(A, b, k_max: int) -> OracleResult:
    """Sparsest exact fit: the first support (smallest size, then
    lexicographic) whose least-squares solution reproduces b.

    Raises OracleInfeasibleError when no support of size <= k_max fits.
    """
    _, k_max, table = _prepare(A, b, k_max, "oracle_l0")
    for supports, fits in table:
        if len(supports):
            support = tuple(int(i) + 1 for i in supports[0])
            return OracleResult(SignalVector(fits[0].copy()), support, float(len(support)))
    raise OracleInfeasibleError(f"no support of size <= {k_max} fits the measurements")


def oracle_weighted_lp(A, b, w, p: float, k_max: int) -> OracleResult:
    """Exact fit minimizing sum_i w_i^p |z_i|^p over supports of size <= k_max.

    Ties (within 1e-12) keep the earlier support in enumeration order.
    Raises OracleInfeasibleError when no support fits.
    """
    check_domain(p=[p])
    N, k_max, table = _prepare(A, b, k_max, "oracle_weighted_lp")
    wp = _weights_array(w, N, "oracle_weighted_lp: weights") ** p
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for supports, fits in table:
        # scored as the embedded fits, so each value is the core objective
        # of the minimizer it returns, to the bit
        values = _weighted_lp_sum(wp, fits, p)
        for i, value in enumerate(values.tolist()):
            if best is None or value < best[0] - 1e-12:
                best = (value, supports[i], fits[i])
    if best is None:
        raise OracleInfeasibleError(f"no support of size <= {k_max} fits the measurements")
    value, support, fit = best
    return OracleResult(SignalVector(fit.copy()), tuple(int(i) + 1 for i in support), float(value))
