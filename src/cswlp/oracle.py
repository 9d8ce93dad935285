"""Exhaustive-search reference decoders for tiny problems.

Both oracles enumerate only supports with independent columns, which
loses no answer: for p <= 1 the objective is concave on each orthant,
which {A x = b} meets in a pointed polyhedron, so the minimum sits at a
vertex, whose nonzero columns are independent, as are the sparsest
fit's.  A fit on dependent columns lies in a polyhedron whose vertices
are fits on independent subsets of them: no larger, so enumerated, and
earlier, so they win ties.

Supports run in ascending size, lexicographic within a size, and each
size is fitted on its own, in blocks of _CHUNK supports: one stacked
Householder QR of each block's columns with b appended gives each
support's pivots and Q^T b, with no SVD.  A support is dropped unfitted
when a pivot is at most _PIVOT_TOL of its column's norm; every other is
fitted once from its triangular factor and judged once, by
``core._fits``, as ``solve`` judges its result.  (A, b) are read by
``core._exact_fit``, as ``solve`` reads them, so A must be a DenseMatrix
or RestrictedTransform, which the oracles read as ``A.as_dense()``, and
Measurements with epsilon > 0 raise ValueError.

The fits depend neither on the weights nor on the decoder, so both
oracles read one cache of them, keyed by the bytes of A and b: a repeat
call on one instance, by either oracle, with other weights or a smaller
k_max, fits nothing again, and a size is fitted only when a call reads
it, so ``oracle_l0`` stops at its answer's size.  The cache holds the
tables of one instance, the one being read: every caller reads one
instance's sizes, maybe several times, and never returns to an earlier
one, so reading another instance drops them.  Each size's index table
of supports is built with its fits and freed with them.  N is capped at
20, read from A's shape before A is built, and ||A||_2 is read after
every refusal.  k_max may reach n, where ``oracle_weighted_lp`` is the
exact decoder (no vertex has more than n nonzeros, so a larger k_max is
refused).  Its run times and peak RSS there, at 8 x 16 and 10 x 20, are
recorded in ``BENCH_memory.json``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, combinations
from math import comb

import numpy as np

from .core import (
    OracleInfeasibleError,
    SignalVector,
    _exact_fit,
    _fits,
    _weighted_lp_sum,
    _weights_array,
    check_domain,
)

__all__ = ["OracleResult", "oracle_l0", "oracle_weighted_lp"]

_MAX_N = 20
# a column whose component off the span of the support's earlier columns,
# its pivot |R_jj|, is at most this share of its norm drops the support as
# dependent: exactly dependent columns leave about 1e-16, and independent
# ones at an angle above this are kept
_PIVOT_TOL = 1e-12
# supports fitted per stacked QR: a block's temporaries stay a few MB,
# where stacking all 184,756 supports of size 10 at N = 20 at once would
# take 160 MB per temporary
_CHUNK = 4096


@dataclass(frozen=True)
class OracleResult:
    """Minimizer found by enumeration.

    ``objective_value`` is the support size for the l0 oracle and the
    weighted lp objective sum_i w_i^p |z_i|^p for the weighted oracle.
    """

    minimizer: SignalVector
    support: tuple[int, ...]
    objective_value: float


def _prepare(A, b, k_max, decoder: str) -> tuple[int, int, Callable[[int], tuple]]:
    """N, k_max as read, and the fit tables of (A, b), which map a size
    to its (supports, fits) and fit each size when first read; raises
    ValueError naming ``decoder`` on an input it refuses.  ||A||_2, a
    QR of A^T for a DenseMatrix, is read after the last refusal."""
    y, y_norm = _exact_fit(A, b, decoder)
    n, N = A.shape
    if N > _MAX_N:
        raise ValueError(f"enumeration is capped at N <= {_MAX_N}, got N = {N}")
    (k_max,) = check_domain(k_max=[k_max])["k_max"]
    if k_max > n:
        raise ValueError(f"k_max must lie in 0..{n}, got {k_max}: no vertex has more than n = {n} nonzeros")
    A_dense = A.as_dense()
    return N, k_max, _shared_fits(A_dense.shape, A_dense.tobytes(), y.tobytes(), A._norm2, y_norm)


@lru_cache(maxsize=1)
def _shared_fits(shape: tuple[int, int], matrix: bytes, y: bytes, a_norm: float, y_norm: float):
    """The fit tables of one instance: a cache of ``_fit_size`` by size,
    each size fitted when first read.  A and y come as C-order float64
    bytes, so the cache is keyed by value and a changed entry is
    refitted; it holds one instance, the one being read, and reading
    another drops it."""
    A_dense, y = np.frombuffer(matrix).reshape(shape), np.frombuffer(y)
    return lru_cache(maxsize=None)(partial(_fit_size, A_dense, y, a_norm, y_norm))


def _fit_size(A_dense: np.ndarray, y: np.ndarray, a_norm: float, y_norm: float, size: int):
    """The read-only (supports, fits) of one size: the supports, in
    table order, that the drop rule keeps and whose fit z = R^-1 Q^T y
    meets ``core._fits`` (given ||A||_2 and ||y||), and those fits
    embedded in R^N.
    One stacked QR per block of _CHUNK supports, of each support's
    columns with y appended, gives its pivots |R_jj| and, in the last
    column, Q^T y."""
    N = A_dense.shape[1]
    # every size-element subset of range(N), in lexicographic order
    count = comb(N, size)
    subsets = chain.from_iterable(combinations(range(N), size))
    supports = np.fromiter(subsets, dtype=np.intp, count=count * size).reshape(count, size)
    columns = np.column_stack((A_dense, y)).T  # (N + 1, n): row N is y
    norms = np.linalg.norm(columns, axis=1)
    found, z_found = [], []
    # each support is factored, solved and judged on its own, so the
    # blocks give the bits one stack of every support would
    for block in np.split(supports, range(_CHUNK, count, _CHUNK)):
        with_y = np.column_stack((block, np.full(len(block), N)))
        R = np.linalg.qr(columns[with_y].transpose(0, 2, 1), mode="r")
        pivots = np.abs(np.diagonal(R[:, :size, :size], axis1=1, axis2=2))
        keep = np.all(pivots > _PIVOT_TOL * norms[block], axis=1)
        z = np.linalg.solve(R[keep, :size, :size], R[keep, :size, size:])[:, :, 0]
        tried = block[keep]
        fitted = _fits((z[:, None, :] @ columns[tried])[:, 0] - y, z, a_norm, y_norm)
        found.append(tried[fitted])
        z_found.append(z[fitted])
    found = np.concatenate(found)
    fits = np.zeros((len(found), N))
    np.put_along_axis(fits, found, np.concatenate(z_found), axis=1)
    found.flags.writeable = fits.flags.writeable = False
    return found, fits


def oracle_l0(A, b, k_max: int) -> OracleResult:
    """Sparsest exact fit: the first support (smallest size, then
    lexicographic) whose least-squares solution reproduces b.

    Raises OracleInfeasibleError when no support of size <= k_max fits.
    """
    _, k_max, tables = _prepare(A, b, k_max, "oracle_l0")
    for supports, fits in map(tables, range(k_max + 1)):
        if len(supports):
            support = tuple(int(i) + 1 for i in supports[0])
            return OracleResult(SignalVector(fits[0].copy()), support, float(len(support)))
    raise OracleInfeasibleError(f"no support of size <= {k_max} fits the measurements")


def oracle_weighted_lp(A, b, w, p: float, k_max: int) -> OracleResult:
    """Exact fit minimizing sum_i w_i^p |z_i|^p over supports of size <= k_max.

    Ties (values within 1e-12 of the best so far, relative, so the
    margin scales with b) keep the earlier support in enumeration order.
    Raises OracleInfeasibleError when no support fits.
    """
    check_domain(p=[p])
    N, k_max, tables = _prepare(A, b, k_max, "oracle_weighted_lp")
    wp = _weights_array(w, N, "oracle_weighted_lp: weights") ** p
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for supports, fits in map(tables, range(k_max + 1)):
        # scored as the embedded fits, so each value is the core objective
        # of the minimizer it returns, to the bit
        values = _weighted_lp_sum(wp, fits, p)
        for i, value in enumerate(values.tolist()):
            if best is None or value < best[0] - 1e-12 * best[0]:
                best = (value, supports[i], fits[i])
    if best is None:
        raise OracleInfeasibleError(f"no support of size <= {k_max} fits the measurements")
    value, support, fit = best
    return OracleResult(SignalVector(fit.copy()), tuple(int(i) + 1 for i in support), float(value))
