"""Core types and primitive operations for sparse recovery problems.

Conventions used throughout the package:

* signals live in R^N, measurements in R^n with n <= N
* index sets (supports, kept transform rows) are 1-based at the API
  boundary; 0-based numpy indexing stays internal
* weight vectors assign a value omega in [0, 1] on an estimated support
  and 1.0 elsewhere
* every module checks each scalar setting it takes (p, omega, alpha,
  rho, the counts n, k, max_iters, ..., the audio fractions and rates)
  against one domain table, ``check_domain``; only rules that relate
  two values, such as n <= N, are written where they apply
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "CswlpError",
    "ConfigError",
    "ConditionViolatedError",
    "OracleInfeasibleError",
    "RankDeficientError",
    "SolverDivergenceError",
    "SignalVector",
    "DenseMatrix",
    "RestrictedTransform",
    "Measurements",
    "SupportEstimate",
    "WeightVector",
    "best_k_term",
    "check_domain",
    "snr_db",
    "weighted_lp_norm",
]


class CswlpError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(CswlpError):
    """A config file or parameter set is malformed."""


class RankDeficientError(CswlpError):
    """A sensing matrix does not have full row rank."""


class SolverDivergenceError(CswlpError):
    """The iteration produced a non-finite objective value."""


class OracleInfeasibleError(CswlpError):
    """No support of the allowed size fits the measurements."""


class ConditionViolatedError(CswlpError):
    """Recovery-condition denominator is not positive for these parameters."""


# Singular values below this fraction of the largest count as zero rank.
_RANK_TOL = 1e-10

# each parameter's domain: its test and how the error words it
_DOMAIN = {
    "p": (lambda v: 0.0 < v <= 1.0, "lie in (0, 1]"),
    "omega": (lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]"),
    "alpha": (lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]"),
    "rho": (lambda v: v >= 0.0, "be >= 0"),
    "a": (lambda v: v > 1.0, "exceed 1"),
    "sigma": (lambda v: v > 0.0, "be positive"),
    "delta_ak": (lambda v: 0.0 <= v < 1.0, "lie in [0, 1)"),
    "delta_a1k": (lambda v: 0.0 <= v < 1.0, "lie in [0, 1)"),
    "epsilon": (lambda v: v >= 0.0, "be >= 0"),
    "noise_frac": (lambda v: v >= 0.0, "be >= 0"),
    "decay": (lambda v: v > 0.0, "be positive"),
    "keep_frac": (lambda v: 0.0 < v <= 1.0, "lie in (0, 1]"),
    "prev_block_keep": (lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]"),
    "sample_rate_hz": (lambda v: v > 0.0, "be positive"),
    "lowfreq_cutoff_hz": (lambda v: v >= 0.0, "be >= 0"),
    # the counts: iterations, trials, lengths, sizes and grid points
    **dict.fromkeys(
        ("max_iters", "trials", "N", "n", "k", "block_len", "num_blocks", "size", "count"),
        (lambda v: v >= 1.0 and v.is_integer(), "be an integer >= 1"),
    ),
}


def check_domain(**values) -> None:
    """Raise one ValueError naming every value outside its domain.

    Each keyword names a parameter of ``_DOMAIN`` and takes a non-empty
    list of its values, each finite and in its domain; a count must be
    an integer >= 1, though it may be given as a float.  When all are,
    every (alpha, rho) pair of the alpha and rho lists must satisfy
    1 + rho - 2 alpha rho >= 0, the estimate's symmetric difference with
    the true support relative to k.
    """
    values = {name: [float(v) for v in vs] for name, vs in values.items()}
    errors = [f"{name} needs at least one value" for name, vs in values.items() if not vs]
    errors += [
        f"{name} must {_DOMAIN[name][1] if math.isfinite(v) else 'be finite'}, got {v}"
        for name, vs in values.items() for v in vs if not (math.isfinite(v) and _DOMAIN[name][0](v))
    ]
    bad = [f"({alpha}, {rho})" for alpha in values.get("alpha", ()) for rho in values.get("rho", ())
           if 1.0 + rho - 2.0 * alpha * rho < 0.0]
    if bad and not errors:
        errors.append(
            f"1 + rho - 2 alpha rho < 0 at (alpha, rho) = {', '.join(bad)}: such an estimate "
            "would hold more correct entries (alpha rho k) than the support's k"
        )
    if errors:
        raise ValueError("; ".join(errors))


def _as_vector(values, name: str = "values") -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    return arr


def _as_matrix(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"matrix must be two-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class SignalVector:
    """A finite real vector in R^N, N >= 1."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _as_vector(self.entries, "entries")
        if not np.all(np.isfinite(arr)):
            raise ValueError("signal entries must be finite")
        object.__setattr__(self, "entries", arr)

    def __len__(self) -> int:
        return int(self.entries.shape[0])


@dataclass(frozen=True)
class DenseMatrix:
    """Sensing operator given by an explicit n x N matrix, n <= N.

    ``pinv`` takes one SVD on first use and keeps its outcome, so every
    later solve on the same operator reuses it; the matrix must not be
    changed after that.
    """

    matrix: np.ndarray

    def __post_init__(self):
        arr = _as_matrix(self.matrix)
        n, N = arr.shape
        if n > N:
            raise ValueError(f"matrix must have n <= N, got {n} x {N}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "matrix", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def as_dense(self) -> np.ndarray:
        return self.matrix

    def columns(self, cols: np.ndarray) -> np.ndarray:
        """The n x len(cols) submatrix of columns ``cols`` (0-based)."""
        return self.matrix[:, cols]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def adjoint(self, r: np.ndarray) -> np.ndarray:
        return self.matrix.T @ r

    @property
    def pinv(self) -> np.ndarray:
        """The N x n pseudo-inverse, from one SVD; raises RankDeficientError
        if the smallest singular value is below _RANK_TOL times the largest."""
        if isinstance(self._pinv, RankDeficientError):
            raise self._pinv.with_traceback(None)
        return self._pinv

    @cached_property
    def _pinv(self) -> np.ndarray | RankDeficientError:
        U, s, Vt = np.linalg.svd(self.matrix, full_matrices=False)
        if s[0] == 0.0 or s[-1] <= _RANK_TOL * s[0]:
            ratio = 0.0 if s[0] == 0.0 else float(s[-1] / s[0])
            return RankDeficientError(
                f"sensing matrix is rank deficient: smallest/largest singular value ratio {ratio:.3e}"
            )
        return (Vt.T / s) @ U.T


@lru_cache(maxsize=8)
def _dct_twiddles(N: int) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i pi k / 2N) for k = 0..N//2, and the orthonormal DCT-II
    row scales sqrt(1/N), sqrt(2/N), ..., sqrt(2/N)."""
    k = np.arange(N // 2 + 1, dtype=np.float64)
    scale = np.full(N, np.sqrt(2.0 / N))
    scale[0] = np.sqrt(1.0 / N)
    return np.exp(-0.5j * np.pi * k / N), scale


def _dct(x: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II of x by one real FFT (Makhoul, "A fast cosine
    transform in one and two dimensions", IEEE TASSP 1980).

    Reordering x to its even entries followed by its odd entries reversed
    gives a v whose FFT V satisfies sum_m x_m cos(pi k (2m + 1) / 2N)
    = Re(exp(-i pi k / 2N) V_k); the same product's imaginary part at k
    is minus the sum at N - k, so V_0..V_{N//2} give every coefficient.
    """
    N = x.shape[0]
    twiddle, scale = _dct_twiddles(N)
    z = twiddle * np.fft.rfft(np.concatenate((x[::2], x[1::2][::-1])))
    c = np.empty(N)
    c[: N // 2 + 1] = z.real
    c[N // 2 + 1 :] = -z.imag[1 : (N + 1) // 2][::-1]
    return scale * c


def _idct(c: np.ndarray) -> np.ndarray:
    """Inverse of ``_dct``, which is its transpose: samples from
    orthonormal DCT-II coefficients, by one inverse real FFT."""
    N = c.shape[0]
    twiddle, scale = _dct_twiddles(N)
    y = c / scale
    # V_k = exp(i pi k / 2N) (y_k - i y_{N-k}), with y_N = 0
    flipped = np.zeros(N // 2 + 1)
    flipped[1:] = y[(N + 1) // 2 :][::-1]
    v = np.fft.irfft(np.conj(twiddle) * (y[: N // 2 + 1] - 1j * flipped), n=N)
    x = np.empty(N)
    half = (N + 1) // 2
    x[::2] = v[:half]
    x[1::2] = v[half:][::-1]
    return x


def _idct_entries(N: int, idx: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Rows ``idx`` and columns ``cols`` (0-based) of the orthonormal
    inverse DCT-II matrix, entry [j, i] = s_k cos(pi k (2 idx_j + 1) / 2N)
    with k = cols_i."""
    k = np.asarray(cols, dtype=np.float64)[None, :]
    m = np.asarray(idx, dtype=np.float64)[:, None]
    out = np.cos(np.pi * k * (2.0 * m + 1.0) / (2.0 * N)) * np.sqrt(2.0 / N)
    out[:, k[0] == 0.0] = np.sqrt(1.0 / N)
    return out


@dataclass(frozen=True)
class RestrictedTransform:
    """Sensing operator that keeps selected rows of the orthonormal inverse
    DCT-II of length ``size``, so its rows are orthonormal: A A^T = I and
    pinv(A) = A^T.

    ``rows`` are the kept rows (1-based, distinct).  The transform is
    applied by FFT without forming any N x N array.
    """

    rows: tuple[int, ...]
    size: int

    def __post_init__(self):
        rows = tuple(int(i) for i in self.rows)
        N = int(self.size)
        object.__setattr__(self, "size", N)
        if len(rows) == 0 or len(set(rows)) != len(rows):
            raise ValueError("rows must be non-empty and distinct")
        if min(rows) < 1 or max(rows) > N:
            raise ValueError(f"rows must lie in 1..{N}")
        object.__setattr__(self, "rows", rows)

    @cached_property
    def _idx(self) -> np.ndarray:
        return np.asarray(self.rows, dtype=np.intp) - 1

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.size)

    def as_dense(self) -> np.ndarray:
        return _idct_entries(self.size, self._idx, np.arange(self.size))

    def columns(self, cols: np.ndarray) -> np.ndarray:
        """The n x len(cols) submatrix of columns ``cols`` (0-based),
        computed without the other columns."""
        return _idct_entries(self.size, self._idx, cols)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return _idct(np.asarray(x, dtype=np.float64))[self._idx]

    def adjoint(self, r: np.ndarray) -> np.ndarray:
        z = np.zeros(self.size)
        z[self._idx] = r
        return _dct(z)


# Either operator kind works anywhere a sensing operator is expected.
SensingOperator = DenseMatrix | RestrictedTransform


@dataclass(frozen=True)
class Measurements:
    """Measurement vector y plus a noise bound epsilon >= 0."""

    y: np.ndarray
    epsilon: float = 0.0

    def __post_init__(self):
        arr = _as_vector(self.y, "y")
        if not np.all(np.isfinite(arr)):
            raise ValueError("measurements must be finite")
        object.__setattr__(self, "y", arr)
        eps = float(self.epsilon)
        check_domain(epsilon=[eps])
        object.__setattr__(self, "epsilon", eps)


@dataclass(frozen=True)
class SupportEstimate:
    """A set of 1-based indices believed to carry most of the signal."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(set(idx)) != len(idx):
            raise ValueError("support indices must be distinct")
        if any(i < 1 for i in idx):
            raise ValueError("support indices are 1-based and must be >= 1")
        object.__setattr__(self, "indices", tuple(sorted(idx)))

    def __len__(self) -> int:
        return len(self.indices)

    def validate_within(self, N: int) -> None:
        if self.indices and self.indices[-1] > N:
            raise ValueError(f"support index {self.indices[-1]} exceeds N={N}")


@dataclass(frozen=True)
class WeightVector:
    """Per-entry weights: omega on the estimated support, 1 elsewhere."""

    omega: float
    estimate: SupportEstimate
    size: int

    def __post_init__(self):
        check_domain(omega=[self.omega], size=[self.size])
        object.__setattr__(self, "omega", float(self.omega))
        object.__setattr__(self, "size", int(self.size))
        self.estimate.validate_within(self.size)

    @cached_property
    def weights(self) -> np.ndarray:
        w = np.ones(self.size, dtype=np.float64)
        if self.estimate.indices:
            w[np.asarray(self.estimate.indices, dtype=np.intp) - 1] = self.omega
        return w


def _weights_array(w, N: int) -> np.ndarray:
    if isinstance(w, WeightVector):
        if w.size != N:
            raise ValueError(f"weight size {w.size} does not match signal length {N}")
        return w.weights
    arr = _as_vector(w, "weights")
    if arr.shape[0] != N:
        raise ValueError(f"weight length {arr.shape[0]} does not match signal length {N}")
    if np.any(arr < 0) or np.any(arr > 1):
        raise ValueError("weights must lie in [0, 1]")
    return arr


def _signal_array(x) -> np.ndarray:
    if isinstance(x, SignalVector):
        return x.entries
    return _as_vector(x, "x")


def weighted_lp_norm(x, w, p: float) -> float:
    """Weighted lp quasi-norm (sum_i w_i^p |x_i|^p)^(1/p) for p in (0, 1].

    Parameters
    ----------
    x : SignalVector or array_like
    w : WeightVector or array_like with entries in [0, 1]
    p : float in (0, 1]
    """
    check_domain(p=[p])
    xa = _signal_array(x)
    wa = _weights_array(w, xa.shape[0])
    total = float(np.sum(wa**p * np.abs(xa) ** p))
    return total ** (1.0 / p)


def best_k_term(x, k: int) -> tuple[SignalVector, tuple[int, ...]]:
    """Keep the k largest-magnitude entries of x, zero the rest.

    Ties break toward the lower index.  Returns the truncated signal and
    the sorted 1-based index set of the kept positions.
    """
    xa = _signal_array(x)
    N = xa.shape[0]
    if not (0 <= k <= N):
        raise ValueError(f"k must lie in 0..{N}, got {k}")
    # stable sort on -|x| keeps the earliest index among equal magnitudes
    order = np.argsort(-np.abs(xa), kind="stable")
    kept = np.sort(order[:k])
    out = np.zeros_like(xa)
    out[kept] = xa[kept]
    support = tuple(int(i) + 1 for i in kept)
    return SignalVector(out), support


def snr_db(x, x_hat, cap_db: float = 300.0) -> float:
    """Reconstruction SNR in dB: 10 log10(||x||^2 / ||x - x_hat||^2).

    Exact reconstruction returns ``cap_db``.  A zero reference signal has
    no meaningful ratio and raises ValueError.
    """
    xa = _signal_array(x)
    ha = _signal_array(x_hat)
    if xa.shape[0] != ha.shape[0]:
        raise ValueError("signal lengths differ")
    ref = float(np.dot(xa, xa))
    if ref == 0.0:
        raise ValueError("reference signal has zero norm")
    err = xa - ha
    err_sq = float(np.dot(err, err))
    if err_sq == 0.0:
        return float(cap_db)
    return 10.0 * np.log10(ref / err_sq)
