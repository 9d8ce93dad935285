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
from dataclasses import dataclass
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

# The exact-fit tolerance relative to max(1, ||y||) (see _exact_fit), and
# the SNR at which snr_db caps, which an exact reconstruction reports.
_FEASIBILITY_TOL = 1e-8
_SNR_CAP_DB = 300.0

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

    Its projections take one Householder QR of A^T = Q R on first use and
    keep it, so every later solve on the same operator reuses it; the
    matrix must not be changed after that.
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

    def project_null(self, d: np.ndarray) -> np.ndarray:
        """d - Q (Q^T d), where the orthonormal columns of Q span the row
        space of A: two matvecs through the one stored N x n array Q, and
        no N x N array."""
        q = self._factors[0]
        return d - q @ (q.T @ d)

    def pull_back(self, r: np.ndarray) -> np.ndarray:
        """pinv(A) r = Q R^-T r, the minimum-norm x with A x = r."""
        q, r_inv = self._factors
        return q @ (r_inv.T @ r)

    @property
    def _factors(self) -> tuple[np.ndarray, np.ndarray]:
        """Q and R^-1 of A^T = Q R; raises RankDeficientError if the
        smallest singular value of R, which are those of A, is below
        _RANK_TOL times the largest."""
        if isinstance(self._qr, RankDeficientError):
            raise self._qr.with_traceback(None)
        return self._qr

    @cached_property
    def _qr(self) -> tuple[np.ndarray, np.ndarray] | RankDeficientError:
        q, r = np.linalg.qr(self.matrix.T)
        s = np.linalg.svd(r, compute_uv=False)
        if s[0] == 0.0 or s[-1] <= _RANK_TOL * s[0]:
            ratio = 0.0 if s[0] == 0.0 else float(s[-1] / s[0])
            return RankDeficientError(
                f"sensing matrix is rank deficient: smallest/largest singular value ratio {ratio:.3e}"
            )
        return q, np.linalg.inv(r)


@lru_cache(maxsize=8)
def _dct_twiddles(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The factors of the one-FFT DCT-II of length N (see ``_dct``).

    The first two are exp(-i pi k / 2N) times the orthonormal row scale
    s_k (sqrt(1/N) at k = 0, sqrt(2/N) after), and its conjugate over
    s_k, for k = 0..N//2.  The third is each sample's position in the
    FFT's order: its even entries followed by its odd entries reversed.
    """
    k = np.arange(N // 2 + 1, dtype=np.float64)
    scale = np.full(N // 2 + 1, np.sqrt(2.0 / N))
    scale[0] = np.sqrt(1.0 / N)
    twiddle = np.exp(-0.5j * np.pi * k / N)
    m = np.arange(N)
    order = np.where(m % 2 == 0, m // 2, N - 1 - m // 2)
    return twiddle * scale, np.conj(twiddle) / scale, order


def _dct_from_fft_order(v: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II coefficients of the samples whose FFT-order
    arrangement (see ``_dct_twiddles``) is v, by one real FFT."""
    N = v.shape[0]
    z = np.fft.rfft(v)
    z *= _dct_twiddles(N)[0]
    c = np.empty(N)
    c[: N // 2 + 1] = z.real
    np.negative(z.imag[1 : (N + 1) // 2][::-1], out=c[N // 2 + 1 :])
    return c


def _idct_to_fft_order(c: np.ndarray) -> np.ndarray:
    """Samples of the orthonormal DCT-II coefficients c, in FFT order,
    by one inverse real FFT: V_k = exp(i pi k / 2N) (y_k - i y_{N-k})
    with y = c / s and y_N = 0."""
    N = c.shape[0]
    spectrum = np.zeros(N // 2 + 1, dtype=np.complex128)
    spectrum.real = c[: N // 2 + 1]
    np.negative(c[(N + 1) // 2 :][::-1], out=spectrum.imag[1:])
    spectrum *= _dct_twiddles(N)[1]
    return np.fft.irfft(spectrum, n=N)


def _dct(x: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II of x by one real FFT (Makhoul, "A fast cosine
    transform in one and two dimensions", IEEE TASSP 1980).

    Reordering x to its even entries followed by its odd entries reversed
    gives a v whose FFT V satisfies sum_m x_m cos(pi k (2m + 1) / 2N)
    = Re(exp(-i pi k / 2N) V_k); the same product's imaginary part at k
    is minus the sum at N - k, so V_0..V_{N//2} give every coefficient.
    """
    v = np.empty(x.shape[0])
    v[_dct_twiddles(x.shape[0])[2]] = x
    return _dct_from_fft_order(v)


def _idct(c: np.ndarray) -> np.ndarray:
    """Inverse of ``_dct``, which is its transpose: samples from
    orthonormal DCT-II coefficients, by one inverse real FFT."""
    return _idct_to_fft_order(c)[_dct_twiddles(c.shape[0])[2]]


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

    @cached_property
    def _pos(self) -> np.ndarray:
        """The kept samples' positions in the FFT's sample order."""
        return _dct_twiddles(self.size)[2][self._idx]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return _idct_to_fft_order(np.asarray(x, dtype=np.float64))[self._pos]

    def adjoint(self, r: np.ndarray) -> np.ndarray:
        v = np.zeros(self.size)
        v[self._pos] = r
        return _dct_from_fft_order(v)

    def project_null(self, d: np.ndarray) -> np.ndarray:
        """d - A^T A d: the transform with the kept samples zeroed, by one
        inverse and one forward real FFT; the zeroing happens in the
        FFT's sample order, so neither transform permutes."""
        v = _idct_to_fft_order(d)
        v[self._pos] = 0.0
        return _dct_from_fft_order(v)

    def pull_back(self, r: np.ndarray) -> np.ndarray:
        """pinv(A) r, which is A^T r for orthonormal rows."""
        return self.adjoint(r)


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


def _exact_fit(A, b, decoder: str) -> tuple[np.ndarray, float]:
    """y from b, and the limit _FEASIBILITY_TOL max(1, ||y||) under which
    ||A x - y|| counts as an exact fit; a b with epsilon > 0, or whose
    length is not A's row count, raises ValueError naming ``decoder``."""
    if isinstance(b, Measurements) and b.epsilon > 0.0:
        raise ValueError(f"{decoder} fits A x = b exactly; it cannot honour noise bound epsilon={b.epsilon!r}")
    y = b.y if isinstance(b, Measurements) else _signal_array(b)
    if y.shape[0] != A.shape[0]:
        raise ValueError(f"{decoder}: measurement length {y.shape[0]} does not match operator rows {A.shape[0]}")
    return y, _FEASIBILITY_TOL * max(1.0, float(np.linalg.norm(y)))


def _stream(seed: int, *key: int) -> np.random.Generator:
    """The random stream named by ``key`` under any integer seed, taken modulo 2^64."""
    return np.random.default_rng(np.random.SeedSequence([seed & ((1 << 64) - 1), *key]))


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


def snr_db(x, x_hat, cap_db: float = _SNR_CAP_DB) -> float:
    """Reconstruction SNR in dB: 10 log10(||x||^2 / ||x - x_hat||^2),
    capped at ``cap_db``, which exact reconstruction returns.  A zero
    reference signal has no meaningful ratio and raises ValueError.
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
    return min(float(cap_db), float(10.0 * np.log10(ref / err_sq)))
