"""Core types and primitive operations for sparse recovery problems.

Conventions used throughout the package:

* signals live in R^N, measurements in R^n with n <= N
* index sets (supports, kept transform rows) are 1-based at the API
  boundary; 0-based numpy indexing stays internal
* weight vectors assign a value omega in [0, 1] on an estimated support
  and 1.0 elsewhere
* every input is read by the reader of its kind, the only home of its
  rule; only rules that relate two values, such as n <= N, are written
  where they apply:
  - arrays: ``_as_array`` reads every real vector and matrix, a
    ``DenseMatrix``'s too, and refuses a wrong rank, no entry or a
    non-finite entry, naming the input (and the decoder that reads it);
  - sensing operators: ``_exact_fit``, the reader of every decoder's
    (A, b), refuses an A that is not a ``DenseMatrix`` or
    ``RestrictedTransform``;
  - index sets: ``_as_indices`` refuses a non-integer, a repeat, or an
    index outside 1..N, read against the length it indexes: a support
    estimate by the ``WeightVector`` it weights, kept transform rows by
    their ``RestrictedTransform``;
  - scalar settings (p, omega, alpha, rho, the counts n, k, trials,
    ..., an oracle's k_max and best_k_term's k, the audio fractions
    and rates):
    ``check_domain`` checks them against one domain table and returns
    them as the table keeps them, a count or k_max as int and any other
    setting as float, which is what the config types store
    (``_check_fields``);
  - seeds: ``_check_seed`` takes any integer exactly, never through
    float, and refuses anything else
* an exact fit has one rule, ``_fits``, which every decoder judges a
  fit by: a normwise backward error at most _FEASIBILITY_TOL, with ||y||
  from ``_exact_fit`` and ||A||_2 from the operator's ``_norm2``
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "CswlpError",
    "ConditionViolatedError",
    "OracleInfeasibleError",
    "RankDeficientError",
    "SolverDivergenceError",
    "SignalVector",
    "DenseMatrix",
    "RestrictedTransform",
    "Measurements",
    "WeightVector",
    "best_k_term",
    "check_domain",
    "snr_db",
    "weighted_lp_norm",
]


class CswlpError(Exception):
    """Base class for errors raised by this package."""


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

# The largest normwise backward error of an exact fit (see _fits): above the
# rounding a fit leaves, of order machine epsilon, below a non-fit's error.
# And the SNR at which snr_db caps, which an exact reconstruction reports.
_FEASIBILITY_TOL = 1e-8
_SNR_CAP_DB = 300.0

# the settings that count trials, lengths, sizes and grid
# points: integers >= 1, kept as int, as is an oracle's largest support
# size k_max, an integer >= 0, by whose rule best_k_term reads its k
_COUNTS = ("trials", "N", "n", "k", "block_len", "num_blocks", "num_samples", "size", "count")
_INTEGERS = (*_COUNTS, "k_max")

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
    **dict.fromkeys(_COUNTS, (lambda v: v >= 1.0 and v.is_integer(), "be an integer >= 1")),
    "k_max": (lambda v: v >= 0.0 and v.is_integer(), "be an integer >= 0"),
}


def check_domain(**values) -> dict[str, list]:
    """Each keyword's values as the table keeps them, a count or k_max as
    int and any other setting as float; raise one ValueError naming every
    value outside its domain.

    Each keyword names a parameter of ``_DOMAIN`` and takes a non-empty
    list of its values, each finite and in its domain; a count must be
    an integer >= 1 and k_max one >= 0, though either may be given as a
    float.  When all are, every (alpha, rho) pair of the alpha and rho
    lists must satisfy alpha rho <= 1: an estimate of rho k indices, a
    fraction alpha of them correct, holds at most the support's k correct
    ones (so 1 + rho - 2 alpha rho >= 0, as alpha <= 1).
    """
    values = {name: [float(v) for v in vs] for name, vs in values.items()}
    errors = [f"{name} needs at least one value" for name, vs in values.items() if not vs]
    errors += [
        f"{name} must {_DOMAIN[name][1] if math.isfinite(v) else 'be finite'}, got {v}"
        for name, vs in values.items() for v in vs if not (math.isfinite(v) and _DOMAIN[name][0](v))
    ]
    bad = [f"({alpha}, {rho})" for alpha in values.get("alpha", ()) for rho in values.get("rho", ())
           if alpha * rho > 1.0]
    if bad and not errors:
        errors.append(
            f"alpha rho > 1 at (alpha, rho) = {', '.join(bad)}: such an estimate "
            "would hold more correct entries (alpha rho k) than the support's k"
        )
    if errors:
        raise ValueError("; ".join(errors))
    return {name: [int(v) if name in _INTEGERS else v for v in vs] for name, vs in values.items()}


def _check_fields(obj, *names: str) -> None:
    """Check the fields ``names`` of the frozen dataclass ``obj`` by
    ``check_domain``, a field ``<x>_list`` as the values of ``x`` and a
    None field not at all, and store each as ``check_domain`` returns
    it, a list field as a tuple."""
    given = {name: getattr(obj, name) for name in names if getattr(obj, name) is not None}
    checked = check_domain(**{
        name.removesuffix("_list"): list(v) if name.endswith("_list") else [v] for name, v in given.items()
    })
    for name, values in zip(given, checked.values()):
        object.__setattr__(obj, name, tuple(values) if name.endswith("_list") else values[0])


def _check_seed(obj) -> None:
    """Store the ``seed`` field of the frozen dataclass ``obj`` as an
    int, read exactly and never through float, which would round
    2**70 + 1, so ``_stream`` draws from the seed given; raise
    ValueError naming the seed when it is not an integer."""
    try:
        object.__setattr__(obj, "seed", operator.index(obj.seed))
    except TypeError:
        raise ValueError(f"seed must be an integer, got {obj.seed!r}") from None


def _as_array(values, name: str, ndim: int = 1) -> np.ndarray:
    """``values`` as a non-empty, finite float64 array of ``ndim`` (1 or 2) dimensions."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {('one', 'two')[ndim - 1]}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def _as_indices(values, name: str, N: int) -> tuple[int, ...]:
    """``values`` as 1-based indices, in their order; raises ValueError
    naming ``name`` when one is not an integer (an integral float is),
    repeats, or lies outside 1..N."""
    floats = [float(v) for v in values]
    fraction = next((v for v in floats if not v.is_integer()), None)
    if fraction is not None:
        raise ValueError(f"{name} must be integers, got {fraction}")
    idx = tuple(int(v) for v in floats)
    if len(set(idx)) != len(idx):
        raise ValueError(f"{name} must be distinct")
    outside = [i for i in idx if not 1 <= i <= N]
    if outside:
        raise ValueError(f"{name} must lie in 1..{N}, got {outside[0]}")
    return idx


@dataclass(frozen=True)
class SignalVector:
    """A finite real vector in R^N, N >= 1."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _as_array(self.entries, "signal entries"))


@dataclass(frozen=True)
class DenseMatrix:
    """Sensing operator given by an explicit n x N matrix, n <= N.

    Its first use takes one Householder QR of A^T = Q R, R's singular
    values, the largest being ||A||_2, and R^-1, and from then on it
    holds Q, R^-1 and the singular values, never R.  A rank-deficient A
    holds no R^-1, and each of its projections raises
    RankDeficientError.  Later solves reuse them; the matrix must not be
    changed after that.
    """

    matrix: np.ndarray

    def __post_init__(self):
        arr = _as_array(self.matrix, "matrix", ndim=2)
        n, N = arr.shape
        if n > N:
            raise ValueError(f"matrix must have n <= N, got {n} x {N}")
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

    def project_null(self, d: np.ndarray) -> np.ndarray:
        """d - Q (Q^T d), where the orthonormal columns of Q span the row
        space of A: two matvecs through the one stored N x n array Q, and
        no N x N array."""
        q = self._inverse()[0]
        return d - q @ (q.T @ d)

    def pull_back(self, r: np.ndarray) -> np.ndarray:
        """pinv(A) r = Q R^-T r, the minimum-norm x with A x = r."""
        q, r_inv = self._inverse()
        return q @ (r_inv.T @ r)

    def _inverse(self) -> tuple[np.ndarray, np.ndarray]:
        """Q and R^-1; raises RankDeficientError, on every call, if the
        smallest singular value is below _RANK_TOL times the largest."""
        q, r_inv, s = self._factors
        if r_inv is None:
            ratio = 0.0 if s[0] == 0.0 else float(s[-1] / s[0])
            message = f"sensing matrix is rank deficient: smallest/largest singular value ratio {ratio:.3e}"
            raise RankDeficientError(message)
        return q, r_inv

    @property
    def _norm2(self) -> float:
        """||A||_2, the largest singular value, with no rank check."""
        return float(self._factors[2][0])

    @cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """Q, R^-1 and R's singular values, which are A's, largest first,
        of A^T = Q R; R^-1 is None if A is rank deficient.  R is not kept."""
        q, r = np.linalg.qr(self.matrix.T)
        s = np.linalg.svd(r, compute_uv=False)
        r_inv = np.linalg.inv(r) if s[0] > 0.0 and s[-1] > _RANK_TOL * s[0] else None
        return q, r_inv, s


@lru_cache(maxsize=8)
def _dct_twiddles(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The factors of the one-FFT DCT-II of length N (see
    ``_dct_from_fft_order``).

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
    """Orthonormal DCT-II coefficients of the samples x whose FFT-order
    arrangement (see ``_dct_twiddles``) is v, by one real FFT (Makhoul,
    "A fast cosine transform in one and two dimensions", IEEE TASSP 1980).

    v holds x's even entries followed by its odd entries reversed; its
    FFT V satisfies sum_m x_m cos(pi k (2m + 1) / 2N)
    = Re(exp(-i pi k / 2N) V_k), and the same product's imaginary part at
    k is minus the sum at N - k, so V_0..V_{N//2} give every coefficient.
    """
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


def _idct(c: np.ndarray) -> np.ndarray:
    """Samples from orthonormal DCT-II coefficients, by one inverse real
    FFT: the inverse of the DCT-II, which is its transpose."""
    return _idct_to_fft_order(c)[_dct_twiddles(c.shape[0])[2]]


def _idct_entries(N: int, idx: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Rows ``idx`` and columns ``cols`` (0-based) of the orthonormal
    inverse DCT-II matrix, entry [j, i] = s_k cos(pi k (2 idx_j + 1) / 2N)
    with k = cols_i.  Built in place in one output buffer, so the peak is
    one output-sized array."""
    k = np.asarray(cols, dtype=np.float64)[None, :]
    m = np.asarray(idx, dtype=np.float64)[:, None]
    out = np.multiply(np.pi * k, 2.0 * m + 1.0)
    out /= 2.0 * N
    np.cos(out, out=out)
    out *= np.sqrt(2.0 / N)
    out[:, k[0] == 0.0] = np.sqrt(1.0 / N)
    return out


@dataclass(frozen=True)
class RestrictedTransform:
    """Sensing operator that keeps selected rows of the orthonormal inverse
    DCT-II of length ``size``, so its rows are orthonormal: A A^T = I and
    pinv(A) = A^T.

    ``rows`` are the kept rows (1-based, distinct, in 1..size).  The
    transform is applied by FFT without forming any N x N array.
    """

    rows: tuple[int, ...]
    size: int
    _norm2 = 1.0  # ||A||_2: the rows are orthonormal

    def __post_init__(self):
        _check_fields(self, "size")
        object.__setattr__(self, "rows", _as_indices(self.rows, "rows", self.size))
        if not self.rows:
            raise ValueError("rows must be non-empty")

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

    def project_null(self, d: np.ndarray) -> np.ndarray:
        """d - A^T A d: the transform with the kept samples zeroed, by one
        inverse and one forward real FFT; the zeroing happens in the
        FFT's sample order, so neither transform permutes."""
        v = _idct_to_fft_order(d)
        v[self._pos] = 0.0
        return _dct_from_fft_order(v)

    def pull_back(self, r: np.ndarray) -> np.ndarray:
        """pinv(A) r, which is A^T r for orthonormal rows: r placed at the
        kept samples, in the FFT's sample order, and one forward real FFT."""
        v = np.zeros(self.size)
        v[self._pos] = r
        return _dct_from_fft_order(v)


# Either operator kind works anywhere a sensing operator is expected.
SensingOperator = DenseMatrix | RestrictedTransform


@dataclass(frozen=True)
class Measurements:
    """Measurement vector y plus a noise bound epsilon >= 0."""

    y: np.ndarray
    epsilon: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "y", _as_array(self.y, "measurements"))
        _check_fields(self, "epsilon")


@dataclass(frozen=True)
class WeightVector:
    """Per-entry weights: omega on the estimated support, 1 elsewhere.

    ``estimate`` is the support estimate, any sequence of 1-based indices
    in 1..size, which is stored as a sorted tuple of ints.
    """

    omega: float
    estimate: tuple[int, ...]
    size: int

    def __post_init__(self):
        _check_fields(self, "omega", "size")
        estimate = _as_indices(self.estimate, "estimate indices", self.size)
        object.__setattr__(self, "estimate", tuple(sorted(estimate)))

    @cached_property
    def weights(self) -> np.ndarray:
        w = np.ones(self.size, dtype=np.float64)
        w[np.asarray(self.estimate, dtype=np.intp) - 1] = self.omega
        return w


def _weights_array(w, N: int, name: str = "weights") -> np.ndarray:
    if isinstance(w, WeightVector):
        if w.size != N:
            raise ValueError(f"weight size {w.size} does not match signal length {N}")
        return w.weights
    arr = _as_array(w, name)
    if arr.shape[0] != N:
        raise ValueError(f"{name} length {arr.shape[0]} does not match signal length {N}")
    if np.any(arr < 0) or np.any(arr > 1):
        raise ValueError(f"{name} must lie in [0, 1]")
    return arr


def _signal_array(x, name: str = "x") -> np.ndarray:
    if isinstance(x, SignalVector):
        return x.entries
    return _as_array(x, name)


def _exact_fit(A, b, decoder: str) -> tuple[np.ndarray, float]:
    """y from b and ||y||, by which, with ||A||_2, ``_fits`` judges a
    point; an A that is not a sensing operator, a b with epsilon > 0, a
    plain array b that ``_as_array`` refuses, or a b whose length is not
    A's row count, raises ValueError naming ``decoder``.  ||A||_2 is
    ``A._norm2``, for a DenseMatrix from its one factorization record
    (Q, R^-1 and the singular values), which a decoder reads after its
    last refusal."""
    if not isinstance(A, SensingOperator):
        raise ValueError(f"{decoder}: A must be a DenseMatrix or RestrictedTransform, got {type(A).__name__}")
    if isinstance(b, Measurements) and b.epsilon > 0.0:
        raise ValueError(f"{decoder} fits A x = b exactly; it cannot honour noise bound epsilon={b.epsilon!r}")
    y = b.y if isinstance(b, Measurements) else _as_array(b, f"{decoder}: measurements")
    if y.shape[0] != A.shape[0]:
        raise ValueError(f"{decoder}: measurement length {y.shape[0]} does not match operator rows {A.shape[0]}")
    return y, float(np.linalg.norm(y))


def _fits(r: np.ndarray, x: np.ndarray, a_norm: float, y_norm: float):
    """Whether x fits A x = y, given r = A x - y, ||A||_2 and ||y||: its
    normwise backward error ||r|| / (||A||_2 ||x|| + ||y||) is at most
    _FEASIBILITY_TOL (Rigal & Gaches, J. ACM 1967; Higham, "Accuracy and
    Stability of Numerical Algorithms", 2nd ed., 7.1), a rule unchanged
    when x and y scale together.  Along the last axis, so a stack of
    points gives an array."""
    return np.linalg.norm(r, axis=-1) <= _FEASIBILITY_TOL * (a_norm * np.linalg.norm(x, axis=-1) + y_norm)


def _stream(seed: int, *key: int) -> np.random.Generator:
    """The random stream named by ``key`` under any integer seed, taken modulo 2^64."""
    return np.random.default_rng(np.random.SeedSequence([seed & ((1 << 64) - 1), *key]))


def _weighted_lp_sum(wp: np.ndarray, x: np.ndarray, p: float):
    """The decoder's objective sum_i w_i^p |x_i|^p along the last axis of
    x, given wp = w^p: a float for one signal, an array for a stack."""
    # in one buffer: a stack of fits is scored without a second temporary
    terms = np.abs(x)
    terms **= p
    terms *= wp
    return np.sum(terms, axis=-1)


def _root(total: float, p: float) -> float:
    """total^(1/p), or inf where that leaves the float range, as it can
    for a total above 1 at small p."""
    try:
        return total ** (1.0 / p)
    except OverflowError:
        return math.inf


def weighted_lp_norm(x, w, p: float) -> float:
    """Weighted lp quasi-norm (sum_i w_i^p |x_i|^p)^(1/p) for p in (0, 1];
    inf where it exceeds the float range.

    Parameters
    ----------
    x : SignalVector or array_like
    w : WeightVector or array_like with entries in [0, 1]
    p : float in (0, 1]
    """
    check_domain(p=[p])
    xa = _signal_array(x)
    wa = _weights_array(w, xa.shape[0])
    return _root(float(_weighted_lp_sum(wa**p, xa, p)), p)


def _largest(x: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted 0-based positions of the k largest-magnitude entries
    of x, ties broken toward the lower index, and x with every other
    entry zeroed."""
    # stable sort on -|x| keeps the earliest index among equal magnitudes
    kept = np.sort(np.argsort(-np.abs(x), kind="stable")[:k])
    head = np.zeros_like(x)
    head[kept] = x[kept]
    return kept, head


def best_k_term(x, k: int) -> tuple[SignalVector, tuple[int, ...]]:
    """Keep the k largest-magnitude entries of x, zero the rest.

    Ties break toward the lower index.  Returns the truncated signal and
    the sorted 1-based index set of the kept positions.  k, at most N, is
    read by k_max's rule (an integer >= 0; 2.0 is 2), whose error names k_max.
    """
    xa = _signal_array(x)
    N = xa.shape[0]
    k = check_domain(k_max=[k])["k_max"][0]
    if k > N:
        raise ValueError(f"k must lie in 0..{N}, got {k}")
    kept, head = _largest(xa, k)
    return SignalVector(head), tuple(int(i) + 1 for i in kept)


def snr_db(x, x_hat, cap_db: float = _SNR_CAP_DB) -> float:
    """Reconstruction SNR in dB: 10 log10(||x||^2 / ||x - x_hat||^2),
    capped at ``cap_db``, which exact reconstruction returns.  A zero
    reference signal has no meaningful ratio and raises ValueError.
    """
    xa = _signal_array(x)
    ha = _signal_array(x_hat, "x_hat")
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
