"""Randomized recovery experiments over (n, alpha, p, omega) grids.

Every random draw flows from one integer seed through named streams
keyed by (seed, n, alpha index, trial).  The stream key deliberately
excludes p and omega, so every (p, omega) combination solves the exact
same instances and comparisons between them are paired.

``run_sweep`` returns the rows and writes no file; ``cswlp sweep`` (in
``cswlp.cli``) writes them as ``sweep.csv``, one column per ``SweepRow``
field.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    ConfigError,
    DenseMatrix,
    Measurements,
    RankDeficientError,
    SignalVector,
    SolverDivergenceError,
    WeightVector,
    _as_indices,
    _check_fields,
    _root,
    _signal_array,
    _stream,
    _weighted_lp_sum,
    best_k_term,
    check_domain,
    snr_db,
)
from .solver import SolverConfig, solve
# kept only until the benchmark tracer stops binding it
from .solver import _projector_parts  # noqa: F401

__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "SweepRow",
    "gen_compressible_signal",
    "gen_gaussian_matrix",
    "gen_noise_on_sphere",
    "gen_sparse_signal",
    "gen_support_estimate",
    "load_experiment_spec",
    "run_sweep",
]

def gen_sparse_signal(N: int, k: int, rng: np.random.Generator) -> SignalVector:
    """k-sparse signal with uniformly random support and standard normal
    nonzero values."""
    [N], [k] = check_domain(N=[N], k=[k]).values()
    if k > N:
        raise ValueError(f"k must lie in 1..{N}, got {k}")
    support = rng.choice(N, size=k, replace=False)
    values = rng.standard_normal(k)
    while np.any(values == 0.0):  # keep exactly k nonzeros
        values[values == 0.0] = rng.standard_normal(int(np.sum(values == 0.0)))
    x = np.zeros(N, dtype=np.float64)
    x[support] = values
    return SignalVector(x)


def gen_compressible_signal(N: int, d: float) -> SignalVector:
    """Deterministic power-law decay x_j = j^(-d), j = 1..N."""
    [N], [d] = check_domain(N=[N], decay=[d]).values()
    j = np.arange(1, N + 1, dtype=np.float64)
    return SignalVector(j**(-d))


def gen_gaussian_matrix(n: int, N: int, rng: np.random.Generator) -> DenseMatrix:
    """n x N matrix with i.i.d. N(0, 1/n) entries."""
    [n], [N] = check_domain(n=[n], N=[N]).values()
    if n > N:
        raise ValueError(f"need 1 <= n <= N, got n={n}, N={N}")
    return DenseMatrix(rng.standard_normal((n, N)) / np.sqrt(n))


def gen_noise_on_sphere(n: int, level: float, x, rng: np.random.Generator) -> np.ndarray:
    """Noise vector with ||e|| exactly level * ||x|| and uniform direction."""
    [n], [level] = check_domain(n=[n], noise_frac=[level]).values()
    g = rng.standard_normal(n)
    while not np.any(g):
        g = rng.standard_normal(n)
    return g * (level * float(np.linalg.norm(_signal_array(x))) / float(np.linalg.norm(g)))


def _estimate_counts(k: int, alpha: float, rho: float, N: int) -> tuple[int, int]:
    """How many indices an estimate of size round(rho*k) and accuracy
    alpha draws from a true support of size k in 1..N, and how many from
    the N - k others; raises ValueError when the others are too few.
    The caller has checked alpha rho <= 1 (``check_domain``), so the
    true support always holds enough."""
    inside = int(round(alpha * rho * k))
    outside = int(round(rho * k)) - inside
    if outside > N - k:
        raise ValueError(
            f"an estimate at (alpha, rho) = ({alpha}, {rho}) needs {inside} of the {k} true indices "
            f"and {outside} of the {N - k} others in 1..{N}"
        )
    return inside, outside


def gen_support_estimate(
    T0, alpha: float, rho: float, N: int, rng: np.random.Generator
) -> tuple[int, ...]:
    """Support estimate of size round(rho*k), as sorted 1-based indices:
    round(alpha*rho*k) of them drawn from the true support T0 (1-based,
    k indices) and the rest from its complement (``_estimate_counts``)."""
    [alpha], [rho], [N] = check_domain(alpha=[alpha], rho=[rho], N=[N]).values()
    true = sorted(_as_indices(T0, "true support indices", N))
    k = len(true)
    if k == 0:
        raise ValueError("true support must be non-empty")
    inside, outside = _estimate_counts(k, alpha, rho, N)
    pick_in = rng.choice(np.asarray(true, dtype=np.int64), size=inside, replace=False)
    complement = np.setdiff1d(np.arange(1, N + 1, dtype=np.int64), np.asarray(true, dtype=np.int64))
    pick_out = rng.choice(complement, size=outside, replace=False)
    return tuple(sorted(int(i) for i in np.concatenate([pick_in, pick_out])))


@dataclass(frozen=True)
class ExperimentSpec:
    """Grid description for one sweep."""

    N: int
    n_list: tuple[int, ...]
    k: int
    signal_kind: str  # "sparse" or "compressible"
    decay: float | None
    noise_frac: float
    alpha_list: tuple[float, ...]
    rho: float
    omega_list: tuple[float, ...]
    p_list: tuple[float, ...]
    trials: int
    seed: int

    def __post_init__(self):
        if self.signal_kind not in ("sparse", "compressible"):
            raise ValueError(f"unknown signal kind {self.signal_kind!r}")
        # a sparse signal has no decay exponent to check
        decay = ("decay",) if self.signal_kind == "compressible" else ()
        if decay and self.decay is None:
            raise ValueError("compressible signals need a decay exponent")
        if not decay and self.decay is not None:
            raise ValueError(f"sparse signals take no decay exponent, got {self.decay!r}")
        _check_fields(self, "N", "n_list", "k", "trials", "p_list", "omega_list", "alpha_list", "rho",
                      "noise_frac", *decay)
        if max(self.n_list) > self.N:
            raise ValueError("every n must lie in 1..N")
        if self.k > self.N:
            raise ValueError("k must lie in 1..N")
        # refuse an estimate no instance can draw before any solve
        for alpha in self.alpha_list:
            _estimate_counts(self.k, alpha, self.rho, self.N)


@dataclass(frozen=True)
class SweepRow:
    """One solve of a sweep.  ``norm_ratio`` is ||x_hat||_{p,w} / ||x||_{p,w}
    on the solve's result: the true x is feasible when there is no noise,
    so a ratio above 1 by more than rounding certifies that the solver
    missed a better point.
    It is NaN when ``noise_frac > 0`` or the solve failed, inf when only
    x_hat has weight, and 1.0 when neither has."""

    n: int
    p: float
    omega: float
    alpha_req: float
    alpha_real: float
    rho: float
    trial: int
    snr_db: float
    norm_ratio: float
    iters: int
    stop_reason: str
    status: str


@dataclass
class ExperimentResult:
    rows: list[SweepRow]


def _instance_rng(seed: int, n: int, alpha_idx: int, trial: int) -> np.random.Generator:
    return _stream(seed, int(n), int(alpha_idx), int(trial))


def _norm_ratio(ours: float, truth: float, p: float) -> float:
    """||x_hat||_{p,w} / ||x||_{p,w} from the sums ours and truth, their
    p-th powers (see SweepRow).  Where a norm leaves the float range, as
    at small p, it is the root of the sums' ratio, so no two overflowing
    roots are divided."""
    roots = _root(ours, p), _root(truth, p)
    if math.inf in roots and truth:
        return _root(ours / truth, p)
    return roots[0] / roots[1] if roots[1] else (math.inf if roots[0] else 1.0)


def _task_rows(spec: ExperimentSpec, n: int, alpha_idx: int, trial: int) -> list[SweepRow]:
    alpha = spec.alpha_list[alpha_idx]
    rng = _instance_rng(spec.seed, n, alpha_idx, trial)
    if spec.signal_kind == "sparse":
        x = gen_sparse_signal(spec.N, spec.k, rng)
    else:
        x = gen_compressible_signal(spec.N, spec.decay)
    T0 = best_k_term(x, spec.k)[1]
    A = gen_gaussian_matrix(n, spec.N, rng)
    e = gen_noise_on_sphere(n, spec.noise_frac, x, rng)
    estimate = gen_support_estimate(T0, alpha, spec.rho, spec.N, rng)
    y = Measurements(A.apply(x.entries) + e)

    size = len(estimate)
    overlap = len(set(estimate) & set(T0))
    alpha_real = overlap / size if size else 0.0
    rho_real = size / spec.k

    rows: list[SweepRow] = []
    for p in spec.p_list:
        cfg = SolverConfig(p=p)
        for omega in spec.omega_list:
            w = WeightVector(omega=omega, estimate=estimate, size=spec.N)
            snr, iters, status = float("-inf"), 0, "failed"
            try:
                x_hat, trace = solve(A, y, w, cfg)
            except SolverDivergenceError:
                stop_reason = "diverged"
            except RankDeficientError:
                stop_reason = "rank_deficient"
            else:
                snr = snr_db(x, x_hat)
                iters, stop_reason, status = len(trace), trace.stop_reason, "ok"
            ratio = math.nan
            if status == "ok" and spec.noise_frac == 0.0:
                wp = w.weights**p
                ours, truth = (float(_weighted_lp_sum(wp, v.entries, p)) for v in (x_hat, x))
                ratio = _norm_ratio(ours, truth, p)
            rows.append(
                SweepRow(
                    n=n,
                    p=p,
                    omega=omega,
                    alpha_req=alpha,
                    alpha_real=alpha_real,
                    rho=rho_real,
                    trial=trial,
                    snr_db=snr,
                    norm_ratio=ratio,
                    iters=iters,
                    stop_reason=stop_reason,
                    status=status,
                )
            )
    return rows


def run_sweep(spec: ExperimentSpec, *, threads: int = 1) -> ExperimentResult:
    """Solve the full (n, alpha, trial) x (p, omega) grid, in grid order.

    Each row's stop_reason says why its solve's first run stopped (see
    SolverTrace.stop_reason).  Solves that diverge or hit a
    rank-deficient matrix become status="failed" rows with snr_db=-inf
    and stop_reason "diverged" or "rank_deficient".
    """
    # kept only until the benchmark stops passing threads=1
    if threads != 1:
        raise ValueError(f"run_sweep is serial; threads must be 1, got {threads}")
    rows = [
        row
        for n in spec.n_list
        for alpha_idx in range(len(spec.alpha_list))
        for trial in range(spec.trials)
        for row in _task_rows(spec, n, alpha_idx, trial)
    ]
    return ExperimentResult(rows=rows)


_COMPRESSIBLE_RE = re.compile(r"^compressible\(([-0-9.eE+]+)\)$")


def _parse_grid(text: str) -> tuple[float, ...]:
    """A grid, as config-file lists and CLI flags both give it:
    comma-separated values, where a token start:stop:count expands to a
    linspace, so "0:1:5" means 0, 0.25, 0.5, 0.75, 1.  An empty token
    raises ValueError."""
    values: list[float] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ValueError(f"empty grid token in {text!r}")
        if ":" in token:
            parts = token.split(":")
            if len(parts) != 3:
                raise ValueError(f"grid token {token!r} must be start:stop:count")
            start, stop, count = (float(part) for part in parts)
            [count] = check_domain(count=[count])["count"]
            values.extend(float(v) for v in np.linspace(start, stop, count))
        else:
            values.append(float(token))
    return tuple(values)


def _signal_kind(text: str) -> tuple[str, float | None]:
    """``sparse``, or ``compressible(d)`` with its decay exponent d."""
    if text == "sparse":
        return "sparse", None
    m = _COMPRESSIBLE_RE.match(text)
    if not m:
        raise ValueError(text)
    return "compressible", float(m.group(1))


# each config key: the ExperimentSpec field it sets and how its text
# converts; signal_kind sets both signal_kind and decay
_CONFIG_KEYS = {
    "signal_kind": ("signal_kind", _signal_kind),
    "N": ("N", int),
    "n": ("n_list", _parse_grid),
    "k": ("k", int),
    "noise_frac": ("noise_frac", float),
    "alpha": ("alpha_list", _parse_grid),
    "rho": ("rho", float),
    "omega": ("omega_list", _parse_grid),
    "p": ("p_list", _parse_grid),
    "trials": ("trials", int),
    "seed": ("seed", int),
}


def load_experiment_spec(path) -> ExperimentSpec:
    """Parse a flat key=value config file into an ExperimentSpec.

    Lists take the grid syntax of ``_parse_grid`` (``n = 100, 140, 200``,
    ``omega = 0:1:3``); ``signal_kind`` is either
    ``sparse`` or ``compressible(d)``.  Unknown or missing keys raise
    ConfigError naming the key.
    """
    text = Path(path).read_text()
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = val
    missing = sorted(set(_CONFIG_KEYS) - set(values))
    if missing:
        raise ConfigError(f"{path}: missing keys: {', '.join(missing)}")

    settings = {}
    for key, (name, convert) in _CONFIG_KEYS.items():
        try:
            settings[name] = convert(values[key])
        except ValueError as exc:
            raise ConfigError(f"{path}: bad value for {key!r}: {values[key]!r}") from exc
    settings["signal_kind"], settings["decay"] = settings["signal_kind"]
    try:
        return ExperimentSpec(**settings)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
