"""Randomized recovery experiments over (n, alpha, p, omega) grids.

Every random draw flows from one integer seed through named streams
keyed by (seed, n, alpha index, trial).  The stream key deliberately
excludes p and omega, so every (p, omega) combination solves the exact
same instances and comparisons between them are paired.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .core import (
    ConfigError,
    DenseMatrix,
    Measurements,
    RankDeficientError,
    SignalVector,
    SolverDivergenceError,
    SupportEstimate,
    WeightVector,
    best_k_term,
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
    "mean_snr",
    "filter_rows",
    "run_sweep",
    "stderr_snr",
]

_SEED_MASK = (1 << 64) - 1


def gen_sparse_signal(N: int, k: int, rng: np.random.Generator) -> SignalVector:
    """k-sparse signal with uniformly random support and standard normal
    nonzero values."""
    if not (1 <= k <= N):
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
    if d <= 0:
        raise ValueError(f"decay exponent must be positive, got {d}")
    j = np.arange(1, N + 1, dtype=np.float64)
    return SignalVector(j**(-d))


def gen_gaussian_matrix(n: int, N: int, rng: np.random.Generator) -> DenseMatrix:
    """n x N matrix with i.i.d. N(0, 1/n) entries."""
    if not (1 <= n <= N):
        raise ValueError(f"need 1 <= n <= N, got n={n}, N={N}")
    return DenseMatrix(rng.standard_normal((n, N)) / np.sqrt(n))


def gen_noise_on_sphere(n: int, level: float, x, rng: np.random.Generator) -> np.ndarray:
    """Noise vector with ||e|| exactly level * ||x|| and uniform direction."""
    if level < 0:
        raise ValueError("noise level must be >= 0")
    ref = x.entries if isinstance(x, SignalVector) else np.asarray(x, dtype=np.float64)
    g = rng.standard_normal(n)
    while not np.any(g):
        g = rng.standard_normal(n)
    return g * (level * float(np.linalg.norm(ref)) / float(np.linalg.norm(g)))


def gen_support_estimate(
    T0, alpha: float, rho: float, N: int, rng: np.random.Generator
) -> SupportEstimate:
    """Support estimate of size round(rho*k) with round(alpha*size)
    indices drawn from the true support T0 (1-based) and the rest from
    its complement."""
    true = sorted(int(i) for i in T0)
    k = len(true)
    if k == 0:
        raise ValueError("true support must be non-empty")
    if any(i < 1 or i > N for i in true):
        raise ValueError("true support indices must lie in 1..N")
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    total = int(round(rho * k))
    inside = int(round(alpha * rho * k))
    outside = total - inside
    if inside > k:
        raise ValueError(f"estimate needs {inside} true indices but the support has only {k}")
    if outside > N - k:
        raise ValueError(
            f"estimate needs {outside} indices outside a true support of size {k} in 1..{N}"
        )
    pick_in = rng.choice(np.asarray(true, dtype=np.int64), size=inside, replace=False)
    complement = np.setdiff1d(np.arange(1, N + 1, dtype=np.int64), np.asarray(true, dtype=np.int64))
    pick_out = rng.choice(complement, size=outside, replace=False)
    return SupportEstimate(tuple(int(i) for i in np.concatenate([pick_in, pick_out])))


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
        if any(not float(v).is_integer() for v in self.n_list):
            raise ValueError(f"every n must be an integer, got {self.n_list}")
        object.__setattr__(self, "n_list", tuple(int(v) for v in self.n_list))
        object.__setattr__(self, "alpha_list", tuple(float(v) for v in self.alpha_list))
        object.__setattr__(self, "omega_list", tuple(float(v) for v in self.omega_list))
        object.__setattr__(self, "p_list", tuple(float(v) for v in self.p_list))
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if not self.n_list or any(not (1 <= n <= self.N) for n in self.n_list):
            raise ValueError("every n must lie in 1..N")
        if not (1 <= self.k <= self.N):
            raise ValueError("k must lie in 1..N")
        if self.signal_kind not in ("sparse", "compressible"):
            raise ValueError(f"unknown signal kind {self.signal_kind!r}")
        if self.signal_kind == "compressible" and (self.decay is None or not (self.decay > 0)):
            raise ValueError("compressible signals need a positive decay exponent")
        if not (self.noise_frac >= 0 and math.isfinite(self.noise_frac)):
            raise ValueError(f"noise_frac must be finite and >= 0, got {self.noise_frac}")
        if not self.alpha_list or any(not (0.0 <= a <= 1.0) for a in self.alpha_list):
            raise ValueError("every alpha must lie in [0, 1]")
        if not (self.rho >= 0 and math.isfinite(self.rho)):
            raise ValueError(f"rho must be finite and >= 0, got {self.rho}")
        if not self.omega_list or any(not (0.0 <= w <= 1.0) for w in self.omega_list):
            raise ValueError("every omega must lie in [0, 1]")
        if not self.p_list or any(not (0.0 < p <= 1.0) for p in self.p_list):
            raise ValueError("every p must lie in (0, 1]")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass(frozen=True)
class SweepRow:
    n: int
    p: float
    omega: float
    alpha_req: float
    alpha_real: float
    rho: float
    trial: int
    snr_db: float
    iters: int
    stop_reason: str
    wall_ms: float
    status: str

    def as_csv_fields(self) -> tuple[str, ...]:
        # fields declared float print as repr(float(v)): an int there
        # still prints as a float, and an np.float64 snr_db has its own repr
        return tuple(
            repr(float(getattr(self, f.name))) if f.type == "float" else str(getattr(self, f.name))
            for f in fields(self)
        )


CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    rows: list[SweepRow]

    def to_csv(self, path) -> None:
        lines = [",".join(CSV_COLUMNS)]
        lines.extend(",".join(row.as_csv_fields()) for row in self.rows)
        Path(path).write_text("\n".join(lines) + "\n")


def filter_rows(rows, **match):
    """Rows whose named fields equal the given values (floats compared
    within 1e-12)."""
    out = []
    for row in rows:
        keep = True
        for key, want in match.items():
            have = getattr(row, key)
            if isinstance(want, float) or isinstance(have, float):
                keep = abs(float(have) - float(want)) <= 1e-12
            else:
                keep = have == want
            if not keep:
                break
        if keep:
            out.append(row)
    return out


def _snr_values(rows) -> np.ndarray:
    """SNRs of the rows; raises ValueError naming the failed rows, whose
    -inf would otherwise decide the statistic."""
    rows = list(rows)
    failed = sum(row.status == "failed" for row in rows)
    if failed:
        raise ValueError(f"{failed} of {len(rows)} rows failed; their SNR is undefined")
    return np.asarray([row.snr_db for row in rows], dtype=np.float64)


def mean_snr(rows) -> float:
    vals = _snr_values(rows)
    if not vals.size:
        raise ValueError("no rows to average")
    return float(np.mean(vals))


def stderr_snr(rows) -> float:
    vals = _snr_values(rows)
    if vals.size < 2:
        return 0.0
    return float(np.std(vals, ddof=1) / np.sqrt(vals.size))


def _instance_rng(seed: int, n: int, alpha_idx: int, trial: int) -> np.random.Generator:
    key = [seed & _SEED_MASK, int(n), int(alpha_idx), int(trial)]
    return np.random.default_rng(np.random.SeedSequence(key))


def _task_rows(spec: ExperimentSpec, base_cfg: SolverConfig, n: int, alpha_idx: int, trial: int) -> list[SweepRow]:
    alpha = spec.alpha_list[alpha_idx]
    rng = _instance_rng(spec.seed, n, alpha_idx, trial)
    if spec.signal_kind == "sparse":
        x = gen_sparse_signal(spec.N, spec.k, rng)
    else:
        x = gen_compressible_signal(spec.N, float(spec.decay))
    T0 = best_k_term(x, spec.k)[1]
    A = gen_gaussian_matrix(n, spec.N, rng)
    e = gen_noise_on_sphere(n, spec.noise_frac, x, rng)
    estimate = gen_support_estimate(T0, alpha, spec.rho, spec.N, rng)
    y = Measurements(A.matrix @ x.entries + e)

    size = len(estimate)
    overlap = len(set(estimate.indices) & set(T0))
    alpha_real = overlap / size if size else 0.0
    rho_real = size / spec.k

    rows: list[SweepRow] = []
    for p in spec.p_list:
        cfg = replace(base_cfg, p=p)
        for omega in spec.omega_list:
            w = WeightVector(omega=omega, estimate=estimate, size=spec.N)
            start = time.perf_counter()
            snr, iters, status = float("-inf"), 0, "failed"
            try:
                x_hat, trace = solve(A, y, w, cfg)
            except SolverDivergenceError:
                stop_reason = "diverged"
            except RankDeficientError:
                stop_reason = "rank_deficient"
            else:
                snr = snr_db(x, x_hat, cfg.snr_cap_db)
                iters, stop_reason, status = len(trace), trace.stop_reason, "ok"
            wall_ms = (time.perf_counter() - start) * 1e3
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
                    iters=iters,
                    stop_reason=stop_reason,
                    wall_ms=wall_ms,
                    status=status,
                )
            )
    return rows


def run_sweep(spec: ExperimentSpec, base_cfg: SolverConfig | None = None, *, threads: int = 1) -> ExperimentResult:
    """Solve the full (n, alpha, trial) x (p, omega) grid, in grid order.

    Each row's stop_reason says why its solve's first run stopped (see
    SolverTrace.stop_reason).  Solves that diverge or hit a
    rank-deficient matrix become status="failed" rows with snr_db=-inf
    and stop_reason "diverged" or "rank_deficient".
    """
    # kept only until the benchmark stops passing threads=1
    if threads != 1:
        raise ValueError(f"run_sweep is serial; threads must be 1, got {threads}")
    if base_cfg is None:
        base_cfg = SolverConfig(p=spec.p_list[0])
    rows = [
        row
        for n in spec.n_list
        for alpha_idx in range(len(spec.alpha_list))
        for trial in range(spec.trials)
        for row in _task_rows(spec, base_cfg, n, alpha_idx, trial)
    ]
    return ExperimentResult(spec=spec, rows=rows)


_COMPRESSIBLE_RE = re.compile(r"^compressible\(([-0-9.eE+]+)\)$")

_LIST_KEYS = {"n", "alpha", "omega", "p"}
_INT_KEYS = {"N", "k", "trials", "seed"}
_FLOAT_KEYS = {"noise_frac", "rho"}
_ALL_KEYS = _LIST_KEYS | _INT_KEYS | _FLOAT_KEYS | {"signal_kind"}


def load_experiment_spec(path) -> ExperimentSpec:
    """Parse a flat key=value config file into an ExperimentSpec.

    Lists use commas (``n = 100, 140, 200``); ``signal_kind`` is either
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
        if key not in _ALL_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = val
    missing = sorted(_ALL_KEYS - set(values))
    if missing:
        raise ConfigError(f"{path}: missing keys: {', '.join(missing)}")

    def floats(key: str) -> tuple[float, ...]:
        try:
            return tuple(float(v) for v in values[key].split(","))
        except ValueError as exc:
            raise ConfigError(f"{path}: bad value for {key!r}: {values[key]!r}") from exc

    def one_int(key: str) -> int:
        try:
            return int(values[key])
        except ValueError as exc:
            raise ConfigError(f"{path}: bad value for {key!r}: {values[key]!r}") from exc

    def one_float(key: str) -> float:
        try:
            return float(values[key])
        except ValueError as exc:
            raise ConfigError(f"{path}: bad value for {key!r}: {values[key]!r}") from exc

    kind_raw = values["signal_kind"]
    decay = None
    if kind_raw == "sparse":
        kind = "sparse"
    else:
        m = _COMPRESSIBLE_RE.match(kind_raw)
        if not m:
            raise ConfigError(f"{path}: bad value for 'signal_kind': {kind_raw!r}")
        kind = "compressible"
        decay = float(m.group(1))

    try:
        return ExperimentSpec(
            N=one_int("N"),
            n_list=floats("n"),
            k=one_int("k"),
            signal_kind=kind,
            decay=decay,
            noise_frac=one_float("noise_frac"),
            alpha_list=floats("alpha"),
            rho=one_float("rho"),
            omega_list=floats("omega"),
            p_list=floats("p"),
            trials=one_int("trials"),
            seed=one_int("seed"),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
