"""The three benchmark workloads: sweep, audio and validate.

Each workload is cut into units that the harness runs one after another;
``unit_seconds`` is a unit's nominal time on a 2-core machine, from
which the harness sizes a run.  Unit i draws its inputs from
``unit_seed(seed, i)``, so one seed always gives the same sequence of
inputs.  Every workload calls the package through module attributes
(``experiments.run_sweep``, ``solver.solve`` and so on), which is where
the harness attaches its checks and spans.  All run single-process with
``threads=1``: the solver holds the GIL, so a thread pool only adds
contention on a 2-core machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from cswlp import audio, experiments, oracle, solver
from cswlp.core import CswlpError, DenseMatrix, snr_db

_SEED_MASK = (1 << 64) - 1

# Solves at or above this SNR against their reference count as recovered.
# Sweep and validate clip each solve's SNR here before averaging, so that
# their mean SNR follows the share recovered rather than the precision
# of solves that already succeed.
RECOVERED_DB = 60.0


def unit_seed(seed: int, index: int) -> int:
    """Seed of unit ``index`` in a run started from ``seed``."""
    state = np.random.SeedSequence([seed & _SEED_MASK, index]).generate_state(1, dtype=np.uint64)
    return int(state[0])


@dataclass
class Outcome:
    """What one unit did and how well.

    ``snrs`` holds one SNR per successful solve (sweep, validate) or per
    clip (audio); ``hits`` counts recovered solves (sweep) or oracle
    matches (validate).
    """

    attempted: int = 0
    failed: int = 0
    snrs: list[float] = field(default_factory=list)
    hits: int = 0


class Sweep:
    """A criterion-6 shaped ``run_sweep`` grid, one trial per unit.

    Each unit draws one Gaussian instance per n and solves it for every
    (p, omega) cell, so the instance's SVD is shared by six solves.
    """

    hit_metric = "recovered_frac"
    # 0.49-0.58 over 40 seeds of 8 to 12 units; a lower share in an
    # untraced run means the solver lost accuracy, and the run is not correct
    hit_floor = 0.45
    unit_seconds = 2.5

    def __init__(self, seed: int, N=500, k=40, n_list=(100, 140, 200)):
        self.seed = seed
        self.N, self.k, self.n_list = N, k, tuple(n_list)

    def prepare(self) -> None:
        self._spec(0)

    def _spec(self, index: int) -> experiments.ExperimentSpec:
        return experiments.ExperimentSpec(
            N=self.N, n_list=self.n_list, k=self.k, signal_kind="sparse", decay=None,
            noise_frac=0.0, alpha_list=(0.7,), rho=1.0, omega_list=(0.0, 0.5, 1.0),
            p_list=(0.5, 1.0), trials=1, seed=unit_seed(self.seed, index),
        )

    def run_unit(self, index: int) -> Outcome:
        result = experiments.run_sweep(self._spec(index), threads=1)
        out = Outcome(attempted=len(result.rows))
        for row in result.rows:
            if row.status != "ok" or not np.isfinite(row.snr_db):
                out.failed += 1
                continue
            out.snrs.append(min(float(row.snr_db), RECOVERED_DB))
            out.hits += row.snr_db >= RECOVERED_DB
        return out


class Audio:
    """``recover_clip`` on a synthetic voice-like clip at one (p, omega).

    A unit is a fresh clip of ``blocks`` blocks.  With a single
    combination every block pays for its own 2048-wide SVD, as a
    streaming decoder would.
    """

    hit_metric = None
    unit_seconds = 5.0

    def __init__(self, seed: int, block_len=2048, blocks=3):
        self.seed = seed
        self.block_len, self.blocks = block_len, blocks

    def _clip(self, index: int) -> tuple[audio.AudioPipelineConfig, np.ndarray]:
        s = unit_seed(self.seed, index)
        cfg = audio.AudioPipelineConfig(
            block_len=self.block_len, num_blocks=self.blocks, keep_frac=0.25,
            p_list=(0.5,), omega_list=(0.5,), seed=s,
        )
        return cfg, audio.synthesize_speech_like(self.blocks * self.block_len, seed=s)

    def prepare(self) -> None:
        audio.dct_matrix.cache_clear()
        audio.dct_matrix(self.block_len)
        self._clip(0)

    def run_unit(self, index: int) -> Outcome:
        cfg, samples = self._clip(index)
        try:
            rows, _ = audio.recover_clip(samples, cfg, threads=1)
        except (CswlpError, ValueError):
            # a clip that raises (numpy's LinAlgError is a ValueError)
            # gives no block back
            return Outcome(attempted=self.blocks, failed=self.blocks)
        snr = float(rows[0].snr_db)
        if not np.isfinite(snr):
            return Outcome(attempted=self.blocks, failed=self.blocks)
        return Outcome(attempted=self.blocks, snrs=[snr])


class Validate:
    """Criterion-3 shaped tiny instances checked against the exhaustive
    weighted-lp oracle.

    A unit draws one instance per k and solves it with unit weights and
    with weight 0.3 on the true support.  A solve matches when the
    entries above 1e-4 of its largest one sit exactly on the oracle's
    support.
    """

    hit_metric = "oracle_match_rate"
    # 0.855-0.945 over 40 seeds of 80 to 100 units; a lower rate in an
    # untraced run is not correct
    hit_floor = 0.80
    unit_seconds = 0.25
    N, n, k_list = 10, 6, (1, 2)

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = solver.SolverConfig(p=0.5)

    def prepare(self) -> None:
        list(self._instances(0))

    def _instances(self, index: int):
        rng = np.random.default_rng(unit_seed(self.seed, index))
        for k in self.k_list:
            A = rng.standard_normal((self.n, self.N)) / np.sqrt(self.n)
            support = np.sort(rng.choice(self.N, size=k, replace=False))
            x = np.zeros(self.N)
            x[support] = rng.standard_normal(k)
            yield DenseMatrix(A), A @ x, support

    def run_unit(self, index: int) -> Outcome:
        out = Outcome()
        for A, y, support in self._instances(index):
            for omega in (1.0, 0.3):
                w = np.ones(self.N)
                w[support] = omega
                out.attempted += 1
                try:
                    ref = oracle.oracle_weighted_lp(A, y, w, self.cfg.p, 4)
                    x_hat, _ = solver.solve(A, y, w, self.cfg)
                except (CswlpError, ValueError):
                    # oracle-infeasible instances and solves that raise
                    out.failed += 1
                    continue
                mags = np.abs(x_hat.entries)
                found = tuple(int(i) + 1 for i in np.flatnonzero(mags > 1e-4 * mags.max()))
                out.hits += found == ref.support
                out.snrs.append(min(snr_db(ref.minimizer, x_hat, self.cfg.snr_cap_db), RECOVERED_DB))
        return out


WORKLOADS = {"sweep": Sweep, "audio": Audio, "validate": Validate}
