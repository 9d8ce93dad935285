"""Block-wise recovery of subsampled audio from random time samples.

A clip is cut into fixed-length blocks; within each block a random
subset of time samples is kept and the block's orthonormal DCT-II
coefficients are recovered by the weighted lp solver.  The support
estimate for a block is the fixed low-frequency band below a cutoff
plus the largest coefficients recovered from the previous block, so the
estimate tracks the signal as it moves.

``recover_clip`` returns SNR rows and reconstructed waveforms and
writes no file; ``cswlp audio`` (in ``cswlp.cli``) reads the input
WAV, writes ``audio_snr.csv`` and one WAV per (p, omega), and names
them.  This module keeps only the mono 16-bit PCM encoding.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    Measurements,
    RestrictedTransform,
    SignalVector,
    SupportEstimate,
    WeightVector,
    _SNR_CAP_DB,
    _idct,
    _idct_entries,
    _stream,
    best_k_term,
    check_domain,
    snr_db,
)
from .solver import SolverConfig, solve
# kept only until the benchmark tracer stops binding it
from .solver import _projector_parts  # noqa: F401

__all__ = [
    "AudioPipelineConfig",
    "AudioRow",
    "build_block_problem",
    "dct_matrix",
    "lowfreq_support",
    "read_wav_mono",
    "recover_clip",
    "synthesize_speech_like",
    "write_wav_mono",
]

@lru_cache(maxsize=4)
def dct_matrix(N: int) -> np.ndarray:
    """Orthonormal DCT-II analysis matrix D: coefficients = D @ samples.

    D @ D.T = I, so D.T maps coefficients back to samples.
    """
    check_domain(N=[N])
    return _idct_entries(N, np.arange(N), np.arange(N)).T


@dataclass(frozen=True)
class AudioPipelineConfig:
    """Block recovery settings.

    ``keep_frac`` of each block's samples are measured; the support
    estimate is every DCT bin below ``lowfreq_cutoff_hz`` plus the top
    ``prev_block_keep`` fraction (of the per-block measurement count) of
    the previous block's recovered coefficients.
    """

    block_len: int = 2048
    num_blocks: int = 21
    keep_frac: float = 0.25
    lowfreq_cutoff_hz: float = 4000.0
    sample_rate_hz: float = 44100.0
    prev_block_keep: float = 1.0 / 16.0
    p_list: tuple[float, ...] = (0.5,)
    omega_list: tuple[float, ...] = tuple(i / 6.0 for i in range(7))
    seed: int = 0

    def __post_init__(self):
        check_domain(block_len=[self.block_len], num_blocks=[self.num_blocks], keep_frac=[self.keep_frac],
                     lowfreq_cutoff_hz=[self.lowfreq_cutoff_hz], sample_rate_hz=[self.sample_rate_hz],
                     prev_block_keep=[self.prev_block_keep], p=self.p_list, omega=self.omega_list)
        object.__setattr__(self, "block_len", int(self.block_len))
        object.__setattr__(self, "num_blocks", int(self.num_blocks))
        object.__setattr__(self, "p_list", tuple(float(v) for v in self.p_list))
        object.__setattr__(self, "omega_list", tuple(float(v) for v in self.omega_list))
        if self.lowfreq_cutoff_hz > self.sample_rate_hz / 2.0:
            raise ValueError("cutoff must lie in [0, sample_rate/2]")
        if self.samples_per_block < 1:
            raise ValueError(
                f"keep_frac * block_len must round to at least one kept sample, "
                f"got keep_frac={self.keep_frac!r}, block_len={self.block_len}"
            )

    @property
    def samples_per_block(self) -> int:
        return int(round(self.keep_frac * self.block_len))


def lowfreq_support(cfg: AudioPipelineConfig) -> SupportEstimate:
    """DCT bins at or below the cutoff: 1..floor(cutoff / bin width)
    where bin width = (sample_rate/2) / block_len."""
    count = int(np.floor(cfg.lowfreq_cutoff_hz * 2.0 * cfg.block_len / cfg.sample_rate_hz))
    return SupportEstimate(tuple(range(1, count + 1)))


def build_block_problem(
    block: np.ndarray,
    keep_rows: tuple[int, ...],
    prev_estimate: SupportEstimate | None,
    cfg: AudioPipelineConfig,
    omega: float,
) -> tuple[RestrictedTransform, Measurements, WeightVector]:
    """Assemble one block's recovery problem: (operator, measurements,
    weights).

    The operator keeps ``keep_rows`` (1-based time positions) of the
    inverse DCT, applied by FFT; the weight support is the low-frequency
    band united with ``prev_estimate`` (pass None for the first block).
    """
    block = np.asarray(block, dtype=np.float64)
    if block.shape != (cfg.block_len,):
        raise ValueError(f"block must have length {cfg.block_len}")
    op = RestrictedTransform(rows=tuple(keep_rows), size=cfg.block_len)
    idx = np.asarray(keep_rows, dtype=np.intp) - 1
    y = Measurements(block[idx])
    joined = set(lowfreq_support(cfg).indices)
    if prev_estimate is not None:
        joined |= set(prev_estimate.indices)
    weights = WeightVector(
        omega=float(omega),
        estimate=SupportEstimate(tuple(sorted(joined))),
        size=cfg.block_len,
    )
    return op, y, weights


@dataclass(frozen=True)
class AudioRow:
    omega: float
    p: float
    snr_db: float


def _clip_snr(reference: np.ndarray, recon: np.ndarray, cap_db: float = _SNR_CAP_DB) -> float:
    if not np.any(reference):
        return float(cap_db) if np.array_equal(reference, recon) else float("-inf")
    return snr_db(SignalVector(reference), SignalVector(recon), cap_db)


def recover_clip(
    samples: np.ndarray,
    cfg: AudioPipelineConfig,
    *,
    threads: int = 1,
) -> tuple[list[AudioRow], dict[tuple[float, float], np.ndarray]]:
    """Recover a clip for every (p, omega) combination.

    Returns SNR rows (omega varying fastest) and the reconstructed
    waveforms keyed by (p, omega).  Sample masks depend only on
    (cfg.seed, block index), so all combinations see identical
    measurements.
    """
    # kept only until the benchmark stops passing threads=1
    if threads != 1:
        raise ValueError(f"recover_clip is serial; threads must be 1, got {threads}")
    samples = np.asarray(samples, dtype=np.float64)
    total = cfg.num_blocks * cfg.block_len
    if samples.ndim != 1 or samples.shape[0] < total:
        raise ValueError(f"need at least {total} samples, got {samples.shape}")
    samples = samples[:total]

    N = cfg.block_len
    n_keep = cfg.samples_per_block
    prev_count = int(round(cfg.prev_block_keep * n_keep))
    combos = [(p, w) for p in cfg.p_list for w in cfg.omega_list]
    prev_coeffs: dict[tuple[float, float], np.ndarray | None] = {c: None for c in combos}
    recons = {c: np.zeros(total, dtype=np.float64) for c in combos}

    for j in range(cfg.num_blocks):
        block = samples[j * N : (j + 1) * N]
        rng = _stream(cfg.seed, j)
        keep = tuple(int(i) + 1 for i in np.sort(rng.choice(N, size=n_keep, replace=False)))
        for p, omega in combos:
            prev = prev_coeffs[(p, omega)]
            prev_est = None
            if prev is not None and prev_count > 0:
                prev_est = SupportEstimate(best_k_term(prev, prev_count)[1])
            op, y, weights = build_block_problem(block, keep, prev_est, cfg, omega)
            coeffs, _ = solve(op, y, weights, SolverConfig(p=p))
            prev_coeffs[(p, omega)] = coeffs.entries
            recons[(p, omega)][j * N : (j + 1) * N] = _idct(coeffs.entries)

    rows = [AudioRow(omega=w, p=p, snr_db=_clip_snr(samples, recons[(p, w)])) for p, w in combos]
    return rows, recons


def read_wav_mono(path) -> tuple[np.ndarray, float]:
    """Read a mono 16-bit PCM WAV file into floats in [-1, 1]."""
    with wave.open(str(path), "rb") as handle:
        channels = handle.getnchannels()
        if channels != 1:
            raise ValueError(f"only mono input is supported, file has {channels} channels")
        width = handle.getsampwidth()
        if width != 2:
            raise ValueError(f"only 16-bit PCM is supported, file has {8 * width}-bit samples")
        rate = handle.getframerate()
        raw = handle.readframes(handle.getnframes())
    data = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return data, float(rate)


def write_wav_mono(path, samples: np.ndarray, sample_rate: float) -> None:
    """Write floats in [-1, 1] as a mono 16-bit PCM WAV file."""
    clipped = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    pcm = np.round(clipped * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(int(round(sample_rate)))
        handle.writeframes(pcm.tobytes())


def synthesize_speech_like(
    num_samples: int, sample_rate: float = 44100.0, seed: int = 0
) -> np.ndarray:
    """Deterministic voice-like test clip: a slowly sweeping fundamental
    with decaying harmonics, a quiet high-frequency sweep, and slow
    amplitude modulation.  Peak-normalized to 0.8."""
    rng = _stream(seed, 0xA0D10)
    t = np.arange(num_samples, dtype=np.float64) / sample_rate
    dur = num_samples / sample_rate

    # fundamental glides 165 -> 330 Hz and back
    f0 = 165.0 + 82.5 * (1.0 - np.cos(2.0 * np.pi * t / dur))
    phase0 = 2.0 * np.pi * np.cumsum(f0) / sample_rate
    out = np.zeros(num_samples, dtype=np.float64)
    for harmonic in range(1, 13):
        amp = harmonic**-1.4
        drift = 1.0 + 0.002 * rng.standard_normal()
        out += amp * np.sin(harmonic * drift * phase0 + rng.uniform(0.0, 2.0 * np.pi))

    # quiet sweep through the band above the usual low-frequency cutoff
    f_hi = 4500.0 + 2500.0 * t / dur
    phase_hi = 2.0 * np.pi * np.cumsum(f_hi) / sample_rate
    out += 0.12 * np.sin(phase_hi)

    # syllable-rate amplitude modulation
    envelope = 0.55 + 0.45 * np.sin(2.0 * np.pi * 2.7 * t + 0.9)
    out *= envelope

    peak = float(np.max(np.abs(out)))
    return 0.8 * out / peak
