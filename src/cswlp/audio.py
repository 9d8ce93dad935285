"""Block-wise recovery of subsampled audio from random time samples.

A clip is cut into fixed-length blocks; within each block a random
subset of time samples is kept and the block's orthonormal DCT-II
coefficients are recovered by the weighted lp solver.  A block is
posed once, one operator and one measurement vector for every (p, omega)
column; each column carries its own support estimate, the fixed
low-frequency band below a cutoff plus the largest coefficients it
recovered from the previous block, so the estimate tracks the signal.

``recover_clip`` returns SNR rows and reconstructed waveforms and
writes no file; ``cswlp audio`` (in ``cswlp.cli``) reads the input
WAV, writes ``audio_snr.csv`` and one WAV per (p, omega), and names
them.  This module keeps only the mono 16-bit PCM encoding.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .core import (
    Measurements,
    RestrictedTransform,
    SignalVector,
    WeightVector,
    _SNR_CAP_DB,
    _as_array,
    _check_fields,
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

    D @ D.T = I, so D.T maps coefficients back to samples.  D is the
    transpose view of the inverse DCT table, so building it peaks at one
    N x N array.
    """
    check_domain(N=[N])
    return _idct_entries(N, np.arange(N), np.arange(N)).T


@dataclass(frozen=True)
class AudioPipelineConfig:
    """Block recovery settings.

    ``keep_frac`` of each block's samples are measured; the support
    estimate is the floor(``lowfreq_cutoff_hz`` / bin width) lowest DCT
    bins (``lowfreq_support``) plus the top ``prev_block_keep`` fraction
    (of the per-block measurement count) of the previous block's
    recovered coefficients.
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
        _check_fields(self, "block_len", "num_blocks", "keep_frac", "lowfreq_cutoff_hz", "sample_rate_hz",
                      "prev_block_keep", "p_list", "omega_list")
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

    @property
    def combos(self) -> tuple[tuple[float, float], ...]:
        """Every (p, omega) pair, omega varying fastest: the order of
        ``recover_clip``'s rows and of the CLI's WAVs."""
        return tuple(product(self.p_list, self.omega_list))


def lowfreq_support(cfg: AudioPipelineConfig) -> tuple[int, ...]:
    """The floor(cutoff / bin width) lowest DCT bins, 1..that count, with
    bin width = (sample_rate/2) / block_len; bin j lies at (j - 1) bin
    widths, so the last bin below the cutoff may be left out."""
    count = int(np.floor(cfg.lowfreq_cutoff_hz * 2.0 * cfg.block_len / cfg.sample_rate_hz))
    return tuple(range(1, count + 1))


def build_block_problem(
    block: np.ndarray,
    keep_rows: tuple[int, ...],
    cfg: AudioPipelineConfig,
) -> tuple[RestrictedTransform, Measurements]:
    """Pose one block, once for all (p, omega) columns: (operator,
    measurements).

    The operator keeps ``keep_rows`` (1-based time positions) of the
    inverse DCT, applied by FFT; the measurements are the block's samples
    at those positions.  Each column brings its own weights.
    """
    block = np.asarray(block, dtype=np.float64)
    if block.shape != (cfg.block_len,):
        raise ValueError(f"block must have length {cfg.block_len}")
    op = RestrictedTransform(rows=tuple(keep_rows), size=cfg.block_len)
    return op, Measurements(block[op._idx])


@dataclass(frozen=True)
class AudioRow:
    omega: float
    p: float
    snr_db: float


def _clip_snr(reference: np.ndarray, recon: np.ndarray) -> float:
    if not np.any(reference):
        return _SNR_CAP_DB if np.array_equal(reference, recon) else float("-inf")
    return snr_db(SignalVector(reference), SignalVector(recon))


def recover_clip(
    samples: np.ndarray,
    cfg: AudioPipelineConfig,
    *,
    threads: int = 1,
) -> tuple[list[AudioRow], dict[tuple[float, float], np.ndarray]]:
    """Recover a clip for every (p, omega) combination.

    Returns SNR rows in ``cfg.combos`` order and the reconstructed
    waveforms keyed by (p, omega).  Sample masks depend only on
    (cfg.seed, block index), so all combinations see identical
    measurements.
    """
    # kept only until the benchmark stops passing threads=1
    if threads != 1:
        raise ValueError(f"recover_clip is serial; threads must be 1, got {threads}")
    samples = _as_array(samples, "samples")
    total = cfg.num_blocks * cfg.block_len
    if samples.shape[0] < total:
        raise ValueError(f"need at least {total} samples, got {samples.shape}")
    samples = samples[:total]

    N = cfg.block_len
    n_keep = cfg.samples_per_block
    prev_count = int(round(cfg.prev_block_keep * n_keep))
    low = lowfreq_support(cfg)
    combos = cfg.combos
    estimates = dict.fromkeys(combos, low)
    recons = {c: np.zeros(total, dtype=np.float64) for c in combos}

    for j in range(cfg.num_blocks):
        rng = _stream(cfg.seed, j)
        keep = tuple(int(i) + 1 for i in np.sort(rng.choice(N, size=n_keep, replace=False)))
        op, y = build_block_problem(samples[j * N : (j + 1) * N], keep, cfg)
        for p, omega in combos:
            weights = WeightVector(omega=omega, estimate=estimates[(p, omega)], size=N)
            coeffs, _ = solve(op, y, weights, SolverConfig(p=p))
            estimates[(p, omega)] = tuple(set(low).union(best_k_term(coeffs, prev_count)[1]))
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


def synthesize_speech_like(num_samples: int, seed: int = 0) -> np.ndarray:
    """Deterministic voice-like test clip at 44.1 kHz: a slowly sweeping
    fundamental with decaying harmonics, a quiet high-frequency sweep,
    and slow amplitude modulation.  Peak-normalized to 0.8."""
    num_samples = check_domain(num_samples=[num_samples])["num_samples"][0]
    sample_rate = 44100.0
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
