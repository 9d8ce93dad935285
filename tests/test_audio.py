import numpy as np
import pytest

from cswlp import SolverConfig, WeightVector, audio, solve
from cswlp.audio import (
    AudioPipelineConfig,
    build_block_problem,
    dct_matrix,
    lowfreq_support,
    read_wav_mono,
    recover_clip,
    synthesize_speech_like,
    write_wav_mono,
    _clip_snr,
)
from cswlp.cli import main
from test_solver import record_iterates, worst_residual


def _tiny_cfg(**overrides):
    base = dict(
        block_len=128,
        num_blocks=2,
        keep_frac=0.5,
        lowfreq_cutoff_hz=4000.0,
        sample_rate_hz=44100.0,
        prev_block_keep=0.0625,
        p_list=(0.5,),
        omega_list=(0.0, 0.5),
        seed=11,
    )
    base.update(overrides)
    return AudioPipelineConfig(**base)


def test_dct_matrix_degenerate_and_orthonormal():
    assert np.array_equal(dct_matrix(1), np.array([[1.0]]))
    D = dct_matrix(8)
    assert np.max(np.abs(D @ D.T - np.eye(8))) < 1e-12
    with pytest.raises(ValueError):
        dct_matrix(0)


def test_lowfreq_support_default_width():
    cfg = AudioPipelineConfig()
    est = lowfreq_support(cfg)
    # 4000 Hz cutoff of a 2048-bin block at 44.1 kHz: bin 372 lies at
    # 371 * 22050 / 2048 = 3994.4 Hz, below the cutoff, yet is left out,
    # as floor(4000 / bin width) = 371 says
    assert est == tuple(range(1, 372))


def test_lowfreq_support_cannot_exceed_block():
    cfg = _tiny_cfg(lowfreq_cutoff_hz=22050.0)  # exactly Nyquist
    assert len(lowfreq_support(cfg)) == 128
    # the cutoff <= sample_rate/2 rule alone keeps the count within the block
    cfg = _tiny_cfg(block_len=256, lowfreq_cutoff_hz=22050.0, sample_rate_hz=44100.0)
    assert lowfreq_support(cfg) == tuple(range(1, 257))
    with pytest.raises(ValueError):
        _tiny_cfg(lowfreq_cutoff_hz=22050.1)


def test_config_refuses_a_block_that_keeps_no_sample():
    with pytest.raises(ValueError, match=r"keep_frac=0\.001, block_len=256"):
        AudioPipelineConfig(block_len=256, num_blocks=1, keep_frac=0.001)
    # 0.002 * 256 = 0.512 rounds to one kept sample
    assert AudioPipelineConfig(block_len=256, num_blocks=1, keep_frac=0.002).samples_per_block == 1


@pytest.mark.parametrize("prev_block_keep", [0.25, 0.0])
def test_each_column_carries_its_own_support_estimate(monkeypatch, prev_block_keep):
    # block 0 is weighted on the low band; block j on the low band united
    # with the prev_block_keep largest bins of that column's block j - 1
    # result, so with prev_block_keep = 0 every block is weighted on the
    # low band alone
    cfg = _tiny_cfg(num_blocks=3, lowfreq_cutoff_hz=1000.0, prev_block_keep=prev_block_keep, p_list=(0.5, 1.0))
    solves = []  # every solve, in order: (p, weights, result)

    def recorded(A, b, w, cfg):
        x_hat, trace = solve(A, b, w, cfg)
        solves.append((cfg.p, w, x_hat.entries))
        return x_hat, trace

    monkeypatch.setattr(audio, "solve", recorded)
    recover_clip(synthesize_speech_like(cfg.block_len * cfg.num_blocks, seed=2), cfg)
    low = set(lowfreq_support(cfg))
    count = int(round(prev_block_keep * cfg.samples_per_block))
    width = len(cfg.combos)
    assert len(solves) == cfg.num_blocks * width
    grown = 0
    for i, (p, weights, _) in enumerate(solves):
        column = cfg.combos[i % width]
        assert (p, weights.omega) == column
        expected = set(low)
        if i >= width:
            previous = solves[i - width][2]
            expected |= {int(b) + 1 for b in np.argsort(-np.abs(previous), kind="stable")[:count]}
        assert weights.estimate == tuple(sorted(expected))
        grown += expected != low
    # with any bins carried, every later block's estimate reaches past
    # the low band, so the union above is not the low band alone
    assert grown == (0 if count == 0 else (cfg.num_blocks - 1) * width)
    block = synthesize_speech_like(cfg.block_len, seed=4)
    _, measurements = build_block_problem(block, tuple(range(1, 129, 2)), cfg)
    assert np.array_equal(measurements.y, block[::2])
    with pytest.raises(ValueError, match="^block must have length 128$"):
        build_block_problem(np.zeros(100), tuple(range(1, 65)), cfg)


def test_each_block_is_posed_once_for_every_column(monkeypatch):
    cfg = _tiny_cfg(p_list=(0.5, 1.0), omega_list=(0.0, 1.0))
    posed = []

    def counted(*args):
        posed.append(args)
        return build_block_problem(*args)

    monkeypatch.setattr(audio, "build_block_problem", counted)
    recover_clip(synthesize_speech_like(cfg.block_len * cfg.num_blocks, seed=2), cfg)
    assert len(posed) == cfg.num_blocks == 2


def test_a_column_recovers_the_same_alone_or_beside_others():
    cfg = _tiny_cfg(p_list=(0.5, 1.0), omega_list=(0.0, 1.0))
    samples = synthesize_speech_like(cfg.block_len * cfg.num_blocks, seed=2)
    rows, recons = recover_clip(samples, cfg)
    for row in rows:
        alone = _tiny_cfg(p_list=(row.p,), omega_list=(row.omega,))
        (alone_row,), alone_recons = recover_clip(samples, alone)
        assert alone_row == row
        assert alone_recons[(row.p, row.omega)].tobytes() == recons[(row.p, row.omega)].tobytes()


def test_synthesized_clip_is_deterministic():
    a = synthesize_speech_like(4096, seed=5)
    b = synthesize_speech_like(4096, seed=5)
    c = synthesize_speech_like(4096, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert abs(float(np.max(np.abs(a))) - 0.8) < 1e-12
    # an integral float is its integer
    assert np.array_equal(synthesize_speech_like(4096.0, seed=5), a)


def test_wav_round_trip(tmp_path):
    path = tmp_path / "clip.wav"
    samples = synthesize_speech_like(2048, seed=3)
    write_wav_mono(path, samples, 44100.0)
    back, rate = read_wav_mono(path)
    assert rate == 44100.0
    assert back.shape == samples.shape
    # 16-bit quantization error only (rounding plus the 32767/32768 scale)
    assert float(np.max(np.abs(back - samples))) < 1.5 / 32768.0


def test_wav_reader_rejects_stereo_and_8bit(tmp_path):
    import wave

    stereo = tmp_path / "stereo.wav"
    with wave.open(str(stereo), "wb") as handle:
        handle.setnchannels(2)
        handle.setsampwidth(2)
        handle.setframerate(8000)
        handle.writeframes(b"\x00\x00\x00\x00" * 16)
    with pytest.raises(ValueError, match="mono"):
        read_wav_mono(stereo)

    eightbit = tmp_path / "8bit.wav"
    with wave.open(str(eightbit), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(1)
        handle.setframerate(8000)
        handle.writeframes(b"\x80" * 16)
    with pytest.raises(ValueError, match="16-bit"):
        read_wav_mono(eightbit)


def test_clip_snr_zero_reference_conventions():
    zeros = np.zeros(8)
    assert _clip_snr(zeros, zeros.copy()) == 300.0
    assert _clip_snr(zeros, np.ones(8)) == float("-inf")


def test_recover_clip_shapes_and_order():
    cfg = _tiny_cfg()
    samples = synthesize_speech_like(cfg.block_len * cfg.num_blocks, seed=2)
    rows, recons = recover_clip(samples, cfg)
    assert [(r.p, r.omega) for r in rows] == [(0.5, 0.0), (0.5, 0.5)]
    assert set(recons) == {(0.5, 0.0), (0.5, 0.5)}
    for recon in recons.values():
        assert recon.shape == samples.shape
        assert np.all(np.isfinite(recon))
    for row in rows:
        assert row.snr_db > 0.0
    # a NaN sample is refused before any block is solved, kept or not
    samples[1] = np.nan
    with pytest.raises(ValueError, match="^samples must be finite$"):
        recover_clip(samples, cfg)
    with pytest.raises(ValueError, match=r"need at least 256 samples, got \(255,\)"):
        recover_clip(np.zeros(255), cfg)


def test_pipeline_writes_csv_and_wavs(tmp_path):
    # the input's header rate, not the 44100 Hz default, places the cutoff
    cfg = _tiny_cfg(sample_rate_hz=22050.0)
    wav = tmp_path / "in.wav"
    write_wav_mono(wav, synthesize_speech_like(cfg.block_len * cfg.num_blocks, seed=1), cfg.sample_rate_hz)
    out = tmp_path / "out"
    assert main([
        "--out-dir", str(out), "audio", "--seed", "11", "--input", str(wav),
        "--block-len", "128", "--num-blocks", "2", "--keep-frac", "0.5", "--p", "0.5", "--omega", "0,0.5",
    ]) == 0
    rows, recons = recover_clip(read_wav_mono(wav)[0], cfg)
    csv_lines = (out / "audio_snr.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "omega,p,snr_db"
    assert [tuple(map(float, line.split(","))) for line in csv_lines[1:]] == [(r.omega, r.p, r.snr_db) for r in rows]
    for combo, name in [((0.5, 0.0), "recon_p0.5_w0.wav"), ((0.5, 0.5), "recon_p0.5_w0.5.wav")]:
        assert read_wav_mono(out / name)[1] == 22050.0
        write_wav_mono(tmp_path / "ref.wav", recons[combo], 22050.0)
        assert (out / name).read_bytes() == (tmp_path / "ref.wav").read_bytes()


def test_recover_clip_needs_no_svd(monkeypatch):
    # the kept rows of the orthonormal inverse DCT give pinv(A) = A^T
    def no_svd(*args, **kwargs):
        raise AssertionError("recover_clip took an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    cfg = _tiny_cfg()
    samples = synthesize_speech_like(cfg.block_len * cfg.num_blocks, seed=2)
    rows, _ = recover_clip(samples, cfg)
    assert all(row.snr_db > 0.0 for row in rows)


def test_dct_block_iterates_stay_feasible(monkeypatch):
    cfg = _tiny_cfg()
    block = synthesize_speech_like(cfg.block_len, seed=4)
    rng = np.random.default_rng(5)
    keep = tuple(int(i) + 1 for i in np.sort(rng.choice(cfg.block_len, size=cfg.samples_per_block, replace=False)))
    op, measurements = build_block_problem(block, keep, cfg)
    weights = WeightVector(omega=0.5, estimate=tuple(set(lowfreq_support(cfg)) | {40, 41}), size=cfg.block_len)
    b = measurements.y
    iterates = record_iterates(monkeypatch)
    _, trace = solve(op, measurements, weights, SolverConfig(p=0.5))
    worst = worst_residual(op, b, iterates, trace)
    assert worst <= 1e-8 * float(np.linalg.norm(b))
