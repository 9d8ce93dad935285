import json

import numpy as np
import pytest

from cswlp.cli import (
    RunManifest,
    _parse_grid,
    main,
    read_array,
    write_matrix_binary,
    write_vector_binary,
)
from cswlp.audio import synthesize_speech_like, write_wav_mono


def _plant_problem(rng, n=6, N=12, k=2):
    A = rng.standard_normal((n, N)) / np.sqrt(n)
    x = np.zeros(N)
    support = rng.choice(N, size=k, replace=False)
    x[support] = rng.standard_normal(k) + np.sign(rng.standard_normal(k))
    return A, x, A @ x


def _write_sweep_config(path, seed=3):
    path.write_text(
        "N = 30\nn = 15\nk = 3\nsignal_kind = sparse\nnoise_frac = 0\n"
        "alpha = 0.7\nrho = 1\nomega = 0, 1\np = 0.5\ntrials = 2\n"
        f"seed = {seed}\n"
    )


def test_binary_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((5, 9))
    path = tmp_path / "mat.bin"
    write_matrix_binary(path, arr)
    assert path.read_bytes()[:8] == b"CSWLPB01"
    back = read_array(path)
    assert np.array_equal(back, arr)


def test_binary_vector_is_column(tmp_path):
    path = tmp_path / "vec.bin"
    write_vector_binary(path, np.array([1.0, 2.5, -3.0]))
    back = read_array(path)
    assert back.shape == (3, 1)
    assert np.array_equal(back[:, 0], [1.0, 2.5, -3.0])
    with pytest.raises(ValueError):
        write_vector_binary(tmp_path / "bad.bin", np.eye(2))


def test_read_array_csv_fallback(tmp_path):
    path = tmp_path / "mat.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    assert np.array_equal(read_array(path), [[1.0, 2.0], [3.0, 4.0]])


def test_truncated_binary_raises(tmp_path):
    path = tmp_path / "mat.bin"
    write_matrix_binary(path, np.ones((4, 4)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated"):
        read_array(path)


def test_parse_grid_forms():
    assert _parse_grid("0:1:5") == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert _parse_grid("0.5") == (0.5,)
    assert _parse_grid("0.1, 0.9") == (0.1, 0.9)
    assert _parse_grid("0:1:3, 2") == (0.0, 0.5, 1.0, 2.0)
    with pytest.raises(ValueError):
        _parse_grid("0:1")
    with pytest.raises(ValueError):
        _parse_grid("")


def test_manifest_round_trip(tmp_path):
    manifest = RunManifest(
        subcommand="solve",
        seed=5,
        version="0.0.0",
        config={"p": 0.5},
        inputs={},
        outputs=["recovered.csv"],
        timestamp="2024-01-01T00:00:00+00:00",
    )
    path = tmp_path / "manifest.json"
    manifest.save(path)
    assert RunManifest.load(path) == manifest
    data = json.loads(path.read_text())
    assert "backend" not in data
    # older manifests named a kernel backend; loading drops it
    for legacy in ("numpy", "no-such-backend"):
        path.write_text(json.dumps(dict(data, backend=legacy)))
        assert RunManifest.load(path) == manifest
    data["surprise"] = 1
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="surprise"):
        RunManifest.load(path)


def test_solve_end_to_end(tmp_path):
    rng = np.random.default_rng(7)
    A, x, y = _plant_problem(rng)
    write_matrix_binary(tmp_path / "A.bin", A)
    write_vector_binary(tmp_path / "y.bin", y)
    out = tmp_path / "run"
    code = main([
        "--out-dir", str(out),
        "solve",
        "--matrix", str(tmp_path / "A.bin"),
        "--measurements", str(tmp_path / "y.bin"),
        "--p", "0.5",
    ])
    assert code == 0
    recovered = np.array([float(v) for v in (out / "recovered.csv").read_text().split()])
    assert recovered.shape == x.shape
    assert float(np.linalg.norm(recovered - x)) < 1e-6 * float(np.linalg.norm(x))
    trace_lines = (out / "trace.csv").read_text().strip().split("\n")
    assert trace_lines[0] == "t,sigma,objective,step,residual"
    manifest = RunManifest.load(out / "manifest.json")
    assert manifest.subcommand == "solve"
    assert manifest.outputs == ["recovered.csv", "trace.csv"]
    assert "backend" not in json.loads((out / "manifest.json").read_text())
    assert set(manifest.inputs) == {"matrix", "measurements"}


def test_solve_with_support_file(tmp_path):
    rng = np.random.default_rng(8)
    A, x, y = _plant_problem(rng)
    support = tuple(int(i) + 1 for i in np.flatnonzero(x))
    np.savetxt(tmp_path / "A.csv", A, delimiter=",")
    (tmp_path / "y.csv").write_text("\n".join(repr(float(v)) for v in y))
    (tmp_path / "T.txt").write_text(" ".join(str(i) for i in support))
    out = tmp_path / "run"
    code = main([
        "--out-dir", str(out),
        "solve",
        "--matrix", str(tmp_path / "A.csv"),
        "--measurements", str(tmp_path / "y.csv"),
        "--support", str(tmp_path / "T.txt"),
        "--omega", "0.2",
    ])
    assert code == 0
    manifest = RunManifest.load(out / "manifest.json")
    assert "support" in manifest.inputs


def test_theory_csv_with_and_without_constants(tmp_path):
    out = tmp_path / "bare"
    code = main(["--out-dir", str(out), "theory", "--a", "3", "--p", "0.5",
                 "--omega", "0.5", "--alpha", "0.7", "--rho", "1"])
    assert code == 0
    lines = (out / "theory.csv").read_text().strip().split("\n")
    assert lines[0] == "a,p,omega,alpha,rho,delta_hat_lp,delta_hat_wl1,delta_hat_wlp"
    assert len(lines) == 2

    out2 = tmp_path / "consts"
    code = main(["--out-dir", str(out2), "theory", "--a", "3", "--p", "0.5",
                 "--omega", "0.5", "--alpha", "0.7", "--rho", "1",
                 "--delta-ak", "0.05", "--delta-a1k", "0.05"])
    assert code == 0
    lines = (out2 / "theory.csv").read_text().strip().split("\n")
    assert lines[0].endswith("c1,c2,condition_holds")
    assert lines[1].split(",")[-1] in ("true", "false")


def test_theory_requires_both_deltas(tmp_path, capsys):
    code = main(["--out-dir", str(tmp_path), "theory", "--delta-ak", "0.1"])
    assert code == 1
    assert "delta" in capsys.readouterr().err


def test_sweep_from_config_and_seed_override(tmp_path):
    cfg = tmp_path / "exp.cfg"
    _write_sweep_config(cfg)
    out1 = tmp_path / "a"
    assert main(["--config", str(cfg), "--out-dir", str(out1), "sweep"]) == 0
    rows1 = (out1 / "sweep.csv").read_text().strip().split("\n")
    assert rows1[0].startswith("n,p,omega,")
    assert len(rows1) == 1 + 2 * 2  # trials x omega values

    out2 = tmp_path / "b"
    assert main(["--config", str(cfg), "--seed", "99", "--out-dir", str(out2), "sweep"]) == 0
    manifest = RunManifest.load(out2 / "manifest.json")
    assert manifest.seed == 99
    rows2 = (out2 / "sweep.csv").read_text().strip().split("\n")
    assert rows1 != rows2


def test_sweep_bad_config_names_the_key(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("N = 30\nmystery = 4\n")
    code = main(["--config", str(cfg), "--out-dir", str(tmp_path / "o"), "sweep"])
    assert code == 1
    assert "mystery" in capsys.readouterr().err


def test_sweep_without_config_fails(tmp_path, capsys):
    code = main(["--out-dir", str(tmp_path), "sweep"])
    assert code == 1
    assert "config" in capsys.readouterr().err


def test_audio_end_to_end_and_silence(tmp_path):
    wav = tmp_path / "in.wav"
    write_wav_mono(wav, synthesize_speech_like(512, seed=4), 44100.0)
    out = tmp_path / "run"
    code = main([
        "--out-dir", str(out),
        "audio",
        "--input", str(wav),
        "--block-len", "256",
        "--num-blocks", "2",
        "--keep-frac", "0.5",
        "--p", "0.5",
        "--omega", "0,1",
    ])
    assert code == 0
    lines = (out / "audio_snr.csv").read_text().strip().split("\n")
    assert len(lines) == 3
    assert (out / "recon_p0.5_w0.wav").exists()
    assert (out / "recon_p0.5_w1.wav").exists()

    silent = tmp_path / "silent.wav"
    write_wav_mono(silent, np.zeros(512), 44100.0)
    out2 = tmp_path / "silent_run"
    code = main([
        "--out-dir", str(out2),
        "audio",
        "--input", str(silent),
        "--block-len", "256",
        "--num-blocks", "2",
        "--keep-frac", "0.5",
        "--p", "0.5",
        "--omega", "0",
    ])
    assert code == 0
    row = (out2 / "audio_snr.csv").read_text().strip().split("\n")[1]
    assert row.split(",")[-1] == "300.0"  # zero clip reconstructed exactly


def test_audio_missing_input_fails(tmp_path, capsys):
    code = main([
        "--out-dir", str(tmp_path),
        "audio",
        "--input", str(tmp_path / "nope.wav"),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_replay_reproduces_solve(tmp_path):
    rng = np.random.default_rng(9)
    A, x, y = _plant_problem(rng)
    write_matrix_binary(tmp_path / "A.bin", A)
    write_vector_binary(tmp_path / "y.bin", y)
    out = tmp_path / "orig"
    assert main([
        "--out-dir", str(out),
        "solve",
        "--matrix", str(tmp_path / "A.bin"),
        "--measurements", str(tmp_path / "y.bin"),
    ]) == 0
    redo = tmp_path / "redo"
    assert main(["--out-dir", str(redo), "replay", "--manifest", str(out / "manifest.json")]) == 0
    for name in ("recovered.csv", "trace.csv"):
        assert (redo / name).read_bytes() == (out / name).read_bytes()


def test_replay_rejects_changed_input(tmp_path, capsys):
    rng = np.random.default_rng(10)
    A, x, y = _plant_problem(rng)
    write_matrix_binary(tmp_path / "A.bin", A)
    write_vector_binary(tmp_path / "y.bin", y)
    out = tmp_path / "orig"
    assert main([
        "--out-dir", str(out),
        "solve",
        "--matrix", str(tmp_path / "A.bin"),
        "--measurements", str(tmp_path / "y.bin"),
    ]) == 0
    write_matrix_binary(tmp_path / "A.bin", A + 1.0)
    code = main(["--out-dir", str(tmp_path / "redo"), "replay",
                 "--manifest", str(out / "manifest.json")])
    assert code == 1
    assert "changed" in capsys.readouterr().err


def test_help_and_missing_subcommand():
    assert main(["--help"]) == 0
    assert main([]) == 1


def test_replay_ignores_legacy_backend_field(tmp_path, capsys):
    rng = np.random.default_rng(12)
    A, x, y = _plant_problem(rng)
    write_matrix_binary(tmp_path / "A.bin", A)
    write_vector_binary(tmp_path / "y.bin", y)
    out = tmp_path / "orig"
    assert main([
        "--out-dir", str(out),
        "solve",
        "--matrix", str(tmp_path / "A.bin"),
        "--measurements", str(tmp_path / "y.bin"),
    ]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["backend"] = "numba"
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    redo = tmp_path / "redo"
    assert main(["--out-dir", str(redo), "replay", "--manifest", str(out / "manifest.json")]) == 0
    assert capsys.readouterr().err == ""
    for name in ("recovered.csv", "trace.csv"):
        assert (redo / name).read_bytes() == (out / name).read_bytes()
