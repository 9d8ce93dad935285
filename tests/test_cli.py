import json
import shutil
import warnings
from dataclasses import asdict, astuple, fields

import numpy as np
import pytest

from cswlp import cli
from cswlp.cli import (
    RunManifest,
    _parse_grid,
    main,
    read_array,
    write_matrix_binary,
    write_vector_binary,
)
from cswlp.audio import AudioPipelineConfig, synthesize_speech_like, write_wav_mono
from cswlp.core import SolverDivergenceError
from cswlp.experiments import ExperimentSpec, SweepRow, run_sweep


def _plant_problem(rng, n=6, N=12, k=2):
    A = rng.standard_normal((n, N)) / np.sqrt(n)
    x = np.zeros(N)
    support = rng.choice(N, size=k, replace=False)
    x[support] = rng.standard_normal(k) + np.sign(rng.standard_normal(k))
    return A, x, A @ x


# The solver config of a solve manifest written while every solver
# setting was a SolverConfig field, at the defaults of that time.
_NINE_KEY_SOLVER = {
    "p": 0.5, "max_iters": 500, "sigma_init": 10.0, "sigma_decay": 0.7, "sigma_floor": 1e-9,
    "step_shrink": 0.5, "max_backtracks": 30, "feasibility_tol": 1e-8, "snr_cap_db": 300.0,
}


def _full_manifest(**fields):
    base = {"subcommand": "solve", "version": "0", "config": {},
            "inputs": {}, "outputs": [], "timestamp": "t"}
    return {**base, **fields}


def _sweep_args(seed=3):
    """`cswlp sweep` on a 30-wide sparse spec: 2 trials x 2 omega values."""
    return ["sweep", "--N", "30", "--n", "15", "--k", "3", "--signal-kind", "sparse", "--noise-frac", "0",
            "--alpha", "0.7", "--rho", "1", "--omega", "0, 1", "--p", "0.5", "--trials", "2", "--seed", str(seed)]


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
    with pytest.raises(ValueError, match="expected a matrix"):
        write_matrix_binary(tmp_path / "bad.bin", np.ones(3))


def test_a_vector_is_read_from_a_column_or_a_row(tmp_path):
    for name, shape in (("col.bin", (3, 1)), ("row.bin", (1, 3))):
        write_matrix_binary(tmp_path / name, np.array([1.0, 2.5, -3.0]).reshape(shape))
        assert np.array_equal(cli._read_vector(tmp_path / name), [1.0, 2.5, -3.0])
    write_matrix_binary(tmp_path / "mat.bin", np.ones((2, 3)))
    with pytest.raises(ValueError, match=r"expected a vector, got shape \(2, 3\)"):
        cli._read_vector(tmp_path / "mat.bin")


def test_read_array_csv_fallback(tmp_path):
    path = tmp_path / "mat.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    assert np.array_equal(read_array(path), [[1.0, 2.0], [3.0, 4.0]])


def test_truncated_binary_raises(tmp_path):
    path = tmp_path / "mat.bin"
    write_matrix_binary(path, np.ones((4, 4)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated binary payload"):
        read_array(path)
    path.write_bytes(path.read_bytes()[:11])
    with pytest.raises(ValueError, match="truncated binary header"):
        read_array(path)


def test_binary_with_bytes_after_its_payload_raises(tmp_path):
    path = tmp_path / "mat.bin"
    write_matrix_binary(path, np.ones((2, 3)))
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(ValueError) as exc:
        read_array(path)
    assert str(exc.value) == f"{path}: 8 extra bytes after the binary payload"


def test_parse_grid_forms():
    assert _parse_grid("0:1:5") == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert _parse_grid("0.5") == (0.5,)
    assert _parse_grid("0.1, 0.9") == (0.1, 0.9)
    assert _parse_grid("0:1:3, 2") == (0.0, 0.5, 1.0, 2.0)
    with pytest.raises(ValueError):
        _parse_grid("0:1")
    with pytest.raises(ValueError):
        _parse_grid("")
    with pytest.raises(ValueError, match="empty grid token"):
        _parse_grid("0.5,")


def test_manifest_round_trip(tmp_path):
    manifest = RunManifest(
        subcommand="solve",
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


def test_solve_takes_no_iteration_bound(tmp_path, capsys):
    # the bound is the solver's constant _MAX_ITERS, so --p is the one solver flag
    rng = np.random.default_rng(7)
    A, x, y = _plant_problem(rng)
    write_matrix_binary(tmp_path / "A.bin", A)
    write_vector_binary(tmp_path / "y.bin", y)
    argv = ["solve", "--matrix", str(tmp_path / "A.bin"), "--measurements", str(tmp_path / "y.bin")]
    assert main(["--out-dir", str(tmp_path / "o"), *argv, "--max-iters", "50"]) == 1
    assert "unrecognized arguments: --max-iters 50" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("p", ["1e-4", "1e-6"])
def test_small_p_solve_recovers_and_replays_to_the_same_bytes(tmp_path, p):
    # the 20 x 60 3-sparse instance of the CI solve-replay step; the solver
    # divides its objective by p, so its steps keep their scale as p -> 0
    rng = np.random.default_rng(0)
    A = rng.standard_normal((20, 60))
    x = np.zeros(60)
    x[[3, 17, 41]] = (1.0, -2.0, 0.5)
    write_matrix_binary(tmp_path / "A.bin", A)
    write_vector_binary(tmp_path / "y.bin", A @ x)
    out, redo = tmp_path / "orig", tmp_path / "redo"
    assert main([
        "--out-dir", str(out), "solve",
        "--matrix", str(tmp_path / "A.bin"), "--measurements", str(tmp_path / "y.bin"), "--p", p,
    ]) == 0
    assert main(["--out-dir", str(redo), "replay", "--manifest", str(out / "manifest.json")]) == 0
    for name in ("recovered.csv", "trace.csv"):
        assert (redo / name).read_bytes() == (out / name).read_bytes()
    recovered = np.loadtxt(out / "recovered.csv")
    assert float(np.abs(recovered - x).max()) <= 1e-9


def test_solve_with_support_file(tmp_path, capsys):
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
    # a fractional index is refused by the one index rule, not parsed as text
    (tmp_path / "T.txt").write_text("1.5 3")
    argv = ["--out-dir", str(tmp_path / "bad"), "solve", "--matrix", str(tmp_path / "A.csv"),
            "--measurements", str(tmp_path / "y.csv"), "--support", str(tmp_path / "T.txt")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: estimate indices must be integers, got 1.5\n"


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


def test_quality_record_theory_hashes_are_current():
    # theory.csv is scalar math, the same bytes on any machine, so the
    # committed record's hashes of the two theory runs are judged here,
    # wherever the suite runs: a change that moves theory.csv must
    # regenerate QUALITY.json
    import quality_record

    committed = json.loads(quality_record.RECORD.read_text())["sections"]["theory_hashes"]
    assert quality_record._theory_hashes() == committed


def test_theory_tabulates_small_p(tmp_path):
    # at p = 0.001, a^(2/p - 1) leaves the float range at the default
    # a = 3: each threshold is its finite limit, and each constant finite
    out = tmp_path / "small"
    assert main(["--out-dir", str(out), "theory", "--p", "0.001", "--delta-ak", "0.05", "--delta-a1k", "0.05"]) == 0
    lines = (out / "theory.csv").read_text().strip().split("\n")
    cells = [line.split(",")[:-1] for line in lines[1:]]
    assert cells and all(np.isfinite(float(c)) for row in cells for c in row)


def test_theory_writes_infinite_constants_where_the_condition_fails(tmp_path):
    out = tmp_path / "run"
    assert main(["--out-dir", str(out), "theory", "--a", "3", "--p", "0.5", "--omega", "1", "--alpha", "0.5",
                 "--rho", "1", "--delta-ak", "0.99", "--delta-a1k", "0.99"]) == 0
    lines = (out / "theory.csv").read_text().strip().split("\n")
    assert len(lines) == 2
    assert lines[1].split(",")[-3:] == ["inf", "inf", "false"]


def test_theory_names_every_grid_pair_outside_the_domain(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["--out-dir", str(out), "theory", "--a", "2,3", "--p", "0.5,1", "--omega", "0:1:5",
                 "--alpha", "0:1:3", "--rho", "1,2"])
    assert code == 1
    err = capsys.readouterr().err
    # alpha = 1, rho = 2 asks for 2k correct entries in a support of k
    assert "(alpha, rho) = (1.0, 2.0):" in err
    assert not out.exists()
    # 0.8 * 1.5 = 1.2 correct entries per true one, though
    # 1 + 1.5 - 2 * 0.8 * 1.5 = 0.1 is not negative
    assert main(["--out-dir", str(out), "theory", "--alpha", "0.8", "--rho", "1.5"]) == 1
    assert "(alpha, rho) = (0.8, 1.5):" in capsys.readouterr().err
    # alpha rho = 1, as at (0.5, 2), is inside
    code = main(["--out-dir", str(out), "theory", "--alpha", "0.5,0.8,1", "--rho", "1.5,2"])
    assert code == 1
    assert "(alpha, rho) = (0.8, 1.5), (0.8, 2.0), (1.0, 1.5), (1.0, 2.0):" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "grids, named",
    [
        (["--alpha", "1.5", "--rho", "0.5", "--omega", "0.5"], ["alpha must lie in [0, 1], got 1.5"]),
        (["--rho", "-1"], ["rho must be >= 0, got -1.0"]),
        (["--omega", "1.5"], ["omega must lie in [0, 1], got 1.5"]),
        (
            ["--omega=-0.5,0.5,1.5", "--a", "1,3", "--p", "0,1"],
            ["p must lie in (0, 1], got 0.0", "omega must lie in [0, 1], got -0.5",
             "omega must lie in [0, 1], got 1.5", "a must exceed 1, got 1.0"],
        ),
    ],
    ids=["alpha-above-1", "rho-negative", "omega-above-1", "several-grids"],
)
def test_theory_names_every_value_outside_the_domain(tmp_path, capsys, grids, named):
    out = tmp_path / "run"
    assert main(["--out-dir", str(out), "theory", *grids]) == 1
    err = capsys.readouterr().err
    for message in named:
        assert message in err
    assert err.count(" must ") == len(named)
    assert not out.exists()


def test_replay_prints_integer_theory_grids_as_floats(tmp_path):
    out, redo = tmp_path / "orig", tmp_path / "redo"
    assert main(["--out-dir", str(out), "theory", "--a", "3", "--p", "1", "--omega", "0,0.5",
                 "--alpha", "1", "--rho", "1", "--delta-ak", "0.05", "--delta-a1k", "0.05"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    # a hand-written manifest may hold JSON integers
    manifest["config"].update(a=[3], p=[1], omega=[0, 0.5], alpha=[1], rho=[1])
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert main(["--out-dir", str(redo), "replay", "--manifest", str(out / "manifest.json")]) == 0
    table = (redo / "theory.csv").read_text()
    assert table == (out / "theory.csv").read_text()
    assert table.split("\n")[1].startswith("3.0,1.0,0.0,1.0,1.0,")


def test_theory_requires_both_deltas(tmp_path, capsys):
    code = main(["--out-dir", str(tmp_path), "theory", "--delta-ak", "0.1"])
    assert code == 1
    assert "delta" in capsys.readouterr().err


def test_replay_requires_both_deltas(tmp_path, capsys):
    out = tmp_path / "orig"
    assert main(["--out-dir", str(out), "theory", "--delta-ak", "0.05", "--delta-a1k", "0.05"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    # the c1, c2 and condition_holds columns would otherwise be dropped
    manifest["config"]["delta_a1k"] = None
    (out / "manifest.json").write_text(json.dumps(manifest))
    redo = tmp_path / "redo"
    assert main(["--out-dir", str(redo), "replay", "--manifest", str(out / "manifest.json")]) == 1
    assert "--delta-ak and --delta-a1k must be given together" in capsys.readouterr().err
    assert not redo.exists()


def test_sweep_by_flags_and_its_seed(tmp_path):
    out1 = tmp_path / "a"
    assert main(["--out-dir", str(out1), *_sweep_args()]) == 0
    rows1 = (out1 / "sweep.csv").read_text().strip().split("\n")
    assert rows1[0].startswith("n,p,omega,")
    assert len(rows1) == 1 + 2 * 2  # trials x omega values

    out2 = tmp_path / "b"
    assert main(["--out-dir", str(out2), *_sweep_args(seed=99)]) == 0
    manifest = RunManifest.load(out2 / "manifest.json")
    assert manifest.config["spec"]["seed"] == 99
    rows2 = (out2 / "sweep.csv").read_text().strip().split("\n")
    assert rows1 != rows2


def test_replay_reproduces_sweep_with_stop_reasons(tmp_path):
    out, redo = tmp_path / "orig", tmp_path / "redo"
    assert main(["--out-dir", str(out), *_sweep_args()]) == 0
    assert main(["--out-dir", str(redo), "replay", "--manifest", str(out / "manifest.json")]) == 0
    assert (redo / "sweep.csv").read_bytes() == (out / "sweep.csv").read_bytes()
    orig = [line.split(",") for line in (out / "sweep.csv").read_text().strip().split("\n")]
    reasons = [r[orig[0].index("stop_reason")] for r in orig[1:]]
    assert reasons and set(reasons) <= {"sigma_floor", "max_iters", "stationary"}


@pytest.mark.parametrize(
    "change, message",
    [
        (["--n", "15.7, 20"], "error: n must be an integer >= 1, got 15.7\n"),
        (["--signal-kind", "dense"], "error: unknown signal kind 'dense'\n"),
        (["--decay", "1.1"], "error: sparse signals take no decay exponent, got 1.1\n"),
        (["--signal-kind", "compressible"], "error: compressible signals need a decay exponent\n"),
        (["--mystery", "4"], "cswlp: error: unrecognized arguments: --mystery 4\n"),
    ],
    ids=["non-integer-n", "unknown-kind", "decay-on-sparse", "compressible-without-decay", "unknown-flag"],
)
def test_sweep_refuses_a_bad_spec_before_writing(tmp_path, capsys, change, message):
    # a later flag replaces an earlier one's value
    assert main(["--out-dir", str(tmp_path / "o"), *_sweep_args(), *change]) == 1
    assert capsys.readouterr().err.endswith(message)
    assert not (tmp_path / "o").exists()


def test_sweep_names_each_missing_flag(tmp_path, capsys):
    args = _sweep_args()
    without_trials = args[:args.index("--trials")] + args[args.index("--trials") + 2:]
    assert main(["--out-dir", str(tmp_path / "o"), *without_trials]) == 1
    assert capsys.readouterr().err.endswith("error: the following arguments are required: --trials\n")
    assert main(["--out-dir", str(tmp_path / "o"), "sweep"]) == 1
    assert capsys.readouterr().err.endswith(
        "required: --N, --n, --k, --signal-kind, --noise-frac, --alpha, --rho, --omega, --p, --trials, --seed\n"
    )
    assert not (tmp_path / "o").exists()


def test_threads_flag_is_gone(tmp_path, capsys):
    code = main(["--threads", "2", "--out-dir", str(tmp_path / "o"), *_sweep_args()])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag", ["--seed", "--config"])
@pytest.mark.parametrize("command", ["solve", "theory"])
def test_solve_and_theory_take_no_seed_or_config(tmp_path, capsys, flag, command):
    rng = np.random.default_rng(18)
    A, x, y = _plant_problem(rng)
    write_matrix_binary(tmp_path / "A.bin", A)
    write_vector_binary(tmp_path / "y.bin", y)
    argv = {"solve": ["solve", "--matrix", str(tmp_path / "A.bin"), "--measurements", str(tmp_path / "y.bin")],
            "theory": ["theory"]}[command]
    value = "123" if flag == "--seed" else str(tmp_path / "exp.cfg")
    # the flags solve and theory never read are no longer global
    assert main([flag, value, "--out-dir", str(tmp_path / "o"), *argv]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


def test_audio_manifest_takes_the_sample_rate_from_the_input(tmp_path):
    wav = tmp_path / "in.wav"
    write_wav_mono(wav, synthesize_speech_like(512, seed=4), 22050.0)
    out, redo = tmp_path / "orig", tmp_path / "redo"
    assert main(["--out-dir", str(out), "audio", "--input", str(wav), "--block-len", "256",
                 "--num-blocks", "2", "--keep-frac", "0.5", "--p", "0.5", "--omega", "0,1"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    # the WAV header's rate places the cutoff; no second rate is recorded
    assert "sample_rate_hz" not in manifest["config"]["pipeline"]
    # older manifests recorded the unread default; loading drops it
    manifest["config"]["pipeline"]["sample_rate_hz"] = 44100.0
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert "sample_rate_hz" not in RunManifest.load(out / "manifest.json").config["pipeline"]
    assert main(["--out-dir", str(redo), "replay", "--manifest", str(out / "manifest.json")]) == 0
    for name in manifest["outputs"]:
        assert (redo / name).read_bytes() == (out / name).read_bytes()
    assert "sample_rate_hz" not in json.loads((redo / "manifest.json").read_text())["config"]["pipeline"]


def test_audio_flags_default_to_the_pipeline_config(tmp_path):
    wav = tmp_path / "in.wav"
    write_wav_mono(wav, synthesize_speech_like(256, seed=4), 44100.0)
    out = tmp_path / "run"
    assert main(["--out-dir", str(out), "audio", "--input", str(wav), "--block-len", "256",
                 "--num-blocks", "1", "--keep-frac", "0.5"]) == 0
    pipeline = json.loads((out / "manifest.json").read_text())["config"]["pipeline"]
    assert pipeline["omega_list"] == list(AudioPipelineConfig().omega_list)
    # every other unset flag records its field's default too
    expected = asdict(AudioPipelineConfig(block_len=256, num_blocks=1, keep_frac=0.5))
    del expected["sample_rate_hz"]
    assert pipeline == json.loads(json.dumps(expected))


def test_sweep_flags_set_the_experiment_spec(tmp_path):
    [sweep] = [action.choices["sweep"] for action in cli._build_parser()._subparsers._group_actions]
    flags = {action.dest: action.option_strings for action in sweep._actions if action.dest != "help"}
    # one flag per field, each setting the field of its dest
    assert sorted(flags) == sorted(f.name for f in fields(ExperimentSpec))
    assert all(len(options) == 1 for options in flags.values())
    spec = ExperimentSpec(N=30, n_list=(12, 15), k=3, signal_kind="compressible", decay=1.1, noise_frac=0.05,
                          alpha_list=(0.5, 0.75), rho=1.0, omega_list=(0.0, 0.5, 1.0), p_list=(0.5, 1.0),
                          trials=1, seed=-5)
    argv = [f"{flags[f.name][0]}={','.join(map(str, v)) if isinstance(v, tuple) else v}"
            for f in fields(spec) for v in [getattr(spec, f.name)]]
    out = tmp_path / "run"
    assert main(["--out-dir", str(out), "sweep", *argv]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["spec"] == json.loads(json.dumps(asdict(spec)))
    cli._write_csv(tmp_path / "lib.csv", [f.name for f in fields(SweepRow)], map(astuple, run_sweep(spec).rows))
    assert (out / "sweep.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()


@pytest.mark.parametrize(
    "command, grid, message",
    [
        ("theory", "0:1", "grid token '0:1' must be start:stop:count"),
        ("audio", "0:1:0", "count must be an integer >= 1, got 0.0"),
        ("theory", "0,,1", "empty grid token in '0,,1'"),
        ("sweep", "0:1:2:3", "grid token '0:1:2:3' must be start:stop:count"),
    ],
    ids=["theory", "audio", "empty-token", "sweep"],
)
def test_malformed_grid_exits_1_naming_its_flag(tmp_path, capsys, command, grid, message):
    argv = {"theory": [], "audio": ["--input", str(tmp_path / "in.wav")], "sweep": _sweep_args()[1:]}[command]
    out = tmp_path / "run"
    assert main(["--out-dir", str(out), command, *argv, "--omega", grid]) == 1
    assert f"argument --omega: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_audio_refuses_two_combos_that_share_a_wav_name(tmp_path, capsys):
    wav = tmp_path / "in.wav"
    write_wav_mono(wav, synthesize_speech_like(512, seed=4), 44100.0)
    out = tmp_path / "run"
    code = main(["--out-dir", str(out), "audio", "--input", str(wav), "--block-len", "256",
                 "--num-blocks", "2", "--keep-frac", "0.5", "--p", "0.5", "--omega", "0.1234561,0.1234562"])
    assert code == 1
    err = capsys.readouterr().err
    assert "0.1234561" in err and "0.1234562" in err and "recon_p0.5_w0.123456.wav" in err
    assert not out.exists()


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


def test_replay_follows_a_moved_run(tmp_path, capsys):
    rng = np.random.default_rng(16)
    A, x, y = _plant_problem(rng)
    base = tmp_path / "a"
    base.mkdir()
    write_matrix_binary(base / "A.bin", A)
    write_vector_binary(base / "y.bin", y)
    assert main(["--out-dir", str(base / "run"), "solve",
                 "--matrix", str(base / "A.bin"), "--measurements", str(base / "y.bin")]) == 0
    manifest = RunManifest.load(base / "run" / "manifest.json")
    assert {name: entry["path"] for name, entry in manifest.inputs.items()} == {
        "matrix": "../A.bin", "measurements": "../y.bin"}
    # the run and its inputs move together
    shutil.move(base, tmp_path / "moved")
    run = tmp_path / "moved" / "run"
    redo = tmp_path / "redo"
    assert main(["--out-dir", str(redo), "replay", "--manifest", str(run / "manifest.json")]) == 0
    for name in ("recovered.csv", "trace.csv"):
        assert (redo / name).read_bytes() == (run / name).read_bytes()
    # a run moved away from its inputs names the path it tried
    shutil.move(run, tmp_path / "alone")
    code = main(["--out-dir", str(tmp_path / "redo2"), "replay",
                 "--manifest", str(tmp_path / "alone" / "manifest.json")])
    assert code == 1
    assert f"replay input 'matrix' missing: {(tmp_path / 'alone').resolve() / '../A.bin'}" in capsys.readouterr().err


def test_replay_of_an_older_manifest_reads_only_its_hashed_inputs(tmp_path):
    rng = np.random.default_rng(17)
    A, x, y = _plant_problem(rng)
    write_matrix_binary(tmp_path / "A.bin", A)
    write_matrix_binary(tmp_path / "other.bin", A + 1.0)
    write_vector_binary(tmp_path / "y.bin", y)
    (tmp_path / "T.txt").write_text(" ".join(str(int(i) + 1) for i in np.flatnonzero(x)))
    out = tmp_path / "orig"
    assert main(["--out-dir", str(out), "solve", "--matrix", str(tmp_path / "A.bin"),
                 "--measurements", str(tmp_path / "y.bin"), "--support", str(tmp_path / "T.txt"),
                 "--omega", "0.3"]) == 0
    # the format written before each fact was recorded once: a top-level
    # seed, absolute input paths, and config keys repeating them
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["seed"] = 123
    for name, entry in manifest["inputs"].items():
        entry["path"] = str(tmp_path / {"matrix": "A.bin", "measurements": "y.bin", "support": "T.txt"}[name])
        manifest["config"][name + "_path"] = entry["path"]
    manifest["config"]["config_path"] = str(tmp_path / "exp.cfg")
    for matrix_path in (tmp_path / "A.bin", tmp_path / "other.bin"):
        manifest["config"]["matrix_path"] = str(matrix_path)
        (out / "manifest.json").write_text(json.dumps(manifest))
        redo = tmp_path / ("redo_" + matrix_path.stem)
        assert main(["--out-dir", str(redo), "replay", "--manifest", str(out / "manifest.json")]) == 0
        for name in ("recovered.csv", "trace.csv"):
            assert (redo / name).read_bytes() == (out / name).read_bytes()
        again = json.loads((redo / "manifest.json").read_text())
        assert set(again) == {"subcommand", "version", "config", "inputs", "outputs", "timestamp"}
        assert set(again["config"]) == {"omega", "epsilon", "solver"}
        assert again["inputs"]["matrix"] == {"path": "../A.bin", "sha256": manifest["inputs"]["matrix"]["sha256"]}


def test_replay_refuses_an_input_its_runner_never_reads(tmp_path, capsys):
    rng = np.random.default_rng(18)
    A, x, y = _plant_problem(rng)
    write_matrix_binary(tmp_path / "A.bin", A)
    write_vector_binary(tmp_path / "y.bin", y)
    (tmp_path / "T.txt").write_text(" ".join(str(int(i) + 1) for i in np.flatnonzero(x)))
    out = tmp_path / "orig"
    assert main(["--out-dir", str(out), "solve", "--matrix", str(tmp_path / "A.bin"),
                 "--measurements", str(tmp_path / "y.bin"), "--support", str(tmp_path / "T.txt"),
                 "--omega", "0.3"]) == 0
    # a misspelt input name would otherwise drop the support silently
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["inputs"]["suport"] = manifest["inputs"].pop("support")
    (out / "manifest.json").write_text(json.dumps(manifest))
    redo = tmp_path / "redo"
    assert main(["--out-dir", str(redo), "replay", "--manifest", str(out / "manifest.json")]) == 1
    assert f"{out / 'manifest.json'}: solve does not read manifest inputs ['suport']" in capsys.readouterr().err
    assert not redo.exists()


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


def test_replay_drops_solver_settings_now_fixed(tmp_path, capsys):
    rng = np.random.default_rng(14)
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
    assert manifest["config"]["solver"] == {"p": 0.5}
    manifest["config"]["solver"] = dict(_NINE_KEY_SOLVER)
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    redo = tmp_path / "redo"
    assert main(["--out-dir", str(redo), "replay", "--manifest", str(out / "manifest.json")]) == 0
    assert capsys.readouterr().err == ""
    for name in ("recovered.csv", "trace.csv"):
        assert (redo / name).read_bytes() == (out / name).read_bytes()
    assert json.loads((redo / "manifest.json").read_text())["config"]["solver"] == {"p": 0.5}


def test_an_empty_matrix_or_measurements_file_exits_1_with_one_error_line(tmp_path, capsys):
    np.savetxt(tmp_path / "A.csv", np.eye(2, 3), delimiter=",")
    np.savetxt(tmp_path / "y.csv", np.ones(2))
    (tmp_path / "empty.csv").write_text("")
    for matrix, measurements, empty in (("empty.csv", "y.csv", "matrix"), ("A.csv", "empty.csv", "measurements")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's no-data warning would fail the run
            code = main(["--out-dir", str(tmp_path / "run"), "solve", "--matrix", str(tmp_path / matrix),
                         "--measurements", str(tmp_path / measurements)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {empty} must not be empty\n"
        assert not (tmp_path / "run").exists()

def test_solve_divergence_exits_2(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(15)
    A, x, y = _plant_problem(rng)
    write_matrix_binary(tmp_path / "A.bin", A)
    write_vector_binary(tmp_path / "y.bin", y)

    def diverge(*args, **kwargs):
        raise SolverDivergenceError("objective became non-finite at iteration 7")

    monkeypatch.setattr(cli, "solve", diverge)
    out = tmp_path / "run"
    assert main(["--out-dir", str(out), "solve", "--matrix", str(tmp_path / "A.bin"),
                 "--measurements", str(tmp_path / "y.bin")]) == 2
    assert "error: objective became non-finite at iteration 7" in capsys.readouterr().err
    assert not out.exists()


def test_solve_refuses_a_noise_bound(tmp_path, capsys):
    rng = np.random.default_rng(15)
    A, x, y = _plant_problem(rng)
    write_matrix_binary(tmp_path / "A.bin", A)
    write_vector_binary(tmp_path / "y.bin", y)
    args = ["solve", "--matrix", str(tmp_path / "A.bin"), "--measurements", str(tmp_path / "y.bin")]
    assert main(["--out-dir", str(tmp_path / "noisy"), *args, "--epsilon", "0.1"]) == 1
    assert "epsilon=0.1" in capsys.readouterr().err
    assert not (tmp_path / "noisy").exists()
    assert main(["--out-dir", str(tmp_path / "exact"), *args, "--epsilon", "0"]) == 0
    assert (tmp_path / "exact" / "recovered.csv").exists()


def test_replay_drops_legacy_threads_key(tmp_path, capsys):
    out = tmp_path / "orig"
    assert main(["--out-dir", str(out), *_sweep_args()]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "threads" not in manifest["config"]
    manifest["config"]["threads"] = 3
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    redo = tmp_path / "redo"
    assert main(["--out-dir", str(redo), "replay", "--manifest", str(out / "manifest.json")]) == 0
    assert capsys.readouterr().err == ""
    assert (redo / "sweep.csv").read_bytes() == (out / "sweep.csv").read_bytes()
    assert "threads" not in json.loads((redo / "manifest.json").read_text())["config"]


def test_replay_refuses_a_decay_on_a_sparse_spec(tmp_path, capsys):
    out = tmp_path / "orig"
    assert main(["--out-dir", str(out), *_sweep_args()]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["spec"]["decay"] is None
    manifest["config"]["spec"]["decay"] = -5.0
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    code = main(["--out-dir", str(tmp_path / "redo"), "replay", "--manifest", str(out / "manifest.json")])
    assert code == 1
    assert "sparse signals take no decay exponent, got -5.0" in capsys.readouterr().err
    assert not (tmp_path / "redo").exists()


@pytest.mark.parametrize(
    "content, message",
    [
        (
            {"subcommand": "solve", "seed": 0},
            "missing manifest fields ['config', 'inputs', 'outputs', 'timestamp', 'version']",
        ),
        (["solve", 0], "not a JSON object"),
        (_full_manifest(), "solve manifest has no 'matrix' config entry or input"),
        (_full_manifest(config=[]), "manifest field 'config' is not a JSON object"),
        (_full_manifest(outputs={}), "manifest field 'outputs' is not a JSON list"),
        (_full_manifest(inputs={"matrix": "A.bin"}), "input 'matrix' needs string 'path' and 'sha256'"),
        (_full_manifest(subcommand="sweep", config={"spec": []}), "malformed sweep config"),
        (
            _full_manifest(config={"solver": {**_NINE_KEY_SOLVER, "sigma_decay": 0.98}}),
            "solver setting 'sigma_decay' = 0.98",
        ),
        (
            _full_manifest(config={"solver": {**_NINE_KEY_SOLVER, "max_iters": 60}}),
            "solver setting 'max_iters' = 60",
        ),
        (_full_manifest(subcommand="replay"), "manifest subcommand 'replay' is not replayable"),
    ],
    ids=["missing-fields", "not-an-object", "config-missing-key", "config-not-an-object",
         "outputs-not-a-list", "input-entry-malformed", "spec-not-an-object", "fixed-setting-changed",
         "iteration-bound-changed", "subcommand-without-runner"],
)
def test_replay_rejects_malformed_manifest(tmp_path, capsys, content, message):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(content))
    code = main(["--out-dir", str(tmp_path / "redo"), "replay", "--manifest", str(path)])
    assert code == 1
    assert message in capsys.readouterr().err
