import numpy as np
import pytest

from cswlp import experiments
from cswlp.audio import AudioPipelineConfig, recover_clip
from cswlp.core import ConfigError, DenseMatrix, SolverDivergenceError
from cswlp.experiments import (
    CSV_COLUMNS,
    ExperimentSpec,
    SweepRow,
    filter_rows,
    gen_compressible_signal,
    gen_gaussian_matrix,
    gen_noise_on_sphere,
    gen_sparse_signal,
    gen_support_estimate,
    load_experiment_spec,
    mean_snr,
    run_sweep,
    stderr_snr,
)


def _tiny_spec(**overrides):
    base = dict(
        N=40,
        n_list=(20,),
        k=4,
        signal_kind="sparse",
        decay=None,
        noise_frac=0.0,
        alpha_list=(0.75,),
        rho=1.0,
        omega_list=(0.5,),
        p_list=(0.5,),
        trials=2,
        seed=7,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_sparse_signal_has_exact_support_size():
    rng = np.random.default_rng(1)
    x = gen_sparse_signal(50, 6, rng)
    nz = np.flatnonzero(x.entries)
    assert nz.size == 6
    assert np.all(x.entries[nz] != 0.0)


def test_sparse_signal_deterministic_per_stream():
    a = gen_sparse_signal(30, 5, np.random.default_rng(42))
    b = gen_sparse_signal(30, 5, np.random.default_rng(42))
    assert np.array_equal(a.entries, b.entries)


def test_compressible_signal_is_power_law():
    x = gen_compressible_signal(10, 1.1)
    expected = (np.arange(1, 11, dtype=np.float64)) ** -1.1
    assert np.allclose(x.entries, expected, rtol=0, atol=0)


def test_gaussian_matrix_column_scale():
    rng = np.random.default_rng(3)
    A = gen_gaussian_matrix(50, 200, rng)
    assert A.matrix.shape == (50, 200)
    col_norms = np.linalg.norm(A.matrix, axis=0)
    assert abs(float(np.mean(col_norms)) - 1.0) < 0.05


def test_noise_lands_exactly_on_sphere():
    rng = np.random.default_rng(4)
    x = gen_sparse_signal(30, 3, rng)
    e = gen_noise_on_sphere(12, 0.05, x, rng)
    assert abs(float(np.linalg.norm(e)) - 0.05 * float(np.linalg.norm(x.entries))) < 1e-12
    assert not gen_noise_on_sphere(12, 0.0, x, rng).any()


def test_support_estimate_counts():
    rng = np.random.default_rng(5)
    true_support = tuple(range(1, 11))  # k = 10
    est = gen_support_estimate(true_support, N=60, alpha=0.7, rho=1.0, rng=rng)
    inside = set(est.indices) & set(true_support)
    outside = set(est.indices) - set(true_support)
    assert len(est.indices) == 10
    assert len(inside) == 7
    assert len(outside) == 3


def test_support_estimate_infeasible_sizes_raise():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError):
        # inside count would exceed the true support
        gen_support_estimate(tuple(range(1, 5)), N=20, alpha=1.0, rho=2.0, rng=rng)
    with pytest.raises(ValueError):
        # outside count would exceed the complement
        gen_support_estimate(tuple(range(1, 5)), N=5, alpha=0.0, rho=0.5, rng=rng)


def test_spec_validation():
    _tiny_spec()
    with pytest.raises(ValueError):
        _tiny_spec(signal_kind="dense")
    with pytest.raises(ValueError):
        _tiny_spec(signal_kind="compressible", decay=None)
    with pytest.raises(ValueError):
        _tiny_spec(signal_kind="compressible", decay=float("nan"))
    with pytest.raises(ValueError):
        _tiny_spec(n_list=(80,))
    with pytest.raises(ValueError):
        _tiny_spec(p_list=(0.5, 1.1))
    with pytest.raises(ValueError):
        _tiny_spec(trials=0)


def test_sweep_rows_are_deterministic_and_ordered():
    spec = _tiny_spec(n_list=(16, 20), p_list=(0.5, 1.0), omega_list=(0.0, 1.0))
    first = run_sweep(spec)
    second = run_sweep(spec)
    # wall_ms is measured time, the one column determinism cannot cover
    col = CSV_COLUMNS.index("wall_ms")
    a = [r.as_csv_fields()[:col] + r.as_csv_fields()[col + 1:] for r in first.rows]
    b = [r.as_csv_fields()[:col] + r.as_csv_fields()[col + 1:] for r in second.rows]
    assert a == b
    assert len(first.rows) == 2 * 2 * 2 * 2
    keys = [(r.n, r.trial, r.p, r.omega) for r in first.rows]
    assert keys == sorted(keys, key=lambda t: (t[0], t[1], t[2], t[3]))


@pytest.mark.parametrize(
    "call",
    [
        lambda: run_sweep(_tiny_spec(), threads=2),
        lambda: recover_clip(np.zeros(64), AudioPipelineConfig(block_len=64, num_blocks=1), threads=2),
    ],
    ids=["run_sweep", "recover_clip"],
)
def test_drivers_reject_more_than_one_thread(call):
    with pytest.raises(ValueError, match="threads must be 1"):
        call()


def test_paired_instances_share_data_across_p_and_omega():
    spec = _tiny_spec(p_list=(0.5, 1.0), omega_list=(0.0, 0.5, 1.0))
    res = run_sweep(spec)
    by_cell = {}
    for r in res.rows:
        by_cell.setdefault((r.p, r.omega), []).append(r)
    # realized alpha comes from the shared support estimate, so it is
    # identical across every (p, omega) cell of one trial
    ref = [(r.trial, r.alpha_real) for r in next(iter(by_cell.values()))]
    for rows in by_cell.values():
        assert [(r.trial, r.alpha_real) for r in rows] == ref


def test_noise_free_recovery_beats_noisy():
    clean = run_sweep(_tiny_spec(trials=3))
    noisy = run_sweep(_tiny_spec(trials=3, noise_frac=0.05))
    assert mean_snr(clean.rows) > mean_snr(noisy.rows)


def test_csv_round_trip(tmp_path):
    spec = _tiny_spec()
    res = run_sweep(spec)
    out = tmp_path / "sweep.csv"
    res.to_csv(out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(res.rows)
    assert lines[1].split(",")[0] == "20"


def test_failed_row_formatting():
    row = SweepRow(n=10, p=0.5, omega=0.0, alpha_req=0.7, alpha_real=0.7, rho=1.0,
                   trial=0, snr_db=float("-inf"), iters=0, stop_reason="diverged",
                   wall_ms=1.25, status="failed")
    fields = row.as_csv_fields()
    assert fields[CSV_COLUMNS.index("snr_db")] == "-inf"
    assert fields[CSV_COLUMNS.index("stop_reason")] == "diverged"
    assert fields[CSV_COLUMNS.index("status")] == "failed"


def test_sweep_csv_names_why_each_solve_stopped(tmp_path):
    res = run_sweep(_tiny_spec(p_list=(0.5, 1.0), omega_list=(0.0, 1.0)))
    out = tmp_path / "sweep.csv"
    res.to_csv(out)
    lines = [line.split(",") for line in out.read_text().strip().split("\n")]
    assert lines[0][lines[0].index("iters") + 1] == "stop_reason"
    col = CSV_COLUMNS.index("stop_reason")
    assert [line[col] for line in lines[1:]] == [row.stop_reason for row in res.rows]
    assert {row.stop_reason for row in res.rows} <= {"sigma_floor", "max_iters", "stationary"}


@pytest.mark.parametrize("cause", ["diverged", "rank_deficient"])
def test_failed_sweep_row_names_its_cause(monkeypatch, cause):
    def diverge(*args, **kwargs):
        raise SolverDivergenceError("objective became non-finite")

    gen = experiments.gen_gaussian_matrix

    def repeated_row(n, N, rng):
        A = gen(n, N, rng).matrix.copy()
        A[-1] = A[0]
        return DenseMatrix(A)

    if cause == "diverged":
        monkeypatch.setattr(experiments, "solve", diverge)
    else:
        monkeypatch.setattr(experiments, "gen_gaussian_matrix", repeated_row)
    rows = run_sweep(_tiny_spec()).rows
    assert rows and all(
        (r.status, r.snr_db, r.iters, r.stop_reason) == ("failed", float("-inf"), 0, cause)
        for r in rows
    )


def test_row_filters_and_stats():
    rows = [
        SweepRow(n=10, p=0.5, omega=0.0, alpha_req=0.7, alpha_real=0.7, rho=1.0,
                 trial=t, snr_db=float(s), iters=1, stop_reason="sigma_floor",
                 wall_ms=0.0, status="ok")
        for t, s in enumerate((10.0, 20.0, 30.0))
    ]
    picked = filter_rows(rows, omega=0.0)
    assert len(picked) == 3
    assert filter_rows(rows, omega=0.5) == []
    assert abs(mean_snr(rows) - 20.0) < 1e-12
    assert abs(stderr_snr(rows) - 10.0 / np.sqrt(3.0)) < 1e-12
    # a failed row has no SNR; the statistics name it instead of
    # averaging its -inf
    failed = SweepRow(n=10, p=0.5, omega=0.0, alpha_req=0.7, alpha_real=0.7, rho=1.0,
                      trial=3, snr_db=float("-inf"), iters=0, stop_reason="diverged",
                      wall_ms=0.0, status="failed")
    for stat in (mean_snr, stderr_snr):
        with pytest.raises(ValueError, match="1 of 4 rows failed"):
            stat(rows + [failed])


def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# sweep description\n"
        "N = 40\n"
        "n = 16, 20\n"
        "k = 4\n"
        "signal_kind = sparse\n"
        "noise_frac = 0\n"
        "alpha = 0.7\n"
        "rho = 1\n"
        "omega = 0, 0.5, 1\n"
        "p = 0.5\n"
        "trials = 2\n"
        "seed = 3\n"
    )
    spec = load_experiment_spec(cfg)
    assert spec.N == 40
    assert spec.n_list == (16, 20)
    assert spec.omega_list == (0.0, 0.5, 1.0)
    assert spec.signal_kind == "sparse"


def test_config_file_compressible_decay(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "N = 40\nn = 20\nk = 4\nsignal_kind = compressible(1.1)\nnoise_frac = 0\n"
        "alpha = 0.7\nrho = 1\nomega = 0.5\np = 0.5\ntrials = 1\nseed = 0\n"
    )
    spec = load_experiment_spec(cfg)
    assert spec.signal_kind == "compressible"
    assert spec.decay == 1.1


def test_config_file_errors_name_the_key(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(
        "N = 40\nn = 20\nk = 4\nsignal_kind = sparse\nnoise_frac = 0\n"
        "alpha = 0.7\nrho = 1\nomega = 0.5\np = 0.5\ntrials = 1\nseed = 0\nbogus = 1\n"
    )
    with pytest.raises(ConfigError, match="bogus"):
        load_experiment_spec(bad)
    missing = tmp_path / "missing.cfg"
    missing.write_text("N = 40\nn = 20\nk = 4\n")
    with pytest.raises(ConfigError, match="signal_kind|noise_frac|alpha"):
        load_experiment_spec(missing)
    dup = tmp_path / "dup.cfg"
    dup.write_text(
        "N = 40\nN = 50\nn = 20\nk = 4\nsignal_kind = sparse\nnoise_frac = 0\n"
        "alpha = 0.7\nrho = 1\nomega = 0.5\np = 0.5\ntrials = 1\nseed = 0\n"
    )
    with pytest.raises(ConfigError, match="N"):
        load_experiment_spec(dup)


def test_non_integer_n_is_rejected(tmp_path):
    assert _tiny_spec(n_list=(20.0,)).n_list == (20,)
    with pytest.raises(ValueError, match="integer"):
        _tiny_spec(n_list=(15.7, 20))
    cfg = tmp_path / "frac.cfg"
    cfg.write_text(
        "N = 40\nn = 15.7, 20\nk = 4\nsignal_kind = sparse\nnoise_frac = 0\n"
        "alpha = 0.7\nrho = 1\nomega = 0.5\np = 0.5\ntrials = 1\nseed = 0\n"
    )
    with pytest.raises(ConfigError, match="integer"):
        load_experiment_spec(cfg)


@pytest.mark.parametrize("key", ["noise_frac", "rho"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
def test_spec_rejects_non_finite_noise_and_rho(key, value):
    with pytest.raises(ValueError, match=key):
        _tiny_spec(**{key: value})
