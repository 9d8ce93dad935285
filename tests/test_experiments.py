import math
from dataclasses import astuple, fields

import numpy as np
import pytest

from cswlp import experiments, solver
from cswlp.audio import AudioPipelineConfig, recover_clip
from cswlp.cli import main
from cswlp.core import ConfigError, DenseMatrix, SolverDivergenceError
from cswlp.experiments import (
    ExperimentSpec,
    SweepRow,
    gen_compressible_signal,
    gen_gaussian_matrix,
    gen_noise_on_sphere,
    gen_sparse_signal,
    gen_support_estimate,
    load_experiment_spec,
    run_sweep,
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


_COLUMNS = [f.name for f in fields(SweepRow)]


def _sweep_csv(tmp_path, spec):
    """The text of the sweep.csv that `cswlp sweep` writes for a sparse spec."""
    def join(values):
        return ", ".join(map(str, values))

    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"N = {spec.N}\nn = {join(spec.n_list)}\nk = {spec.k}\nsignal_kind = {spec.signal_kind}\n"
        f"noise_frac = {spec.noise_frac}\nalpha = {join(spec.alpha_list)}\nrho = {spec.rho}\n"
        f"omega = {join(spec.omega_list)}\np = {join(spec.p_list)}\ntrials = {spec.trials}\nseed = {spec.seed}\n"
    )
    assert main(["--out-dir", str(tmp_path / "out"), "sweep", "--config", str(cfg)]) == 0
    return (tmp_path / "out" / "sweep.csv").read_text()


def test_sparse_signal_has_exact_support_size():
    rng = np.random.default_rng(1)
    x = gen_sparse_signal(50, 6, rng)
    nz = np.flatnonzero(x.entries)
    assert nz.size == 6
    assert np.all(x.entries[nz] != 0.0)
    with pytest.raises(ValueError, match="k must lie in 1..5, got 6"):
        gen_sparse_signal(5, 6, rng)


class _ScriptedNormals:
    """A generator whose first ``standard_normal`` draw is ``first``;
    every later draw, and every other method, is a seeded generator's."""

    def __init__(self, first, seed):
        self._first, self._rng = np.array(first, dtype=np.float64), np.random.default_rng(seed)

    def standard_normal(self, size):
        if self._first is None:
            return self._rng.standard_normal(size)
        first, self._first = self._first, None
        assert first.shape == (size,)
        return first

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_sparse_signal_redraws_a_zero_value():
    # an exact 0.0 among the k normal draws would leave k - 1 nonzeros
    rng = _ScriptedNormals([1.5, 0.0, -2.0, 0.0, 0.7, 3.0], seed=1)
    x = gen_sparse_signal(50, 6, rng)
    assert np.count_nonzero(x.entries) == 6


def test_noise_redraws_an_all_zero_direction():
    # an all-zero draw has no direction to scale onto the sphere
    x = gen_sparse_signal(30, 3, np.random.default_rng(4))
    e = gen_noise_on_sphere(12, 0.05, x, _ScriptedNormals(np.zeros(12), seed=5))
    assert abs(float(np.linalg.norm(e)) - 0.05 * float(np.linalg.norm(x.entries))) < 1e-12


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
    with pytest.raises(ValueError, match="need 1 <= n <= N, got n=6, N=5"):
        gen_gaussian_matrix(6, 5, rng)


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
    inside = set(est) & set(true_support)
    outside = set(est) - set(true_support)
    assert len(est) == 10
    assert len(inside) == 7
    assert len(outside) == 3
    assert est == tuple(sorted(est)) and all(type(i) is int for i in est)
    # round(alpha*rho*k) true indices, not round(alpha*size): at k = 3,
    # rho = 0.5 and alpha = 0.75 that is 1 of the 2, where the other
    # rule would take 2
    est = gen_support_estimate((1, 2, 3), N=60, alpha=0.75, rho=0.5, rng=rng)
    assert len(est) == 2 and len(set(est) & {1, 2, 3}) == 1


def test_support_estimate_infeasible_sizes_raise():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError):
        # inside count would exceed the true support
        gen_support_estimate(tuple(range(1, 5)), N=20, alpha=1.0, rho=2.0, rng=rng)
    with pytest.raises(ValueError):
        # outside count would exceed the complement
        gen_support_estimate(tuple(range(1, 5)), N=5, alpha=0.0, rho=0.5, rng=rng)
    with pytest.raises(ValueError, match="true support must be non-empty"):
        gen_support_estimate((), N=5, alpha=0.5, rho=1.0, rng=rng)


def test_spec_refuses_an_estimate_no_instance_can_draw():
    # alpha = 0.7 at rho = 2 needs 14 true indices of k = 10, which the
    # domain's alpha rho <= 1 refuses; the alpha = 0.5 cells must not be
    # solved first
    with pytest.raises(ValueError, match=r"alpha rho > 1 at \(alpha, rho\) = \(0.7, 2.0\)"):
        _tiny_spec(N=40, k=10, alpha_list=(0.5, 0.7), rho=2.0)
    # round(rho k) - round(alpha rho k) = 4 outside indices, but N - k = 3
    with pytest.raises(ValueError, match=r"\(0.0, 1.0\) needs 0 of the 4 true indices and 4 of the 3 others in 1..7"):
        _tiny_spec(N=7, n_list=(5,), k=4, alpha_list=(0.0,), rho=1.0)


def test_spec_refuses_a_support_larger_than_the_signal():
    # every n fits, so only the support size is out of range; the
    # estimate's own counts would refuse it later with another message
    with pytest.raises(ValueError, match=r"^k must lie in 1\.\.N$"):
        _tiny_spec(N=40, n_list=(20,), k=41)


def test_spec_validation():
    _tiny_spec()
    with pytest.raises(ValueError):
        _tiny_spec(signal_kind="dense")
    with pytest.raises(ValueError):
        _tiny_spec(signal_kind="compressible", decay=None)
    # a sparse signal reads no decay, so one recorded in a manifest would
    # be ignored on every replay
    with pytest.raises(ValueError, match=r"^sparse signals take no decay exponent, got -5\.0$"):
        _tiny_spec(signal_kind="sparse", decay=-5.0)
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
    assert [astuple(r) for r in first.rows] == [astuple(r) for r in second.rows]
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
    clean = run_sweep(_tiny_spec(trials=3)).rows
    noisy = run_sweep(_tiny_spec(trials=3, noise_frac=0.05)).rows
    # a failed row's -inf would decide the means
    assert all(r.status == "ok" for r in clean + noisy)
    assert np.mean([r.snr_db for r in clean]) > np.mean([r.snr_db for r in noisy])


def test_csv_round_trip(tmp_path):
    spec = _tiny_spec()
    text = _sweep_csv(tmp_path, spec)
    assert text.endswith("\n")
    lines = [line.split(",") for line in text.strip().split("\n")]
    assert lines[0] == _COLUMNS
    rows = run_sweep(spec).rows
    assert len(lines) == 1 + len(rows)
    assert lines[1][0] == "20"
    # every field reads back as the row's value
    for line, row in zip(lines[1:], rows):
        values = astuple(row)
        assert tuple(type(v)(f) for v, f in zip(values, line)) == values


def test_failed_row_formatting(tmp_path, monkeypatch):
    def diverge(*args, **kwargs):
        raise SolverDivergenceError("objective became non-finite")

    monkeypatch.setattr(experiments, "solve", diverge)
    lines = [line.split(",") for line in _sweep_csv(tmp_path, _tiny_spec()).strip().split("\n")]
    assert len(lines) == 3
    for line in lines[1:]:
        assert line[_COLUMNS.index("snr_db")] == "-inf"
        assert line[_COLUMNS.index("iters")] == "0"
        assert line[_COLUMNS.index("stop_reason")] == "diverged"
        assert line[_COLUMNS.index("status")] == "failed"


def test_sweep_csv_names_why_each_solve_stopped(tmp_path):
    spec = _tiny_spec(p_list=(0.5, 1.0), omega_list=(0.0, 1.0))
    lines = [line.split(",") for line in _sweep_csv(tmp_path, spec).strip().split("\n")]
    res = run_sweep(spec)
    assert lines[0][lines[0].index("iters") + 1] == "stop_reason"
    col = _COLUMNS.index("stop_reason")
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
        and math.isnan(r.norm_ratio)
        for r in rows
    )


def test_norm_ratio_certifies_a_solver_miss(monkeypatch):
    # without noise the true x is feasible: a recovered row's weighted lp
    # norm equals x's up to rounding
    spec = _tiny_spec(p_list=(0.5, 1.0), omega_list=(0.0, 1.0))
    rows = run_sweep(spec).rows
    recovered = [r for r in rows if r.snr_db >= 60.0]
    assert recovered and all(abs(r.norm_ratio - 1.0) < 1e-12 for r in recovered)
    assert all(r.norm_ratio <= 1.0 + 1e-12 for r in rows)
    # an estimate equal to the support at omega = 0 gives x no weight:
    # an exact recovery has none either
    exact = _tiny_spec(alpha_list=(1.0,), omega_list=(0.0,))
    assert [r.norm_ratio for r in run_sweep(exact).rows] == [1.0, 1.0]
    # a floor just below the first smoothing level ends each solve after
    # two levels, near the least-norm point, whose norm exceeds x's
    monkeypatch.setattr(solver, "_SIGMA_FLOOR", 0.5 * solver._SIGMA_INIT)
    cut = run_sweep(spec).rows
    assert all(r.stop_reason == "sigma_floor" and r.norm_ratio > 1.1 for r in cut)
    assert [r.norm_ratio for r in run_sweep(exact).rows] == [math.inf, math.inf]
    monkeypatch.undo()
    # with noise x is not feasible, and the ratio certifies nothing
    assert all(math.isnan(r.norm_ratio) for r in run_sweep(_tiny_spec(noise_frac=0.05)).rows)


def test_norm_ratio_at_small_p():
    # at p = 0.005 a 40-sparse x has sum |x_i|^p near 40, whose 200th
    # power leaves the float range: the ratio is then the root of the
    # sums' ratio, never a quotient of two overflowing norms
    spec = _tiny_spec(N=200, n_list=(100,), k=40, p_list=(0.005,), trials=1, seed=3)
    (row,) = run_sweep(spec).rows
    assert row.status == "ok" and math.isfinite(row.norm_ratio)
    assert experiments._norm_ratio(490.0, 245.0, 0.005) == 2.0**200
    assert experiments._norm_ratio(1000.0, 1.0, 0.005) == math.inf
    assert experiments._norm_ratio(490.0, 0.0, 0.005) == math.inf


@pytest.mark.parametrize("omega", ["0, 0.5, 1", "0:1:3"])
def test_config_file_round_trip(tmp_path, omega):
    # lists take the CLI's grid syntax, start:stop:count tokens included
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
        f"omega = {omega}\n"
        "p = 0.5\n"
        "trials = 2\n"
        "seed = 3\n"
    )
    spec = load_experiment_spec(cfg)
    assert spec == _tiny_spec(N=40, n_list=(16, 20), k=4, omega_list=(0.0, 0.5, 1.0), p_list=(0.5,),
                              alpha_list=(0.7,), rho=1.0, noise_frac=0.0, trials=2, seed=3)
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
    empty = tmp_path / "empty.cfg"
    empty.write_text(
        "N = 40\nn = 20\nk = 4\nsignal_kind = sparse\nnoise_frac = 0\n"
        "alpha = 0.7\nrho = 1\nomega = 0,,1\np = 0.5\ntrials = 1\nseed = 0\n"
    )
    with pytest.raises(ConfigError, match="bad value for 'omega'"):
        load_experiment_spec(empty)
    kind = tmp_path / "kind.cfg"
    kind.write_text(
        "N = 40\nn = 20\nk = 4\nsignal_kind = dense\nnoise_frac = 0\n"
        "alpha = 0.7\nrho = 1\nomega = 0.5\np = 0.5\ntrials = 1\nseed = 0\n"
    )
    with pytest.raises(ConfigError, match="bad value for 'signal_kind': 'dense'"):
        load_experiment_spec(kind)
    no_equals = tmp_path / "no_equals.cfg"
    no_equals.write_text("N = 40\nn 20\n")
    with pytest.raises(ConfigError, match="no_equals.cfg:2: expected key = value, got 'n 20'"):
        load_experiment_spec(no_equals)


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
