"""End-to-end acceptance suite.

Each test prints one summary line of measured values before asserting,
so a verbose run shows a per-criterion verdict with the numbers that
produced it.  These are the slowest tests in the suite; the sweep and
audio reproductions each take minutes of single-core time.
"""

import itertools
import json
from functools import cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from cswlp import (
    DenseMatrix,
    Measurements,
    SolverConfig,
    WeightVector,
    best_k_term,
    delta_hat_lp,
    delta_hat_wl1,
    delta_hat_wlp,
    error_constants,
    oracle_weighted_lp,
    proposition2_check,
    smoothed_gradient,
    smoothed_objective,
    snr_db,
    solve,
    sufficient_condition_holds,
    weighted_lp_norm,
)
from cswlp import solver
from cswlp.audio import AudioPipelineConfig, recover_clip, synthesize_speech_like, write_wav_mono
from cswlp.experiments import (
    ExperimentSpec,
    gen_gaussian_matrix,
    gen_sparse_signal,
    gen_support_estimate,
    run_sweep,
)
from cswlp.theory import ConditionViolatedError
from test_solver import _criterion_3_instance, _criterion_6_instance, record_iterates, worst_residual
from test_theory import _wl1_constants

# norm_ratio above 1 by more than this is a certified solver miss
_MISS_REL = 1e-9


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_gradient_matches_finite_differences():
    rng = np.random.default_rng(101)
    N = 32
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(N)
        w = np.ones(N)
        t_size = int(rng.integers(1, N))
        w[rng.choice(N, size=t_size, replace=False)] = rng.uniform(0.05, 1.0)
        p = float(rng.uniform(0.1, 1.0))
        sigma = float(10.0 ** rng.uniform(-3, 1))
        g = smoothed_gradient(x, w, p, sigma)
        fd = np.empty(N)
        for i in range(N):
            h = 1e-6 * max(sigma, abs(x[i]))
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = (smoothed_objective(xp, w, p, sigma) - smoothed_objective(xm, w, p, sigma)) / (2 * h)
        rel = float(np.max(np.abs(fd - g)) / np.max(np.abs(g)))
        worst = max(worst, rel)
    ok = worst <= 1e-5
    _report(1, ok, f"max relative gradient error {worst:.2e} over 100 draws (bound 1e-05)")
    assert ok


def test_criterion_2_iterates_stay_feasible(monkeypatch):
    rng = np.random.default_rng(202)
    N, n = 128, 64
    worst = 0.0
    iterates = record_iterates(monkeypatch)
    monkeypatch.setattr(solver, "_MAX_ITERS", 60)
    for _ in range(50):
        A = rng.standard_normal((n, N)) / np.sqrt(n)
        x = np.zeros(N)
        x[rng.choice(N, size=10, replace=False)] = rng.standard_normal(10)
        b = A @ x
        b_norm = float(np.linalg.norm(b))
        w = WeightVector(omega=float(rng.uniform(0.1, 1.0)),
                         estimate=tuple(range(1, 11)), size=N)
        iterates.clear()
        _, trace = solve(DenseMatrix(A), Measurements(b), w, SolverConfig(p=0.5))
        worst = max(worst, worst_residual(DenseMatrix(A), b, iterates, trace) / b_norm)
    ok = worst <= 1e-8
    _report(2, ok, f"max residual {worst:.2e} x ||b|| across all iterates of 50 solves (bound 1e-08)")
    assert ok


def _oracle_match_rates(k: int, trials: int = 200, seed: int = 12345) -> tuple[int, int]:
    """Solver-oracle support matches over ``trials`` instances of k
    nonzeros, with uninformative weights and with weight 0.3 on the true
    support; each instance is drawn once and scored at both in turn, so
    its second oracle call reads the fits of its first."""
    cfg = SolverConfig(p=0.5)
    hits = [0, 0]
    for trial in range(trials):
        A, y, sup = _criterion_3_instance(k, trial, seed)
        A_op = DenseMatrix(A)
        for j, omega_on_support in enumerate((1.0, 0.3)):
            w = np.ones(10)
            w[sup] = omega_on_support  # a perfectly accurate, same-size estimate
            res = oracle_weighted_lp(A_op, y, w, 0.5, 4)
            xs, _ = solve(A_op, y, w, cfg)
            got = tuple(
                int(i) + 1
                for i in np.flatnonzero(np.abs(xs.entries) > 1e-4 * np.max(np.abs(xs.entries)))
            )
            hits[j] += got == res.support
    return hits[0], hits[1]


def test_criterion_3_solver_matches_oracle():
    parts = []
    ok = True
    rates = {k: _oracle_match_rates(k) for k in (1, 2)}
    for i, label in enumerate(("p=0.5 omega=1", "p=0.5 omega=0.3 alpha=1")):
        h1, h2 = rates[1][i], rates[2][i]
        rate = (h1 + h2) / 400.0
        ok = ok and rate >= 0.95
        parts.append(
            f"{label}: {100 * rate:.2f}% match (k=1 {h1}/200, k=2 {h2}/200, "
            f"miss rate {100 * (1 - rate):.2f}%)"
        )
    _report(3, ok, "; ".join(parts) + " (bound 95% per config)")
    assert ok


def test_criterion_4_reduction_identities_and_propositions():
    rng = np.random.default_rng(404)
    refused = []

    def draws(count):
        made = 0
        while made < count:
            a = float(rng.uniform(1.1, 6.0))
            p = float(rng.uniform(0.05, 1.0))
            omega = float(rng.uniform(0.0, 1.0))
            alpha = float(rng.uniform(0.0, 1.0))
            rho = float(rng.uniform(0.1, 2.0))
            if alpha * rho > 1.0:
                # more correct entries than the support holds
                refused.append((a, p, omega, alpha, rho))
                continue
            made += 1
            yield a, p, omega, alpha, rho

    worst_lp = max(
        abs(delta_hat_wlp(a, p, 1.0, alpha, rho) - delta_hat_lp(a, p))
        for a, p, _, alpha, rho in draws(1000)
    )
    worst_wl1 = max(
        abs(delta_hat_wlp(a, 1.0, omega, alpha, rho) - delta_hat_wl1(a, omega, alpha, rho))
        for a, _, omega, alpha, rho in draws(1000)
    )

    # constants at p=1 agree with the weighted-l1 closed form
    worst_prop1 = 0.0
    compared = 0
    for a, _, omega, alpha, rho in draws(1000):
        d1 = float(rng.uniform(0.0, 0.08))
        d2 = float(rng.uniform(0.0, 0.08))
        try:
            c = error_constants(a, 1.0, omega, alpha, rho, d1, d2)
        except ConditionViolatedError:
            continue
        ref = _wl1_constants(a, omega, alpha, rho, d1, d2)
        worst_prop1 = max(
            worst_prop1,
            abs(c[0] - ref[0]) / max(1.0, abs(ref[0])),
            abs(c[1] - ref[1]) / max(1.0, abs(ref[1])),
        )
        compared += 1
    assert compared > 500

    # alpha = 0.5, rho = 1: weighted constants equal the unweighted ones
    grid = np.linspace(0.0, 0.25, 26)
    worst_eq = 0.0
    for p in (0.3, 0.5, 0.8):
        for d in grid:
            cw = error_constants(3.0, p, 0.3, 0.5, 1.0, float(d), float(d))
            cu = error_constants(3.0, p, 1.0, 0.5, 1.0, float(d), float(d))
            worst_eq = max(worst_eq, abs(cw[0] - cu[0]), abs(cw[1] - cu[1]))

    # the checker verifies strict improvement for alpha > 1/2, equality
    # at 1/2, and strict loss below, so truth across the grid is the iff
    iff_ok = all(
        proposition2_check(3.0, 0.5, 0.3, alpha, 1.0, grid)
        for alpha in (0.3, 0.4, 0.5, 0.6, 0.7, 0.9)
    )

    # every entry point of the closed forms refuses each pair the draws skipped
    def raises(call, *args, **kwargs):
        try:
            call(*args, **kwargs)
        except ValueError:
            return True
        return False

    refusals_ok = all(
        raises(delta_hat_wl1, a, omega, alpha, rho)
        and raises(delta_hat_wlp, a, p, omega, alpha, rho)
        and raises(error_constants, a, p, omega, alpha, rho, 0.0, 0.0)
        and raises(sufficient_condition_holds, a, p, omega, alpha, rho, 0.0, 0.0)
        and raises(proposition2_check, a, p, omega, alpha, rho, [0.0])
        for a, p, omega, alpha, rho in refused
    )

    ok = (worst_lp <= 1e-12 and worst_wl1 <= 1e-12 and worst_prop1 <= 1e-12
          and worst_eq <= 1e-12 and iff_ok and refused and refusals_ok)
    _report(4, ok, f"reduction gaps lp {worst_lp:.1e}, wl1 {worst_wl1:.1e}; "
                   f"p=1 constants gap {worst_prop1:.1e} over {compared} draws; "
                   f"alpha=0.5 equality gap {worst_eq:.1e}; strict iff alpha>0.5: {iff_ok}; "
                   f"{len(refused)} draws with alpha rho > 1 refused by every entry point: {refusals_ok}")
    assert ok


def test_criterion_5_threshold_spot_values():
    v1 = delta_hat_lp(3.0, 0.4)
    v2 = delta_hat_wl1(3.0, 0.0, 0.8, 1.0)
    v3 = delta_hat_wlp(3.0, 0.5, 0.0, 0.8, 1.0)
    e1 = abs(v1 - 80.0 / 82.0)
    e2 = abs(v2 - 2.6 / 3.4)
    e3 = abs(v3 - 26.936 / 27.064)
    ok = e1 <= 1e-12 and e2 <= 1e-12 and e3 <= 1e-3
    _report(5, ok, f"lp(3, 2/5) err {e1:.1e}; wl1(3,0,0.8,1) err {e2:.1e}; "
                   f"wlp(3,0.5,0,0.8,1) err {e3:.1e}")
    assert ok


_CRITERION_6_SPEC = ExperimentSpec(N=500, n_list=(100, 140, 200), k=40, signal_kind="sparse",
                                   decay=None, noise_frac=0.0, alpha_list=(0.7,), rho=1.0,
                                   omega_list=(0.0, 0.5, 1.0), p_list=(0.5, 1.0), trials=10, seed=2)


def _certified_misses(rows, n, p, omega) -> int:
    """Rows of cell (n, p, omega) whose result has a weighted lp norm
    above x's beyond rounding: with no noise x is feasible, so each is a
    point the solver missed."""
    return sum(r.norm_ratio > 1.0 + _MISS_REL for r in rows if (r.n, r.p, r.omega) == (n, p, omega))


def test_criterion_6_sparse_sweep_trends():
    spec = _CRITERION_6_SPEC
    res = run_sweep(spec)

    def snrs(n, p, omega):
        # each row carries the spec's own floats, so equality selects
        return np.array([r.snr_db for r in res.rows if (r.n, r.p, r.omega) == (n, p, omega)])

    gaps = []
    ordering_ok = True
    for lo, hi in ((0.0, 0.5), (0.5, 1.0)):
        d = snrs(n=100, p=0.5, omega=lo) - snrs(n=100, p=0.5, omega=hi)
        gap = float(d.mean())
        se = float(d.std(ddof=1) / np.sqrt(len(d)))
        gaps.append(f"omega {lo} vs {hi}: {gap:+.2f} (se {se:.2f})")
        ordering_ok = ordering_ok and gap >= -se
    mean_ez = float(snrs(n=200, p=0.5, omega=0.0).mean())
    m_half = float(snrs(n=100, p=0.5, omega=0.5).mean())
    m_one = float(snrs(n=100, p=1.0, omega=0.5).mean())
    ok = ordering_ok and mean_ez >= 80.0 and m_half >= m_one
    # certified misses, with no bound (an exact recovery reads a norm
    # ratio of 1 within a few 1e-15)
    misses = "; ".join(
        f"n={n} p={p:g}: " + "/".join(str(_certified_misses(res.rows, n, p, omega)) for omega in spec.omega_list)
        for n in spec.n_list for p in spec.p_list
    )
    _report(6, ok, f"(a) {'; '.join(gaps)}; (b) n=200 omega=0 mean {mean_ez:.1f} dB (bound 80); "
                   f"(c) p=0.5 {m_half:.1f} vs p=1 {m_one:.1f} dB; "
                   f"misses of {spec.trials} by omega 0/0.5/1: {misses}")
    assert ok


def test_criterion_7_compressible_interior_omega():
    omegas = tuple(i / 6 for i in range(7))
    spec = ExperimentSpec(N=500, n_list=(100,), k=40, signal_kind="compressible",
                          decay=1.1, noise_frac=0.0, alpha_list=(0.7,), rho=1.0,
                          omega_list=omegas, p_list=(0.5,), trials=20, seed=2)
    res = run_sweep(spec)
    means = {om: float(np.mean([r.snr_db for r in res.rows if (r.n, r.p, r.omega) == (100, 0.5, om)]))
             for om in omegas}
    best = max(means, key=means.get)
    ok = 0.0 < best < 1.0
    table = ", ".join(f"{om:.3f}: {m:.2f}" for om, m in means.items())
    _report(7, ok, f"best omega {best:.3f} (mean SNR dB by omega: {table})")
    assert ok


def test_criterion_8_audio_interior_omega():
    cfg = AudioPipelineConfig(p_list=(0.5, 1.0))
    samples = synthesize_speech_like(cfg.block_len * cfg.num_blocks, seed=cfg.seed)
    rows, _ = recover_clip(samples, cfg)
    best = {}
    interior_ok = True
    for p in cfg.p_list:
        by_omega = {r.omega: r.snr_db for r in rows if r.p == p}
        best_omega = max(by_omega, key=by_omega.get)
        best[p] = by_omega[best_omega]
        interior_ok = interior_ok and 0.0 < best_omega < 1.0
    margin_ok = best[0.5] >= best[1.0] - 0.5
    ok = interior_ok and margin_ok
    _report(8, ok, f"best SNR p=0.5 {best[0.5]:.2f} dB, p=1 {best[1.0]:.2f} dB, "
                   f"interior maxima: {interior_ok}, margin >= -0.5 dB: {margin_ok}")
    assert ok


def test_criterion_9_replay_is_bit_identical(tmp_path):
    from cswlp.cli import RunManifest, main, write_matrix_binary, write_vector_binary

    rng = np.random.default_rng(909)
    A = rng.standard_normal((8, 16)) / np.sqrt(8)
    x = np.zeros(16)
    x[(2, 9),] = (1.3, -0.7)
    write_matrix_binary(tmp_path / "A.bin", A)
    write_vector_binary(tmp_path / "y.bin", A @ x)
    wav = tmp_path / "clip.wav"
    write_wav_mono(wav, synthesize_speech_like(512, seed=5), 44100.0)
    sweep_cfg = tmp_path / "exp.cfg"
    sweep_cfg.write_text(
        "N = 30\nn = 15\nk = 3\nsignal_kind = sparse\nnoise_frac = 0\n"
        "alpha = 0.7\nrho = 1\nomega = 0, 1\np = 0.5\ntrials = 2\nseed = 6\n"
    )
    runs = {
        "solve": ["solve", "--matrix", str(tmp_path / "A.bin"),
                  "--measurements", str(tmp_path / "y.bin")],
        "theory": ["theory", "--a", "3", "--p", "0.5", "--omega", "0:1:5",
                   "--alpha", "0:1:5", "--rho", "1",
                   "--delta-ak", "0.05", "--delta-a1k", "0.05"],
        "sweep": ["sweep", "--config", str(sweep_cfg)],
        "audio": ["audio", "--input", str(wav), "--block-len", "256",
                  "--num-blocks", "2", "--keep-frac", "0.5",
                  "--p", "0.5", "--omega", "0,0.5"],
    }
    mismatches = []
    for name, argv in runs.items():
        orig = tmp_path / name
        redo = tmp_path / (name + "_replay")
        assert main(["--out-dir", str(orig), *argv]) == 0
        assert main(["--out-dir", str(redo), "replay",
                     "--manifest", str(orig / "manifest.json")]) == 0
        for out_name in RunManifest.load(orig / "manifest.json").outputs:
            if (orig / out_name).read_bytes() != (redo / out_name).read_bytes():
                mismatches.append(f"{name}/{out_name}")
    ok = not mismatches
    _report(9, ok, "all replayed outputs bit-identical"
            if ok else f"mismatched files: {mismatches}")
    assert ok


# instances per k of criteria 10 and 11: each costs about 0.2 s of
# oracle fits, and both criteria must stay under 20 s together
_DECODER_TRIALS = 40


@cache
def _decoder_recoveries(
    k: int, alphas: tuple[float, ...], p_list: tuple[float, ...], omegas: tuple[float, ...],
    trials: int = _DECODER_TRIALS, seed: int = 1,
) -> dict[tuple[float, float, float], np.ndarray]:
    """Exact-decoder recoveries on 8 x 16 instances of k nonzeros, rho = 1:
    entry (p, alpha, omega) flags the instances whose minimizer of the
    weighted lp decoder, ``oracle_weighted_lp`` at k_max = n, equals x
    within 1e-6.  Each instance draws one estimate per alpha and scores
    it at every p and omega, so the cells are paired by instance and
    weighting, and its fits are built once for all of them; equal
    weightings (omega = 1 under any estimate) are scored once."""
    n, N = 8, 16
    hits = {(p, a, om): np.zeros(trials, dtype=bool) for p in p_list for a in alphas for om in omegas}
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, k, trial]))
        x = gen_sparse_signal(N, k, rng)
        A = gen_gaussian_matrix(n, N, rng)
        y = A.matrix @ x.entries
        true = np.flatnonzero(x.entries) + 1
        scored = {}
        for alpha in alphas:
            estimate = gen_support_estimate(true, alpha, 1.0, N, rng)
            for omega in omegas:
                w = WeightVector(omega, estimate, N).weights
                for p in p_list:
                    key = (p, w.tobytes())
                    if key not in scored:
                        z = oracle_weighted_lp(A, y, w, p, n).minimizer.entries
                        scored[key] = np.max(np.abs(z - x.entries)) <= 1e-6
                    hits[p, alpha, omega][trial] = scored[key]
    return hits


def test_criterion_10_lp_recovers_where_l1_does_not():
    # the paper's first claim at the decoder level: paired by instance and
    # weighting, p = 0.5 recovers x at least as often as p = 1 in every cell
    hits = _decoder_recoveries(4, (0.25, 0.75), (0.5, 1.0), (0.0, 0.5, 1.0))
    cells, ok, totals = [], True, [0, 0]
    for alpha in (0.25, 0.75):
        for omega in (0.0, 0.5, 1.0):
            lo, hi = (int(hits[p, alpha, omega].sum()) for p in (0.5, 1.0))
            ok = ok and lo >= hi
            totals[0] += lo
            totals[1] += hi
            cells.append(f"alpha={alpha} omega={omega}: {lo}/{hi}")
    ok = ok and totals[0] > totals[1]
    _report(10, ok, f"8x16 k=4 rho=1, exact-decoder recoveries of {_DECODER_TRIALS}, p=0.5/p=1: {'; '.join(cells)}; "
                    f"total {totals[0]}/{totals[1]} (bound: >= in each cell, > in total)")
    assert ok


def test_criterion_11_estimate_weighting_follows_its_accuracy():
    # the direction of the paper's second claim: weight 0 on the estimate
    # beats no weighting when the estimate is mostly right and loses when
    # it is mostly wrong; the crossover is a recovery rate, not the 50%
    # where the sufficient conditions cross, so only its direction is asserted
    runs = (
        (1.0, 4, (0.25, 0.75), _decoder_recoveries(4, (0.25, 0.75), (0.5, 1.0), (0.0, 0.5, 1.0))),
        (0.5, 5, (0.2, 0.8), _decoder_recoveries(5, (0.2, 0.8), (0.5,), (0.0, 1.0))),
    )
    cells, ok = [], True
    for p, k, (low, high), hits in runs:
        for alpha in (low, high):
            zero, one = (int(hits[p, alpha, omega].sum()) for omega in (0.0, 1.0))
            ok = ok and (zero > one if alpha == high else zero < one)
            thresholds = "/".join(f"{delta_hat_wlp(3.0, p, omega, alpha, 1.0):.4f}" for omega in (0.0, 1.0))
            cells.append(f"p={p:g} k={k} alpha={alpha}: {zero}/{one} (delta_hat_wlp a=3 {thresholds})")
    _report(11, ok, f"8x16 rho=1, exact-decoder recoveries of {_DECODER_TRIALS}, omega=0/omega=1: {'; '.join(cells)} "
                    f"(bound: omega=0 more at high alpha, fewer at low alpha)")
    assert ok


# criterion 12's instance sets: (n, N, k, instance seed); an 8 x 16 exact-
# decoder table costs about 0.2 s, so the k = 3 cells use 6 x 10 only
_DISTANCE_SETS = ((6, 10, 3, 11), (6, 10, 4, 11), (8, 16, 4, 12))
_DISTANCE_TRIALS = 30


def _distance_cell(solves, exact, truth) -> str:
    """One criterion-12 report: results above the exact decoder's
    objective by more than 1e-6 relative and the worst such gap, x
    recovered by the solve and by the exact decoder, and certified
    misses (a weighted lp norm above x's)."""
    gaps = [s_val / e_val - 1.0 for (_, s_val, _), (_, e_val) in zip(solves, exact)]
    above = [g for g in gaps if g > 1e-6]
    hit = sum(np.max(np.abs(x_hat - x)) <= 1e-6 for (x_hat, _, _), x in zip(solves, truth))
    exact_hit = sum(np.max(np.abs(z - x)) <= 1e-6 for (z, _), x in zip(exact, truth))
    misses = sum(ratio > 1.0 + _MISS_REL for _, _, ratio in solves)
    return (f"above exact {len(above)}/{len(solves)} (worst {max(above, default=0.0):.1e}), "
            f"recovered solve/exact {hit}/{exact_hit}, certified misses {misses}")


def _distance_runs(n: int, N: int, k: int, seed: int) -> dict:
    """Criterion 12's runs on one instance set: for each p, the solves,
    the solves with no restarts, the exact decoder's (minimizer, value)
    and x, one entry per instance.  A solve result is (x_hat, its weighted
    lp objective, its norm ratio to x's)."""
    runs = {p: ([], [], [], []) for p in (0.5, 1.0)}
    for trial in range(_DISTANCE_TRIALS):
        rng = np.random.default_rng(np.random.SeedSequence([seed, k, trial]))
        A = gen_gaussian_matrix(n, N, rng)
        x = gen_sparse_signal(N, k, rng).entries
        w = np.ones(N)
        w[rng.choice(N, size=round(0.3 * N), replace=False)] = 0.5
        y = A.matrix @ x
        for p, (solves, unrestarted, exact, truth) in runs.items():
            res = oracle_weighted_lp(A, y, w, p, n)
            exact.append((res.minimizer.entries, res.objective_value))
            truth.append(x)
            x_hat, trace = solve(A, y, w, SolverConfig(p=p))
            if trace.restart_iters:
                with mock.patch.object(solver, "_RESTARTS", 0):
                    x_plain = solve(A, y, w, SolverConfig(p=p))[0]
            else:  # the same solve
                x_plain = x_hat
            for out, got in ((solves, x_hat), (unrestarted, x_plain)):
                value = float(np.sum(w**p * np.abs(got.entries) ** p))
                out.append((got.entries, value, weighted_lp_norm(got, w, p) / weighted_lp_norm(x, w, p)))
                assert value >= res.objective_value * (1.0 - 1e-9)
    return runs


def test_criterion_12_solver_distance_to_the_exact_decoder():
    # the solver's distance to the decoder it approximates, printed and not
    # bounded: weight 0.5 on a random 30% of the entries, and
    # oracle_weighted_lp at k_max = n as the exact decoder; each instance's
    # fit table serves both p.  The only assertion is the oracle's
    # exactness: no feasible solve result lies below its minimum.
    for n, N, k, seed in _DISTANCE_SETS:
        for p, (solves, unrestarted, exact, truth) in _distance_runs(n, N, k, seed).items():
            print(f"criterion 12: {n}x{N} k={k} p={p:g}: {_distance_cell(solves, exact, truth)}; "
                  f"with no restarts: {_distance_cell(unrestarted, exact, truth)}")


# criterion 13's grid of scales c for c A: scaling A leaves {x : A x = b}
# and so the decoder unchanged, and the bound holds with the RIP
# constants of any c A
_RIP_SCALES = np.geomspace(0.5, 2.0, 49)


def _singular_extremes(A: np.ndarray, s: int) -> tuple[float, float]:
    """Smallest and largest singular value over every s-column submatrix
    of A: the RIP constant of order s of c A is
    max(c^2 largest^2 - 1, 1 - c^2 smallest^2)."""
    cols = np.array(list(itertools.combinations(range(A.shape[1]), s)))
    sv = np.linalg.svd(A[:, cols].transpose(1, 0, 2), compute_uv=False)
    return float(sv.min()), float(sv.max())


def _best_tail_constant(extremes, p: float, omega: float) -> float | None:
    """The smallest C2 over the scales at which both RIP constants lie
    below 1 and the sufficient condition holds, for k = 1, a = 2 and a
    perfect estimate (alpha = rho = 1); None where it holds at none."""
    best = None
    for c2 in _RIP_SCALES**2:
        d_ak, d_a1k = (max(c2 * hi**2 - 1.0, 1.0 - c2 * lo**2) for lo, hi in extremes)
        if max(d_ak, d_a1k) >= 1.0:
            continue
        try:
            tail = error_constants(2.0, p, omega, 1.0, 1.0, d_ak, d_a1k)[1]
        except ConditionViolatedError:
            continue
        best = tail if best is None else min(best, tail)
    return best


def test_criterion_13_robustness_bound_on_exact_rip_constants():
    # the paper's bound ||x_hat - x||_2^p <= C2 k^(p/2-1) ||x - x_k||_{p,w}^p
    # at epsilon = 0, with delta_2 and delta_3 computed exactly by
    # enumerating column subsets, on the exact decoder's minimizer (its
    # proof uses only feasibility and ||x_hat||_{p,w} <= ||x||_{p,w}, so
    # it tests the theorem and not the solver): 10 x 16, k = 1, a = 2,
    # p = 0.5, and an estimate that is the true index
    n, N, p, omegas = 10, 16, 0.5, (0.0, 0.5, 1.0)
    rng = np.random.default_rng(13)
    held = {(q, om): 0 for q in (0.5, 1.0) for om in omegas}
    worst_err, worst_ratio, ok = 0.0, 0.0, True
    for _ in range(10):
        A = rng.standard_normal((n, N)) / np.sqrt(n)
        extremes = (_singular_extremes(A, 2), _singular_extremes(A, 3))
        idx = int(rng.integers(N))
        x = np.zeros(N)
        x[idx] = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
        tail = 1e-2 * rng.standard_normal(N)
        tail[idx] = 0.0
        tails = {(q, om): _best_tail_constant(extremes, q, om) for q in (0.5, 1.0) for om in omegas}
        # gamma = omega^p grows with omega, and the condition is weaker at
        # p = 0.5 than at p = 1: what holds at omega = 1 holds below it,
        # and what holds at p = 1 holds at p = 0.5
        for q in (0.5, 1.0):
            ok = ok and (tails[q, 1.0] is None or all(tails[q, om] is not None for om in omegas))
        ok = ok and all(tails[1.0, om] is None or tails[0.5, om] is not None for om in omegas)
        for key, tail_constant in tails.items():
            held[key] += tail_constant is not None
        # each signal's fits serve every omega, so the signals go outside
        A_op, xc = DenseMatrix(A), x + tail
        for signal in (x, xc):
            for om in omegas:
                if tails[p, om] is None:
                    continue
                w = WeightVector(om, (idx + 1,), N).weights
                z = oracle_weighted_lp(A_op, A @ signal, w, p, n).minimizer.entries
                if signal is x:
                    worst_err = max(worst_err, float(np.max(np.abs(z - x))))
                else:  # k^(p/2-1) is 1 at k = 1
                    bound = tails[p, om] * weighted_lp_norm(xc - best_k_term(xc, 1)[0].entries, w, p) ** p
                    worst_ratio = max(worst_ratio, float(np.linalg.norm(z - xc)) ** p / bound)
    ok = ok and worst_err <= 1e-9 and worst_ratio <= 1.0
    counts = "; ".join(f"p={q:g}: " + "/".join(str(held[q, om]) for om in omegas) for q in (0.5, 1.0))
    _report(13, ok, f"10x16 k=1 a=2 alpha=rho=1, exact delta_2 and delta_3 of c A: condition holds on "
                    f"omega 0/0.5/1 draws of 10 {counts}; exact decoder p=0.5 where it holds: worst 1-sparse "
                    f"error {worst_err:.1e} (bound 1e-09), worst error/bound on a 1e-2 tail {worst_ratio:.3f} (bound 1)")
    assert ok


_SMALL_P = (1.0, 0.5, 1e-2, 1e-3, 1e-4, 1e-6)
_SCALES = (1e-3, 1.0, 1e3)


def _small_p_table() -> dict[str, list[int]]:
    """R1's 40 x 20 sweep, by p: [recovered at 60 dB, solves, certified misses]."""
    spec = ExperimentSpec(N=40, n_list=(20,), k=4, signal_kind="sparse", decay=None, noise_frac=0.0,
                          alpha_list=(0.75,), rho=1.0, omega_list=(0.5, 1.0), p_list=_SMALL_P, trials=10, seed=7)
    rows = run_sweep(spec).rows
    table = {}
    for p in _SMALL_P:
        cell = [r for r in rows if r.p == p]
        table[f"{p:g}"] = [sum(r.snr_db >= 60.0 for r in cell), len(cell),
                           sum(r.norm_ratio > 1.0 + _MISS_REL for r in cell)]
    return table


def _scale_table() -> dict[str, int]:
    """By c, the criterion-6 instances (500 x 140, trials 0-11) that
    solve(A, c b) / c recovers at 60 dB."""
    table = {}
    for c in _SCALES:
        hits = 0
        for trial in range(12):
            x, A, y, _ = _criterion_6_instance(140, trial)
            x_hat = solve(A, c * y, np.ones(500), SolverConfig(p=0.5))[0].entries / c
            hits += snr_db(x, x_hat) >= 60.0
        table[f"{c:g}"] = int(hits)
    return table


def test_known_solver_defects_are_reported():
    # two solver properties as two printed tables.  Recovery holds as
    # p -> 0 (R1's 40 x 20 sweep), since the solver divides its objective
    # by p; the solver is not scale-equivariant (solve(A, c b) / c on
    # criterion-6 instances), a defect no criterion bounds, so only the
    # scales that hold today are asserted and a fix shows as a larger count.
    # On the numpy, BLAS and OpenBLAS core that QUALITY.json was made on,
    # both tables must equal the record's, so a change that moves them
    # regenerates it (python tests/quality_record.py); on any other, where
    # the rows at the edge of failure may move, the difference is printed
    from quality_record import machine

    small_p, scale = _small_p_table(), _scale_table()
    print("small p, 40x20 k=4 alpha=0.75 omega=0.5,1, 20 solves: p, recovered at 60 dB, certified misses")
    for p, (hits, solves, misses) in small_p.items():
        print(f"  {p}: {hits}/{solves}, {misses}")
    print("scale, 500x140 k=40 p=0.5 omega=1, 12 solves: c, recovered at 60 dB by solve(A, c b) / c")
    for c, hits in scale.items():
        print(f"  {c}: {hits}/12")
    record = json.loads((Path(__file__).resolve().parents[1] / "QUALITY.json").read_text())
    recorded = (record["sections"]["small_p_table"], record["sections"]["scale_table"])
    if machine() == record["machine"]:
        assert (small_p, scale) == recorded
    elif (small_p, scale) != recorded:
        print(f"on {machine()}, not the record's {record['machine']}: the record reads {recorded}")
    assert all(row[0] == row[1] == 20 and row[2] == 0 for row in small_p.values())
    assert all(hits == 12 for c, hits in scale.items() if float(c) <= 1.0)
