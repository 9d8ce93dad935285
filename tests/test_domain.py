"""Every entry point that takes a scalar setting (p, omega, alpha, rho,
a count, an audio fraction or rate, ...) refuses the same bad value with
the same message, from the one table in ``cswlp.core``."""

import math

import numpy as np
import pytest

from cswlp.audio import AudioPipelineConfig, dct_matrix, synthesize_speech_like
from cswlp.cli import _parse_grid, main
from cswlp.core import (
    DenseMatrix,
    Measurements,
    RestrictedTransform,
    WeightVector,
    best_k_term,
    weighted_lp_norm,
)
from cswlp.experiments import (
    ExperimentSpec,
    gen_compressible_signal,
    gen_gaussian_matrix,
    gen_noise_on_sphere,
    gen_sparse_signal,
    gen_support_estimate,
)
from cswlp.oracle import oracle_weighted_lp
from cswlp.solver import SolverConfig, smoothed_gradient, smoothed_objective
from cswlp.theory import (
    delta_hat_lp,
    delta_hat_wl1,
    delta_hat_wlp,
    error_constants,
    proposition2_check,
    sufficient_condition_holds,
)

_GOOD = dict(
    p=0.5, omega=0.5, alpha=0.5, rho=1.0, trials=1, N=40, n=20, k=4, block_len=64,
    num_blocks=1, size=2, keep_frac=0.25, prev_block_keep=0.0625, sample_rate_hz=44100.0,
    lowfreq_cutoff_hz=4000.0, decay=1.1, noise_frac=0.0, count=5, num_samples=64, k_max=1,
)

def _pair(alpha, rho):
    return (f"alpha rho > 1 at (alpha, rho) = ({alpha}, {rho}): such an estimate "
            "would hold more correct entries (alpha rho k) than the support's k")

# (overrides, the message every entry point taking them gives)
_BAD = {
    "p=0": (dict(p=0.0), "p must lie in (0, 1], got 0.0"),
    "omega=1.5": (dict(omega=1.5), "omega must lie in [0, 1], got 1.5"),
    "alpha=-0.1": (dict(alpha=-0.1), "alpha must lie in [0, 1], got -0.1"),
    "rho=inf": (dict(rho=float("inf")), "rho must be finite, got inf"),
    "alpha,rho=1,2": (dict(alpha=1.0, rho=2.0), _pair(1.0, 2.0)),
    # 1 + rho - 2 alpha rho = 0.1 >= 0, yet 1.2 k correct entries
    "alpha,rho=0.8,1.5": (dict(alpha=0.8, rho=1.5), _pair(0.8, 1.5)),
}

# each other setting: a finite value outside its domain, and how the
# table words that domain
_SETTINGS = {
    **{count: (0, "be an integer >= 1")
       for count in ("trials", "N", "n", "k", "block_len", "num_blocks", "num_samples", "size", "count")},
    "k_max": (-1, "be an integer >= 0"),
    "keep_frac": (0.0, "lie in (0, 1]"),
    "prev_block_keep": (1.5, "lie in [0, 1]"),
    "sample_rate_hz": (0.0, "be positive"),
    "lowfreq_cutoff_hz": (-1.0, "be >= 0"),
    "decay": (0.0, "be positive"),
    "noise_frac": (-0.5, "be >= 0"),
}
for _name, (_out, _rule) in _SETTINGS.items():
    # a count must also be whole
    for _v in (float("nan"), float("inf"), _out) + ((2.5,) if "integer" in _rule else ()):
        _BAD[f"{_name}={_v}"] = (
            {_name: _v}, f"{_name} must {_rule if math.isfinite(_v) else 'be finite'}, got {float(_v)}"
        )


def _theory_cli(v, tmp_path, capsys):
    args = [f"--{name}={v[name]!r}" for name in ("p", "omega", "alpha", "rho")]
    if main(["--out-dir", str(tmp_path / "run"), "theory", *args]) != 0:
        raise ValueError(capsys.readouterr().err.removeprefix("error: ").rstrip("\n"))


# name -> (parameters it takes, call with the parameter values v)
_ENTRY_POINTS = {
    "SolverConfig": ("p", lambda v, *_: SolverConfig(**v)),
    "smoothed_objective": ("p", lambda v, *_: smoothed_objective(np.ones(2), np.ones(2), v["p"], 1.0)),
    "smoothed_gradient": ("p", lambda v, *_: smoothed_gradient(np.ones(2), np.ones(2), v["p"], 1.0)),
    "WeightVector": ("omega size", lambda v, *_: WeightVector(estimate=(1,), **v)),
    "weighted_lp_norm": ("p", lambda v, *_: weighted_lp_norm(np.ones(2), np.ones(2), v["p"])),
    "oracle_weighted_lp": ("p", lambda v, *_: oracle_weighted_lp(DenseMatrix(np.eye(2)), np.ones(2), np.ones(2), v["p"], 2)),
    "gen_support_estimate": (
        "alpha rho N",
        lambda v, *_: gen_support_estimate((1, 2, 3, 4), v["alpha"], v["rho"], v["N"], np.random.default_rng(0)),
    ),
    "gen_sparse_signal": ("N k", lambda v, *_: gen_sparse_signal(v["N"], v["k"], np.random.default_rng(0))),
    "gen_compressible_signal": ("N decay", lambda v, *_: gen_compressible_signal(v["N"], v["decay"])),
    "gen_gaussian_matrix": ("n N", lambda v, *_: gen_gaussian_matrix(v["n"], v["N"], np.random.default_rng(0))),
    "gen_noise_on_sphere": (
        "n noise_frac",
        lambda v, *_: gen_noise_on_sphere(v["n"], v["noise_frac"], np.ones(3), np.random.default_rng(0)),
    ),
    "ExperimentSpec": (
        "p omega alpha rho N n k trials decay noise_frac",
        lambda v, *_: ExperimentSpec(
            N=v["N"], n_list=(v["n"],), k=v["k"], signal_kind="compressible", decay=v["decay"],
            noise_frac=v["noise_frac"], alpha_list=(v["alpha"],), rho=v["rho"], omega_list=(v["omega"],),
            p_list=(v["p"],), trials=v["trials"], seed=0,
        ),
    ),
    "AudioPipelineConfig": (
        "p omega block_len num_blocks keep_frac prev_block_keep sample_rate_hz lowfreq_cutoff_hz",
        lambda v, *_: AudioPipelineConfig(
            block_len=v["block_len"], num_blocks=v["num_blocks"], keep_frac=v["keep_frac"],
            prev_block_keep=v["prev_block_keep"], sample_rate_hz=v["sample_rate_hz"],
            lowfreq_cutoff_hz=v["lowfreq_cutoff_hz"], p_list=(v["p"],), omega_list=(v["omega"],),
        ),
    ),
    "dct_matrix": ("N", lambda v, *_: dct_matrix(v["N"])),
    "synthesize_speech_like": ("num_samples", lambda v, *_: synthesize_speech_like(v["num_samples"])),
    "best_k_term": ("k_max", lambda v, *_: best_k_term(np.ones(2), v["k_max"])),
    "error_constants": ("p omega alpha rho", lambda v, *_: error_constants(3.0, **v, delta_ak=0.1, delta_a1k=0.1)),
    "sufficient_condition_holds": (
        "p omega alpha rho", lambda v, *_: sufficient_condition_holds(3.0, **v, delta_ak=0.1, delta_a1k=0.1),
    ),
    "proposition2_check": ("p omega alpha rho", lambda v, *_: proposition2_check(3.0, **v, delta_grid=[0.1])),
    "delta_hat_lp": ("p", lambda v, *_: delta_hat_lp(3.0, v["p"])),
    "delta_hat_wl1": ("omega alpha rho", lambda v, *_: delta_hat_wl1(3.0, v["omega"], v["alpha"], v["rho"])),
    "delta_hat_wlp": ("p omega alpha rho", lambda v, *_: delta_hat_wlp(3.0, **v)),
    "theory_cli": ("p omega alpha rho", _theory_cli),
    "grid_token": ("count", lambda v, *_: _parse_grid(f"0:1:{v['count']!r}")),
}

_CASES = [
    pytest.param(entry, bad, id=f"{entry}-{bad}")
    for entry, (takes, _) in _ENTRY_POINTS.items()
    for bad, (overrides, _) in _BAD.items()
    if set(overrides) <= set(takes.split())
]


@pytest.mark.parametrize("entry, bad", _CASES)
def test_every_entry_point_refuses_the_same_bad_value_with_the_same_message(entry, bad, tmp_path, capsys):
    takes, call = _ENTRY_POINTS[entry]
    overrides, message = _BAD[bad]
    good = {name: _GOOD[name] for name in takes.split()}
    call(good, tmp_path, capsys)
    with pytest.raises(ValueError) as exc:
        call({**good, **overrides}, tmp_path / "bad", capsys)
    assert str(exc.value) == message


def test_config_types_store_counts_as_int_and_settings_as_float():
    # each count given as a float and each real setting as an int; the
    # reprs tell 50 from 50.0 and a Python float from a numpy one
    stored = [
        (SolverConfig(p=1), dict(p=1.0)),
        (WeightVector(omega=np.int64(0), estimate=(), size=4.0), dict(omega=0.0, size=4)),
        (Measurements(np.ones(2), epsilon=0), dict(epsilon=0.0)),
        (RestrictedTransform(rows=(1,), size=np.float64(4.0)), dict(size=4)),
        (
            AudioPipelineConfig(block_len=64.0, num_blocks=2.0, keep_frac=1, lowfreq_cutoff_hz=0,
                                sample_rate_hz=8000, prev_block_keep=0, p_list=[1], omega_list=(0, 1)),
            dict(block_len=64, num_blocks=2, keep_frac=1.0, lowfreq_cutoff_hz=0.0, sample_rate_hz=8000.0,
                 prev_block_keep=0.0, p_list=(1.0,), omega_list=(0.0, 1.0)),
        ),
        (
            ExperimentSpec(N=40.0, n_list=[20.0], k=4.0, signal_kind="compressible", decay=1, noise_frac=0,
                           alpha_list=(1,), rho=1, omega_list=(0,), p_list=(1,), trials=2.0, seed=np.int64(3)),
            dict(N=40, n_list=(20,), k=4, decay=1.0, noise_frac=0.0, alpha_list=(1.0,), rho=1.0,
                 omega_list=(0.0,), p_list=(1.0,), trials=2, seed=3),
        ),
    ]
    for config, fields in stored:
        for name, want in fields.items():
            assert repr(getattr(config, name)) == repr(want), (type(config).__name__, name)


# each config type that takes a seed, built with a given one
_SEEDED = {
    "ExperimentSpec": lambda seed: ExperimentSpec(
        N=40, n_list=(20,), k=4, signal_kind="sparse", decay=None, noise_frac=0.0, alpha_list=(0.5,), rho=1.0,
        omega_list=(0.5,), p_list=(0.5,), trials=1, seed=seed,
    ),
    "AudioPipelineConfig": lambda seed: AudioPipelineConfig(seed=seed),
}


@pytest.mark.parametrize("seed", [1.5, "7", 7.0, None], ids=["fraction", "string", "float", "none"])
@pytest.mark.parametrize("config", sorted(_SEEDED))
def test_a_seed_must_be_an_integer(config, seed):
    with pytest.raises(ValueError) as exc:
        _SEEDED[config](seed)
    assert str(exc.value) == f"seed must be an integer, got {seed!r}"


@pytest.mark.parametrize("config", sorted(_SEEDED))
def test_every_integer_seed_is_kept_exactly(config):
    # never read through float, which would round 2**70 + 1 to 2**70
    for seed in (2**70 + 1, -3, 0):
        assert _SEEDED[config](seed).seed == seed
