"""Every entry point that takes p, omega, alpha or rho refuses the same
bad value with the same message, from the one table in ``cswlp.core``."""

import numpy as np
import pytest

from cswlp.audio import AudioPipelineConfig
from cswlp.cli import main
from cswlp.core import SupportEstimate, WeightVector, weighted_lp_norm
from cswlp.experiments import ExperimentSpec, gen_support_estimate
from cswlp.oracle import oracle_weighted_lp
from cswlp.solver import SolverConfig, smoothed_gradient, smoothed_objective
from cswlp.theory import TheoryParams, delta_hat_lp, delta_hat_wl1, delta_hat_wlp

_GOOD = dict(p=0.5, omega=0.5, alpha=0.5, rho=1.0)

_PAIR = "1 + rho - 2 alpha rho < 0 at (alpha, rho) = (1.0, 2.0): such an estimate " \
        "would hold more correct entries (alpha rho k) than the support's k"

# (overrides, the message every entry point taking them gives)
_BAD = {
    "p=0": (dict(p=0.0), "p must lie in (0, 1], got 0.0"),
    "omega=1.5": (dict(omega=1.5), "omega must lie in [0, 1], got 1.5"),
    "alpha=-0.1": (dict(alpha=-0.1), "alpha must lie in [0, 1], got -0.1"),
    "rho=inf": (dict(rho=float("inf")), "rho must be finite, got inf"),
    "alpha,rho=1,2": (dict(alpha=1.0, rho=2.0), _PAIR),
}


def _theory_cli(v, tmp_path, capsys):
    args = [f"--{name}={v[name]!r}" for name in ("p", "omega", "alpha", "rho")]
    if main(["--out-dir", str(tmp_path / "run"), "theory", *args]) != 0:
        raise ValueError(capsys.readouterr().err.removeprefix("error: ").rstrip("\n"))


# name -> (parameters it takes, call with the parameter values v)
_ENTRY_POINTS = {
    "SolverConfig": ("p", lambda v, *_: SolverConfig(p=v["p"])),
    "smoothed_objective": ("p", lambda v, *_: smoothed_objective(np.ones(2), np.ones(2), v["p"], 1.0)),
    "smoothed_gradient": ("p", lambda v, *_: smoothed_gradient(np.ones(2), np.ones(2), v["p"], 1.0)),
    "WeightVector": ("omega", lambda v, *_: WeightVector(omega=v["omega"], estimate=SupportEstimate((1,)), size=2)),
    "weighted_lp_norm": ("p", lambda v, *_: weighted_lp_norm(np.ones(2), np.ones(2), v["p"])),
    "oracle_weighted_lp": ("p", lambda v, *_: oracle_weighted_lp(np.eye(2), np.ones(2), np.ones(2), v["p"], 2)),
    "gen_support_estimate": (
        "alpha rho",
        lambda v, *_: gen_support_estimate((1, 2, 3, 4), v["alpha"], v["rho"], 40, np.random.default_rng(0)),
    ),
    "ExperimentSpec": (
        "p omega alpha rho",
        lambda v, *_: ExperimentSpec(
            N=40, n_list=(20,), k=4, signal_kind="sparse", decay=None, noise_frac=0.0,
            alpha_list=(v["alpha"],), rho=v["rho"], omega_list=(v["omega"],), p_list=(v["p"],),
            trials=1, seed=0,
        ),
    ),
    "AudioPipelineConfig": ("p omega", lambda v, *_: AudioPipelineConfig(p_list=(v["p"],), omega_list=(v["omega"],))),
    "TheoryParams": ("p omega alpha rho", lambda v, *_: TheoryParams(a=3.0, **v)),
    "delta_hat_lp": ("p", lambda v, *_: delta_hat_lp(3.0, v["p"])),
    "delta_hat_wl1": ("omega alpha rho", lambda v, *_: delta_hat_wl1(3.0, v["omega"], v["alpha"], v["rho"])),
    "delta_hat_wlp": ("p omega alpha rho", lambda v, *_: delta_hat_wlp(3.0, **v)),
    "theory_cli": ("p omega alpha rho", _theory_cli),
}

_CASES = [
    pytest.param(entry, bad, id=f"{entry}-{bad}")
    for entry, (takes, _) in _ENTRY_POINTS.items()
    for bad, (overrides, _) in _BAD.items()
    if set(overrides) <= set(takes.split())
]


@pytest.mark.parametrize("entry, bad", _CASES)
def test_every_entry_point_refuses_the_same_bad_value_with_the_same_message(entry, bad, tmp_path, capsys):
    call = _ENTRY_POINTS[entry][1]
    overrides, message = _BAD[bad]
    call(_GOOD, tmp_path, capsys)
    with pytest.raises(ValueError) as exc:
        call({**_GOOD, **overrides}, tmp_path / "bad", capsys)
    assert str(exc.value) == message
