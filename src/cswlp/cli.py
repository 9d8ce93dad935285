"""Command-line interface: solve, theory, sweep, audio, replay.

Every run writes its outputs plus a ``manifest.json`` recording each
fact once: the subcommand, package version, resolved configuration
(which holds any seed), output names, and in ``inputs`` the SHA-256
and manifest-relative path of each file the run read.  ``replay``
re-executes a manifest on those hash-checked files into a fresh
directory and reproduces every output byte for byte (only the
manifest's own timestamp differs).  This module
writes every output file: the library modules return rows and arrays,
and one CSV writer formats every table.

Exit codes: 0 success, 1 usage/config/input errors, 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import struct
import sys
import warnings
from dataclasses import asdict, astuple, dataclass, fields, replace
from datetime import datetime, timezone
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .audio import AudioPipelineConfig, AudioRow, read_wav_mono, recover_clip, write_wav_mono
from .core import (
    ConditionViolatedError,
    CswlpError,
    DenseMatrix,
    Measurements,
    SolverDivergenceError,
    WeightVector,
    _FEASIBILITY_TOL,
    _SNR_CAP_DB,
    check_domain,
)
from .experiments import ExperimentSpec, SweepRow, _parse_grid, load_experiment_spec, run_sweep
from .solver import (_MAX_BACKTRACKS, _MAX_ITERS, _SIGMA_DECAY, _SIGMA_FLOOR, _SIGMA_INIT, _STEP_SHRINK,
                     SolverConfig, solve)
from .theory import delta_hat_lp, delta_hat_wl1, delta_hat_wlp, error_constants

__all__ = ["RunManifest", "main", "read_array", "write_matrix_binary", "write_vector_binary"]

_MAGIC = b"CSWLPB01"

# Settings that solve manifests recorded while SolverConfig had them as
# fields, at the values the solver now fixes.
_FIXED_SOLVER_SETTINGS = dict(
    max_iters=_MAX_ITERS, sigma_init=_SIGMA_INIT, sigma_decay=_SIGMA_DECAY, sigma_floor=_SIGMA_FLOOR,
    step_shrink=_STEP_SHRINK, max_backtracks=_MAX_BACKTRACKS, feasibility_tol=_FEASIBILITY_TOL, snr_cap_db=_SNR_CAP_DB,
)


def write_matrix_binary(path, arr) -> None:
    """Binary matrix format: 8-byte magic, uint32 rows, uint32 cols,
    then float64 little-endian entries in row-major order."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("expected a matrix")
    with open(path, "wb") as handle:
        handle.write(struct.pack("<8sII", _MAGIC, arr.shape[0], arr.shape[1]))
        handle.write(arr.astype("<f8").tobytes(order="C"))


def write_vector_binary(path, vec) -> None:
    vec = np.asarray(vec, dtype=np.float64)
    if vec.ndim != 1:
        raise ValueError("expected a vector")
    write_matrix_binary(path, vec[:, None])


def read_array(path) -> np.ndarray:
    """Read a matrix or vector from CSV or the binary format (sniffed by
    magic bytes).  Returns a 2-D array; single-column data stays 2-D."""
    path = Path(path)
    with open(path, "rb") as handle:
        head = handle.read(8)
        if head == _MAGIC:
            rows, cols = struct.unpack("<II", handle.read(8))
            payload = handle.read(rows * cols * 8)
            if len(payload) != rows * cols * 8:
                raise ValueError(f"{path}: truncated binary payload")
            return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).astype(np.float64)
    with warnings.catch_warnings():
        # a file without data reads as an empty array, which its reader refuses
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)


def _read_vector(path) -> np.ndarray:
    arr = read_array(path)
    if arr.shape[1] == 1:
        return arr[:, 0]
    if arr.shape[0] == 1:
        return arr[0, :]
    raise ValueError(f"{path}: expected a vector, got shape {arr.shape}")


def _read_support(path) -> tuple[float, ...]:
    """The numbers of a support file, which ``WeightVector`` reads as indices."""
    tokens = Path(path).read_text().replace(",", " ").split()
    return tuple(float(tok) for tok in tokens)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class RunManifest:
    """Everything needed to reproduce one CLI run."""

    subcommand: str
    version: str
    config: dict
    inputs: dict
    outputs: list[str]
    timestamp: str

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "RunManifest":
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise ValueError(f"{path}: manifest is not a JSON object")
        # older manifests name a kernel backend and repeat the seed their
        # config holds (solve and theory never used one)
        for name in ("backend", "seed"):
            data.pop(name, None)
        fields = set(cls.__dataclass_fields__)
        unknown = set(data) - fields
        if unknown:
            raise ValueError(f"{path}: unknown manifest fields {sorted(unknown)}")
        missing = fields - set(data)
        if missing:
            raise ValueError(f"{path}: missing manifest fields {sorted(missing)}")
        for name, kind, word in (("config", dict, "object"), ("inputs", dict, "object"), ("outputs", list, "list")):
            if not isinstance(data[name], kind):
                raise ValueError(f"{path}: manifest field {name!r} is not a JSON {word}")
        for name, entry in data["inputs"].items():
            if not (isinstance(entry, dict) and all(isinstance(entry.get(k), str) for k in ("path", "sha256"))):
                raise ValueError(f"{path}: manifest input {name!r} needs string 'path' and 'sha256'")
        # older configs name a thread pool, repeat the input paths whose
        # hash-checked copies are in ``inputs``, or name the sweep config
        # file whose spec they embed
        for name in ("threads", "matrix_path", "measurements_path", "support_path", "input_path", "config_path"):
            data["config"].pop(name, None)
        # older audio configs record a sample rate that the input's WAV
        # header replaced
        if data["subcommand"] == "audio" and isinstance(data["config"].get("pipeline"), dict):
            data["config"]["pipeline"].pop("sample_rate_hz", None)
        # solve manifests name the settings the solver now fixes; a run
        # that set one to another value can no longer be reproduced
        solver = data["config"].get("solver")
        for name, fixed in _FIXED_SOLVER_SETTINGS.items():
            if isinstance(solver, dict) and name in solver and (value := solver.pop(name)) != fixed:
                raise ValueError(f"{path}: cannot reproduce solver setting {name!r} = {value!r}, fixed at {fixed!r}")
        return cls(**data)


def _grid_arg(text: str) -> tuple[float, ...]:
    """``_parse_grid`` as an argparse type: its message then reaches the
    user under the flag's name."""
    try:
        return _parse_grid(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _write_csv(path: Path, header, rows) -> None:
    """Write the one CSV format every output table uses: a header line
    (none when ``header`` is empty), comma-separated fields, floats
    (np.float64 included) as repr(float(v)), anything else as str(v),
    and a trailing newline."""
    lines = [",".join(header)] if header else []
    lines.extend(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) for row in rows)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------- runners
# Each runner takes (config, inputs, out_dir), where inputs maps each
# input name to the file it reads; it writes its files and returns their
# names.  Only _execute calls them, for fresh runs and replays alike.


def _run_solve(config: dict, inputs: dict, out_dir: Path) -> list[str]:
    A = DenseMatrix(read_array(inputs["matrix"]))
    y = _read_vector(inputs["measurements"])
    N = A.shape[1]
    estimate = _read_support(inputs["support"]) if "support" in inputs else ()
    w = WeightVector(omega=config["omega"], estimate=estimate, size=N)
    cfg = SolverConfig(**config["solver"])
    b = Measurements(y, epsilon=config["epsilon"])
    x_hat, trace = solve(A, b, w, cfg)
    _write_csv(out_dir / "recovered.csv", (), ((v,) for v in x_hat.entries))
    _write_csv(out_dir / "trace.csv", trace.COLUMNS, zip(*(getattr(trace, c) for c in trace.COLUMNS)))
    return ["recovered.csv", "trace.csv"]


def _run_theory(config: dict, inputs: dict, out_dir: Path) -> list[str]:
    d1 = config.get("delta_ak")
    d2 = config.get("delta_a1k")
    if (d1 is None) != (d2 is None):
        raise ValueError("--delta-ak and --delta-a1k must be given together")
    with_constants = d1 is not None
    # the theory's domain, checked before any cell is computed; the table
    # prints the floats it returns, also for a manifest's JSON integers
    grids = check_domain(**{name: config[name] for name in ("a", "p", "omega", "alpha", "rho")})
    header = ["a", "p", "omega", "alpha", "rho", "delta_hat_lp", "delta_hat_wl1", "delta_hat_wlp"]
    if with_constants:
        header += ["c1", "c2", "condition_holds"]
    rows = []
    for a, p, omega, alpha, rho in product(*grids.values()):
        row = [
            a, p, omega, alpha, rho,
            delta_hat_lp(a, p), delta_hat_wl1(a, omega, alpha, rho), delta_hat_wlp(a, p, omega, alpha, rho),
        ]
        if with_constants:
            try:
                row += [*error_constants(a, p, omega, alpha, rho, d1, d2), "true"]
            except ConditionViolatedError:
                row += [float("inf"), float("inf"), "false"]
        rows.append(row)
    _write_csv(out_dir / "theory.csv", header, rows)
    return ["theory.csv"]


def _run_sweep(config: dict, inputs: dict, out_dir: Path) -> list[str]:
    rows = run_sweep(ExperimentSpec(**config["spec"])).rows
    _write_csv(out_dir / "sweep.csv", [f.name for f in fields(SweepRow)], map(astuple, rows))
    return ["sweep.csv"]


def _run_audio(config: dict, inputs: dict, out_dir: Path) -> list[str]:
    samples, rate = read_wav_mono(inputs["input"])
    # the WAV header's sample rate places the low-frequency cutoff
    cfg = AudioPipelineConfig(**config["pipeline"], sample_rate_hz=rate)
    combos = cfg.combos
    wavs = [f"recon_p{p:g}_w{omega:g}.wav" for p, omega in combos]
    for i, name in enumerate(wavs):
        if name in wavs[:i]:
            raise ValueError(f"(p, omega) = {combos[wavs.index(name)]} and {combos[i]} would both write {name}")
    rows, recons = recover_clip(samples, cfg)
    _write_csv(out_dir / "audio_snr.csv", [f.name for f in fields(AudioRow)], map(astuple, rows))
    for combo, name in zip(combos, wavs):
        write_wav_mono(out_dir / name, recons[combo], rate)
    return ["audio_snr.csv", *wavs]


# each subcommand's runner and the names of the inputs it may read
_RUNNERS = {
    "solve": (_run_solve, {"matrix", "measurements", "support"}),
    "theory": (_run_theory, set()),
    "sweep": (_run_sweep, set()),
    "audio": (_run_audio, {"input"}),
}


def _execute(subcommand: str, config: dict, inputs: dict, out_dir: Path) -> int:
    """Run ``subcommand`` on ``config`` and the ``inputs`` files into
    ``out_dir`` and record the run in its ``manifest.json``, each input
    by its path relative to ``out_dir``; fresh runs and replays both
    come here."""
    outputs = _RUNNERS[subcommand][0](config, inputs, out_dir)
    here = Path(out_dir).resolve()
    RunManifest(
        subcommand=subcommand,
        version=__version__,
        config=config,
        inputs={
            name: {"path": os.path.relpath(Path(p).resolve(), here), "sha256": _sha256(p)}
            for name, p in inputs.items()
        },
        outputs=sorted(outputs),
        timestamp=datetime.now(timezone.utc).isoformat(),
    ).save(out_dir / "manifest.json")
    return 0


# ------------------------------------------------------------- commands


def _cmd_solve(args) -> int:
    config = {"omega": args.omega, "epsilon": args.epsilon, "solver": {"p": args.p}}
    inputs = {"matrix": args.matrix, "measurements": args.measurements}
    if args.support:
        inputs["support"] = args.support
    return _execute("solve", config, inputs, args.out_dir)


def _cmd_theory(args) -> int:
    grids = {name: list(getattr(args, name)) for name in ("a", "p", "omega", "alpha", "rho")}
    config = {**grids, "delta_ak": args.delta_ak, "delta_a1k": args.delta_a1k}
    return _execute("theory", config, {}, args.out_dir)


def _cmd_sweep(args) -> int:
    spec = load_experiment_spec(args.config)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    # the resolved spec is embedded, so replay never re-reads the file
    return _execute("sweep", {"spec": asdict(spec)}, {}, args.out_dir)


def _cmd_audio(args) -> int:
    # the sample rate is the input WAV header's, so it is not recorded
    pipeline = {f.name: getattr(args, f.name) for f in fields(AudioPipelineConfig) if f.name != "sample_rate_hz"}
    return _execute("audio", {"pipeline": pipeline}, {"input": args.input}, args.out_dir)


def _cmd_replay(args) -> int:
    manifest = RunManifest.load(args.manifest)
    if manifest.subcommand not in _RUNNERS:
        raise ValueError(f"manifest subcommand {manifest.subcommand!r} is not replayable")
    unread = sorted(set(manifest.inputs) - _RUNNERS[manifest.subcommand][1])
    if unread:
        raise ValueError(f"{args.manifest}: {manifest.subcommand} does not read manifest inputs {unread}")
    # an input path is relative to the manifest's directory; joining an
    # absolute path, as older manifests hold, gives that path itself
    inputs = {name: args.manifest.resolve().parent / entry["path"] for name, entry in manifest.inputs.items()}
    for name, path in inputs.items():
        if not path.exists():
            raise FileNotFoundError(f"replay input {name!r} missing: {path}")
        if _sha256(path) != manifest.inputs[name]["sha256"]:
            raise ValueError(f"replay input {name!r} changed since the original run: {path}")
    try:
        return _execute(manifest.subcommand, manifest.config, inputs, args.out_dir)
    except KeyError as exc:
        raise ValueError(
            f"{args.manifest}: {manifest.subcommand} manifest has no {exc.args[0]!r} config entry or input"
        ) from exc
    except TypeError as exc:
        raise ValueError(f"{args.manifest}: malformed {manifest.subcommand} config: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cswlp",
        description="Weighted lp recovery of sparse signals from linear measurements.",
    )
    parser.add_argument("--out-dir", type=Path, default=Path("."), help="directory for outputs")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="recover one signal from matrix + measurements files")
    ps.add_argument("--matrix", type=Path, required=True, help="CSV or binary n x N matrix")
    ps.add_argument("--measurements", type=Path, required=True, help="CSV or binary length-n vector")
    ps.add_argument("--support", type=Path, default=None, help="file of 1-based support indices")
    ps.add_argument("--omega", type=float, default=1.0, help="weight on the support estimate")
    ps.add_argument("--epsilon", type=float, default=0.0, help="noise bound on b; the solver supports only 0")
    ps.add_argument("--p", type=float, default=0.5, help="exponent of the weighted lp decoder, in (0, 1]")
    ps.set_defaults(func=_cmd_solve)

    pt = sub.add_parser("theory", help="tabulate recovery thresholds over parameter grids")
    pt.add_argument("--a", type=_grid_arg, default="3", help="grid: comma values or start:stop:count")
    pt.add_argument("--p", type=_grid_arg, default="0.5", help="grid over p")
    pt.add_argument("--omega", type=_grid_arg, default="0:1:5", help="grid over omega")
    pt.add_argument("--alpha", type=_grid_arg, default="0:1:5", help="grid over alpha")
    pt.add_argument("--rho", type=_grid_arg, default="1", help="grid over rho")
    pt.add_argument("--delta-ak", type=float, default=None, help="RIP constant for ak columns")
    pt.add_argument("--delta-a1k", type=float, default=None, help="RIP constant for (a+1)k columns")
    pt.set_defaults(func=_cmd_theory)

    pw = sub.add_parser("sweep", help="run the experiment grid described by --config")
    pw.add_argument("--config", type=Path, required=True, help="experiment config file")
    pw.add_argument("--seed", type=int, default=None, help="replaces the config file's seed")
    pw.set_defaults(func=_cmd_sweep)

    pa = sub.add_parser("audio", help="blockwise recovery of a subsampled WAV clip")
    pa.add_argument("--input", type=Path, required=True, help="mono 16-bit PCM WAV file")
    # each flag sets the AudioPipelineConfig field of its dest, with that
    # field's default; the sample rate is the input WAV header's
    pipeline = AudioPipelineConfig
    pa.add_argument("--p", dest="p_list", type=_grid_arg, default=pipeline.p_list, help="grid over p")
    pa.add_argument("--omega", dest="omega_list", type=_grid_arg, default=pipeline.omega_list, help="grid over omega")
    pa.add_argument("--block-len", dest="block_len", type=int, default=pipeline.block_len)
    pa.add_argument("--num-blocks", dest="num_blocks", type=int, default=pipeline.num_blocks)
    pa.add_argument("--keep-frac", dest="keep_frac", type=float, default=pipeline.keep_frac)
    pa.add_argument("--cutoff-hz", dest="lowfreq_cutoff_hz", type=float, default=pipeline.lowfreq_cutoff_hz)
    pa.add_argument("--prev-keep", dest="prev_block_keep", type=float, default=pipeline.prev_block_keep)
    pa.add_argument("--seed", dest="seed", type=int, default=pipeline.seed, help="seed of the kept-sample masks")
    pa.set_defaults(func=_cmd_audio)

    pr = sub.add_parser("replay", help="re-run a manifest and reproduce its outputs")
    pr.add_argument("--manifest", type=Path, required=True)
    pr.set_defaults(func=_cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except SolverDivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CswlpError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
