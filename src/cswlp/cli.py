"""Command-line interface: solve, theory, sweep, audio, replay.

Every run writes its outputs plus a ``manifest.json`` capturing the
resolved configuration, seed, package version, and SHA-256 of any
input files.  ``replay`` re-executes a manifest into a fresh directory
and reproduces the data outputs byte for byte (the manifest's own
timestamp and measured wall times naturally differ).

Exit codes: 0 success, 1 usage/config/input errors, 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import struct
import sys
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .audio import AudioPipelineConfig, run_audio_pipeline
from .core import (
    CswlpError,
    DenseMatrix,
    Measurements,
    SolverDivergenceError,
    SupportEstimate,
    WeightVector,
)
from .experiments import ExperimentSpec, load_experiment_spec, run_sweep
from .solver import SolverConfig, solve
from .theory import (
    ConditionViolatedError,
    TheoryParams,
    delta_hat_lp,
    delta_hat_wl1,
    delta_hat_wlp,
    error_constants,
    sufficient_condition_holds,
)

__all__ = ["RunManifest", "main", "read_array", "write_matrix_binary", "write_vector_binary"]

_MAGIC = b"CSWLPB01"


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
    return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)


def _read_vector(path) -> np.ndarray:
    arr = read_array(path)
    if arr.shape[1] == 1:
        return arr[:, 0]
    if arr.shape[0] == 1:
        return arr[0, :]
    raise ValueError(f"{path}: expected a vector, got shape {arr.shape}")


def _read_support(path) -> tuple[int, ...]:
    tokens = Path(path).read_text().replace(",", " ").split()
    return tuple(int(tok) for tok in tokens)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class RunManifest:
    """Everything needed to reproduce one CLI run."""

    subcommand: str
    seed: int
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
        # manifests written before the package had one kernel path name it
        data.pop("backend", None)
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
        # manifests written while sweeps and audio had a thread pool name it
        data["config"].pop("threads", None)
        return cls(**data)


def _write_manifest(subcommand: str, seed: int, config: dict, inputs: dict, outputs: list[str], out_dir: Path) -> None:
    manifest = RunManifest(
        subcommand=subcommand,
        seed=int(seed),
        version=__version__,
        config=config,
        inputs={name: {"path": str(Path(p).resolve()), "sha256": _sha256(p)} for name, p in inputs.items()},
        outputs=sorted(outputs),
        timestamp=datetime.now(timezone.utc).isoformat(),
    )
    manifest.save(out_dir / "manifest.json")


def _parse_grid(text: str) -> tuple[float, ...]:
    """Comma-separated values; a token start:stop:count expands to a
    linspace, so "0:1:5" means 0, 0.25, 0.5, 0.75, 1."""
    values: list[float] = []
    for token in str(text).split(","):
        token = token.strip()
        if not token:
            continue
        if ":" in token:
            parts = token.split(":")
            if len(parts) != 3:
                raise ValueError(f"grid token {token!r} must be start:stop:count")
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count < 1:
                raise ValueError(f"grid token {token!r} needs count >= 1")
            values.extend(float(v) for v in np.linspace(start, stop, count))
        else:
            values.append(float(token))
    if not values:
        raise ValueError(f"empty grid {text!r}")
    return tuple(values)


def _fmt(value: float) -> str:
    return repr(float(value))


# ---------------------------------------------------------------- runners
# Each runner takes (config, out_dir) and returns the list of files it
# wrote; replay calls them with a manifest's stored config.


def _run_solve(config: dict, out_dir: Path) -> list[str]:
    A = DenseMatrix(read_array(config["matrix_path"]))
    y = _read_vector(config["measurements_path"])
    n, N = A.shape
    indices: tuple[int, ...] = ()
    if config.get("support_path"):
        indices = _read_support(config["support_path"])
    w = WeightVector(omega=float(config["omega"]), estimate=SupportEstimate(indices), size=N)
    cfg = SolverConfig(**config["solver"])
    b = Measurements(y, epsilon=float(config["epsilon"]))
    x_hat, trace = solve(A, b, w, cfg)

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "recovered.csv").write_text("\n".join(_fmt(v) for v in x_hat.entries) + "\n")
    lines = [",".join(trace.COLUMNS)]
    for t, sigma, objective, step, residual in trace.rows():
        lines.append(f"{t},{_fmt(sigma)},{_fmt(objective)},{_fmt(step)},{_fmt(residual)}")
    (out_dir / "trace.csv").write_text("\n".join(lines) + "\n")
    return ["recovered.csv", "trace.csv"]


def _run_theory(config: dict, out_dir: Path) -> list[str]:
    d1 = config.get("delta_ak")
    d2 = config.get("delta_a1k")
    with_constants = d1 is not None and d2 is not None
    header = ["a", "p", "omega", "alpha", "rho", "delta_hat_lp", "delta_hat_wl1", "delta_hat_wlp"]
    if with_constants:
        header += ["c1", "c2", "condition_holds"]
    lines = [",".join(header)]
    for a in config["a"]:
        for p in config["p"]:
            for omega in config["omega"]:
                for alpha in config["alpha"]:
                    for rho in config["rho"]:
                        fields = [
                            _fmt(a),
                            _fmt(p),
                            _fmt(omega),
                            _fmt(alpha),
                            _fmt(rho),
                            _fmt(delta_hat_lp(a, p)),
                            _fmt(delta_hat_wl1(a, omega, alpha, rho)),
                            _fmt(delta_hat_wlp(a, p, omega, alpha, rho)),
                        ]
                        if with_constants:
                            params = TheoryParams(
                                p=p, omega=omega, alpha=alpha, rho=rho, a=a,
                                delta_ak=float(d1), delta_a1k=float(d2),
                            )
                            holds = sufficient_condition_holds(params)
                            try:
                                c1, c2 = error_constants(params)
                            except ConditionViolatedError:
                                c1, c2 = float("inf"), float("inf")
                            fields += [_fmt(c1), _fmt(c2), "true" if holds else "false"]
                        lines.append(",".join(fields))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "theory.csv").write_text("\n".join(lines) + "\n")
    return ["theory.csv"]


def _run_sweep(config: dict, out_dir: Path) -> list[str]:
    spec = ExperimentSpec(**config["spec"])
    result = run_sweep(spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    result.to_csv(out_dir / "sweep.csv")
    return ["sweep.csv"]


def _run_audio(config: dict, out_dir: Path) -> list[str]:
    cfg = AudioPipelineConfig(**config["pipeline"])
    run_audio_pipeline(config["input_path"], cfg, out_dir)
    outputs = ["audio_snr.csv"]
    outputs += [f"recon_p{p:g}_w{omega:g}.wav" for p in cfg.p_list for omega in cfg.omega_list]
    return outputs


_RUNNERS = {
    "solve": _run_solve,
    "theory": _run_theory,
    "sweep": _run_sweep,
    "audio": _run_audio,
}


# ------------------------------------------------------------- commands


def _cmd_solve(args) -> int:
    solver = {f.name: getattr(args, f.name) for f in fields(SolverConfig)}
    config = {
        "matrix_path": str(args.matrix.resolve()),
        "measurements_path": str(args.measurements.resolve()),
        "support_path": str(args.support.resolve()) if args.support else None,
        "omega": args.omega,
        "epsilon": args.epsilon,
        "solver": solver,
    }
    outputs = _run_solve(config, args.out_dir)
    inputs = {"matrix": args.matrix, "measurements": args.measurements}
    if args.support:
        inputs["support"] = args.support
    _write_manifest("solve", args.seed or 0, config, inputs, outputs, args.out_dir)
    return 0


def _cmd_theory(args) -> int:
    if (args.delta_ak is None) != (args.delta_a1k is None):
        raise ValueError("--delta-ak and --delta-a1k must be given together")
    config = {
        "a": list(_parse_grid(args.a)),
        "p": list(_parse_grid(args.p)),
        "omega": list(_parse_grid(args.omega)),
        "alpha": list(_parse_grid(args.alpha)),
        "rho": list(_parse_grid(args.rho)),
        "delta_ak": args.delta_ak,
        "delta_a1k": args.delta_a1k,
    }
    outputs = _run_theory(config, args.out_dir)
    _write_manifest("theory", args.seed or 0, config, {}, outputs, args.out_dir)
    return 0


def _cmd_sweep(args) -> int:
    if args.config is None:
        raise ValueError("sweep requires --config pointing at an experiment file")
    spec = load_experiment_spec(args.config)
    if args.seed is not None:
        spec = ExperimentSpec(**{**asdict(spec), "seed": int(args.seed)})
    # the resolved spec is embedded, so replay never re-reads the file
    config = {"spec": asdict(spec), "config_path": str(args.config.resolve())}
    outputs = _run_sweep(config, args.out_dir)
    _write_manifest("sweep", spec.seed, config, {}, outputs, args.out_dir)
    return 0


def _cmd_audio(args) -> int:
    cfg = AudioPipelineConfig(
        block_len=args.block_len,
        num_blocks=args.num_blocks,
        keep_frac=args.keep_frac,
        lowfreq_cutoff_hz=args.cutoff_hz,
        prev_block_keep=args.prev_keep,
        p_list=_parse_grid(args.p),
        omega_list=_parse_grid(args.omega),
        seed=args.seed or 0,
    )
    config = {"pipeline": asdict(cfg), "input_path": str(args.input.resolve())}
    outputs = _run_audio(config, args.out_dir)
    _write_manifest("audio", cfg.seed, config, {"input": args.input}, outputs, args.out_dir)
    return 0


def _cmd_replay(args) -> int:
    manifest = RunManifest.load(args.manifest)
    if manifest.subcommand not in _RUNNERS:
        raise ValueError(f"manifest subcommand {manifest.subcommand!r} is not replayable")
    for name, entry in manifest.inputs.items():
        path = Path(entry["path"])
        if not path.exists():
            raise FileNotFoundError(f"replay input {name!r} missing: {path}")
        digest = _sha256(path)
        if digest != entry["sha256"]:
            raise ValueError(f"replay input {name!r} changed since the original run: {path}")
    try:
        outputs = _RUNNERS[manifest.subcommand](manifest.config, args.out_dir)
    except KeyError as exc:
        raise ValueError(
            f"{args.manifest}: {manifest.subcommand} config has no {exc.args[0]!r} entry"
        ) from exc
    except TypeError as exc:
        raise ValueError(f"{args.manifest}: malformed {manifest.subcommand} config: {exc}") from exc
    _write_manifest(
        manifest.subcommand,
        manifest.seed,
        manifest.config,
        {name: entry["path"] for name, entry in manifest.inputs.items()},
        outputs,
        args.out_dir,
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cswlp",
        description="Weighted lp recovery of sparse signals from linear measurements.",
    )
    parser.add_argument("--seed", type=int, default=None, help="master random seed")
    parser.add_argument("--config", type=Path, default=None, help="experiment config file (sweep)")
    parser.add_argument("--out-dir", type=Path, default=Path("."), help="directory for outputs")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="recover one signal from matrix + measurements files")
    ps.add_argument("--matrix", type=Path, required=True, help="CSV or binary n x N matrix")
    ps.add_argument("--measurements", type=Path, required=True, help="CSV or binary length-n vector")
    ps.add_argument("--support", type=Path, default=None, help="file of 1-based support indices")
    ps.add_argument("--omega", type=float, default=1.0, help="weight on the support estimate")
    ps.add_argument("--epsilon", type=float, default=0.0, help="noise bound recorded with b")
    # one flag per SolverConfig field, with that field's default; p has
    # none, so --p defaults to 0.5
    for f in fields(SolverConfig):
        default = 0.5 if f.name == "p" else f.default
        ps.add_argument("--" + f.name.replace("_", "-"), type=type(default), default=default)
    ps.set_defaults(func=_cmd_solve)

    pt = sub.add_parser("theory", help="tabulate recovery thresholds over parameter grids")
    pt.add_argument("--a", default="3", help="grid: comma values or start:stop:count")
    pt.add_argument("--p", default="0.5", help="grid over p")
    pt.add_argument("--omega", default="0:1:5", help="grid over omega")
    pt.add_argument("--alpha", default="0:1:5", help="grid over alpha")
    pt.add_argument("--rho", default="1", help="grid over rho")
    pt.add_argument("--delta-ak", type=float, default=None, help="RIP constant for ak columns")
    pt.add_argument("--delta-a1k", type=float, default=None, help="RIP constant for (a+1)k columns")
    pt.set_defaults(func=_cmd_theory)

    pw = sub.add_parser("sweep", help="run the experiment grid described by --config")
    pw.set_defaults(func=_cmd_sweep)

    pa = sub.add_parser("audio", help="blockwise recovery of a subsampled WAV clip")
    pa.add_argument("--input", type=Path, required=True, help="mono 16-bit PCM WAV file")
    pa.add_argument("--p", default="0.5", help="grid over p")
    pa.add_argument("--omega", default="0:1:7", help="grid over omega")
    pa.add_argument("--block-len", type=int, default=2048)
    pa.add_argument("--num-blocks", type=int, default=21)
    pa.add_argument("--keep-frac", type=float, default=0.25)
    pa.add_argument("--cutoff-hz", type=float, default=4000.0)
    pa.add_argument("--prev-keep", type=float, default=1.0 / 16.0)
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
