"""Measurement of one workload: passes over its units, set-up time,
the machine it ran on, and the end-to-end and per-layer metrics.

Import after ``run.use_checkout_source()`` has put the package's
sources on the path.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from cswlp import _kernels
from tracing import SolveLog, Tracer, instrument
from workloads import Outcome

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_REPEATS = 11
# Run in a fresh interpreter; prints how long importing the package took,
# so that process start-up stays out of the figure.
_IMPORT_PACKAGE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import cswlp.audio, cswlp.experiments, cswlp.oracle; "
    "print(time.perf_counter() - start)"
)

# The machine's speed drifts by tens of percent over minutes, which no
# run length averages out.  A fixed numpy computation, timed before the
# first unit and after every PROBE_EVERY_S of units, drifts with it; each
# stretch of units is rescaled to the speed where that computation takes
# NOMINAL_PROBE_S, by the mean of the probes on either side of it.
NOMINAL_PROBE_S = 0.05
PROBE_EVERY_S = 1.0

# Self-time layers; together with the unattributed root they add up to
# the traced wall time.
SELF_LAYERS = {
    "kernels.backtrack_s": "kernels.backtrack",
    "kernels.objective_s": "kernels.objective",
    "kernels.gradient_s": "kernels.gradient",
    "kernels.indicator_max_s": "kernels.indicator_max",
    "solver.self_s": "solver.solve",
    "solver.projector_s": "solver.projector",
    "core.as_dense_s": "core.as_dense",
    "experiments.gen_s": "experiments.gen",
    "experiments.self_s": "experiments",
    "audio.block_problem_s": "audio.block_problem",
    "audio.self_s": "audio",
    "oracle.s": "oracle",
}


class Probe:
    """Fixed dense and elementwise numpy work that does not touch cswlp:
    an SVD, matrix-vector products and a loop of small array calls, the
    three kinds of work the workloads do."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._wide = rng.standard_normal((180, 360))
        self._square = rng.standard_normal((1024, 1024))
        self._vec = rng.standard_normal(1024)
        self._small = rng.standard_normal(16)
        self.times: list[float] = []

    def run(self) -> None:
        start = perf_counter()
        np.linalg.svd(self._wide, full_matrices=False)
        for _ in range(70):
            self._square @ self._vec
        for _ in range(3000):
            float(np.sum((self._small * self._small + 0.1) ** 0.25))
        self.times.append(perf_counter() - start)

    def at_nominal(self, seconds: float) -> float:
        """``seconds`` measured between the last two probes, rescaled to
        the speed where a probe takes NOMINAL_PROBE_S."""
        return seconds * 2.0 * NOMINAL_PROBE_S / (self.times[-2] + self.times[-1])


@dataclass
class Pass:
    wall_s: float  # time inside the units, probes excluded
    outcome: Outcome  # summed over the units
    log: SolveLog
    probe_s: float | None  # mean probe time, when probed
    nominal_s: float | None  # wall_s at the nominal speed, when probed


def run_pass(workload, units: int, tracer: Tracer | None = None, probe: Probe | None = None) -> Pass:
    """Run units 0 .. units-1 with the solve check and, given a tracer,
    every layer span installed.  A probe runs before the first unit,
    after the last, and between units every PROBE_EVERY_S."""
    log = SolveLog()
    total = Outcome()
    wall = nominal = stretch = 0.0
    with ExitStack() as stack:
        instrument(stack, log, tracer)
        if probe is not None:
            probe.run()
        for index in range(units):
            infeasible = log.infeasible
            start = perf_counter()
            out = workload.run_unit(index)
            elapsed = perf_counter() - start
            wall += elapsed
            stretch += elapsed
            total.attempted += out.attempted
            total.failed += min(out.attempted, out.failed + log.infeasible - infeasible)
            total.snrs += out.snrs
            total.hits += out.hits
            if probe is not None and (stretch >= PROBE_EVERY_S or index == units - 1):
                probe.run()
                nominal += probe.at_nominal(stretch)
                stretch = 0.0
    probed = probe is not None
    return Pass(
        wall_s=wall, outcome=total, log=log,
        probe_s=statistics.fmean(probe.times) if probed else None,
        nominal_s=nominal if probed else None,
    )


def measure_setup(workload) -> float:
    """Median set-up time at the nominal speed: importing the package in
    a fresh interpreter, as that interpreter times it, plus the
    workload's lazy tables and first inputs.  A probe runs before the
    first set-up and after each."""
    probe = Probe()
    probe.run()
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", _IMPORT_PACKAGE, str(SRC)], check=True, capture_output=True, text=True
        )
        start = perf_counter()
        workload.prepare()
        elapsed = float(child.stdout) + perf_counter() - start
        probe.run()
        times.append(probe.at_nominal(elapsed))
    return statistics.median(times)


def _blas_threads() -> int | None:
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "kernel_backend": _kernels.get_backend(),
    }


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end_metrics(measured: Pass, setup_s: float) -> dict:
    out = measured.outcome
    return {
        "solves_per_s": _metric(measured.log.solves / measured.nominal_s, "1/s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": _metric(1.0 - out.failed / out.attempted, "ratio"),
        "mean_snr_db": _metric(statistics.fmean(out.snrs) if out.snrs else 0.0, "dB"),
    }


def layer_metrics(tracer: Tracer, traced: Pass, untraced: Pass) -> dict:
    log = traced.log
    iters = max(log.iters, 1)
    solves = max(log.solves, 1)
    wall = traced.wall_s
    evals = tracer.calls["kernels.objective"] + tracer.backtrack_evals
    p50, p90 = np.percentile(1e3 * np.asarray(tracer.solve_s), [50, 90]) if tracer.solve_s else (0.0, 0.0)
    metrics = {name: _metric(tracer.self_s[layer], "s") for name, layer in SELF_LAYERS.items()}
    metrics.update(
        {
            "kernels.backtrack_calls": _metric(tracer.calls["kernels.backtrack"], "count"),
            "solver.objective_evals": _metric(evals, "count"),
            "solver.evals_per_iter": _metric(evals / iters, "evals/iter"),
            "solver.stalled_iter_frac": _metric(tracer.backtrack_stalls / iters, "ratio"),
            "solver.projector_calls": _metric(tracer.calls["solver.projector"], "count"),
            "solver.solve_s": _metric(tracer.total_s["solver.solve"], "s"),
            "solver.solve_ms_p50": _metric(p50, "ms"),
            "solver.solve_ms_p90": _metric(p90, "ms"),
            "solver.iters": _metric(log.iters, "count"),
            "solver.iters_per_solve": _metric(log.iters / solves, "iters/solve"),
            "solver.max_iters_frac": _metric(log.max_iter_solves / solves, "ratio"),
            "oracle.calls": _metric(tracer.calls["oracle"], "count"),
            "trace.wall_s": _metric(wall, "s"),
            "trace.overhead_frac": _metric(wall / untraced.wall_s - 1.0, "ratio"),
            "trace.unattributed_frac": _metric((wall - tracer.covered_s) / wall, "ratio"),
        }
    )
    return metrics


def benchmark(workload, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns the result and its quality fractions.

    The work is fixed by ``seconds``: as many units as fit in it at the
    workload's nominal unit time.  A traced run splits them into an
    untraced pass and a traced pass over the same units.
    """
    units = max(1, round(seconds / workload.unit_seconds))
    if trace:
        workload.prepare()
        units = max(1, units // 2)
        untraced = run_pass(workload, units)
        tracer = Tracer()
        measured = run_pass(workload, units, tracer)
        metrics = layer_metrics(tracer, measured, untraced)
    else:
        setup_s = measure_setup(workload)
        measured = run_pass(workload, units, probe=Probe())
        metrics = end_to_end_metrics(measured, setup_s)
    out = measured.outcome
    quality = {
        "units": units,
        "solves": measured.log.solves,
        "wall_s": measured.wall_s,
        "probe_s": measured.probe_s,
        "raw_solves_per_s": measured.log.solves / measured.wall_s,
    }
    if workload.hit_metric is not None:
        quality[workload.hit_metric] = float(out.hits / out.attempted)
    if trace:
        # tracing must not change what the package computes
        checked = measured.outcome == untraced.outcome
    else:
        # the traced run's half-length passes are too short for the floor
        # to tell lost accuracy from seed-to-seed spread
        checked = workload.hit_metric is None or quality[workload.hit_metric] >= workload.hit_floor
    result = {
        "correct": checked and out.failed == 0 and measured.log.solves > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }
    return result, quality
