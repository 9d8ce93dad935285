"""Layer timing and solve checks attached from outside the cswlp package.

Nothing here edits the package.  ``instrument`` rebinds the module and
class attributes through which one layer calls the next (for example
``cswlp._kernels.backtrack_raw`` or ``cswlp.experiments.solve``) to
wrappers that time each call, and restores them on exit.  A layer's
self time is its calls' duration minus the time of the traced calls
they made; time spent in no traced call is the root's self time, which
the benchmark reports as unattributed.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from contextlib import ExitStack
from time import perf_counter

import numpy as np

from cswlp import _kernels, audio, core, experiments, oracle, solver

# Names the experiments module imported to build one sweep instance.
_GENERATORS = (
    "_instance_rng",
    "best_k_term",
    "gen_compressible_signal",
    "gen_gaussian_matrix",
    "gen_noise_on_sphere",
    "gen_sparse_signal",
    "gen_support_estimate",
)

# (owner, attribute, layer) for every call site that gets a span.
_SPANS = (
    (_kernels, "smoothed_objective_raw", "kernels.objective"),
    (_kernels, "smoothed_gradient_raw", "kernels.gradient"),
    (_kernels, "backtrack_raw", "kernels.backtrack"),
    (_kernels, "indicator_max_raw", "kernels.indicator_max"),
    (solver, "_projector_parts", "solver.projector"),
    (experiments, "_projector_parts", "solver.projector"),
    (audio, "_projector_parts", "solver.projector"),
    (solver, "solve", "solver.solve"),
    (experiments, "solve", "solver.solve"),
    (audio, "solve", "solver.solve"),
    (core.DenseMatrix, "as_dense", "core.as_dense"),
    (core.RestrictedTransform, "as_dense", "core.as_dense"),
    (experiments, "run_sweep", "experiments"),
    *((experiments, name, "experiments.gen") for name in _GENERATORS),
    (audio, "recover_clip", "audio"),
    (audio, "build_block_problem", "audio.block_problem"),
    (oracle, "oracle_weighted_lp", "oracle"),
)


def _patch(stack: ExitStack, owner, name: str, wrap) -> None:
    original = getattr(owner, name)
    setattr(owner, name, wrap(original))
    stack.callback(setattr, owner, name, original)


class Tracer:
    """Per-layer call counts, total and self times, and solve durations."""

    def __init__(self) -> None:
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.solve_s: list[float] = []
        # traced time of the calls made by each open span; [0] is the root
        self._child_s = [0.0]
        # objective evaluations inside backtrack_raw, and calls that
        # rejected every step
        self.backtrack_evals = 0
        self.backtrack_stalls = 0

    @property
    def covered_s(self) -> float:
        """Time inside top-level traced calls; the rest of the wall is
        the root's self time."""
        return self._child_s[0]

    def span(self, layer: str, fn):
        child_s = self._child_s

        def timed(*args, **kwargs):
            child_s.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = child_s.pop()
                child_s[-1] += elapsed
                self.total_s[layer] += elapsed
                self.self_s[layer] += elapsed - inner
                self.calls[layer] += 1
                if layer == "solver.solve":
                    self.solve_s.append(elapsed)

        return timed

    def count_backtrack(self, fn):
        """Count objective evaluations from each backtrack_raw result:
        accepted step shrink**j took j + 1, a rejection took them all."""

        def counted(x, pd, wp, p, sigma, f0, shrink, max_backtracks):
            step, f_new = fn(x, pd, wp, p, sigma, f0, shrink, max_backtracks)
            if step > 0.0:
                self.backtrack_evals += round(math.log(step) / math.log(shrink)) + 1
            else:
                self.backtrack_evals += max_backtracks
                self.backtrack_stalls += 1
            return step, f_new

        return counted


class SolveLog:
    """Checks every returned solve for feasibility and counts iterations."""

    def __init__(self) -> None:
        self.solves = 0
        self.infeasible = 0
        self.iters = 0
        self.max_iter_solves = 0

    def check(self, fn):
        def checked(A, b, w, cfg, **kwargs):
            x_hat, trace = fn(A, b, w, cfg, **kwargs)
            y = b.y if isinstance(b, core.Measurements) else np.asarray(b, dtype=np.float64)
            residual = float(np.linalg.norm(A.apply(x_hat.entries) - y))
            if not residual <= cfg.feasibility_tol * max(1.0, float(np.linalg.norm(y))):
                self.infeasible += 1
            self.solves += 1
            self.iters += len(trace)
            self.max_iter_solves += len(trace) >= cfg.max_iters
            return x_hat, trace

        return checked


def instrument(stack: ExitStack, log: SolveLog, tracer: Tracer | None = None) -> None:
    """Install the solve check and, given a tracer, every layer span,
    for as long as ``stack`` stays open."""
    if tracer is not None:
        for owner, name, layer in _SPANS:
            _patch(stack, owner, name, lambda fn, layer=layer: tracer.span(layer, fn))
        _patch(stack, _kernels, "backtrack_raw", tracer.count_backtrack)
    for owner in (solver, experiments, audio):
        _patch(stack, owner, "solve", log.check)
