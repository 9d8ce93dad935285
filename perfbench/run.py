"""cswlp benchmark: end-to-end and per-layer numbers for three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload sweep|audio|validate \\
        [--seed N] [--seconds S] [--trace 0|1]

The package is imported from ``src/`` next to this directory; without
it the benchmark exits with code 2 and prints no result.

``--seconds`` fixes the amount of work: the units that fit in it at the
workload's nominal unit time on a 2-core machine.  Unit i draws its
inputs from the seed, so a seed and a length fix the work.

With ``--trace 0`` the end-to-end metrics are reported:

* ``solves_per_s``: completed solver calls / workload wall time, which
  includes instance generation, SVDs, oracle calls and everything else
  the workload does, scaled to a nominal machine speed.  A fixed numpy
  probe that does not touch cswlp runs before the first unit and then
  after every second or so of units; each such stretch of wall time is
  multiplied by ``harness.NOMINAL_PROBE_S`` over the mean time of the
  probes on either side of it.  On a shared 2-core VM the raw rate
  drifted by up to a third between runs of the same work, and the probe
  drifts with it.  The raw rate and the mean probe time are in the
  record;
* ``setup_s``: median of eleven set-ups, each the time a fresh
  interpreter takes to import the package, as it measures it, plus the
  workload's tables and first inputs, scaled to the nominal speed by the
  probes on either side of it, as for ``solves_per_s``;
* ``peak_rss_mb``: peak resident memory of this process;
* ``ok_frac``: 1 - failed / attempted;
* ``mean_snr_db``: mean SNR against the workload's reference: the true
  sparse signal (sweep), the clip (audio) or the exhaustive oracle's
  minimizer (validate).  On sweep and validate each solve's SNR is
  clipped at ``workloads.RECOVERED_DB`` (60 dB) first, so the mean falls
  when fewer solves recover, not when recovered ones lose digits.

With ``--trace 1`` half the units run once untraced and once with every
layer boundary traced, and the per-layer metrics of the traced pass are
reported; ``trace.overhead_frac`` compares the two passes.

A failed operation is a sweep row with status "failed" or a non-finite
SNR, a solve that raises, a solve whose ||A x - b|| exceeds
feasibility_tol * max(1, ||b||), an oracle-infeasible instance, or an
audio clip that raises or has a non-finite SNR.  The run is correct
when none failed and, untraced, when the share of recovered solves
(sweep) or oracle matches (validate) is at least the workload's
``hit_floor`` or, traced, when both passes gave the same outputs.

The last line of standard output is the result as JSON.  The line
before it holds the machine (nproc, Python, numpy, BLAS library and
threads, kernel backend) and run details: the workload's quality
fraction (``recovered_frac``: share of sweep solves at 60 dB or more;
``oracle_match_rate``: share of validate solves on the oracle's
support), the raw rate and the probe time.  Both are also written to
``perfbench/results/``; runs compare only when the machine fields
match.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"


def use_checkout_source() -> bool:
    """Put this checkout's ``src/`` first on the path; False when the
    package is not there."""
    if not (SRC / "cswlp" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cswlp

    return Path(cswlp.__file__).resolve().is_relative_to(SRC)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "audio", "validate"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not use_checkout_source():
        print(f"cswlp sources not found under {SRC}", file=sys.stderr)
        return 2

    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    result, quality = harness.benchmark(workload, args.seconds, bool(args.trace))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": harness.environment(),
        "quality": quality,
        "result": result,
    }
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"environment": record["environment"], "quality": quality}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
