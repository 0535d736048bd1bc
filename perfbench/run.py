"""epnozzle benchmark: one command, two workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload canonical --seed 1 --seconds 40 --trace 0

Workloads (see ``work.py`` for their inputs and correctness gates):

* ``canonical`` - library ``fixed_point_solve`` at the acceptance point
  (401 x 16 stations/modes, tol_eps = 1e-9).  Bound by the sparse LU of the
  mixed solver; the seed is not used.
* ``sweep_certified`` - CLI ``sweep --axis J`` over four seeded small J
  values plus one uncertified J, with artifacts.  Bound by the regime
  certificate and the background profile; bypasses the mixed solver's cost.

Each run starts a fresh child process (``work.py``) with BLAS/OpenMP
threads pinned to ``THREADS``, plus, with ``--trace 0``, ``SETUP_SAMPLES``
set-up-only children, so ``setup_s`` is a median of fresh-process set-ups.
With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics of the traced units.  Human-readable lines go first;
the last stdout line is the JSON result.  The exit code is non-zero, and no
result is printed, when the package sources are missing or a child fails.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("canonical", "sweep_certified")
THREADS = 1
SETUP_SAMPLES = 2
RUN_LIMIT_S = 175.0

# exact counts that must repeat run after run; a change in one is flagged
# (not failed) so that a change which alters the work done is noticed
EXACT_COUNTS = (
    "mixed_solver.eps_solves",
    "driver.outer_iterations",
    "regimes.certify_calls",
    "coefficients.background_profile_calls",
    "mixed_solver.lu_nnz",
)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(root / "src"), str(HERE)))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def run_child(argv: list, root: Path, deadline: float) -> dict:
    """Run ``work.py`` to completion and return its JSON line (raises on failure)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "work.py"), "--root", str(root), *argv],
        cwd=root, env=child_env(root), stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child {argv} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report_tail(name: str, values: list, unit: str) -> None:
    """Print the highest percentile with at least ten samples beyond it.

    Such a percentile lies above the median only from 20 samples on.
    """
    n = len(values)
    if n < 20:
        print(f"{name}: median of n={n}; no tail percentile is supported below 20 samples")
        return
    q = 100 * (n - 10) // n
    print(f"{name}: median of n={n}; p{q} = {sorted(values)[n - 11]!r} {unit}")


def end_to_end(units: list, setups: list, peak_rss_mb: float) -> dict:
    walls = [u["wall_s"] for u in units]
    residuals = [u["residual"] for u in units if math.isfinite(u["residual"])]
    metrics = {
        "solve_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "cpu_s": (statistics.median(u["cpu_s"] for u in units), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "interior_residual_max": (statistics.median(residuals), "1"),
    }
    report_tail("solve_s", walls, "s")
    print(f"setup_s: median of {len(setups)} fresh-process set-ups")
    return metrics


def per_layer(units: list, workload: str) -> dict:
    plain = [u["wall_s"] for u in units if not u["traced"]]
    traced = [u for u in units if u["traced"]]
    names = traced[0]["layers"]
    metrics = {
        name: (statistics.median(u["layers"][name][0] for u in traced), unit)
        for name, (_, unit) in names.items()
    }
    wall = statistics.median(u["wall_s"] for u in traced)
    metrics["trace_overhead_s"] = (wall - statistics.median(plain), "s")
    metrics["count_drift"] = (count_drift(traced, workload), "count")
    share = metrics["unattributed_s"][0] / wall
    print(f"traced wall {wall!r} s over {len(traced)} traced unit(s); "
          f"unattributed {100 * share:.2f}% (limit 5%)")
    if abs(share) > 0.05:
        print("STAGE ATTRIBUTION: layer self times miss the traced wall by more than 5%")
    return metrics


def count_drift(traced: list, workload: str) -> int:
    """Exact counts that differ between traced units or from the recorded reference."""
    reference = json.loads((HERE / "reference_counts.json").read_text()).get(workload, {})
    drift = 0
    for name in EXACT_COUNTS:
        seen = {u["layers"][name][0] for u in traced}
        expected = reference.get(name)
        if len(seen) > 1 or (expected is not None and seen != {expected}):
            drift += 1
            print(f"COUNT DRIFT: {name} = {sorted(seen)}"
                  + (f", recorded {expected}" if expected is not None else ""))
    return drift


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    deadline = time.monotonic() + RUN_LIMIT_S
    root = HERE.parent
    package = root / "src" / "epnozzle"
    if not (package / "__init__.py").is_file():
        print(f"no epnozzle sources at {package}; run from a full checkout", file=sys.stderr)
        return 2
    # the build step: byte-compile the package so no run pays for it
    if not compileall.compile_dir(str(package), quiet=1):
        print("byte-compiling the package failed", file=sys.stderr)
        return 2

    child_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        work = run_child(child_args, root, deadline)
        setups = [work["setup_s"]]
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                setups.append(run_child(child_args + ["--setup-only"], root, deadline)["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        with contextlib.suppress(OSError):
            (root / ".perfbench_out").rmdir()   # the children remove their own subdirectories

    units = work["units"]
    if not any(math.isfinite(u["residual"]) for u in units):
        print("no unit of work produced a result; nothing to measure", file=sys.stderr)
        return 1
    failed = [u for u in units if u["failures"]]
    print("machine: " + json.dumps(work["machine"], sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, {len(units)} unit(s), "
          f"{sum(u['traced'] for u in units)} traced, unit walls "
          + ", ".join(f"{u['wall_s']:.3f}" for u in units) + " s")
    for i, u in enumerate(units):
        if u["failures"]:
            print(f"GATE FAILED unit {i}: " + "; ".join(u["failures"]))
    print(f"failed_frac = {len(failed) / len(units)!r} ({len(failed)} of {len(units)} units)")
    if args.trace:
        metrics = per_layer(units, args.workload)
    else:
        metrics = end_to_end(units, setups, work["peak_rss_mb"])
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(units),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
