"""One benchmark child: a single workload in a fresh process with pinned threads.

Started by ``run.py``; not meant to be run by hand, though it can be::

    PYTHONPATH=src OMP_NUM_THREADS=1 python3 perfbench/work.py \\
        --root . --workload canonical --seed 1 --seconds 40 --trace 0

Set-up (imports, config, and for the library workload the background
solve and the ``Grid``) is timed from the first line of this file.  Then
units of work run back to back until ``--seconds`` have passed (at least
one).  With ``--trace 1`` the units come in pairs, one plain and one under
the span tracer of ``spans.py``, so the tracing overhead is measured on
the same inputs.  Every unit is checked by its workload's correctness
gate; a miss is recorded and never retried.  The last stdout line is one
JSON object that ``run.py`` aggregates.
"""

import time

T_START = time.perf_counter()

import argparse
import json
import math
import os
import random
import resource
import shutil
import sys
import traceback
import warnings
from pathlib import Path

from spans import LAYERS, Tracer, install_epnozzle

RESIDUAL_KEYS = ("sup_psi", "sup_Psi", "sup_mass", "sup_poisson_Phi")


def interior_residual(residuals: dict) -> float:
    return max(float(residuals[k]) for k in RESIDUAL_KEYS)


def _check(failures: list, ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def _gate_outcome(failures, converged, mismatches, residual, residual_bound, gs, gs_ref, gs_tol, label=""):
    _check(failures, converged, f"{label}not converged")
    _check(failures, mismatches == 0, f"{label}{mismatches} classification mismatches")
    _check(failures, math.isfinite(residual) and residual <= residual_bound,
           f"{label}interior residual {residual:.3e} above {residual_bound:.1e}")
    _check(failures, abs(gs - gs_ref) <= gs_tol,
           f"{label}sup_gs_minus_ls {gs:.6e} outside {gs_ref:.6e} +- {gs_tol:.1e}")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Canonical:
    """The acceptance ``std_run`` point, solved by ``fixed_point_solve`` from the library.

    The unit of work is one converged solve including the extraction of the
    sonic interface, the Mach field, primitives and residuals.  The gate:
    ``sup_gs_minus_ls`` within ``GS_REF +- GS_TOL`` and the interior residual
    below ``RESIDUAL_BOUND``.  The seed is not used (it is the paper's fixed
    point).
    """

    GS_REF, GS_TOL = 1.5142e-5, 1.5e-8      # reference to the 5 digits it is quoted with
    RESIDUAL_BOUND = 1e-3

    def __init__(self, seed: int):
        self.seed = seed

    def configure(self, out_dir: Path) -> None:
        import epnozzle

        self.gas = epnozzle.GasParameters(gamma=3.0, zeta0=2.0, J=1.0, S0=1.0 / 3.0)

    def prepare(self) -> None:
        import epnozzle.background
        import epnozzle.fields
        from epnozzle import BoundaryDataSpec

        self.bg = epnozzle.background.solve_background(self.gas, 0.9, resolution=2000)
        self.grid = epnozzle.fields.Grid(
            L=self.bg.x1_at_speed(1.1 * self.gas.u_s), n_x1=401, m=16
        )
        one = ((1, 1.0),)
        self.bdata = BoundaryDataSpec(sigma=1e-4, s_modes=one, e_modes=one, w_modes=one)

    def unit(self, out_dir: Path):
        import epnozzle.driver

        return epnozzle.driver.fixed_point_solve(
            self.bg, self.bdata, self.grid, override_certificate=True, tol_eps=1e-9
        )

    def gate(self, outcome, out_dir):
        failures = []
        residual = interior_residual(outcome.residuals)
        _gate_outcome(failures, outcome.converged, outcome.classification_mismatches, residual,
                      self.RESIDUAL_BOUND, outcome.sup_gs_minus_ls, self.GS_REF, self.GS_TOL)
        return failures, residual


class SweepCertified:
    """CLI ``sweep --axis J`` on the certified small-J branch, without the override.

    Four J values, one drawn log-uniformly in each quarter decade of
    [1e-3, 1e-2] (stratified, so every seed spans the interval), plus
    J = 3e-2, which fails certification and is recorded only.  The unit of
    work is the whole sweep with its artifacts.
    """

    J_UNCERTIFIED = 3e-2
    RESIDUAL_BOUND = 2e-6
    # sup_gs_minus_ls of a certified row follows GS_C * (J / 1e-3) ** GS_P
    # over [1e-3, 1e-2] at this sigma (fitted to 20 rows, largest deviation
    # 1.9%); GS_RTOL is the stated tolerance around that reference
    GS_C, GS_P, GS_RTOL = 3.94e-6, -0.335, 0.05
    CONFIG = (
        "gas.gamma = 1.4\n"
        "gas.zeta0 = 2.0\n"
        "gas.J = 0.001\n"
        "gas.S0 = 1.0\n"
        "window.d = 0.015625\n"
        "grid.n_x1 = 151\n"
        "grid.m = 6\n"
        "boundary.sigma = 1.5e-7\n"
        "boundary.s_modes = 1:1.0;2:0.5;3:0.3333333333333333\n"
        "boundary.e_modes = 1:1.0;2:0.5;3:0.3333333333333333\n"
    )

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.values = [10.0 ** (-3.0 + (i + rng.random()) / 4.0) for i in range(4)]
        self.values.append(self.J_UNCERTIFIED)

    def configure(self, out_dir: Path) -> None:
        import epnozzle.cli

        self.config_path = out_dir / "sweep.cfg"
        self.config_path.write_text(self.CONFIG)
        epnozzle.cli.load_config(self.config_path)

    def prepare(self) -> None:
        pass

    def unit(self, out_dir: Path):
        import epnozzle.cli

        return epnozzle.cli.main([
            "sweep", "--config", str(self.config_path), "--axis", "J",
            "--values", ",".join(repr(v) for v in self.values), "--out", str(out_dir),
        ])

    def gate(self, exit_code, out_dir):
        failures = []
        _check(failures, exit_code == 0, f"sweep exit code {exit_code}")
        table = out_dir / "sweep.csv"
        if not table.is_file():
            return failures + ["sweep.csv missing"], float("nan")
        header, *lines = table.read_text().splitlines()
        header = header.split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines]
        _check(failures, header[:5] == ["value", "L", "alpha_min", "certified", "converged"],
               f"unexpected sweep.csv header {header}")
        _check(failures, len(rows) == len(self.values), f"{len(rows)} sweep rows for {len(self.values)} values")
        row_residuals = []
        for value, row in zip(self.values, rows):
            label = f"J={value:.4g}: "
            if value > 1e-2:
                _check(failures, row.get("certified") == "false", f"{label}certified, expected uncertified")
                _check(failures, row.get("converged") == "false", f"{label}solved although uncertified")
                continue
            _check(failures, row.get("certified") == "true", f"{label}not certified")
            summary_path = out_dir / f"row_J_{value}" / "summary.json"
            if not summary_path.is_file():
                failures.append(f"{label}summary.json missing")
                continue
            summary = json.loads(summary_path.read_text())
            row_residual = interior_residual(summary["residuals"])
            row_residuals.append(row_residual)
            gs_ref = self.GS_C * (value / 1e-3) ** self.GS_P
            _gate_outcome(failures, row.get("converged") == "true" and summary["converged"],
                          summary["classification_mismatches"], row_residual, self.RESIDUAL_BOUND,
                          summary["sup_gs_minus_ls"], gs_ref, self.GS_RTOL * gs_ref, label)
        return failures, max(row_residuals, default=float("nan"))


WORKLOADS = {
    "canonical": Canonical,
    "sweep_certified": SweepCertified,
}


# ---------------------------------------------------------------------------
# units, tracing and the per-layer metrics
# ---------------------------------------------------------------------------

def _classify_warnings(caught) -> dict:
    counts = {"clamp": 0, "energy_sign": 0, "other": 0}
    for w in caught:
        text = str(w.message)
        if "clamping stream-function" in text:
            counts["clamp"] += 1
        elif "energy-sign audit" in text:
            counts["energy_sign"] += 1
        else:
            counts["other"] += 1
    return counts


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_unit(workload, scratch: Path, with_prepare: bool, tracer=None) -> dict:
    """One gated unit.  ``with_prepare`` puts the background solve and grid
    inside the timed scope (the traced runs measure set-up layers too)."""
    out_dir = scratch / "unit"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    record = {"traced": tracer is not None}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            if with_prepare:
                workload.prepare()
            result = workload.unit(out_dir)
        except Exception as exc:  # a failed unit is recorded, never retried
            traceback.print_exc(file=sys.stderr)
            result, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        record["wall_s"] = time.perf_counter() - t0
        record["cpu_s"] = time.process_time() - cpu0
    record["warnings"] = _classify_warnings(caught)
    failures, residual = [error], float("nan")
    if error is None:
        try:
            failures, residual = workload.gate(result, out_dir)
        except (KeyError, ValueError, OSError) as exc:
            failures = [f"outputs unreadable by the gate: {exc!r}"]
    record["failures"], record["residual"] = failures, residual
    record["artifact_bytes"] = _dir_bytes(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    return record


def layer_metrics(tr, record: dict) -> dict:
    """Per-layer metrics of one traced unit, as ``name -> (value, unit)``.

    A ``<function>_s`` metric is the inclusive time of that function's
    spans; ``<layer>.self_s`` excludes every nested span, and the layer
    self times plus ``unattributed_s`` add up to the traced wall time.

    Expected movement: the factor/LU/mode-system/continuation metrics move
    ``solve_s`` and ``peak_rss_mb`` on canonical and stay
    flat on sweep_certified; the regimes metrics and the background profile
    move ``solve_s`` on sweep_certified only; ``background.solve_*`` moves
    ``setup_s`` on canonical; the artifact metrics are zero on canonical.
    """
    t, c, s = tr.total, tr.calls, tr.self_time
    warn = record["warnings"]
    continuations = tr.counters["continuations"]
    layer_self = {layer: tr.layer_self[layer] for layer in LAYERS}
    m = {
        "mixed_solver.factor_s": (t["mixed_solver.factor"], "s"),
        "mixed_solver.eps_solves": (c["mixed_solver.solve_banded"], "count"),
        "mixed_solver.solve_banded_s": (t["mixed_solver.solve_banded"], "s"),
        "mixed_solver.lu_nnz": (tr.maxima["lu_nnz"], "count"),
        "mixed_solver.lu_bytes_computed": (tr.maxima["lu_bytes"], "B"),
        "mixed_solver.mode_system_s": (
            t["mixed_solver.mode_system_init"] + t["mixed_solver.assemble_banded"], "s"),
        "mixed_solver.poisson_s": (t["mixed_solver.poisson"], "s"),
        "mixed_solver.continuation_self_s": (s["mixed_solver.continuation"], "s"),
        "mixed_solver.tol_stop_ratio": (
            tr.counters["tol_stops"] / continuations if continuations else 0.0, "ratio"),
        "mixed_solver.energy_sign_warnings": (warn["energy_sign"], "count"),
        "regimes.certify_s": (t["regimes.certify"], "s"),
        "regimes.certify_calls": (c["regimes.certify"], "count"),
        "regimes.nozzle_length_s": (t["regimes.nozzle_length"], "s"),
        "regimes.nozzle_length_calls": (c["regimes.nozzle_length"], "count"),
        "coefficients.background_profile_s": (t["coefficients.background_profile"], "s"),
        "coefficients.background_profile_calls": (c["coefficients.background_profile"], "count"),
        "coefficients.assemble_s": (t["coefficients.assemble"], "s"),
        "coefficients.assemble_calls": (c["coefficients.assemble"], "count"),
        "coefficients.smallness_s": (t["coefficients.smallness"], "s"),
        "background.solve_s": (t["background.solve"], "s"),
        "background.solve_calls": (c["background.solve"], "count"),
        "transport.lagrangian_map_s": (t["transport.lagrangian_map"], "s"),
        "transport.stream_function_s": (t["transport.stream_function"], "s"),
        "transport.clamp_warnings": (warn["clamp"], "count"),
        "driver.outer_iterations": (c["mixed_solver.linear_problem"], "count"),
        "driver.extract_s": (t["driver.extract"], "s"),
        "cli.artifact_write_s": (
            t["cli.artifact_write"] + t["background.write_csv"] + t["fields.write_grid_csv"], "s"),
        "cli.artifact_bytes": (record["artifact_bytes"], "B"),
        "fields.write_grid_csv_s": (t["fields.write_grid_csv"], "s"),
    }
    for layer, value in layer_self.items():
        m[f"{layer}.self_s"] = (value, "s")
    m["unattributed_s"] = (record["wall_s"] - sum(layer_self.values()), "s")
    return m


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "llc": "unknown",
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "unknown",
        "pinned_threads": int(os.environ.get("OMP_NUM_THREADS", "0")),
        "seed": seed,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
        caches = []
        for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            caches.append((int((index / "level").read_text()), (index / "size").read_text().strip()))
        if caches:
            level, size = max(caches)
            facts["llc"] = f"L{level} {size}"
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return facts


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    root = Path(args.root).resolve()
    scratch = root / ".perfbench_out" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed)
        workload.configure(scratch)
        workload.prepare()
        setup_s = time.perf_counter() - T_START

        import epnozzle

        source = Path(epnozzle.__file__).resolve()
        if root / "src" not in source.parents:
            print(f"epnozzle imported from {source}, not from {root / 'src'}", file=sys.stderr)
            return 2
        result = {"setup_s": setup_s}
        if not args.setup_only:
            result["units"] = run_units(workload, scratch, args)
            result["machine"] = machine_facts(args.seed)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_units(workload, scratch: Path, args) -> list:
    units = []
    start = time.perf_counter()
    if not args.trace:
        while not units or time.perf_counter() - start < args.seconds:
            units.append(run_unit(workload, scratch, with_prepare=False))
        return units

    tracer = Tracer()
    # the library workload's set-up layers (background, Grid) are traced
    # with each unit; the CLI workload does its own set-up inside the unit
    with_prepare = isinstance(workload, Canonical)
    while not units or time.perf_counter() - start < args.seconds:
        units.append(run_unit(workload, scratch, with_prepare))
        tracer.reset()
        install_epnozzle(tracer)
        try:
            record = run_unit(workload, scratch, with_prepare, tracer)
        finally:
            tracer.uninstall()
        record["layers"] = layer_metrics(tracer, record)
        units.append(record)
    return units


if __name__ == "__main__":
    sys.exit(main())
