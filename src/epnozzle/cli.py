"""Command-line driver: background / regimes / solve / sweep.

Artifacts written by ``solve``: ``background.csv``, ``fields/*.csv`` for
psi, phi, Psi, T, rho, u1, u2, M, ``sonic_interface.csv``,
``summary.json``, ``convergence.jsonl``.  Exit codes: 0 success, 2 input
error, 3 non-convergence, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from .background import GasParameters, solve_background
from .config import RunConfig, load_config, with_overrides
from .driver import SolveOutcome, fixed_point_solve
from .errors import InputError, SolverError
from .fields import Grid, write_csv_table, write_grid_csv
from .regimes import certify_regime, write_alpha_csv
from . import regimes as regimes_mod


def gas_from_config(cfg: RunConfig) -> GasParameters:
    return GasParameters(gamma=cfg.gamma, zeta0=cfg.zeta0, J=cfg.J, S0=cfg.S0, E0=cfg.E0)


def resolve_window(cfg: RunConfig, params: GasParameters):
    """Turn the config's inlet/exit description into (u0, kappaL)."""
    if cfg.d is not None:
        return (1.0 - cfg.d) * params.u_s, 1.0 + cfg.d
    u0 = cfg.u0 if cfg.u0 is not None else cfg.kappa0 * params.u_s
    return u0, cfg.kappaL


def build_problem(cfg: RunConfig):
    """Background, grid, and boundary data for a validated config."""
    params = gas_from_config(cfg)
    u0, kappaL = resolve_window(cfg, params)
    bg = solve_background(params, u0, resolution=cfg.resolution)
    if cfg.L is not None:
        L = cfg.L
    else:
        L = bg.x1_at_speed(kappaL * params.u_s)
    if not L < bg.l_max:
        raise InputError(f"requested length L={L} does not satisfy L < l_max={bg.l_max}")
    grid = Grid(L, cfg.n_x1, cfg.m)
    return params, bg, grid, cfg.boundary_data()


def run(cfg: RunConfig, out_dir: Path, certificate=None) -> SolveOutcome:
    """Full pipeline: background -> regimes -> fixed point -> extraction + artifacts.

    ``certificate`` is the regime report of ``cfg``'s gas parameters when
    the caller already holds it; otherwise it is computed here.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    params, bg, grid, bdata = build_problem(cfg)
    bg.write_csv(out_dir / "background.csv")
    report = certify_regime(params) if certificate is None else certificate
    with open(out_dir / "convergence.jsonl", "w") if cfg.emit_traces else nullcontext() as fh:
        sink = None if fh is None else lambda entry: fh.write(
            json.dumps({k: entry[k] for k in ("epsilon", "h1_diff", "sup_diff", "iterations")}) + "\n")
        outcome = fixed_point_solve(bg, bdata, grid, **vars(cfg.solver_options()), certificate=report,
                                    override_certificate=cfg.override_certificate, trace_sink=sink)

    if cfg.emit_fields:
        fdir = out_dir / "fields"
        fdir.mkdir(exist_ok=True)
        state = outcome.state
        prim = outcome.primitives
        for name, values in (
            ("psi", state.psi.values()),
            ("phi", state.phi.values()),
            ("Psi", state.Psi.values()),
            ("T", state.T.values()),
            ("rho", prim["rho"]),
            ("u1", prim["u1"]),
            ("u2", prim["u2"]),
            ("M", outcome.mach),
        ):
            write_grid_csv(fdir / f"{name}.csv", values, grid)
    write_csv_table(out_dir / "sonic_interface.csv", "x2,g_s",
                    (outcome.sonic_x2, outcome.sonic_interface))
    summary = {
        "parameters": {
            "gamma": params.gamma,
            "zeta0": params.zeta0,
            "J": params.J,
            "S0": params.S0,
            "E0": bg.E0,
            "u0": bg.u0,
            "L": grid.L,
            "n_x1": grid.n_x1,
            "m": grid.m,
            "sigma": bdata.sigma,
            "theta": cfg.theta,
        },
        "u_s": params.u_s,
        "u_max": bg.u_max,
        "l_s": bg.l_s,
        "l_max": bg.l_max,
        "converged": outcome.converged,
        "iterations": outcome.iterations,
        "sup_gs_minus_ls": outcome.sup_gs_minus_ls,
        "classification_mismatches": outcome.classification_mismatches,
        "residuals": outcome.residuals,
        "norm_margins": outcome.margins,
        "state_norms": outcome.state.amplitude_norms(),
        "d0": outcome.d0,
        "certificate": report.to_dict(),
        "increments": outcome.increments,
    }
    with open(out_dir / "summary.json", "w") as fh3:
        json.dump(summary, fh3, indent=2)
        fh3.write("\n")
    return outcome


def sweep(cfg: RunConfig, axis: str, values, out_dir: Path) -> list:
    """Run the pipeline per value along one axis; failures recorded per row.

    Emits ``sweep.csv`` with columns ``value, L, alpha_min, certified, converged, sup_gs_minus_ls,
    iterations``, and one stderr JSON line per failed row: its value, error type and message.
    """
    if axis not in ("J", "sigma", "d"):
        raise InputError(f"unknown sweep axis {axis!r}")
    if len(set(values)) != len(values):
        raise InputError(f"repeated sweep values {list(values)}: rows would share an output directory")
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    base_params = gas_from_config(cfg)
    # the speed-ratio window (kappa0, kappaL) that sweep.csv's L is measured in; only J moves the
    # sonic speed it is scaled by, so a sigma row solves cfg itself, and each d row sets its own
    if cfg.d is not None:
        window = 1.0 - cfg.d, 1.0 + cfg.d
    elif axis != "d":
        u0, kappaL = resolve_window(cfg, base_params)
        if kappaL is None:
            bg0 = solve_background(base_params, u0, resolution=cfg.resolution)
            kappaL = bg0.evaluate(np.array([cfg.L]))["u1"][0] / base_params.u_s
        window = u0 / base_params.u_s, kappaL

    for value in values:
        row = {
            "value": value, "L": float("nan"), "alpha_min": float("nan"),
            "certified": False, "converged": False,
            "sup_gs_minus_ls": float("nan"), "iterations": 0,
        }
        try:
            if axis == "J":
                row_cfg = with_overrides(cfg, J=value, u0=None, L=None, kappa0=window[0], kappaL=window[1], d=None)
            elif axis == "d":
                row_cfg = with_overrides(cfg, u0=None, L=None, kappa0=None, kappaL=None, d=value)
                window = 1.0 - value, 1.0 + value
            else:
                row_cfg = with_overrides(cfg, sigma=cfg.sigma * value)
            params = gas_from_config(row_cfg)
            report = certify_regime(params)
            row.update(alpha_min=report.alpha_min, certified=report.certified)
            row["L"] = regimes_mod.nozzle_length(*window, params)
            if report.certified or row_cfg.override_certificate:
                outcome = run(row_cfg, out_dir / f"row_{axis}_{value}", certificate=report)
                row.update(converged=outcome.converged, sup_gs_minus_ls=outcome.sup_gs_minus_ls,
                           iterations=outcome.iterations)
        except SolverError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
            print(json.dumps({"value": value, "error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        rows.append(row)

    with open(out_dir / "sweep.csv", "w") as fh:
        fh.write("value,L,alpha_min,certified,converged,sup_gs_minus_ls,iterations\n")
        for row in rows:
            fh.write(
                f"{row['value']:.17g},{row['L']:.17g},{row['alpha_min']:.17g},"
                f"{str(row['certified']).lower()},{str(row['converged']).lower()},"
                f"{row['sup_gs_minus_ls']:.17g},{row['iterations']}\n"
            )
    return rows


def _cmd_background(cfg: RunConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    params = gas_from_config(cfg)
    u0, _ = resolve_window(cfg, params)
    bg = solve_background(params, u0, resolution=cfg.resolution)
    bg.write_csv(out_dir / "background.csv")
    bg.write_summary(out_dir / "summary.json")
    return 0


def _cmd_regimes(cfg: RunConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    params = gas_from_config(cfg)
    report = certify_regime(params)
    report.write_json(out_dir / "regime.json")
    if cfg.emit_fields and report.d > 0:
        kgrid = np.linspace(report.kappa0, report.kappaL, 501)
        vals, _ = regimes_mod.alpha_profile(kgrid, report.kappa0, report.kappaL, params, report.eta)
        write_alpha_csv(out_dir / "alpha_profile.csv", kgrid, vals)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="epnozzle", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("background", "regimes", "solve", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="flat key-value or JSON config file")
        p.add_argument("--out", default=None, help="output directory (overrides output.dir)")
        p.add_argument("--scale-sigma", type=float, default=None, dest="scale_sigma")
        p.add_argument("--override-certificate", action="store_true", dest="override_cert")
        if name == "sweep":
            p.add_argument("--axis", required=True, choices=("J", "sigma", "d"))
            p.add_argument("--values", required=True, help="comma-separated values (may be empty)")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.scale_sigma is not None:
            cfg = with_overrides(cfg, sigma=cfg.sigma * args.scale_sigma)
        if args.override_cert:
            cfg = with_overrides(cfg, override_certificate=True)
        out_dir = Path(args.out) if args.out is not None else Path(cfg.out_dir)
        if args.command == "background":
            return _cmd_background(cfg, out_dir)
        if args.command == "regimes":
            return _cmd_regimes(cfg, out_dir)
        if args.command == "solve":
            run(cfg, out_dir)
            return 0
        try:
            values = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError as exc:
            raise InputError(f"bad --values {args.values!r}: {exc}") from None
        if not all(map(math.isfinite, values)):
            raise InputError(f"bad --values {args.values!r}: every value must be finite")
        sweep(cfg, args.axis, values, out_dir)
        return 0
    except SolverError as exc:
        error = {"error": type(exc).__name__, "message": str(exc), "exit_code": exc.exit_code}
        print(json.dumps(error), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
