"""The benchmark's span tracer still finds every package name it wraps.

``perfbench/spans.py`` wraps package functions at the names their callers
bind (for example ``epnozzle.driver.background_profile`` and
``epnozzle.driver.check_smallness``) and reads the ``tol_eps`` argument of
``vanishing_viscosity`` after each continuation.  A refactor that drops one
of those bindings must fail here, not first in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import epnozzle.driver
from epnozzle import BoundaryDataSpec, GasParameters, Grid, fixed_point_solve, solve_background

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_and_traces_a_small_solve():
    spans = _load_spans()
    gas = GasParameters(gamma=3.0, zeta0=2.0, J=1.0, S0=1.0 / 3.0)
    bg = solve_background(gas, 0.9, resolution=301)
    grid = Grid(L=bg.x1_at_speed(1.1 * gas.u_s), n_x1=51, m=2)
    bdata = BoundaryDataSpec(sigma=1e-4, s_modes=((1, 1.0),), e_modes=((1, 1.0),))
    tracer = spans.Tracer()
    spans.install_epnozzle(tracer)
    try:
        # call through the module binding the tracer patched
        out = epnozzle.driver.fixed_point_solve(bg, bdata, grid, override_certificate=True)
    finally:
        tracer.uninstall()
    assert out.converged
    assert tracer.calls["coefficients.background_profile"] == 1
    assert tracer.calls["coefficients.momentum_field"] == out.iterations
    assert tracer.calls["mixed_solver.continuation"] == out.iterations
    # one box system per outer iterate, solved along the schedule; every box
    # solve is forced, so it factors one band, assembled through the
    # ``_assemble_banded`` binding
    assert tracer.calls["mixed_solver.mode_system_init"] == out.iterations
    assert tracer.calls["mixed_solver.solve_banded"] > out.iterations
    assert tracer.calls["mixed_solver.assemble_banded"] == tracer.calls["mixed_solver.solve_banded"]
    # the continuation post-hook ran on every call (it reads ``tol_eps``)
    assert tracer.counters["continuations"] == out.iterations
    assert epnozzle.driver.fixed_point_solve is fixed_point_solve
