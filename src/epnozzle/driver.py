"""Outer fixed-point iteration and solution extraction.

Starting from the unperturbed state, each sweep (a) transports the inlet
entropy along the streamlines of the current momentum field, (b) solves
the rotational Poisson problem with the new baroclinic source, and (c)
solves the viscosity-continued mixed-type pair with coefficients frozen
at the current iterate, optionally damped, until the undamped residual
``|G(x) - x|`` (the step over ``theta``) is at most ``tol_outer``.  The
first sweep walks the viscosity schedule from ``eps0``, each later one
from a few halvings above the previous stop, each box solve starting from
the previous sweep's solution at its viscosity (one dict carried across
the sweeps; see ``mixed_solver.vanishing_viscosity``).  The unperturbed
state is an exact fixed point, so zero boundary data converge
immediately; small data contract geometrically.

After convergence the sonic interface is extracted as the per-line root
of the principal-part determinant ``a11 - a12^2``, the Mach field is
cross-checked against the determinant sign (the two classifications agree
away from the interface cell), and primitive variables plus the residuals
of the original balance laws are reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .background import BackgroundSolution
from .boundary import BoundaryDataSpec
from .coefficients import (
    CoefficientSet,
    Collocated,
    FlowState,
    _assemble,
    assemble_coefficients,
    background_profile,
    check_smallness,  # noqa: F401 -- not called here; perfbench/spans.py wraps this binding
    collocate,
    default_d0,
    momentum_field,
    require_admissible,
    varrho,
)
from .errors import InputError, InternalError, NonConvergenceError
from .fields import Grid, grid_d2_parity_split
from .mixed_solver import solve_linear_problem
from .numerics import Pchip, bisect, cubic
from .options import SolverOptions
from .transport import lagrangian_map, stream_function, transport_entropy

THETA_FLOOR = 1.0 / 32.0

# Residuals are reported on ``INTERIOR_MARGIN * L <= x1 <= (1 - INTERIOR_MARGIN) * L``.
INTERIOR_MARGIN = 0.05


@dataclass
class SolveOutcome:
    """Converged state plus extracted diagnostics."""

    state: FlowState
    background: BackgroundSolution
    coeffs: CoefficientSet
    sonic_x2: np.ndarray
    sonic_interface: np.ndarray
    sup_gs_minus_ls: float
    mach: np.ndarray
    classification_mismatches: int
    primitives: dict
    residuals: dict
    iterations: int
    converged: bool
    increments: list = field(default_factory=list)
    margins: dict = field(default_factory=dict)
    d0: float = 0.0
    eps_trace: list = field(default_factory=list)


def default_sigma_cap(bg: BackgroundSolution) -> float:
    """Amplitude cap ``1e-3 min(S0, |E0|, u0)``; 1.598e-4 on canonical; Picard converges up to 19-63x it."""
    return 1e-3 * min(bg.params.S0, abs(bg.E0) if bg.E0 != 0 else bg.u0, bg.u0)


def fixed_point_solve(
    bg: BackgroundSolution,
    bdata: BoundaryDataSpec,
    grid: Grid,
    tol_outer: float = SolverOptions.tol_outer,
    max_outer: int = SolverOptions.max_outer,
    theta: float = SolverOptions.theta,
    eps0: float = SolverOptions.eps0,
    tol_eps: float = SolverOptions.tol_eps,
    eps_cap: int = SolverOptions.eps_cap,
    certificate=None,
    override_certificate: bool = False,
    sigma_cap: float | None = SolverOptions.sigma_cap,
    trace_sink=None,
) -> SolveOutcome:
    """Run the damped Picard iteration to a fixed point and extract results.

    Requires either a certified regime report or ``override_certificate``;
    the boundary amplitude must stay below the configured cap.  The
    smallness radius ``d0`` is ``default_d0`` of the background profile.

    Raises
    ------
    InputError
        Missing certificate/cap violations (a NaN sigma violates the cap),
        options that ``options.SolverOptions`` rejects (each rule named
        there), or domain too long (L >= l_max).
    AdmissibilityError
        An iterate left the admissible set (the violated bound and the
        iterate number are named in the message).
    NonConvergenceError
        Divergence past the damping floor, or budget exhaustion; the message
        names the last contraction factor and the theta in use.
    """
    if grid.L >= bg.l_max:
        raise InputError(f"domain length L={grid.L} must stay below l_max={bg.l_max}")
    options = SolverOptions(tol_outer=tol_outer, max_outer=max_outer, theta=theta, eps0=eps0, tol_eps=tol_eps,
                            eps_cap=eps_cap, sigma_cap=sigma_cap)
    if not override_certificate and not getattr(certificate, "certified", False):
        raise InputError("no certified regime report for these parameters; pass "
                         "override_certificate=True to proceed anyway")
    cap = default_sigma_cap(bg) if sigma_cap is None else sigma_cap
    if not abs(bdata.sigma) <= cap:
        raise InputError(f"boundary amplitude sigma={bdata.sigma} exceeds cap {cap}")
    prof = background_profile(bg, grid)
    d0 = default_d0(prof)

    view = collocate(FlowState.zeros(grid), prof)
    increments: list = []
    eps_trace: list = []
    theta_cur = float(theta)
    growth_streak = 0
    warm: dict = {}

    for it in range(1, max_outer + 1):
        state = view.state
        # nested, so that no transport temporary outlives its reader into the box solves
        T_new = transport_entropy(
            bdata.s_en_minus_s0, lagrangian_map(stream_function(momentum_field(view)[0], grid)), grid)

        def sink(entry, _it=it):
            entry = dict(entry)
            entry["iterations"] = _it
            eps_trace.append(entry)
            if trace_sink is not None:
                trace_sink(entry)

        # T does not enter the velocity: the iterate's view serves the new T.  The box solves' peak
        # memory holds neither the view nor the set's forcings: the set reaches the call through a
        # one-item list, so no name here keeps it, and CPython (3.11+) moves a call's arguments
        # into the callee, which frees the forcings before its walk
        handover = [assemble_coefficients(view._replace(state=replace(state, T=T_new)), d0)]
        del view
        psi_new, Psi_new, phi_new = solve_linear_problem(handover.pop(), bdata, options, trace_sink=sink,
                                                         warm=warm)
        update = FlowState(psi=psi_new, phi=phi_new, Psi=Psi_new, T=T_new)
        view = collocate(state.blend(update, theta_cur), prof)
        margins = require_admissible(view, d0, context=f"at outer iterate {it}")
        incr = view.state.h1_distance(state)
        increments.append(incr)
        if incr <= tol_outer * theta_cur:   # the undamped residual |G(x) - x| = incr / theta
            break
        if len(increments) >= 2 and incr > increments[-2]:
            growth_streak += 1
            if growth_streak >= 2:
                if theta_cur * 0.5 < THETA_FLOOR:
                    raise _stopped(f"outer iteration diverging after damping floor (iterate {it})", increments,
                                   theta_cur)
                theta_cur *= 0.5
                growth_streak = 0
        else:
            growth_streak = 0
    else:  # no break: the budget ran out
        raise _stopped(f"no outer convergence within {max_outer} iterations", increments, theta_cur)

    coeffs = _assemble(view)   # the last in-loop require_admissible passed this view
    x2s, gs = sonic_interface(coeffs)
    sup_dev = float(np.max(np.abs(gs - bg.l_s)))
    prim = reconstruct_primitives(view)
    mach, mismatches = mach_field(prim, coeffs, gs)
    residuals = fixed_point_residuals(view, coeffs, prim)
    return SolveOutcome(
        state=view.state,
        background=bg,
        coeffs=coeffs,
        sonic_x2=x2s,
        sonic_interface=gs,
        sup_gs_minus_ls=sup_dev,
        mach=mach,
        classification_mismatches=mismatches,
        primitives=prim,
        residuals=residuals,
        iterations=it,
        converged=True,
        increments=increments,
        margins=margins,
        d0=d0,
        eps_trace=eps_trace,
    )


def _stopped(reason: str, increments: list, theta: float) -> NonConvergenceError:
    """The outer loop's failure, with its last contraction factor and the theta it ran at."""
    rho = increments[-1] / increments[-2] if len(increments) > 1 else float("nan")
    return NonConvergenceError(f"{reason}; last contraction factor {rho:.3g} at theta {theta:g}")


def sonic_interface(coeffs: CoefficientSet):
    """Per-line root of the principal determinant ``a11 - a12^2``.

    Asserts exactly one sign change per wall-normal line (elliptic at the
    inlet, hyperbolic at the exit) and bisects each line's monotone cubic
    interpolant of the determinant over its crossing cell to a sign change
    between adjacent floats; the root is the lower float, the last at which
    the cubic is positive (elliptic).

    All lines share one column-wise PCHIP over the stations around their
    crossing cells.  PCHIP is local (a cell's cubic reads one node before
    it to two after it), so each line gets bit for bit the cubic of its own
    full-length interpolant, evaluated in the same operation order.
    """
    g = coeffs.grid
    det = coeffs.det_principal()
    signs = np.sign(det)
    changes = np.count_nonzero(np.diff(signs, axis=0), axis=0)
    crossings = (signs[:-1] > 0) & (signs[1:] < 0)
    for j in range(g.n_x2):
        if not (det[0, j] > 0 > det[-1, j]):
            raise InternalError(
                f"type indicator lacks the elliptic->hyperbolic pattern on line x2={g.x2[j]:.4f}"
            )
        if changes[j] != 1 or np.count_nonzero(crossings[:, j]) != 1:
            raise InternalError(
                f"type indicator changes sign {changes[j]} times on line x2={g.x2[j]:.4f}; "
                f"profile head {det[:5, j]}"
            )
    cells = np.argmax(crossings, axis=0)
    rows = slice(max(cells.min() - 2, 0), cells.max() + 4)
    c = Pchip(g.x1[rows], det[rows]).c[:, cells - rows.start, np.arange(g.n_x2)]
    lo = g.x1[cells]
    return g.x2.copy(), bisect(lambda x: cubic(c, x - lo), lo, g.x1[cells + 1])


def mach_field(prim: dict, coeffs: CoefficientSet, gs: np.ndarray):
    """Mach number ``|u| / sqrt(gamma S rho^(gamma-1))`` plus a classification audit.

    Reads ``rho, u1, u2, S`` from ``reconstruct_primitives``.  Verifies
    ``sign(1 - M^2) = sign(a11 - a12^2)`` at every node farther than one
    cell from the interface and that M crosses 1 exactly once per line;
    returns ``(M, mismatch_count)``.
    """
    gamma = coeffs.profile.bg.params.gamma
    g = coeffs.grid
    u1, u2, rho = prim["u1"], prim["u2"], prim["rho"]
    sound_sq = gamma * prim["S"] * rho ** (gamma - 1)
    M = np.sqrt((u1 ** 2 + u2 ** 2) / sound_sq)
    det = coeffs.det_principal()
    away = np.abs(g.x1[:, None] - gs[None, :]) > 1.5 * g.h1
    mismatches = int(np.sum(np.sign(1.0 - M ** 2)[away] != np.sign(det)[away]))
    crossings = np.sum(np.diff(np.sign(M - 1.0), axis=0) != 0, axis=0)
    if np.any(crossings != 1):
        raise InternalError("Mach number does not cross 1 exactly once on some line")
    return M, mismatches


def reconstruct_primitives(view: Collocated) -> dict:
    """Primitive fields and residuals of the original balance laws.

    ``residual_poisson`` differences the whole potential ``Phibar + Psi``, so it
    carries the background's own O(h^2) balance ``D2 Phibar - (rhobar - rhobar_inf)``:
    of the canonical interior sup 4.267e-8 that is 3.988e-8, the perturbation's
    balance 2.81e-9, and the rest, about 3e-10, roundoff of differencing the
    O(1) potential at 1/h^2 = 5e5, which leaves the sum 2-3 significant digits.
    """
    state, prof = view.state, view.prof
    p = prof.bg.params
    g = prof.grid
    u1, u2, Psi = view.v1, view.v2, view.Psi
    T = state.T.values()
    S = p.S0 + T
    Phi = prof.Phi[:, None] + Psi
    rho = varrho(T, Phi, u1 ** 2 + u2 ** 2, p)

    mass = g.D1 @ (rho * u1) + grid_d2_parity_split(rho * u2, g)
    poisson = g.D2 @ Phi + state.Psi.d22() - (rho - p.rho_bar_inf)
    entropy = rho * (u1 * state.T.d1() + u2 * state.T.d2())
    return {
        "rho": rho,
        "u1": u1,
        "u2": u2,
        "S": S,
        "Phi": Phi,
        "residual_mass": mass,
        "residual_poisson": poisson,
        "residual_entropy": entropy,
    }


def interior_mask(grid: Grid) -> np.ndarray:
    """Stations with ``INTERIOR_MARGIN * L <= x1 <= (1 - INTERIOR_MARGIN) * L``, chosen by index.

    ``x1_i = i L / (n_x1 - 1)``, so the bounds are compared with ``i``, not
    with the rounded stations: a station that sits on a bound is kept (ties
    count as inside) whatever L is.
    """
    n = grid.n_x1 - 1
    lo = np.ceil(INTERIOR_MARGIN * n - 1e-9)  # slack for the rounding of INTERIOR_MARGIN * n
    i = np.arange(grid.n_x1)
    return (i >= lo) & (i <= n - lo)


def fixed_point_residuals(view: Collocated, coeffs: CoefficientSet, prim: dict) -> dict:
    """Sup and L2 residuals of the perturbation system at the fixed point.

    Differential rows are evaluated on the fixed physical interior of
    :func:`interior_mask` (0.05 L to 0.95 L).  The sup of the psi residual
    is the largest (canonical 4.79e-4; 5.1-6.6e-7 on the seed-1 sweep rows,
    whose others are at most 6.7e-9) and does not refine: 4.4e-4, 4.6e-4 and
    4.7e-4 at n_x1 = 101, 201 and 401 on canonical.  Its cause is an odd-even
    sawtooth that the box scheme leaves in ``v''`` at the floor eps = h^2,
    excited by the inlet condition the viscous construction imposes; it spans
    a fixed fraction of L, not a sub-grid layer, and refines only beyond
    about 0.5 L (ROADMAP open item 2).  ``sup_poisson_Phi`` is split in
    :func:`reconstruct_primitives`.
    """
    state = view.state
    mask = interior_mask(state.grid)
    res_psi = (
        coeffs.a11 * state.psi.d11()
        + 2.0 * coeffs.a12 * state.psi.d12()
        + state.psi.d22()
        + coeffs.a * view.p1
        + coeffs.b1 * state.Psi.d1()
        + coeffs.b0 * view.Psi
        - coeffs.f1
    )[mask]
    res_Psi = (
        state.Psi.d11() + state.Psi.d22()
        - coeffs.c0[:, None] * view.Psi
        - coeffs.c1[:, None] * view.p1
        - coeffs.f2
    )[mask]
    res_phi = (-(state.phi.d11() + state.phi.d22()) - coeffs.f3)[mask]
    out = {}
    for name, arr in (
        ("psi", res_psi),
        ("Psi", res_Psi),
        ("phi", res_phi),
        ("mass", prim["residual_mass"][mask]),
        ("poisson_Phi", prim["residual_poisson"][mask]),
        ("entropy", prim["residual_entropy"][mask]),
    ):
        out[f"sup_{name}"] = float(np.max(np.abs(arr)))
        out[f"l2_{name}"] = float(np.sqrt(np.mean(arr ** 2)))
    return out
