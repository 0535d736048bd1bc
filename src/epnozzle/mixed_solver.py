"""Linearized solve: rotational Poisson problem and the degenerate mixed-type system.

One linearized step of the coupled iteration solves, with coefficients
frozen at an iterate,

* ``-laplace(phi) = f3`` for the rotational potential (Neumann inlet,
  zero walls and exit), reduced to mode-diagonal two-point problems in the
  dirichlet family, and
* the weakly coupled pair ``L1(v, w) = f1*``, ``L2(v, w) = f2*`` for the
  homogenized potential perturbations, where ``L1`` changes type from
  elliptic to hyperbolic across the sonic interface.

The mixed-type pair is discretized by Galerkin truncation onto the
orthonormal slip basis ``eta_k = cos(k pi x2)/sqrt(|Gamma|)`` in the wall
direction, with a third-derivative viscosity ``eps * d111 v`` appended so
the degenerate problem becomes solvable at every ``eps > 0``; the
accepted solution is the converged tail of a geometric ``eps`` schedule.

In the flow direction the truncated system is written in the first-order
mode variables ``X = (X1..X5) = (v, v', v'', w, w')`` and discretized by
the second-order box (trapezoid) scheme, with the boundary data split by
the projection ``Pi``: components ``(X1, X2, X5)`` anchored at the inlet,
the complement ``(X3, X4)`` at the exit.  Collocating the cumulative
integral equation

    X(x1) = Pi * integral_0^x1 (A X + F) + (Id - Pi) * integral_L^x1 (A X + F)

with trapezoid quadrature is row-equivalent to the box scheme, so the
dense integral-equation solve of the test suite (``tests/oracles.py``)
is an exact small-instance oracle for the block-banded assembly.  Direct
central differencing of the third-order form is *not* used: with a
sign-changing principal coefficient it develops a resonance band of
viscosities (around ``eps ~ 0.1 h^2 .. h``) where the discrete solution
blows up by many orders, violating the uniform viscous-energy bound the
continuation relies on; the box scheme stays uniformly bounded down to
``eps ~ 0.1 h^2``, so the schedule is floored at ``eps >= h^2``.

The box system is numbered mode-major and solved at each ``eps`` by GMRES
(Saad & Schultz 1986) on the full operator, preconditioned by an exact
sparse LU of its mode-diagonal part: K independent box systems, one per
cosine mode.  Modes couple only through the ``C`` blocks, and there only
through the O(sigma) wall-direction variation of the coefficients (about
1e-6 of the diagonal at the sigma cap), so the preconditioned iteration
closes in a few steps.  Every solve checks its own residual
``|b - A x| / |b|`` against ``LINEAR_RESIDUAL_MAX`` and raises rather
than return an unconverged iterate.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_banded
from scipy.sparse.linalg import LinearOperator, gmres, splu

from .coefficients import BackgroundProfile, CoefficientSet
from .errors import InputError, NonConvergenceError
from .fields import Field2D, Grid

DEFAULT_EPS0 = 0.1
DEFAULT_EPS_TOL = 1e-6
DEFAULT_EPS_CAP = 20

LINEAR_RESIDUAL_MAX = 1e-10     # bound on |b - A x| / |b| of every box solve
GMRES_RESTART = 30
GMRES_CYCLES = 3


# ---------------------------------------------------------------------------
# Rotational Poisson problem
# ---------------------------------------------------------------------------

def poisson_solve_phi(f0: Field2D, grid: Grid) -> Field2D:
    """Solve ``-laplace(phi) = f0`` with d1(phi)=0 inlet, phi=0 on walls and exit.

    Per dirichlet mode ``sin(k pi (x2+1)/2)`` this is the two-point problem
    ``-phi_k'' + mu_k phi_k = f_k`` with ``mu_k = (k pi / 2)^2``, solved by
    a second-order tridiagonal scheme (mirror ghost node at the inlet).
    """
    if f0.parity != "dirichlet":
        raise InputError("Poisson forcing must carry dirichlet parity")
    n, h = grid.n_x1, grid.h1
    out = np.zeros_like(f0.modes)
    for k in range(grid.n_dir):
        mu = grid.dir_freq[k] ** 2
        ab = np.zeros((3, n))
        rhs = f0.modes[:, k].copy()
        ab[1, :] = 2.0 / h ** 2 + mu
        ab[0, 1:] = -1.0 / h ** 2
        ab[2, :-1] = -1.0 / h ** 2
        # inlet mirror ghost: phi(-h) = phi(h)
        ab[0, 1] = -2.0 / h ** 2
        # exit Dirichlet row
        ab[1, n - 1] = 1.0
        ab[2, n - 2] = 0.0
        rhs[n - 1] = 0.0
        out[:, k] = solve_banded((1, 1), ab, rhs)
    return Field2D("dirichlet", out, grid)


# ---------------------------------------------------------------------------
# Boundary-data lift
# ---------------------------------------------------------------------------

def lift_boundary_data(bdata, coeffs: CoefficientSet, grid: Grid):
    """Homogenize the inlet data of the mixed-type pair.

    With ``lift_psi(x2) = integral_{-1}^{x2} w_en`` and
    ``lift_Psi = (x1 - L)(E_en - E0)`` the shifted unknowns satisfy zero
    inlet data, and the right-hand sides become
    ``f1* = f1 - L1(lift_psi, lift_Psi)``, ``f2* = f2 - L2(...)``; both
    lift images are evaluated analytically (the lifts are a pure-x2
    profile and a linear-in-x1 profile).

    Returns ``(f1_star, f2_star, lift_psi, lift_Psi)`` with the forcings
    as grid fields and the lifts as cosine fields.

    Raises
    ------
    InputError
        If the boundary data violate the wall compatibility conditions
        beyond 1e-10.
    """
    defect = bdata.compatibility_defect()
    if defect > 1e-10:
        raise InputError(f"boundary data violate wall compatibility (defect {defect:.3e})")
    x2, x1, L = grid.x2, grid.x1, grid.L
    Ev = bdata.e_en_minus_e0(x2)
    Evpp = bdata.e_en_d2(x2)
    wd = bdata.w_en_d1(x2)
    lift_psi_vals = np.broadcast_to(bdata.psi_inlet(x2), (grid.n_x1, grid.n_x2))
    ramp = (x1 - L)[:, None]
    lift_Psi_vals = ramp * Ev
    l1 = wd[None, :] + coeffs.b1 * Ev[None, :] + coeffs.b0 * lift_Psi_vals
    l2 = ramp * Evpp[None, :] - coeffs.c0[:, None] * lift_Psi_vals
    f1_star = coeffs.f1 - l1
    f2_star = coeffs.f2 - l2
    lift_psi = Field2D.from_grid_values("cosine", np.array(lift_psi_vals), grid)
    lift_Psi = Field2D.from_grid_values("cosine", lift_Psi_vals, grid)
    return f1_star, f2_star, lift_psi, lift_Psi


# ---------------------------------------------------------------------------
# Galerkin mode system
# ---------------------------------------------------------------------------

class ModeSystem:
    """Galerkin truncation of the viscous mixed-type pair.

    Carries the per-station coupling blocks (acting on the first-order
    block vector ``X = (X1..X5) = (v, v', v'', w, w')`` of mode
    coefficients), the projected forcings, and the assembler of the
    banded box system.
    """

    def __init__(self, coeffs: CoefficientSet, f1_grid: np.ndarray, f2_grid: np.ndarray, grid: Grid):
        self.grid = grid
        self.coeffs = coeffs
        K = grid.n_cos
        eta, eta_d, w2 = grid.eta_basis, grid.eta_basis_d, grid.w2
        wB = eta * w2[:, None]
        # coupling blocks: C[i, k, j] = <coef(x1_i, .) B_j, eta_k>
        self.C3 = np.einsum("iq,qk,qj->ikj", coeffs.a11, wB, eta)
        self.C2 = np.einsum("iq,qk,qj->ikj", 2.0 * coeffs.a12, wB, eta_d) + np.einsum(
            "iq,qk,qj->ikj", coeffs.a, wB, eta
        )
        self.C5 = np.einsum("iq,qk,qj->ikj", coeffs.b1, wB, eta)
        self.C4 = np.einsum("iq,qk,qj->ikj", coeffs.b0, wB, eta)
        self.lam = grid.cos_freq ** 2          # from d22: -lam_k per mode
        self.c0 = coeffs.c0
        self.c1 = coeffs.c1
        self.F1 = (f1_grid * w2) @ eta
        self.F2 = (f2_grid * w2) @ eta
        self.K = K
        self._banded_cache = None

    # projection selecting the inlet-anchored first-order components
    @property
    def Pi(self) -> np.ndarray:
        """Boolean mask over (X1..X5): inlet-anchored components (X1, X2, X5)."""
        return np.array([True, True, False, False, True])

    def is_forcing_zero(self) -> bool:
        return not (np.any(self.F1) or np.any(self.F2))

    # -- production banded assembly (box scheme in the X variables) --------
    def _assemble_banded(self):
        """Assemble the box system ``(A_base + eps K_visc) X = rhs``, mode-major.

        Unknown ``X_blk`` of mode ``k`` at station ``i`` sits at index
        ``k 5n + 5i + blk``, so the mode-diagonal part ``D_base`` (the
        ``k != j`` entries of the ``C`` blocks dropped) is block diagonal
        with one box system per mode; ``K_visc`` is mode-diagonal already.
        Returns ``(A_base, K_visc, D_base, rhs)``.
        """
        g = self.grid
        n, K, h = g.n_x1, self.K, g.h1
        N = 5 * n
        size = K * N
        kk = np.arange(K)

        def xi(i, blk, k):
            return k * N + 5 * i + blk

        rows, cols, data = [], [], []
        vrows, vcols, vdata = [], [], []         # eps-scaled part
        rhs = np.zeros(size)
        cells = np.arange(n - 1)

        def add(r, c, d):
            rows.append(np.asarray(r).ravel())
            cols.append(np.asarray(c).ravel())
            data.append(np.broadcast_to(d, np.shape(r)).ravel() if np.ndim(d) < np.ndim(r) else np.asarray(d).ravel())

        # row layout: cell i (i = 0..n-2) owns rows xi(i, blk, k); the
        # boundary rows live in the last station's slots.
        Ic, Kc = np.meshgrid(cells, kk, indexing="ij")
        # kinematic relations X1' = X2, X2' = X3, X4' = X5 (trapezoid)
        for dst, src, blk in ((0, 1, 0), (1, 2, 1), (3, 4, 3)):
            r = xi(Ic, blk, Kc)
            add(r, xi(Ic + 1, dst, Kc), 1.0)
            add(r, xi(Ic, dst, Kc), -1.0)
            add(r, xi(Ic + 1, src, Kc), -h / 2.0)
            add(r, xi(Ic, src, Kc), -h / 2.0)

        # dynamic row 1: eps X3' + trap(C3 X3 + C2 X2 + C1 X1 + C5 X5 + C4 X4) = trap F1
        r1 = xi(Ic, 2, Kc)
        vrows.extend(r1.ravel()); vcols.extend(xi(Ic + 1, 2, Kc).ravel())
        vdata.extend(np.full(r1.size, 1.0))
        vrows.extend(r1.ravel()); vcols.extend(xi(Ic, 2, Kc).ravel())
        vdata.extend(np.full(r1.size, -1.0))
        Icj, Kcj, Jcj = np.meshgrid(cells, kk, kk, indexing="ij")
        rj = xi(Icj, 2, Kcj)
        for blk, C in ((2, self.C3), (1, self.C2), (4, self.C5), (3, self.C4)):
            for side in (0, 1):
                add(rj, xi(Icj + side, blk, Jcj), (h / 2.0) * C[cells + side])
        for side in (0, 1):
            add(r1, xi(Ic + side, 0, Kc), (h / 2.0) * np.broadcast_to(-self.lam, Ic.shape))
        rhs[r1.ravel()] += (h / 2.0) * (self.F1[cells][:, :] + self.F1[cells + 1][:, :]).ravel()

        # dynamic row 2: X5' - trap((lam + c0) X4 + c1 X2) = trap F2
        r2 = xi(Ic, 4, Kc)
        add(r2, xi(Ic + 1, 4, Kc), 1.0)
        add(r2, xi(Ic, 4, Kc), -1.0)
        for side in (0, 1):
            coef4 = -(h / 2.0) * (self.lam[None, :] + self.c0[cells + side][:, None])
            add(r2, xi(Ic + side, 3, Kc), coef4)
            coef2 = -(h / 2.0) * np.broadcast_to(self.c1[cells + side][:, None], Ic.shape)
            add(r2, xi(Ic + side, 1, Kc), coef2)
        rhs[r2.ravel()] += (h / 2.0) * (self.F2[cells][:, :] + self.F2[cells + 1][:, :]).ravel()

        # projection-split boundary rows: Pi components vanish at the inlet,
        # the complement at the exit
        last = n - 1
        for blk, at_inlet in enumerate(self.Pi):
            add(xi(last, blk, kk), xi(0 if at_inlet else last, blk, kk), 1.0)

        r = np.concatenate(rows)
        c = np.concatenate(cols)
        d = np.concatenate([np.asarray(x, dtype=float) for x in data])
        A_base = sp.csr_matrix((d, (r, c)), shape=(size, size))
        diag = r // N == c // N
        D_base = sp.csc_matrix((d[diag], (r[diag], c[diag])), shape=(size, size))
        K_visc = sp.csc_matrix(
            (np.asarray(vdata), (np.asarray(vrows), np.asarray(vcols))), shape=(size, size)
        )
        return A_base, K_visc, D_base, rhs

    def banded_parts(self):
        if self._banded_cache is None:
            self._banded_cache = self._assemble_banded()
        return self._banded_cache

    def solve_banded(self, eps: float):
        """Solve the production block-banded box system at viscosity ``eps``.

        Runs GMRES(``GMRES_RESTART``) for at most ``GMRES_CYCLES`` restart
        cycles on ``A_base + eps K_visc``, preconditioned by the sparse LU
        of its mode-diagonal part ``D_base + eps K_visc``.

        Returns the mode arrays ``(X1, X4)`` of the potential perturbations.

        Raises
        ------
        NonConvergenceError
            If the preconditioner is singular, or if the relative residual
            ``|b - A x| / |b|`` exceeds ``LINEAR_RESIDUAL_MAX``.
        """
        A_base, K_visc, D_base, rhs = self.banded_parts()
        try:
            lu = splu(D_base + eps * K_visc, permc_spec="NATURAL")
        except RuntimeError as exc:
            raise NonConvergenceError(
                f"singular linear system at eps={eps}, m={self.K - 1}: {exc}"
            ) from exc

        def apply(x):
            return A_base @ x + eps * (K_visc @ x)

        shape = A_base.shape
        residuals = []                  # one preconditioned residual per iteration
        sol, _ = gmres(
            LinearOperator(shape, matvec=apply, dtype=float), rhs,
            rtol=1e-12, restart=GMRES_RESTART, maxiter=GMRES_CYCLES,
            M=LinearOperator(shape, matvec=lu.solve, dtype=float),
            callback=residuals.append, callback_type="pr_norm",
        )
        residual = np.linalg.norm(rhs - apply(sol))
        b_norm = np.linalg.norm(rhs)
        if not residual <= LINEAR_RESIDUAL_MAX * b_norm:
            raise NonConvergenceError(
                f"GMRES missed the residual bound at eps={eps}, m={self.K - 1}: "
                f"|b - A x|/|b| = {residual / b_norm:.3e} > {LINEAR_RESIDUAL_MAX:.0e} "
                f"after {len(residuals)} iterations"
            )
        sol = sol.reshape(self.K, self.grid.n_x1, 5)
        return sol[:, :, 0].T, sol[:, :, 3].T

    def to_fields(self, theta: np.ndarray, Theta: np.ndarray):
        """Convert orthonormal-basis Galerkin coefficients to cosine fields."""
        scale = 1.0 / np.sqrt(self.grid.cos_norm)
        v = Field2D("cosine", theta * scale, self.grid)
        w = Field2D("cosine", Theta * scale, self.grid)
        return v, w


def energy_sign_audit(coeffs: CoefficientSet) -> bool:
    """Check the discrete acceleration-sign conditions before a linear solve.

    The wall-averaged profiles must satisfy ``-2 a - (2m - 1) d1 a11 > 0``
    at every station for m = 0, 1 whenever L < l_max; warns (does not
    fail) when a perturbed coefficient set violates it.
    """
    g = coeffs.grid
    abar = (coeffs.a @ g.w2) / 2.0
    a11bar = (coeffs.a11 @ g.w2) / 2.0
    da11 = g.D1 @ a11bar
    ok = True
    for mm in (0, 1):
        if np.min(-2.0 * abar - (2 * mm - 1) * da11) <= 0:
            ok = False
    if not ok:
        warnings.warn("energy-sign audit failed: -2a - (2m-1) d1(a11) not positive", stacklevel=2)
    return ok


def solve_eps_system(
    coeffs: CoefficientSet,
    f1_grid: np.ndarray,
    f2_grid: np.ndarray,
    epsilon: float,
    grid: Grid,
):
    """Single viscous solve at fixed ``eps``; returns the (v, w) field pair."""
    if not epsilon > 0:
        raise InputError("epsilon must be positive")
    system = ModeSystem(coeffs, f1_grid, f2_grid, grid)
    energy_sign_audit(coeffs)
    theta, Theta = system.solve_banded(epsilon)
    return system.to_fields(theta, Theta)


def vanishing_viscosity(
    coeffs: CoefficientSet,
    f1_grid: np.ndarray,
    f2_grid: np.ndarray,
    grid: Grid,
    eps0: float = DEFAULT_EPS0,
    tol_eps: float = DEFAULT_EPS_TOL,
    cap: int = DEFAULT_EPS_CAP,
    trace_sink=None,
):
    """Continue the viscous solves along ``eps_k = eps0 2^-k`` to the limit.

    Stops when the discrete-H1 difference of consecutive solutions falls
    below ``tol_eps``, the schedule cap is reached, or the next viscosity
    would drop below the resolution floor ``h1^2``
    (below roughly ``0.1 h1^2`` the discrete problem leaves the continuum
    family because the limit problem sheds two boundary conditions whose
    eps-layers the grid can no longer carry).  The difference trace must
    become decreasing (five consecutive non-decreasing steps raise
    ``NonConvergenceError``) and the viscous energy
    ``sqrt(eps)|d11 v| + |v|_H1 + |w|_H1`` may not blow up relative to the
    first iterate.

    Returns ``(v, w, trace)``.
    """
    system = ModeSystem(coeffs, f1_grid, f2_grid, grid)
    if system.is_forcing_zero():
        v = Field2D.zeros("cosine", grid)
        return v, Field2D.zeros("cosine", grid), []
    energy_sign_audit(coeffs)
    trace = []
    prev = None
    energy0 = None
    result = None
    eps_floor = grid.h1 ** 2
    for k in range(cap + 1):
        eps = eps0 * 0.5 ** k
        if k > 0 and eps < eps_floor:
            break
        theta, Theta = system.solve_banded(eps)
        v, w = system.to_fields(theta, Theta)
        d11 = v.d11()
        energy = (
            np.sqrt(eps) * np.sqrt(grid.integrate(d11 ** 2)) + v.h1_norm() + w.h1_norm()
        )
        if energy0 is None:
            energy0 = max(energy, 1e-300)
        if energy > 1e3 * energy0:
            raise NonConvergenceError(
                f"viscous energy blow-up at eps={eps}: {energy:.3e} vs first {energy0:.3e}"
            )
        if prev is not None:
            diff = float(
                np.sqrt((v - prev[0]).h1_norm() ** 2 + (w - prev[1]).h1_norm() ** 2)
            )
            sup = float(
                max(np.max(np.abs((v - prev[0]).values())), np.max(np.abs((w - prev[1]).values())))
            )
            entry = {"epsilon": eps, "h1_diff": diff, "sup_diff": sup, "k": k}
            trace.append(entry)
            if trace_sink is not None:
                trace_sink(entry)
            tail = [t["h1_diff"] for t in trace[-6:]]
            if len(tail) == 6 and all(tail[i + 1] >= tail[i] for i in range(5)):
                raise NonConvergenceError(
                    "eps-continuation trace non-decreasing over 5 consecutive steps"
                )
            result = (v, w)
            if diff <= tol_eps:
                return v, w, trace
        prev = (v, w)
        result = (v, w)
    return result[0], result[1], trace


def solve_linear_problem(
    T_tilde: Field2D,
    P,
    bdata,
    prof: BackgroundProfile,
    d0: float,
    eps0: float = DEFAULT_EPS0,
    tol_eps: float = DEFAULT_EPS_TOL,
    eps_cap: int = DEFAULT_EPS_CAP,
    trace_sink=None,
):
    """One full linearized sweep at the iterate ``(T_tilde, P)``.

    Assembles the coefficient set at ``P`` (with entropy ``T_tilde``)
    about the background profile ``prof``, solves the rotational Poisson
    problem for the new ``phi``, lifts the boundary data, continues the
    viscous mixed-type solves to the limit and restores the lifts.  Returns ``(psi, Psi, phi, coeffs, trace)``.
    """
    from .coefficients import FlowState, assemble_coefficients

    grid = prof.grid
    state = FlowState(psi=P.psi, phi=P.phi, Psi=P.Psi, T=T_tilde)
    coeffs = assemble_coefficients(state, prof, d0)
    f3_modes = Field2D.from_grid_values("dirichlet", coeffs.f3, grid)
    phi_new = poisson_solve_phi(f3_modes, grid)
    f1s, f2s, lift_psi, lift_Psi = lift_boundary_data(bdata, coeffs, grid)
    v, w, trace = vanishing_viscosity(
        coeffs, f1s, f2s, grid, eps0=eps0, tol_eps=tol_eps, cap=eps_cap, trace_sink=trace_sink,
    )
    return v + lift_psi, w + lift_Psi, phi_new, coeffs, trace
