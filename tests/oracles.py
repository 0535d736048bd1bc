"""Shared independent oracles for the test suite.

Quadrature and RK routes for the background, the closed-form sonic limit
of the regime function ``alpha``, the Galerkin data of the mode system
(batched coupling blocks and an own forcing projection, built from the
coefficients and never read from a ``ModeSystem``), the dense
integral-equation solve and dense box assembly on that data, the
per-mode banded Poisson solve, the RK4 streamline tracer, the advective
residual of transported fields, the discrete divergence of a momentum
field, the per-row difference-matrix
construction, the per-call parity-split derivative, the per-line sonic
root, the per-value CSV writer and the ``np.unique`` window scan grid.
"""

from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import PchipInterpolator, RectBivariateSpline
from scipy.linalg import solve_banded
from scipy.optimize import brentq

from epnozzle import flux_F, u_max_root
from epnozzle.fields import grid_d2_parity_split
from epnozzle.regimes import ENDPOINT_REFINE, KAPPA_RESOLUTION


def oracle_H(u, params):
    """Independent adaptive quadrature of the defining field-balance integral."""
    g, ub, us, J = params.gamma, params.u_bar_inf, params.u_s, params.J
    val, _ = quad(
        lambda t: (J / (ub * t ** (g + 1))) * (t ** (g + 1) - us ** (g + 1)) * (ub - t),
        us,
        u,
        epsabs=1e-13,
        epsrel=1e-12,
        limit=300,
    )
    return val


def defining_flux_ratio(u, H, params):
    """Raw defining ratio of the flux, ``u^gamma sqrt(2 H) / |u^(gamma+1) - u_s^(gamma+1)|``, at ``H = H(u)``."""
    g, us = params.gamma, params.u_s
    return u ** g * np.sqrt(2.0 * H) / np.abs(u ** (g + 1) - us ** (g + 1))


def alpha_sonic_limit(params, eta: float) -> float:
    """Vanishing-window limit of ``regimes.alpha_profile`` at kappa = 1.

    ``h0^-eta J^((2-gamma+2 eta)/(gamma+1)) (h0^-1.5 sqrt((gamma+1)(1-1/zeta0))/2
    - 2 h0^-(2+eta) J^((2 eta-gamma)/(gamma+1)))``.
    """
    J, g, h0, z = params.J, params.gamma, params.h0, params.zeta0
    return h0 ** (-eta) * J ** ((2 - g + 2 * eta) / (g + 1)) * (
        0.5 * h0 ** -1.5 * np.sqrt((g + 1) * (1 - 1 / z))
        - (2.0 / h0 ** (2 + eta)) * J ** ((2 * eta - g) / (g + 1))
    )


def rk_station_events(params, u0, rtol=1e-12, max_step=np.inf, dstop=1e-7):
    """Adaptive RK on the reduced accelerating IVP u' = F(u).

    Returns ``(l_s, l_max)`` from the sonic-crossing event and a
    sqrt-tail-corrected event just below the terminal speed (the reduced
    IVP is the equivalent scalar form of the (u1, E) system on the
    critical orbit; the direct 2D system cannot be integrated through the
    sonic saddle, which is a separatrix).
    """
    umax = u_max_root(params)

    def rhs(x, y):
        return [flux_F(min(y[0], umax), params)]

    ev_s = lambda x, y: y[0] - params.u_s
    ev_s.direction = 1
    ev_m = lambda x, y: y[0] - (umax - dstop)
    ev_m.terminal = True
    ev_m.direction = 1
    sol = solve_ivp(
        rhs, [0, 1e4], [u0], method="DOP853", rtol=rtol, atol=1e-14,
        events=[ev_s, ev_m], max_step=max_step,
    )
    g, us = params.gamma, params.u_s
    num = umax ** (g + 1) - us ** (g + 1)
    Hp = (params.J / (params.u_bar_inf * umax ** (g + 1))) * num * (params.u_bar_inf - umax)
    tail = num / (umax ** g * np.sqrt(2 * abs(Hp))) * 2 * np.sqrt(dstop)
    return sol.t_events[0][0], sol.t_events[1][0] + tail


# projection Pi of the first-order variables: (X1, X2, X5) anchored at the inlet
INLET_ANCHORED = np.array([True, True, False, False, True])


def parity_split_d2(values, grid) -> np.ndarray:
    """``grid_d2_parity_split`` with its even and odd trig tables evaluated on every call."""
    even = 0.5 * (values + values[:, ::-1])
    odd = 0.5 * (values - values[:, ::-1])
    K2 = 2 * (grid.m + 1)
    kc = np.arange(K2 + 1)
    C = np.cos(np.outer(grid.x2, kc * np.pi))
    norms = np.where(kc == 0, 2.0, 1.0)
    coef_e = (even * grid.w2) @ C / norms
    d_even = coef_e @ (-kc * np.pi * np.sin(np.outer(grid.x2, kc * np.pi))).T
    ks = np.arange(1, K2 + 1)
    S = np.sin(np.outer(grid.x2, ks * np.pi))
    coef_o = (odd * grid.w2) @ S
    d_odd = coef_o @ (ks * np.pi * np.cos(np.outer(grid.x2, ks * np.pi))).T
    return d_even + d_odd


def galerkin_basis(grid):
    """The orthonormal Galerkin basis ``eta_k = cos(k pi x2) / sqrt(norm_k)`` and its x2-derivative."""
    cos = grid.families["cosine"]
    return cos.value / np.sqrt(cos.norm), cos.d2 / np.sqrt(cos.norm)


def galerkin_data(coeffs, f1, f2) -> SimpleNamespace:
    """Galerkin data of the viscous pair for ``coeffs`` and the grid forcings ``f1``, ``f2``.

    The coupling blocks of ``batched_coupling_blocks``, the wall
    eigenvalues ``lam_k = (k pi)^2``, the profiles ``c0``, ``c1`` and the
    forcings projected onto ``eta_k`` by one ``einsum`` each.
    """
    grid = coeffs.grid
    C3, C2, C5, C4 = batched_coupling_blocks(coeffs)
    eta, _ = galerkin_basis(grid)
    F1, F2 = (np.einsum("ij,j,jk->ik", f, grid.w2, eta) for f in (f1, f2))
    return SimpleNamespace(grid=grid, K=grid.n_cos, C3=C3, C2=C2, C5=C5, C4=C4,
                           lam=(np.pi * np.arange(grid.n_cos)) ** 2, c0=coeffs.c0, c1=coeffs.c1,
                           F1=F1, F2=F2)


def node_block(system, i: int, eps: float) -> np.ndarray:
    """First-order block A(x1_i) of ``galerkin_data``, acting on (X1..X5) mode stacks."""
    K = system.K
    A = np.zeros((5 * K, 5 * K))
    I = np.eye(K)
    A[0 * K:1 * K, 1 * K:2 * K] = I
    A[1 * K:2 * K, 2 * K:3 * K] = I
    A[3 * K:4 * K, 4 * K:5 * K] = I
    A[2 * K:3 * K, 0 * K:1 * K] = np.diag(system.lam) / eps
    A[2 * K:3 * K, 1 * K:2 * K] = -system.C2[i] / eps
    A[2 * K:3 * K, 2 * K:3 * K] = -system.C3[i] / eps
    A[2 * K:3 * K, 3 * K:4 * K] = -system.C4[i] / eps
    A[2 * K:3 * K, 4 * K:5 * K] = -system.C5[i] / eps
    A[4 * K:5 * K, 1 * K:2 * K] = np.diag(np.full(K, system.c1[i]))
    A[4 * K:5 * K, 3 * K:4 * K] = np.diag(system.lam + system.c0[i])
    return A


def batched_coupling_blocks(coeffs):
    """Coupling blocks ``C[i, k, j] = <coef(x1_i, .) B_j, eta_k>`` of the Galerkin mode system.

    The batched-matmul route over ``(n, K, n_x2)`` weighted-basis
    temporaries, one per coefficient.  Returns ``(C3, C2, C5, C4)``.
    """
    grid = coeffs.grid
    (eta, eta_d), w2 = galerkin_basis(grid), grid.w2
    wB = (eta * w2[:, None]).T
    C3 = (wB * coeffs.a11[:, None, :]) @ eta
    C2 = (wB * (2.0 * coeffs.a12)[:, None, :]) @ eta_d + (wB * coeffs.a[:, None, :]) @ eta
    C5 = (wB * coeffs.b1[:, None, :]) @ eta
    C4 = (wB * coeffs.b0[:, None, :]) @ eta
    return C3, C2, C5, C4


def solve_dense_first_order(coeffs, f1, f2, eps: float):
    """Dense collocation of the projected cumulative integral equation.

    Solves ``X = Pi I_0[A X + F] + (Id - Pi) I_L[A X + F]`` for the
    ``galerkin_data`` of ``(coeffs, f1, f2)`` with trapezoid cumulatives
    ``I_0`` / ``I_L``; row-equivalent to the banded box system, so the two
    solutions agree to solver roundoff.  Intended for small instances
    (dense memory).  Returns the mode arrays ``(X1, X4)``.
    """
    system = galerkin_data(coeffs, f1, f2)
    g = system.grid
    n, K, h = g.n_x1, system.K, g.h1
    B = 5 * K
    size = n * B
    blocks = [node_block(system, i, eps) for i in range(n)]
    Fvec = np.zeros((n, B))
    Fvec[:, 2 * K:3 * K] = system.F1 / eps
    Fvec[:, 4 * K:5 * K] = system.F2

    # trapezoid cumulative weight matrices from the two anchors
    W0 = np.zeros((n, n))
    for i in range(1, n):
        W0[i, : i + 1] = h
        W0[i, 0] = W0[i, i] = h / 2.0
    WL = np.zeros((n, n))
    for i in range(n - 1):
        WL[i, i:] = -h
        WL[i, i] = WL[i, n - 1] = -h / 2.0

    pi_mask = np.repeat(INLET_ANCHORED, K)
    A = np.eye(size)
    rhs = np.zeros(size)
    for i in range(n):
        for j in range(n):
            w_pi = W0[i, j]
            w_co = WL[i, j]
            wcol = np.where(pi_mask, w_pi, w_co)
            if w_pi == 0.0 and w_co == 0.0:
                continue
            A[i * B:(i + 1) * B, j * B:(j + 1) * B] -= wcol[:, None] * blocks[j]
            rhs[i * B:(i + 1) * B] += wcol * Fvec[j]
    sol = np.linalg.solve(A, rhs).reshape(n, 5, K)
    return sol[:, 0, :], sol[:, 3, :]


def per_mode_poisson(f0) -> np.ndarray:
    """Dirichlet modes of ``-laplace(phi) = f0``, one ``solve_banded`` per mode.

    The tridiagonal scheme of ``mixed_solver.poisson_solve_phi``: central
    differences, a mirror ghost node at the inlet and a Dirichlet exit row.
    """
    grid = f0.grid
    n, h = grid.n_x1, grid.h1
    out = np.zeros_like(f0.modes)
    for k in range(grid.n_dir):
        ab = np.zeros((3, n))
        rhs = f0.modes[:, k].copy()
        ab[1, :] = 2.0 / h ** 2 + f0.family.freq[k] ** 2
        ab[0, 1:] = -1.0 / h ** 2
        ab[2, :-1] = -1.0 / h ** 2
        ab[0, 1] = -2.0 / h ** 2
        ab[1, n - 1] = 1.0
        ab[2, n - 2] = 0.0
        rhs[n - 1] = 0.0
        out[:, k] = solve_banded((1, 1), ab, rhs)
    return out


def m_dot_grad(field, m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Advective residual ``m . grad(field)`` (spectral in x2, central in x1)."""
    return m1 * field.d1() + m2 * field.d2()


def divergence_residual(m1: np.ndarray, m2: np.ndarray, grid) -> np.ndarray:
    """``D1 m1 + d2 m2``: the package's central difference in x1, its parity-split derivative in x2."""
    return grid.D1 @ m1 + grid_d2_parity_split(m2, grid)


def trace_streamlines(sf, x2_starts, n_steps: int = 400):
    """RK4 streamline tracing through the stream field of a ``StreamFunction``.

    Integrates ``dx2/dx1 = -d1(theta)/d2(theta)`` with the flux potential
    represented by a bicubic spline, so the traced paths conserve the
    spline potential to RK4/interpolation accuracy; entropy transported by
    the Lagrangian map must then be constant along the traced paths.

    Returns ``(x1 samples, (n_paths, n_steps + 1) array of x2 positions)``.
    """
    grid = sf.grid
    spline = RectBivariateSpline(grid.x1, grid.x2, sf.theta, kx=3, ky=3)

    xs = np.linspace(grid.x1[0], grid.x1[-1], n_steps + 1)
    h = xs[1] - xs[0]
    out = np.empty((len(x2_starts), n_steps + 1))
    y = np.array(x2_starts, dtype=float)
    out[:, 0] = y

    def slope(x, yv):
        yv = np.clip(yv, -1.0, 1.0)
        num = spline(np.full_like(yv, x), yv, dx=1, grid=False)
        den = spline(np.full_like(yv, x), yv, dy=1, grid=False)
        return -num / den

    for i in range(n_steps):
        x = xs[i]
        k1 = slope(x, y)
        k2 = slope(x + h / 2, y + h / 2 * k1)
        k3 = slope(x + h / 2, y + h / 2 * k2)
        k4 = slope(x + h, y + h * k3)
        y = np.clip(y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4), -1.0, 1.0)
        out[:, i + 1] = y
    return xs, out


def dense_box_system(coeffs, f1, f2, eps: float):
    """Dense box matrix and right-hand side of ``mixed_solver.ModeSystem`` in its row order.

    Built from the first-order form ``X' = A(x1) X + F`` (``node_block``):
    each cell row is ``X(i+1) - X(i) - h/2 (A_i X(i) + A_(i+1) X(i+1)) =
    h/2 (F(i) + F(i+1))``, its dynamic row 1 scaled by ``eps``.  Mode ``k``
    owns rows ``k 5n ..``: the inlet rows ``X1, X5, X2 = 0``, the cell rows,
    the ``X_blk'`` equation of cell ``i`` in row ``5 + 5i + (-2, -1, 0, 2, 1)[blk]``
    (a cell's ``X1', X2', X3', X5', X4'`` in turn), then the exit rows
    ``X3, X4 = 0``; unknown ``X_blk`` of mode ``k`` at station ``i`` is
    column ``k 5n + 5i + blk``.
    """
    system = galerkin_data(coeffs, f1, f2)
    g = system.grid
    n, K, h = g.n_x1, system.K, g.h1
    N = 5 * n
    A = np.zeros((K * N, K * N))
    rhs = np.zeros(K * N)
    Fvec = np.zeros((n, 5 * K))
    Fvec[:, 2 * K:3 * K] = system.F1 / eps
    Fvec[:, 4 * K:5 * K] = system.F2
    scale = np.repeat([1.0, 1.0, eps, 1.0, 1.0], K)
    # station-0 column and cell-0 row of each (blk, k) slot of node_block
    slot = np.array([k * N + blk for blk in range(5) for k in range(K)])
    row = np.array([k * N + 5 + offset for offset in (-2, -1, 0, 2, 1) for k in range(K)])
    eye = np.eye(5 * K)
    for i in range(n - 1):
        rows = row + 5 * i
        A[np.ix_(rows, slot + 5 * i)] = scale[:, None] * (-eye - h / 2 * node_block(system, i, eps))
        A[np.ix_(rows, slot + 5 * i + 5)] = scale[:, None] * (eye - h / 2 * node_block(system, i + 1, eps))
        rhs[rows] = scale * h / 2 * (Fvec[i] + Fvec[i + 1])
    # the boundary rows X_blk = 0: the inlet-anchored X1, X2, X5 at station 0 in rows 0, 2, 1,
    # the rest at station n - 1 in the last two rows
    inlet, exit_ = np.flatnonzero(INLET_ANCHORED), N - 5 + np.flatnonzero(~INLET_ANCHORED)
    for r, c in zip(np.r_[0, 2, 1, N - len(exit_):N], np.r_[inlet, exit_]):
        A[N * np.arange(K) + r, N * np.arange(K) + c] = 1.0
    return A, rhs


def lil_d1_matrix(n: int, h: float) -> sp.csr_matrix:
    """First-derivative matrix filled row by row in LIL form, then converted."""
    D = sp.lil_matrix((n, n))
    for i in range(1, n - 1):
        D[i, i - 1], D[i, i + 1] = -0.5 / h, 0.5 / h
    D[0, 0], D[0, 1], D[0, 2] = -1.5 / h, 2.0 / h, -0.5 / h
    D[n - 1, n - 1], D[n - 1, n - 2], D[n - 1, n - 3] = 1.5 / h, -2.0 / h, 0.5 / h
    return D.tocsr()


def lil_d2_matrix(n: int, h: float) -> sp.csr_matrix:
    """Second-derivative matrix filled row by row in LIL form, then converted."""
    D = sp.lil_matrix((n, n))
    for i in range(1, n - 1):
        D[i, i - 1], D[i, i], D[i, i + 1] = 1.0 / h ** 2, -2.0 / h ** 2, 1.0 / h ** 2
    D[0, 0], D[0, 1], D[0, 2], D[0, 3] = 2 / h ** 2, -5 / h ** 2, 4 / h ** 2, -1 / h ** 2
    D[n - 1, n - 1], D[n - 1, n - 2], D[n - 1, n - 3], D[n - 1, n - 4] = (
        2 / h ** 2, -5 / h ** 2, 4 / h ** 2, -1 / h ** 2,
    )
    return D.tocsr()


def per_value_csv(header: str, rows) -> str:
    """CSV text with every value formatted on its own as ``f"{v:.17g}"``."""
    return header + "\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)


def per_line_sonic_roots(x1, det, xtol: float) -> np.ndarray:
    """Root of each column of ``det`` by Brent's method on its own PCHIP
    interpolant, bracketed by the column's single ``+ -> -`` sign change."""
    roots = []
    for col in det.T:
        i = np.nonzero((col[:-1] > 0) & (col[1:] < 0))[0][0]
        roots.append(brentq(PchipInterpolator(x1, col), x1[i], x1[i + 1], xtol=xtol, rtol=8.9e-16))
    return np.array(roots)


def unique_window_grid(kappa0: float, kappaL: float) -> np.ndarray:
    """The regime scan grid of ``regimes._window_grid``, merged by ``np.unique``."""
    n = max(9, int(np.ceil((kappaL - kappa0) / KAPPA_RESOLUTION)) + 1)
    base = np.linspace(kappa0, kappaL, n)
    fine = (kappaL - kappa0) / (n - 1) / ENDPOINT_REFINE
    edges = np.concatenate(
        [kappa0 + fine * np.arange(ENDPOINT_REFINE + 1), kappaL - fine * np.arange(ENDPOINT_REFINE + 1)]
    )
    return np.unique(np.concatenate([base, edges]))
