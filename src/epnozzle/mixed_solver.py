"""Linearized solve: rotational Poisson problem and the degenerate mixed-type system.

One linearized step of the coupled iteration solves, for a
``CoefficientSet`` frozen at an iterate (assembled by the caller),

* ``-laplace(phi) = f3`` for the rotational potential (Neumann inlet,
  zero walls and exit), reduced to mode-diagonal two-point problems in the
  dirichlet family and solved together by one tridiagonal LAPACK call, and
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
continuation relies on.  The box scheme stays bounded down to about
``0.6 h^2`` and leaves the continuum family below ``0.5 h^2`` (README,
numerical notes), so the schedule is floored at ``eps >= h^2``.

The box system is numbered mode-major and solved at each ``eps`` by GMRES
(Saad & Schultz 1986) on the full operator, right-preconditioned by an
exact LU of its wall-mean part (the operator of the coefficients' w2-means
across the channel): K independent box systems, one per cosine mode.  A
mode's 5n rows are the five slots of its row stations
0..n: the inlet station holds the rows of ``Pi``'s components at node 0,
each cell station its cell's box equations and the exit station the rows
of the complement at node n - 1; rows ordered by slot 2, 4, 3 | 0, 1 (``ROW``)
make each mode block banded with 5 sub- and 4 super-diagonals.  All rows
are sums of the terms of one table, the
boundary rows generated from ``Pi`` and ``eps`` in the viscous terms: per
``eps`` it is scattered into one Fortran-order band, factored in place by
a single LAPACK ``dgbtrf``, and the matrix-free operator sums it into the
row stations, which also place the right-hand side and the coupling ``C``
of the coefficients less their means, the only path by which modes couple
(transform method, Orszag 1970, from their O(sigma) wall variation;
GMRES closes in 3 to 5 steps on the canonical solve's later iterates,
whose Arnoldi products need the ``C`` product only).  On a wall-uniform
coefficient set (the first outer iterate) the modes decouple exactly: the
system carries only its forced modes, builds no coupling and GMRES closes
after one step.  A solve starts from the previous outer iterate's solution
at its viscosity, if there is one; whatever its start, every solve stops
at ``|b - A x| <= GMRES_RTOL |b|`` and raises rather than return an
iterate whose residual exceeds ``LINEAR_RESIDUAL_MAX |b|``.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import replace
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec
from typing import NamedTuple

import numpy as np

from .coefficients import CoefficientSet
from .errors import InputError, NonConvergenceError
from .fields import Field2D
from .options import SolverOptions


def _scipy_linalg_extension(name: str):
    """The compiled ``scipy.linalg.<name>``, found in scipy's ``linalg`` folder and registered under that
    name: the package would run ``scipy._lib._util`` (0.17 s for a fresh process) and even ``scipy``
    its ``__init__`` (``subprocess``, test utilities).  A later ``import scipy.linalg`` reuses the module."""
    qualified = f"scipy.linalg.{name}"
    if qualified not in sys.modules:
        folder = os.path.join(find_spec("scipy").submodule_search_locations[0], "linalg")
        spec = PathFinder.find_spec(qualified, [folder])
        if spec is None:
            raise ImportError(f"no compiled {qualified} in {folder}")
        sys.modules[qualified] = module = module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[qualified]


lapack = _scipy_linalg_extension("_flapack")   # the f2py wrappers that scipy.linalg.lapack re-exports

WARM_START_OCTAVES = 2          # later outer iterates start their schedule 2**2 above the last stop

LINEAR_RESIDUAL_MAX = 1e-10     # bound on |b - A x| / |b| of every box solve
FORCED_MODE_ROUNDOFF = 1024     # projection roundoff, in ulps of its magnitude sum (ModeSystem)
GMRES_RESTART = 30
GMRES_CYCLES = 3
GMRES_RTOL = 1e-12
BAND_L, BAND_U = 5, 4           # sub-/super-diagonals of each mode's box system
ROW = (-2, -1, 0, 2, 1)         # slot p of row station j is row 5j + ROW[p] of its mode (_mode_rows)
PI = np.array([True, True, False, False, True])  # projection Pi: inlet-anchored (X1, X2, X5)
COUPLED_BLOCKS = (1, 1, 2, 4, 3)  # the X_blk that 2 a12 d2, a, a11, b1, b0 act on in the X3' rows
INLET, CELLS, EXIT = slice(0, 1), slice(1, -1), slice(-1, None)  # row stations of a mode (ModeSystem)

splu = None  # unused: perfbench/spans.py binds its factor span here until ROADMAP item 1


# ---------------------------------------------------------------------------
# Rotational Poisson problem
# ---------------------------------------------------------------------------

def poisson_solve_phi(f0: Field2D) -> Field2D:
    """Solve ``-laplace(phi) = f0`` with d1(phi)=0 inlet, phi=0 on walls and exit.

    Per dirichlet mode ``sin(k pi (x2+1)/2)`` this is the two-point problem
    ``-phi_k'' + mu_k phi_k = f_k`` with ``mu_k = (k pi / 2)^2``, discretized
    by a second-order tridiagonal scheme (mirror ghost node at the inlet).
    One ``dgtsv`` solves all modes stacked mode-major with zero couplings,
    which eliminates each block exactly as its own solve would.
    """
    if f0.parity != "dirichlet":
        raise InputError("Poisson forcing must carry dirichlet parity")
    grid = f0.grid
    n, K, h2 = grid.n_x1, grid.n_dir, grid.h1 ** 2
    diag = np.tile(2.0 / h2 + f0.family.freq[:, None] ** 2, n)
    diag[:, -1] = 1.0                   # exit Dirichlet row
    upper = np.full((K, n), -1.0 / h2)
    upper[:, 0] = -2.0 / h2             # inlet mirror ghost: phi(-h) = phi(h)
    upper[:, -1] = 0.0                  # no coupling to the next mode
    lower = np.full((K, n), -1.0 / h2)
    lower[:, -2:] = 0.0                 # exit row, then no coupling to the next mode
    rhs = f0.modes.T.copy()
    rhs[:, -1] = 0.0
    phi = lapack.dgtsv(lower.ravel()[:-1], diag.ravel(), upper.ravel()[:-1], rhs.ravel())[3]
    return Field2D("dirichlet", phi.reshape(K, n).T, grid)


# ---------------------------------------------------------------------------
# Boundary-data lift
# ---------------------------------------------------------------------------

def lift_boundary_data(bdata, coeffs: CoefficientSet):
    """Homogenize the inlet data of the mixed-type pair.

    With ``lift_psi(x2) = integral_{-1}^{x2} w_en`` and
    ``lift_Psi = (x1 - L)(E_en - E0)`` the shifted unknowns satisfy zero
    inlet data, and the right-hand sides become
    ``f1* = f1 - L1(lift_psi, lift_Psi)``, ``f2* = f2 - L2(...)``; both
    lift images are evaluated analytically (the lifts are a pure-x2
    profile and a linear-in-x1 profile).

    Returns ``(f1_star, f2_star, lift_psi, lift_Psi)`` with the forcings
    as grid fields and the lifts as cosine fields.
    """
    grid = coeffs.grid
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

def _mode_rows(rows: np.ndarray) -> np.ndarray:
    """A ``(5, n + 1, K)`` row array as the ``(K, 5n)`` mode rows: slot p of station j is row 5j + ROW[p]."""
    out = np.empty((rows.shape[2], rows.shape[1] - 1, 5))   # rows 5i + 0..4: slots 2, 4, 3 of i, 0, 1 of i + 1
    for p, row in enumerate(ROW):
        out[:, :, row % 5] = (rows[p, 1:] if row < 0 else rows[p, :-1]).T
    return out.reshape(len(out), -1)


def _nodes(stations: slice, side: int, n: int) -> slice:
    """The nodes, among ``n``, that the row ``stations`` read on ``side``: station ``j`` reads ``j - 1 + side``."""
    return slice(*(j - 1 + side for j in stations.indices(n + 1)[:2]))


class BandLU(NamedTuple):
    """``dgbtrf`` factors of the wall-mean band and their row pivots."""

    lu: np.ndarray
    piv: np.ndarray

    def solve(self, b: np.ndarray) -> np.ndarray:
        return lapack.dgbtrs(self.lu, BAND_L, BAND_U, b, self.piv)[0]


def _gmres(apply, precond, coupling, b: np.ndarray, x0: np.ndarray | None = None):
    """Restarted GMRES (Saad & Schultz 1986), right-preconditioned, from ``x0``
    if ``|b - A x0| < |b|``, else from ``x = 0``.

    ``precond`` applies ``M^-1`` for an ``M`` inverted exactly and
    ``coupling`` applies ``C = A - M``, so that ``A M^-1 v = v + C M^-1 v``;
    ``coupling=None`` means ``M = A``: the Krylov space is invariant after
    one step, which makes no coupling product.  ``apply`` (the full ``A``)
    is used only for the start check and the residual that closes each
    cycle.  A cycle runs at most ``GMRES_RESTART`` modified Gram-Schmidt
    Arnoldi steps on ``A M^-1``, each one ``precond`` and one ``coupling``,
    keeps ``Z_j = M^-1 v_j`` for ``x += Z y`` (summed in place in ``Z_0``), makes
    each new Hessenberg column triangular by a Givens rotation and ends early once
    the rotated residual ``|g_(j+1)| = |b - A x|`` is at most ``GMRES_RTOL |b|``;
    the iteration stops after ``GMRES_CYCLES`` cycles or once the recomputed
    ``|b - A x| <= GMRES_RTOL |b|``.  No vector is held twice, and the basis is
    released before the closing product.  Neither ``b`` nor ``x0`` is written, and
    ``x0`` is returned as it is if it meets the bound.  Returns ``(x, |b - A x|, iterations)``.
    """
    x, r, iterations = np.zeros_like(b), b, 0
    residual = b_norm = np.linalg.norm(b)
    if x0 is not None:
        r0 = apply(x0)
        if np.linalg.norm(np.subtract(b, r0, out=r0)) < b_norm:
            x, r, residual = x0, r0, np.linalg.norm(r0)
        del r0
    for _ in range(GMRES_CYCLES):
        if residual <= GMRES_RTOL * b_norm:
            break
        g = np.zeros(GMRES_RESTART + 1)
        g[0] = residual
        V, Z, H, G = [r / residual], [], np.zeros((GMRES_RESTART + 1, GMRES_RESTART)), []
        del r
        for j in range(GMRES_RESTART):
            Z.append(precond(V[j]))
            if coupling is not None:
                w = coupling(Z[j])
                w += V[j]
            else:
                w = V[j].copy()
            w_norm = np.linalg.norm(w)
            for i, v in enumerate(V):
                H[i, j] = v @ w
                w -= H[i, j] * v
            H[j + 1, j] = np.linalg.norm(w)
            iterations += 1
            for i in range(j):   # the earlier rotations, then the one that zeroes H[j + 1, j] below H[j, j]
                H[i:i + 2, j] = G[i] @ H[i:i + 2, j]
            G.append(np.array([[H[j, j], H[j + 1, j]], [-H[j + 1, j], H[j, j]]]) / math.hypot(H[j, j], H[j + 1, j]))
            H[j, j], g[j:j + 2] = G[j][0] @ H[j:j + 2, j], G[j] @ g[j:j + 2]   # H[j + 1, j] kept for the basis
            if abs(g[j + 1]) <= GMRES_RTOL * b_norm or H[j + 1, j] <= np.finfo(float).eps * w_norm:  # or invariant
                break
            w /= H[j + 1, j]
            V.append(w)
        del V, v, w
        for i in range(j, -1, -1):   # back-substitute y in place of g[:j + 1]
            g[i] = (g[i] - H[i, i + 1:j + 1] @ g[i + 1:j + 1]) / H[i, i]
        update = np.multiply(g[0], Z[0], out=Z[0])   # Z is not read again
        for i in range(1, len(Z)):
            update += g[i] * Z[i]
        del Z
        x = np.add(update, x, out=update)
        r = apply(x)
        np.subtract(b, r, out=r)
        residual = np.linalg.norm(r)
    return x, residual, iterations


class ModeSystem:
    """Galerkin truncation of the viscous mixed-type pair as a box system.

    Holds only what a box solve reads: the grid, the carried cosine modes
    ``modes`` (``K`` of them), the ``eps``-free ``terms`` of all their rows
    (:meth:`_rows`; no band), their right-hand side ``rhs``, the norm
    ``rhs_dropped`` of the right-hand side of the modes it does not carry,
    ``forced``, whether it carries any, and ``coupled``: the fields ``a12,
    a, a11, b1, b0`` (by reference) and their w2-means that :meth:`coupling`
    reads, or ``None``.  No array it holds grows like ``K^2`` per station.
    Solutions span every mode, with zeros in those it does not carry.

    The terms hold the operator of the w2-means ``<c>`` across the channel,
    whose Galerkin blocks are ``<c> Id`` (``<a12>``'s is zero: ``<2 eta_k',
    eta_k> = 0``), as ``(n, 1)`` columns for every mode; :meth:`coupling`
    applies the whole Galerkin product of ``c - <c>``, its mode diagonal
    included, so that the two sum to the full operator.

    A set whose coefficients couple the modes (any of ``a11, a12, a, b1,
    b0`` varies along x2) carries every mode if its projected forcing is
    nonzero.  On a wall-uniform set, such as the background state of the
    first outer iterate, the Galerkin blocks are exactly mode-diagonal and
    the mode problems decouple: each mode's solution is its own forcing's.
    There the system carries only the modes whose forcing
    ``max_i (|F1| + |F2|)`` exceeds the roundoff of its own projection,
    ``FORCED_MODE_ROUNDOFF`` machine epsilons of
    ``max_i ((|f1| + |f2|) w2) @ |eta_k|``, and builds no coupling.  A set
    with no carried mode builds no terms.

    The constant bounds the roundoff the assembled forcings carry in modes
    they do not drive: 220 to 830 ulps of that magnitude sum on the first
    iterates of ``fixed_point_solve`` in the test suite, at most 30 for
    forcings built from boundary data alone.  The smallest driven mode of the
    canonical first iterate (mode 4, 4e-13 of mode 1) measures 1610.  A
    dropped mode's solution is the response to a forcing below that
    roundoff, so dropping it moves the iterate by no more than the roundoff
    already in the forcing (canonical fields: at most 5e-15 of their sup).
    """

    def __init__(self, coeffs: CoefficientSet, f1_grid: np.ndarray, f2_grid: np.ndarray):
        self.grid = grid = coeffs.grid
        cos, w2 = grid.families["cosine"], grid.w2
        eta, eta_d = cos.value / np.sqrt(cos.norm), cos.d2 / np.sqrt(cos.norm)   # orthonormal Galerkin basis
        F1, F2 = (f1_grid * w2) @ eta, (f2_grid * w2) @ eta
        fields = (coeffs.a12, coeffs.a, coeffs.a11, coeffs.b1, coeffs.b0)
        wall_uniform = not any(np.any(np.ptp(c, axis=1)) for c in fields)
        if wall_uniform:
            magnitude = ((np.abs(f1_grid) + np.abs(f2_grid)) * w2) @ np.abs(eta)
            bound = FORCED_MODE_ROUNDOFF * np.finfo(float).eps * np.max(magnitude, axis=0)
            self.modes = np.flatnonzero(np.max(np.abs(F1) + np.abs(F2), axis=0) > bound)
        else:
            self.modes = np.arange(grid.n_cos if np.any(F1) or np.any(F2) else 0)
        self.K = K = len(self.modes)
        self.forced = K > 0
        n, half = grid.n_x1, grid.h1 / 2.0
        rows = np.zeros((5, n + 1, grid.n_cos))
        rows[2, CELLS], rows[4, CELLS] = (half * (F[:-1] + F[1:]) for F in (F1, F2))
        rhs = _mode_rows(rows)
        self.rhs = rhs[self.modes].ravel()
        self.rhs_dropped = np.linalg.norm(np.delete(rhs, self.modes, axis=0))
        self.coupled = None
        if not self.forced:
            return
        means = [(c @ w2)[:, None] / np.sum(w2) for c in fields]
        lam, c0, c1 = cos.freq[self.modes] ** 2, coeffs.c0[:, None], coeffs.c1[:, None]   # d22: -lam_k
        # node-valued coefficients, (n, K) or (n, 1), of the two trapezoid ends of dynamic row 1,
        # trap(<a11> X3 + <a> X2 + <b1> X5 + <b0> X4), and of row 2, X5' - trap((lam + c0) X4 + c1 X2)
        nodal = [(2, blk, half * mean) for blk, mean in zip(COUPLED_BLOCKS[1:], means[1:])]
        nodal += [(4, 3, -half * (lam + c0)), (4, 1, -half * c1)]
        self.terms = []
        for side, sign in ((0, -1.0), (1, 1.0)):
            for dst, src in ((0, 1), (1, 2), (3, 4)):   # kinematic X1' = X2, X2' = X3, X4' = X5
                self.terms += [(dst, dst, side, sign, CELLS), (dst, src, side, -half, CELLS)]
            self.terms += [(p, blk, side, c[_nodes(CELLS, side, n)], CELLS) for p, blk, c in nodal]
            self.terms += [(2, 0, side, -half * lam, CELLS), (4, 4, side, sign, CELLS)]
        self.terms += [(p, blk, 1, 1.0, INLET) for p, blk in zip(range(2, 5), np.flatnonzero(PI))]  # node 0
        self.terms += [(p, blk, 0, 1.0, EXIT) for p, blk in zip(range(2), np.flatnonzero(~PI))]  # node n - 1
        self.terms.sort(key=lambda term: term[1:3])   # the band scatter then walks its columns in order
        if not wall_uniform:
            # the coupling reads the wall-varying parts c - <c>, every mode being carried
            self.coupled, self.bases = list(zip(fields, means)), (2.0 * eta_d, eta, eta, eta, eta)

    def _rows(self, eps: float):
        """The box rows at ``eps``, read by :meth:`_assemble_banded` and :meth:`operator`.

        Terms ``(p, blk, side, coefficient, stations)``, one per ``(p, blk, side, stations)``: slot ``p`` of
        each row station ``j`` of ``INLET``, ``CELLS`` or ``EXIT`` (:func:`_mode_rows`) on ``X_blk`` at node
        ``j - 1 + side``, the coefficient broadcasting against ``(len(stations), K)``.  The inlet slots 2..4
        and exit slots 0, 1 are the rows ``X_blk = 0`` of ``PI``'s components at node 0 and of the rest at
        node n - 1.  The viscous ``eps (X3(j) - X3(j - 1))`` adds to the X3 terms of the X3' row.
        """
        return [(p, blk, side, c + (2 * side - 1) * eps if p == blk == 2 else c, j)
                for p, blk, side, c, j in self.terms]

    def _assemble_banded(self, eps: float) -> np.ndarray:
        """The wall-mean part of the box operator at ``eps``, scattered from :meth:`_rows`.

        Unknown ``X_blk`` of the ``k``-th carried mode at node ``i`` is column ``k 5n + 5i + blk``, so a
        term of slot ``p`` on ``side`` lies ``5 + ROW[p] - 5 side - blk`` below the diagonal: each mode block
        has ``l = 5``, ``u = 4``, all K one band of order ``5nK``.  Returns it in the Fortran-order ``dgbtrf``
        layout, ``BAND_L`` fill rows first (``A[r, c]`` at ``ab[l + u + r - c, c]``), ready to factor in place.
        """
        n, K = self.grid.n_x1, self.K
        top = BAND_L + BAND_U                   # ab row of the main diagonal
        ab = np.zeros((K, 5 * n, top + BAND_L + 1)).transpose(2, 0, 1)  # Fortran order once flattened
        for p, blk, side, coef, j in self._rows(eps):
            nodes = _nodes(j, side, n)
            ab[top + 5 + ROW[p] - 5 * side - blk].T[5 * nodes.start + blk:5 * nodes.stop:5] = coef
        return ab.reshape(-1, K * 5 * n)

    def _off_mode(self, x: np.ndarray) -> np.ndarray:
        """The coupling part of ``A x`` on the X3' rows of ``CELLS``, ``(n - 1, K)``: X2..X5 (and 2 X2')
        synthesized on the nodes, times the wall-varying part of their coefficients, projected on ``w2 eta``
        (its mode diagonal included), then the trapezoid over the cells."""
        X, eta = x.reshape(self.K, -1, 5), self.bases[1]
        product = np.zeros((X.shape[1], eta.shape[0]))
        for blk, (c, mean), B in zip(COUPLED_BLOCKS, self.coupled, self.bases):
            term = c - mean
            term *= X[:, :, blk].T @ B.T
            product += term
        z = product @ (self.grid.w2[:, None] * eta)
        return (self.grid.h1 / 2.0) * (z[:-1] + z[1:])

    def coupling(self, x: np.ndarray) -> np.ndarray:
        """Coupling part ``C x`` of the box operator, from the wall-varying coefficients (zero off the X3' rows)."""
        # the product first, so that its temporaries are gone when ``out`` is allocated
        off = self._off_mode(x).T if self.coupled is not None else 0.0
        out = np.zeros((self.K, self.grid.n_x1, 5))
        out[:, 1:, 0] = off
        return out.ravel()

    def operator(self, eps: float):
        """Matrix-free ``x -> A x`` at ``eps``: the terms of :meth:`_rows` summed into the
        ``(5, n + 1, K)`` row array, then the coupling, if any, on the X3' rows."""
        K, n = self.K, self.grid.n_x1
        terms = [(p, blk, coef, j, _nodes(j, side, n)) for p, blk, side, coef, j in self._rows(eps)]

        def apply(x):
            X = x.reshape(K, n, 5).transpose(2, 1, 0).copy()   # (5, n, K): each term's block contiguous
            rows, product = np.zeros((5, n + 1, K)), np.empty((n + 1, K))
            for p, blk, coef, j, nodes in terms:
                rows[p, j] += np.multiply(coef, X[blk, nodes], out=product[j])
            if self.coupled is not None:
                rows[2, CELLS] += self._off_mode(x)
            return _mode_rows(rows).ravel()

        return apply

    def factor(self, eps: float) -> BandLU:
        """Band LU of the wall-mean part at ``eps``: :meth:`_assemble_banded`
        factored in place by ``dgbtrf``, with no copy.

        Raises ``NonConvergenceError`` if the band is singular.
        """
        lu, piv, info = lapack.dgbtrf(self._assemble_banded(eps), BAND_L, BAND_U, overwrite_ab=1)
        if info > 0:
            raise NonConvergenceError(
                f"singular linear system at eps={eps}, m={self.grid.m}: zero pivot in column {info}"
            )
        return BandLU(lu, piv)

    def solve_banded(self, eps: float, starts: dict | None = None):
        """Solve the production box system at viscosity ``eps``.

        Runs GMRES(``GMRES_RESTART``) for at most ``GMRES_CYCLES`` restart
        cycles on the matrix-free :meth:`operator` of the carried modes,
        right-preconditioned by the LU of its wall-mean part
        (:meth:`factor`), from ``starts[eps]`` if that is closer than zero;
        the solution replaces it.  Starts and solutions span every mode,
        with zeros in the modes the system does not carry.  An unforced
        system solves nothing and returns zeros.

        Returns the mode arrays ``(X1, X4)`` of the potential perturbations.

        Raises
        ------
        NonConvergenceError
            If the preconditioner is singular, or if the relative residual
            ``|b - A x| / |b|`` of the full system exceeds
            ``LINEAR_RESIDUAL_MAX``: the right-hand side of the modes not
            carried is part of that residual.
        """
        g = self.grid
        if not self.forced:
            full = np.zeros((g.n_cos, g.n_x1, 5))
            return full[:, :, 0].T, full[:, :, 3].T
        if (x0 := (starts or {}).get(eps)) is not None and self.K < g.n_cos:   # all modes: read in place
            x0 = x0.reshape(g.n_cos, -1)[self.modes].ravel()
        sol, residual, iterations = _gmres(self.operator(eps), self.factor(eps).solve,
                                           self.coupling if self.coupled else None, self.rhs, x0)
        residual = np.hypot(residual, self.rhs_dropped)
        b_norm = np.hypot(np.linalg.norm(self.rhs), self.rhs_dropped)
        if not residual <= LINEAR_RESIDUAL_MAX * b_norm:
            raise NonConvergenceError(
                f"GMRES missed the residual bound at eps={eps}, m={g.m}: "
                f"|b - A x|/|b| = {residual / b_norm:.3e} > {LINEAR_RESIDUAL_MAX:.0e} "
                f"after {iterations} iterations"
            )
        if starts is not None:
            starts.pop(eps, None)   # the start this solution replaces, freed before ``full`` is made
        del x0
        full = np.zeros((g.n_cos, g.n_x1, 5))
        full[self.modes] = sol.reshape(self.K, g.n_x1, 5)
        if starts is not None:
            starts[eps] = full.ravel()
        return full[:, :, 0].T, full[:, :, 3].T

    def to_fields(self, theta: np.ndarray, Theta: np.ndarray):
        """Convert orthonormal-basis Galerkin coefficients to cosine fields."""
        scale = 1.0 / np.sqrt(self.grid.families["cosine"].norm)
        return tuple(Field2D("cosine", c * scale, self.grid) for c in (theta, Theta))


def energy_sign_audit(coeffs: CoefficientSet) -> bool:
    """Check the discrete acceleration-sign conditions before a linear solve.

    The wall-averaged profiles must satisfy ``-2 a - (2m - 1) d1 a11 > 0``
    at every station for m = 0, 1 whenever L < l_max; warns (does not
    fail) when a perturbed coefficient set violates it.  A NaN in either
    profile fails the audit.
    """
    g = coeffs.grid
    abar = (coeffs.a @ g.w2) / 2.0
    a11bar = (coeffs.a11 @ g.w2) / 2.0
    da11 = g.D1 @ a11bar
    ok = all(np.min(-2.0 * abar - (2 * mm - 1) * da11) > 0 for mm in (0, 1))
    if not ok:
        warnings.warn("energy-sign audit failed: -2a - (2m-1) d1(a11) not positive", stacklevel=2)
    return ok


def vanishing_viscosity(
    coeffs: CoefficientSet,
    f1_grid: np.ndarray,
    f2_grid: np.ndarray,
    eps0: float = SolverOptions.eps0,
    tol_eps: float = SolverOptions.tol_eps,
    cap: int = SolverOptions.eps_cap,
    trace_sink=None,
    *,
    warm: dict | None = None,
):
    """Continue the viscous solves along ``eps_k = eps0 2^-k`` to the limit, in one walk.

    Stops when the discrete-H1 difference of consecutive solutions falls
    below ``tol_eps``, the schedule cap ``k = cap`` is reached, or the next
    viscosity would drop below the resolution floor ``h1^2``.  Below about
    ``0.5 h1^2`` the discrete problem leaves the continuum family (the
    limit problem sheds two boundary conditions whose eps-layers the grid
    can no longer carry; see the module notes).  The difference trace must
    become decreasing (five consecutive non-decreasing steps raise
    ``NonConvergenceError``) and the viscous energy
    ``sqrt(eps)|d11 v| + |v|_H1 + |w|_H1`` may not exceed 1e3 times that
    of the walk's first solve.  Trace entries carry the absolute index
    ``k``; ``trace_sink`` receives each as it is made.

    ``warm`` (one dict per outer fixed point) maps a viscosity to the box
    solution the previous walk kept there.  The walk starts
    ``WARM_START_OCTAVES`` halvings (the fewest that give the two
    differences the decrease check reads) above the smallest kept
    viscosity, the last stop, but not above ``eps0`` nor below
    ``eps0 2^-cap``; with nothing kept, at ``eps0``.  A box solve at a kept viscosity starts GMRES from
    that solution, never from another viscosity's, and stops on the same
    residual bounds as from zero.  So the result agrees with the full
    schedule's to the solve tolerance if that would stop below the start,
    and is more resolved if it would stop earlier.  Each solution replaces
    the kept one at its viscosity and is dropped once no later start can
    revisit it; on return ``warm`` holds the next walk's starts, down to
    this one's stop.

    Returns ``(v, w, trace)``.

    Raises
    ------
    InputError
        On a schedule that ``options.SolverOptions`` rejects (``cap`` is its
        ``eps_cap``), whatever the forcing.
    """
    SolverOptions(eps0=eps0, tol_eps=tol_eps, eps_cap=cap)
    grid = coeffs.grid
    system = ModeSystem(coeffs, f1_grid, f2_grid)
    if not system.forced:
        return Field2D.zeros("cosine", grid), Field2D.zeros("cosine", grid), []
    energy_sign_audit(coeffs)
    starts = {} if warm is None else warm
    k_first = min(max(round(math.log2(eps0 / min(starts))) - WARM_START_OCTAVES, 0), cap) if starts else 0
    trace, v, w = [], None, None
    for k in range(k_first, cap + 1):
        eps = eps0 * 0.5 ** k
        if k > k_first and eps < grid.h1 ** 2:
            break
        prev, (v, w) = (v, w), system.to_fields(*system.solve_banded(eps, starts))
        starts.pop(eps * 2.0 ** (WARM_START_OCTAVES + 1), None)  # no later start revisits it
        stop = eps
        energy = np.sqrt(eps) * v.d11_norm() + v.h1_norm() + w.h1_norm()
        if k == k_first:
            energy_top = max(energy, 1e-300)
            continue
        if energy > 1e3 * energy_top:
            raise NonConvergenceError(f"viscous energy blow-up at eps={eps}: {energy:.3e} "
                                      f"vs {energy_top:.3e} at eps={eps0 * 0.5 ** k_first}")
        dv, dw = v - prev[0], w - prev[1]
        diff = float(np.sqrt(dv.h1_norm() ** 2 + dw.h1_norm() ** 2))
        sup = float(max(np.max(np.abs(dv.values())), np.max(np.abs(dw.values()))))
        trace.append({"epsilon": eps, "h1_diff": diff, "sup_diff": sup, "k": k})
        if trace_sink is not None:
            trace_sink(trace[-1])
        tail = [t["h1_diff"] for t in trace[-6:]]
        if len(tail) == 6 and all(tail[i + 1] >= tail[i] for i in range(5)):
            raise NonConvergenceError("eps-continuation trace non-decreasing over 5 consecutive steps")
        if diff <= tol_eps:
            break
    for eps in [eps for eps in starts if eps < stop]:   # a deeper walk's, below this stop
        del starts[eps]
    return v, w, trace


def solve_linear_problem(
    coeffs: CoefficientSet,
    bdata,
    options: SolverOptions = SolverOptions(),
    trace_sink=None,
    *,
    warm: dict | None = None,
):
    """One full linearized sweep for the coefficients ``coeffs`` frozen at an iterate.

    Solves the rotational Poisson problem for the new ``phi``, lifts the
    boundary data, continues the viscous mixed-type solves to the limit in
    one walk of :func:`vanishing_viscosity` (whose ``trace_sink`` receives
    the eps-trace) on the schedule ``options.eps0``, ``tol_eps`` and
    ``eps_cap`` set, starting above the solutions the ``warm`` dict keeps
    and leaving the next walk's there, and restores the lifts.  Returns
    ``(psi, Psi, phi)``.

    The walk reads ``coeffs`` without its forcings and ``A22``, from a
    copy: ``coeffs`` is not written, and if the caller keeps no reference
    to it (``fixed_point_solve`` hands its set over) they are freed before
    the walk.
    """
    phi_new = poisson_solve_phi(Field2D.from_grid_values("dirichlet", coeffs.f3, coeffs.grid))
    f1s, f2s, lift_psi, lift_Psi = lift_boundary_data(bdata, coeffs)
    coeffs = replace(coeffs, f1=None, f2=None, f3=None, A22=None)
    v, w, _ = vanishing_viscosity(
        coeffs, f1s, f2s, eps0=options.eps0, tol_eps=options.tol_eps, cap=options.eps_cap,
        trace_sink=trace_sink, warm=warm,
    )
    return v + lift_psi, w + lift_Psi, phi_new
