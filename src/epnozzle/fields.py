"""Scalar fields on the channel rectangle ``(0, L) x (-1, 1)``.

Fields are stored as spectral modes in the wall-normal direction times
values on a uniform station grid in the flow direction.  Two wall parities
are supported:

* ``cosine``: basis ``cos(k pi x2)``, k = 0..m.  Wall-normal derivatives
  vanish identically at the walls (slip-compatible even fields).
* ``dirichlet``: basis ``sin(k pi (x2+1)/2)``, k = 1..K.  The field and
  its second wall-normal derivative vanish identically at the walls.

Collocation uses a uniform closed grid in ``x2`` with trapezoid weights.
On that grid the trapezoid rule integrates every product of basis
functions that occurs here exactly (discrete cosine/sine aliasing
identities), so projections of dealiased nonlinear products are exact up
to roundoff provided ``n_x2 - 1 >= 4 (m + 1)`` panels, which the default
grid guarantees; for the same reason the quadrature of a field's H1 norm
is a sum over its modes (``Field2D.h1_norm``).  Flow-direction derivatives use second-order central
differences with one-sided closures at the ends.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import InputError


def _difference_matrix(n: int, end, offsets, weights, odd: bool) -> sp.csr_matrix:
    """CSR matrix: the centred ``weights`` at ``offsets`` on rows 1..n-2, the
    one-sided ``end`` weights on row 0 and their mirror image (negated if
    ``odd``) on row n-1."""
    k, q = len(end), len(offsets)
    data = np.concatenate([end, np.tile(weights, n - 2), -end[::-1] if odd else end[::-1]])
    centred = (np.arange(1, n - 1)[:, None] + offsets).ravel()
    indices = np.concatenate([np.arange(k), centred, np.arange(n - k, n)])
    indptr = np.concatenate([[0], k + q * np.arange(n - 1), [2 * k + q * (n - 2)]])
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def d1_matrix(n: int, h: float) -> sp.csr_matrix:
    """Second-order first-derivative matrix (central, one-sided at the ends)."""
    return _difference_matrix(n, np.array([-1.5, 2.0, -0.5]) / h, (-1, 1), np.array([-0.5, 0.5]) / h, odd=True)


def d2_matrix(n: int, h: float) -> sp.csr_matrix:
    """Second-order second-derivative matrix (compact central, one-sided ends)."""
    end, centred = np.array([2.0, -5.0, 4.0, -1.0]) / h ** 2, np.array([1.0, -2.0, 1.0]) / h ** 2
    return _difference_matrix(n, end, (-1, 0, 1), centred, odd=False)


class Grid:
    """Discretization of the rectangle: stations, collocation nodes, bases.

    Parameters
    ----------
    L : float
        Channel length, finite and positive.
    n_x1 : int
        Station count (uniform grid on [0, L]).
    m : int
        Cosine mode cutoff; modes 0..m are carried.  The dirichlet family
        carries 2(m+1) modes so wall-normal derivatives of cosine fields
        stay representable.
    """

    def __init__(self, L: float, n_x1: int, m: int):
        if not 0 < L < np.inf or n_x1 < 9 or m < 0:
            raise InputError(f"bad grid parameters L={L}, n_x1={n_x1}, m={m}")
        self.L = float(L)
        self.n_x1 = int(n_x1)
        self.m = int(m)
        self.n_cos = m + 1
        self.n_dir = 2 * (m + 1)
        self.x1 = np.linspace(0.0, L, n_x1)
        self.h1 = self.x1[1] - self.x1[0]
        panels = 4 * (m + 1)
        self.n_x2 = panels + 1
        self.x2 = np.linspace(-1.0, 1.0, self.n_x2)
        self.w2 = np.full(self.n_x2, 2.0 / panels)
        self.w2[0] *= 0.5
        self.w2[-1] *= 0.5
        self.w1 = np.full(self.n_x1, self.h1)
        self.w1[0] *= 0.5
        self.w1[-1] *= 0.5

        k = np.arange(self.n_cos)
        self.cos_freq = k * np.pi
        self.cos_basis = np.cos(np.outer(self.x2, self.cos_freq))            # (n_x2, m+1)
        self.cos_basis_d = -self.cos_freq * np.sin(np.outer(self.x2, self.cos_freq))
        self.cos_basis_dd = -self.cos_freq ** 2 * self.cos_basis
        self.cos_norm = np.where(k == 0, 2.0, 1.0)
        # orthonormal Galerkin basis eta_k = cos(k pi x2)/sqrt(norm)
        self.eta_basis = self.cos_basis / np.sqrt(self.cos_norm)
        self.eta_basis_d = self.cos_basis_d / np.sqrt(self.cos_norm)

        kd = np.arange(1, self.n_dir + 1)
        self.dir_freq = kd * np.pi / 2.0
        self.dir_basis = np.sin(np.outer(self.x2 + 1.0, self.dir_freq))      # (n_x2, K)
        self.dir_basis_d = self.dir_freq * np.cos(np.outer(self.x2 + 1.0, self.dir_freq))
        self.dir_basis_dd = -self.dir_freq ** 2 * self.dir_basis

        self.D1 = d1_matrix(self.n_x1, self.h1)
        self.D2 = d2_matrix(self.n_x1, self.h1)

    # -- projections ----------------------------------------------------
    def project_cosine(self, values: np.ndarray) -> np.ndarray:
        """Column-wise projection of grid values onto the cosine modes."""
        return (values * self.w2) @ self.cos_basis / self.cos_norm

    def project_dirichlet(self, values: np.ndarray) -> np.ndarray:
        """Column-wise projection onto the dirichlet modes (each of unit norm)."""
        return (values * self.w2) @ self.dir_basis

    def basis(self, parity: str, derivative: int = 0) -> np.ndarray:
        tab = {
            ("cosine", 0): self.cos_basis,
            ("cosine", 1): self.cos_basis_d,
            ("cosine", 2): self.cos_basis_dd,
            ("dirichlet", 0): self.dir_basis,
            ("dirichlet", 1): self.dir_basis_d,
            ("dirichlet", 2): self.dir_basis_dd,
        }
        return tab[(parity, derivative)]


class Field2D:
    """Spectral-in-x2, nodal-in-x1 scalar field.

    ``modes`` has shape (n_x1, n_modes).  Values and derivatives are
    synthesized on the collocation grid; x2-derivatives are spectral
    (exact per mode), x1-derivatives use the grid's difference matrices.
    """

    def __init__(self, parity: str, modes: np.ndarray, grid: Grid):
        if parity not in ("cosine", "dirichlet"):
            raise InputError(f"unknown parity {parity!r}")
        expected = grid.n_cos if parity == "cosine" else grid.n_dir
        modes = np.asarray(modes, dtype=float)
        if modes.shape != (grid.n_x1, expected):
            raise InputError(f"mode array shape {modes.shape} != {(grid.n_x1, expected)}")
        self.parity = parity
        self.modes = modes
        self.grid = grid

    @classmethod
    def zeros(cls, parity: str, grid: Grid) -> "Field2D":
        n = grid.n_cos if parity == "cosine" else grid.n_dir
        return cls(parity, np.zeros((grid.n_x1, n)), grid)

    @classmethod
    def from_grid_values(cls, parity: str, values: np.ndarray, grid: Grid) -> "Field2D":
        """Project collocation values column-wise onto the parity's basis."""
        if parity == "cosine":
            return cls(parity, grid.project_cosine(values), grid)
        return cls(parity, grid.project_dirichlet(values), grid)

    # -- synthesis -------------------------------------------------------
    def values(self) -> np.ndarray:
        return self.modes @ self.grid.basis(self.parity, 0).T

    def d2(self) -> np.ndarray:
        return self.modes @ self.grid.basis(self.parity, 1).T

    def d22(self) -> np.ndarray:
        return self.modes @ self.grid.basis(self.parity, 2).T

    def d1(self) -> np.ndarray:
        return (self.grid.D1 @ self.modes) @ self.grid.basis(self.parity, 0).T

    def d11(self) -> np.ndarray:
        return (self.grid.D2 @ self.modes) @ self.grid.basis(self.parity, 0).T

    def d12(self) -> np.ndarray:
        return (self.grid.D1 @ self.modes) @ self.grid.basis(self.parity, 1).T

    # -- algebra ---------------------------------------------------------
    def __add__(self, other: "Field2D") -> "Field2D":
        return Field2D(self.parity, self.modes + other.modes, self.grid)

    def __sub__(self, other: "Field2D") -> "Field2D":
        return Field2D(self.parity, self.modes - other.modes, self.grid)

    def __mul__(self, c: float) -> "Field2D":
        return Field2D(self.parity, self.modes * c, self.grid)

    __rmul__ = __mul__

    # -- norms -----------------------------------------------------------
    def _mode_weights(self):
        """Wall-direction frequency and squared norm of each basis function."""
        g = self.grid
        if self.parity == "cosine":
            return g.cos_freq, g.cos_norm
        return g.dir_freq, np.ones(g.n_dir)

    def h1_norm(self) -> float:
        """Discrete H1 norm: trapezoid quadrature of |u|^2 + |Du|^2, summed over the modes.

        The basis functions and their x2-derivatives are orthogonal with
        squared norms ``norm`` and ``freq^2 norm``, and the trapezoid rule on
        ``n_x2 = 4(m+1)+1`` nodes integrates each of their pairwise products
        exactly (module notes), so the tensor quadrature of the synthesized
        values is ``w1 @ sum_k norm_k ((1 + freq_k^2) c_k^2 + (D1 c_k)^2)`` to
        roundoff; no grid values are formed.
        """
        freq, norm = self._mode_weights()
        c = self.modes
        return float(np.sqrt(self.grid.w1 @ (((1.0 + freq ** 2) * c ** 2 + (self.grid.D1 @ c) ** 2) @ norm)))

    def d11_norm(self) -> float:
        """Discrete L2 norm of ``d11 u``, by the mode sum of :meth:`h1_norm`."""
        _, norm = self._mode_weights()
        return float(np.sqrt(self.grid.w1 @ ((self.grid.D2 @ self.modes) ** 2 @ norm)))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values())))

    def grad_sup_norm(self) -> float:
        return float(np.max(np.hypot(self.d1(), self.d2())))


def grid_d2_parity_split(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral wall-normal derivative of a generic grid field.

    Splits the field into even/odd parts about ``x2 = 0`` (the collocation
    grid is symmetric), differentiates the even part in the cosine family
    and the odd part in the ``sin(k pi x2)`` family, and sums.  Both
    families are carried to twice the solver's mode cutoff (still below
    the collocation Nyquist limit): residual fields built from products of
    solved modes carry second-order content beyond the cutoff that would
    otherwise be dropped asymmetrically against the flow-direction
    derivative.
    """
    even = 0.5 * (values + values[:, ::-1])
    odd = 0.5 * (values - values[:, ::-1])
    K2 = 2 * (grid.m + 1)
    kc = np.arange(K2 + 1)
    C = np.cos(np.outer(grid.x2, kc * np.pi))
    norms = np.where(kc == 0, 2.0, 1.0)
    coef_e = (even * grid.w2) @ C / norms
    d_even = coef_e @ (-kc * np.pi * np.sin(np.outer(grid.x2, kc * np.pi))).T
    ks = np.arange(1, K2 + 1)
    S = np.sin(np.outer(grid.x2, ks * np.pi))           # odd family, zero at walls
    coef_o = (odd * grid.w2) @ S                        # ||sin||^2 = 1 on [-1, 1]
    d_odd = coef_o @ (ks * np.pi * np.cos(np.outer(grid.x2, ks * np.pi))).T
    return d_even + d_odd


def write_csv_table(path, header: str, columns) -> None:
    """CSV of the float columns (1-D or 2-D arrays, stacked side by side)
    under ``header``, each value as ``%.17g``, formatted and written at once."""
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n" + (row * table.shape[0]) % tuple(table.ravel().tolist()))


def write_grid_csv(path, field_values: np.ndarray, grid: Grid) -> None:
    """Matrix CSV: one row per station, header carries the x2 nodes."""
    header = "x1," + ",".join(["x2=%.17g" % v for v in grid.x2.tolist()])
    write_csv_table(path, header, (grid.x1, field_values))
