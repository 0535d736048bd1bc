"""Scalar fields on the channel rectangle ``(0, L) x (-1, 1)``.

Fields are stored as spectral modes in the wall-normal direction times
values on a uniform station grid in the flow direction.  Two wall parities
are supported:

* ``cosine``: basis ``cos(k pi x2)``, k = 0..m.  Wall-normal derivatives
  vanish identically at the walls (slip-compatible even fields).
* ``dirichlet``: basis ``sin(k pi (x2+1)/2)``, k = 1..K.  The field and
  its second wall-normal derivative vanish identically at the walls.

Each basis is one ``Family``: its values and x2-derivatives on the
collocation nodes, frequencies and squared norms, tabulated once per
``Grid``; synthesis, projection, norms and ``grid_d2_parity_split`` read it.

Collocation uses a uniform closed grid in ``x2`` with trapezoid weights.
On that grid the trapezoid rule integrates every product of basis
functions that occurs here exactly (discrete cosine/sine aliasing
identities), so projections of dealiased nonlinear products are exact up
to roundoff provided ``n_x2 - 1 >= 4 (m + 1)`` panels, which the default
grid guarantees; for the same reason the quadrature of a field's H1 norm
is a sum over its modes (``Field2D.h1_norm``).  Flow-direction derivatives are numpy stencils
(``Stencil``) of second-order central differences with one-sided closures at the ends.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import InputError


class Stencil:
    """Difference operator on ``n`` stations along the first axis: the centred ``weights`` at ``offsets``
    on rows 1..n-2, the one-sided ``end`` weights on row 0 and their mirror image (negated if ``odd``)
    on row n-1.  ``D @ x`` sums each row in ascending column order into a C-ordered array, as scipy's
    CSR product does, and equals that product bit for bit but for which NaN a sum of two NaNs returns
    (IEEE 754 leaves it open, and scipy's choice changes with the column count)."""

    def __init__(self, n: int, end, offsets, weights, odd: bool):
        self.n, self.centre = n, tuple(zip(offsets, weights))
        self.ends = np.stack([end, -end[::-1] if odd else end[::-1]], axis=1)   # (k, 2): rows 0, n-1

    @np.errstate(over="ignore", invalid="ignore")      # as the CSR product, which warns of neither
    def __matmul__(self, x) -> np.ndarray:
        x, n, k = np.asarray(x), self.n, len(self.ends)
        if x.shape[:1] != (n,):
            raise ValueError(f"difference operator of size {n} cannot act on shape {x.shape}")
        y = np.empty(x.shape)
        (o, w), *rest = self.centre
        mid = np.multiply(x[1 + o:n - 1 + o], w, out=y[1:-1])
        for o, w in rest:
            mid += x[1 + o:n - 1 + o] * w
        # y[::n-1] is rows 0 and n-1, and x[j:n-k+j+1:n-k] their j-th columns j and n-k+j
        w = self.ends.reshape(self.ends.shape + (1,) * (x.ndim - 1))
        ends = np.multiply(x[0:n - k + 1:n - k], w[0], out=y[::n - 1])
        for j in range(1, k):
            ends += x[j:n - k + j + 1:n - k] * w[j]
        y += 0.0    # for the CSR sum's start at 0.0: a -0.0 row sum becomes 0.0, no other bit moves
        return y


def d1_stencil(n: int, h: float) -> Stencil:
    """Second-order first-derivative operator (central, one-sided at the ends)."""
    return Stencil(n, np.array([-1.5, 2.0, -0.5]) / h, (-1, 1), np.array([-0.5, 0.5]) / h, odd=True)


def d2_stencil(n: int, h: float) -> Stencil:
    """Second-order second-derivative operator (compact central, one-sided ends)."""
    end, centred = np.array([2.0, -5.0, 4.0, -1.0]) / h ** 2, np.array([1.0, -2.0, 1.0]) / h ** 2
    return Stencil(n, end, (-1, 0, 1), centred, odd=False)


class Family:
    """One wall-direction basis tabulated on the collocation nodes: ``value``, ``d2`` and ``d22`` are its
    functions and their first and second x2-derivatives, each ``(n_x2, K)``, ``freq`` their frequencies and
    ``norm`` their squared L2 norms on (-1, 1)."""

    def __init__(self, value, d2, freq, norm):
        self.value, self.d2, self.d22 = value, d2, -freq ** 2 * value
        self.freq, self.norm = freq, norm

    @classmethod
    def cosines(cls, x2, K: int) -> "Family":
        """``cos(k pi x2)``, k = 0..K-1."""
        k = np.arange(K)
        freq = k * np.pi
        arg = np.outer(x2, freq)
        return cls(np.cos(arg), -freq * np.sin(arg), freq, np.where(k == 0, 2.0, 1.0))

    @classmethod
    def sines(cls, x, freq) -> "Family":
        """``sin(freq x)``, each of unit norm on (-1, 1) for the families built here."""
        arg = np.outer(x, freq)
        return cls(np.sin(arg), freq * np.cos(arg), freq, np.ones(len(freq)))

    def project(self, values: np.ndarray, w2: np.ndarray) -> np.ndarray:
        """Column-wise projection of collocation values (trapezoid weights ``w2``) onto the basis."""
        return (values * w2) @ self.value / self.norm


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

    A bool, a size that is not an integer or a length that is not real is
    an ``InputError`` naming the parameter.  ``families`` maps each field
    parity to its ``Family``; ``split`` holds the even ``cos(k pi x2)``,
    k = 0..2(m+1), and odd ``sin(k pi x2)``, k = 1..2(m+1), families of
    :func:`grid_d2_parity_split`.
    """

    def __init__(self, L: float, n_x1: int, m: int):
        for name, value in (("L", L), ("n_x1", n_x1), ("m", m)):
            if isinstance(value, bool) or not isinstance(value, numbers.Real if name == "L" else numbers.Integral):
                kind = "real" if name == "L" else "an integer"
                raise InputError(f"grid parameter {name} must be {kind}, got {value!r}")
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
        self.w2[::panels] *= 0.5                        # trapezoid end weights
        self.w1 = np.full(self.n_x1, self.h1)
        self.w1[::self.n_x1 - 1] *= 0.5

        k = np.arange(1, self.n_dir + 1)
        self.families = {"cosine": Family.cosines(self.x2, self.n_cos),
                         "dirichlet": Family.sines(self.x2 + 1.0, k * np.pi / 2.0)}
        self.split = (Family.cosines(self.x2, self.n_dir + 1), Family.sines(self.x2, k * np.pi))
        self.D1 = d1_stencil(self.n_x1, self.h1)
        self.D2 = d2_stencil(self.n_x1, self.h1)


def _family(parity: str, grid: Grid) -> Family:
    if parity not in grid.families:
        raise InputError(f"unknown parity {parity!r}")
    return grid.families[parity]


class Field2D:
    """Spectral-in-x2, nodal-in-x1 scalar field.

    ``modes`` has shape (n_x1, K) for the K functions of the parity's
    ``Family``.  Values and derivatives are synthesized on the collocation
    grid; x2-derivatives are spectral (exact per mode), x1-derivatives are
    the grid's difference stencils.
    """

    def __init__(self, parity: str, modes: np.ndarray, grid: Grid):
        self.parity, self.grid, self.family = parity, grid, _family(parity, grid)
        self.modes = np.asarray(modes, dtype=float)
        if self.modes.shape != (shape := (grid.n_x1, len(self.family.freq))):
            raise InputError(f"mode array shape {self.modes.shape} != {shape}")

    @classmethod
    def zeros(cls, parity: str, grid: Grid) -> "Field2D":
        return cls(parity, np.zeros((grid.n_x1, len(_family(parity, grid).freq))), grid)

    @classmethod
    def from_grid_values(cls, parity: str, values: np.ndarray, grid: Grid) -> "Field2D":
        """Project collocation values column-wise onto the parity's basis."""
        return cls(parity, _family(parity, grid).project(values, grid.w2), grid)

    # -- synthesis -------------------------------------------------------
    def values(self) -> np.ndarray:
        return self.modes @ self.family.value.T

    def d2(self) -> np.ndarray:
        return self.modes @ self.family.d2.T

    def d22(self) -> np.ndarray:
        return self.modes @ self.family.d22.T

    def d1(self) -> np.ndarray:
        return (self.grid.D1 @ self.modes) @ self.family.value.T

    def d11(self) -> np.ndarray:
        return (self.grid.D2 @ self.modes) @ self.family.value.T

    def d12(self) -> np.ndarray:
        return (self.grid.D1 @ self.modes) @ self.family.d2.T

    # -- algebra ---------------------------------------------------------
    def __add__(self, other: "Field2D") -> "Field2D":
        return Field2D(self.parity, self.modes + other.modes, self.grid)

    def __sub__(self, other: "Field2D") -> "Field2D":
        return Field2D(self.parity, self.modes - other.modes, self.grid)

    def __mul__(self, c: float) -> "Field2D":
        return Field2D(self.parity, self.modes * c, self.grid)

    __rmul__ = __mul__

    # -- norms -----------------------------------------------------------
    def h1_norm(self) -> float:
        """Discrete H1 norm: trapezoid quadrature of |u|^2 + |Du|^2, summed over the modes.

        The basis functions and their x2-derivatives are orthogonal with
        squared norms ``norm`` and ``freq^2 norm``, and the trapezoid rule on
        ``n_x2 = 4(m+1)+1`` nodes integrates each of their pairwise products
        exactly (module notes), so the tensor quadrature of the synthesized
        values is ``w1 @ sum_k norm_k ((1 + freq_k^2) c_k^2 + (D1 c_k)^2)`` to
        roundoff; no grid values are formed.
        """
        f, c = self.family, self.modes
        return float(np.sqrt(self.grid.w1 @ (((1.0 + f.freq ** 2) * c ** 2 + (self.grid.D1 @ c) ** 2) @ f.norm)))

    def d11_norm(self) -> float:
        """Discrete L2 norm of ``d11 u``, by the mode sum of :meth:`h1_norm`."""
        return float(np.sqrt(self.grid.w1 @ ((self.grid.D2 @ self.modes) ** 2 @ self.family.norm)))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values())))

    def grad_sup_norm(self) -> float:
        return float(np.max(np.hypot(self.d1(), self.d2())))


def grid_d2_parity_split(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral wall-normal derivative of a generic grid field.

    Splits the field into even/odd parts about ``x2 = 0`` (the collocation
    grid is symmetric), differentiates the even part in the cosine family
    and the odd part in the ``sin(k pi x2)`` family of ``grid.split``, and
    sums.  Both families are carried to twice the solver's mode cutoff
    (still below the collocation Nyquist limit): residual fields built from
    products of solved modes carry second-order content beyond the cutoff
    that would otherwise be dropped asymmetrically against the
    flow-direction derivative.
    """
    even, odd = grid.split
    return (even.project(0.5 * (values + values[:, ::-1]), grid.w2) @ even.d2.T
            + odd.project(0.5 * (values - values[:, ::-1]), grid.w2) @ odd.d2.T)


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
