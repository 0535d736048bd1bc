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

import functools
import numbers
from typing import NamedTuple

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


# CSV numbers: every float of a table is printed as C printf "%.17g" prints it (CPython's
# "%.17g" % x gives the same bytes), but the digits are computed in numpy.  With x = M 2**(E - 53)
# (M the 53-bit integer significand) and k = floor(log10 |x|), the 17 digits are the integer
# N = round-half-even(M 5**p 2**(E - 53 + p)), p = 16 - k, evaluated exactly in 32-bit limbs of
# uint64: the fixed-precision method of Adams 2019, "Ryu revisited: printf floating point
# conversion".  5**p < 2**63 for p <= 27 bounds the exact window to 10**-11 <= |x| < 1e17; zeros,
# non-finite values and magnitudes outside it take "%.17g" one value at a time.  A value's text is
# laid out in five little-endian 64-bit words, each part NUL-padded in words of its own: the sign
# and a "0.000" prefix in word 0, the digits and point in words 1-3, the exponent and separator in
# word 4; the padding is dropped when the block is written.  Every constant that meets a uint64
# array is an np.uint64: on numpy 1.x, uint64 with a signed integer promotes to float64.
# Temporaries are deleted once read, which keeps a block's peak near 140 bytes per value.
_CSV_BLOCK = 2048  # values formatted at a time
_EXACT_END = 1e17
_EXACT_MIN = float(np.nextafter(1e-11, 1.0))  # the float 1e-11 lies just below 10**-11


def _u64(texts, width: int = 8) -> np.ndarray:
    """The little-endian 64-bit words of the byte strings ``texts``, each NUL-padded to ``width``
    bytes (a multiple of 8), one after another."""
    return np.frombuffer(b"".join(text.ljust(width, b"\0") for text in texts), "<u8")


class _CsvTables(NamedTuple):
    digits4: np.ndarray  # the ASCII of each 4-digit group, first digit in the low byte
    zeros4: np.ndarray  # its trailing zeros: 4 for 0000
    pow5_lo: np.ndarray  # 5**p, p = 0..27, in 32-bit limbs
    pow5_hi: np.ndarray
    # three words over the 17-digit string: bytes [0, n) kept (row n); bytes [a, 24) and the
    # '.' at byte a for a point before digit a (row 17: no point)
    keep: np.ndarray
    after: np.ndarray
    point: np.ndarray
    # per k in -11..16: the digits before the point, and the digit the point goes before
    int_digits: np.ndarray
    point_at: np.ndarray
    # per (k, flag): the sign and "0.000" prefix (flag: negative), and the exponent and
    # separator (flag: last column)
    prefix: np.ndarray
    suffix: np.ndarray


@functools.cache
def _csv_tables() -> _CsvTables:
    """The writer's constant tables, built on its first call (a run that writes no CSV never
    touches them)."""
    groups = [b"%04d" % i for i in range(10000)]
    pow5 = np.array([5 ** p for p in range(28)], np.uint64)
    int_digits, point_at, prefix, suffix = [], [], [], []
    for k in range(-11, 17):
        int_digits.append(k + 1 if k >= 0 else 1)
        point_at.append(k + 1 if k >= 0 else 17 if k >= -4 else 1)
        for flag in (0, 1):
            prefix.append(b"-" * flag + (b"0." + b"0" * (-k - 1) if -4 <= k < 0 else b""))
            suffix.append((b"e%+03d" % k if k < -4 else b"") + (b"\n" if flag else b","))
    tables = _CsvTables(
        _u64(groups), np.array([4 - len(g.rstrip(b"0")) for g in groups]),
        pow5 & np.uint64(0xFFFFFFFF), pow5 >> np.uint64(32),
        _u64([b"\xff" * n for n in range(18)], 24).reshape(18, 3).T,
        _u64([b"\0" * a + b"\xff" * (24 - a) for a in range(18)], 24).reshape(18, 3).T,
        _u64([b"\0" * a + b"." * (a < 17) for a in range(18)], 24).reshape(18, 3).T,
        np.array(int_digits), np.array(point_at), _u64(prefix), _u64(suffix))
    for table in tables:
        table.flags.writeable = False  # every call shares them
    return tables


def _round17(M, E, k):
    """``N = round-half-even(M 10**(16 - k) 2**(E - 53))``, exactly, and the quotient truncated."""
    U, tab = np.uint64, _csv_tables()
    p = 16 - k
    f_lo, f_hi = tab.pow5_lo.take(p), tab.pow5_hi.take(p)
    p += E
    p -= 53  # the product M 5**p is shifted left by this many bits (right by minus it)
    left = np.maximum(p, 0).astype(U)
    right = np.negative(np.minimum(p, 0, out=p), out=p).astype(U)
    del p
    m_lo, m_hi = M & U(0xFFFFFFFF), M >> U(32)
    lo = m_lo * f_lo
    mid = np.multiply(m_hi, f_lo, out=f_lo)
    mid += np.multiply(m_lo, f_hi, out=m_lo)
    hi = np.multiply(m_hi, f_hi, out=f_hi)  # the product is hi 2**64 + mid 2**32 + lo, before carries
    del m_lo, m_hi
    cross = mid << U(32)
    lo += cross
    hi += np.right_shift(mid, U(32), out=mid)
    hi += lo < cross
    del mid, cross
    q = lo >> right
    hi <<= U(63) - right  # a shift by 64 - right, in two steps so that right = 0 is allowed
    hi <<= U(1)
    q |= hi
    q <<= left
    half = np.left_shift(U(1), right, out=right)  # against twice the remainder: round up above
    lo &= half - U(1)                             # it, or on it with q odd
    lo <<= U(1)
    lo += q & U(1)
    return q + (lo > half), q


def _decimal17(values: np.ndarray):
    """The 17-digit decimal ``N 10**(k - 16)`` of each value, and where it is exact (in the window)."""
    U = np.uint64
    mag = np.abs(values)
    exact = (mag >= _EXACT_MIN) & (mag < _EXACT_END)
    mag[~exact] = 1.0
    frac, E = np.frexp(mag)
    frac *= 2.0 ** 53
    M = frac.astype(U)
    del frac
    k = np.floor(np.log10(mag, out=mag), out=mag).astype(np.int64)
    np.minimum(k, 16, out=k)
    np.maximum(k, -11, out=k)
    N, q = _round17(M, E, k)
    # log10 can be one off near a power of ten; the truncated quotient then leaves [1e16, 1e17)
    off = np.flatnonzero(q - U(10 ** 16) >= U(9 * 10 ** 16))  # q < 1e16 wraps around
    if off.size:
        k[off] += np.where(q[off] < U(10 ** 16), -1, 1)
        N[off] = _round17(M[off], E[off], k[off])[0]
    return N, k, exact  # N < 1e17: no float in the window rounds up to a power of ten


def _text_words(N, k, negative, last_col) -> np.ndarray:
    """``(n, 5)`` little-endian words holding the NUL-padded ``%.17g`` text of ``N 10**(k - 16)``,
    its separator included (``N`` and ``k`` are overwritten)."""
    U, tab = np.uint64, _csv_tables()
    # the digits in groups 4 + 4 | 1 + 4 + 4, and the count of trailing zeros
    t2 = N // U(10 ** 9)
    N -= t2 * U(10 ** 9)
    t1 = t2 // U(10 ** 4)
    t2 -= t1 * U(10 ** 4)
    d8 = N // U(10 ** 8)
    N -= d8 * U(10 ** 8)
    t3 = N // U(10 ** 4)
    t4 = N
    t4 -= t3 * U(10 ** 4)
    zeros = tab.zeros4.take(t4)
    z = np.flatnonzero(t4 == U(0))
    for group in (t3, d8, t2, t1):
        if not z.size:
            break
        zeros[z] += tab.zeros4[group[z]] if group is not d8 else group[z] == U(0)
        z = z[group[z] == U(0)]
    # the string of digits in three words, cut after its last nonzero digit, or after the integer
    # digits in fixed notation; the point before digit k + 1 in fixed notation, before digit 1 in
    # exponent notation, and none without digits after it or in the "0.000" prefix (k < 0)
    k += 11  # the row of k in the per-k tables
    kept = np.maximum(17 - zeros, tab.int_digits.take(k))
    point = tab.point_at.take(k)
    point[point >= kept] = 17
    words = np.empty((3, k.size), U)
    words[0] = tab.digits4.take(t1)
    words[0] |= tab.digits4.take(t2) << U(32)
    words[2] = tab.digits4.take(t4)
    words[1] = d8 + U(48)
    words[1] |= tab.digits4.take(t3) << U(8)
    words[1] |= words[2] << U(40)
    words[2] >>= U(24)
    del t1, t2, t3, t4, d8, zeros, z
    words &= tab.keep.take(kept, axis=1)
    after = words & tab.after.take(point, axis=1)
    words ^= after
    words |= after << U(8)
    words[1:] |= after[:2] >> U(56)
    words |= tab.point.take(point, axis=1)
    del kept, point, after
    rows = np.empty((k.size, 5), np.dtype("<u8"))
    rows[:, 0] = tab.prefix.take(2 * k + negative)
    rows[:, 1:4] = words.T
    del words
    rows[:, 4] = tab.suffix.take(2 * k + last_col)
    return rows


def _format_block(values: np.ndarray, last_col: np.ndarray) -> bytes:
    """The ``%.17g`` text of ``values`` (table rows, flattened), each value followed by ``,`` or,
    where ``last_col`` is 1, by a newline."""
    N, k, exact = _decimal17(values)
    text = _text_words(N, k, values < 0, last_col).view(np.uint8)
    del N, k
    slow = np.flatnonzero(~exact)
    if slow.size:
        lines = [("%.17g\n" if last else "%.17g,") % x
                 for x, last in zip(values[slow].tolist(), last_col[slow].tolist())]
        text[slow] = np.array(lines, "S40").view(np.uint8).reshape(-1, 40)
    return text.tobytes().translate(None, b"\0")


def write_csv_table(path, header: str, columns) -> None:
    """CSV of the float columns (1-D or 2-D arrays, stacked side by side)
    under ``header``, each value as ``%.17g``, formatted and written a block of rows at a time."""
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    rows, cols = len(columns[0]), sum(c.shape[1] if c.ndim == 2 else 1 for c in columns)
    n_blocks = max(1, -(-rows * cols // _CSV_BLOCK))
    step = max(1, -(-rows // n_blocks))  # rows per block, the blocks of equal size
    last_col = np.tile(np.arange(cols) == cols - 1, step).astype(np.int64)
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, rows, step):
            block = np.column_stack([c[start:start + step] for c in columns]).ravel()
            fh.write(_format_block(block, last_col[:block.size]))


def write_grid_csv(path, field_values: np.ndarray, grid: Grid) -> None:
    """Matrix CSV: one row per station, header carries the x2 nodes."""
    header = "x1," + ",".join(["x2=%.17g" % v for v in grid.x2.tolist()])
    write_csv_table(path, header, (grid.x1, field_values))
