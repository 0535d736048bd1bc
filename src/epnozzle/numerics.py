"""Brent root finding, monotone cubic interpolation and cumulative Simpson quadrature.

Ports of ``scipy.optimize.brentq``, ``scipy.interpolate.PchipInterpolator``
and ``scipy.integrate.cumulative_simpson`` that keep scipy's order of
floating-point operations, so every result is bit-identical to scipy's
(``tests/test_numerics.py`` pins this).  They carry only what the solver
uses: importing those three subpackages also loads ``scipy.special``,
``spatial`` and ``fft``, about 0.3 s of every fresh process.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

BRENT_MAXITER = 100
BRENT_RTOL_MIN = 4 * np.finfo(float).eps


def _value(f, x):
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def brentq(f, a, b, xtol, rtol):
    """Root of ``f`` in ``[a, b]``, where ``f(a)`` and ``f(b)`` differ in sign, by Brent's method.

    scipy's ``brentq.c`` line for line in Python floats, with its wrapper's
    checks: ``ValueError`` for ``xtol <= 0``, ``rtol < 4 eps``, a NaN value
    or no sign change, ``RuntimeError`` after ``BRENT_MAXITER`` iterations.
    """
    xtol, rtol = float(xtol), float(rtol)
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < BRENT_RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {BRENT_RTOL_MIN:g})")
    xpre, xcur = float(a), float(b)
    fpre, fcur = _value(f, xpre), _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # inf or NaN in C, which fails the step test
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {BRENT_MAXITER} iterations.")


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, limited to keep the data's shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    flip = np.sign(d) != np.sign(m0)
    steep = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(flip, 0.0, np.where(steep, 3.0 * m0, d))


class Pchip:
    """Monotone piecewise-cubic Hermite interpolant of ``y(x)`` (Fritsch-Carlson slopes).

    ``x`` is strictly increasing with at least 3 nodes (not checked); ``y``
    has shape ``(len(x),)`` or ``(len(x), k)`` and must be finite.  Values
    outside ``[x[0], x[-1]]`` extend the end cubics.  Slopes, coefficients,
    cells and the Horner order are scipy's (``PchipInterpolator``, its
    ``derivative()``, ``PPoly`` evaluation).
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("Pchip data must be finite")
        h = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
        m = np.diff(y, axis=0) / h
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
        d = np.empty_like(y)
        d[1:-1] = np.where(flat, 0.0, inner)
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2 * m) / h
        self.x = x
        # c[k] multiplies s^(3-k), s = x - x[cell]
        self.c = np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))

    def _local(self, x):
        x = np.asarray(x, dtype=float)
        cell = np.clip(np.searchsorted(self.x, x, side="right") - 1, 0, len(self.x) - 2)
        s = x - self.x[cell]
        # one take per coefficient: far cheaper than fancy-indexing all four at once
        return [c.take(cell, axis=0) for c in self.c], s.reshape(s.shape + (1,) * (self.c.ndim - 2))

    def __call__(self, x):
        c, s = self._local(x)
        ss = s * s
        return 0.0 + c[3] + c[2] * s + c[1] * ss + c[0] * (ss * s)

    def value_and_slope(self, x):
        """Value and first derivative at ``x`` from one cell search."""
        c, s = self._local(x)
        ss = s * s
        return (0.0 + c[3] + c[2] * s + c[1] * ss + c[0] * (ss * s),
                0.0 + c[2] + (2.0 * c[1]) * s + (3.0 * c[0]) * ss)

    def column(self, j):
        """Column ``j`` of a 2-D interpolant as a Python-float function (same cells and order)."""
        xs = self.x.tolist()
        c0, c1, c2, c3 = self.c[:, :, j].tolist()
        last = len(xs) - 2

        def value(x):
            i = min(max(bisect_right(xs, x) - 1, 0), last)
            s = x - xs[i]
            ss = s * s
            return 0.0 + c3[i] + c2[i] * s + c1[i] * ss + c0[i] * (ss * s)

        return value


def _simpson_pairs(y, dx):
    """Simpson integral over the first cell of every pair of cells (unequal widths)."""
    x21, x32 = dx[:-1], dx[1:]
    x21_x31 = x21 / (x21 + x32)
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    return x21 / 6 * ((3 - x21_x31) * y[..., :-2] + (3 + x21x21_x31x32 + x21_x31) * y[..., 1:-1]
                      + -x21x21_x31x32 * y[..., 2:])


def cumulative_simpson(y, x):
    """Cumulative Simpson integral of ``y`` along its last axis over the nodes ``x``, from 0.

    ``x`` is strictly increasing with at least 3 nodes (not checked).  As in
    scipy, cells 0, 2, 4, ... integrate the parabola through their own and
    the next cell's nodes; the other cells, and the last one, the parabola
    through their own and the previous cell's nodes.
    """
    dx = np.diff(x)
    h1 = _simpson_pairs(y, dx)
    h2 = _simpson_pairs(y[..., ::-1], dx[::-1])[..., ::-1]
    cells = np.empty(y.shape[:-1] + (y.shape[-1] - 1,))
    cells[..., :-1:2] = h1[..., ::2]
    cells[..., 1::2] = h2[..., ::2]
    cells[..., -1] = h2[..., -1]
    out = np.zeros(y.shape)
    out[..., 1:] = np.cumsum(cells, axis=-1) + 0.0  # scipy adds initial=0.0, turning -0.0 into 0.0
    return out
