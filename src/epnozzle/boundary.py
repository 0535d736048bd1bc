"""Inlet-data families compatible with the slip walls.

Entropy and field data are cosine series, the transverse-speed datum a
sine series::

    S_en = S0 + sigma * sum a_n cos(n pi x2)
    E_en = E0 + sigma * sum b_n cos(n pi x2)
    w_en =      sigma * sum c_n sin(n pi x2)

Every member satisfies the wall compatibility conditions identically
(odd derivatives of the cosines and even derivatives of orders 0, 2, 4 of
the sines vanish at x2 = +-1), so only the inputs are checked, once, at
construction: a real ``sigma``, integral mode numbers n >= 0 in the cosine
families and n >= 1 in the sine family, finite real coefficients, no bools.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError


def _checked_modes(family: str, modes, lowest: int) -> tuple:
    """``(n, c)`` pairs with integral ``n >= lowest`` and finite ``c``, both real and no bools."""
    out = []
    for n, c in modes:
        if not (_real(n) and _real(c) and float(n).is_integer() and n >= lowest and math.isfinite(c)):
            raise InputError(f"{family}: mode ({n!r}, {c!r}) needs an integer n >= {lowest}, finite real c")
        out.append((int(n), float(c)))
    return tuple(out)


def _real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class BoundaryDataSpec:
    """Boundary-data family: mode lists plus a common amplitude ``sigma``."""

    sigma: float = 0.0
    s_modes: tuple = ()
    e_modes: tuple = ()
    w_modes: tuple = ()

    def __post_init__(self):
        if not _real(self.sigma):
            raise InputError(f"boundary amplitude sigma must be real, got {self.sigma!r}")
        object.__setattr__(self, "s_modes", _checked_modes("s_modes", self.s_modes, 0))
        object.__setattr__(self, "e_modes", _checked_modes("e_modes", self.e_modes, 0))
        object.__setattr__(self, "w_modes", _checked_modes("w_modes", self.w_modes, 1))

    @classmethod
    def zero(cls) -> "BoundaryDataSpec":
        return cls()

    def scaled(self, factor: float) -> "BoundaryDataSpec":
        return replace(self, sigma=self.sigma * factor)

    # -- inlet profiles ----------------------------------------------------
    def _series(self, modes, x2, term):
        """``sum_n term(sigma c_n, n, n pi x2)`` over one family's modes."""
        x2 = np.asarray(x2, dtype=float)
        out = np.zeros_like(x2)
        for n, c in modes:
            out += term(self.sigma * c, n, n * np.pi * x2)
        return out

    def s_en_minus_s0(self, x2):
        return self._series(self.s_modes, x2, lambda sc, n, nx: sc * np.cos(nx))

    def e_en_minus_e0(self, x2):
        return self._series(self.e_modes, x2, lambda sc, n, nx: sc * np.cos(nx))

    def e_en_d2(self, x2):
        """Second derivative of ``E_en - E0``."""
        return self._series(self.e_modes, x2, lambda sc, n, nx: -sc * (n * np.pi) ** 2 * np.cos(nx))

    def w_en(self, x2):
        return self._series(self.w_modes, x2, lambda sc, n, nx: sc * np.sin(nx))

    def w_en_d1(self, x2):
        return self._series(self.w_modes, x2, lambda sc, n, nx: sc * n * np.pi * np.cos(nx))

    def psi_inlet(self, x2):
        """Inlet potential trace ``integral_{-1}^{x2} w_en``."""
        return self._series(self.w_modes, x2, lambda sc, n, nx: sc * ((-1.0) ** n - np.cos(nx)) / (n * np.pi))
