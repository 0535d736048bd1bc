"""Inlet-data families compatible with the slip walls.

Entropy and field data are cosine series, the transverse-speed datum a
sine series::

    S_en = S0 + sigma * sum a_n cos(n pi x2)
    E_en = E0 + sigma * sum b_n cos(n pi x2)
    w_en =      sigma * sum c_n sin(n pi x2)

Every member satisfies the wall compatibility conditions identically
(odd derivatives of the cosines and even derivatives of orders 0, 2, 4 of
the sines vanish at x2 = +-1); ``compatibility_defect`` evaluates them
anyway so arbitrary coefficient choices stay checked.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


def _as_mode_tuple(modes) -> tuple:
    return tuple((int(n), float(c)) for n, c in modes)


@dataclass(frozen=True)
class BoundaryDataSpec:
    """Boundary-data family: mode lists plus a common amplitude ``sigma``."""

    sigma: float = 0.0
    s_modes: tuple = ()
    e_modes: tuple = ()
    w_modes: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "s_modes", _as_mode_tuple(self.s_modes))
        object.__setattr__(self, "e_modes", _as_mode_tuple(self.e_modes))
        object.__setattr__(self, "w_modes", _as_mode_tuple(self.w_modes))

    @classmethod
    def zero(cls) -> "BoundaryDataSpec":
        return cls()

    def scaled(self, factor: float) -> "BoundaryDataSpec":
        return replace(self, sigma=self.sigma * factor)

    # -- inlet profiles ----------------------------------------------------
    def s_en_minus_s0(self, x2):
        x2 = np.asarray(x2, dtype=float)
        out = np.zeros_like(x2)
        for n, a in self.s_modes:
            out += self.sigma * a * np.cos(n * np.pi * x2)
        return out

    def e_en_minus_e0(self, x2):
        x2 = np.asarray(x2, dtype=float)
        out = np.zeros_like(x2)
        for n, b in self.e_modes:
            out += self.sigma * b * np.cos(n * np.pi * x2)
        return out

    def e_en_d2(self, x2):
        """Second derivative of ``E_en - E0``."""
        x2 = np.asarray(x2, dtype=float)
        out = np.zeros_like(x2)
        for n, b in self.e_modes:
            out += -self.sigma * b * (n * np.pi) ** 2 * np.cos(n * np.pi * x2)
        return out

    def w_en(self, x2):
        x2 = np.asarray(x2, dtype=float)
        out = np.zeros_like(x2)
        for n, c in self.w_modes:
            out += self.sigma * c * np.sin(n * np.pi * x2)
        return out

    def w_en_d1(self, x2):
        x2 = np.asarray(x2, dtype=float)
        out = np.zeros_like(x2)
        for n, c in self.w_modes:
            out += self.sigma * c * n * np.pi * np.cos(n * np.pi * x2)
        return out

    def psi_inlet(self, x2):
        """Inlet potential trace ``integral_{-1}^{x2} w_en``."""
        x2 = np.asarray(x2, dtype=float)
        out = np.zeros_like(x2)
        for n, c in self.w_modes:
            out += self.sigma * c * ((-1.0) ** n - np.cos(n * np.pi * x2)) / (n * np.pi)
        return out

    # -- compatibility -------------------------------------------------------
    def compatibility_defect(self) -> float:
        """Worst wall value of the compatibility derivatives (exactly 0 here)."""

        def cos_deriv(modes, order, x2):
            # d/dx cos(wx) = -w sin(wx); d3/dx3 cos(wx) = +w^3 sin(wx)
            tot = 0.0
            for n, c in modes:
                w = n * np.pi
                val = -w * np.sin(w * x2) if order == 1 else w ** 3 * np.sin(w * x2)
                tot += self.sigma * c * val
            return tot

        worst = 0.0
        for x2 in (-1.0, 1.0):
            for order in (1, 3):
                worst = max(worst, abs(cos_deriv(self.s_modes, order, x2)))
                worst = max(worst, abs(cos_deriv(self.e_modes, order, x2)))
            for n, c in self.w_modes:
                w = n * np.pi
                for order in (0, 2, 4):
                    val = {0: np.sin(w * x2), 2: -(w ** 2) * np.sin(w * x2), 4: w ** 4 * np.sin(w * x2)}[order]
                    worst = max(worst, abs(self.sigma * c * val))
        return worst
