"""Admissible-parameter certification in the scaled speed variable.

Working with the speed ratio ``kappa = u1 / u_s`` removes all dimensional
constants from the phase-plane construction: the orbit invariant becomes
``E^2 = 2 u_s J * curly_F(kappa)`` and the logarithmic density slope
``rho'/rho = -sqrt(2) h0^(-3/2) J^((2-gamma)/(gamma+1)) * kappa_H(kappa)``.
The coercivity of the weighted energy identity behind the linearized
mixed-type solve reduces to positivity of a single function
``alpha(kappa) = omega1(kappa) G_star(kappa) - omega2(kappa)`` over the
almost-sonic window ``[kappa0, kappaL] = [1-d, 1+d]``, where the weight
exponent is ``eta = 3 gamma / 4`` in the small-momentum branch and
``gamma / 4`` in the large-momentum branch.

``certify_regime`` answers the per-J question "is there a window width d
for which min alpha > 0" by a geometric shrink-search; the sufficient
thresholds Jbar / Junderbar are never computed as universal constants
since no closed formulas exist for them.  The nozzle length of a window
follows from the same change of variables,
``L = sqrt(h0^3/2) J^((gamma-2)/(gamma+1)) sqrt(lambda)`` with
``lambda = (integral of 1/(kappa * kappa_H))^2``, and must agree with the
arclength between the same speeds measured on the 1D profile.  ``lambda``
is integrated like the background's arclength, with the same s-integrand
on composite Gauss-Legendre panels in ``s = sqrt(kappa_max - kappa)``,
split at the integrand's switch points, to about 1e-11 relative.

``kappa_H`` (exact Taylor data at kappa = 1), ``kappa_max`` and the
orbit s-integrand are the background's own, so the two lengths agree to
about 1e-13.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .background import KAPPA_SWITCH, GasParameters, kappa_H, kappa_max
from .background import NEAR_MAX_SWITCH, _curly_F_closed, _gl_panels, _orbit_s_integrand
from .errors import InputError
from .fields import write_csv_table

# Gauss-Legendre panels per piece of a lambda window.
_LAMBDA_PANELS = 4

# Shrink-search of ``certify_regime``: the window half-width starts at
# D_START and is multiplied by D_SHRINK down to D_MIN; each window is
# scanned at KAPPA_RESOLUTION with ENDPOINT_REFINE extra points per end.
D_START = 0.25
D_MIN = 1e-4
D_SHRINK = 0.5
KAPPA_RESOLUTION = 1e-3
ENDPOINT_REFINE = 8


def curly_F(kappa: float, params: GasParameters) -> float:
    """Scaled orbit integral ``integral_1^kappa (1 - t/zeta0)(1 - t^-(gamma+1)) dt``.

    In closed form (``background._curly_F_closed``); adaptive quadrature
    of the integral agrees to about 1e-13 relative.  Nonnegative on
    ``(0, kappa_max]`` where ``kappa_max = u_max / u_s``.
    """
    if not kappa > 0:
        raise InputError(f"kappa must be positive, got {kappa}")
    return float(_curly_F_closed(kappa, params))


def lambda_window(kappa0: float, kappaL: float, params: GasParameters) -> float:
    """Squared window integral ``(integral dkappa / (kappa * kappa_H))^2``.

    Integrated as ``integral 2 s ds / (kappa kappa_H(kappa))`` in
    ``s = sqrt(kappa_max - kappa)``, which stays smooth up to ``kappa_max``
    where ``kappa_H`` vanishes like ``s``, on the background's composite
    14-point Gauss-Legendre panels with the background's s-integrand
    (``background._orbit_s_integrand``): the window is split at 1 and
    ``1 +- KAPPA_SWITCH``, where ``kappa_H`` passes from its defining ratio
    to its exact Taylor form, and at the integrand's near-``kappa_max``
    switch; each piece gets 4 panels, so one vectorized integrand call
    covers the window.
    Agrees with a switch-split adaptive quadrature of the same integrand at
    ``epsrel=1e-13`` to about 1e-11 relative (worst measured 9e-12).

    Raises
    ------
    InputError
        If ``kappaL < kappa0``, or the window leaves the orbit range
        ``(0, kappa_max]``; an empty window in range gives 0.
    """
    if kappaL < kappa0:
        raise InputError(f"empty window: kappaL = {kappaL} < kappa0 = {kappa0}")
    kmax = kappa_max(params)
    if not (0 < kappa0 and kappaL <= kmax + 1e-12):
        raise InputError(f"window [{kappa0}, {kappaL}] beyond the orbit range (0, {kmax}]")
    if kappaL == kappa0:
        return 0.0
    switches = (1.0 - KAPPA_SWITCH, 1.0, 1.0 + KAPPA_SWITCH, kmax - NEAR_MAX_SWITCH * (kmax - 1.0))
    k = np.array([kappa0, *(b for b in switches if kappa0 < b < kappaL), kappaL])
    s = np.sqrt(np.maximum(kmax - k, 0.0))
    width = np.diff(k) / (s[:-1] + s[1:])  # s_a - s_b, free of cancellation
    edges = s[:-1, None] - width[:, None] * (np.arange(_LAMBDA_PANELS + 1) / _LAMBDA_PANELS)
    sm, ww = _gl_panels(edges[:, 1:].ravel(), edges[:, :-1].ravel())
    return float(np.sum(_orbit_s_integrand(sm, params) * ww)) ** 2


def nozzle_length(kappa0: float, kappaL: float, params: GasParameters) -> float:
    """Channel length spanned by the speed window ``[kappa0 u_s, kappaL u_s]``.

    ``L = sqrt(h0^3 / 2) J^((gamma-2)/(gamma+1)) sqrt(lambda(kappa0, kappaL))``
    at the momentum density ``params.J``; agrees with the arclength between
    the same speeds on the 1D profile; 0 for an empty window in the orbit range
    (:func:`lambda_window` checks the order and the range).
    """
    if kappaL > kappa0 and not (0 < kappa0 <= 1.0 <= kappaL):
        raise InputError(f"window must straddle 1: got [{kappa0}, {kappaL}]")
    J, h0, g = params.J, params.h0, params.gamma
    return np.sqrt(h0 ** 3 / 2.0) * J ** ((g - 2.0) / (g + 1.0)) * np.sqrt(
        lambda_window(kappa0, kappaL, params)
    )


def g_star(kappa, params: GasParameters, eta: float):
    """Scaled energy weight ``kappa^-eta h0^-eta J^((2-gamma+2 eta)/(gamma+1))``."""
    J, g, h0 = params.J, params.gamma, params.h0
    return np.asarray(kappa, dtype=float) ** (-eta) * h0 ** (-eta) * J ** ((2 - g + 2 * eta) / (g + 1))


def omega1(kappa, params: GasParameters, eta: float):
    """Coercive part of the energy coefficient (multiplies the weight)."""
    J, g, h0 = params.J, params.gamma, params.h0
    k = np.asarray(kappa, dtype=float)
    kh = kappa_H(k, params)
    bracket = (g - 1) * k ** (g + 1) + eta * (k ** (g + 1) - 1.0) + 2.0
    return (np.sqrt(2.0) / 2.0) * h0 ** -1.5 * kh * bracket - (2.0 / h0 ** (2 + eta)) * k ** (
        2 * g - eta
    ) * J ** ((2 * eta - g) / (g + 1))


def omega2(kappa, kappa0: float, kappaL: float, params: GasParameters, eta: float):
    """Coupling penalty (a square times positive factors, hence >= 0)."""
    J, g, h0 = params.J, params.gamma, params.h0
    k = np.asarray(kappa, dtype=float)
    lam = lambda_window(kappa0, kappaL, params)
    inner = (
        np.sqrt(2.0) * (g - 1) * h0 ** (1.5 - eta) * k ** (1 - eta) * kappa_H(k, params)
        * J ** ((2 * eta - g) / (g + 1))
        + 1.0
    )
    return (1.0 / h0) * k ** (2 * (g - 1)) * lam * J ** (2.0 / (g + 1)) * inner ** 2


def alpha_profile(kappa_grid, kappa0: float, kappaL: float, params: GasParameters, eta: float):
    """Energy coefficient ``alpha = omega1 * G_star - omega2`` on a ratio grid.

    Returns ``(values, min_value)``.
    """
    k = np.asarray(kappa_grid, dtype=float)
    vals = omega1(k, params, eta) * g_star(k, params, eta) - omega2(k, kappa0, kappaL, params, eta)
    return vals, float(np.min(vals))


@dataclass(frozen=True)
class RegimeReport:
    """Outcome of a per-J admissibility certificate."""

    eta: float
    J_regime: str  # "small", "large", or "uncertified"
    d: float
    kappa0: float
    kappaL: float
    alpha_min: float
    L: float
    certified: bool
    J: float

    def to_dict(self) -> dict:
        return {
            "eta": self.eta,
            "J_regime": self.J_regime,
            "d": self.d,
            "kappa0": self.kappa0,
            "kappaL": self.kappaL,
            "alpha_min": self.alpha_min,
            "L": self.L,
            "certified": self.certified,
            "J": self.J,
            "note": "per-J certificate; universal thresholds Jbar/Junderbar are not computed",
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def _window_grid(kappa0: float, kappaL: float) -> np.ndarray:
    """Scan grid at ``KAPPA_RESOLUTION`` plus refined endpoints."""
    n = max(9, int(np.ceil((kappaL - kappa0) / KAPPA_RESOLUTION)) + 1)
    base = np.linspace(kappa0, kappaL, n)
    step = (kappaL - kappa0) / (n - 1)
    fine = step / ENDPOINT_REFINE
    edges = np.concatenate(
        [kappa0 + fine * np.arange(ENDPOINT_REFINE + 1), kappaL - fine * np.arange(ENDPOINT_REFINE + 1)]
    )
    grid = np.sort(np.concatenate([base, edges]))
    return grid[np.r_[True, grid[1:] != grid[:-1]]]   # np.unique's rule; np.unique itself loads numpy.ma


def _report(params: GasParameters, eta: float, regime: str, d: float, alpha_min: float) -> RegimeReport:
    """The report of the window ``[1 - d, 1 + d]``, with its nozzle length."""
    k0, kL = 1.0 - d, 1.0 + d
    return RegimeReport(eta=eta, J_regime=regime, d=d, kappa0=k0, kappaL=kL, alpha_min=alpha_min,
                        L=nozzle_length(k0, kL, params), certified=alpha_min > 0, J=params.J)


def certify_regime(params: GasParameters) -> RegimeReport:
    """Search for a certifiable almost-sonic window at the momentum density ``params.J``.

    Tries the small-momentum weight exponent ``eta = 3 gamma / 4`` first,
    shrinking the half-width geometrically from ``D_START`` until the
    energy coefficient is positive on the whole window (grid scan at
    ``KAPPA_RESOLUTION`` plus endpoint refinement); falls back to the
    large-momentum exponent ``eta = gamma / 4``.  An uncertified report
    (the first scanned window with the largest minimum) is a valid outcome,
    not an error.  Only the returned window gets a report and a nozzle
    length.  A certificate at another J takes
    ``dataclasses.replace(params, J=J)``.
    """
    g = params.gamma
    kmax = kappa_max(params)
    best = None   # (alpha_min, eta, d) of the best uncertified window so far
    for eta, regime in ((0.75 * g, "small"), (0.25 * g, "large")):
        d = D_START
        while d >= D_MIN:
            k0, kL = 1.0 - d, 1.0 + d
            if kL < kmax:
                _, amin = alpha_profile(_window_grid(k0, kL), k0, kL, params, eta)
                if amin > 0:
                    return _report(params, eta, regime, d, amin)
                if best is None or amin > best[0]:
                    best = (amin, eta, d)
            d *= D_SHRINK
    assert best is not None
    amin, eta, d = best
    return _report(params, eta, "uncertified", d, amin)


def write_alpha_csv(path, kappa_grid, alpha_values) -> None:
    """Optional alpha-profile CSV (columns kappa, alpha)."""
    write_csv_table(path, "kappa,alpha", (kappa_grid, alpha_values))
