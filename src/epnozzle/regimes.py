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
arclength between the same speeds measured on the 1D profile.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .background import QUAD_ABS_TOL, QUAD_REL_TOL, GasParameters, STENCIL_REL
from .errors import InputError

# Taylor blending radius around kappa = 1 (same strategy as flux_F).
KAPPA_SWITCH = 1e-3


def _curly_F_closed(kappa, params: GasParameters):
    """Exact antiderivative of the scaled field balance integrand."""
    g, z = params.gamma, params.zeta0
    k = np.asarray(kappa, dtype=float)

    def anti(t):
        # integrand (1 - t/z)(1 - t^-(g+1)) = 1 - t/z - t^-(g+1) + t^-g / z
        return t - t ** 2 / (2 * z) + t ** (-g) / g + t ** (1 - g) / ((1 - g) * z)

    return anti(k) - anti(1.0)


def curly_F(kappa: float, params: GasParameters) -> float:
    """Scaled orbit integral ``integral_1^kappa (1 - t/zeta0)(1 - t^-(gamma+1)) dt``.

    Adaptive quadrature; nonnegative on ``(0, kappa_max]`` where
    ``kappa_max = u_max / u_s``.
    """
    if not kappa > 0:
        raise InputError(f"kappa must be positive, got {kappa}")
    g, z = params.gamma, params.zeta0
    out = quad(
        lambda t: (1 - t / z) * (1 - t ** -(g + 1)),
        1.0,
        kappa,
        epsabs=QUAD_ABS_TOL,
        epsrel=QUAD_REL_TOL,
        limit=400,
        full_output=1,
    )
    return out[0]


def kappa_H_sonic(params: GasParameters) -> float:
    """Closed form at the sonic ratio: ``sqrt(1 - 1/zeta0) / sqrt(2 (gamma+1))``."""
    return np.sqrt((1 - 1 / params.zeta0) / (2 * (params.gamma + 1)))


def _kappa_H_direct(kappa, params: GasParameters):
    """Defining ratio ``|kappa^(gamma-1) sqrt(curly_F) / (kappa^(gamma+1) - 1)|``."""
    g = params.gamma
    k = np.asarray(kappa, dtype=float)
    Fv = np.maximum(_curly_F_closed(k, params), 0.0)
    return np.abs(k ** (g - 1) * np.sqrt(Fv) / (k ** (g + 1) - 1.0))


def _sonic_expansion_kappa(params: GasParameters):
    """Divided-difference Taylor data of curly_F and kappa^(gamma+1) at kappa = 1."""
    g = params.gamma
    h = STENCIL_REL
    Fpp = (g + 1) * (1 - 1 / params.zeta0)
    F = lambda d: _curly_F_closed(1.0 + d, params)
    Fppp = (F(2 * h) - 2 * F(h) + 2 * F(-h) - F(-2 * h)) / (2 * h ** 3)
    Fpppp = (F(2 * h) - 4 * F(h) - 4 * F(-h) + F(-2 * h)) / h ** 4
    pw = lambda d: (1.0 + d) ** (g + 1) - 1.0
    Qd = lambda d: (pw(d) - (g + 1) * d) / d ** 2
    Q0 = 0.5 * (Qd(h) + Qd(-h))
    Q1 = (Qd(h) - Qd(-h)) / (2 * h)
    return Fpp, Fppp / 6.0, Fpppp / 24.0, Q0, Q1


def kappa_H(kappa, params: GasParameters):
    """Scaled acceleration profile ``kappa_H(kappa)``, regular through kappa = 1.

    Uses the defining ratio away from 1 and the Taylor-regularized form
    inside ``|kappa - 1| < 1e-3``; strictly positive wherever the scaled
    orbit integral is nonnegative.

    Raises
    ------
    InputError
        If ``curly_F(kappa) < 0`` (ratio beyond ``u_max / u_s``).
    """
    arr = np.atleast_1d(np.asarray(kappa, dtype=float))
    if np.any(arr <= 0):
        raise InputError("kappa must be positive")
    Fv = _curly_F_closed(arr, params)
    near = np.abs(arr - 1.0) < KAPPA_SWITCH
    if np.any(Fv[~near] < -1e-14 * (1 + params.zeta0)):
        raise InputError("kappa beyond the orbit range: curly_F < 0")
    out = np.empty_like(arr)
    if np.any(~near):
        out[~near] = _kappa_H_direct(arr[~near], params)
    if np.any(near):
        g = params.gamma
        Fpp, P0, P1, Q0, Q1 = _sonic_expansion_kappa(params)
        d = arr[near] - 1.0
        num = arr[near] ** (g - 1) * np.sqrt(np.maximum(0.5 * Fpp + d * (P0 + P1 * d), 0.0))
        out[near] = num / ((g + 1) + d * (Q0 + Q1 * d))
    return out[0] if np.ndim(kappa) == 0 else out


def kappa_max(params: GasParameters) -> float:
    """Upper end of the orbit in ratio units (``u_max / u_s``)."""
    z = params.zeta0
    hi = 10.0 * z
    for _ in range(60):
        if _curly_F_closed(hi, params) < 0:
            break
        hi *= 2.0
    return brentq(lambda k: _curly_F_closed(k, params), z * (1 + 1e-13), hi, xtol=1e-15, rtol=1e-13)


def _check_window(kappa0: float, kappaL: float, params: GasParameters) -> None:
    if not (0 < kappa0 <= 1.0 <= kappaL):
        raise InputError(f"window must straddle 1: got [{kappa0}, {kappaL}]")
    if kappaL > kappa_max(params) + 1e-12:
        raise InputError(f"kappaL = {kappaL} beyond the orbit range")


def lambda_window(kappa0: float, kappaL: float, params: GasParameters) -> float:
    """Squared window integral ``(integral dkappa / (kappa * kappa_H))^2``."""
    if kappaL <= kappa0:
        return 0.0
    out = quad(
        lambda k: 1.0 / (k * kappa_H(k, params)),
        kappa0,
        kappaL,
        epsabs=QUAD_ABS_TOL,
        epsrel=QUAD_REL_TOL,
        limit=400,
        points=[1.0] if kappa0 < 1.0 < kappaL else None,
        full_output=1,
    )
    return out[0] ** 2


def nozzle_length(kappa0: float, kappaL: float, params: GasParameters, J: float | None = None) -> float:
    """Channel length spanned by the speed window ``[kappa0 u_s, kappaL u_s]``.

    ``L = sqrt(h0^3 / 2) J^((gamma-2)/(gamma+1)) sqrt(lambda(kappa0, kappaL))``
    at momentum density ``J`` (default ``params.J``); agrees with the
    arclength between the same speeds on the 1D profile.
    """
    if kappaL < kappa0:
        raise InputError("empty window: kappaL < kappa0")
    if kappaL == kappa0:
        return 0.0
    _check_window(kappa0, kappaL, params)
    J = params.J if J is None else J
    h0, g = params.h0, params.gamma
    return np.sqrt(h0 ** 3 / 2.0) * J ** ((g - 2.0) / (g + 1.0)) * np.sqrt(
        lambda_window(kappa0, kappaL, params)
    )


def g_star(kappa, params: GasParameters, eta: float, J: float | None = None):
    """Scaled energy weight ``kappa^-eta h0^-eta J^((2-gamma+2 eta)/(gamma+1))``."""
    J = params.J if J is None else J
    g, h0 = params.gamma, params.h0
    return np.asarray(kappa, dtype=float) ** (-eta) * h0 ** (-eta) * J ** ((2 - g + 2 * eta) / (g + 1))


def omega1(kappa, params: GasParameters, eta: float, J: float | None = None):
    """Coercive part of the energy coefficient (multiplies the weight)."""
    J = params.J if J is None else J
    g, h0 = params.gamma, params.h0
    k = np.asarray(kappa, dtype=float)
    kh = kappa_H(k, params)
    bracket = (g - 1) * k ** (g + 1) + eta * (k ** (g + 1) - 1.0) + 2.0
    return (np.sqrt(2.0) / 2.0) * h0 ** -1.5 * kh * bracket - (2.0 / h0 ** (2 + eta)) * k ** (
        2 * g - eta
    ) * J ** ((2 * eta - g) / (g + 1))


def omega2(kappa, kappa0: float, kappaL: float, params: GasParameters, eta: float, J: float | None = None):
    """Coupling penalty (a square times positive factors, hence >= 0)."""
    J = params.J if J is None else J
    g, h0 = params.gamma, params.h0
    k = np.asarray(kappa, dtype=float)
    lam = lambda_window(kappa0, kappaL, params)
    inner = (
        np.sqrt(2.0) * (g - 1) * h0 ** (1.5 - eta) * k ** (1 - eta) * kappa_H(k, params)
        * J ** ((2 * eta - g) / (g + 1))
        + 1.0
    )
    return (1.0 / h0) * k ** (2 * (g - 1)) * lam * J ** (2.0 / (g + 1)) * inner ** 2


def alpha_profile(
    kappa_grid,
    kappa0: float,
    kappaL: float,
    params: GasParameters,
    eta: float,
    J: float | None = None,
):
    """Energy coefficient ``alpha = omega1 * G_star - omega2`` on a ratio grid.

    Returns ``(values, min_value)``.
    """
    k = np.asarray(kappa_grid, dtype=float)
    vals = omega1(k, params, eta, J) * g_star(k, params, eta, J) - omega2(
        k, kappa0, kappaL, params, eta, J
    )
    return vals, float(np.min(vals))


def alpha_sonic_limit(params: GasParameters, eta: float, J: float | None = None) -> float:
    """Vanishing-window limit of ``alpha`` at kappa = 1.

    ``h0^-eta J^((2-gamma+2 eta)/(gamma+1)) (h0^-1.5 sqrt((gamma+1)(1-1/zeta0))/2
    - 2 h0^-(2+eta) J^((2 eta-gamma)/(gamma+1)))``.
    """
    J = params.J if J is None else J
    g, h0, z = params.gamma, params.h0, params.zeta0
    return h0 ** (-eta) * J ** ((2 - g + 2 * eta) / (g + 1)) * (
        0.5 * h0 ** -1.5 * np.sqrt((g + 1) * (1 - 1 / z))
        - (2.0 / h0 ** (2 + eta)) * J ** ((2 * eta - g) / (g + 1))
    )


@dataclass(frozen=True)
class RegimeSearchConfig:
    """Shrink-search settings for the window half-width."""

    d_start: float = 0.25
    d_min: float = 1e-4
    d_shrink: float = 0.5
    kappa_resolution: float = 1e-3
    endpoint_refine: int = 8


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
    J: float = field(default=float("nan"))

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


def _window_grid(kappa0: float, kappaL: float, cfg: RegimeSearchConfig) -> np.ndarray:
    """Scan grid at the configured resolution plus refined endpoints."""
    n = max(9, int(np.ceil((kappaL - kappa0) / cfg.kappa_resolution)) + 1)
    base = np.linspace(kappa0, kappaL, n)
    step = (kappaL - kappa0) / (n - 1)
    fine = step / cfg.endpoint_refine
    edges = np.concatenate(
        [kappa0 + fine * np.arange(cfg.endpoint_refine + 1), kappaL - fine * np.arange(cfg.endpoint_refine + 1)]
    )
    return np.unique(np.concatenate([base, edges]))


def certify_regime(
    params: GasParameters,
    config: RegimeSearchConfig = RegimeSearchConfig(),
    J: float | None = None,
) -> RegimeReport:
    """Search for a certifiable almost-sonic window at the given momentum density.

    Tries the small-momentum weight exponent ``eta = 3 gamma / 4`` first,
    shrinking the half-width geometrically from ``d_start`` until the
    energy coefficient is positive on the whole window (grid scan at the
    configured resolution plus endpoint refinement); falls back to the
    large-momentum exponent ``eta = gamma / 4``.  An uncertified report
    (with the best minimum found) is a valid outcome, not an error.  The
    nozzle length is computed only for the window of the returned report.
    """
    J = params.J if J is None else J
    g = params.gamma
    kmax = kappa_max(params)
    best = None
    for eta, regime in ((0.75 * g, "small"), (0.25 * g, "large")):
        d = config.d_start
        while d >= config.d_min:
            k0, kL = 1.0 - d, 1.0 + d
            if kL >= kmax:
                d *= config.d_shrink
                continue
            grid = _window_grid(k0, kL, config)
            _, amin = alpha_profile(grid, k0, kL, params, eta, J)
            report = RegimeReport(
                eta=eta,
                J_regime=regime,
                d=d,
                kappa0=k0,
                kappaL=kL,
                alpha_min=amin,
                L=float("nan"),
                certified=amin > 0,
                J=J,
            )
            if report.certified:
                return replace(report, L=nozzle_length(k0, kL, params, J))
            if best is None or report.alpha_min > best.alpha_min:
                best = report
            d *= config.d_shrink
    assert best is not None
    return replace(best, J_regime="uncertified", L=nozzle_length(best.kappa0, best.kappaL, params, J))


def write_alpha_csv(path, kappa_grid, alpha_values) -> None:
    """Optional alpha-profile CSV (columns kappa, alpha)."""
    with open(path, "w") as fh:
        fh.write("kappa,alpha\n")
        for k, a in zip(kappa_grid, alpha_values):
            fh.write(f"{k:.17g},{a:.17g}\n")
