"""One-dimensional accelerating transonic base flow.

A steady polytropic charged-gas flow through a flat channel with constant
momentum density ``rho*u1 = J`` reduces, after eliminating the density, to
a planar ODE system for the speed ``u1(x1)`` and the electric field
``E(x1)``::

    u1' = E u1^gamma / (u1^(gamma+1) - u_s^(gamma+1)),
    E'  = J/u1 - rho_inf,

with the sonic speed ``u_s = (gamma S0 J^(gamma-1))^(1/(gamma+1))`` and the
far-field density ``rho_inf = J / u_bar_inf``.  Orbits conserve

    h(u, E) = E^2/2 - H(u),

where ``H`` integrates the field balance from the sonic speed (see
:func:`hamiltonian_H`).  The level set ``h = 0`` passes through the sonic
saddle ``(u_s, 0)``; its accelerating branch ``(u - u_s) E >= 0`` carries
the unique speed profile that starts subsonic, accelerates monotonically,
crosses the sonic speed smoothly at ``x1 = l_s`` and terminates with zero
acceleration at ``x1 = l_max`` where ``u1 = u_max``, the upper root of
``H``.  On that branch the system collapses to the scalar equation
``u1' = F(u1)`` with the flux function of :func:`flux_F`, which stays
smooth and positive through the sonic speed.

``H`` and ``F`` are scaled views of functions of ``kappa = u / u_s``:
``H = J u_s curly_F(kappa)`` and ``F = sqrt(2 J / u_s) kappa kappa_H(kappa)``.
``kappa_H`` crosses the sonic singularity by a Taylor form with exact
coefficients; it is the one implementation, which ``regimes`` imports.

The profile is constructed by quadrature of ``dx1 = du/F(u)``.  Because
``F`` vanishes like ``sqrt(u_max - u)`` at the right endpoint, the
integration variable is switched to ``s = sqrt(u_max - u)``, which makes
the integrand smooth on the whole range; composite Gauss-Legendre panels
then converge to machine precision.  Near ``u_max`` the integrand is
formed from ``s`` itself, not from ``u``, with ``curly_F`` written as
``s^2`` times a short Gauss-Legendre mean of its derivative (see
:func:`_orbit_s_integrand`), so it stays smooth and finite down to
``s = 0``.  Sample speeds come from a guarded Newton inversion of the
arclength map that stops at its noise floor and checks its residual.
The electric field is recovered from the invariant,
``E = sgn(u - u_s) sqrt(2 H(u))``, the potential from the Bernoulli head,
and the velocity potential by the same quadrature with an extra factor
``u``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError, InternalError
from .fields import write_csv_table
from .numerics import bisect

# Inside |kappa - 1| < KAPPA_SWITCH (kappa = u / u_s) the sonic function
# switches from its defining ratio to its Taylor form.
KAPPA_SWITCH = 1e-3

# Inside kappa_max - kappa < NEAR_MAX_SWITCH (kappa_max - 1) the orbit
# s-integrand switches from kappa_H to its cancellation-free form.
NEAR_MAX_SWITCH = 1e-2

# Newton inversion of the arclength map: step cap (the noise floor is
# reached in 3 steps, at most 4, on every gas tried) and residual bound
# relative to max(1, l_max).
_NEWTON_CAP = 8
_NEWTON_RESIDUAL_TOL = 1e-12

# Gauss-Legendre panels of the trajectory tables over the whole inlet
# s-range (each piece between breakpoints gets its share, at least 6).
_TRAJECTORY_PANELS = 320

# Largest accepted channel length l_max: an inlet speed u0 so small that
# l_max exceeds it is rejected.
L_MAX_CAP = 1e4

DEFAULT_RESOLUTION = 2001       # nodes of the uniform sample grid on [0, l_max]

_EVAL_BLOCK = 256   # stations per block of _Trajectory._eval: bounds its (block, 14) temporaries

# Gauss-Legendre rules on [-1, 1], written out as numpy's leggauss(14) and
# leggauss(5) return them, so that numpy.polynomial is never imported.
_GL_NODES = np.array([-0.9862838086968124, -0.9284348836635735, -0.827201315069765, -0.6872929048116855,
                      -0.5152486363581541, -0.31911236892788974, -0.10805494870734367, 0.10805494870734367,
                      0.31911236892788974, 0.5152486363581541, 0.6872929048116855, 0.827201315069765,
                      0.9284348836635735, 0.9862838086968124])
_GL_WEIGHTS = np.array([0.03511946033175175, 0.08015808715975999, 0.12151857068790331, 0.15720316715819363,
                        0.18553839747793788, 0.20519846372129572, 0.21526385346315793, 0.21526385346315793,
                        0.20519846372129572, 0.18553839747793788, 0.15720316715819363, 0.12151857068790331,
                        0.08015808715975999, 0.03511946033175175])
# 5 nodes integrate curly_F' over [kappa_max - delta, kappa_max] to about
# 1e-16 relative for delta < NEAR_MAX_SWITCH (kappa_max - 1).
_Q_NODES = np.array([-0.906179845938664, -0.5384693101056831, 0.0, 0.5384693101056831, 0.906179845938664])
_Q_WEIGHTS = np.array([0.23692688505618928, 0.4786286704993663, 0.5688888888888887, 0.4786286704993663,
                       0.23692688505618928])


def _gl_panels(a, b):
    """14-point Gauss-Legendre nodes and weights on the panels ``[a_i, b_i]`` (one row each)."""
    half = 0.5 * (b - a)[:, None]
    return 0.5 * (a + b)[:, None] + half * _GL_NODES, half * _GL_WEIGHTS


@dataclass(frozen=True)
class GasParameters:
    """Physical constants of the charged-gas model.

    Parameters
    ----------
    gamma : float
        Adiabatic exponent, > 1.
    zeta0 : float
        Inlet speed ratio ``u_bar_inf / u_s``, > 1.
    J : float
        Momentum density ``rho * u1``, > 0.
    S0 : float
        Entropy constant, > 0.
    E0 : float or None
        Inlet electric field, < 0.  Optional; when given it is
        cross-checked against the value implied by the inlet speed
        (the inlet state must lie on the accelerating critical orbit).
    """

    gamma: float
    zeta0: float
    J: float
    S0: float
    E0: float | None = None

    def __post_init__(self):
        if not self.gamma > 1:
            raise InputError(f"gamma must exceed 1, got {self.gamma}")
        if not self.zeta0 > 1:
            raise InputError(f"zeta0 must exceed 1, got {self.zeta0}")
        if not self.J > 0:
            raise InputError(f"J must be positive, got {self.J}")
        if not self.S0 > 0:
            raise InputError(f"S0 must be positive, got {self.S0}")
        if self.E0 is not None and not self.E0 < 0:
            raise InputError(f"E0 must be negative, got {self.E0}")
        for name in ("gamma", "zeta0", "J", "S0", "E0"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InputError(f"{name} must be finite, got {value}")

    @property
    def u_s(self) -> float:
        """Sonic speed ``(gamma S0 J^(gamma-1))^(1/(gamma+1))``."""
        return (self.gamma * self.S0 * self.J ** (self.gamma - 1)) ** (1.0 / (self.gamma + 1))

    @property
    def u_bar_inf(self) -> float:
        """Far-field speed ``zeta0 * u_s``."""
        return self.zeta0 * self.u_s

    @property
    def rho_bar_inf(self) -> float:
        """Far-field (ion) density ``J / u_bar_inf``."""
        return self.J / self.u_bar_inf

    @property
    def h0(self) -> float:
        """Scale constant ``(gamma S0)^(1/(gamma+1))`` so ``u_s = h0 J^((gamma-1)/(gamma+1))``."""
        return (self.gamma * self.S0) ** (1.0 / (self.gamma + 1))


def _curly_F_closed(kappa, params: GasParameters):
    """Scaled orbit integral ``integral_1^kappa (1 - t/zeta0)(1 - t^-(gamma+1)) dt`` in closed form.

    Each power of ``kappa = 1 + d`` enters through ``expm1(p * log1p(d))``,
    so the O(d^2) value near ``kappa = 1`` is not the difference of O(1)
    antiderivative values.
    """
    g, z = params.gamma, params.zeta0
    d = np.asarray(kappa, dtype=float) - 1.0
    ld = np.log1p(d)
    return d - d * (2.0 + d) / (2.0 * z) + np.expm1(-g * ld) / g - np.expm1((1.0 - g) * ld) / ((g - 1.0) * z)


@lru_cache(maxsize=64)
def _sonic_taylor(params: GasParameters):
    """Exact Taylor data of ``kappa_H`` at ``kappa = 1``, highest power first (``np.polyval`` order).

    With ``d = kappa - 1`` and ``f(t) = (1 - t/zeta0)(1 - t^-(gamma+1))``
    (so ``curly_F' = f``, ``f(1) = 0``) returns ``(num, den)`` with
    ``curly_F / d^2 = sum_{n=1}^{4} f^(n)(1) / (n+1)! d^(n-1)`` and
    ``(kappa^(gamma+1) - 1) / d = sum_{k=1}^{4} C(gamma+1, k) d^(k-1)``,
    both truncated after the ``d^3`` term.  Cached per gas, as read-only arrays.
    """
    g, z = params.gamma, params.zeta0
    n = np.arange(1.0, 5.0)
    # 1 - t^-(g+1) has n-th derivative (-1)^(n+1) (g+1)(g+2)...(g+n) at t = 1;
    # 1 - t/z is linear, so Leibniz keeps two terms of f^(n)
    b = np.concatenate([[0.0], np.cumprod(g + n) * (-1.0) ** (n - 1)])
    f_der = (1.0 - 1.0 / z) * b[1:] - n / z * b[:-1]
    num = f_der / np.cumprod(n + 1)
    den = np.cumprod((g + 2.0 - n) / n)
    num.flags.writeable = den.flags.writeable = False
    return num[::-1], den[::-1]


def kappa_H_sonic(params: GasParameters) -> float:
    """Closed form at the sonic ratio: ``sqrt(1 - 1/zeta0) / sqrt(2 (gamma+1))``."""
    return np.sqrt((1 - 1 / params.zeta0) / (2 * (params.gamma + 1)))


def _kappa_H_direct(kappa, params: GasParameters):
    """Defining ratio ``|kappa^(gamma-1) sqrt(curly_F) / (kappa^(gamma+1) - 1)|``.

    Raises ``InputError`` where ``curly_F < 0`` (beyond ``kappa_max``).
    """
    g = params.gamma
    k = np.asarray(kappa, dtype=float)
    Fv = _curly_F_closed(k, params)
    if np.any(Fv < -1e-14 * (1 + params.zeta0)):
        raise InputError("kappa beyond the orbit range: curly_F < 0")
    return np.abs(k ** (g - 1) * np.sqrt(np.maximum(Fv, 0.0)) / (k ** (g + 1) - 1.0))


def kappa_H(kappa, params: GasParameters):
    """Scaled acceleration profile ``kappa_H(kappa)``, regular through kappa = 1.

    The defining ratio away from 1; inside ``|kappa - 1| < KAPPA_SWITCH``
    the removable singularity is crossed with the exact Taylor data of
    :func:`_sonic_taylor`, which meet the ratio to about 1e-12 relative at
    the switch.  Strictly positive wherever the scaled orbit integral is
    nonnegative.  This is the one implementation of the sonic
    regularization: :func:`flux_F` is its scaled view.

    Raises
    ------
    InputError
        If ``kappa <= 0`` or ``curly_F(kappa) < 0`` (ratio beyond ``kappa_max``).
    """
    arr = np.atleast_1d(np.asarray(kappa, dtype=float))
    if np.any(arr <= 0):
        raise InputError("kappa must be positive")
    g = params.gamma
    near = np.abs(arr - 1.0) < KAPPA_SWITCH
    out = np.empty_like(arr)
    out[~near] = _kappa_H_direct(arr[~near], params)
    num, den = _sonic_taylor(params)
    d = arr[near] - 1.0
    out[near] = arr[near] ** (g - 1) * np.sqrt(np.maximum(np.polyval(num, d), 0.0)) / np.polyval(den, d)
    return out[0] if np.ndim(kappa) == 0 else out


@lru_cache(maxsize=64)
def kappa_max(params: GasParameters) -> float:
    """Upper end of the orbit in ratio units: the root of ``curly_F`` above ``zeta0``.

    ``curly_F`` peaks at ``zeta0`` and, for every ``gamma > 1`` and
    ``zeta0 > 1``, is below ``-38`` at ``10 zeta0`` (the integral of
    ``1 - t/zeta0`` there is ``-40 zeta0 - 1 + 1/(2 zeta0)``, and the
    ``t^-(gamma+1)`` part adds at most ``ln(10 zeta0)/zeta0 < 2.31``).  The
    closed form is bisected on that bracket to a sign change between
    adjacent floats, and the lower float is returned: the last at which
    the closed form is positive, so that it vanishes there to its own
    rounding, is still positive at ``kappa_max`` itself, and meets the
    near-``kappa_max`` form of :func:`_orbit_s_integrand`.

    Raises ``InputError`` if ``curly_F(zeta0)``, of order
    ``(zeta0 - 1)^3``, is not positive in floating point.
    """
    z = params.zeta0
    if not _curly_F_closed(z, params) > 0:
        raise InputError(f"zeta0 = {z!r} is too close to 1: curly_F(zeta0) is not positive in floating point")
    return float(bisect(lambda k: _curly_F_closed(k, params), z, 10.0 * z))


def _orbit_s_integrand(s, params: GasParameters):
    """Orbit integrand ``2 s / (kappa kappa_H(kappa))`` at ``kappa = kappa_max - s^2`` (any shape).

    This is ``dkappa / (kappa kappa_H)`` in the variable
    ``s = sqrt(kappa_max - kappa)``; it is smooth and positive on
    ``[0, sqrt(kappa_max)]``.  For ``delta = s^2`` below
    ``NEAR_MAX_SWITCH (kappa_max - 1)`` it is formed from ``delta``
    without going through ``kappa``: ``curly_F(kappa_max - delta) =
    delta Q(delta)`` with ``Q`` the mean of ``-f`` over
    ``[kappa_max - delta, kappa_max]`` (5-point Gauss-Legendre), ``f`` the
    derivative of ``curly_F``.  The factor ``s`` then cancels exactly::

        2 s / (kappa kappa_H) = 2 (kappa^(gamma+1) - 1) / (kappa^gamma sqrt(Q)).

    Away from ``kappa_max`` it is ``kappa_H``'s own ratio (sonic Taylor
    form included).  The two forms meet to about 1e-13 relative at the
    switch.  The one s-integrand of the background's arclength tables and
    of ``regimes.lambda_window``.
    """
    s = np.asarray(s, dtype=float)
    g, z = params.gamma, params.zeta0
    kmax = kappa_max(params)
    delta = s * s
    kappa = kmax - delta
    near = delta < NEAR_MAX_SWITCH * (kmax - 1.0)
    out = np.empty_like(s)
    far = ~near
    out[far] = 2.0 * s[far] / (kappa[far] * kappa_H(kappa[far], params))
    t = kmax - delta[near][:, None] * (0.5 * (1.0 + _Q_NODES))
    Q = -0.5 * (((1.0 - t / z) * (1.0 - t ** -(g + 1.0))) @ _Q_WEIGHTS)
    k = kappa[near]
    out[near] = 2.0 * (k ** (g + 1.0) - 1.0) / (k ** g * np.sqrt(Q))
    return out


def _H_closed(u, params: GasParameters):
    """Closed-form H, the scaled view ``J u_s curly_F(u / u_s)`` (vectorized)."""
    return params.J * params.u_s * _curly_F_closed(np.asarray(u, dtype=float) / params.u_s, params)


def hamiltonian_H(u: float, params: GasParameters) -> float:
    """Energy-like function H(u) driving the phase-plane invariant.

    ``H(u)`` is the integral of ``J/(u_bar_inf t^(gamma+1)) * (t^(gamma+1) -
    u_s^(gamma+1)) * (u_bar_inf - t)`` from the sonic speed to ``u``, in
    closed form (``J u_s curly_F(u / u_s)``); adaptive quadrature of the
    integral (``tests/oracles.py``) agrees to about 1e-13 relative.  ``H``
    has a double root at ``u_s``, is positive between 0 and ``u_max`` and
    negative beyond.

    Raises
    ------
    InputError
        If ``u <= 0``.
    """
    if not u > 0:
        raise InputError(f"speed must be positive, got {u}")
    return float(_H_closed(u, params))


def frak_h(u: float, E: float, params: GasParameters) -> float:
    """Phase-plane invariant ``E^2/2 - H(u)``; zero on the critical orbit."""
    return 0.5 * E ** 2 - hamiltonian_H(u, params)


def H_second_sonic(params: GasParameters) -> float:
    """Curvature ``H''(u_s) = (gamma+1) J (1/u_s - 1/u_bar_inf)`` (> 0)."""
    return (params.gamma + 1) * params.J * (1.0 / params.u_s - 1.0 / params.u_bar_inf)


def flux_F(u, params: GasParameters):
    """Acceleration flux ``F(u)`` of the reduced scalar equation ``u1' = F(u1)``.

    The scaled view ``sqrt(2 J / u_s) kappa kappa_H(kappa)`` at
    ``kappa = u / u_s`` of the defining ratio
    ``u^gamma sqrt(2 H) / |u^(gamma+1) - u_s^(gamma+1)|``; the removable
    sonic singularity is crossed by :func:`kappa_H`'s exact Taylor form
    inside ``|u - u_s| < KAPPA_SWITCH u_s``.  ``F(u_s)`` equals
    ``sqrt(J/(gamma+1) (1/u_s - 1/u_bar_inf))`` exactly.

    Accepts scalars or arrays; requires ``0 < u <= u_max`` (``InputError``
    otherwise).
    """
    kappa = np.asarray(u, dtype=float) / params.u_s
    return np.sqrt(2.0 * params.J / params.u_s) * kappa * kappa_H(kappa, params)


def flux_F_sonic(params: GasParameters) -> float:
    """Closed form ``F(u_s) = sqrt(J/(gamma+1) (1/u_s - 1/u_bar_inf))``."""
    return np.sqrt(2.0 * params.J / params.u_s) * kappa_H_sonic(params)


def u_max_root(params: GasParameters) -> float:
    """Terminal speed: the root of H above ``u_bar_inf``, ``u_s kappa_max``."""
    return params.u_s * kappa_max(params)


class _Trajectory:
    """Cumulative quadrature tables along the accelerating critical orbit.

    Integrates ``dx1 = du / F(u)`` and ``dphi = u du / F(u)`` in the
    endpoint-desingularizing variable ``s = sqrt(u_max - u)``, with
    ``u_max`` = :func:`u_max_root` (the orbit end the integrand assumes), over
    composite Gauss-Legendre panels whose breakpoints include the switch
    radii of the integrand (sonic and near-``u_max``).  The s-integrand is
    :func:`_orbit_s_integrand` scaled to speed units, smooth down to
    ``s = 0``.  Supports machine-accurate evaluation of ``x1(u)`` /
    ``phi(u)`` at arbitrary speeds (partial final panel) and of the
    inverse map by a guarded Newton iteration in ``s`` (:meth:`u_of_x1`).
    """

    def __init__(self, params: GasParameters, u0: float):
        self.params = params
        self.u0 = u0
        self.u_max = u_max = u_max_root(params)
        us = params.u_s
        s0 = np.sqrt(u_max - u0)
        # x1 = u_s / sqrt(2 J) times the ratio-unit integral, s_ratio = s / sqrt(u_s)
        self._scale = us / np.sqrt(2.0 * params.J)
        self._sqrt_us = np.sqrt(us)
        breaks = {0.0, s0}
        for v in ((1 - KAPPA_SWITCH) * us, us, (1 + KAPPA_SWITCH) * us):
            if u0 < v < u_max:
                breaks.add(np.sqrt(u_max - v))
        s_near = np.sqrt(us * NEAR_MAX_SWITCH * (kappa_max(params) - 1.0))
        if s_near < s0:
            breaks.add(s_near)
        breaks = sorted(breaks)
        edges = [0.0]
        for a, b in zip(breaks[:-1], breaks[1:]):
            ns = max(6, int(np.ceil((b - a) / s0 * _TRAJECTORY_PANELS)))
            edges.extend(np.linspace(a, b, ns + 1)[1:])
        self.edges = np.asarray(edges)
        sm, ww = _gl_panels(self.edges[:-1], self.edges[1:])
        g = self._integrand_x(sm) * ww
        self.cum_x = np.concatenate([[0.0], np.cumsum(g.sum(axis=1))])
        self.cum_phi = np.concatenate([[0.0], np.cumsum((g * (u_max - sm ** 2)).sum(axis=1))])
        self.s_inlet = s0
        self.l_max = float(self.cum_x[-1])
        self.phi_max = float(self.cum_phi[-1])

    def _eval(self, cum, s):
        """Cumulative integral from 0 to each s, any shape (exact partial final panel, block-independent)."""
        s = np.asarray(s, dtype=float)
        flat = s.ravel()
        idx = np.clip(np.searchsorted(self.edges, flat, side="right") - 1, 0, len(self.edges) - 2)
        out = cum[idx]
        for lo in range(0, flat.size, _EVAL_BLOCK):
            block = slice(lo, lo + _EVAL_BLOCK)
            sm, ww = _gl_panels(self.edges[idx[block]], flat[block])
            g = self._integrand_x(sm) * ww
            if cum is self.cum_phi:
                g *= self.u_max - sm ** 2
            out[block] += g.sum(axis=1)
        return out.reshape(s.shape)

    def _integrand_x(self, s):
        """``dx1/ds = 2 s / F(u_max - s^2)``, smooth down to ``s = 0``."""
        return self._scale * _orbit_s_integrand(s / self._sqrt_us, self.params)

    def x1_of_u(self, u):
        """Arclength from the inlet to speed ``u`` (vectorized)."""
        s = np.sqrt(np.maximum(self.u_max - np.asarray(u, dtype=float), 0.0))
        return self.l_max - self._eval(self.cum_x, s)

    def phi_of_u(self, u):
        """Velocity potential ``phi(x1(u)) = integral of u1 dx1`` (vectorized)."""
        s = np.sqrt(np.maximum(self.u_max - np.asarray(u, dtype=float), 0.0))
        return self.phi_max - self._eval(self.cum_phi, s)

    def u_of_x1(self, x1):
        """Invert the arclength map by guarded Newton iteration in s (vectorized).

        Starts from the linear interpolant of the tables and stops on the
        first step whose largest speed update ``|du|`` is at most
        ``1e-14 u_max`` or fails to fall tenfold from the step before (the
        noise floor).  Three steps reach it (at most four on every gas
        tried; the linear start is off by a few 1e-6 relative).  The final
        iterate must then meet ``|x1(s) - x1| <= 1e-12 max(1, l_max)``
        (measured worst 7.6e-16 relative).

        Raises
        ------
        InputError
            If some ``x1`` lies outside ``[0, l_max]``.
        InternalError
            If the residual gate fails (naming the station) or the
            iteration has not stopped within ``_NEWTON_CAP`` steps.
        """
        x1 = np.asarray(x1, dtype=float)
        if np.any(x1 < -1e-12) or np.any(x1 > self.l_max * (1 + 1e-12)):
            raise InputError("x1 outside [0, l_max]")
        target = self.l_max - np.clip(x1, 0.0, self.l_max)
        s = np.interp(target, self.cum_x, self.edges)
        r = self._eval(self.cum_x, s) - target
        du_prev = np.inf
        for _ in range(_NEWTON_CAP):
            s_new = np.clip(s - r / self._integrand_x(s), 0.0, self.s_inlet)
            du = np.max(np.abs((s - s_new) * (s + s_new)), initial=0.0)
            s = s_new
            r = self._eval(self.cum_x, s) - target
            if du <= 1e-14 * self.u_max or du > 0.1 * du_prev:
                break
            du_prev = du
        else:
            raise InternalError(f"arclength inversion did not stop within {_NEWTON_CAP} Newton steps")
        bound = _NEWTON_RESIDUAL_TOL * max(1.0, self.l_max)
        bad = np.flatnonzero(~(np.abs(r) <= bound))
        if bad.size:
            i = bad[0]
            raise InternalError(
                f"arclength inversion residual {r.flat[i]:.3e} at x1 = {x1.flat[i]:.17g} exceeds {bound:.1e}"
            )
        return self.u_max - s ** 2


@dataclass(frozen=True)
class BackgroundSolution:
    """Sampled accelerating transonic profile on ``[0, l_max]``.

    Carries the sampled fields together with the quadrature tables so the
    profile can be re-evaluated at arbitrary stations to machine accuracy
    (``evaluate``).
    """

    params: GasParameters
    u0: float
    E0: float
    u_max: float
    l_s: float
    l_max: float
    x1_nodes: np.ndarray
    u1: np.ndarray
    E: np.ndarray
    rho: np.ndarray
    Phi: np.ndarray
    phi_pot: np.ndarray
    hamiltonian_defect: float
    _traj: _Trajectory

    def __repr__(self) -> str:
        # the sampled arrays are left out: at resolution 601 they print as ~55 kB
        return (f"BackgroundSolution({self.params!r}, u0={self.u0!r}, l_max={self.l_max!r}, "
                f"samples={self.x1_nodes.size})")

    @property
    def u_s(self) -> float:
        return self.params.u_s

    def evaluate(self, x1) -> dict:
        """Profile fields at arbitrary stations ``x1`` in ``[0, l_max]``.

        Returns a dict with u1, du1 (= F(u1)), E, rho, Phi, phi_pot.
        """
        x1 = np.asarray(x1, dtype=float)
        u = self._traj.u_of_x1(x1)
        return {
            "u1": u,
            "du1": np.asarray(flux_F(u, self.params)),
            "E": _E_on_orbit(u, self.params),
            "rho": self.params.J / u,
            "Phi": _Phi_bernoulli(u, self.params),
            "phi_pot": self._traj.phi_of_u(u),
        }

    def x1_at_speed(self, u) -> float:
        """Station where the profile reaches speed ``u`` (arclength from the inlet)."""
        return float(self._traj.x1_of_u(u))

    def summary_dict(self) -> dict:
        return {
            "u_s": self.u_s,
            "u_max": self.u_max,
            "l_s": self.l_s,
            "l_max": self.l_max,
            "u0": self.u0,
            "E0": self.E0,
        }

    def write_csv(self, path) -> None:
        """Profile CSV with header ``x1,u1,E,rho,Phi,phi_pot``."""
        write_csv_table(path, "x1,u1,E,rho,Phi,phi_pot",
                        (self.x1_nodes, self.u1, self.E, self.rho, self.Phi, self.phi_pot))

    def write_summary(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.summary_dict(), fh, indent=2)
            fh.write("\n")


def _E_on_orbit(u, params: GasParameters):
    """Field along the accelerating orbit: ``sgn(u - u_s) sqrt(2 H(u))``."""
    H = np.maximum(_H_closed(u, params), 0.0)
    return np.sign(np.asarray(u) - params.u_s) * np.sqrt(2.0 * H)


def _Phi_bernoulli(u, params: GasParameters):
    """Potential via the Bernoulli head; equals the inlet constant plus the
    quadrature of E along the orbit (the two agree identically because
    E = d/dx1 of the head on the orbit)."""
    g, S0, J = params.gamma, params.S0, params.J
    u = np.asarray(u, dtype=float)
    return 0.5 * u ** 2 + g * S0 / (g - 1.0) * (J / u) ** (g - 1.0)


def solve_background(
    params: GasParameters,
    u0: float,
    resolution: int = DEFAULT_RESOLUTION,
) -> BackgroundSolution:
    """Construct the accelerating smooth transonic profile from inlet speed ``u0``.

    Parameters
    ----------
    params : GasParameters
    u0 : float
        Inlet speed, ``0 < u0 <= u_s``.  The inlet field is recomputed
        from the orbit relation ``E0 = -sqrt(2 H(u0))``; a user-supplied
        ``params.E0`` inconsistent beyond 1e-8 is rejected.
    resolution : int
        Node count of the uniform sample grid on ``[0, l_max]``; at least 2.

    Raises
    ------
    InputError
        For ``u0 > u_s``, non-positive ``u0``, ``resolution < 2``, an
        inconsistent ``E0``, or ``l_max`` beyond ``L_MAX_CAP``.
    """
    if not resolution >= 2:
        raise InputError(f"background resolution must be at least 2, got {resolution}")
    us = params.u_s
    if not 0 < u0 <= us:
        raise InputError(f"inlet speed u0 must lie in (0, u_s], got {u0} (u_s = {us})")
    E0 = float(-np.sqrt(2.0 * max(_H_closed(u0, params), 0.0)))
    if params.E0 is not None and abs(params.E0 - E0) > 1e-8 * max(1.0, abs(E0)):
        raise InputError(
            f"E0 = {params.E0} is not on the accelerating critical orbit "
            f"(orbit value for u0 = {u0} is {E0})"
        )
    traj = _Trajectory(params, u0)
    u_max = traj.u_max
    if traj.l_max > L_MAX_CAP:
        raise InputError(f"l_max = {traj.l_max} exceeds cap {L_MAX_CAP}; u0 too small")
    l_s = float(traj.x1_of_u(np.array([us]))[0])
    x1 = np.linspace(0.0, traj.l_max, int(resolution))
    u1 = traj.u_of_x1(x1)
    u1[0], u1[-1] = u0, u_max
    if np.any(np.diff(u1) <= 0):
        raise InternalError("sampled speed profile is not strictly increasing")
    E = _E_on_orbit(u1, params)
    E[0] = E0
    H = _H_closed(u1, params)
    defect = float(np.max(np.abs(0.5 * E ** 2 - H)) / max(1.0, abs(H_second_sonic(params))))
    return BackgroundSolution(
        params=params,
        u0=u0,
        E0=E0,
        u_max=u_max,
        l_s=l_s,
        l_max=traj.l_max,
        x1_nodes=x1,
        u1=u1,
        E=E,
        rho=params.J / u1,
        Phi=_Phi_bernoulli(u1, params),
        phi_pot=traj.phi_of_u(u1),
        hamiltonian_defect=defect,
        _traj=traj,
    )
