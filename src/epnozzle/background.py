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

The profile is constructed by quadrature of ``dx1 = du/F(u)``.  Because
``F`` vanishes like ``sqrt(u_max - u)`` at the right endpoint, the
integration variable is switched to ``s = sqrt(u_max - u)``, which makes
the integrand smooth on the whole range; composite Gauss-Legendre panels
then converge to machine precision.  The electric field is recovered from
the invariant, ``E = sgn(u - u_s) sqrt(2 H(u))``, the potential from the
Bernoulli head, and the velocity potential by the same quadrature with an
extra factor ``u``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import InputError, InternalError

# Adaptive quadrature tolerances used throughout (Gauss-Kronrod style).
QUAD_ABS_TOL = 1e-12
QUAD_REL_TOL = 1e-10

# Inside |u - u_s| < SWITCH_RADIUS_REL * u_s the flux function switches to
# its Taylor-regularized form; divided-difference stencils use this spacing.
SWITCH_RADIUS_REL = 1e-3
STENCIL_REL = 1e-4

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(14)


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


def _H_closed(u, params: GasParameters):
    """Exact antiderivative evaluation of H (vectorized fast path).

    Identical to :func:`hamiltonian_H` up to quadrature error; used in hot
    loops and pinned to the quadrature path by tests.
    """
    g, ub, us, J = params.gamma, params.u_bar_inf, params.u_s, params.J
    u = np.asarray(u, dtype=float)
    t1 = ub * (u - us) - (u ** 2 - us ** 2) / 2.0
    t2 = (ub / g) * (us ** (-g) - u ** (-g)) + (u ** (1 - g) - us ** (1 - g)) / (g - 1.0)
    return (J / ub) * (t1 - us ** (g + 1) * t2)


def hamiltonian_H(u: float, params: GasParameters) -> float:
    """Energy-like function H(u) driving the phase-plane invariant.

    ``H(u)`` integrates ``J/(u_bar_inf t^(gamma+1)) * (t^(gamma+1) -
    u_s^(gamma+1)) * (u_bar_inf - t)`` from the sonic speed to ``u`` by
    adaptive quadrature.  ``H`` has a double root at ``u_s``, is positive
    between 0 and ``u_max`` and negative beyond.

    Raises
    ------
    InputError
        If ``u <= 0``.
    """
    if not u > 0:
        raise InputError(f"speed must be positive, got {u}")
    g, ub, us, J = params.gamma, params.u_bar_inf, params.u_s, params.J

    def integrand(t):
        return (J / (ub * t ** (g + 1))) * (t ** (g + 1) - us ** (g + 1)) * (ub - t)

    out = quad(integrand, us, u, epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL, limit=400, full_output=1)
    val, abserr = out[0], out[1]
    if abserr > 1e-8 * max(1.0, abs(val)):
        raise InternalError(f"H quadrature failed to converge at u={u} (err {abserr:.2e})")
    return val


def frak_h(u: float, E: float, params: GasParameters) -> float:
    """Phase-plane invariant ``E^2/2 - H(u)``; zero on the critical orbit."""
    return 0.5 * E ** 2 - hamiltonian_H(u, params)


def H_second_sonic(params: GasParameters) -> float:
    """Curvature ``H''(u_s) = (gamma+1) J (1/u_s - 1/u_bar_inf)`` (> 0)."""
    return (params.gamma + 1) * params.J * (1.0 / params.u_s - 1.0 / params.u_bar_inf)


@lru_cache(maxsize=64)
def _sonic_expansion(params: GasParameters):
    """Divided-difference Taylor data for the regularized flux at the sonic speed.

    Returns (Hpp, P0, P1, Q0, Q1) for the local forms
    ``2H = Hpp d^2 + 2 d^3 (P0 + P1 d)`` and
    ``u^(g+1) - u_s^(g+1) = (g+1) u_s^g d + d^2 (Q0 + Q1 d)``, d = u - u_s.
    """
    us, g = params.u_s, params.gamma
    h = STENCIL_REL * us
    Hm2, Hm1, Hp1, Hp2 = _H_closed(np.array([us - 2 * h, us - h, us + h, us + 2 * h]), params)
    Hppp = (Hp2 - 2 * Hp1 + 2 * Hm1 - Hm2) / (2 * h ** 3)
    Hpppp = (Hp2 - 4 * Hp1 - 4 * Hm1 + Hm2) / h ** 4  # H(u_s) = 0 drops the center term
    pw = lambda d: (us + d) ** (g + 1) - us ** (g + 1)
    Qd = lambda d: (pw(d) - (g + 1) * us ** g * d) / d ** 2
    Q0 = 0.5 * (Qd(h) + Qd(-h))
    Q1 = (Qd(h) - Qd(-h)) / (2 * h)
    return H_second_sonic(params), Hppp / 6.0, Hpppp / 24.0, Q0, Q1


def _flux_F_direct(u, params: GasParameters):
    """Flux function away from the sonic speed: ``u^g sqrt(2H) / |u^(g+1) - u_s^(g+1)|``."""
    g, us = params.gamma, params.u_s
    u = np.asarray(u, dtype=float)
    H = np.maximum(_H_closed(u, params), 0.0)
    return u ** g * np.sqrt(2.0 * H) / np.abs(u ** (g + 1) - us ** (g + 1))


def _flux_F_taylor(u, params: GasParameters):
    """Regularized flux near the sonic speed from the local expansions."""
    g, us = params.gamma, params.u_s
    Hpp, P0, P1, Q0, Q1 = _sonic_expansion(params)
    d = np.asarray(u, dtype=float) - us
    num = u ** g * np.sqrt(Hpp + 2.0 * d * (P0 + P1 * d))
    den = (g + 1) * us ** g + d * (Q0 + Q1 * d)
    return num / den


def flux_F(u, params: GasParameters):
    """Acceleration flux ``F(u)`` of the reduced scalar equation ``u1' = F(u1)``.

    Outside ``|u - u_s| >= 1e-3 u_s`` the defining ratio is used; inside,
    the removable sonic singularity is crossed with the Taylor-regularized
    form, whose correction coefficients come from divided differences of H
    at spacing ``1e-4 u_s``.  ``F(u_s)`` equals
    ``sqrt(J/(gamma+1) (1/u_s - 1/u_bar_inf))`` exactly.

    Accepts scalars or arrays; requires ``0 < u`` and ``H(u) >= 0``.
    """
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(arr <= 0):
        raise InputError("speed must be positive")
    Hvals = _H_closed(arr, params)
    near = np.abs(arr - params.u_s) < SWITCH_RADIUS_REL * params.u_s
    # tolerate roundoff-negative H right at u_max
    neg_tol = 1e-13 * max(1.0, H_second_sonic(params) * params.u_s ** 2)
    if np.any(Hvals[~near] < -neg_tol):
        raise InputError("speed beyond u_max: H(u) < 0")
    out = np.empty_like(arr)
    if np.any(~near):
        out[~near] = _flux_F_direct(arr[~near], params)
    if np.any(near):
        out[near] = _flux_F_taylor(arr[near], params)
    return out[0] if np.isscalar(u) or np.ndim(u) == 0 else out


def flux_F_sonic(params: GasParameters) -> float:
    """Closed form ``F(u_s) = sqrt(J/(gamma+1) (1/u_s - 1/u_bar_inf))``."""
    return np.sqrt(params.J / (params.gamma + 1) * (1.0 / params.u_s - 1.0 / params.u_bar_inf))


def u_max_root(params: GasParameters) -> float:
    """Terminal speed: the root of H above ``u_bar_inf``.

    Brackets ``H`` on ``(u_bar_inf, 10 u_bar_inf)``, expanding the upper
    endpoint geometrically if needed, then bisects (Brent) to 1e-12
    relative.
    """
    ub = params.u_bar_inf
    lo = ub * (1 + 1e-13)
    hi = 10.0 * ub
    for _ in range(60):
        if _H_closed(hi, params) < 0:
            break
        hi *= 2.0
    else:
        raise InternalError("no sign change of H found above u_bar_inf")
    return brentq(lambda t: _H_closed(t, params), lo, hi, xtol=1e-15, rtol=1e-12)


class _Trajectory:
    """Cumulative quadrature tables along the accelerating critical orbit.

    Integrates ``dx1 = du / F(u)`` and ``dphi = u du / F(u)`` in the
    endpoint-desingularizing variable ``s = sqrt(u_max - u)`` over
    composite Gauss-Legendre panels whose breakpoints include the sonic
    switch radius.  Supports machine-accurate evaluation of ``x1(u)`` /
    ``phi(u)`` at arbitrary speeds (partial final panel) and of the
    inverse map by a guarded Newton iteration in ``s``.
    """

    def __init__(self, params: GasParameters, u0: float, u_max: float, n_panels: int = 320):
        self.params = params
        self.u0 = u0
        self.u_max = u_max
        us = params.u_s
        rsw = SWITCH_RADIUS_REL * us
        s0 = np.sqrt(u_max - u0)
        breaks = {0.0, s0}
        for v in (us - rsw, us, us + rsw):
            if u0 < v < u_max:
                breaks.add(np.sqrt(u_max - v))
        breaks = sorted(breaks)
        edges = [0.0]
        for a, b in zip(breaks[:-1], breaks[1:]):
            ns = max(6, int(np.ceil((b - a) / s0 * n_panels)))
            edges.extend(np.linspace(a, b, ns + 1)[1:])
        self.edges = np.asarray(edges)
        a = self.edges[:-1]
        b = self.edges[1:]
        sm, ww = _gl_panels(a, b)
        uu = u_max - sm ** 2
        g = 2.0 * sm / flux_F(uu, params)
        self.cum_x = np.concatenate([[0.0], np.cumsum((g * ww).sum(axis=1))])
        self.cum_phi = np.concatenate([[0.0], np.cumsum((g * uu * ww).sum(axis=1))])
        self.s_inlet = s0
        # endpoint limit of the s-integrand, used to guard s -> 0
        num = u_max ** (params.gamma + 1) - us ** (params.gamma + 1)
        Hp = (params.J / (params.u_bar_inf * u_max ** (params.gamma + 1))) * num * (params.u_bar_inf - u_max)
        self._g_origin = 2.0 * num / (u_max ** params.gamma * np.sqrt(2.0 * abs(Hp)))
        self.l_max = float(self._eval(self.cum_x, np.array([s0]))[0])

    def _eval(self, cum, s):
        """Cumulative integral from 0 to each s (exact partial final panel)."""
        s = np.asarray(s, dtype=float)
        idx = np.clip(np.searchsorted(self.edges, s, side="right") - 1, 0, len(self.edges) - 2)
        a = self.edges[idx]
        sm, ww = _gl_panels(a, s)
        uu = self.u_max - sm ** 2
        g = self._integrand_x(sm.ravel()).reshape(sm.shape)
        partial = (g * ww).sum(axis=1) if cum is self.cum_x else (g * uu * ww).sum(axis=1)
        return cum[idx] + partial

    def _integrand_x(self, s):
        s = np.asarray(s, dtype=float)
        out = np.full(s.shape, self._g_origin)
        big = s > 1e-9 * self.s_inlet
        if np.any(big):
            out[big] = 2.0 * s[big] / flux_F(self.u_max - s[big] ** 2, self.params)
        return out

    def x1_of_u(self, u):
        """Arclength from the inlet to speed ``u`` (vectorized)."""
        s = np.sqrt(np.maximum(self.u_max - np.asarray(u, dtype=float), 0.0))
        return self._eval(self.cum_x, np.full_like(s, self.s_inlet)) - self._eval(self.cum_x, s)

    def phi_of_u(self, u):
        """Velocity potential ``phi(x1(u)) = integral of u1 dx1`` (vectorized)."""
        s = np.sqrt(np.maximum(self.u_max - np.asarray(u, dtype=float), 0.0))
        return self._eval(self.cum_phi, np.full_like(s, self.s_inlet)) - self._eval(self.cum_phi, s)

    def u_of_x1(self, x1):
        """Invert the arclength map by Newton iteration in s (vectorized)."""
        x1 = np.asarray(x1, dtype=float)
        if np.any(x1 < -1e-12) or np.any(x1 > self.l_max * (1 + 1e-12)):
            raise InputError("x1 outside [0, l_max]")
        target = self._eval(self.cum_x, np.array([self.s_inlet]))[0] - np.clip(x1, 0.0, self.l_max)
        s = np.interp(target, self.cum_x, self.edges)
        for _ in range(60):
            r = self._eval(self.cum_x, s) - target
            step = r / self._integrand_x(s)
            s = np.clip(s - step, 0.0, self.s_inlet)
            if np.max(np.abs(step)) < 1e-15 * max(1.0, self.s_inlet):
                break
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
        return float(self._traj.x1_of_u(np.atleast_1d(np.asarray(u, dtype=float)))[0])

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
        cols = [self.x1_nodes, self.u1, self.E, self.rho, self.Phi, self.phi_pot]
        with open(path, "w") as fh:
            fh.write("x1,u1,E,rho,Phi,phi_pot\n")
            for row in zip(*cols):
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

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
    resolution: int = 2001,
    l_max_cap: float = 1e4,
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
        Node count of the uniform sample grid on ``[0, l_max]``.

    Raises
    ------
    InputError
        For ``u0 > u_s``, non-positive ``u0``, an inconsistent ``E0``, or
        ``l_max`` beyond ``l_max_cap``.
    """
    us = params.u_s
    if not 0 < u0 <= us:
        raise InputError(f"inlet speed u0 must lie in (0, u_s], got {u0} (u_s = {us})")
    E0 = float(-np.sqrt(2.0 * max(_H_closed(u0, params), 0.0)))
    if params.E0 is not None and abs(params.E0 - E0) > 1e-8 * max(1.0, abs(E0)):
        raise InputError(
            f"E0 = {params.E0} is not on the accelerating critical orbit "
            f"(orbit value for u0 = {u0} is {E0})"
        )
    u_max = u_max_root(params)
    traj = _Trajectory(params, u0, u_max)
    if traj.l_max > l_max_cap:
        raise InputError(f"l_max = {traj.l_max} exceeds cap {l_max_cap}; u0 too small")
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
