"""Linearized-problem data for one iterate of the coupled solve.

The velocity split ``u = grad(phibar + psi) + curl(phi)`` turns the
nonlinear channel system into equations for the perturbation quadruple
``(psi, phi, Psi, T)``.  Freezing an iterate ``P = (phi, psi, Psi)`` and
an entropy perturbation ``T`` yields a linear mixed-type problem whose
coefficients and right-hand sides are assembled here on the collocation
grid:

* principal data ``a11 = A11/A22``, ``a12 = A12/A22`` (``a22 = 1``) from
  ``A_ij = (gamma-1)(Phibar + Psi - |v|^2/2) delta_ij - v_i v_j``;
* drift/coupling profiles ``a``, ``b1``, ``b0`` and the x1-only
  profiles ``c0 = 1/(gamma S0 rhobar^(gamma-2))``, ``c1 = -ubar1 c0``;
* forcings ``f1`` (quadratic remainder of the momentum split), ``f2``
  (density remainder beyond its linearization), ``f3`` (baroclinic
  source of the rotational potential).

All products are formed pointwise on the oversampled collocation grid and
projected back where a modal representation is needed, so mode coupling
is dealiased exactly.  The split velocity of an iterate is synthesized
once, by :func:`collocate`; assembly, the momentum field and the smallness
checks read that ``Collocated`` view.  Assembly validates the
admissibility region (smallness bounds and the positivity floor of
``A22``) and the structural wall conditions before returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .background import BackgroundSolution
from .errors import AdmissibilityError, DegenerateStateError
from .fields import Field2D, Grid

# Fraction of the background minimum that A22 may lose before the state
# counts as degenerate.
A22_FLOOR_REL = 1e-6

# Smallness radii tried by ``default_d0``, largest first.
D0_CANDIDATES = (0.2, 0.1, 0.05, 0.025, 0.0125)

# Wall tolerance of ``verify_structure`` on a12, relative to max(1, |a11|).
WALL_TOL_SCALE = 1e-9


@dataclass
class FlowState:
    """Perturbation quadruple of the velocity-split system."""

    psi: Field2D    # compressible potential perturbation (cosine parity)
    phi: Field2D    # rotational potential (dirichlet parity)
    Psi: Field2D    # electric potential perturbation (cosine parity)
    T: Field2D      # entropy perturbation (cosine parity)

    @classmethod
    def zeros(cls, grid: Grid) -> "FlowState":
        return cls(*(Field2D.zeros(parity, grid) for parity in ("cosine", "dirichlet", "cosine", "cosine")))

    @property
    def grid(self) -> Grid:
        return self.psi.grid

    def fields(self):
        return (self.psi, self.phi, self.Psi, self.T)

    def amplitude_norms(self) -> dict:
        return {
            "sup_Psi": self.Psi.sup_norm(),
            "sup_Dpsi": self.psi.grad_sup_norm(),
            "sup_Dphi": self.phi.grad_sup_norm(),
            "sup_T": self.T.sup_norm(),
            "h1": float(np.sqrt(sum(f.h1_norm() ** 2 for f in self.fields()))),
        }

    def blend(self, update: "FlowState", theta: float) -> "FlowState":
        """Damped combination ``theta * update + (1 - theta) * self``."""
        return FlowState(*(theta * new + (1 - theta) * old for new, old in zip(update.fields(), self.fields())))

    def h1_distance(self, other: "FlowState") -> float:
        return float(
            np.sqrt(sum((a - b).h1_norm() ** 2 for a, b in zip(self.fields(), other.fields())))
        )


@dataclass
class BackgroundProfile:
    """Background quantities sampled on the station grid (vectors over x1).

    Built once per solve by ``background_profile``: the fixed-point map
    linearizes about this one background, so every per-iterate view carries
    the profile (which also carries the background and the grid).
    """

    bg: BackgroundSolution
    grid: Grid
    u1: np.ndarray
    du1: np.ndarray
    E: np.ndarray
    rho: np.ndarray
    Phi: np.ndarray
    A22: np.ndarray        # (gamma-1)(Phibar - u1^2/2) = gamma S0 rhobar^(gamma-1)
    a11: np.ndarray        # 1 - (u1/u_s)^(gamma+1)
    c0: np.ndarray
    c1: np.ndarray


def background_profile(bg: BackgroundSolution, grid: Grid) -> BackgroundProfile:
    """Evaluate the 1D profile and derived x1-profiles at the grid stations."""
    p = bg.params
    data = bg.evaluate(grid.x1)
    u1 = data["u1"]
    A22 = p.gamma * p.S0 * p.J ** (p.gamma - 1) / u1 ** (p.gamma - 1)
    c0 = 1.0 / (p.gamma * p.S0 * data["rho"] ** (p.gamma - 2))
    return BackgroundProfile(
        bg=bg,
        grid=grid,
        u1=u1,
        du1=data["du1"],
        E=data["E"],
        rho=data["rho"],
        Phi=data["Phi"],
        A22=A22,
        a11=1.0 - (u1 / p.u_s) ** (p.gamma + 1),
        c0=c0,
        c1=-u1 * c0,
    )


@dataclass
class CoefficientSet:
    """Assembled linear-problem data for one iterate (grid fields)."""

    a11: np.ndarray
    a12: np.ndarray
    a: np.ndarray
    b1: np.ndarray
    b0: np.ndarray
    c0: np.ndarray          # x1 profile
    c1: np.ndarray          # x1 profile
    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray
    A22: np.ndarray
    grid: Grid
    profile: BackgroundProfile

    def det_principal(self) -> np.ndarray:
        """Type indicator ``det = a11 - a12^2`` (elliptic > 0 > hyperbolic)."""
        return self.a11 - self.a12 ** 2


def default_d0(prof: BackgroundProfile) -> float:
    """Largest of ``D0_CANDIDATES`` keeping A22 above half its background minimum.

    Probes the extreme corner ``z = -d``, ``v1 = u1 + 2d``, ``v2 = 2d`` of
    the admissible box over all stations.
    """
    p = prof.bg.params
    floor = 0.5 * np.min(prof.A22)
    for d in D0_CANDIDATES:
        worst = (p.gamma - 1) * (prof.Phi - d - 0.5 * ((prof.u1 + 2 * d) ** 2 + (2 * d) ** 2)) - (
            2 * d
        ) ** 2
        if np.min(worst) >= floor:
            return d
    return D0_CANDIDATES[-1]


class Collocated(NamedTuple):
    """An iterate with its split velocity ``v = grad(phibar + psi) + curl(phi)`` on the grid.

    Built once per iterate by :func:`collocate`; every per-iterate helper
    reads it instead of synthesizing the velocity again.  T does not enter
    the velocity, so ``view._replace(state=replace(view.state, T=T_new))``
    is the view of the state with a new entropy perturbation.
    """

    state: FlowState
    prof: BackgroundProfile
    p1: np.ndarray      # d1 psi
    p2: np.ndarray      # d2 psi
    q1: np.ndarray      # d2 phi (x1 component of curl phi)
    q2: np.ndarray      # d1 phi (minus the x2 component of curl phi)
    v1: np.ndarray
    v2: np.ndarray
    Psi: np.ndarray
    head: np.ndarray    # Phibar + Psi - |v|^2/2


def collocate(state: FlowState, prof: BackgroundProfile) -> Collocated:
    """Synthesize the split velocity of an iterate and the Bernoulli head."""
    p1, p2 = state.psi.d1(), state.psi.d2()
    q1, q2 = state.phi.d2(), state.phi.d1()
    v1 = prof.u1[:, None] + p1 + q1
    v2 = p2 - q2
    Psi = state.Psi.values()
    head = prof.Phi[:, None] + Psi - 0.5 * (v1 ** 2 + v2 ** 2)
    return Collocated(state, prof, p1, p2, q1, q2, v1, v2, Psi, head)


def check_smallness(view: Collocated, d0: float) -> dict:
    """Admissibility margins (positive = satisfied, 0 = boundary case).

    Returns ``{"perturbation": d0 - max(|Psi|, |Dpsi|, |Dphi|),
    "entropy": S0/2 - max|T|, "forward_flow": min v.e1 - u0/2}``, with the
    sup norms taken on the collocation grid.
    """
    pert = max(np.max(np.abs(view.Psi)), np.max(np.hypot(view.p1, view.p2)),
               np.max(np.hypot(view.q2, view.q1)))
    return {
        "perturbation": d0 - float(pert),
        "entropy": view.prof.bg.params.S0 / 2.0 - view.state.T.sup_norm(),
        "forward_flow": float(np.min(view.v1)) - view.prof.bg.u0 / 2.0,
    }


def require_admissible(view: Collocated, d0: float, context: str = "") -> dict:
    """Return the margins, or raise ``AdmissibilityError`` naming the negative ones."""
    margins = check_smallness(view, d0)
    bad = [k for k, v in margins.items() if v < 0]
    if bad:
        raise AdmissibilityError(
            f"state violates smallness bound(s) {bad} (margins {margins})"
            + (f" {context}" if context else "")
        )
    return margins


def varrho(T, Psi_plus_Phibar, v_sq, params) -> np.ndarray:
    """Density law ``((gamma-1)/(gamma (S0+T)) (Phi - |v|^2/2))^(1/(gamma-1))``."""
    base = (params.gamma - 1) / (params.gamma * (params.S0 + T)) * (Psi_plus_Phibar - 0.5 * v_sq)
    if np.any(base <= 0):
        raise DegenerateStateError("density law evaluated outside its domain (negative base)")
    return base ** (1.0 / (params.gamma - 1))


def assemble_coefficients(view: Collocated, d0: float) -> CoefficientSet:
    """Evaluate all coefficient and forcing fields at the iterate ``view.state``.

    Raises
    ------
    AdmissibilityError
        If a smallness bound fails (named in the message).
    DegenerateStateError
        If ``A22`` drops below its positivity floor.
    """
    require_admissible(view, d0)
    state, prof, p1, _, q1, _, v1, v2, Psi, head = view
    p = prof.bg.params
    T = state.T.values()
    A11 = (p.gamma - 1) * head - v1 ** 2
    A12 = -v1 * v2
    A22 = (p.gamma - 1) * head - v2 ** 2

    floor = A22_FLOOR_REL * p.gamma * p.S0 * p.J ** (p.gamma - 1) / prof.bg.u_max ** (p.gamma - 1)
    if np.min(A22) < floor:
        raise DegenerateStateError(
            f"near-vacuum/degenerate state: min A22 = {np.min(A22):.3e} < floor {floor:.3e}"
        )

    drift = prof.E - (p.gamma + 1) * prof.du1 * prof.u1     # x1 profile
    a = drift[:, None] / A22
    b1 = prof.u1[:, None] / A22
    b0 = (p.gamma - 1) * prof.du1[:, None] / A22

    # quadratic remainder of the momentum split
    dPsi1, dPsi2 = state.Psi.d1(), state.Psi.d2()
    Q1 = 0.5 * (p.gamma + 1) * prof.du1[:, None] * (p1 + q1) ** 2 - (
        dPsi1 * (p1 + q1) + dPsi2 * v2
    )
    # D(curl phi) = [[d12 phi, -d11 phi], [d22 phi, -d12 phi]]
    ph12, ph11, ph22 = state.phi.d12(), state.phi.d11(), state.phi.d22()
    vMv = v1 ** 2 * ph12 + v1 * v2 * (ph22 - ph11) - v2 ** 2 * ph12
    R1 = vMv - drift[:, None] * q1
    f1 = (Q1 + R1) / A22

    rho_pert = varrho(T, prof.Phi[:, None] + Psi, v1 ** 2 + v2 ** 2, p)
    # base density through the same expression so f2 vanishes identically
    # at the unperturbed state (the Bernoulli identity makes it equal J/u1);
    # it depends on x1 only, so it is one column broadcast across x2
    rho_base = varrho(0.0, prof.Phi[:, None], (prof.u1 ** 2)[:, None], p)
    f2 = rho_pert - rho_base - prof.c0[:, None] * Psi - prof.c1[:, None] * p1

    if np.min(v1) <= 0:
        raise DegenerateStateError("forward speed v.e1 lost positivity")
    f3 = head * state.T.d2() / (p.gamma * (p.S0 + T) * v1)

    coeffs = CoefficientSet(
        a11=A11 / A22,
        a12=A12 / A22,
        a=a,
        b1=b1,
        b0=b0,
        c0=prof.c0,
        c1=prof.c1,
        f1=f1,
        f2=f2,
        f3=f3,
        A22=A22,
        grid=prof.grid,
        profile=prof,
    )
    verify_structure(coeffs)
    return coeffs


def verify_structure(coeffs: CoefficientSet) -> None:
    """Assert the structural wall conditions of an assembled set.

    ``a12`` must vanish at the walls; the wall-normal derivative of
    ``a11, a, b1, b0`` must vanish there (checked with a one-sided
    second-order stencil, so the tolerance carries an O(h^2) term).
    """
    g = coeffs.grid
    scale = max(1.0, np.max(np.abs(coeffs.a11)))
    wall_tol = WALL_TOL_SCALE * scale
    a12_wall = max(np.max(np.abs(coeffs.a12[:, 0])), np.max(np.abs(coeffs.a12[:, -1])))
    if a12_wall > wall_tol + 1e-12:
        raise AdmissibilityError(f"a12 does not vanish at the walls (max {a12_wall:.3e})")
    h2 = g.x2[1] - g.x2[0]
    fd_tol = 50.0 * h2 ** 2 * scale + 1e-9
    for name in ("a11", "a", "b1", "b0"):
        f = getattr(coeffs, name)
        lo = np.abs(-1.5 * f[:, 0] + 2.0 * f[:, 1] - 0.5 * f[:, 2]) / h2
        hi = np.abs(1.5 * f[:, -1] - 2.0 * f[:, -2] + 0.5 * f[:, -3]) / h2
        worst = max(np.max(lo), np.max(hi))
        if worst > fd_tol * max(1.0, np.max(np.abs(f))):
            raise AdmissibilityError(f"wall-normal derivative of {name} nonzero at walls ({worst:.3e})")


def momentum_field(view: Collocated):
    """Pseudo momentum density ``m = (Phibar + Psi - |v|^2/2)^(1/(gamma-1)) v``.

    Returns ``(m1, m2)`` on the collocation grid.  Note the normalization: at
    the background state ``m = (gamma S0/(gamma-1))^(1/(gamma-1)) J e1``
    (constant), a fixed multiple of the true momentum ``rho u``; the
    multiple cancels in the streamline construction.  Admissibility is not
    checked here: the fixed-point driver checks every iterate it accepts.
    """
    if np.any(view.head <= 0):
        raise DegenerateStateError("momentum density base lost positivity")
    dens = view.head ** (1.0 / (view.prof.bg.params.gamma - 1))
    return dens * view.v1, dens * view.v2
