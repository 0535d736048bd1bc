"""Entropy transport along streamlines via the stream-function map.

The momentum field of an iterate is divergence-free up to discretization,
so its flux potential

    theta(x1, x2) = integral_{-1}^{x2} m.e1(x1, t) dt

is constant along streamlines and strictly increasing in ``x2`` whenever
the axial flux stays positive.  Matching flux values against the inlet
profile labels every point with the inlet height of its streamline (the
Lagrangian map); composing the inlet entropy data with that label solves
the advection problem ``m . grad T = 0`` without tracing a single
characteristic.  The RK4 streamline tracer that checks this lives with the
test oracles (``tests/oracles.py``).
"""

from __future__ import annotations

import warnings

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError, InputError
from .fields import Field2D, Grid
from .numerics import Pchip, cumulative_simpson

# Relative overshoot of the inlet flux range that is always clamped, even
# when the field's own top-wall divergence defect is smaller.
CLAMP_TOL = 1e-8


@dataclass
class StreamFunction:
    """Flux potential of a momentum field on the collocation grid."""

    theta: np.ndarray          # (n_x1, n_x2)
    inlet: np.ndarray          # theta(0, .)
    grid: Grid
    top_defect: float          # max_x1 |theta(x1, 1) - theta(0, 1)|
    monotone_margin: float     # min over the grid of m1


def stream_function(m1: np.ndarray, grid: Grid) -> StreamFunction:
    """Column-wise cumulative Simpson quadrature of the axial flux.

    Raises
    ------
    DegenerateStateError
        If the axial flux loses positivity anywhere.
    """
    if np.min(m1) <= 0:
        raise DegenerateStateError("axial momentum flux m.e1 lost positivity")
    theta = cumulative_simpson(m1, grid.x2)
    top = theta[:, -1]
    return StreamFunction(
        theta=theta,
        inlet=theta[0],
        grid=grid,
        top_defect=float(np.max(np.abs(top - top[0]))),
        monotone_margin=float(np.min(m1)),
    )


def lagrangian_map(sf: StreamFunction) -> np.ndarray:
    """Inlet streamline label of every grid point.

    Solves ``theta(0, label) = theta(x1, x2)`` per point on the
    monotone-cubic interpolant of the inlet profile: the monotone inverse
    interpolant ``x2(theta)`` gives the start value, and a Newton polish
    on the forward interpolant finishes it.  Targets may exit the inlet flux
    range by up to the field's own measured top-wall divergence defect
    (that overshoot *is* the defect, by the divergence theorem) plus the
    ``CLAMP_TOL`` floor; such excursions are clamped with a warning,
    anything larger is an error.
    """
    if sf.monotone_margin <= 0 or np.any(np.diff(sf.inlet) <= 0):
        raise DegenerateStateError("stream function is not strictly monotone across the channel")
    grid = sf.grid
    inlet = Pchip(grid.x2, sf.inlet)
    target = sf.theta
    lo_v, hi_v = sf.inlet[0], sf.inlet[-1]
    scale = max(hi_v - lo_v, 1e-300)
    over = np.maximum(target - hi_v, 0.0).max() / scale
    under = np.maximum(lo_v - target, 0.0).max() / scale
    excess = max(over, under)
    budget = max(CLAMP_TOL, 2.0 * sf.top_defect / scale)
    if excess > budget:
        raise InputError(
            f"stream-function target outside the inlet range by {excess:.3e} (relative), "
            f"beyond the divergence-defect budget {budget:.3e}"
        )
    if excess > 1e-13:
        warnings.warn(
            f"clamping stream-function targets outside the inlet range by {excess:.2e}",
            stacklevel=2,
        )
    tgt = np.clip(target, lo_v, hi_v)

    lab = Pchip(sf.inlet, grid.x2)(tgt)
    for _ in range(4):
        value, d = inlet.value_and_slope(lab)
        f = value - tgt
        step = np.where(d > 0, f / np.where(d > 0, d, 1.0), 0.0)
        lab = np.clip(lab - step, grid.x2[0], grid.x2[-1])
    resid = np.max(np.abs(inlet(lab) - tgt)) / scale
    if resid > 1e-10:
        raise DegenerateStateError(f"Lagrangian map inversion stalled (residual {resid:.3e})")
    return lab


def transport_entropy(s_en_minus_s0, label: np.ndarray, grid: Grid) -> Field2D:
    """Compose the inlet entropy perturbation with the streamline labels.

    ``s_en_minus_s0`` is a callable of ``x2``.  Returns the transported
    perturbation projected onto the cosine family; the inlet trace
    reproduces the data at the nodes to interpolation accuracy.
    """
    values = s_en_minus_s0(label)
    return Field2D.from_grid_values("cosine", values, grid)
