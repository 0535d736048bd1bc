"""Discrete stability of the linear step: the paper's first theorem on the grid.

The paper's first result is the well-posedness of the linear pair, an
elliptic-hyperbolic equation degenerate on an interface weakly coupled to
an elliptic one, and the viscosity continuation relies on a discrete
analogue: box solves bounded by their forcing as the grid refines at
``eps = c h^2``.  The measure is the largest singular value of the box
solve's map from the nodal forcings ``(F1, F2)`` to the nodal ``(v, v', w,
w') = (X1, X2, X4, X5)``, both in discrete L2 (the h weights cancel), on
the dense box system of ``tests/oracles.py``.
"""

import numpy as np
import pytest

from oracles import dense_box_system
from test_mixed_solver import CANON, _first_iterate_forcing

from epnozzle import BoundaryDataSpec, Grid, solve_background

SIZES = (51, 101, 201)
# Measured on the first canonical iterate at m = 0: 1.111, 1.152, 1.186 at
# eps = h^2 and 1.073, 1.122, 1.161 at 2 h^2, growing by at most 1.046 per
# doubling of n.  The bounds leave a margin of 0.054 on the growth and 18 %
# on the norm; an operator growing like sqrt(n) (1.41 per doubling) fails both.
GROWTH_MAX = 1.10
NORM_MAX = 1.4


@pytest.fixture(scope="module")
def bg():
    return solve_background(CANON, 0.9, resolution=601)


def solution_operator_norm(coeffs, eps: float) -> float:
    """Discrete-L2 norm of nodal ``(F1, F2) -> (X1, X2, X4, X5)`` of the one-mode box solve at ``eps``."""
    grid = coeffs.grid
    n, h = grid.n_x1, grid.h1
    zero = np.zeros((n, grid.n_x2))
    A, _ = dense_box_system(coeffs, zero, zero, eps)
    # cell i's rows 3 + 5i + p: its X3' row (p = 2) carries h/2 (F1(i) + F1(i + 1)), its X5' row F2's
    cells = np.arange(n - 1)
    B = np.zeros((5 * n, 2 * n))
    for p, first in ((2, 0), (4, n)):
        B[3 + 5 * cells + p, first + cells] = B[3 + 5 * cells + p, first + cells + 1] = h / 2
    X = np.linalg.solve(A, B).reshape(n, 5, 2 * n)
    return np.linalg.norm(X[:, [0, 1, 3, 4]].reshape(4 * n, 2 * n), 2)


@pytest.mark.parametrize("c", [1.0, 2.0])
def test_box_solution_operator_bounded_under_refinement(bg, c):
    one = ((1, 1.0),)
    bdata = BoundaryDataSpec(sigma=1e-4, s_modes=one, e_modes=one, w_modes=one)
    norms = []
    for n in SIZES:
        grid = Grid(L=bg.x1_at_speed(1.1 * CANON.u_s), n_x1=n, m=0)
        coeffs = _first_iterate_forcing(bg, grid, bdata)[0]
        norms.append(solution_operator_norm(coeffs, c * grid.h1 ** 2))
    assert max(norms) <= NORM_MAX, norms
    assert all(fine <= GROWTH_MAX * coarse for coarse, fine in zip(norms, norms[1:])), norms
