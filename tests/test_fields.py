"""Spectral representation: round trips, quadrature exactness, differentiation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epnozzle import Field2D, Grid, InputError

GRID = Grid(L=0.6, n_x1=41, m=8)


class TestGrid:
    def test_collocation_is_oversampled(self):
        assert GRID.n_x2 - 1 >= 2 * (GRID.m + 1)

    def test_quadrature_weights_sum_to_measure(self):
        assert GRID.w2.sum() == pytest.approx(2.0)
        assert GRID.w1.sum() == pytest.approx(GRID.L)

    def test_orthonormality_of_galerkin_basis(self):
        gram = (GRID.eta_basis * GRID.w2[:, None]).T @ GRID.eta_basis
        assert np.max(np.abs(gram - np.eye(GRID.n_cos))) < 1e-12

    def test_dirichlet_family_orthogonal(self):
        gram = (GRID.dir_basis * GRID.w2[:, None]).T @ GRID.dir_basis
        assert np.max(np.abs(gram - np.eye(GRID.n_dir))) < 1e-12

    def test_triple_product_quadrature_exact(self):
        # worst-frequency triple product still integrated exactly
        f = GRID.cos_basis[:, -1] * GRID.dir_basis[:, -1] * GRID.cos_basis[:, -1]
        xg, wg = np.polynomial.legendre.leggauss(600)
        ref = (
            np.cos(GRID.m * np.pi * xg) ** 2 * np.sin(GRID.n_dir * np.pi * (xg + 1) / 2)
        ) @ wg
        assert (f @ GRID.w2) == pytest.approx(ref, abs=1e-13)

    def test_bad_grid_rejected(self):
        with pytest.raises(InputError):
            Grid(L=-1.0, n_x1=41, m=4)


class TestField2D:
    def test_round_trip_cosine(self):
        rng = np.random.default_rng(7)
        modes = rng.standard_normal((GRID.n_x1, GRID.n_cos))
        f = Field2D("cosine", modes, GRID)
        back = Field2D.from_grid_values("cosine", f.values(), GRID)
        assert np.max(np.abs(back.modes - modes)) < 1e-12

    def test_round_trip_dirichlet(self):
        rng = np.random.default_rng(8)
        modes = rng.standard_normal((GRID.n_x1, GRID.n_dir))
        f = Field2D("dirichlet", modes, GRID)
        back = Field2D.from_grid_values("dirichlet", f.values(), GRID)
        assert np.max(np.abs(back.modes - modes)) < 1e-12

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        parity=st.sampled_from(["cosine", "dirichlet"]),
        m=st.integers(0, 8),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_projection_recovers_modes(self, parity, m, seed):
        grid = Grid(L=1.0, n_x1=9, m=m)
        n_modes = grid.n_cos if parity == "cosine" else grid.n_dir
        modes = np.random.default_rng(seed).standard_normal((grid.n_x1, n_modes))
        back = Field2D.from_grid_values(parity, Field2D(parity, modes, grid).values(), grid)
        assert np.max(np.abs(back.modes - modes)) <= 1e-13 * np.max(np.abs(modes))

    def test_cosine_parity_wall_conditions(self):
        rng = np.random.default_rng(9)
        f = Field2D("cosine", rng.standard_normal((GRID.n_x1, GRID.n_cos)), GRID)
        d2 = f.d2()
        assert np.max(np.abs(d2[:, 0])) < 1e-12
        assert np.max(np.abs(d2[:, -1])) < 1e-12

    def test_dirichlet_parity_wall_conditions(self):
        rng = np.random.default_rng(10)
        f = Field2D("dirichlet", rng.standard_normal((GRID.n_x1, GRID.n_dir)), GRID)
        v = f.values()
        assert np.max(np.abs(v[:, 0])) < 1e-12
        assert np.max(np.abs(v[:, -1])) < 1e-12

    def test_spectral_x2_derivatives_exact_for_cubic_profile(self):
        # field = cos(k pi x2) * p(x1), deg p <= 3: d2 and d22 exact to 1e-12
        k = 3
        p = 1.0 + GRID.x1 - 0.5 * GRID.x1 ** 2 + GRID.x1 ** 3
        modes = np.zeros((GRID.n_x1, GRID.n_cos))
        modes[:, k] = p
        f = Field2D("cosine", modes, GRID)
        x2 = GRID.x2
        exact_d2 = -k * np.pi * np.outer(p, np.sin(k * np.pi * x2))
        exact_d22 = -((k * np.pi) ** 2) * np.outer(p, np.cos(k * np.pi * x2))
        assert np.max(np.abs(f.d2() - exact_d2)) < 1e-12 * (k * np.pi) ** 2
        assert np.max(np.abs(f.d22() - exact_d22)) < 1e-11 * (k * np.pi) ** 2

    def test_d1_second_order_for_cubic_profile(self):
        # central difference of a cubic has error h^2 p'''/6 exactly: ratio 4
        k = 2

        def err(n):
            g = Grid(L=0.6, n_x1=n, m=4)
            p = g.x1 ** 3
            modes = np.zeros((g.n_x1, g.n_cos))
            modes[:, k] = p
            f = Field2D("cosine", modes, g)
            exact = 3.0 * g.x1[:, None] ** 2 * np.cos(k * np.pi * g.x2)[None, :]
            return np.max(np.abs(f.d1() - exact)[1:-1])

        e1, e2 = err(41), err(81)
        order = np.log2(e1 / e2)
        assert order >= 1.9

    def test_h1_norm_of_constant(self):
        modes = np.zeros((GRID.n_x1, GRID.n_cos))
        modes[:, 0] = 2.0
        f = Field2D("cosine", modes, GRID)
        assert f.h1_norm() == pytest.approx(2.0 * np.sqrt(2.0 * GRID.L), rel=1e-12)

    def test_parity_mismatch_rejected(self):
        with pytest.raises(InputError):
            Field2D("cosine", np.zeros((GRID.n_x1, GRID.n_dir)), GRID)


class TestParitySplitDerivative:
    def test_mixed_parity_grid_derivative(self):
        from epnozzle.fields import grid_d2_parity_split

        x2 = GRID.x2
        vals = np.outer(np.ones(GRID.n_x1), np.cos(2 * np.pi * x2) + np.sin(3 * np.pi * x2))
        expect = np.outer(
            np.ones(GRID.n_x1), -2 * np.pi * np.sin(2 * np.pi * x2) + 3 * np.pi * np.cos(3 * np.pi * x2)
        )
        got = grid_d2_parity_split(vals, GRID)
        assert np.max(np.abs(got - expect)) < 1e-10
