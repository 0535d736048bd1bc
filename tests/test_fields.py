"""Spectral representation: round trips, quadrature exactness, differentiation, CSV tables."""

import dataclasses
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import galerkin_basis, lil_d1_matrix, lil_d2_matrix, parity_split_d2, per_value_csv

from epnozzle import Field2D, GasParameters, Grid, InputError, solve_background
from epnozzle.fields import _CSV_BLOCK, _EXACT_MIN, d1_stencil, d2_stencil, write_csv_table, write_grid_csv
from epnozzle.regimes import write_alpha_csv

GRID = Grid(L=0.6, n_x1=41, m=8)
# every float64: nan, infinities, subnormals and signed zeros among them, with powers of ten and
# their neighbours (where the decimal exponent turns) drawn often
CSV_FLOATS = st.floats(width=64) | st.integers(-30, 30).flatmap(
    lambda j: st.sampled_from([10.0 ** j, np.nextafter(10.0 ** j, 0.0), np.nextafter(10.0 ** j, np.inf)]))
# tables up to 40 x 7 whose cells are drawn, by a seeded generator, from a drawn list of such floats
CSV_TABLES = st.tuples(st.integers(1, 40), st.integers(1, 7), st.lists(CSV_FLOATS, min_size=1, max_size=16),
                       st.integers(0, 2 ** 32 - 1)).map(
    lambda t: np.array(t[2])[np.random.default_rng(t[3]).integers(len(t[2]), size=(t[0], t[1]))])


class TestGrid:
    def test_collocation_is_oversampled(self):
        assert GRID.n_x2 - 1 >= 2 * (GRID.m + 1)

    def test_quadrature_weights_sum_to_measure(self):
        assert GRID.w2.sum() == pytest.approx(2.0)
        assert GRID.w1.sum() == pytest.approx(GRID.L)

    def test_orthonormality_of_galerkin_basis(self):
        eta, _ = galerkin_basis(GRID)
        gram = (eta * GRID.w2[:, None]).T @ eta
        assert np.max(np.abs(gram - np.eye(GRID.n_cos))) < 1e-12

    def test_dirichlet_family_orthogonal(self):
        sines = GRID.families["dirichlet"].value
        gram = (sines * GRID.w2[:, None]).T @ sines
        assert np.max(np.abs(gram - np.eye(GRID.n_dir))) < 1e-12

    def test_triple_product_quadrature_exact(self):
        # worst-frequency triple product still integrated exactly
        cos, sines = GRID.families["cosine"].value, GRID.families["dirichlet"].value
        f = cos[:, -1] * sines[:, -1] * cos[:, -1]
        xg, wg = np.polynomial.legendre.leggauss(600)
        ref = (
            np.cos(GRID.m * np.pi * xg) ** 2 * np.sin(GRID.n_dir * np.pi * (xg + 1) / 2)
        ) @ wg
        assert (f @ GRID.w2) == pytest.approx(ref, abs=1e-13)

    @pytest.mark.parametrize("L", [-1.0, 0.0, float("nan"), float("inf")])
    def test_bad_grid_rejected(self, L):
        with pytest.raises(InputError, match="bad grid parameters"):
            Grid(L=L, n_x1=21, m=2)

    @pytest.mark.parametrize("name, value, kind", [
        ("m", True, "an integer"), ("m", 2.5, "an integer"), ("n_x1", 41.0, "an integer"),
        ("n_x1", False, "an integer"), ("L", "0.5", "real"), ("L", True, "real"), ("L", 1j, "real"),
    ])
    def test_bool_non_integral_or_non_real_grid_parameter_rejected(self, name, value, kind):
        # a bool would run as 0 or 1, a float size or a string length raise TypeError
        with pytest.raises(InputError, match=f"grid parameter {name} must be {kind}"):
            Grid(**{"L": 0.5, "n_x1": 41, "m": 2, name: value})

    def test_numpy_scalars_accepted(self):
        grid = Grid(L=np.float64(0.5), n_x1=np.int64(41), m=np.int32(2))
        assert (grid.L, grid.n_x1, grid.m) == (0.5, 41, 2)


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

    @settings(max_examples=60)
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

    @settings(max_examples=60)
    @given(
        parity=st.sampled_from(["cosine", "dirichlet"]),
        n_x1=st.integers(9, 120),
        m=st.integers(0, 12),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_mode_sum_norms_equal_grid_quadrature(self, parity, n_x1, m, seed):
        # the trapezoid rule on n_x2 = 4(m+1)+1 nodes integrates every basis
        # product exactly, so summing over modes is the grid quadrature
        grid = Grid(L=0.7, n_x1=n_x1, m=m)
        n_modes = grid.n_cos if parity == "cosine" else grid.n_dir
        f = Field2D(parity, np.random.default_rng(seed).standard_normal((n_x1, n_modes)), grid)

        def quadrature(*values):
            return np.sqrt(sum(grid.w1 @ v ** 2 @ grid.w2 for v in values))

        assert f.h1_norm() == pytest.approx(quadrature(f.values(), f.d1(), f.d2()), rel=1e-13, abs=0.0)
        assert f.d11_norm() == pytest.approx(quadrature(f.d11()), rel=1e-13, abs=0.0)

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

    @pytest.mark.parametrize("m", [0, 4, 16])
    def test_tables_built_once_match_per_call_tables_bit_for_bit(self, m):
        from epnozzle.fields import grid_d2_parity_split

        grid = Grid(L=0.6, n_x1=41, m=m)
        rng = np.random.default_rng(m)
        for values in (rng.standard_normal((grid.n_x1, grid.n_x2)), 1e-7 * rng.standard_normal((3, grid.n_x2))):
            got, ref = grid_d2_parity_split(values, grid), parity_split_d2(values, grid)
            assert got.shape == ref.shape and np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def _difference_inputs(n: int, rng) -> list:
    """The layouts the package differentiates (1-D; C- and F-ordered 2-D of
    the canonical mode and node counts 17, 34 and 69; a strided view) and
    data of signed zeros, infinities and NaNs."""
    inputs = [rng.standard_normal(n)]
    for width in (17, 34, 69):
        a = rng.standard_normal((n, width))
        inputs += [a, np.asfortranarray(a)]
    inputs.append(rng.standard_normal((5, n, 3))[:, :, 0].T)
    special = rng.choice([-0.0, 0.0, np.inf, -np.inf, np.nan, 1.0, -2.5], size=(n, 34))
    return inputs + [special, np.asfortranarray(special), special[:, 0].copy(), np.full(n, -0.0)]


@pytest.mark.parametrize("n, h", [(9, 0.1), (10, 3.0), (151, 1.3 / 150), (401, 0.7 / 400)])
def test_difference_matrices_match_row_by_row_construction(n, h):
    # D @ x is the CSR product of the row-by-row matrix bit for bit, signed
    # zeros included, and C-ordered like it.  Where the CSR product is NaN the
    # stencil is NaN: which of two NaNs a sum returns IEEE 754 leaves open,
    # and scipy's choice changes between its vector and remainder loops.
    rng = np.random.default_rng(n)
    for new, old in ((d1_stencil(n, h), lil_d1_matrix(n, h)), (d2_stencil(n, h), lil_d2_matrix(n, h))):
        for x in _difference_inputs(n, rng):
            got, ref = new @ x, old @ x
            nan = np.isnan(ref)
            assert got.shape == ref.shape and got.flags.c_contiguous
            assert np.array_equal(np.isnan(got), nan)
            assert np.array_equal(got[~nan].view(np.uint64), ref[~nan].view(np.uint64))
        with pytest.raises(ValueError, match="cannot act"):
            new @ np.ones(n + 1)


class TestCsvNumberContract:
    """Every table writer emits the bytes of per-value ``f"{v:.17g}"`` formatting."""

    # signed zeros, both sides of the ``g`` exponent switches, the smallest
    # subnormal, non-finite values and ordinary values needing 17 digits
    SPECIAL = np.array([0.0, -0.0, 1e-4, 1e-5, 1e16, 1e17, 5e-324, np.nan, np.inf, -np.inf,
                        1.0 / 3.0, -2.5e-300, 123456789.12345678, 0.1 + 0.2])

    def columns(self, k):
        return [np.roll(self.SPECIAL, i) for i in range(k)]

    def test_oracle_formats_numpy_scalars_like_floats(self):
        rows = list(zip(*self.columns(3)))
        assert isinstance(rows[0][0], np.float64)
        as_floats = [[float(v) for v in row] for row in rows]
        assert per_value_csv("a,b,c", rows) == per_value_csv("a,b,c", as_floats)

    def test_table_writer(self, tmp_path):
        cols = self.columns(2)
        path = tmp_path / "t.csv"
        write_csv_table(path, "x2,g_s", cols)
        assert path.read_text() == per_value_csv("x2,g_s", zip(*cols))
        # lists of numpy scalars are accepted as columns too
        write_csv_table(path, "x2,g_s", [list(c) for c in cols])
        assert path.read_text() == per_value_csv("x2,g_s", zip(*cols))

    def test_grid_writer(self, tmp_path):
        grid = SimpleNamespace(x1=self.SPECIAL[::-1].copy(), x2=self.SPECIAL)
        values = np.stack(self.columns(len(self.SPECIAL)), axis=1)
        path = tmp_path / "f.csv"
        write_grid_csv(path, values, grid)
        header = "x1," + ",".join(f"x2={v:.17g}" for v in grid.x2)
        assert path.read_text() == per_value_csv(header, ((x, *row) for x, row in zip(grid.x1, values)))

    def test_background_writer(self, tmp_path):
        bg = solve_background(GasParameters(gamma=3.0, zeta0=2.0, J=1.0, S0=1.0 / 3.0), 0.9, resolution=101)
        names = ("x1_nodes", "u1", "E", "rho", "Phi", "phi_pot")
        special = dataclasses.replace(bg, **dict(zip(names, self.columns(6))))
        path = tmp_path / "background.csv"
        for solution in (bg, special):
            solution.write_csv(path)
            cols = [getattr(solution, name) for name in names]
            assert path.read_text() == per_value_csv("x1,u1,E,rho,Phi,phi_pot", zip(*cols))

    def test_alpha_writer(self, tmp_path):
        kappa, alpha = self.columns(2)
        path = tmp_path / "alpha.csv"
        write_alpha_csv(path, kappa, alpha)
        assert path.read_text() == per_value_csv("kappa,alpha", zip(kappa, alpha))

    # --- the numpy formatter against per-value "%.17g", value family by value family ----------

    def _assert_per_value(self, path, table):
        write_csv_table(path, "a", [table])
        assert path.read_text() == per_value_csv("a", table.reshape(table.shape[0], -1))

    def test_powers_of_ten_and_their_neighbours(self, tmp_path):
        powers = 10.0 ** np.arange(-30, 31)
        family = np.stack([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)], axis=1)
        self._assert_per_value(tmp_path / "p.csv", np.concatenate([family, -family]))

    def test_no_float_in_the_exact_window_rounds_up_to_a_power_of_ten(self):
        # the writer keeps 17 digits without a carry into an 18th: the largest float below each
        # power of ten in the window has 17 digits that are not all nines rounded up
        for j in range(-10, 18):
            below = np.nextafter(10.0 ** j, 0.0) if Fraction(10.0 ** j) >= Fraction(10) ** j else 10.0 ** j
            assert ("%.16e" % below).startswith("9.9999999999999")

    def test_exact_ties_at_the_eighteenth_digit_round_half_even(self, tmp_path):
        # j / 2**t with t = 17 - k has exactly 18 significant digits, the last a 5: a tie
        rng = np.random.default_rng(18)
        ties = [1234567890123456.25, 1234567890123456.75]
        for k in range(-7, 16):
            t = 17 - k
            lo = int(Fraction(10) ** k * 2 ** t) + 1
            hi = min(int(Fraction(10) ** (k + 1) * 2 ** t), 2 ** 53)
            ties += [(int(j) | 1) * 2.0 ** -t for j in rng.integers(lo, hi, 12)]
        for x in ties:
            digits = Decimal(x).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
        ties = np.array(ties)
        self._assert_per_value(tmp_path / "t.csv", np.stack([ties, -ties], axis=1))

    def test_both_sides_of_the_notation_switches(self, tmp_path):
        edges = np.array([1e-5, 1e-4, 1e16, 1e17, 9.5e-5, 9.99e15, 1.5e16, 9.9e16])
        family = np.stack([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)], axis=1)
        self._assert_per_value(tmp_path / "g.csv", np.concatenate([family, -family]))

    def test_edges_of_the_exact_window(self, tmp_path):
        edges = np.array([_EXACT_MIN, 1e-11, 1e-12, 1e16, 1e17, np.nextafter(1e17, 0.0), 2.0 ** 53, 2.0 ** 56])
        family = np.stack([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)], axis=1)
        self._assert_per_value(tmp_path / "w.csv", np.concatenate([family, -family]))
        assert Fraction(_EXACT_MIN) >= Fraction(1, 10 ** 11) > Fraction(np.nextafter(_EXACT_MIN, 0.0))

    def test_a_table_across_blocks(self, tmp_path):
        rng = np.random.default_rng(7)
        n_rows = 3 * _CSV_BLOCK // 7 + 5
        table = rng.standard_normal((n_rows, 7)) * 10.0 ** rng.integers(-14, 18, (n_rows, 7))
        table.ravel()[rng.choice(table.size, 300, replace=False)] = rng.choice(self.SPECIAL, 300)
        self._assert_per_value(tmp_path / "b.csv", table)

    @given(table=CSV_TABLES)
    def test_any_table_matches_per_value_formatting(self, table, tmp_path_factory):
        self._assert_per_value(tmp_path_factory.getbasetemp() / "any.csv", table)

    def test_memory_does_not_grow_with_the_table(self, tmp_path):
        # the writer formats a block of rows at a time: its traced peak is bounded by the block,
        # and the same for a table ten times larger (the first call builds the constant tables)
        write_csv_table(tmp_path / "m.csv", "a", [np.ones(1)])
        peaks = []
        for n_rows in (20_000, 200_000):
            table = np.linspace(-1.0, 1.0, 5 * n_rows).reshape(n_rows, 5)
            tracemalloc.start()
            write_csv_table(tmp_path / "m.csv", "a,b,c,d,e", [table])
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert max(peaks) < 400_000
