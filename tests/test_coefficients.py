"""Coefficient assembly at iterates: zero-state values, wall structure, momentum."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import divergence_residual

from epnozzle import (
    AdmissibilityError,
    DegenerateStateError,
    Field2D,
    FlowState,
    GasParameters,
    Grid,
    assemble_coefficients,
    background_profile,
    check_smallness,
    collocate,
    default_d0,
    momentum_field,
    solve_background,
)
from epnozzle.coefficients import require_admissible, varrho

CANON = GasParameters(gamma=3.0, zeta0=2.0, J=1.0, S0=1.0 / 3.0)


@pytest.fixture(scope="module")
def bg():
    return solve_background(CANON, 0.9, resolution=601)


@pytest.fixture(scope="module")
def grid(bg):
    L = bg.x1_at_speed(1.1 * CANON.u_s)
    return Grid(L=L, n_x1=61, m=6)


@pytest.fixture(scope="module")
def prof(bg, grid):
    return background_profile(bg, grid)


@pytest.fixture(scope="module")
def d0(prof):
    return default_d0(prof)


def small_state(grid, amp=1e-3):
    """A smooth admissible perturbation exercising all four fields."""
    state = FlowState.zeros(grid)
    x1 = grid.x1 / grid.L
    state.psi.modes[:, 1] = amp * x1 ** 2 * (1 - x1)
    state.Psi.modes[:, 2] = amp * (1 - x1) ** 2
    state.phi.modes[:, 1] = amp * np.sin(np.pi * x1)
    state.T.modes[:, 1] = amp
    return state


class TestZeroState:
    def test_background_coefficient_values(self, prof, grid, d0):
        p = CANON
        coeffs = assemble_coefficients(collocate(FlowState.zeros(grid), prof), d0)
        expect_a11 = 1.0 - (prof.u1 / p.u_s) ** (p.gamma + 1)
        assert np.max(np.abs(coeffs.a11 - expect_a11[:, None])) < 1e-12
        assert np.max(np.abs(coeffs.a12)) == 0.0
        assert np.max(np.abs(coeffs.f1)) == 0.0
        assert np.max(np.abs(coeffs.f2)) == 0.0
        assert np.max(np.abs(coeffs.f3)) == 0.0

    def test_sonic_station_values(self, bg, d0):
        # at x1 = l_s with these constants: A22 = u_s^2 = 1, a11 = 0
        gs = Grid(L=bg.l_s * 1.5, n_x1=81, m=4)
        prof = background_profile(bg, gs)
        coeffs = assemble_coefficients(collocate(FlowState.zeros(gs), prof), d0)
        i = np.argmin(np.abs(prof.u1 - CANON.u_s))
        assert abs(coeffs.A22[i, 0] - 1.0) < 1e-2          # nearest node only
        assert abs(coeffs.a11[i, 0]) < 5e-2
        # exact sonic values via the evaluator: A22 = u_s^2 = 1, a11 = 0
        ev = bg.evaluate(np.array([bg.l_s]))
        u_sonic = ev["u1"][0]
        A22_s = CANON.gamma * CANON.S0 * CANON.J ** 2 / u_sonic ** 2
        a11_s = 1.0 - (u_sonic / CANON.u_s) ** 4
        assert A22_s == pytest.approx(1.0, abs=1e-10)
        assert a11_s == pytest.approx(0.0, abs=1e-10)

    def test_background_density_consistency(self, prof, grid):
        p = CANON
        rho_tilde = varrho(
            np.zeros((grid.n_x1, grid.n_x2)),
            prof.Phi[:, None] * np.ones((1, grid.n_x2)),
            (prof.u1 ** 2)[:, None] * np.ones((1, grid.n_x2)),
            p,
        )
        assert np.max(np.abs(rho_tilde / prof.rho[:, None] - 1.0)) < 1e-9

    def test_c_profiles(self, prof, grid, d0):
        p = CANON
        coeffs = assemble_coefficients(collocate(FlowState.zeros(grid), prof), d0)
        assert np.allclose(coeffs.c0, 1.0 / (p.gamma * p.S0 * prof.rho ** (p.gamma - 2)), rtol=1e-12)
        assert np.allclose(coeffs.c1, -prof.u1 * coeffs.c0, rtol=1e-12)

    def test_type_indicator_changes_sign_once(self, prof, grid, d0):
        coeffs = assemble_coefficients(collocate(FlowState.zeros(grid), prof), d0)
        changes = np.count_nonzero(np.diff(np.sign(coeffs.det_principal()), axis=0), axis=0)
        assert np.all(changes == 1)


class TestPerturbedState:
    def test_wall_structure_holds(self, prof, grid, d0):
        coeffs = assemble_coefficients(collocate(small_state(grid), prof), d0)  # verify_structure inside
        walls = np.abs(coeffs.a12[:, [0, -1]])
        assert np.max(walls) < 1e-12

    def test_a22_slot_is_identity(self, prof, grid, d0):
        # the normalization divides by A22, so the (2,2) slot is 1 by construction;
        # check the stored A22 is the actual denominator
        state = small_state(grid)
        coeffs = assemble_coefficients(collocate(state, prof), d0)
        assert np.min(coeffs.A22) > 0

    def test_symmetric_slot_unused(self, prof, grid, d0):
        coeffs = assemble_coefficients(collocate(small_state(grid), prof), d0)
        # a21 == a12 by definition: only one array is stored
        assert coeffs.a12.shape == (grid.n_x1, grid.n_x2)

    def test_sign_change_still_unique_near_background(self, prof, grid, d0):
        coeffs = assemble_coefficients(collocate(small_state(grid, amp=5e-4), prof), d0)
        changes = np.count_nonzero(np.diff(np.sign(coeffs.det_principal()), axis=0), axis=0)
        assert np.all(changes == 1)


class TestSmallness:
    def test_zero_state_margins_maximal(self, prof, bg, grid, d0):
        margins = check_smallness(collocate(FlowState.zeros(grid), prof), d0)
        assert margins["perturbation"] == pytest.approx(d0)
        assert margins["entropy"] == pytest.approx(CANON.S0 / 2)
        assert margins["forward_flow"] == pytest.approx(bg.u0 - bg.u0 / 2, rel=1e-10)

    def test_boundary_case_zero_margin(self, prof, grid, d0):
        state = FlowState.zeros(grid)
        state.Psi.modes[:, 0] = d0  # |Psi| = d0 exactly
        margins = check_smallness(collocate(state, prof), d0)
        assert margins["perturbation"] == pytest.approx(0.0, abs=1e-15)

    def test_doubled_boundary_case_inadmissible(self, prof, grid, d0):
        state = FlowState.zeros(grid)
        state.Psi.modes[:, 0] = 2 * d0
        margins = check_smallness(collocate(state, prof), d0)
        assert margins["perturbation"] == pytest.approx(-d0)
        with pytest.raises(AdmissibilityError, match="perturbation"):
            require_admissible(collocate(state, prof), d0)

    def test_admissibility_error_propagates_from_assembly(self, prof, grid, d0):
        state = FlowState.zeros(grid)
        state.T.modes[:, 0] = CANON.S0  # |T| = S0 > S0/2
        with pytest.raises(AdmissibilityError, match="entropy"):
            assemble_coefficients(collocate(state, prof), d0)

    def test_assembly_reads_the_view(self, prof, grid, d0, monkeypatch):
        # assembly and its admissibility check read the view they are handed
        import epnozzle.coefficients as coefficients

        bad = FlowState.zeros(grid)
        bad.Psi.modes[:, 0] = 2 * d0
        good_view, bad_view = collocate(small_state(grid), prof), collocate(bad, prof)
        monkeypatch.setattr(coefficients, "collocate", None)
        assemble_coefficients(good_view, d0)
        with pytest.raises(AdmissibilityError, match=r"\['perturbation'\] \(margins"):
            assemble_coefficients(bad_view, d0)

    def test_view_serves_a_new_entropy_bit_for_bit(self, prof, grid, d0):
        # T does not enter the velocity, so the driver swaps it into an existing view
        state = small_state(grid)
        T_new = 2.0 * state.T
        swapped = collocate(state, prof)._replace(state=replace(state, T=T_new))
        fresh = collocate(replace(state, T=T_new), prof)
        for name in ("p1", "p2", "q1", "q2", "v1", "v2", "Psi", "head"):
            assert np.array_equal(getattr(swapped, name), getattr(fresh, name))
        a, b = assemble_coefficients(swapped, d0), assemble_coefficients(fresh, d0)
        for name in ("a11", "a12", "a", "b1", "b0", "f1", "f2", "f3", "A22"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("dominant", ["psi", "phi", "Psi"])
    @settings(max_examples=10)
    @given(seed=st.integers(0, 2 ** 32 - 1), amp=st.floats(0.0, 0.2))
    def test_margins_match_field_norms_bit_for_bit(self, prof, bg, grid, d0, dominant, seed, amp):
        # the margins read one view; the field norms synthesize their own
        rng = np.random.default_rng(seed)
        state = FlowState.zeros(grid)
        for name in ("psi", "phi", "Psi", "T"):
            f = getattr(state, name)
            scale = amp * d0 * (1.0 if name in (dominant, "T") else 1e-3)
            f.modes[:] = scale * rng.uniform(-1.0, 1.0, f.modes.shape) / f.modes.size
        v1 = prof.u1[:, None] + state.psi.d1() + state.phi.d2()
        expect = {
            "perturbation": d0 - max(state.Psi.sup_norm(), state.psi.grad_sup_norm(),
                                     state.phi.grad_sup_norm()),
            "entropy": CANON.S0 / 2.0 - state.T.sup_norm(),
            "forward_flow": float(np.min(v1)) - bg.u0 / 2.0,
        }
        margins = check_smallness(collocate(state, prof), d0)
        assert margins == expect and all(type(v) is float for v in margins.values())
        assert margins["perturbation"] > 0

    def test_A22_admissible_lower_bound(self, prof, bg, grid, d0):
        # any admissible state keeps A22 >= gamma S0 J^(gamma-1) / (2 u_max^(gamma-1))
        p = CANON
        bound = p.gamma * p.S0 * p.J ** (p.gamma - 1) / (2 * bg.u_max ** (p.gamma - 1))
        for amp in (0.0, 0.2 * d0, 0.9 * d0):
            state = FlowState.zeros(grid)
            state.Psi.modes[:, 0] = -amp
            state.psi.modes[:, 1] = amp / 4
            coeffs = assemble_coefficients(collocate(state, prof), d0)
            assert np.min(coeffs.A22) >= bound

    def test_default_d0_keeps_A22_above_half_background(self, prof, d0):
        p = CANON
        worst = (p.gamma - 1) * (
            prof.Phi - d0 - 0.5 * ((prof.u1 + 2 * d0) ** 2 + (2 * d0) ** 2)
        ) - (2 * d0) ** 2
        assert np.min(worst) >= 0.5 * np.min(prof.A22)


class TestMomentum:
    def test_zero_state_constant_flux(self, prof, grid):
        p = CANON
        m1, m2 = momentum_field(collocate(FlowState.zeros(grid), prof))
        expect = (p.gamma * p.S0 / (p.gamma - 1)) ** (1.0 / (p.gamma - 1)) * p.J
        assert np.max(np.abs(m1 - expect)) < 1e-12
        assert np.max(np.abs(m2)) == 0.0
        assert np.max(np.abs(divergence_residual(m1, m2, grid))) <= 1e-9

    def test_degenerate_state_raises(self, prof, grid):
        state = FlowState.zeros(grid)
        state.Psi.modes[:, 0] = -0.9 * np.min(prof.A22)
        with pytest.raises(DegenerateStateError, match="momentum density base"):
            momentum_field(collocate(state, prof))
