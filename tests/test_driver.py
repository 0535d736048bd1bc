"""Outer fixed point, interface extraction, Mach classification, primitives."""

import numpy as np
import pytest

from epnozzle import (
    AdmissibilityError,
    BoundaryDataSpec,
    FlowState,
    GasParameters,
    Grid,
    InputError,
    assemble_coefficients,
    background_profile,
    certify_regime,
    default_d0,
    fixed_point_solve,
    solve_background,
)
from epnozzle.driver import (
    default_sigma_cap,
    interior_mask,
    mach_field,
    reconstruct_primitives,
    sonic_interface,
)

CANON = GasParameters(gamma=3.0, zeta0=2.0, J=1.0, S0=1.0 / 3.0)


@pytest.fixture(scope="module")
def bg():
    return solve_background(CANON, 0.9, resolution=801)


@pytest.fixture(scope="module")
def grid(bg):
    return Grid(L=bg.x1_at_speed(1.1 * CANON.u_s), n_x1=151, m=6)


@pytest.fixture(scope="module")
def bdata():
    return BoundaryDataSpec(
        sigma=1e-4, s_modes=((1, 1.0),), e_modes=((1, 1.0),), w_modes=((1, 1.0),)
    )


@pytest.fixture(scope="module")
def zero_run(bg, grid):
    return fixed_point_solve(bg, BoundaryDataSpec.zero(), grid, override_certificate=True)


@pytest.fixture(scope="module")
def std_run(bg, grid, bdata):
    return fixed_point_solve(bg, bdata, grid, override_certificate=True, tol_eps=1e-9)


class TestPreconditions:
    def test_uncertified_without_override_rejected(self, bg, grid):
        report = certify_regime(CANON)  # J = 1 is uncertified
        with pytest.raises(InputError):
            fixed_point_solve(bg, BoundaryDataSpec.zero(), grid, certificate=report)

    def test_certificate_accepted(self, bg, grid):
        class Cert:
            certified = True

        out = fixed_point_solve(bg, BoundaryDataSpec.zero(), grid, certificate=Cert())
        assert out.converged

    def test_sigma_cap(self, bg, grid):
        cap = default_sigma_cap(bg)
        bdata = BoundaryDataSpec(sigma=2 * cap, s_modes=((1, 1.0),))
        with pytest.raises(InputError):
            fixed_point_solve(bg, bdata, grid, override_certificate=True)

    def test_domain_longer_than_l_max_rejected(self, bg):
        grid = Grid(L=bg.l_max * 1.01, n_x1=51, m=2)
        with pytest.raises(InputError):
            fixed_point_solve(bg, BoundaryDataSpec.zero(), grid, override_certificate=True)

    def test_domain_just_below_l_max_solves(self, bdata):
        # the last station sits 1e-9 relative before the orbit end, where F -> 0
        bg = solve_background(CANON, 0.9, resolution=301)
        grid = Grid(L=bg.l_max * (1 - 1e-9), n_x1=51, m=2)
        prof = background_profile(bg, grid)
        for name in ("u1", "du1", "E", "rho", "Phi", "phi_pot", "A22", "a11", "c0", "c1"):
            assert np.all(np.isfinite(getattr(prof, name))), name
        out = fixed_point_solve(bg, bdata, grid, override_certificate=True)
        assert out.converged


class TestZeroPerturbation:
    def test_immediate_convergence(self, zero_run):
        assert zero_run.converged
        assert zero_run.iterations <= 2
        assert zero_run.state.amplitude_norms()["h1"] <= 1e-10

    def test_interface_is_flat_at_l_s(self, zero_run, bg):
        assert zero_run.sup_gs_minus_ls <= 1e-8

    def test_primitives_reduce_to_background(self, zero_run, bg, grid):
        prim = zero_run.primitives
        data = bg.evaluate(grid.x1)
        assert np.max(np.abs(prim["u1"] - data["u1"][:, None])) < 1e-12
        assert np.max(np.abs(prim["u2"])) == 0.0
        assert np.max(np.abs(prim["S"] - CANON.S0)) == 0.0
        assert np.max(np.abs(prim["rho"] - data["rho"][:, None])) < 1e-9
        assert np.max(np.abs(prim["Phi"] - data["Phi"][:, None])) == 0.0

    def test_background_mach_profile(self, zero_run, bg, grid):
        # M = (u1/u_s)^((gamma+1)/2) for the unperturbed state
        data = bg.evaluate(grid.x1)
        expect = (data["u1"] / CANON.u_s) ** ((CANON.gamma + 1) / 2)
        assert np.max(np.abs(zero_run.mach - expect[:, None])) < 1e-11
        i_s = np.argmin(np.abs(grid.x1 - bg.l_s))
        assert zero_run.mach[i_s, 0] == pytest.approx(1.0, abs=2e-2)

    def test_no_classification_mismatches(self, zero_run):
        assert zero_run.classification_mismatches == 0


class TestBackgroundProfileOnce:
    def test_profile_built_once_per_solve(self, bg, grid, monkeypatch):
        import epnozzle.coefficients
        import epnozzle.driver

        calls = []
        original = epnozzle.coefficients.background_profile

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(epnozzle.coefficients, "background_profile", counting)
        monkeypatch.setattr(epnozzle.driver, "background_profile", counting)
        out = fixed_point_solve(bg, BoundaryDataSpec.zero(), grid, override_certificate=True)
        assert out.converged
        assert len(calls) == 1


class TestPerturbedRun:
    def test_contraction(self, std_run):
        assert std_run.converged
        incr = std_run.increments
        assert incr[-1] <= 1e-9
        assert incr[0] > incr[1] > incr[-1]

    def test_interface_structure(self, std_run, bg, grid):
        gs = std_run.sonic_interface
        assert np.all((gs > 0) & (gs < grid.L))
        assert std_run.sup_gs_minus_ls < 1e-3
        # single-valued C0 graph: adjacent jumps stay small
        jumps = np.abs(np.diff(gs))
        bound = 5 * std_run.sup_gs_minus_ls / grid.n_x2 + grid.h1
        assert np.max(jumps) <= bound

    def test_interface_root_property(self, std_run, grid):
        from scipy.interpolate import PchipInterpolator

        det = std_run.coeffs.det_principal()
        for j in (0, grid.n_x2 // 2, grid.n_x2 - 1):
            prof = PchipInterpolator(grid.x1, det[:, j])
            assert abs(prof(std_run.sonic_interface[j])) <= 1e-9

    def test_mach_classification_consistency(self, std_run):
        assert std_run.classification_mismatches == 0

    def test_mach_crosses_unity_once_per_line(self, std_run):
        crossings = np.sum(np.diff(np.sign(std_run.mach - 1.0), axis=0) != 0, axis=0)
        assert np.all(crossings == 1)

    def test_wall_normal_velocity_vanishes(self, std_run):
        u2 = std_run.primitives["u2"]
        assert np.max(np.abs(u2[:, [0, -1]])) <= 1e-10

    def test_even_data_give_even_state(self, std_run):
        for f in (std_run.state.psi, std_run.state.Psi, std_run.state.T):
            v = f.values()
            assert np.max(np.abs(v - v[:, ::-1])) < 1e-12 * max(1.0, np.max(np.abs(v)))
        # phi odd: only even dirichlet modes (odd-parity shapes) populated
        phi_v = std_run.state.phi.values()
        assert np.max(np.abs(phi_v + phi_v[:, ::-1])) < 1e-10 * max(np.max(np.abs(phi_v)), 1e-30)

    def test_margins_reported_positive(self, std_run):
        assert all(v > 0 for v in std_run.margins.values())

    def test_entropy_range_preserved(self, std_run, bdata):
        prof = bdata.s_en_minus_s0(np.linspace(-1, 1, 4001))
        Tv = std_run.state.T.values()
        assert Tv.max() <= prof.max() + 1e-12
        assert Tv.min() >= prof.min() - 1e-12


class TestLinearResponse:
    def test_halved_amplitude_halves_response(self, bg, grid, bdata, std_run):
        half = fixed_point_solve(
            bg, bdata.scaled(0.5), grid, override_certificate=True, tol_eps=1e-9
        )
        r_norm = std_run.state.amplitude_norms()["h1"] / half.state.amplitude_norms()["h1"]
        r_gs = std_run.sup_gs_minus_ls / half.sup_gs_minus_ls
        assert 1.8 <= r_norm <= 2.2
        assert 1.8 <= r_gs <= 2.2


class TestAdmissibilityGuard:
    def test_named_bound_and_iterate_in_error(self, bg, grid):
        # force an inadmissible first update by shrinking d0 below the data scale
        bdata = BoundaryDataSpec(sigma=1e-4, w_modes=((1, 1.0),))
        with pytest.raises(AdmissibilityError, match="iterate 1"):
            fixed_point_solve(
                bg, bdata, grid, override_certificate=True, d0=1e-7, sigma_cap=1.0
            )


class TestCertifiedRegime:
    """A certified small-momentum solve without the override, multi-mode data."""

    @pytest.mark.parametrize("J", [1e-2, 1e-3])
    def test_certified_solve(self, J):
        gas = GasParameters(gamma=1.4, zeta0=2.0, J=J, S0=1.0)
        report = certify_regime(gas)
        assert report.certified and report.J_regime == "small"
        bg = solve_background(gas, report.kappa0 * gas.u_s, resolution=801)
        grid = Grid(L=bg.x1_at_speed(report.kappaL * gas.u_s), n_x1=151, m=6)
        assert grid.L == pytest.approx(report.L, rel=1e-6)
        modes = ((1, 1.0), (2, 0.5), (3, 1.0 / 3.0))
        bdata = BoundaryDataSpec(
            sigma=0.5 * default_sigma_cap(bg), s_modes=modes, e_modes=modes, w_modes=modes
        )
        out = fixed_point_solve(bg, bdata, grid, certificate=report)
        assert out.converged
        assert out.classification_mismatches == 0
        assert 0 < out.sup_gs_minus_ls < 1e-3


class TestInteriorMask:
    def test_edge_stations_fixed_at_canonical_length(self, bg):
        # stations 20 and 380 of 401 sit on the bounds 0.05 L and 0.95 L;
        # they stay in whatever the last bit of L
        L = bg.x1_at_speed(1.1 * CANON.u_s)
        for scale in (1.0, 1 - 1e-15, 1 + 1e-15):
            grid = Grid(L=L * scale, n_x1=401, m=1)
            assert np.array_equal(np.flatnonzero(interior_mask(grid)), np.arange(20, 381)), scale


class TestExtractionHelpers:
    def test_sonic_interface_requires_sign_change(self, bg):
        # purely subsonic window: no sign change -> internal error
        from epnozzle.errors import InternalError

        grid = Grid(L=0.5 * bg.l_s, n_x1=51, m=2)
        prof = background_profile(bg, grid)
        coeffs = assemble_coefficients(FlowState.zeros(grid), prof, default_d0(prof))
        with pytest.raises(InternalError):
            sonic_interface(coeffs)

    def test_primitives_satisfy_bernoulli(self, std_run, bg, grid):
        p = CANON
        prim = std_run.primitives
        head = prim["Phi"] - 0.5 * (prim["u1"] ** 2 + prim["u2"] ** 2)
        lhs = (p.gamma - 1) / (p.gamma * prim["S"]) * head
        assert np.max(np.abs(lhs - prim["rho"] ** (p.gamma - 1))) < 1e-10
