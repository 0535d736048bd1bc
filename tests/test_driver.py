"""Outer fixed point, interface extraction, Mach classification, primitives."""

import re
import sys
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import per_line_sonic_roots

from epnozzle import (
    AdmissibilityError,
    BoundaryDataSpec,
    FlowState,
    GasParameters,
    Grid,
    InputError,
    InternalError,
    NonConvergenceError,
    assemble_coefficients,
    background_profile,
    certify_regime,
    check_smallness,
    collocate,
    default_d0,
    fixed_point_solve,
    solve_background,
)
from epnozzle.driver import (
    THETA_FLOOR,
    default_sigma_cap,
    interior_mask,
    mach_field,
    reconstruct_primitives,
    sonic_interface,
)
from epnozzle.mixed_solver import LINEAR_RESIDUAL_MAX, WARM_START_OCTAVES
from epnozzle.options import SolverOptions

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

    # a NaN amplitude fails every comparison, so the cap test must be written to catch it
    @pytest.mark.parametrize("factor", [2.0, np.nan, np.inf, -np.inf], ids=["twice_cap", "nan", "inf", "-inf"])
    def test_sigma_cap(self, bg, grid, factor):
        cap = default_sigma_cap(bg)
        bdata = BoundaryDataSpec(sigma=factor * cap, s_modes=((1, 1.0),))
        with pytest.raises(InputError, match="sigma"):
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
        for name in ("u1", "du1", "E", "rho", "Phi", "A22", "a11", "c0", "c1"):
            assert np.all(np.isfinite(getattr(prof, name))), name
        # the audit's drift condition fails at the orbit end (documented, not fatal)
        with pytest.warns(UserWarning, match="energy-sign audit failed"):
            out = fixed_point_solve(bg, bdata, grid, override_certificate=True)
        assert out.converged


class TestInvalidSolverInputs:
    """Damping and continuation inputs a config file can set are checked."""

    @pytest.fixture(scope="class")
    def small(self):
        bg = solve_background(CANON, 0.9, resolution=301)
        grid = Grid(L=bg.x1_at_speed(1.1 * CANON.u_s), n_x1=51, m=2)
        bdata = BoundaryDataSpec(sigma=1e-4, s_modes=((1, 1.0),), e_modes=((1, 1.0),))
        return bg, grid, bdata

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"theta": 0.0}, "theta"),
            ({"theta": 1.5}, "theta"),
            ({"eps0": -0.1}, "eps0"),
            ({"eps0": 0.0}, "eps0"),
            ({"eps0": np.inf}, "eps0"),
            ({"tol_eps": -1.0}, "tol_eps"),
            ({"tol_eps": np.nan}, "tol_eps"),
            ({"tol_eps": np.inf}, "tol_eps"),
            ({"tol_outer": np.inf}, "tol_outer"),
            ({"eps_cap": -1}, "cap"),
            ({"max_outer": 2.5}, "max_outer"),
            ({"max_outer": True}, "max_outer"),
            ({"eps_cap": 2.5}, "cap"),
            ({"eps_cap": np.float64(3.0)}, "cap"),
            ({"sigma_cap": np.nan}, "sigma_cap"),
            ({"sigma_cap": np.inf}, "sigma_cap"),
            ({"sigma_cap": 0.0}, "sigma_cap"),
            ({"sigma_cap": -1e-3}, "sigma_cap"),
            ({"theta": True}, "theta"),
            ({"eps0": True}, "eps0"),
            ({"tol_eps": False}, "tol_eps"),
            ({"sigma_cap": True}, "sigma_cap"),
            ({"theta": "0.5"}, "theta"),
            ({"tol_outer": "1e-9"}, "tol_outer"),
            ({"eps0": 1j}, "eps0"),
        ],
        ids=["theta0", "theta1.5", "eps0_negative", "eps0_zero", "eps0_inf", "tol_eps_negative",
             "tol_eps_nan", "tol_eps_inf", "tol_outer_inf", "eps_cap_negative", "max_outer_fraction", "max_outer_bool", "eps_cap_fraction",
             "eps_cap_float64", "sigma_cap_nan", "sigma_cap_inf", "sigma_cap_zero",
             "sigma_cap_negative", "theta_bool", "eps0_bool", "tol_eps_bool", "sigma_cap_bool",
             "theta_str", "tol_outer_str", "eps0_complex"],
    )
    def test_rejected_with_input_error(self, small, options, message):
        bg, grid, bdata = small
        with pytest.raises(InputError, match=message):
            fixed_point_solve(bg, bdata, grid, override_certificate=True, **options)

    def test_root_tol_is_not_an_option(self, small):
        # Brent's tolerance of the sonic interface is fixed, not configurable
        bg, grid, bdata = small
        with pytest.raises(TypeError, match="root_tol"):
            fixed_point_solve(bg, bdata, grid, override_certificate=True, root_tol=1e-12)


class TestOtherGases:
    """Override path on gases other than the canonical one, multi-mode data."""

    SE_MODES = ((1, 1.0), (2, 0.5), (3, 1.0 / 3.0))
    W_MODES = ((1, 1.0), (2, 0.5))

    @pytest.mark.parametrize(
        "gas",
        [
            GasParameters(gamma=2.0, zeta0=1.5, J=1.0, S0=1.0),
            GasParameters(gamma=5.0 / 3.0, zeta0=2.0, J=0.5, S0=1.0),
        ],
        ids=["gamma2", "gamma5_3"],
    )
    def test_multimode_solve(self, gas):
        bg = solve_background(gas, 0.9 * gas.u_s, resolution=801)
        grid = Grid(L=bg.x1_at_speed(1.1 * gas.u_s), n_x1=101, m=6)
        bdata = BoundaryDataSpec(
            sigma=0.5 * default_sigma_cap(bg),
            s_modes=self.SE_MODES, e_modes=self.SE_MODES, w_modes=self.W_MODES,
        )
        out = fixed_point_solve(bg, bdata, grid, override_certificate=True, tol_eps=1e-9)
        assert out.converged
        assert out.classification_mismatches == 0
        assert 0 < out.sup_gs_minus_ls < 1e-3


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

    def test_velocity_collocated_once_per_iterate(self, bg, grid, bdata, monkeypatch):
        # one view for the zero state and one per blended iterate; the
        # per-iterate helpers read the views and never synthesize their own
        import epnozzle.coefficients
        import epnozzle.driver

        views = []
        original = epnozzle.coefficients.collocate

        def counting(state, prof):
            views.append(original(state, prof))
            return views[-1]

        def forbidden(state, prof):
            raise AssertionError("a per-iterate helper synthesized the velocity")

        monkeypatch.setattr(epnozzle.driver, "collocate", counting)
        monkeypatch.setattr(epnozzle.coefficients, "collocate", forbidden)
        out = fixed_point_solve(bg, bdata, grid, override_certificate=True)
        assert out.converged and out.iterations >= 2
        assert len(views) == out.iterations + 1
        assert out.state is views[-1].state

    @pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info < (3, 11),
                        reason="CPython moves call arguments into the callee from 3.11 on")
    def test_sets_handed_over_to_the_walk(self, bg, grid, bdata, monkeypatch):
        # no iterate's coefficient set is kept through its walk, so its forcings are freed first
        import epnozzle.driver
        import epnozzle.mixed_solver as mixed_solver

        refs, alive = [], []
        assemble, walk = epnozzle.driver.assemble_coefficients, mixed_solver.vanishing_viscosity

        def assembled(view, d0):
            coeffs = assemble(view, d0)
            refs.append(weakref.ref(coeffs.f1))
            return coeffs

        def checked(*args, **kwargs):
            alive.append(refs[-1]() is not None)
            return walk(*args, **kwargs)

        monkeypatch.setattr(epnozzle.driver, "assemble_coefficients", assembled)
        monkeypatch.setattr(mixed_solver, "vanishing_viscosity", checked)
        out = fixed_point_solve(bg, bdata, grid, override_certificate=True)
        assert out.iterations >= 2 and alive == [False] * out.iterations

    def test_each_state_checked_once(self, bg, grid, bdata, monkeypatch):
        # one smallness check per (state, T): the assembly of each iterate and its
        # blended update; the final assembly reuses the last update's margins
        import epnozzle.coefficients

        checked = []
        original = epnozzle.coefficients.check_smallness

        def counting(view, d0):
            checked.append(view)
            return original(view, d0)

        monkeypatch.setattr(epnozzle.coefficients, "check_smallness", counting)
        out = fixed_point_solve(bg, bdata, grid, override_certificate=True)
        assert out.iterations >= 2 and len(checked) == 2 * out.iterations
        assert checked[-1].state is out.state
        final = assemble_coefficients(checked[-1], out.d0)
        assert all(np.array_equal(getattr(out.coeffs, name), getattr(final, name))
                   for name in ("a11", "a12", "a", "b1", "b0", "f1", "f2", "f3", "A22"))


class TestBoxSolveStarts:
    def test_later_iterates_start_closer(self, bg, grid, bdata, monkeypatch):
        # the first iterate linearizes at the unperturbed state, whose modes do
        # not couple (one GMRES step per solve); from the second on, a solve at
        # a viscosity the previous iterate also solved starts from its solution
        import epnozzle.mixed_solver as mixed_solver

        solves, gmres_runs = [], []
        solve_banded, gmres = mixed_solver.ModeSystem.solve_banded, mixed_solver._gmres

        def solve(system, eps, *args):
            solves.append((system, eps))
            return solve_banded(system, eps, *args)

        def run(apply, precond, coupling, b, *args):
            out = gmres(apply, precond, coupling, b, *args)
            gmres_runs.append((bool(args) and args[0] is not None, out[2], out[1] / np.linalg.norm(b)))
            return out

        monkeypatch.setattr(mixed_solver.ModeSystem, "solve_banded", solve)
        monkeypatch.setattr(mixed_solver, "_gmres", run)
        out = fixed_point_solve(bg, bdata, grid, override_certificate=True, tol_eps=1e-9)
        assert out.converged and out.iterations >= 4 and len(solves) == len(gmres_runs)
        systems = list(dict.fromkeys(system for system, _ in solves))
        steps = [{} for _ in systems]
        for (system, eps), (warm, n, rel) in zip(solves, gmres_runs):
            it = systems.index(system)
            assert rel <= LINEAR_RESIDUAL_MAX
            assert warm == (it > 0)
            steps[it][eps] = n
        assert set(steps[0].values()) == {1}
        for later in steps[2:]:
            assert later.keys() <= steps[1].keys()
            assert all(n < steps[1][eps] for eps, n in later.items())

    def test_tol_stopping_walks_start_from_eps0(self, bg, grid, bdata, monkeypatch):
        # continuations that stop by tol_eps at eps0 / 2 keep only the eps0 and
        # eps0 / 2 solutions, so every later iterate walks from eps0 again, each
        # box solve starting from the previous iterate's solution at its viscosity
        import epnozzle.mixed_solver as mixed_solver

        solves, carriers, gmres_starts = [], [], []
        solve_banded, walk, gmres = (mixed_solver.ModeSystem.solve_banded, mixed_solver.vanishing_viscosity,
                                     mixed_solver._gmres)

        def solve(system, eps, starts):
            solves.append((eps, starts.get(eps)))
            return solve_banded(system, eps, starts)

        def continuation(*args, warm, **kwargs):
            out = walk(*args, warm=warm, **kwargs)
            carriers.append(dict(warm))
            return out

        def run(apply, precond, coupling, b, x0):
            gmres_starts.append(x0 is not None)
            return gmres(apply, precond, coupling, b, x0)

        monkeypatch.setattr(mixed_solver.ModeSystem, "solve_banded", solve)
        monkeypatch.setattr(mixed_solver, "vanishing_viscosity", continuation)
        monkeypatch.setattr(mixed_solver, "_gmres", run)
        seen = []
        out = fixed_point_solve(bg, bdata, grid, override_certificate=True, tol_eps=1e-4, trace_sink=seen.append)
        eps0, n = SolverOptions.eps0, out.iterations
        assert out.converged and n >= 3
        assert seen == out.eps_trace  # the library sink gets each step of the returned trace, in order
        assert [(t["iterations"], t["k"]) for t in out.eps_trace] == [(it, 1) for it in range(1, n + 1)]
        assert all(t["h1_diff"] <= 1e-4 for t in out.eps_trace)
        assert [eps for eps, _ in solves] == [eps0, eps0 / 2] * n
        assert gmres_starts == [False, False] + [True, True] * (n - 1)
        for i, (eps, start) in enumerate(solves):
            assert start is (carriers[i // 2 - 1][eps] if i >= 2 else None)
        assert len(carriers) == n
        assert all(len(carrier) <= WARM_START_OCTAVES + 1 and sorted(carrier) == [eps0 / 2, eps0]
                   for carrier in carriers)


class TestDampedStop:
    def test_damped_iteration_stops_on_the_undamped_residual(self, bg, grid, bdata):
        # at theta = 0.5 the step is half the undamped residual |G(x) - x|; the
        # iteration stops on that residual, while the reported increments stay
        # the steps (here 1.11e-6 and then 5.67e-7 against a 7.5e-7 bound)
        theta, tol_outer = 0.5, 1.5e-6
        out = fixed_point_solve(bg, bdata, grid, override_certificate=True, theta=theta, tol_outer=tol_outer)
        assert out.converged
        assert out.increments[-1] / theta <= tol_outer < out.increments[-2] / theta
        assert out.increments[-2] <= tol_outer


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
        # every line's root is bit for bit that of its own per-line interpolant
        oracle = per_line_sonic_roots(grid.x1, det, xtol=1e-12)
        assert np.array_equal(std_run.sonic_interface, oracle)

    @pytest.mark.parametrize("first_cell", [0, -4], ids=["inlet_cells", "exit_cells"])
    def test_interface_roots_in_end_cells(self, grid, first_cell):
        # crossings in the first or the last three cells put the shared
        # interpolant's station window against one end of the domain
        x = grid.x1
        first_cell %= grid.n_x1
        roots = np.linspace(x[first_cell] + 0.3 * grid.h1, x[first_cell + 2] + 0.7 * grid.h1, grid.n_x2)
        det = (roots - x[:, None]) * (1.0 + x[:, None] ** 2 + roots)
        coeffs = SimpleNamespace(grid=grid, det_principal=lambda: det)
        _, gs = sonic_interface(coeffs)
        assert np.array_equal(gs, per_line_sonic_roots(x, det, xtol=1e-12))
        assert np.max(np.abs(gs - roots)) <= grid.h1 ** 2

    @pytest.mark.parametrize("line, message", [
        (lambda x: 1.0 + x, "lacks the elliptic->hyperbolic pattern"),
        (lambda x: np.cos(5 * np.pi * x / x[-1]) + 0.01, "changes sign 5 times"),
    ], ids=["no_crossing", "five_crossings"])
    def test_interface_rejects_bad_type_pattern(self, grid, line, message):
        # every other line crosses once, inside the middle cell
        det = np.outer(0.502 - grid.x1 / grid.L, np.ones(grid.n_x2))
        det[:, 3] = line(grid.x1)
        with pytest.raises(InternalError, match=f"{message} on line x2={grid.x2[3]:.4f}"):
            sonic_interface(SimpleNamespace(grid=grid, det_principal=lambda: det))

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

    def test_margins_are_those_of_the_final_state(self, std_run):
        # the last iterate's admissibility check, not a separate evaluation, yet the same numbers
        view = collocate(std_run.state, std_run.coeffs.profile)
        assert std_run.margins == check_smallness(view, std_run.d0)

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


class TestDampingFloor:
    def test_divergence_past_the_floor_raises(self, bg):
        # past the contraction edge (ROADMAP item 5: 201 x 8 at sigma 5e-3) the
        # increments keep growing; theta halves after every two growing steps in
        # a row, so it falls below THETA_FLOOR after 2 log2(2 / THETA_FLOOR)
        # growing steps at least (iterate 23 here, and for every sigma from
        # 5e-3 to 8e-3 at this grid)
        grid = Grid(L=bg.x1_at_speed(1.1 * CANON.u_s), n_x1=201, m=2)
        bdata = BoundaryDataSpec(sigma=6e-3, s_modes=((1, 1.0),), e_modes=((1, 1.0),), w_modes=((1, 1.0),))
        with pytest.raises(NonConvergenceError, match=r"diverging after damping floor \(iterate \d+\)") as failure:
            fixed_point_solve(bg, bdata, grid, override_certificate=True, sigma_cap=1.0)
        iterate = int(re.search(r"iterate (\d+)", str(failure.value)).group(1))
        assert iterate > 2 * np.log2(2 / THETA_FLOOR)


class TestDampingRescue:
    """51 x 2 at sigma 2e-2, past the undamped edge (sigma 1e-2 converges in 23 iterates at theta 1): the
    increments grow at iterates 4 and 5, theta halves after iterate 5 and the run converges in 65
    iterates; with the halving taken out, iterate 6 leaves the admissible set (perturbation margin -1.1e-3)."""

    @pytest.fixture(scope="class")
    def edge(self, bg):
        grid = Grid(L=bg.x1_at_speed(1.1 * CANON.u_s), n_x1=51, m=2)
        one = ((1, 1.0),)
        return bg, BoundaryDataSpec(sigma=2e-2, s_modes=one, e_modes=one, w_modes=one), grid

    @pytest.fixture(scope="class")
    def rescued(self, edge):
        return fixed_point_solve(*edge, override_certificate=True, sigma_cap=1.0)

    def test_halving_rescues_the_run(self, rescued):
        increments = rescued.increments
        assert [k + 1 for k in range(1, len(increments)) if increments[k] > increments[k - 1]] == [4, 5]
        assert rescued.converged and rescued.iterations == 65

    def test_floor_error_names_contraction_and_theta(self, edge, rescued, monkeypatch):
        # a floor above 1/2 turns the halving after iterate 5 into the floor's error
        monkeypatch.setattr("epnozzle.driver.THETA_FLOOR", 0.6)
        with pytest.raises(NonConvergenceError, match=r"damping floor \(iterate 5\); last contraction factor "
                           rf"{rescued.increments[4] / rescued.increments[3]:.3g} at theta 1$"):
            fixed_point_solve(*edge, override_certificate=True, sigma_cap=1.0)

    def test_budget_error_names_contraction_and_theta(self, edge, rescued):
        with pytest.raises(NonConvergenceError, match=r"within 10 iterations; last contraction factor "
                           rf"{rescued.increments[9] / rescued.increments[8]:.3g} at theta 0.5$"):
            fixed_point_solve(*edge, override_certificate=True, sigma_cap=1.0, max_outer=10)


class TestAdmissibilityGuard:
    def test_named_bound_and_iterate_in_error(self, bg, grid):
        # inlet data far above the smallness radius make the first update inadmissible
        bdata = BoundaryDataSpec(sigma=0.1, w_modes=((1, 1.0),))
        with pytest.raises(AdmissibilityError, match="perturbation.* at outer iterate 1$"):
            fixed_point_solve(bg, bdata, grid, override_certificate=True, sigma_cap=1.0)


class TestCertifiedRegime:
    """A certified small-momentum solve without the override, multi-mode data."""

    MODES = ((1, 1.0), (2, 0.5), (3, 1.0 / 3.0))

    @staticmethod
    def _certified(J):
        gas = GasParameters(gamma=1.4, zeta0=2.0, J=J, S0=1.0)
        report = certify_regime(gas)
        bg = solve_background(gas, report.kappa0 * gas.u_s, resolution=801)
        grid = Grid(L=bg.x1_at_speed(report.kappaL * gas.u_s), n_x1=151, m=6)
        return report, bg, grid

    def _bdata(self, sigma):
        return BoundaryDataSpec(sigma=sigma, s_modes=self.MODES, e_modes=self.MODES, w_modes=self.MODES)

    @pytest.mark.parametrize("J", [1e-2, 1e-3])
    def test_certified_solve(self, J):
        report, bg, grid = self._certified(J)
        assert report.certified and report.J_regime == "small"
        assert grid.L == pytest.approx(report.L, rel=1e-6)
        bdata = self._bdata(0.5 * default_sigma_cap(bg))
        out = fixed_point_solve(bg, bdata, grid, certificate=report)
        assert out.converged
        assert out.classification_mismatches == 0
        assert 0 < out.sup_gs_minus_ls < 1e-3

    def test_sigma_exactly_at_cap(self):
        # the cap is inclusive: the largest admitted amplitude still contracts
        report, bg, grid = self._certified(1e-2)
        out = fixed_point_solve(bg, self._bdata(default_sigma_cap(bg)), grid, certificate=report)
        assert out.converged
        assert out.classification_mismatches == 0
        assert 0 < out.sup_gs_minus_ls < 1e-3


class TestManyModes:
    def test_thirty_two_modes_with_two_mode_data(self, bg):
        grid = Grid(L=bg.x1_at_speed(1.1 * CANON.u_s), n_x1=101, m=32)
        modes = ((1, 1.0), (3, 1.0))
        bdata = BoundaryDataSpec(sigma=1e-4, s_modes=modes, e_modes=modes, w_modes=modes)
        out = fixed_point_solve(bg, bdata, grid, override_certificate=True)
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
        coeffs = assemble_coefficients(collocate(FlowState.zeros(grid), prof), default_d0(prof))
        with pytest.raises(InternalError):
            sonic_interface(coeffs)

    def test_primitives_satisfy_bernoulli(self, std_run, bg, grid):
        p = CANON
        prim = std_run.primitives
        head = prim["Phi"] - 0.5 * (prim["u1"] ** 2 + prim["u2"] ** 2)
        lhs = (p.gamma - 1) / (p.gamma * prim["S"]) * head
        assert np.max(np.abs(lhs - prim["rho"] ** (p.gamma - 1))) < 1e-10
