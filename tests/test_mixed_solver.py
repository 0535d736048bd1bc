"""Mixed-type solver: Poisson problem, lifts, viscous continuation, oracles."""

import re
import sys
import tracemalloc
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    INLET_ANCHORED,
    batched_coupling_blocks,
    dense_box_system,
    galerkin_basis,
    per_mode_poisson,
    solve_dense_first_order,
)

import epnozzle.mixed_solver as mixed_solver
from epnozzle import (
    BoundaryDataSpec,
    Field2D,
    FlowState,
    GasParameters,
    Grid,
    InputError,
    ModeSystem,
    NonConvergenceError,
    assemble_coefficients,
    background_profile,
    certify_regime,
    collocate,
    default_d0,
    fixed_point_solve,
    lagrangian_map,
    lift_boundary_data,
    momentum_field,
    poisson_solve_phi,
    solve_background,
    solve_linear_problem,
    stream_function,
    transport_entropy,
    vanishing_viscosity,
)
from epnozzle.mixed_solver import (
    BAND_L,
    BAND_U,
    FORCED_MODE_ROUNDOFF,
    GMRES_RESTART,
    GMRES_RTOL,
    WARM_START_OCTAVES,
    _gmres,
    energy_sign_audit,
)
from epnozzle.options import SolverOptions

CANON = GasParameters(gamma=3.0, zeta0=2.0, J=1.0, S0=1.0 / 3.0)
# a caller that hands its set over keeps no reference through the call only
# where calls move their arguments into the callee
HANDOVER = pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info < (3, 11),
                              reason="CPython moves call arguments into the callee from 3.11 on")
# boundary-data mode lists: mode numbers 1..8, coefficients in [-1, 1]
MODE_LISTS = st.lists(st.tuples(st.integers(1, 8), st.floats(-1.0, 1.0)), max_size=4)


@pytest.fixture(scope="module")
def bg():
    return solve_background(CANON, 0.9, resolution=601)


@pytest.fixture(scope="module")
def bg_narrow():
    return solve_background(CANON, 0.95, resolution=601)


@pytest.fixture(scope="module")
def bg_certified():
    """The certified small-J background (gamma 1.4, zeta0 2, J 1e-2, S0 1) and its certified length."""
    gas = GasParameters(gamma=1.4, zeta0=2.0, J=1e-2, S0=1.0)
    report = certify_regime(gas)
    bg = solve_background(gas, report.kappa0 * gas.u_s, resolution=801)
    return bg, bg.x1_at_speed(report.kappaL * gas.u_s)


@pytest.fixture(scope="module")
def setup(bg):
    L = bg.x1_at_speed(1.1 * CANON.u_s)
    grid = Grid(L=L, n_x1=101, m=4)
    prof = background_profile(bg, grid)
    d0 = default_d0(prof)
    coeffs = assemble_coefficients(collocate(FlowState.zeros(grid), prof), d0)
    return grid, d0, coeffs


def _bump(grid, amp=1e-4):
    """Gaussian bump forcing of the psi equation centred in the domain."""
    return amp * np.outer(
        np.exp(-(((grid.x1 - grid.L / 2) / (grid.L / 6)) ** 2)), np.ones(grid.n_x2)
    )


@pytest.fixture
def box_solves(monkeypatch):
    """The viscosities of every box solve made during the test, in order."""
    calls = []
    solve = ModeSystem.solve_banded

    def counted(self, eps, *args):
        calls.append(eps)
        return solve(self, eps, *args)

    monkeypatch.setattr(ModeSystem, "solve_banded", counted)
    return calls


def _oracle_system(bg, n_x1, m, amp, every_mode=False, L=None):
    """Small mode system on the window from ``bg``'s inlet to length ``L``
    (default: CANON's speed 1.05 u_s, so 0.95..1.05 on ``bg_narrow``), with
    ``a11``, ``a`` and ``b0`` scaled by ``1 + amp cos(pi x2)``, which couples
    the cosine modes.

    The forcing drives modes 0 and 1, or every mode with ``every_mode``, so
    that a wall-uniform set (``amp = 0``) carries all of them too.  Returns
    the grid, the ``ModeSystem`` and its inputs ``(coeffs, f1, f2)``, from
    which the oracles build their own reference."""
    L = bg.x1_at_speed(1.05 * CANON.u_s) if L is None else L
    grid = Grid(L=L, n_x1=n_x1, m=m)
    prof = background_profile(bg, grid)
    coeffs = assemble_coefficients(collocate(FlowState.zeros(grid), prof), default_d0(prof))
    mod = 1.0 + amp * np.cos(np.pi * grid.x2)
    coeffs.a11, coeffs.a, coeffs.b0 = coeffs.a11 * mod, coeffs.a * mod, coeffs.b0 * mod
    f1 = np.outer(np.sin(np.pi * grid.x1 / L), np.ones(grid.n_x2)) + 0.5 * np.outer(
        grid.x1 / L, np.cos(np.pi * grid.x2)
    )
    f2 = 0.3 * np.outer(np.cos(np.pi * grid.x1 / L), np.ones(grid.n_x2))
    if every_mode:
        f2 = f2 + 0.2 * np.outer(grid.x1 / L, grid.families["cosine"].value.sum(axis=1))
    return grid, ModeSystem(coeffs, f1, f2), (coeffs, f1, f2)


class TestPoisson:
    def test_zero_forcing_gives_zero(self, setup):
        grid, _, _ = setup
        phi = poisson_solve_phi(Field2D.zeros("dirichlet", grid))
        assert np.max(np.abs(phi.values())) == 0.0

    def test_manufactured_solution_order(self):
        errs = []
        for n in (101, 201):
            g = Grid(L=0.5, n_x1=n, m=4)
            phi_star = np.outer(np.cos(np.pi * g.x1 / (2 * g.L)), np.sin(np.pi * (g.x2 + 1) / 2))
            f0 = ((np.pi / (2 * g.L)) ** 2 + (np.pi / 2) ** 2) * phi_star
            phi = poisson_solve_phi(Field2D.from_grid_values("dirichlet", f0, g))
            errs.append(np.max(np.abs(phi.values() - phi_star)))
        order = np.log2(errs[0] / errs[1])
        assert order >= 1.9

    def test_odd_forcing_gives_odd_solution(self, setup):
        grid, _, _ = setup
        f0 = np.outer(np.exp(-grid.x1), np.sin(np.pi * grid.x2))  # odd about x2 = 0
        phi = poisson_solve_phi(Field2D.from_grid_values("dirichlet", f0, grid))
        v = phi.values()
        assert np.max(np.abs(v + v[:, ::-1])) < 1e-11 * max(1.0, np.max(np.abs(v)))

    def test_boundary_conditions(self, setup):
        grid, _, _ = setup
        f0 = np.outer(np.ones_like(grid.x1), np.sin(np.pi * (grid.x2 + 1) / 2))
        phi = poisson_solve_phi(Field2D.from_grid_values("dirichlet", f0, grid))
        v = phi.values()
        assert np.max(np.abs(v[-1])) < 1e-12                       # exit Dirichlet
        assert np.max(np.abs(v[:, [0, -1]])) < 1e-12               # walls
        d1_inlet = (-1.5 * v[0] + 2 * v[1] - 0.5 * v[2]) / grid.h1
        assert np.max(np.abs(d1_inlet)) < 5e-3 * np.max(np.abs(v))  # O(h^2) Neumann

    def test_wrong_parity_rejected(self, setup):
        grid, _, _ = setup
        with pytest.raises(InputError):
            poisson_solve_phi(Field2D.zeros("cosine", grid))

    @settings(max_examples=25)
    @given(
        n_x1=st.integers(9, 160), m=st.integers(0, 9), L=st.floats(0.05, 5.0),
        seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([1e-12, 1e-4, 1.0, 1e6]),
    )
    def test_matches_per_mode_solves_bit_for_bit(self, n_x1, m, L, seed, scale):
        # one stacked dgtsv against one banded solve per mode on random forcings
        grid = Grid(L=L, n_x1=n_x1, m=m)
        modes = scale * np.random.default_rng(seed).standard_normal((n_x1, grid.n_dir))
        f0 = Field2D("dirichlet", modes, grid)
        assert np.array_equal(poisson_solve_phi(f0).modes, per_mode_poisson(f0))


class TestLift:
    def test_zero_data_zero_lift(self, setup):
        grid, _, coeffs = setup
        bdata = BoundaryDataSpec.zero()
        f1s, f2s, lp, lP = lift_boundary_data(bdata, coeffs)
        assert np.max(np.abs(f1s - coeffs.f1)) == 0.0
        assert np.max(np.abs(f2s - coeffs.f2)) == 0.0
        assert lp.sup_norm() == 0.0 and lP.sup_norm() == 0.0

    def test_field_ramp_trace(self, setup):
        grid, _, coeffs = setup
        sigma = 1e-3
        bdata = BoundaryDataSpec(sigma=sigma, e_modes=((1, 1.0),))
        _, _, _, lP = lift_boundary_data(bdata, coeffs)
        d1 = lP.d1()
        expect = sigma * np.cos(np.pi * grid.x2)
        assert np.max(np.abs(d1[0] - expect)) < 1e-10   # inlet d1 trace exact
        assert np.max(np.abs(lP.values()[-1])) < 1e-12  # vanishes at the exit

    def test_l2_image_analytic_vs_grid_operators(self, setup):
        grid, _, coeffs = setup
        sigma = 1e-3
        bdata = BoundaryDataSpec(sigma=sigma, e_modes=((1, 1.0),))
        f1s, f2s, _, lP = lift_boundary_data(bdata, coeffs)
        analytic_l2 = coeffs.f2 - f2s
        grid_l2 = (
            lP.d11() + lP.d22() - coeffs.c0[:, None] * lP.values()
        )
        assert np.max(np.abs(grid_l2 - analytic_l2)) < 1e-8

    def test_high_sine_mode_lifted(self, setup):
        # wall compatible by construction, though a numeric check of its wall
        # derivatives would see roundoff of size (60 pi)^5 ulp
        _, _, coeffs = setup
        bdata = BoundaryDataSpec(sigma=1e-5, w_modes=((60, 1.0),))
        f1s, f2s, lift_psi, _ = lift_boundary_data(bdata, coeffs)
        assert np.all(np.isfinite(f1s)) and np.all(np.isfinite(f2s))
        assert np.all(np.isfinite(lift_psi.modes))

    @settings(max_examples=60)
    @given(
        sigma=st.floats(0.0, 1e-2),
        s_modes=MODE_LISTS,
        e_modes=MODE_LISTS,
        w_modes=MODE_LISTS,
    )
    def test_family_members_wall_compatible_and_lifted(self, setup, sigma, s_modes, e_modes, w_modes):
        _, _, coeffs = setup
        bdata = BoundaryDataSpec(sigma=sigma, s_modes=s_modes, e_modes=e_modes, w_modes=w_modes)
        f1s, f2s, lift_psi, lift_Psi = lift_boundary_data(bdata, coeffs)
        assert np.all(np.isfinite(f1s)) and np.all(np.isfinite(f2s))


def _held_arrays(obj, path="sysm"):
    """``(path, array)`` of every array a mode system holds, through lists and tuples."""
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from _held_arrays(item, f"{path}[{i}]")
    elif isinstance(obj, ModeSystem):
        for name, value in vars(obj).items():
            yield from _held_arrays(value, f"{path}.{name}")


class TestEpsSystem:
    def test_zero_forcing_zero_solution(self, setup):
        grid, _, coeffs = setup
        zero = np.zeros((grid.n_x1, grid.n_x2))
        sysm = ModeSystem(coeffs, zero, zero)
        v, w = sysm.to_fields(*sysm.solve_banded(1e-2))
        assert v.sup_norm() == 0.0 and w.sup_norm() == 0.0

    def test_mode_decoupling_with_profile_coefficients(self, setup):
        grid, _, coeffs = setup
        f1 = np.outer(np.sin(np.pi * grid.x1 / grid.L), np.ones(grid.n_x2))
        sysm = ModeSystem(coeffs, f1, np.zeros_like(f1))
        th, Th = sysm.solve_banded(1e-2)
        assert np.max(np.abs(th[:, 1:])) < 1e-14 * np.max(np.abs(th[:, 0]))
        assert np.max(np.abs(Th[:, 1:])) < 1e-14 * max(np.max(np.abs(Th[:, 0])), 1e-30)

    def test_projection_is_projection(self):
        Pi = mixed_solver.PI.astype(float)
        assert np.all(Pi * Pi == Pi)
        assert list(mixed_solver.PI) == [True, True, False, False, True]
        assert np.array_equal(mixed_solver.PI, INLET_ANCHORED)

    @pytest.mark.parametrize("amp", [0.0, 1e-2, 0.5])
    @pytest.mark.parametrize("n_x1, m", [(17, 2), (33, 4)])
    @pytest.mark.parametrize("eps", ["1e-2", "h1^2"])
    def test_small_instance_matches_dense_integral_oracle(self, bg_narrow, amp, n_x1, m, eps):
        # window 0.95..1.05; amp = 0 keeps the background coefficients, which
        # are wall-uniform (the wall-mean preconditioner is then exact), while
        # amp > 0 couples the modes so GMRES has to close the gap
        grid, sysm, data = _oracle_system(bg_narrow, n_x1, m, amp)
        eps = 1e-2 if eps == "1e-2" else grid.h1 ** 2
        th_b, Th_b = sysm.solve_banded(eps)
        th_d, Th_d = solve_dense_first_order(*data, eps)
        assert np.max(np.abs(th_b - th_d)) <= 1e-12
        assert np.max(np.abs(Th_b - Th_d)) <= 1e-12

    def test_residual_gate_raises_far_outside_sigma_cap(self, bg_narrow):
        # an O(1) wall-direction modulation couples the modes as strongly as
        # the wall means, so the wall-mean preconditioner is poor and GMRES
        # stalls: the solve must raise instead of returning the iterate
        grid, sysm, _ = _oracle_system(bg_narrow, 33, 4, 1.0)
        with pytest.raises(NonConvergenceError, match=r"m=4: .*iterations"):
            sysm.solve_banded(grid.h1 ** 2)

    @pytest.mark.parametrize("n_x1, m", [(61, 4), (101, 16)])
    def test_coupling_blocks_match_batched_oracle(self, bg, n_x1, m):
        # a perturbed iterate, so a12 and the wall-direction variation are nonzero
        grid = Grid(L=bg.x1_at_speed(1.1 * CANON.u_s), n_x1=n_x1, m=m)
        prof = background_profile(bg, grid)
        state = FlowState.zeros(grid)
        x1 = grid.x1 / grid.L
        state.psi.modes[:, 1] = 1e-3 * x1 ** 2 * (1 - x1)
        state.phi.modes[:, 2] = 1e-3 * np.sin(np.pi * x1)
        state.Psi.modes[:, 1] = 1e-3 * (1 - x1) ** 2
        coeffs = assemble_coefficients(collocate(state, prof), default_d0(prof))
        assert np.max(np.abs(coeffs.a12)) > 1e-6
        sysm = ModeSystem(coeffs, coeffs.f1, coeffs.f2)
        K, N, half = m + 1, 5 * n_x1, grid.h1 / 2.0
        # the coefficients split into their w2-means <c> and the wall-varying rest
        fields = {name: getattr(coeffs, name) for name in ("a11", "a12", "a", "b1", "b0")}
        means = {name: np.broadcast_to((c @ grid.w2)[:, None] / np.sum(grid.w2), c.shape)
                 for name, c in fields.items()}
        mean_blocks = batched_coupling_blocks(SimpleNamespace(grid=grid, **means))
        varying = batched_coupling_blocks(SimpleNamespace(grid=grid, **{
            name: c - means[name] for name, c in fields.items()}))
        assert all(ref.shape == (n_x1, K, K) for ref in mean_blocks + varying)
        # the blocks of the means are <c> Id (eta_k orthonormal; eta_k eta_j' odd, so
        # <a12> adds nothing), up to the roundoff of their n_x2-term quadrature; the
        # X3' row of cell i carries (h/2) <C>(x1_i) on its left station's X_blk and
        # (h/2) <C>(x1_(i+1)) on its right one (band row l + u + r - c), the same for
        # every mode; at eps = 0 the band holds no viscous X3 entry
        ab = sysm._assemble_banded(0.0).reshape(-1, K, N)
        for blk, ref, name in zip((2, 1, 4, 3), mean_blocks, ("a11", "a", "b1", "b0")):
            mean = half * means[name][:, 0]                                # (n,)
            roundoff = grid.n_x2 * np.finfo(float).eps * half * np.max(np.abs(ref))
            assert np.max(np.abs(half * ref - mean[:, None, None] * np.eye(K))) <= roundoff
            tol = 1e-15 * half * np.max(np.abs(ref))
            left = ab[BAND_L + BAND_U + 5 - blk, :, blk:5 * (n_x1 - 1):5]
            right = ab[BAND_L + BAND_U - blk, :, 5 + blk::5]
            for got, want in ((left, mean[:-1]), (right, mean[1:])):
                assert np.max(np.abs(got - want)) <= tol
        # and (h/2) times the whole block product of the wall-varying parts, its
        # mode diagonal included, applied at both stations, nothing on the other
        # rows; a random vector and a box solution, whose X components differ in
        # scale.  The tolerance is the per-entry bound 1e-15 (h/2) max|C_var|
        # summed over the 2 K entries of each block a row reads, times the
        # largest |X_blk| of the vector
        starts = {}
        sysm.solve_banded(1e-2, starts)
        for x in (np.random.default_rng(m).standard_normal(K * N), starts[1e-2]):
            X = x.reshape(K, n_x1, 5)
            z = sum(np.einsum("ikj,ji->ik", ref, X[:, :, blk]) for blk, ref in zip((2, 1, 4, 3), varying))
            want = np.zeros((K, N))
            want[:, 5:-2:5] = half * (z[:-1] + z[1:]).T
            tol = sum(2 * K * 1e-15 * half * np.max(np.abs(ref)) * np.max(np.abs(X[:, :, blk]))
                      for blk, ref in zip((2, 1, 4, 3), varying))
            assert np.max(np.abs(sysm.coupling(x) - want.ravel())) <= tol

    def test_no_held_array_grows_like_k_squared_per_station(self, bg_narrow):
        # the entries each array of a coupled system adds per station, from
        # n_x1 = 33 to 65, at m = 8 and m = 16 (K = 9, 17): K^2 entries per
        # station grow 3.6x, K or n_x2 = 4K + 1 entries 1.9x.  Neither a
        # coupled nor a wall-uniform system holds an array, or the base of a
        # view, with a band's (2 l + u + 1) 5 n K entries
        def per_station(m):
            sizes = []
            for n_x1 in (33, 65):
                sysm, uniform = (_oracle_system(bg_narrow, n_x1, m, amp, every_mode=True)[1] for amp in (0.5, 0.0))
                assert sysm.K == uniform.K == m + 1 and sysm.coupled is not None and uniform.coupled is None
                band = (2 * BAND_L + BAND_U + 1) * 5 * n_x1 * (m + 1)
                for system in (sysm, uniform):
                    held = [a if a.base is None else a.base for _, a in _held_arrays(system)]
                    assert held and max(a.size for a in held) < band
                sizes.append({path: a.size for path, a in _held_arrays(sysm)})
            return {path: (sizes[1][path] - size) / 32 for path, size in sizes[0].items()}

        coarse, fine = per_station(8), per_station(16)
        assert coarse.keys() == fine.keys() and any(path.startswith("sysm.terms") for path in coarse)
        for path, grow in coarse.items():
            assert fine[path] <= 2.0 * grow, path

    def test_mode0_principal_profile_degenerates_once_at_sonic(self, setup, bg):
        grid, _, coeffs = setup
        prof = batched_coupling_blocks(coeffs)[0][:, 0, 0]   # mode-0 principal coefficient
        changes = np.nonzero(np.diff(np.sign(prof)) != 0)[0]
        assert len(changes) == 1
        assert abs(grid.x1[changes[0]] - bg.l_s) <= 2 * grid.h1
        assert prof[0] > 0 > prof[-1]     # elliptic inlet, hyperbolic exit

    def test_energy_sign_audit_passes_at_background(self, setup):
        _, _, coeffs = setup
        assert energy_sign_audit(coeffs)

    def test_energy_sign_audit_warns_on_bad_set(self, setup):
        import copy

        _, _, coeffs = setup
        bad = copy.copy(coeffs)
        bad.a = -coeffs.a  # wrong drift sign
        with pytest.warns(UserWarning):
            assert not energy_sign_audit(bad)

    @pytest.mark.parametrize("name", ["a", "a11"])
    def test_energy_sign_audit_fails_on_nan(self, name):
        # NaN <= 0 is False: a NaN profile must still fail the audit, not pass it
        grid = Grid(L=1.0, n_x1=21, m=1)
        shape = (grid.n_x1, grid.n_x2)
        coeffs = SimpleNamespace(grid=grid, a=np.full(shape, -1.0), a11=np.zeros(shape))
        getattr(coeffs, name)[10, 1] = np.nan
        with pytest.warns(UserWarning, match="energy-sign audit failed"):
            assert not energy_sign_audit(coeffs)


def _first_iterate_forcing(bg, grid, bdata):
    """The coefficient set and lifted forcings of the first outer iterate of
    ``fixed_point_solve``: the background state with the inlet entropy transported."""
    prof = background_profile(bg, grid)
    view = collocate(FlowState.zeros(grid), prof)
    label = lagrangian_map(stream_function(momentum_field(view)[0], grid))
    T = transport_entropy(bdata.s_en_minus_s0, label, grid)
    coeffs = assemble_coefficients(view._replace(state=replace(view.state, T=T)), default_d0(prof))
    f1, f2, _, _ = lift_boundary_data(bdata, coeffs)
    return coeffs, f1, f2


def _builds_no_coupling(sysm):
    """The system holds no coupling fields, its off-mode product is zero and
    its operator maps the first carried mode, if any, into itself alone."""
    if not sysm.forced:
        return sysm.coupled is None
    x = np.zeros((sysm.K, sysm.rhs.size // sysm.K))
    x[0] = np.random.default_rng(0).standard_normal(x.shape[1])
    y = sysm.operator(1e-2)(x.ravel()).reshape(x.shape)
    return sysm.coupled is None and not sysm.coupling(x.ravel()).any() and y[0].any() and not y[1:].any()


class TestForcedModes:
    """A wall-uniform set carries only its forced modes and builds no coupling."""

    @settings(max_examples=30)
    @given(
        shape=st.sampled_from([(17, 2), (33, 4)]),
        eps=st.sampled_from(["1e-2", "h1^2"]),
        slopes=st.lists(st.floats(-0.3, 0.3), min_size=5, max_size=5),
        amplitudes=st.lists(st.sampled_from([0.0, 0.0, 1.0, -0.4, 1e-3]), min_size=10, max_size=10),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_reduced_solve_matches_dense_box_system(self, bg_narrow, shape, eps, slopes, amplitudes, seed):
        # random x1 profiles of the background coefficients, constant in x2,
        # and random data in a random subset of the modes
        n_x1, m = shape
        grid, _, (coeffs, _, _) = _oracle_system(bg_narrow, n_x1, m, 0.0)
        eps = 1e-2 if eps == "1e-2" else grid.h1 ** 2
        x1 = grid.x1 / grid.L
        for name, slope in zip(("a11", "a", "b1", "b0"), slopes):
            setattr(coeffs, name, getattr(coeffs, name) * (1.0 + slope * x1)[:, None])
        coeffs.a12 = np.broadcast_to((slopes[4] * x1 ** 2)[:, None], coeffs.a11.shape)
        rng = np.random.default_rng(seed)
        K = m + 1
        c1, c2 = np.array(amplitudes[:K]), np.array(amplitudes[5:5 + K])
        profiles = np.polynomial.polynomial.polyval(x1, rng.standard_normal((3, K)))   # (K, n)
        cos = grid.families["cosine"].value
        f1 = (c1[:, None] * profiles).T @ cos.T
        f2 = (c2[:, None] * profiles[::-1]).T @ cos.T
        sysm = ModeSystem(coeffs, f1, f2)
        assert _builds_no_coupling(sysm)
        assert list(sysm.modes) == list(np.flatnonzero((c1 != 0) | (c2 != 0)))

        A, rhs = dense_box_system(coeffs, f1, f2, eps)
        ref = np.linalg.solve(A, rhs).reshape(K, n_x1, 5)
        th, Th = sysm.solve_banded(eps)
        assert np.max(np.abs(th - ref[:, :, 0].T)) <= 1e-12
        assert np.max(np.abs(Th - ref[:, :, 3].T)) <= 1e-12
        dropped = np.setdiff1d(np.arange(K), sysm.modes)
        assert not th[:, dropped].any() and not Th[:, dropped].any()
        assert np.max(np.abs(ref[dropped][:, :, [0, 3]]), initial=0.0) <= 1e-12

    def test_canonical_first_iterate_carries_modes_0_to_4(self, bg):
        # single-mode data forces modes 0..4 through the transported entropy;
        # modes 5..16 carry projection roundoff (220-340 ulps of the magnitude
        # sum, 2e-13 relative), mode 4 1610 ulps: FORCED_MODE_ROUNDOFF = 1024
        # keeps a factor 3 above the roundoff and 1.5 below mode 4
        grid = Grid(L=bg.x1_at_speed(1.1 * CANON.u_s), n_x1=401, m=16)
        one = ((1, 1.0),)
        bdata = BoundaryDataSpec(sigma=1e-4, s_modes=one, e_modes=one, w_modes=one)
        coeffs, f1, f2 = _first_iterate_forcing(bg, grid, bdata)
        sysm = ModeSystem(coeffs, f1, f2)
        assert list(sysm.modes) == [0, 1, 2, 3, 4] and _builds_no_coupling(sysm)
        w2, (eta, _) = grid.w2, galerkin_basis(grid)
        forcing = np.max(np.abs((f1 * w2) @ eta) + np.abs((f2 * w2) @ eta), axis=0)
        ulps = forcing / (np.finfo(float).eps * np.max(((np.abs(f1) + np.abs(f2)) * w2) @ np.abs(eta), axis=0))
        assert np.max(ulps[5:]) <= FORCED_MODE_ROUNDOFF / 3 and ulps[4] >= 1.5 * FORCED_MODE_ROUNDOFF

    def test_first_iterate_solves_take_one_step_without_coupling(self, bg, monkeypatch):
        # the later iterates couple the modes, so they need the coupling products
        systems, steps, products = [], [], []
        init, gmres, coupling = ModeSystem.__init__, mixed_solver._gmres, ModeSystem.coupling

        def counted_init(self, *args):
            init(self, *args)
            systems.append(self)

        def counted_gmres(*args):
            out = gmres(*args)
            steps.append((len(systems), out[2]))
            return out

        def counted_coupling(self, x):
            products.append(len(systems))
            return coupling(self, x)

        monkeypatch.setattr(ModeSystem, "__init__", counted_init)
        monkeypatch.setattr(mixed_solver, "_gmres", counted_gmres)
        monkeypatch.setattr(ModeSystem, "coupling", counted_coupling)
        grid = Grid(L=bg.x1_at_speed(1.1 * CANON.u_s), n_x1=51, m=4)
        bdata = BoundaryDataSpec(sigma=1e-4, s_modes=((1, 1.0),), e_modes=((1, 1.0),))
        out = fixed_point_solve(bg, bdata, grid, override_certificate=True)
        assert out.converged and len(systems) == out.iterations > 1
        first = [n for system, n in steps if system == 1]
        assert len(first) > 1 and first == [1] * len(first)
        assert 1 not in products and len(products) > 0

    def test_near_edge_solve_gmres_steps(self, bg, monkeypatch):
        # the canonical gas near the outer contraction edge: 41 outer iterates and
        # 134 box solves, each later one preconditioned by the wall-uniform operator
        # of its own coefficient means.  Its GMRES steps total 696, against 709 with
        # the band of the exact Galerkin mode diagonals, and none restarts
        steps, gmres = [], mixed_solver._gmres

        def counted(*args):
            out = gmres(*args)
            steps.append(out[2])
            return out

        monkeypatch.setattr(mixed_solver, "_gmres", counted)
        grid = Grid(L=bg.x1_at_speed(1.1 * CANON.u_s), n_x1=201, m=8)
        bdata = BoundaryDataSpec(sigma=3e-3, s_modes=((1, 1.0), (2, 0.5)), e_modes=((1, 1.0), (3, 0.3)),
                                 w_modes=((1, 1.0),))
        out = fixed_point_solve(bg, bdata, grid, override_certificate=True, sigma_cap=1.0)
        assert out.converged and out.iterations > 30
        assert sum(steps) <= 709 and max(steps) <= GMRES_RESTART

    def test_residual_gate_counts_the_dropped_modes(self, setup):
        # the modes a wall-uniform set drops keep their right-hand side in |b - A x|
        grid, _, coeffs = setup
        f1 = _bump(grid)
        sysm = ModeSystem(coeffs, f1, np.zeros_like(f1))
        assert list(sysm.modes) == [0]
        sysm.solve_banded(1e-2)
        sysm.rhs_dropped = 1e-9 * np.linalg.norm(sysm.rhs)
        with pytest.raises(NonConvergenceError, match="GMRES missed the residual bound"):
            sysm.solve_banded(1e-2)

    def test_unforced_set_assembles_nothing(self, setup, monkeypatch):
        grid, _, coeffs = setup
        monkeypatch.setattr(ModeSystem, "_assemble_banded", None)
        odd = np.outer(np.ones(grid.n_x1), np.sin(np.pi * grid.x2))   # no cosine content
        for f1 in (np.zeros((grid.n_x1, grid.n_x2)), odd):
            sysm = ModeSystem(coeffs, f1, np.zeros_like(f1))
            assert not sysm.forced and sysm.K == 0
            th, Th = sysm.solve_banded(1e-2)
            assert th.shape == (grid.n_x1, grid.n_cos) and not th.any() and not Th.any()


@pytest.mark.parametrize("amp", [0.0, 0.5])
@pytest.mark.parametrize("n_x1, m", [(17, 2), (33, 4)])
@pytest.mark.parametrize("eps", ["1e-2", "h1^2"])
@pytest.mark.parametrize("gas", ["canon", "certified"])
class TestBandSystem:
    """The matrix-free operator, the band and its LU against a dense assembly,
    on CANON's window 0.95..1.05 and on the certified gamma = 1.4 background."""

    @pytest.fixture
    def instance(self, request, gas, amp, n_x1, m, eps):
        # forced in every mode, so the wall-uniform set (amp = 0) carries the full band
        if gas == "canon":
            bg, L = request.getfixturevalue("bg_narrow"), None
        else:
            bg, L = request.getfixturevalue("bg_certified")
        grid, sysm, data = _oracle_system(bg, n_x1, m, amp, every_mode=True, L=L)
        assert sysm.K == m + 1
        eps = 1e-2 if eps == "1e-2" else grid.h1 ** 2
        A, rhs = dense_box_system(*data, eps)
        N = 5 * grid.n_x1
        rows, cols = np.indices(A.shape)
        # the mode-diagonal part, here the wall-mean operator of the band:
        # cos(pi x2) adds no mode-diagonal Galerkin entry
        D = np.where(rows // N == cols // N, A, 0.0)
        return sysm, eps, A, rhs, D

    def test_operator_equals_dense_matrix(self, instance):
        sysm, eps, A, rhs, _ = instance
        apply = sysm.operator(eps)
        columns = np.column_stack([apply(e) for e in np.eye(len(rhs))])
        assert np.max(np.abs(columns - A)) <= 1e-14 * np.max(np.abs(A))
        assert np.max(np.abs(sysm.rhs - rhs)) <= 1e-14 * np.max(np.abs(rhs))

    def test_mode_diagonal_part_is_banded(self, instance):
        *_, D = instance
        rows, cols = np.nonzero(D)
        assert np.all(rows - cols <= BAND_L) and np.all(cols - rows <= BAND_U)
        assert np.max(rows - cols) == BAND_L == 5 and np.max(cols - rows) == BAND_U == 4

    def test_assembled_band_is_mode_diagonal_part(self, instance):
        # entry by entry in dgbtrf storage, D[r, c] at ab[l + u + r - c, c],
        # with the l fill rows zero
        sysm, eps, *_, D = instance
        ab = sysm._assemble_banded(eps)
        rows, cols = np.nonzero(D)
        ref = np.zeros((2 * BAND_L + BAND_U + 1, len(D)))
        ref[BAND_L + BAND_U + rows - cols, cols] = D[rows, cols]
        assert ab.shape == ref.shape and ab.flags.f_contiguous
        assert np.max(np.abs(ab - ref)) <= 1e-14 * np.max(np.abs(D))

    def test_factor_solves_mode_diagonal_part(self, instance):
        sysm, eps, _, rhs, D = instance
        b = rhs + np.cos(np.arange(len(rhs)))               # excite every row
        x_ref = np.linalg.solve(D, b)
        x = sysm.factor(eps).solve(b)
        assert np.max(np.abs(x - x_ref)) <= 1e-13 * np.max(np.abs(x_ref))

    def test_factor_in_place_leaves_base_untouched(self, instance, monkeypatch):
        # each eps assembles its own Fortran-order band, which dgbtrf factors
        # in place with no copy; nothing the system holds is written
        sysm, eps, *_ = instance
        before = [(path, a.copy()) for path, a in _held_arrays(sysm)]
        inputs = []
        dgbtrf = mixed_solver.lapack.dgbtrf

        def spy(ab, *args, **kwargs):
            inputs.append(ab)
            return dgbtrf(ab, *args, **kwargs)

        monkeypatch.setattr(mixed_solver.lapack, "dgbtrf", spy)
        lu = sysm.factor(eps)
        (ab,) = inputs
        assert ab.flags.f_contiguous and np.shares_memory(lu.lu, ab)
        assert not any(np.shares_memory(ab, a) for _, a in _held_arrays(sysm))
        again = sysm.factor(eps)
        assert np.array_equal(again.lu, lu.lu) and np.array_equal(again.piv, lu.piv)
        sysm.operator(eps)(np.ones(ab.shape[1]))
        after = list(_held_arrays(sysm))
        assert [path for path, _ in after] == [path for path, _ in before]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(after, before))

    def test_arnoldi_product_from_coupling_only(self, instance):
        # A M^-1 v = v + C M^-1 v for the exact LU M of the wall-mean band
        sysm, eps, A, rhs, D = instance
        v = rhs + np.cos(np.arange(len(rhs)))
        z = sysm.factor(eps).solve(v)
        Az = sysm.operator(eps)(z)
        assert np.max(np.abs(sysm.coupling(z) - (A - D) @ z)) <= 1e-14 * np.max(np.abs(Az))
        assert np.max(np.abs(v + sysm.coupling(z) - Az)) <= 1e-13 * np.max(np.abs(Az))

    def test_factor_undoes_mode_diagonal_part_of_operator(self, instance, amp):
        # x solves a box system, so it carries a solution's scales across the
        # X components; at amp = 0 (no off-mode coupling) the round trip is x
        sysm, eps, A, rhs, D = instance
        x = np.linalg.solve(A, rhs + np.cos(np.arange(len(rhs))))
        y = sysm.factor(eps).solve(sysm.operator(eps)(x))
        expect = x if amp == 0.0 else np.linalg.solve(D, A @ x)
        assert np.max(np.abs(y - expect)) <= 1e-13 * np.max(np.abs(expect))


def test_singular_band_raises_naming_eps_and_m(bg_narrow, monkeypatch):
    grid, sysm, _ = _oracle_system(bg_narrow, 17, 2, 0.0)
    column = 5 * grid.n_x1 + 6                              # mode 1, station 1, X2
    assemble = ModeSystem._assemble_banded

    def singular(self, eps):
        ab = assemble(self, eps)
        ab[:, column] = 0.0
        return ab

    monkeypatch.setattr(ModeSystem, "_assemble_banded", singular)
    with pytest.raises(NonConvergenceError, match=r"eps=0\.01, m=2"):
        sysm.factor(1e-2)


class TestGmres:
    # every run passes the coupling C = A - M of its preconditioner M (A - I
    # for none, A - diag(A) for Jacobi, 0 for the exact inverse), so the
    # Arnoldi product v + C M^-1 v is A M^-1 v
    def _system(self):
        rng = np.random.default_rng(3)
        A = np.eye(80) + 0.6 * rng.standard_normal((80, 80)) / np.sqrt(80)
        return A, rng.standard_normal(80)

    @staticmethod
    def _jacobi(A):
        C = A - np.diag(np.diag(A))
        return (lambda v: v / np.diag(A)), (lambda z: C @ z)   # noqa: E731

    @staticmethod
    def _with_estimate(*args):
        """``_gmres(*args)`` and the rotated residual ``|g_(j+1)|`` its last cycle stopped on,
        read from the call's locals as it returns."""
        seen = {}

        def profile(frame, event, _):
            if event == "return" and frame.f_code is _gmres.__code__:
                seen.update(g=frame.f_locals["g"], j=frame.f_locals["j"])

        sys.setprofile(profile)
        try:
            out = _gmres(*args)
        finally:
            sys.setprofile(None)
        return out, abs(seen["g"][seen["j"] + 1])

    @pytest.mark.parametrize("name, steps", [("identity", 48), ("exact", 1), ("jacobi", 47),
                                             ("jacobi_half_start", 46), ("perturbed", 47), ("perturbed_warm", 28),
                                             ("shift", 14)])
    def test_step_counts_and_rotated_estimate(self, name, steps):
        # the step counts GMRES took when it solved its small least-squares problem by
        # numpy.linalg.lstsq; the rotated residual it stops on agrees with the recomputed
        # |b - A x| to a factor 1.001, up to 1e-15 |b| of roundoff (ratios 0.99996 to 1.0001;
        # the exact preconditioner's one step ends at roundoff, where the two differ by 2.9x)
        A, b = self._system()
        jacobi, coupling = self._jacobi(A)
        A2 = A + 1e-6 * np.random.default_rng(4).standard_normal(A.shape)
        jacobi2, coupling2 = self._jacobi(A2)
        args = {
            "identity": lambda: (lambda v: A @ v, lambda v: v, lambda z: (A - np.eye(len(b))) @ z, b),
            "exact": lambda: (lambda v: A @ v, lambda v: np.linalg.solve(A, v), np.zeros_like, b),
            "jacobi": lambda: (lambda v: A @ v, jacobi, coupling, b),
            "jacobi_half_start": lambda: (lambda v: A @ v, jacobi, coupling, b, 0.5 * np.linalg.solve(A, b)),
            "perturbed": lambda: (lambda v: A2 @ v, jacobi2, coupling2, b),
            "perturbed_warm": lambda: (lambda v: A2 @ v, jacobi2, coupling2, b,
                                       _gmres(lambda v: A @ v, jacobi, coupling, b)[0]),
            "shift": lambda: (lambda v: v + 0.125 * np.roll(v, 1), lambda v: v / 2.0,
                              lambda z: 0.125 * np.roll(z, 1) - z,
                              np.random.default_rng(5).standard_normal(100_000)),
        }[name]()
        (x, residual, iterations), estimate = self._with_estimate(*args)
        apply, _, _, rhs = args[:4]
        b_norm = np.linalg.norm(rhs)
        assert iterations == steps
        assert residual == np.linalg.norm(rhs - apply(x)) <= GMRES_RTOL * b_norm
        assert abs(estimate - residual) <= 1e-3 * residual + 1e-15 * b_norm

    def test_restarts_to_the_relative_residual(self):
        # spectrum in a disk of radius ~0.6 about 1: more than one cycle
        A, b = self._system()
        C = A - np.eye(len(b))
        x, residual, iterations = _gmres(lambda v: A @ v, lambda v: v, lambda z: C @ z, b)
        assert iterations > GMRES_RESTART
        assert residual == np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)
        assert np.max(np.abs(x - np.linalg.solve(A, b))) <= 1e-11

    def test_exact_preconditioner_takes_one_step(self):
        A, b = self._system()
        A_inv = np.linalg.inv(A)
        x, residual, iterations = _gmres(lambda v: A @ v, lambda v: A_inv @ v, np.zeros_like, b)
        assert iterations == 1 and residual <= 1e-12 * np.linalg.norm(b)

    def test_inexact_preconditioner_once_per_iteration(self):
        # Jacobi is inexact here, so several steps are needed; each applies it once
        A, b = self._system()
        calls = []
        diag, coupling = self._jacobi(A)

        def jacobi(v):
            calls.append(v)
            return diag(v)

        x, residual, iterations = _gmres(lambda v: A @ v, jacobi, coupling, b)
        assert iterations > 1 and len(calls) == iterations
        assert residual == np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)

    def test_zero_rhs(self):
        A, b = self._system()
        C = A - np.eye(len(b))
        x, residual, iterations = _gmres(lambda v: A @ v, lambda v: v, lambda z: C @ z, np.zeros_like(b))
        assert not x.any() and residual == 0.0 and iterations == 0

    def test_start_meeting_the_bound_returned_unchanged(self):
        A, b = self._system()
        x0 = np.linalg.solve(A, b)
        assert np.linalg.norm(b - A @ x0) <= GMRES_RTOL * np.linalg.norm(b)
        calls = []
        x, residual, iterations = _gmres(lambda v: A @ v, calls.append, calls.append, b, x0.copy())
        assert iterations == 0 and not calls
        assert np.array_equal(x, x0) and residual == np.linalg.norm(b - A @ x0)

    @pytest.mark.parametrize("start", ["zero", "reversed"])
    def test_start_no_closer_than_zero_is_dropped(self, start):
        # |b - A x0| >= |b| (equal for x0 = 0, twice for x0 = -x): the
        # iteration is the one from zero, bit for bit
        A, b = self._system()
        x0 = np.zeros_like(b) if start == "zero" else -np.linalg.solve(A, b)
        jacobi, coupling = self._jacobi(A)
        cold = _gmres(lambda v: A @ v, jacobi, coupling, b)
        warm = _gmres(lambda v: A @ v, jacobi, coupling, b, x0)
        assert np.array_equal(warm[0], cold[0]) and warm[1:] == cold[1:]

    def test_previous_solution_of_perturbed_system_saves_steps(self):
        A, b = self._system()
        jacobi, coupling = self._jacobi(A)
        x_prev = _gmres(lambda v: A @ v, jacobi, coupling, b)[0]
        A2 = A + 1e-6 * np.random.default_rng(4).standard_normal(A.shape)
        jacobi2, coupling2 = self._jacobi(A2)
        cold = _gmres(lambda v: A2 @ v, jacobi2, coupling2, b)
        warm = _gmres(lambda v: A2 @ v, jacobi2, coupling2, b, x_prev)
        assert warm[2] < cold[2]
        for x, residual, _ in (cold, warm):
            assert residual == np.linalg.norm(b - A2 @ x) <= GMRES_RTOL * np.linalg.norm(b)

    def test_coupling_products_skip_the_operator(self):
        # M = the diagonal, inverted exactly: Arnoldi runs on v + C M^-1 v and
        # the full operator only closes each cycle
        A, b = self._system()
        jacobi, coupling = self._jacobi(A)
        applied = []

        def apply(v):
            applied.append(v)
            return A @ v

        x, residual, iterations = _gmres(apply, jacobi, coupling, b)
        assert iterations > 1 and len(applied) == -(-iterations // GMRES_RESTART)
        assert residual == np.linalg.norm(b - A @ x) <= GMRES_RTOL * np.linalg.norm(b)

    def test_writes_neither_b_nor_the_start(self):
        A, b = self._system()
        jacobi, coupling = self._jacobi(A)
        x0 = 0.5 * np.linalg.solve(A, b)
        b_in, x0_in = b.copy(), x0.copy()
        x, _, iterations = _gmres(lambda v: A @ v, jacobi, coupling, b, x0)
        assert iterations > 1 and np.array_equal(b, b_in) and np.array_equal(x0, x0_in)
        assert not np.may_share_memory(x, x0) and not np.may_share_memory(x, b)

    def test_basis_released_before_the_closing_product(self):
        # A = I + S/8 with S a cyclic shift, M = 2 I: one cycle, in which every
        # Arnoldi step keeps two new vectors, yet when the product that closes
        # it runs, only x is live besides b
        n = 100_000
        b = np.random.default_rng(5).standard_normal(n)
        live = []

        def apply(v):
            live.append(tracemalloc.get_traced_memory()[0])
            return v + 0.125 * np.roll(v, 1)

        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            x, _, iterations = _gmres(apply, lambda v: v / 2.0, lambda z: 0.125 * np.roll(z, 1) - z, b)
        finally:
            tracemalloc.stop()
        assert iterations >= 4 and len(live) == 1
        assert live[0] - entry < 1.5 * b.nbytes


class TestVanishingViscosity:
    def test_zero_data_short_circuit(self, setup):
        grid, _, coeffs = setup
        zero = np.zeros((grid.n_x1, grid.n_x2))
        v, w, trace = vanishing_viscosity(coeffs, zero, zero)
        assert v.sup_norm() == 0.0 and w.sup_norm() == 0.0
        assert trace == []

    def test_trace_eventually_decreasing_with_bump(self, setup):
        grid, _, coeffs = setup
        f1 = _bump(grid)
        v, w, trace = vanishing_viscosity(coeffs, f1, np.zeros_like(f1), tol_eps=1e-14, cap=30)
        diffs = [t["h1_diff"] for t in trace]
        assert len(diffs) >= 4
        tail = diffs[-4:]
        assert all(tail[i + 1] < tail[i] for i in range(3))
        assert trace[-1]["epsilon"] >= grid.h1 ** 2

    def test_returned_solution_at_tolerance(self, setup):
        grid, _, coeffs = setup
        f1 = _bump(grid)
        v, w, trace = vanishing_viscosity(coeffs, f1, np.zeros_like(f1), tol_eps=1e-6)
        assert trace[-1]["h1_diff"] <= 1e-6

    def test_exit_second_derivative_condition(self, setup):
        # the imposed d11 v = 0 exit row holds for the returned field up to
        # the consistency error of the one-sided evaluation stencil
        grid, _, coeffs = setup
        f1 = _bump(grid)
        v, w, trace = vanishing_viscosity(coeffs, f1, np.zeros_like(f1), tol_eps=1e-6)
        d11_exit = np.abs(v.d11()[-1])
        scale = np.max(np.abs(v.d11()))
        assert np.max(d11_exit) <= 0.05 * scale + 1e-12

    @pytest.mark.parametrize(
        "options, message",
        [({"eps0": -0.1}, "eps0"), ({"eps0": 0.0}, "eps0"), ({"eps0": np.inf}, "eps0"),
         ({"tol_eps": -1.0}, "tol_eps"), ({"tol_eps": np.nan}, "tol_eps"), ({"cap": -1}, "cap"),
         ({"cap": 2.5}, "cap")],
        ids=["eps0_negative", "eps0_zero", "eps0_inf", "tol_eps_negative", "tol_eps_nan", "cap_negative",
             "cap_fraction"],
    )
    def test_invalid_schedule_rejected_before_zero_forcing_shortcut(self, setup, options, message):
        grid, _, coeffs = setup
        zero = np.zeros((grid.n_x1, grid.n_x2))
        with pytest.raises(InputError, match=message):
            vanishing_viscosity(coeffs, zero, zero, **options)

    def test_zero_cap_returns_first_solve(self, setup):
        grid, _, coeffs = setup
        f1 = 1e-4 * np.outer(np.sin(np.pi * grid.x1 / grid.L), np.ones(grid.n_x2))
        v, w, trace = vanishing_viscosity(coeffs, f1, np.zeros_like(f1), cap=0)
        sysm = ModeSystem(coeffs, f1, np.zeros_like(f1))
        v0, _ = sysm.to_fields(*sysm.solve_banded(0.1))
        assert trace == [] and np.array_equal(v.modes, v0.modes)

    def test_divergent_trace_detected(self, setup):
        # starting the schedule far above the resolved range makes the
        # consecutive differences grow for many steps (solution ~ 1/eps);
        # the energy grows only 2x per step, so the trace guard fires first
        grid, d0, coeffs = setup
        f1 = np.outer(np.sin(np.pi * grid.x1 / grid.L), np.ones(grid.n_x2))
        with pytest.raises(NonConvergenceError, match="non-decreasing over 5"):
            vanishing_viscosity(
                coeffs, f1, np.zeros_like(f1), eps0=1e10, tol_eps=1e-18, cap=40
            )

    def test_energy_blowup_detected(self, setup, monkeypatch):
        # one solve 1e4 times too large trips the energy guard, not the trace one
        grid, _, coeffs = setup
        f1 = _bump(grid)
        solve = ModeSystem.solve_banded

        def spoiled(self, eps, *args):
            theta, Theta = solve(self, eps, *args)
            return (1e4 * theta, Theta) if eps == 0.1 * 0.5 ** 3 else (theta, Theta)

        monkeypatch.setattr(ModeSystem, "solve_banded", spoiled)
        with pytest.raises(NonConvergenceError, match="energy blow-up at eps=0.0125"):
            vanishing_viscosity(coeffs, f1, np.zeros_like(f1), tol_eps=1e-9)


class TestWarmStart:
    """A continuation carried in a dict from viscosity to kept box solution, whose walk starts
    ``WARM_START_OCTAVES`` halvings above the smallest kept viscosity, the last stop."""

    def test_warm_start_bit_identical(self, setup, box_solves):
        grid, _, coeffs = setup
        f1, f2 = _bump(grid), np.zeros((grid.n_x1, grid.n_x2))
        carrier = {}
        v0, w0, trace0 = vanishing_viscosity(coeffs, f1, f2, tol_eps=1e-9, warm=carrier)
        k_stop = trace0[-1]["k"]
        kept = [0.1 * 0.5 ** k for k in range(k_stop - WARM_START_OCTAVES, k_stop + 1)]
        assert trace0[0]["k"] == 1 and k_stop > WARM_START_OCTAVES
        assert sorted(carrier, reverse=True) == kept
        full_solves = len(box_solves)
        assert full_solves == k_stop + 1

        v, w, trace = vanishing_viscosity(coeffs, f1, f2, tol_eps=1e-9, warm=carrier)
        assert np.array_equal(v.modes, v0.modes) and np.array_equal(w.modes, w0.modes)
        assert trace == trace0[-WARM_START_OCTAVES:]
        assert box_solves[full_solves:] == kept
        # the carrier keeps the same viscosities: same stop, so the same next start
        assert sorted(carrier, reverse=True) == kept

    def test_resume_depth_leaves_the_answer_bit_identical(self, setup, monkeypatch):
        # each box solve starts from the carrier's solution at its own viscosity,
        # so solves above the last few feed only trace entries: resuming 2 or 4
        # octaves above a floor stop gives the same (v, w) and the same trace tail
        grid, _, coeffs = setup
        f1, f2 = _bump(grid), np.zeros((grid.n_x1, grid.n_x2))
        carrier = {}
        _, _, trace0 = vanishing_viscosity(coeffs, f1, f2, tol_eps=0.0, warm=carrier)
        k_stop = trace0[-1]["k"]
        assert 0.1 * 0.5 ** (k_stop + 1) < grid.h1 ** 2
        # a next iterate's set couples the modes, so no start is its own solution
        mod = 1.0 + 1e-3 * np.cos(np.pi * grid.x2)
        later = replace(coeffs, a11=coeffs.a11 * mod, a=coeffs.a * mod)
        runs = []
        for octaves in (2, 4):
            monkeypatch.setattr(mixed_solver, "WARM_START_OCTAVES", octaves)
            runs.append(vanishing_viscosity(later, f1 * mod, f2, tol_eps=0.0, warm=dict(carrier)))
        (v2, w2, short), (v4, w4, long) = runs
        assert np.array_equal(v2.modes, v4.modes) and np.array_equal(w2.modes, w4.modes)
        assert [t["k"] for t in long] == list(range(k_stop - 3, k_stop + 1))
        assert short == long[-2:]

    def test_revisited_solutions_kept_and_reused(self, setup, monkeypatch):
        # the carrier keeps the solutions from its start down to the stop; the
        # same system re-solved from them needs no GMRES step
        grid, _, coeffs = setup
        f1, f2 = _bump(grid), np.zeros((grid.n_x1, grid.n_x2))
        steps = []
        gmres = mixed_solver._gmres

        def counted(*args):
            out = gmres(*args)
            steps.append(out[2])
            return out

        monkeypatch.setattr(mixed_solver, "_gmres", counted)
        carrier = {}
        _, _, trace0 = vanishing_viscosity(coeffs, f1, f2, tol_eps=1e-9, warm=carrier)
        k_stop = trace0[-1]["k"]
        revisited = [0.1 * 0.5 ** k for k in range(k_stop - WARM_START_OCTAVES, k_stop + 1)]
        assert sorted(carrier, reverse=True) == revisited
        kept = dict(carrier)
        n_cold = len(steps)
        assert min(steps) >= 1
        vanishing_viscosity(coeffs, f1, f2, tol_eps=1e-9, warm=carrier)
        assert steps[n_cold:] == [0] * len(revisited)
        # the set carries only its forced mode; its starts span every mode and
        # come back as they went in
        assert all(x.size == grid.n_cos * 5 * grid.n_x1 for x in kept.values())
        assert all(np.array_equal(carrier[eps], x) for eps, x in kept.items())

    def test_shallower_stop_drops_deeper_solutions(self, setup):
        # a looser tolerance stops the warm schedule on its first difference;
        # solutions below the new stop are no start of the next continuation
        grid, _, coeffs = setup
        f1, f2 = _bump(grid), np.zeros((grid.n_x1, grid.n_x2))
        carrier = {}
        _, _, deep = vanishing_viscosity(coeffs, f1, f2, tol_eps=1e-9, warm=carrier)
        k_deep = deep[-1]["k"]
        _, _, trace = vanishing_viscosity(coeffs, f1, f2, tol_eps=1.0, warm=carrier)
        assert [t["k"] for t in trace] == [k_deep - WARM_START_OCTAVES + 1]
        # the next walk starts at k_deep - 2 WARM_START_OCTAVES + 1
        assert sorted(carrier) == [0.1 * 0.5 ** (k_deep - WARM_START_OCTAVES + 1),
                                   0.1 * 0.5 ** (k_deep - WARM_START_OCTAVES)]

    def test_schedule_goes_on_past_the_old_stop(self, setup):
        # a start carried from a looser stop continues to the new stop,
        # with the same floor and cap rules as the full schedule
        grid, _, coeffs = setup
        f1, f2 = _bump(grid), np.zeros((grid.n_x1, grid.n_x2))
        carrier = {}
        _, _, loose = vanishing_viscosity(coeffs, f1, f2, tol_eps=1e-6, warm=carrier)
        k_start = loose[-1]["k"] - WARM_START_OCTAVES
        assert min(carrier) == 0.1 * 0.5 ** loose[-1]["k"] and k_start > 0
        v0, _, trace0 = vanishing_viscosity(coeffs, f1, f2, tol_eps=1e-9)
        v, _, trace = vanishing_viscosity(coeffs, f1, f2, tol_eps=1e-9, warm=carrier)
        assert trace == [t for t in trace0 if t["k"] > k_start]
        assert trace[-1]["k"] > loose[-1]["k"]
        assert np.array_equal(v.modes, v0.modes)

    def test_energy_guard_reads_the_warm_top(self, setup, monkeypatch):
        # the warm walk's own first solve is the reference: one solve below it
        # 1e4 times too large trips the energy guard
        grid, _, coeffs = setup
        f1, f2 = _bump(grid), np.zeros((grid.n_x1, grid.n_x2))
        carrier = {}
        _, _, trace0 = vanishing_viscosity(coeffs, f1, f2, tol_eps=1e-9, warm=carrier)
        top = 0.1 * 0.5 ** (trace0[-1]["k"] - WARM_START_OCTAVES)
        solve = ModeSystem.solve_banded

        def spoiled(self, eps, *args):
            theta, Theta = solve(self, eps, *args)
            return (1e4 * theta, Theta) if eps == top / 2 else (theta, Theta)

        monkeypatch.setattr(ModeSystem, "solve_banded", spoiled)
        with pytest.raises(NonConvergenceError, match=re.escape(f"blow-up at eps={top / 2}: ")
                           + ".* " + re.escape(f"at eps={top}")):
            vanishing_viscosity(coeffs, f1, f2, tol_eps=1e-9, warm=carrier)

    def test_rising_warm_trace_goes_on(self, setup, box_solves):
        # from eps0 = 0.2 the differences rise from k = 2 to k = 3; a walk that
        # starts at k = 1 goes on through the rise and returns the full schedule's (v, w)
        grid, _, coeffs = setup
        f1, f2 = _bump(grid), np.zeros((grid.n_x1, grid.n_x2))
        v0, w0, trace0 = vanishing_viscosity(coeffs, f1, f2, eps0=0.2, tol_eps=1e-9)
        assert trace0[2]["h1_diff"] >= trace0[1]["h1_diff"]
        carrier = {}
        vanishing_viscosity(coeffs, f1, f2, eps0=0.2, cap=1 + WARM_START_OCTAVES, warm=carrier)
        assert min(carrier) == 0.2 * 0.5 ** (1 + WARM_START_OCTAVES)
        n_before = len(box_solves)
        seen = []
        v, w, trace = vanishing_viscosity(
            coeffs, f1, f2, eps0=0.2, tol_eps=1e-9, trace_sink=seen.append, warm=carrier
        )
        assert np.array_equal(v.modes, v0.modes) and np.array_equal(w.modes, w0.modes)
        assert trace == seen == trace0[1:]
        assert box_solves[n_before:] == [0.2 * 0.5 ** t["k"] for t in trace0]

    def test_rising_warm_trace_can_fail(self, setup, box_solves):
        # far above the resolved range a warm walk's own trace guard fires
        grid, _, coeffs = setup
        f1 = np.outer(np.sin(np.pi * grid.x1 / grid.L), np.ones(grid.n_x2))
        f2 = np.zeros_like(f1)
        carrier = {}
        vanishing_viscosity(coeffs, f1, f2, eps0=1e10, tol_eps=1e-18, cap=5, warm=carrier)
        assert min(carrier) == 1e10 * 0.5 ** 5
        n_before = len(box_solves)
        seen = []
        with pytest.raises(NonConvergenceError, match="non-decreasing over 5"):
            vanishing_viscosity(coeffs, f1, f2, eps0=1e10, tol_eps=1e-18, cap=40, trace_sink=seen.append,
                                warm=carrier)
        assert [t["k"] for t in seen] == [4, 5, 6, 7, 8, 9]
        assert box_solves[n_before:] == [1e10 * 0.5 ** k for k in range(3, 10)]

    def test_coupled_solve_writes_no_start_and_no_rhs(self, setup, monkeypatch):
        # a system that carries every mode reads its kept start in place, not as
        # a copy: from a start 1e-6 off its solution GMRES takes steps, from the
        # solution itself none, and neither solve may write a kept start, the
        # start it replaces or the right-hand side, nor return the kept array
        grid, _, coeffs = setup
        mod = 1.0 + 1e-3 * np.cos(np.pi * grid.x2)
        sysm = ModeSystem(replace(coeffs, a11=coeffs.a11 * mod, a=coeffs.a * mod), _bump(grid),
                          np.zeros((grid.n_x1, grid.n_x2)))
        assert sysm.coupled is not None and sysm.K == grid.n_cos
        starts = {}
        for eps in (0.1, 0.05, 0.025):
            sysm.solve_banded(eps, starts)
        starts[0.05] = starts[0.05] * (1.0 + 1e-6)
        steps = []
        gmres = mixed_solver._gmres

        def counted(*args):
            out = gmres(*args)
            steps.append(out[2])
            return out

        monkeypatch.setattr(mixed_solver, "_gmres", counted)
        for eps in (0.05, 0.025):
            kept, copies, rhs = dict(starts), {e: x.copy() for e, x in starts.items()}, sysm.rhs.copy()
            theta, Theta = sysm.solve_banded(eps, starts)
            assert all(np.array_equal(kept[e], copies[e]) for e in kept)
            assert all(starts[e] is kept[e] for e in kept if e != eps)
            assert np.array_equal(sysm.rhs, rhs)
            assert not any(np.may_share_memory(new, kept[eps]) for new in (starts[eps], theta, Theta))
        assert steps[0] > 0 and steps[1] == 0


class TestSolveLinearProblem:
    def test_zero_everything_returns_zero(self, setup):
        _, _, coeffs = setup
        psi, Psi, phi = solve_linear_problem(coeffs, BoundaryDataSpec.zero())
        assert psi.sup_norm() == 0.0
        assert Psi.sup_norm() == 0.0
        assert phi.sup_norm() == 0.0

    def test_even_data_even_update(self, setup):
        _, _, coeffs = setup
        bdata = BoundaryDataSpec(sigma=1e-5, e_modes=((1, 1.0),), s_modes=((1, 1.0),), w_modes=((1, 1.0),))
        psi, Psi, phi = solve_linear_problem(coeffs, bdata)
        for f in (psi, Psi):
            v = f.values()
            assert np.max(np.abs(v - v[:, ::-1])) < 1e-10 * max(np.max(np.abs(v)), 1e-30)

    def test_set_left_as_it_was(self, setup):
        _, _, coeffs = setup
        fields = {name: getattr(coeffs, name) for name in ("a11", "a12", "a", "b1", "b0", "f1", "f2", "f3", "A22")}
        copies = {name: f.copy() for name, f in fields.items()}
        solve_linear_problem(coeffs, BoundaryDataSpec(sigma=1e-5, e_modes=((1, 1.0),), w_modes=((1, 1.0),)))
        assert all(getattr(coeffs, name) is f and np.array_equal(f, copies[name]) for name, f in fields.items())

    @HANDOVER
    def test_handed_over_set_frees_its_forcings_before_the_walk(self, setup, monkeypatch):
        _, _, coeffs = setup
        forcings = ("f1", "f2", "f3", "A22")
        handover = [replace(coeffs, **{name: getattr(coeffs, name).copy() for name in forcings})]
        refs = [weakref.ref(getattr(handover[0], name)) for name in forcings]
        alive, walk = [], mixed_solver.vanishing_viscosity

        def checked(*args, **kwargs):
            alive.append([ref() is not None for ref in refs])
            return walk(*args, **kwargs)

        monkeypatch.setattr(mixed_solver, "vanishing_viscosity", checked)
        solve_linear_problem(handover.pop(), BoundaryDataSpec.zero())
        assert alive == [[False] * len(forcings)]

    def test_coupled_solve_calls_no_numpy_lapack(self, setup, monkeypatch):
        # GMRES rotates its Hessenberg columns triangular: a coupled solve, whose box solves
        # take several steps, runs with numpy.linalg's LAPACK routines refused
        _, _, coeffs = setup
        mod = 1.0 + 1e-3 * np.cos(np.pi * coeffs.grid.x2)
        steps, gmres = [], mixed_solver._gmres

        def counted(*args):
            out = gmres(*args)
            steps.append(out[2])
            return out

        def refused(*args, **kwargs):
            raise AssertionError("numpy.linalg LAPACK routine called")

        for name in ("lstsq", "solve", "inv", "pinv", "qr", "svd", "eig", "eigh", "eigvals", "eigvalsh",
                     "cholesky", "det", "slogdet", "matrix_rank", "tensorsolve", "tensorinv"):
            monkeypatch.setattr(np.linalg, name, refused)
        monkeypatch.setattr(mixed_solver, "_gmres", counted)
        bdata = BoundaryDataSpec(sigma=1e-5, e_modes=((1, 1.0),), w_modes=((1, 1.0),))
        psi, Psi, _ = solve_linear_problem(replace(coeffs, a11=coeffs.a11 * mod, a=coeffs.a * mod), bdata)
        assert max(steps) > 1 and psi.sup_norm() > 0 and np.all(np.isfinite(Psi.modes))

    def test_working_set_of_a_warm_coupled_solve(self, bg):
        # the memory one warm-started coupled sweep allocates above its entry, in
        # full box vectors (5 n_x1 n_cos floats) beyond its 15-row band LU, is 22.08
        # at 101 x 8 when each array dies after its last reader; one more live box
        # vector (a copy of the start, a solution array allocated before GMRES,
        # a second copy of an Arnoldi vector or of the residual) fails
        grid = Grid(L=bg.x1_at_speed(1.1 * CANON.u_s), n_x1=101, m=8)
        prof = background_profile(bg, grid)
        coeffs = assemble_coefficients(collocate(FlowState.zeros(grid), prof), default_d0(prof))
        bdata = BoundaryDataSpec(sigma=1e-4, s_modes=((1, 1.0),), e_modes=((1, 1.0),), w_modes=((1, 1.0),))

        def coupled(amp):
            mod = 1.0 + amp * np.cos(np.pi * grid.x2)
            return replace(coeffs, a11=coeffs.a11 * mod, a=coeffs.a * mod, b0=coeffs.b0 * mod)

        warm = {}
        solve_linear_problem(coupled(1e-3), bdata, warm=warm)
        later = coupled(2e-3)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            solve_linear_problem(later, bdata, warm=warm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        vector = 5 * grid.n_x1 * grid.n_cos * 8
        band = (2 * BAND_L + BAND_U + 1) * vector
        assert (peak - entry - band) / vector <= 22.2

    def _cauchy_orders(self, bg, **solver_kw):
        L = bg.x1_at_speed(1.1 * CANON.u_s)
        bdata = BoundaryDataSpec(sigma=1e-4, e_modes=((1, 1.0),))
        sols, grids = {}, {}
        for n in (51, 101, 201):
            grid = Grid(L=L, n_x1=n, m=4)
            grids[n] = grid
            prof = background_profile(bg, grid)
            coeffs = assemble_coefficients(collocate(FlowState.zeros(grid), prof), default_d0(prof))
            psi, Psi, _ = solve_linear_problem(coeffs, bdata, SolverOptions(**solver_kw))
            sols[n] = (psi.modes, Psi.modes)

        def h1_dist(a, b):
            g = grids[a]
            dpsi = Field2D("cosine", sols[a][0] - sols[b][0][::2], g)
            dPsi = Field2D("cosine", sols[a][1] - sols[b][1][::2], g)
            return np.sqrt(dpsi.h1_norm() ** 2 + dPsi.h1_norm() ** 2)

        d1, d2 = h1_dist(51, 101), h1_dist(101, 201)
        return np.log2(d1 / d2)

    def test_refinement_cauchy_order(self, bg):
        # updates at (n, 2n) and matched viscosity depth differ in discrete
        # H1 at second order
        order = self._cauchy_orders(bg, eps0=2e-2, tol_eps=0.0, eps_cap=1)
        assert order >= 1.8

    def test_refinement_cauchy_with_resolution_tied_floor(self, bg):
        # continuing each grid to its own eps floor ~ h^2 adds the viscous
        # internal-layer bias ~ eps^(3/4), so the composite converges at
        # ~1.5; regression-guard that it stays convergent
        order = self._cauchy_orders(bg, tol_eps=1e-14, eps_cap=40)
        assert order >= 1.3
