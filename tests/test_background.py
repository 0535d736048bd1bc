"""Phase-plane background construction: closed forms, quadrature, and ODE oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from oracles import defining_flux_ratio, oracle_H

from epnozzle import (
    GasParameters,
    InputError,
    InternalError,
    flux_F,
    flux_F_sonic,
    frak_h,
    hamiltonian_H,
    kappa_H,
    solve_background,
    u_max_root,
)
from epnozzle.background import (
    _EVAL_BLOCK,
    _GL_NODES,
    _GL_WEIGHTS,
    _Q_NODES,
    _Q_WEIGHTS,
    KAPPA_SWITCH,
    NEAR_MAX_SWITCH,
    H_second_sonic,
    _H_closed,
    _kappa_H_direct,
    _orbit_s_integrand,
    _sonic_taylor,
    _Trajectory,
    kappa_max,
)

CANON = GasParameters(gamma=3.0, zeta0=2.0, J=1.0, S0=1.0 / 3.0)
GASES = [
    CANON,
    GasParameters(gamma=1.4, zeta0=2.0, J=1e-2, S0=1.0),
    GasParameters(gamma=2.0, zeta0=1.5, J=1.0, S0=1.0),
]
GAS_IDS = ["canon", "gamma1.4", "gamma2"]


class TestGasParameters:
    def test_derived_constants(self):
        p = CANON
        assert p.u_s == pytest.approx((3.0 * (1 / 3) * 1.0) ** 0.25)
        assert p.u_bar_inf / p.u_s == pytest.approx(p.zeta0)
        assert p.rho_bar_inf == pytest.approx(
            p.J / (p.zeta0 * (p.gamma * p.S0 * p.J ** (p.gamma - 1)) ** (1 / (p.gamma + 1)))
        )
        assert p.h0 == pytest.approx((p.gamma * p.S0) ** (1 / (p.gamma + 1)))

    @pytest.mark.parametrize(
        "kw",
        [
            dict(gamma=1.0, zeta0=2.0, J=1.0, S0=1.0),
            dict(gamma=3.0, zeta0=1.0, J=1.0, S0=1.0),
            dict(gamma=3.0, zeta0=2.0, J=-1.0, S0=1.0),
            dict(gamma=3.0, zeta0=2.0, J=1.0, S0=0.0),
            dict(gamma=3.0, zeta0=2.0, J=1.0, S0=1.0, E0=0.5),
            dict(gamma=np.inf, zeta0=2.0, J=1.0, S0=1.0),
            dict(gamma=3.0, zeta0=np.inf, J=1.0, S0=1.0),
            dict(gamma=3.0, zeta0=2.0, J=np.inf, S0=1.0),
            dict(gamma=3.0, zeta0=2.0, J=1.0, S0=np.inf),
            dict(gamma=3.0, zeta0=2.0, J=1.0, S0=1.0, E0=-np.inf),
        ],
    )
    def test_invalid_parameters_rejected(self, kw):
        with pytest.raises(InputError):
            GasParameters(**kw)


class TestHamiltonian:
    def test_H_sonic_is_zero(self):
        assert hamiltonian_H(CANON.u_s, CANON) == 0.0

    # the grid holds u = u_s (1 + 2e-16), where quad warns on its 1e-32 integral
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_H_quadrature_matches_closed_form(self):
        us = np.linspace(0.3, 2.7, 25)
        closed = np.array([hamiltonian_H(u, CANON) for u in us])
        quads = np.array([oracle_H(u, CANON) for u in us])
        assert np.max(np.abs(closed - quads)) < 1e-11
        assert np.array_equal(closed, _H_closed(us, CANON))

    def test_second_derivative_at_sonic_by_central_differences(self):
        # (gamma+1) J (1/u_s - 1/u_bar_inf) = 4 * (1 - 0.5) = 2
        h = 1e-4
        num = (hamiltonian_H(CANON.u_s + h, CANON) - 2 * hamiltonian_H(CANON.u_s, CANON)
               + hamiltonian_H(CANON.u_s - h, CANON)) / h ** 2
        assert num == pytest.approx(2.0, abs=1e-6)
        assert H_second_sonic(CANON) == pytest.approx(2.0)

    def test_sign_pattern_brackets_u_max(self):
        assert oracle_H(2.0, CANON) > 0
        assert hamiltonian_H(2.0, CANON) == pytest.approx(oracle_H(2.0, CANON), abs=1e-10)
        assert hamiltonian_H(8.0, CANON) < 0

    def test_nonpositive_speed_rejected(self):
        with pytest.raises(InputError):
            hamiltonian_H(0.0, CANON)

    def test_frak_h_zero_on_orbit(self):
        u = 1.7
        E = np.sqrt(2 * oracle_H(u, CANON))
        assert abs(frak_h(u, E, CANON)) < 1e-11


class TestFluxF:
    def test_sonic_closed_form(self):
        assert flux_F_sonic(CANON) == pytest.approx(np.sqrt(0.25 * 0.5))
        assert flux_F(CANON.u_s, CANON) == pytest.approx(np.sqrt(0.125), rel=1e-12)

    def test_continuity_across_removable_singularity(self):
        Fs = flux_F_sonic(CANON)
        for du in (1e-4, -1e-4):
            # public (Taylor) branch and raw defining ratio both stay close
            assert abs(flux_F(CANON.u_s + du, CANON) - Fs) <= 1e-3
            u = CANON.u_s + du
            assert abs(defining_flux_ratio(u, _H_closed(u, CANON), CANON) - Fs) <= 1e-3

    def test_branches_agree_at_switch_radius(self):
        # kappa_H's Taylor branch against its defining ratio just inside the switch
        for k in (1 + 0.999 * KAPPA_SWITCH, 1 - 0.999 * KAPPA_SWITCH):
            assert kappa_H(k, CANON) == pytest.approx(_kappa_H_direct(k, CANON), rel=1e-10)

    def test_sonic_taylor_data_cached_per_gas_read_only(self):
        # one table per gas serves every kappa_H call, so no caller may write it
        data = _sonic_taylor(CANON)
        assert _sonic_taylor(GasParameters(gamma=3.0, zeta0=2.0, J=1.0, S0=1.0 / 3.0)) is data
        for cached, fresh in zip(data, _sonic_taylor.__wrapped__(CANON)):
            assert not cached.flags.writeable
            assert np.array_equal(cached, fresh)
        with pytest.raises(ValueError, match="read-only"):
            data[0][0] = 0.0

    @pytest.mark.parametrize("params", GASES, ids=GAS_IDS)
    def test_continuous_across_switch(self, params):
        for k in (1 - KAPPA_SWITCH, 1 + KAPPA_SWITCH):
            pair = k * np.array([1 - 1e-14, 1 + 1e-14])
            near = np.abs(pair - 1) < KAPPA_SWITCH
            assert near[0] != near[1]  # one point on each branch
            kh = kappa_H(pair, params)
            assert abs(kh[1] - kh[0]) <= 1e-10 * kh[0]
            F = flux_F(pair * params.u_s, params)
            assert abs(F[1] - F[0]) <= 1e-10 * F[0]

    @pytest.mark.parametrize("params", GASES, ids=GAS_IDS)
    def test_matches_quadrature_ratio_away_from_switch(self, params):
        # flux_F is the scaled view of kappa_H; the u-form ratio of the
        # quadrature H pins that scaling independently
        us, umax = params.u_s, u_max_root(params)
        for u in np.concatenate([np.linspace(0.3, 0.99, 5) * us, np.linspace(1.01 * us, 0.9 * umax, 5)]):
            ref = defining_flux_ratio(u, hamiltonian_H(u, params), params)
            assert flux_F(u, params) == pytest.approx(ref, rel=1e-9)

    def test_positive_on_orbit_range(self):
        umax = u_max_root(CANON)
        us = np.linspace(0.05, umax * 0.999999, 500)
        assert np.all(flux_F(us, CANON) > 0)

    def test_beyond_u_max_rejected(self):
        with pytest.raises(InputError):
            flux_F(5.0, CANON)


class TestUMaxRoot:
    def test_bracketing_sign_check(self):
        umax = u_max_root(CANON)
        d = 1e-6 * umax
        assert _H_closed(umax - d, CANON) > 0 > _H_closed(umax + d, CANON)

    def test_against_bisection_oracle(self):
        # plain bisection of the oracle quadrature at 1e-12
        lo, hi = CANON.u_bar_inf * 1.0001, 10 * CANON.u_bar_inf
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if oracle_H(mid, CANON) > 0:
                lo = mid
            else:
                hi = mid
        assert u_max_root(CANON) == pytest.approx(0.5 * (lo + hi), abs=1e-12)

    @pytest.mark.parametrize("params", [CANON, GasParameters(1.4, 2.0, 1.0, 1.0), GasParameters(2.0, 1.5, 0.3, 1.0)])
    def test_exceeds_far_field_speed(self, params):
        assert u_max_root(params) > params.u_bar_inf


class TestSolveBackground:
    def test_sonic_inlet_gives_empty_subsonic_segment(self):
        bg = solve_background(CANON, CANON.u_s, resolution=301)
        assert bg.l_s == pytest.approx(0.0, abs=1e-12)
        assert bg.u1[0] == pytest.approx(CANON.u_s)

    @pytest.mark.parametrize("resolution", [1, 0, -3])
    def test_resolution_below_two_rejected(self, resolution):
        # one node would hold u_max at x1 = 0; none would index an empty grid
        with pytest.raises(InputError, match="resolution must be at least 2"):
            solve_background(CANON, 0.9, resolution=resolution)

    def test_two_nodes_span_the_orbit(self):
        bg = solve_background(CANON, 0.9, resolution=2)
        assert (bg.x1_nodes[0], bg.u1[0], bg.u1[-1]) == (0.0, 0.9, bg.u_max)

    def test_repr_is_compact(self):
        # a Hypothesis test taking the profile as a fixture reports its repr
        bg = solve_background(CANON, 0.95, resolution=601)
        text = repr(bg)
        assert len(text) < 300
        assert all(part in text for part in (repr(CANON), "u0=0.95", f"l_max={bg.l_max!r}", "samples=601"))

    def test_supersonic_inlet_rejected(self):
        with pytest.raises(InputError):
            solve_background(CANON, 1.1)

    def test_inconsistent_E0_rejected(self):
        p = GasParameters(gamma=3.0, zeta0=2.0, J=1.0, S0=1.0 / 3.0, E0=-0.5)
        with pytest.raises(InputError):
            solve_background(p, 0.9)

    def test_consistent_E0_accepted(self):
        E0 = -np.sqrt(2 * oracle_H(0.9, CANON))
        p = GasParameters(gamma=3.0, zeta0=2.0, J=1.0, S0=1.0 / 3.0, E0=E0)
        bg = solve_background(p, 0.9, resolution=301)
        assert bg.E0 == pytest.approx(E0, abs=1e-14)

    def test_length_cap_enforced(self, monkeypatch):
        monkeypatch.setattr("epnozzle.background.L_MAX_CAP", 1.0)
        with pytest.raises(InputError, match="exceeds cap 1.0"):
            solve_background(CANON, 0.9, resolution=301)

    def test_hamiltonian_conservation(self):
        bg = solve_background(CANON, 0.9, resolution=2001)
        defect = np.max(np.abs(0.5 * bg.E ** 2 - _H_closed(bg.u1, CANON)))
        assert defect <= 1e-9
        assert bg.hamiltonian_defect <= 1e-9
        # spot-check the same invariant against the independent quadrature oracle
        sub = bg.u1[::200]
        oracle = np.array([oracle_H(u, CANON) for u in sub])
        assert np.max(np.abs(0.5 * bg.E[::200] ** 2 - oracle)) <= 1e-9

    def test_monotone_speed_with_flattening_slope(self):
        bg = solve_background(CANON, 0.9, resolution=801)
        assert np.all(np.diff(bg.u1) > 0)
        slope = np.diff(bg.u1) / np.diff(bg.x1_nodes)
        i_s = np.searchsorted(bg.x1_nodes, bg.l_s)
        assert slope[-1] < slope[i_s]

    def test_field_sign_pattern(self):
        bg = solve_background(CANON, 0.9, resolution=801)
        before = bg.x1_nodes < bg.l_s - 1e-10
        after = bg.x1_nodes > bg.l_s + 1e-10
        assert np.all(bg.E[before] < 0)
        assert np.all(bg.E[after][:-1] > 0)
        assert abs(bg.evaluate(np.array([bg.l_s]))["E"][0]) <= 1e-10

    def test_bernoulli_identity(self):
        p = CANON
        bg = solve_background(p, 0.9, resolution=501)
        lhs = (p.gamma - 1) / (p.gamma * p.S0) * (bg.Phi - 0.5 * bg.u1 ** 2)
        assert np.max(np.abs(lhs / bg.rho ** (p.gamma - 1) - 1.0)) < 1e-9

    def test_inlet_potential_constant(self):
        p = CANON
        bg = solve_background(p, 0.9, resolution=301)
        expect = 0.9 ** 2 / 2 + p.gamma * p.S0 / (p.gamma - 1) * (p.J / 0.9) ** (p.gamma - 1)
        assert bg.Phi[0] == pytest.approx(expect, rel=1e-13)

    def test_velocity_potential_derivative_is_speed(self):
        bg = solve_background(CANON, 0.9, resolution=2001)
        mid = slice(200, 1800)
        dphi = np.gradient(bg.phi_pot, bg.x1_nodes)
        assert np.max(np.abs(dphi[mid] - bg.u1[mid])) < 5e-5  # O(h^2) differencing


@pytest.fixture(scope="module")
def bg():
    return solve_background(CANON, 0.9, resolution=801)


class TestOdeOracles:
    """x1(u)-quadrature vs adaptive RK on the reduced accelerating IVP."""

    def _rk_events(self, params, u0, rtol, max_step=np.inf):
        umax = u_max_root(params)
        dstop = 1e-7

        def rhs(x, y):
            return [flux_F(min(y[0], umax), params)]

        ev_s = lambda x, y: y[0] - params.u_s
        ev_s.direction = 1
        ev_m = lambda x, y: y[0] - (umax - dstop)
        ev_m.terminal = True
        ev_m.direction = 1
        sol = solve_ivp(
            rhs, [0, 1e3], [u0], method="DOP853", rtol=rtol, atol=1e-14,
            events=[ev_s, ev_m], max_step=max_step,
        )
        # analytic sqrt-tail of the last dstop of speed range
        g, us = params.gamma, params.u_s
        num = umax ** (g + 1) - us ** (g + 1)
        Hp = (params.J / (params.u_bar_inf * umax ** (g + 1))) * num * (params.u_bar_inf - umax)
        tail = num / (umax ** g * np.sqrt(2 * abs(Hp))) * 2 * np.sqrt(dstop)
        return sol.t_events[0][0], sol.t_events[1][0] + tail

    def test_quadrature_vs_rk_at_halved_step(self, bg):
        l_s_rk, l_max_rk = self._rk_events(CANON, 0.9, rtol=1e-12)
        l_s_rk2, l_max_rk2 = self._rk_events(CANON, 0.9, rtol=1e-12, max_step=0.05)
        assert abs(l_s_rk - l_s_rk2) < 1e-9 and abs(l_max_rk - l_max_rk2) < 1e-8
        assert abs(bg.l_s - l_s_rk) <= 1e-8
        assert abs(bg.l_max - l_max_rk) <= 1e-8

    def test_full_system_legs_away_from_saddle(self, bg):
        # the (u1, E) system is integrable away from the sonic saddle; its
        # arrival stations must match the quadrature map
        p = CANON

        def rhs(x, y):
            u, E = y
            return [E * u ** p.gamma / (u ** (p.gamma + 1) - p.u_s ** (p.gamma + 1)),
                    p.J / u - p.rho_bar_inf]

        # leg A: inlet toward the sonic point (stable approach)
        evA = lambda x, y: y[0] - (p.u_s - 1e-3)
        evA.terminal = True
        evA.direction = 1
        solA = solve_ivp(rhs, [0, 5], [0.9, bg.E0], method="DOP853", rtol=1e-12, atol=1e-14, events=[evA])
        xA = solA.t_events[0][0]
        assert abs(xA - bg.x1_at_speed(p.u_s - 1e-3)) <= 1e-8
        # leg B: restart past the saddle on the orbit
        u1b = p.u_s + 0.05
        E1b = np.sqrt(2 * oracle_H(u1b, p))
        evB = lambda x, y: y[0] - 2.5
        evB.terminal = True
        evB.direction = 1
        solB = solve_ivp(rhs, [0, 12], [u1b, E1b], method="DOP853", rtol=1e-13, atol=1e-15, events=[evB])
        xB = solB.t_events[0][0]
        assert abs(xB - (bg.x1_at_speed(2.5) - bg.x1_at_speed(u1b))) <= 1e-8


class TestOrbitIntegrand:
    """The s-integrand 2 s / (kappa kappa_H) at kappa = kappa_max - s^2."""

    @settings(max_examples=60)
    @given(gamma=st.floats(1.1, 4.0), zeta0=st.floats(1.1, 5.0))
    def test_continuous_at_near_max_switch(self, gamma, zeta0):
        params = GasParameters(gamma=gamma, zeta0=zeta0, J=1.0, S0=1.0)
        delta_sw = NEAR_MAX_SWITCH * (kappa_max(params) - 1.0)
        pair = np.sqrt(delta_sw) * np.array([1 - 1e-14, 1 + 1e-14])
        assert (pair[0] ** 2 < delta_sw) != (pair[1] ** 2 < delta_sw)  # one point on each form
        g = _orbit_s_integrand(pair, params)
        assert abs(g[1] - g[0]) <= 1e-12 * g[0]

    @pytest.mark.parametrize("params", GASES, ids=GAS_IDS)
    def test_smooth_to_orbit_end(self, params):
        # limit at s = 0: 2 (kmax^(gamma+1) - 1) / (kmax^gamma sqrt(-curly_F'(kmax)));
        # the deviation grows like s^2, so it is below 1e-12 for s^2 <= 1e-14 kmax
        g, z, kmax = params.gamma, params.zeta0, kappa_max(params)
        f_end = (1 - kmax / z) * (1 - kmax ** -(g + 1))
        g0 = 2 * (kmax ** (g + 1) - 1) / (kmax ** g * np.sqrt(-f_end))
        s = np.sqrt(kmax) * np.concatenate([[0.0], np.logspace(-12, -7, 11)])
        vals = _orbit_s_integrand(s, params)
        assert np.max(np.abs(vals / g0 - 1)) <= 1e-12


@pytest.mark.parametrize("nodes, weights", [(_GL_NODES, _GL_WEIGHTS), (_Q_NODES, _Q_WEIGHTS)], ids=["14", "5"])
def test_literal_rules_are_leggauss(nodes, weights):
    # within 1 ulp, not bit-equal: leggauss's eigvalsh may differ in the last
    # bit between numpy versions
    x, w = np.polynomial.legendre.leggauss(nodes.size)
    assert np.all(np.abs(nodes - x) <= np.spacing(np.abs(x)))
    assert np.all(np.abs(weights - w) <= np.spacing(w))
    assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])


@pytest.mark.parametrize("n", [1, _EVAL_BLOCK - 1, _EVAL_BLOCK, _EVAL_BLOCK + 1, 2001])
def test_blocked_eval_matches_one_block(n, monkeypatch):
    traj = _Trajectory(CANON, 0.9)
    # stations from the orbit end (near-u_max form) through the sonic panels
    # to the inlet, shuffled so that every block mixes the integrand's forms
    s = np.random.default_rng(n).permutation(np.linspace(0.0, traj.s_inlet, n))
    blocked = [traj._eval(cum, s) for cum in (traj.cum_x, traj.cum_phi)]
    monkeypatch.setattr("epnozzle.background._EVAL_BLOCK", n)
    for cum, value in zip((traj.cum_x, traj.cum_phi), blocked):
        assert np.array_equal(value, traj._eval(cum, s))


@pytest.fixture(scope="module")
def bg2000():
    return solve_background(CANON, 0.9, resolution=2000)


def _recording_eval(outputs):
    real = _Trajectory._eval

    def recording(self, cum, s):
        out = real(self, cum, s)
        outputs.append(out)
        return out

    return recording


class TestArclengthInversion:
    """Guarded Newton inversion of the arclength map (``_Trajectory.u_of_x1``)."""

    def test_finite_and_monotone_at_orbit_end(self, bg2000):
        bg = bg2000
        x = bg.l_max - np.array([1e-4, 1e-6, 1e-8, 1e-10, 0.0])
        data = bg.evaluate(x)
        for v in data.values():
            assert np.all(np.isfinite(v))
        assert np.all(np.diff(data["u1"]) >= 0) and data["u1"][-1] == bg.u_max
        back = np.array([bg.x1_at_speed(u) for u in data["u1"]])
        assert np.all(np.isfinite(back)) and np.all(np.diff(back) >= 0) and back[-1] == bg.l_max
        xs = np.array([bg.x1_at_speed(bg.u_max - du) for du in (1e-8, 1e-10, 1e-12, 0.0)])
        assert np.all(np.isfinite(xs)) and np.all(np.diff(xs) > 0) and xs[-1] == bg.l_max

    @pytest.mark.parametrize("frac", [0.0, 0.37, 1.0])
    def test_scalar_station_matches_array_path(self, bg2000, frac):
        x = frac * bg2000.l_max
        scalar, array = bg2000.evaluate(x), bg2000.evaluate([x])
        for key, value in scalar.items():
            assert np.shape(value) == ()
            assert value == array[key][0], key

    def test_newton_stops_within_five_steps(self, bg2000, monkeypatch):
        outputs = []
        monkeypatch.setattr(_Trajectory, "_eval", _recording_eval(outputs))
        bg2000._traj.u_of_x1(bg2000.x1_nodes)
        # one table evaluation for the start, one per Newton step
        assert 1 <= len(outputs) - 1 <= 5

    @settings(max_examples=40)
    @given(
        gamma=st.floats(1.1, 4.0),
        zeta0=st.floats(1.1, 5.0),
        frac=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
    )
    def test_inversion_properties(self, gamma, zeta0, frac):
        params = GasParameters(gamma=gamma, zeta0=zeta0, J=1.0, S0=1.0)
        traj = _Trajectory(params, 0.9 * params.u_s)
        x1 = np.sort(frac) * traj.l_max
        outputs = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Trajectory, "_eval", _recording_eval(outputs))
            u = traj.u_of_x1(x1)
        assert len(outputs) - 1 <= 5
        assert np.all(np.isfinite(u))
        # u = u_max - s^2 is exact up to the rounding of that difference
        ulp = np.spacing(traj.u_max)
        assert np.all(np.diff(u) >= -2 * ulp)
        assert np.all(u >= traj.u0 - 2 * ulp) and np.all(u <= traj.u_max)
        assert np.max(np.abs(outputs[-1] - (traj.l_max - x1))) <= 1e-12 * max(1.0, traj.l_max)

    def test_corrupted_table_trips_residual_gate(self):
        traj = solve_background(CANON, 0.9, resolution=11)._traj
        k, gap = len(traj.edges) // 2, 1e-3
        x1 = traj.l_max - (traj.cum_x[k] + 0.5 * gap)  # its target falls inside the jump
        traj.cum_x[k:] += gap
        with pytest.raises(InternalError, match="residual .* at x1 = "):
            traj.u_of_x1(np.array([x1]))


class TestExports:
    def test_csv_and_summary(self, tmp_path):
        bg = solve_background(CANON, 0.9, resolution=101)
        bg.write_csv(tmp_path / "background.csv")
        bg.write_summary(tmp_path / "summary.json")
        lines = (tmp_path / "background.csv").read_text().splitlines()
        assert lines[0] == "x1,u1,E,rho,Phi,phi_pot"
        assert len(lines) == 102
        import json

        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary) == {"u_s", "u_max", "l_s", "l_max", "u0", "E0"}
