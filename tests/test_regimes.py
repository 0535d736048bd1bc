"""Scaled-variable regime calculus: closed forms, window lengths, certification."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from oracles import alpha_sonic_limit, unique_window_grid

from epnozzle import (
    GasParameters,
    InputError,
    alpha_profile,
    certify_regime,
    curly_F,
    kappa_H,
    nozzle_length,
    solve_background,
)
from epnozzle.background import _curly_F_closed, _kappa_H_direct, kappa_H_sonic
from epnozzle.regimes import (
    D_MIN,
    D_SHRINK,
    D_START,
    KAPPA_SWITCH,
    _window_grid,
    kappa_max,
    lambda_window,
    omega2,
)

CANON = GasParameters(gamma=3.0, zeta0=2.0, J=1.0, S0=1.0 / 3.0)
GAS14 = GasParameters(gamma=1.4, zeta0=2.0, J=1.0, S0=1.0)
GASES = [
    CANON,
    GasParameters(gamma=1.4, zeta0=2.0, J=1e-2, S0=1.0),
    GasParameters(gamma=2.0, zeta0=1.5, J=1.0, S0=1.0),
]


def oracle_curly_F(kappa, params):
    # at epsrel=1e-13 quad may warn that it cannot certify the request on
    # some gases; the result still meets the tests' 1e-12 bound
    g, z = params.gamma, params.zeta0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(lambda t: (1 - t / z) * (1 - t ** -(g + 1)), 1.0, kappa, epsabs=1e-14, epsrel=1e-13)
    return val


def tight_lambda(kappa0, kappaL, params):
    """Adaptive-quadrature lambda split at 1 and the kappa_H switch points.

    ``epsrel=1e-13`` sits at the roundoff floor of the integrand, where
    ``quad`` warns that it cannot certify the request; the result is still
    accurate to about 1e-12.
    """
    pts = [kappa0, *(b for b in (1 - KAPPA_SWITCH, 1.0, 1 + KAPPA_SWITCH) if kappa0 < b < kappaL), kappaL]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        total = sum(
            quad(lambda k: 1.0 / (k * kappa_H(k, params)), a, b, epsabs=0, epsrel=1e-13, limit=400)[0]
            for a, b in zip(pts[:-1], pts[1:])
        )
    return total ** 2


class TestKappaH:
    def test_empty_interval_handled_by_closed_form(self):
        assert curly_F(1.0, CANON) == 0.0
        assert kappa_H(1.0, CANON) == pytest.approx(kappa_H_sonic(CANON), rel=1e-12)

    def test_sonic_value_gamma14(self):
        # sqrt(0.5) / sqrt(4.8)
        assert kappa_H_sonic(GAS14) == pytest.approx(0.32274861218395143, rel=1e-9)

    def test_quadrature_branch_continuity_at_one(self):
        for params in (GAS14, CANON):
            ref = kappa_H_sonic(params)
            for dk in (1e-4, -1e-4):
                assert abs(_kappa_H_direct(1.0 + dk, params) - ref) <= 1e-3
                assert abs(kappa_H(1.0 + dk, params) - ref) <= 1e-3

    def test_closed_form_matches_quadrature(self):
        ks = np.linspace(0.5, 2.2, 17)
        closed = np.array([curly_F(k, CANON) for k in ks])
        quads = np.array([oracle_curly_F(k, CANON) for k in ks])
        assert np.max(np.abs(closed - quads)) < 1e-12
        assert np.array_equal(closed, _curly_F_closed(ks, CANON))

    def test_positive_wherever_defined(self):
        ks = np.linspace(0.2, kappa_max(CANON) * 0.999999, 300)
        assert np.all(kappa_H(ks, CANON) > 0)

    def test_beyond_orbit_rejected(self):
        with pytest.raises(InputError):
            kappa_H(kappa_max(CANON) * 1.1, CANON)

    @settings(max_examples=60)
    @given(gamma=st.floats(1.1, 4.0), zeta0=st.floats(1.1, 5.0))
    def test_sonic_function_properties(self, gamma, zeta0):
        params = GasParameters(gamma=gamma, zeta0=zeta0, J=1.0, S0=1.0)
        for k in (1 - KAPPA_SWITCH, 1 + KAPPA_SWITCH):
            pair = k * np.array([1 - 1e-14, 1 + 1e-14])
            kh = kappa_H(pair, params)
            assert abs(kh[1] - kh[0]) <= 1e-10 * kh[0]
        ks = np.linspace(0.5, 0.99 * kappa_max(params), 9)
        quads = np.array([oracle_curly_F(k, params) for k in ks])
        assert np.max(np.abs(np.array([curly_F(k, params) for k in ks]) - quads)) <= 1e-12

    def test_kappa_max_matches_u_max(self):
        from epnozzle import u_max_root

        assert kappa_max(CANON) == pytest.approx(u_max_root(CANON) / CANON.u_s, rel=1e-11)


class TestNozzleLength:
    def test_empty_window(self):
        assert nozzle_length(1.05, 1.05, CANON) == 0.0

    def test_matches_background_arclength(self):
        bg = solve_background(CANON, 0.9, resolution=301)
        L = nozzle_length(0.9, 1.1, CANON)
        arc = bg.x1_at_speed(1.1 * CANON.u_s) - bg.x1_at_speed(0.9 * CANON.u_s)
        assert L == pytest.approx(arc, rel=1e-6)

    @pytest.mark.parametrize("params", GASES, ids=["canon", "gamma1.4", "gamma2"])
    def test_equals_background_arclength(self, params):
        bg = solve_background(params, 0.75 * params.u_s, resolution=301)
        for k0, kL in ((0.98, 1.02), (0.9, 1.1), (0.75, 1.25)):
            arc = bg.x1_at_speed(kL * params.u_s) - bg.x1_at_speed(k0 * params.u_s)
            assert abs(nozzle_length(k0, kL, params) - arc) <= 1e-12, (k0, kL)

    def test_small_momentum_lengthens_fixed_window(self):
        # for gamma = 1.4 the exponent (gamma-2)/(gamma+1) is negative
        p1 = GasParameters(gamma=1.4, zeta0=2.0, J=1e-2, S0=1.0)
        p2 = GasParameters(gamma=1.4, zeta0=2.0, J=5e-3, S0=1.0)
        assert nozzle_length(0.98, 1.02, p2) > nozzle_length(0.98, 1.02, p1)

    def test_window_outside_orbit_rejected(self):
        with pytest.raises(InputError):
            nozzle_length(0.9, kappa_max(CANON) + 0.5, CANON)

    @pytest.mark.parametrize("k0, kL, message", [
        (1.02, 1.05, "must straddle 1"),
        (0.9, 0.95, "must straddle 1"),
        (0.0, 1.1, "must straddle 1"),
        (1.1, 1.05, "empty window"),
    ])
    def test_window_not_straddling_one_rejected(self, k0, kL, message):
        with pytest.raises(InputError, match=message):
            nozzle_length(k0, kL, CANON)


class TestAlpha:
    def test_vanishing_window_limit(self):
        for params, eta in ((GAS14, 1.05), (CANON, 2.25)):
            d = 1e-7
            vals, _ = alpha_profile(np.array([1.0]), 1.0 - d, 1.0 + d, params, eta)
            assert vals[0] == pytest.approx(alpha_sonic_limit(params, eta), rel=1e-4, abs=1e-12)

    def test_omega2_nonnegative(self):
        ks = np.linspace(0.8, 1.2, 41)
        vals = omega2(ks, 0.8, 1.2, GAS14, eta=1.05)
        assert np.all(vals >= 0)

    def test_small_J_window_positive_for_gamma3(self):
        # small-momentum branch, eta = 3*gamma/4 = 2.25, d = 0.02
        params = GasParameters(gamma=3.0, zeta0=2.0, J=1e-3, S0=1.0 / 3.0)
        grid = np.linspace(0.98, 1.02, 401)
        _, amin = alpha_profile(grid, 0.98, 1.02, params, eta=2.25)
        assert amin > 0

    def test_continuity_on_finer_grid(self):
        params = GasParameters(gamma=1.4, zeta0=2.0, J=1e-2, S0=1.0)
        rep = certify_regime(params)
        assert rep.certified
        coarse = np.linspace(rep.kappa0, rep.kappaL, 801)
        fine = np.linspace(rep.kappa0, rep.kappaL, 8001)
        _, amin_c = alpha_profile(coarse, rep.kappa0, rep.kappaL, params, rep.eta)
        _, amin_f = alpha_profile(fine, rep.kappa0, rep.kappaL, params, rep.eta)
        assert amin_f > 0
        assert amin_f == pytest.approx(amin_c, rel=1e-3)


class TestCertify:
    def test_small_J_certificate_uses_small_branch(self):
        params = GasParameters(gamma=1.4, zeta0=2.0, J=1e-2, S0=1.0)
        rep = certify_regime(params)
        assert rep.certified
        assert rep.eta == pytest.approx(0.75 * params.gamma)
        assert rep.J_regime == "small"
        assert rep.alpha_min > 0
        assert rep.kappa0 < 1 < rep.kappaL

    def test_tiny_window_sign_matches_sonic_limit(self):
        params = GasParameters(gamma=1.4, zeta0=2.0, J=1e-2, S0=1.0)
        eta = 0.75 * params.gamma
        lim = alpha_sonic_limit(params, eta)
        d = 1e-4
        _, amin = alpha_profile(np.linspace(1 - d, 1 + d, 101), 1 - d, 1 + d, params, eta)
        assert (amin > 0) == (lim > 0)

    def test_scan_finds_certified_small_J(self):
        hits = []
        for J in (1.0, 1e-1, 1e-2, 1e-3):
            rep = certify_regime(replace(GAS14, J=J))
            if rep.certified:
                hits.append((J, rep.d))
        assert hits, "no certified momentum density found in the scan"
        assert any(J <= 1e-2 and d >= 1e-3 for J, d in hits)

    def test_uncertified_is_reported_not_raised(self):
        rep = certify_regime(CANON)  # J = 1 lies between the two branches
        assert not rep.certified
        assert rep.J_regime == "uncertified"
        assert np.isfinite(rep.alpha_min)

    @pytest.mark.parametrize("params", [CANON, replace(GAS14, J=3e-2)], ids=["canonical", "gamma1.4_J3e-2"])
    def test_uncertified_reports_the_largest_scanned_minimum(self, params):
        # the search's windows, scanned here on the test's own loop: both
        # branches, every half-width from D_START down to D_MIN below kappa_max
        rep = certify_regime(params)
        scanned = []
        for eta in (0.75 * params.gamma, 0.25 * params.gamma):
            for d in D_START * D_SHRINK ** np.arange(64):
                if D_MIN <= d and 1 + d < kappa_max(params):
                    k = unique_window_grid(1 - d, 1 + d)
                    scanned.append((alpha_profile(k, 1 - d, 1 + d, params, eta)[1], eta, d))
        assert max(amin for amin, _, _ in scanned) <= 0
        amin, eta, d = max(scanned, key=lambda window: window[0])  # the first of equal maxima
        assert (rep.certified, rep.J_regime, rep.J) == (False, "uncertified", params.J)
        assert (rep.alpha_min, rep.eta, rep.d, rep.kappa0, rep.kappaL) == (amin, eta, d, 1 - d, 1 + d)
        assert rep.L == nozzle_length(1 - d, 1 + d, params)

    def test_large_J_certificate_uses_large_branch(self):
        params = GasParameters(gamma=3.0, zeta0=2.0, J=300.0, S0=1.0 / 3.0)
        rep = certify_regime(params)
        assert rep.certified
        assert rep.eta == pytest.approx(0.25 * params.gamma)
        assert rep.J_regime == "large"


@settings(max_examples=50)
@given(kappa0=st.floats(0.5, 1.0), width=st.floats(1e-6, 0.5))
def test_window_grid_matches_unique_bit_for_bit(kappa0, width):
    # sorted with equal neighbours dropped, as np.unique merges (which loads numpy.ma)
    got, want = _window_grid(kappa0, kappa0 + width), unique_window_grid(kappa0, kappa0 + width)
    assert got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestLambdaWindow:
    def test_matches_direct_quadrature(self):
        assert lambda_window(0.9, 1.1, CANON) == pytest.approx(tight_lambda(0.9, 1.1, CANON), rel=1e-11)

    @pytest.mark.parametrize(
        "params",
        [
            CANON,
            GasParameters(gamma=1.4, zeta0=2.0, J=1e-3, S0=1.0),
            GasParameters(gamma=2.0, zeta0=1.5, J=1.0, S0=1.0),
        ],
        ids=["canon", "gamma1.4", "gamma2"],
    )
    def test_accuracy_across_windows(self, params):
        ladder = []
        d = D_START
        while d >= D_MIN:
            ladder.append((1 - d, 1 + d))
            d *= D_SHRINK
        kmax = kappa_max(params)
        windows = ladder + [(0.9, 1.1), (0.1, 1.5), (0.5, 1.5)] + [
            (0.9, kmax * (1 - 1e-2)), (0.9, kmax * (1 - 1e-6)), (0.9, kmax)
        ]
        for k0, kL in windows:
            assert lambda_window(k0, kL, params) == pytest.approx(tight_lambda(k0, kL, params), rel=1e-10), (k0, kL)

    def test_window_beyond_orbit_rejected(self):
        with pytest.raises(InputError):
            lambda_window(0.9, kappa_max(CANON) * (1 + 1e-9), CANON)
