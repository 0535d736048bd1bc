"""Stream-function transport: flux potential, labels, composition, streamlines."""

import numpy as np
import pytest

from oracles import m_dot_grad, trace_streamlines

from epnozzle import (
    BoundaryDataSpec,
    DegenerateStateError,
    GasParameters,
    Grid,
    lagrangian_map,
    stream_function,
    transport_entropy,
)

GRID = Grid(L=0.5, n_x1=41, m=6)
CANON = GasParameters(gamma=3.0, zeta0=2.0, J=1.0, S0=1.0 / 3.0)


def solenoidal_field(grid, amp=0.05):
    """Analytic divergence-free field: m = (d2 theta, -d1 theta)."""
    X, Y = np.meshgrid(grid.x1, grid.x2, indexing="ij")
    c = amp
    theta = (Y + 1.0) + c * np.sin(np.pi * X / grid.L) * np.sin(np.pi * Y)
    m1 = 1.0 + c * np.pi * np.sin(np.pi * X / grid.L) * np.cos(np.pi * Y)
    m2 = -c * np.pi / grid.L * np.cos(np.pi * X / grid.L) * np.sin(np.pi * Y)
    return theta, m1, m2


class TestStreamFunction:
    def test_constant_flux(self):
        m1 = 0.7 * np.ones((GRID.n_x1, GRID.n_x2))
        sf = stream_function(m1, GRID)
        assert np.max(np.abs(sf.theta - 0.7 * (GRID.x2 + 1.0))) < 1e-14
        assert sf.theta[0, -1] == pytest.approx(1.4)
        assert sf.top_defect <= 1e-14

    def test_background_flux_top_defect(self):
        # x1-independent profile integrates to an x1-independent potential
        m1 = np.outer(np.ones(GRID.n_x1), 1.0 + 0.2 * np.cos(np.pi * GRID.x2))
        sf = stream_function(m1, GRID)
        assert sf.top_defect <= 1e-10

    def test_solenoidal_field_defect_matches_divergence(self):
        theta, m1, m2 = solenoidal_field(GRID)
        sf = stream_function(m1, GRID)
        # simpson error only ((h2^4/180) |d4 m1| ~ 2e-6 on this grid)
        assert np.max(np.abs(sf.theta - (theta - theta[:, :1]))) < 2e-5
        assert sf.top_defect < 1e-10

    def test_nonpositive_flux_rejected(self):
        m1 = np.ones((GRID.n_x1, GRID.n_x2))
        m1[3, 4] = -0.1
        with pytest.raises(DegenerateStateError):
            stream_function(m1, GRID)

    def test_monotone_margin_vs_inlet_mean(self):
        m1 = np.outer(np.ones(GRID.n_x1), 1.0 + 0.2 * np.cos(np.pi * GRID.x2))
        sf = stream_function(m1, GRID)
        J_eff = sf.theta[0, -1] / 2.0
        assert sf.monotone_margin >= J_eff / 2.0


class TestLagrangianMap:
    def test_identity_at_inlet(self):
        _, m1, _ = solenoidal_field(GRID)
        sf = stream_function(m1, GRID)
        lab = lagrangian_map(sf)
        assert np.max(np.abs(lab[0] - GRID.x2)) < 1e-12

    def test_constant_field_identity_everywhere(self):
        m1 = 0.7 * np.ones((GRID.n_x1, GRID.n_x2))
        lab = lagrangian_map(stream_function(m1, GRID))
        assert np.max(np.abs(lab - GRID.x2[None, :])) < 1e-12

    def test_wall_values_pinned(self):
        _, m1, _ = solenoidal_field(GRID)
        lab = lagrangian_map(stream_function(m1, GRID))
        assert np.max(np.abs(lab[:, 0] + 1.0)) < 1e-10
        assert np.max(np.abs(lab[:, -1] - 1.0)) < 1e-10

    def test_inversion_accuracy(self):
        _, m1, _ = solenoidal_field(GRID)
        sf = stream_function(m1, GRID)
        lab = lagrangian_map(sf)
        from scipy.interpolate import PchipInterpolator

        inlet = PchipInterpolator(GRID.x2, sf.inlet)
        assert np.max(np.abs(inlet(lab) - np.clip(sf.theta, sf.inlet[0], sf.inlet[-1]))) < 1e-11


class TestTransportEntropy:
    def test_constant_entropy_transports_to_zero(self):
        _, m1, _ = solenoidal_field(GRID)
        lab = lagrangian_map(stream_function(m1, GRID))
        T = transport_entropy(lambda x2: np.zeros_like(x2), lab, GRID)
        assert T.sup_norm() == 0.0

    def test_identity_map_preserves_profile(self):
        m1 = 0.7 * np.ones((GRID.n_x1, GRID.n_x2))
        lab = lagrangian_map(stream_function(m1, GRID))
        sigma = 1e-3
        prof = lambda x2: sigma * np.cos(np.pi * x2)
        T = transport_entropy(prof, lab, GRID)
        expect = np.outer(np.ones(GRID.n_x1), prof(GRID.x2))
        assert np.max(np.abs(T.values() - expect)) < 1e-12

    def test_inlet_trace_reproduced(self):
        _, m1, _ = solenoidal_field(GRID)
        lab = lagrangian_map(stream_function(m1, GRID))
        bdata = BoundaryDataSpec(sigma=1e-4, s_modes=((1, 1.0), (2, 0.5)))
        T = transport_entropy(bdata.s_en_minus_s0, lab, GRID)
        assert np.max(np.abs(T.values()[0] - bdata.s_en_minus_s0(GRID.x2))) <= 1e-10

    def test_range_preservation(self):
        _, m1, _ = solenoidal_field(GRID, amp=0.1)
        lab = lagrangian_map(stream_function(m1, GRID))
        bdata = BoundaryDataSpec(sigma=1e-2, s_modes=((1, 1.0),))
        T = transport_entropy(bdata.s_en_minus_s0, lab, GRID)
        prof = bdata.s_en_minus_s0(np.linspace(-1, 1, 2001))
        assert T.values().max() <= prof.max() + 1e-12
        assert T.values().min() >= prof.min() - 1e-12

    def test_wall_compatibility_propagates(self):
        _, m1, _ = solenoidal_field(GRID)
        lab = lagrangian_map(stream_function(m1, GRID))
        bdata = BoundaryDataSpec(sigma=1e-3, s_modes=((1, 1.0),))
        T = transport_entropy(bdata.s_en_minus_s0, lab, GRID)
        d2 = T.d2()
        assert np.max(np.abs(d2[:, [0, -1]])) < 1e-10


class TestStreamlineOracle:
    def test_entropy_constant_along_traced_streamlines(self):
        g = Grid(L=0.5, n_x1=161, m=12)
        X, Y = np.meshgrid(g.x1, g.x2, indexing="ij")
        m1 = 1.0 + 0.05 * np.pi * np.sin(np.pi * X / g.L) * np.cos(np.pi * Y)
        sf = stream_function(m1, g)
        lab = lagrangian_map(sf)
        bdata = BoundaryDataSpec(sigma=1e-4, s_modes=((1, 1.0),))
        T = transport_entropy(bdata.s_en_minus_s0, lab, g)
        starts = np.linspace(-0.85, 0.85, 7)
        n_steps = 4 * (g.n_x1 - 1)
        xs, paths = trace_streamlines(sf, starts, n_steps=n_steps)
        osc = 2e-4  # oscillation of S_en
        worst = 0.0
        for row in range(len(starts)):
            vals = []
            for idx in range(0, n_steps + 1, 4):      # sample at the stations
                y = paths[row, idx]
                vals.append(float(T.modes[idx // 4] @ np.cos(y * g.families["cosine"].freq)))
            worst = max(worst, np.max(vals) - np.min(vals))
        assert worst <= 1e-6 * osc

    def test_residual_refinement_order(self):
        errs = []
        for n in (41, 81):
            g = Grid(L=0.5, n_x1=n, m=6)
            _, m1, m2 = solenoidal_field(g)
            sf = stream_function(m1, g)
            lab = lagrangian_map(sf)
            bdata = BoundaryDataSpec(sigma=1e-4, s_modes=((1, 1.0),))
            T = transport_entropy(bdata.s_en_minus_s0, lab, g)
            errs.append(np.max(np.abs(m_dot_grad(T, m1, m2)[1:-1])))
        order = np.log2(errs[0] / errs[1])
        assert order >= 1.8
