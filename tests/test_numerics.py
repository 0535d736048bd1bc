"""In-package Brent, PCHIP and cumulative Simpson against scipy, bit for bit; the import graph."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.interpolate
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import epnozzle
from epnozzle.numerics import Pchip, brentq, cumulative_simpson

# (xtol, rtol) as kappa_max and sonic_interface call Brent, and a looser xtol
BRENT_TOLS = [(1e-15, 4 * np.finfo(float).eps), (1e-12, 8.9e-16), (1e-10, 8.9e-16)]
COEF = st.floats(-10.0, 10.0)
SCALES = st.sampled_from([1e-8, 1e-3, 1.0, 1e3])
# no near-subnormal data: there scipy's slope formula itself overflows and warns
VALUES = st.floats(-10.0, 10.0).filter(lambda v: v == 0 or abs(v) > 1e-100)


def outcome(solver, f, a, b, xtol, rtol):
    """The root, or the exception's type and message."""
    try:
        return solver(f, a, b, xtol=xtol, rtol=rtol)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def assert_same_brent(f, a, b):
    for xtol, rtol in BRENT_TOLS:
        ours = outcome(brentq, f, a, b, xtol, rtol)
        ref = outcome(scipy.optimize.brentq, f, a, b, xtol, rtol)
        assert repr(ours) == repr(ref), (xtol, rtol)  # repr tells -0.0 from 0.0


class TestBrent:
    @settings(max_examples=150)
    @given(a=st.tuples(COEF, COEF, COEF, COEF), lo=COEF, width=st.floats(1e-6, 20.0))
    def test_random_cubics(self, a, lo, width):
        # includes brackets without a sign change (the ValueError path)
        assert_same_brent(lambda x: ((a[3] * x + a[2]) * x + a[1]) * x + a[0], lo, lo + width)

    @settings(max_examples=150)
    @given(lo=COEF, width=st.floats(1e-6, 20.0), at=st.floats(0.0, 1.0), s=COEF, c=st.floats(0.0, 5.0),
           scale=SCALES)
    def test_cubics_with_a_bracketed_root(self, lo, width, at, s, c, scale):
        # one simple root r inside the bracket, a double root s where c = 0
        hi = lo + width
        r = lo + at * width
        assume(lo < r < hi)
        assert_same_brent(lambda x: scale * (x - r) * ((x - s) ** 2 + c), lo, hi)

    def test_root_at_either_endpoint(self):
        assert brentq(lambda x: x - 0.25, 0.25, 1.0, xtol=1e-12, rtol=8.9e-16) == 0.25
        assert brentq(lambda x: x - 1.0, 0.25, 1.0, xtol=1e-12, rtol=8.9e-16) == 1.0
        assert_same_brent(lambda x: x - 0.25, 0.25, 1.0)
        assert_same_brent(lambda x: (x - 1.0) ** 3, 0.25, 1.0)

    def test_errors_match_scipy(self):
        # same sign at both ends, a NaN met on the way, an iteration cap too small
        assert_same_brent(lambda x: x * x + 1.0, -1.0, 1.0)
        assert_same_brent(lambda x: math.nan if x > 0.7 else x - 0.5, 0.0, 1.0)
        assert_same_brent(lambda x: math.copysign(abs(x) ** (1 / 9), x), -1e300, 2e300)
        with pytest.raises(RuntimeError, match="100 iterations"):
            brentq(lambda x: math.copysign(abs(x) ** (1 / 9), x), -1e300, 2e300, xtol=1e-15, rtol=8.9e-16)
        for xtol, rtol in ((0.0, 8.9e-16), (1e-12, 1e-17)):
            assert outcome(brentq, lambda x: x, -1.0, 2.0, xtol, rtol) == outcome(
                scipy.optimize.brentq, lambda x: x, -1.0, 2.0, xtol, rtol)


@st.composite
def pchip_data(draw, columns):
    """Strictly increasing uneven nodes and values with flat runs and sign changes."""
    n = draw(st.integers(3, 12))
    gaps = draw(st.lists(st.floats(1e-3, 3.0), min_size=n - 1, max_size=n - 1))
    x = draw(st.floats(-5.0, 5.0)) + np.concatenate(([0.0], np.cumsum(gaps)))
    assume(np.all(np.diff(x) > 0))
    shape = (n,) if columns == 0 else (n, columns)
    # a small alphabet repeats values (flat cells, zero slopes) and alternates signs
    cells = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.0]), VALUES)
    y = np.array(draw(st.lists(cells, min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))))
    return x, y.reshape(shape) * draw(SCALES)


def probe_points(x):
    """Breakpoints, their neighbours, both ends, slightly and well outside, and cell interiors."""
    span = x[-1] - x[0]
    mids = 0.5 * (x[1:] + x[:-1])
    return np.concatenate((
        x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf), mids, x[:-1] + 0.3 * np.diff(x),
        [x[0] - 1e-9 * span, x[0] - 0.1 * span, x[-1] + 1e-9 * span, x[-1] + 0.1 * span],
    ))


class TestPchip:
    @settings(max_examples=150)
    @given(data=st.integers(0, 3).flatmap(pchip_data))
    def test_value_and_slope_match_scipy(self, data):
        x, y = data
        ref = scipy.interpolate.PchipInterpolator(x, y, axis=0)
        ours = Pchip(x, y)
        q = probe_points(x)
        value, slope = ours.value_and_slope(q)
        assert np.array_equal(ours(q), ref(q))
        assert np.array_equal(value, ref(q))
        assert np.array_equal(slope, ref.derivative()(q))
        # a 2-D query, as lagrangian_map makes
        q2 = q[: 2 * (len(q) // 2)].reshape(2, -1)
        assert np.array_equal(ours(q2), ref(q2))

    @settings(max_examples=60)
    @given(data=st.integers(1, 3).flatmap(pchip_data))
    def test_column_matches_scipy(self, data):
        x, y = data
        ref = scipy.interpolate.PchipInterpolator(x, y, axis=0)
        ours = Pchip(x, y)
        q = probe_points(x)
        for j in range(y.shape[1]):
            line = ours.column(j)
            assert np.array_equal([line(float(v)) for v in q], ref(q)[:, j])

    def test_rejects_non_finite_data(self):
        with pytest.raises(ValueError, match="finite"):
            Pchip([0.0, 1.0, 2.0], [0.0, np.nan, 1.0])


class TestCumulativeSimpson:
    @settings(max_examples=100)
    @given(n=st.sampled_from([3, 4, 33]), rows=st.integers(0, 3), data=st.data())
    def test_matches_scipy_on_uneven_grids(self, n, rows, data):
        gaps = data.draw(st.lists(st.floats(1e-3, 2.0), min_size=n - 1, max_size=n - 1))
        x = data.draw(st.floats(-3.0, 3.0)) + np.concatenate(([0.0], np.cumsum(gaps)))
        assume(np.all(np.diff(x) > 0))
        shape = (n,) if rows == 0 else (rows, n)
        y = np.array(data.draw(st.lists(VALUES, min_size=int(np.prod(shape)),
                                        max_size=int(np.prod(shape))))).reshape(shape)
        ref = scipy.integrate.cumulative_simpson(y, x=x, axis=-1, initial=0.0)
        assert np.array_equal(cumulative_simpson(y, x), ref)

    def test_signed_zero_start(self):
        # the first cell's Simpson integral is -0.0 here; scipy's initial=0.0 makes it 0.0
        y = np.array([-0.0, -0.0, 0.0])
        x = np.array([0.0, 1.0, 1.5])
        ours = cumulative_simpson(y, x)
        ref = scipy.integrate.cumulative_simpson(y, x=x, initial=0.0)
        assert np.array_equal(np.signbit(ours), np.signbit(ref))


def _fresh_process(code: str):
    """The last stdout line, as JSON, of ``code`` run in a fresh interpreter
    after ``import epnozzle, epnozzle.cli`` from this source tree."""
    src = str(Path(epnozzle.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import json, sys\nimport epnozzle, epnozzle.cli\n" + code
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_package_imports_no_heavy_scipy_subpackage():
    # scipy.optimize, integrate and interpolate (and through them special)
    # cost a fresh process about 0.3 s.  scipy.sparse and the scipy.linalg
    # package load scipy._lib._util, whose array-API copy of numpy imports
    # numpy.f2py, testing, ma and random (about 0.17 s); the package loads
    # only the compiled LAPACK wrappers of scipy.linalg, by file.
    source, loaded = _fresh_process(
        "print(json.dumps([epnozzle.__file__, sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy'))]))\n"
    )
    assert Path(source).resolve().parents[1] == Path(epnozzle.__file__).resolve().parents[1]
    heavy = ("optimize", "integrate", "interpolate", "special", "sparse")
    assert [m for m in loaded if m.startswith("scipy.") and m.split(".")[1].lstrip("_") in heavy] == []
    assert [m for m in loaded if m.startswith("scipy.linalg")] == ["scipy.linalg._flapack"]
    assert "scipy._lib._util" not in loaded and "numpy.f2py" not in loaded
    # nor the top-level scipy package (its __init__ loads subprocess and the
    # test utilities), nor numpy.ma, not even after a regime certificate,
    # the first unit of every sweep
    assert "scipy" not in loaded and "numpy.ma" not in loaded
    # the quadrature rules are literals, so numpy.polynomial is not loaded
    assert "numpy.polynomial" not in loaded
    assert _fresh_process(
        "from epnozzle import GasParameters, certify_regime\n"
        "report = certify_regime(GasParameters(gamma=3.0, zeta0=2.0, J=0.05, S0=1.0 / 3.0))\n"
        "print(json.dumps([bool(report.certified), 'numpy.ma' in sys.modules, 'scipy' in sys.modules]))\n"
    ) == [True, False, False]


def test_scipy_linalg_imported_later_reuses_the_wrappers():
    # a canonical-sized mode-diagonal band (17 modes of 5 x 401 unknowns)
    # factors bit-identically through scipy.linalg.lapack and the package
    same, identical = _fresh_process(
        "import numpy as np\n"
        "import scipy.linalg\n"
        "from epnozzle import mixed_solver as ms\n"
        "n, l, u = 17 * 5 * 401, ms.BAND_L, ms.BAND_U\n"
        "ab = np.zeros((2 * l + u + 1, n), order='F')\n"
        "ab[l:] = np.random.default_rng(0).standard_normal((l + u + 1, n))\n"
        "ab[l + u] += 8.0\n"
        "ref = scipy.linalg.lapack.dgbtrf(ab.copy(order='F'), l, u)\n"
        "got = ms.lapack.dgbtrf(ab.copy(order='F'), l, u)\n"
        "print(json.dumps([scipy.linalg.lapack.dgbtrf is ms.lapack.dgbtrf,\n"
        "    ref[2] == got[2] == 0 and np.array_equal(ref[0].view(np.uint64), got[0].view(np.uint64))\n"
        "    and np.array_equal(ref[1], got[1])]))\n"
    )
    assert same and identical
