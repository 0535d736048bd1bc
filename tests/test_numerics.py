"""Bisection to adjacent floats; PCHIP and cumulative Simpson against scipy, bit for bit; the import graph."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.interpolate
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import epnozzle
from epnozzle.numerics import Pchip, bisect, cumulative_simpson

COEF = st.floats(-10.0, 10.0)
SCALES = st.sampled_from([1e-8, 1e-3, 1.0, 1e3])
# no near-subnormal data: there scipy's slope formula itself overflows and warns
VALUES = st.floats(-10.0, 10.0).filter(lambda v: v == 0 or abs(v) > 1e-100)


def assert_adjacent_sign_change(f, lo, hi, root):
    above = np.nextafter(root, np.inf)
    assert np.all((lo <= root) & (above <= hi))
    assert np.all(f(root) > 0) and np.all(f(above) <= 0)


def falling_cubic(a, r, scale):
    """A cubic whose one real root is ``r``, positive below it (in floats it may change sign
    more than once near ``r``)."""
    return lambda x: scale * (r - x) * ((a[0] * (x - r) + a[1]) ** 2 + np.abs(a[2]) + 1e-3)


BRACKET = st.tuples(st.tuples(COEF, COEF, COEF), COEF, st.floats(1e-9, 20.0), st.floats(1e-9, 20.0), SCALES)


class TestBisect:
    @settings(max_examples=150)
    @given(bracket=BRACKET)
    def test_scalar_bracket(self, bracket):
        a, r, left, right, scale = bracket
        f = falling_cubic(a, r, scale)
        lo, hi = r - left, r + right
        assume(lo < r < hi and f(lo) > 0 >= f(hi))
        root = bisect(f, lo, hi)
        assert np.shape(root) == ()
        assert_adjacent_sign_change(f, lo, hi, root)

    @settings(max_examples=100)
    @given(brackets=st.lists(BRACKET, min_size=1, max_size=8))
    def test_array_brackets(self, brackets):
        # one cubic per bracket, as the sonic interface bisects one per line
        a, r, left, right, scale = (np.array(v, dtype=float) for v in zip(*brackets))
        f = falling_cubic(a.T, r, scale)
        lo, hi = r - left, r + right
        assume(np.all((lo < r) & (r < hi) & (f(lo) > 0) & (f(hi) <= 0)))
        root = bisect(f, lo, hi)
        assert root.shape == r.shape
        assert_adjacent_sign_change(f, lo, hi, root)

    def test_brackets_already_adjacent(self):
        lo = np.array([1.0, 0.25])
        hi = np.nextafter(lo, np.inf)
        assert np.array_equal(bisect(lambda x: 1.0 - 2.0 * (x > lo), lo, hi), lo)


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
