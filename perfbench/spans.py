"""Span tracer that wraps epnozzle's public functions from outside the package.

Each wrapped function becomes a span named ``<layer>.<what>``, where the
layer is the package module whose code runs inside it.  Spans nest on a
stack; a span's self time is its duration minus the time covered by the
spans it encloses, so the layer self times partition the traced wall time
up to the gaps between spans, which the benchmark reports as
``unattributed_s``.

Functions are wrapped at the names their callers bind (``from .x import f``
copies the function into the caller's namespace, so patching only the
defining module would miss those calls).  One wrapper is made per original
function and installed at every binding; ``uninstall`` restores them all.
Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import builtins
import functools
import inspect
import time
from collections import defaultdict

_MISSING = object()

LAYERS = ("background", "regimes", "fields", "coefficients", "transport",
          "mixed_solver", "driver", "cli")


class Tracer:
    """In-memory span accounting: inclusive time and calls per span name,
    self time per span name and per layer, plus named counters and maxima."""

    def __init__(self):
        self._stack = []
        self._patches = []
        self._wrappers = {}
        self.reset()

    def reset(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.layer_self = defaultdict(float)
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)

    # -- span accounting ---------------------------------------------------
    def _enter(self):
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, name, frame, dt):
        self._stack.pop()
        self.total[name] += dt
        self.self_time[name] += dt - frame[0]
        self.calls[name] += 1
        self.layer_self[name.partition(".")[0]] += dt - frame[0]
        if self._stack:
            self._stack[-1][0] += dt

    def wrap(self, fn, name, post=None):
        """Return the span wrapper of ``fn``, one per original function.

        ``post(tracer, result, args, kwargs)`` runs after the span closes,
        for counts read off the call's arguments or result.
        """
        # the cache holds ``fn`` itself, so its id cannot be reused
        key = id(fn)
        if key not in self._wrappers:
            self._wrappers[key] = (fn, self.span(fn, name, post))
        return self._wrappers[key][1]

    def span(self, fn, name, post=None):
        """Return a new wrapper that records every call of ``fn`` as a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, frame, time.perf_counter() - t0)
            if post is not None:
                post(self, result, args, kwargs)
            return result

        return wrapper

    # -- installation ------------------------------------------------------
    def patch(self, owner, attr, name, post=None):
        """Replace ``owner.attr`` (a module global or a class attribute) by its span wrapper."""
        original = vars(owner).get(attr, _MISSING)
        if original is _MISSING:
            raise AttributeError(f"{owner!r} has no attribute {attr!r} to trace")
        setattr(owner, attr, self.wrap(original, name, post))
        self._patches.append((owner, attr, original))

    def patch_open(self, module, name):
        """Shadow the builtin ``open`` in ``module`` with a timed-file factory.

        Opening, every ``write`` and closing become spans named ``name``, so
        artifact writes done inline by the module's own code are measured.
        """
        tracer = self
        timed = self.wrap(builtins.open, name)

        def traced_open(*args, **kwargs):
            return _TimedFile(tracer, timed(*args, **kwargs), name)

        if "open" in vars(module):
            raise AttributeError(f"{module.__name__} already defines 'open'")
        module.open = traced_open
        self._patches.append((module, "open", _MISSING))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()


class _TimedFile:
    """File proxy whose writes and close are spans of the tracer."""

    def __init__(self, tracer, fh, name):
        self._fh = fh
        self.write = tracer.span(fh.write, name)
        self.close = tracer.span(fh.close, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __getattr__(self, attr):
        return getattr(self._fh, attr)


# ---------------------------------------------------------------------------
# bindings of the epnozzle package
# ---------------------------------------------------------------------------

def _factor_post(tracer, lu, args, kwargs):
    # SuperLU's own storage count for L + U; bytes assume float64 values
    # plus int32 row indices (computed from sizes, not measured traffic)
    tracer.maxima["lu_nnz"] = max(tracer.maxima["lu_nnz"], lu.nnz)
    tracer.maxima["lu_bytes"] = max(tracer.maxima["lu_bytes"], 12 * lu.nnz)


def _continuation_post_factory(fn):
    signature = inspect.signature(fn)

    def post(tracer, result, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        trace = result[2]
        tracer.counters["continuations"] += 1
        if trace and trace[-1]["h1_diff"] <= bound.arguments["tol_eps"]:
            tracer.counters["tol_stops"] += 1

    return post


def install_epnozzle(tracer: Tracer) -> None:
    """Wrap the public functions of every measured layer at their call-site bindings."""
    import epnozzle.background as background
    import epnozzle.cli as cli
    import epnozzle.coefficients as coefficients
    import epnozzle.driver as driver
    import epnozzle.fields as fields
    import epnozzle.mixed_solver as mixed_solver
    import epnozzle.regimes as regimes

    bg_cls = background.BackgroundSolution
    ms_cls = mixed_solver.ModeSystem
    table = [
        # background
        ((background, cli), "solve_background", "background.solve"),
        ((bg_cls,), "evaluate", "background.evaluate"),
        ((bg_cls,), "write_csv", "background.write_csv"),
        # regimes
        ((cli,), "certify_regime", "regimes.certify"),
        ((regimes,), "nozzle_length", "regimes.nozzle_length"),
        # fields
        ((fields.Grid,), "__init__", "fields.grid"),
        ((cli,), "write_grid_csv", "fields.write_grid_csv"),
        # coefficients
        ((coefficients, driver), "background_profile", "coefficients.background_profile"),
        ((coefficients, driver), "assemble_coefficients", "coefficients.assemble"),
        ((coefficients, driver), "check_smallness", "coefficients.smallness"),
        ((coefficients, driver), "require_admissible", "coefficients.require_admissible"),
        ((driver,), "momentum_field", "coefficients.momentum_field"),
        ((driver,), "default_d0", "coefficients.default_d0"),
        # transport
        ((driver,), "stream_function", "transport.stream_function"),
        ((driver,), "lagrangian_map", "transport.lagrangian_map"),
        ((driver,), "transport_entropy", "transport.transport_entropy"),
        # mixed_solver
        ((driver,), "solve_linear_problem", "mixed_solver.linear_problem"),
        ((mixed_solver,), "poisson_solve_phi", "mixed_solver.poisson"),
        ((mixed_solver,), "lift_boundary_data", "mixed_solver.lift"),
        ((mixed_solver,), "energy_sign_audit", "mixed_solver.energy_sign_audit"),
        ((ms_cls,), "__init__", "mixed_solver.mode_system_init"),
        ((ms_cls,), "_assemble_banded", "mixed_solver.assemble_banded"),
        ((ms_cls,), "solve_banded", "mixed_solver.solve_banded"),
        # driver
        ((driver, cli), "fixed_point_solve", "driver.fixed_point_solve"),
        ((driver,), "sonic_interface", "driver.extract"),
        ((driver,), "mach_field", "driver.extract"),
        ((driver,), "reconstruct_primitives", "driver.extract"),
        ((driver,), "fixed_point_residuals", "driver.extract"),
        # cli
        ((cli,), "main", "cli.main"),
    ]
    for owners, attr, name in table:
        for owner in owners:
            tracer.patch(owner, attr, name)
    tracer.patch(mixed_solver, "splu", "mixed_solver.factor", post=_factor_post)
    tracer.patch(mixed_solver, "vanishing_viscosity", "mixed_solver.continuation",
                 post=_continuation_post_factory(mixed_solver.vanishing_viscosity))
    tracer.patch_open(cli, "cli.artifact_write")
