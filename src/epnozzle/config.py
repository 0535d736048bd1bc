"""Run configuration: flat dotted-key text files, JSON accepted as an alternative.

A config is a mapping from dotted section keys to scalars; the text form
is one ``key = value`` pair per line with ``#`` comments (whole lines, or
after whitespace at the end of a line), the JSON form a flat object with
the same keys; one converter per key reads both forms.  A value that does
not convert is an ``InputError`` naming its key.  Parsing, serializing,
and re-parsing is an identity on the typed configuration.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, fields, replace

from .background import DEFAULT_RESOLUTION
from .boundary import BoundaryDataSpec
from .errors import InputError
from .options import SolverOptions


def _parse_number(value) -> float:
    """A float from a real number or its decimal text; never from a bool."""
    if isinstance(value, bool):
        raise ValueError("not a number")
    return float(value)


def _parse_int(value) -> int:
    """An integer from an int, an integral float or a decimal string; never from a bool."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("not an integer")
    return int(value)


def _parse_modes(value) -> tuple:
    """``(n, c)`` pairs from ``n:c;...`` text or a JSON list of ``[n, c]`` pairs."""
    if isinstance(value, str):
        value = [item.split(":") for item in value.split(";")] if value.strip() else []
    elif not all(isinstance(item, (list, tuple)) for item in value):
        raise ValueError("a mode is an [n, c] pair")
    return tuple((_parse_int(n), _parse_number(c)) for n, c in value)


def _format_modes(modes) -> str:
    return ";".join(f"{n}:{c!r}" for n, c in modes)


def _parse_bool(value) -> bool:
    """A flag from a JSON bool or one of the words true/1/yes, false/0/no (any case)."""
    if isinstance(value, bool):
        return value
    word = value.strip().lower() if isinstance(value, str) else None
    if word in ("true", "1", "yes"):
        return True
    if word in ("false", "0", "no"):
        return False
    raise ValueError("not a boolean")


def _parse_text(value) -> str:
    if not isinstance(value, str) or not value.strip():
        raise ValueError("not a nonempty string")
    return value


@dataclass(frozen=True)
class RunConfig:
    """Typed run configuration; ``None`` marks an omitted optional key."""

    gamma: float = None
    zeta0: float = None
    J: float = None
    S0: float = None
    E0: float | None = None
    u0: float | None = None
    resolution: int = DEFAULT_RESOLUTION
    kappa0: float | None = None
    kappaL: float | None = None
    d: float | None = None
    L: float | None = None
    n_x1: int = 401
    m: int = 16
    sigma: float = 0.0
    s_modes: tuple = ()
    e_modes: tuple = ()
    w_modes: tuple = ()
    tol_eps: float = SolverOptions.tol_eps
    tol_outer: float = SolverOptions.tol_outer
    theta: float = SolverOptions.theta
    eps0: float = SolverOptions.eps0
    eps_cap: int = SolverOptions.eps_cap
    max_outer: int = SolverOptions.max_outer
    sigma_cap: float | None = SolverOptions.sigma_cap
    out_dir: str = "out"
    override_certificate: bool = False
    emit_fields: bool = True
    emit_traces: bool = True

    def validate(self) -> "RunConfig":
        for name in ("gamma", "zeta0", "J", "S0"):
            if getattr(self, name) is None:
                raise InputError(f"missing required key gas.{name}")
        inlet = [k for k in ("u0", "kappa0") if getattr(self, k) is not None]
        exit_ = [k for k in ("L", "kappaL") if getattr(self, k) is not None]
        if self.d is not None:
            if inlet or exit_:
                raise InputError("window.d excludes u0/kappa0 and L/kappaL")
        else:
            if len(inlet) != 1:
                raise InputError("provide exactly one of background.u0 and window.kappa0")
            if len(exit_) != 1:
                raise InputError("provide exactly one of domain.L and window.kappaL")
        if not math.isfinite(self.sigma):
            raise InputError(f"boundary.sigma must be finite, got {self.sigma}")
        # the size rules of Grid and solve_background, checked before any row runs
        if self.n_x1 < 9:
            raise InputError(f"grid.n_x1 must be at least 9, got {self.n_x1}")
        if self.m < 0:
            raise InputError(f"grid.m must be nonnegative, got {self.m}")
        if self.resolution < 2:
            raise InputError(f"background.resolution must be at least 2, got {self.resolution}")
        self.boundary_data()            # raises on a bad mode list
        self.solver_options()           # the solver's own rules, so that a sweep rejects them before any row
        return self

    def solver_options(self) -> SolverOptions:
        """The solver options this config sets; ``InputError`` on a bad one."""
        return SolverOptions(**{f.name: getattr(self, f.name) for f in fields(SolverOptions)})

    def boundary_data(self) -> BoundaryDataSpec:
        """The inlet data this config describes; ``InputError`` on a bad mode list."""
        return BoundaryDataSpec(sigma=self.sigma, s_modes=self.s_modes, e_modes=self.e_modes, w_modes=self.w_modes)


_KEYMAP = {
    "gas.gamma": ("gamma", _parse_number),
    "gas.zeta0": ("zeta0", _parse_number),
    "gas.J": ("J", _parse_number),
    "gas.S0": ("S0", _parse_number),
    "gas.E0": ("E0", _parse_number),
    "background.u0": ("u0", _parse_number),
    "background.resolution": ("resolution", _parse_int),
    "window.kappa0": ("kappa0", _parse_number),
    "window.kappaL": ("kappaL", _parse_number),
    "window.d": ("d", _parse_number),
    "domain.L": ("L", _parse_number),
    "grid.n_x1": ("n_x1", _parse_int),
    "grid.m": ("m", _parse_int),
    "boundary.sigma": ("sigma", _parse_number),
    "boundary.s_modes": ("s_modes", _parse_modes),
    "boundary.e_modes": ("e_modes", _parse_modes),
    "boundary.w_modes": ("w_modes", _parse_modes),
    "tol.eps": ("tol_eps", _parse_number),
    "tol.outer": ("tol_outer", _parse_number),
    "damping.theta": ("theta", _parse_number),
    "solver.eps0": ("eps0", _parse_number),
    "solver.eps_cap": ("eps_cap", _parse_int),
    "solver.max_outer": ("max_outer", _parse_int),
    "solver.sigma_cap": ("sigma_cap", _parse_number),
    "output.dir": ("out_dir", _parse_text),
    "flags.override_certificate": ("override_certificate", _parse_bool),
    "flags.emit_fields": ("emit_fields", _parse_bool),
    "flags.emit_traces": ("emit_traces", _parse_bool),
}

_FIELD_TO_KEY = {attr: key for key, (attr, _) in _KEYMAP.items()}
_DEFAULTS = RunConfig()


def config_from_mapping(raw: dict) -> RunConfig:
    kw = {}
    for key, value in raw.items():
        if key not in _KEYMAP:
            raise InputError(f"unknown config key {key!r}")
        attr, conv = _KEYMAP[key]
        try:
            kw[attr] = conv(value)
        except (TypeError, ValueError) as exc:
            raise InputError(f"config key {key}: cannot read {value!r} ({exc})") from None
    return RunConfig(**kw).validate()


def parse_config(text: str) -> RunConfig:
    """Parse the flat key-value form or, if the text is a JSON object, that."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"config is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise InputError("JSON config must be an object of dotted keys")
        return config_from_mapping(raw)
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = re.split(r"\s#", line, maxsplit=1)[0].strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        raw[key.strip()] = value.strip()
    return config_from_mapping(raw)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical flat text form (sorted keys, omitted optionals skipped)."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        default = getattr(_DEFAULTS, f.name)
        if value is None and default is None:
            continue
        key = _FIELD_TO_KEY[f.name]
        if isinstance(value, tuple):
            text = _format_modes(value)
        elif isinstance(value, bool):
            text = "true" if value else "false"
        else:
            text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(sorted(lines)) + "\n"


def load_config(path) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def with_overrides(cfg: RunConfig, **kw) -> RunConfig:
    return replace(cfg, **kw).validate()
