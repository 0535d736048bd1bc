"""Run configuration: flat dotted-key text files, JSON accepted as an alternative.

A config is a mapping from dotted section keys to scalars; the text form
is one ``key = value`` pair per line with ``#`` comments (whole lines, or
after whitespace at the end of a line), the JSON form a flat object with
the same keys.  Each ``RunConfig`` field declares its key and the one
converter that reads both forms.  A value that does not convert is an
``InputError`` naming its key.  Parsing, serializing, and re-parsing is an
identity on the typed configuration.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, fields, replace

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


def _key(key: str, parse, default=None):
    """A ``RunConfig`` field read from the dotted config ``key`` by ``parse``."""
    return field(default=default, metadata={"key": key, "parse": parse})


@dataclass(frozen=True)
class RunConfig:
    """Typed run configuration; ``None`` marks an omitted optional key."""

    gamma: float = _key("gas.gamma", _parse_number)
    zeta0: float = _key("gas.zeta0", _parse_number)
    J: float = _key("gas.J", _parse_number)
    S0: float = _key("gas.S0", _parse_number)
    E0: float | None = _key("gas.E0", _parse_number)
    u0: float | None = _key("background.u0", _parse_number)
    resolution: int = _key("background.resolution", _parse_int, DEFAULT_RESOLUTION)
    kappa0: float | None = _key("window.kappa0", _parse_number)
    kappaL: float | None = _key("window.kappaL", _parse_number)
    d: float | None = _key("window.d", _parse_number)
    L: float | None = _key("domain.L", _parse_number)
    n_x1: int = _key("grid.n_x1", _parse_int, 401)
    m: int = _key("grid.m", _parse_int, 16)
    sigma: float = _key("boundary.sigma", _parse_number, 0.0)
    s_modes: tuple = _key("boundary.s_modes", _parse_modes, ())
    e_modes: tuple = _key("boundary.e_modes", _parse_modes, ())
    w_modes: tuple = _key("boundary.w_modes", _parse_modes, ())
    tol_eps: float = _key("tol.eps", _parse_number, SolverOptions.tol_eps)
    tol_outer: float = _key("tol.outer", _parse_number, SolverOptions.tol_outer)
    theta: float = _key("damping.theta", _parse_number, SolverOptions.theta)
    eps0: float = _key("solver.eps0", _parse_number, SolverOptions.eps0)
    eps_cap: int = _key("solver.eps_cap", _parse_int, SolverOptions.eps_cap)
    max_outer: int = _key("solver.max_outer", _parse_int, SolverOptions.max_outer)
    sigma_cap: float | None = _key("solver.sigma_cap", _parse_number, SolverOptions.sigma_cap)
    out_dir: str = _key("output.dir", _parse_text, "out")
    override_certificate: bool = _key("flags.override_certificate", _parse_bool, False)
    emit_fields: bool = _key("flags.emit_fields", _parse_bool, True)
    emit_traces: bool = _key("flags.emit_traces", _parse_bool, True)

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


_KEYMAP = {f.metadata["key"]: f for f in fields(RunConfig)}


def config_from_mapping(raw: dict) -> RunConfig:
    kw = {}
    for key, value in raw.items():
        f = _KEYMAP.get(key)
        if f is None:
            raise InputError(f"unknown config key {key!r}")
        try:
            kw[f.name] = f.metadata["parse"](value)
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
        if value is None and f.default is None:
            continue
        if isinstance(value, tuple):
            text = ";".join(f"{n}:{c!r}" for n, c in value)
        elif isinstance(value, bool):
            text = "true" if value else "false"
        else:
            text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{f.metadata['key']} = {text}")
    return "\n".join(sorted(lines)) + "\n"


def load_config(path) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def with_overrides(cfg: RunConfig, **kw) -> RunConfig:
    return replace(cfg, **kw).validate()
