"""The seven solver options, checked once where they are built."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class SolverOptions:
    """``tol_outer``, ``max_outer``, ``theta`` and ``sigma_cap`` (``None``: ``driver.default_sigma_cap``) set the
    damped Picard fixed point, ``eps0``, ``tol_eps`` and ``eps_cap`` the viscosity schedule ``eps0 2^-k``,
    ``k <= eps_cap``.  A bad option is an ``InputError`` naming it."""

    tol_outer: float = 1e-9
    max_outer: int = 100
    theta: float = 1.0
    eps0: float = 0.1
    tol_eps: float = 1e-6
    eps_cap: int = 20
    sigma_cap: float | None = None

    def __post_init__(self):
        for name, value in vars(self).items():
            integral = name in ("max_outer", "eps_cap")
            if name == "sigma_cap" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral if integral else numbers.Real):
                raise InputError(f"solver option {name} must be {'an integer' if integral else 'real'}, got {value!r}")
        if not 0 < self.theta <= 1:
            raise InputError(f"damping factor theta must lie in (0, 1], got {self.theta}")
        if self.max_outer < 1:
            raise InputError(f"outer iteration budget max_outer must be at least 1, got {self.max_outer}")
        if not 0 <= self.tol_outer < np.inf:
            raise InputError(f"outer tolerance tol_outer must be finite and nonnegative, got {self.tol_outer}")
        if self.sigma_cap is not None and not 0 < self.sigma_cap < np.inf:
            raise InputError(f"amplitude cap sigma_cap must be finite and positive, got {self.sigma_cap}")
        if not 0 < self.eps0 < np.inf:
            raise InputError(f"initial viscosity eps0 must be finite and positive, got {self.eps0}")
        if not 0 <= self.tol_eps < np.inf:
            raise InputError(f"continuation tolerance tol_eps must be finite and nonnegative, got {self.tol_eps}")
        if self.eps_cap < 0:
            raise InputError(f"viscosity schedule cap must be nonnegative, got {self.eps_cap}")
