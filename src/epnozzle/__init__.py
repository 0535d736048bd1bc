"""Steady Euler-Poisson nozzle flows with a smooth subsonic-supersonic transition."""

from .background import (
    BackgroundSolution,
    GasParameters,
    flux_F,
    flux_F_sonic,
    frak_h,
    hamiltonian_H,
    solve_background,
    u_max_root,
)
from .boundary import BoundaryDataSpec
from .coefficients import (
    CoefficientSet,
    FlowState,
    assemble_coefficients,
    background_profile,
    check_smallness,
    default_d0,
    momentum_field,
)
from .config import RunConfig, load_config, parse_config, serialize_config
from .driver import SolveOutcome, fixed_point_solve, mach_field, reconstruct_primitives, sonic_interface
from .errors import (
    AdmissibilityError,
    DegenerateStateError,
    InputError,
    InternalError,
    NonConvergenceError,
    SolverError,
)
from .fields import Field2D, Grid
from .mixed_solver import (
    ModeSystem,
    lift_boundary_data,
    poisson_solve_phi,
    solve_linear_problem,
    vanishing_viscosity,
)
from .regimes import (
    RegimeReport,
    alpha_profile,
    certify_regime,
    curly_F,
    kappa_H,
    nozzle_length,
)
from .transport import StreamFunction, lagrangian_map, stream_function, transport_entropy

__all__ = [name for name in dir() if not name.startswith("_")]
