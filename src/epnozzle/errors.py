"""Exception hierarchy shared by all solver stages.

Exit-code mapping used by the CLI: 2 for bad input, 3 for iterations that
fail or leave the admissible region, 4 for violated internal invariants.
"""


class SolverError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 4


class InputError(SolverError):
    """Invalid parameters, configuration, or boundary-data mode lists."""

    exit_code = 2


class NonConvergenceError(SolverError):
    """An iteration exhausted its budget or its error trace stopped shrinking."""

    exit_code = 3


class AdmissibilityError(NonConvergenceError):
    """An iterate left the admissible set (smallness bound or density floor)."""


class DegenerateStateError(AdmissibilityError):
    """A state requires evaluating the gas law outside its physical domain."""


class InternalError(SolverError):
    """A structural invariant that should hold by construction was violated."""
