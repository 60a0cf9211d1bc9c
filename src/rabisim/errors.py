"""Exception types raised by rabisim."""

from __future__ import annotations


class RabisimError(Exception):
    """Base class for all rabisim errors.

    ``exit_code`` is the CLI exit status: 4 for a numerical failure, 3 for
    bad input (config, data or coordinates).
    """

    exit_code = 4


class NonConvergedQuadrature(RabisimError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class UnreachableArea(RabisimError):
    """Requested pulse area is below the detuning floor of the window."""


class StepFailure(RabisimError):
    """ODE integration could not continue (step size underflow, bad field)."""


class InvariantBreach(RabisimError):
    """A physical invariant (positivity, trace) was violated beyond tolerance."""


class FitDiverged(RabisimError):
    """Least-squares iteration exhausted its budget without converging."""


class SingularJacobian(RabisimError):
    """Damping could not regularize the normal equations."""


class DegenerateTail(RabisimError):
    """Trace data does not contain enough decay tail to constrain the fit."""


class ParseError(RabisimError):
    """Malformed config or data text; carries line information when known."""

    exit_code = 3

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(RabisimError):
    """Structurally valid input with an out-of-contract value or key."""

    exit_code = 3


class NonMonotonicTime(RabisimError):
    """A time series is not strictly increasing."""

    exit_code = 3


class OutOfRange(RabisimError):
    """A requested coordinate lies outside the available axis."""

    exit_code = 3
