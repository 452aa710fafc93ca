"""Exception types raised by the regulator toolkit."""


class RegulatorError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(RegulatorError):
    """Matrix or vector dimensions are mutually inconsistent."""


class AssumptionViolated(RegulatorError):
    """A structural assumption on the problem data fails a hard check; the
    message is "assumption: detail"."""


class InfeasibleMultiplier(RegulatorError):
    """A multiplier falls below its nested feasibility bound."""


class SingularM(RegulatorError):
    """A stage matrix M is numerically singular despite feasibility."""


class NoSphereIntersection(RegulatorError):
    """The disturbance response cannot be completed onto the bound sphere."""


class NoFeasibleLambda(RegulatorError):
    """No feasible steady-state multiplier found within the bracket budget."""


class SingularPi(RegulatorError):
    """The steady-state Riccati matrix is not invertible; cannot certify."""


class Diverged(RegulatorError):
    """An iteration exceeded its divergence guard."""


class ScenarioError(RegulatorError):
    """A scenario file failed to parse or is semantically invalid."""
