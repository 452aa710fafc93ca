"""Stage-bound disturbance attenuation regulator toolkit.

Synthesis and simulation for the discrete-time minmax regulator with
per-stage disturbance norm bounds: multiplier-parameterized Riccati
sweeps, the convex multiplier program, the nonlinear online policy with
worst-case disturbance synthesis, and the steady-state solve with an LMI
feasibility certificate.
"""
from .errors import (AssumptionViolated, DimensionMismatch, Diverged,
                     InfeasibleMultiplier, NoFeasibleLambda,
                     NoSphereIntersection, RegulatorError, ScenarioError,
                     SingularM, SingularPi)
from .multiplier import MultiplierSolution, objective, solve_multipliers
from .policy import Trajectory, control_at, rollout, worst_disturbance_at
from .problem import ProblemData, ValidationReport, validate_problem
from .riccati import MultiplierVector, RiccatiSweep, sweep
from .steady_state import (LmiCertificate, SteadyStateSolution, lmi_certify,
                           lqr_baseline, solve_steady_state)

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolated", "DimensionMismatch", "Diverged",
    "InfeasibleMultiplier", "LmiCertificate", "MultiplierSolution",
    "MultiplierVector", "NoFeasibleLambda", "NoSphereIntersection",
    "ProblemData", "RegulatorError", "RiccatiSweep", "ScenarioError",
    "SingularM", "SingularPi", "SteadyStateSolution", "Trajectory",
    "ValidationReport", "control_at", "lmi_certify", "lqr_baseline",
    "objective", "rollout", "solve_multipliers", "solve_steady_state",
    "sweep", "validate_problem", "worst_disturbance_at",
]
