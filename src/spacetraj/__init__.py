"""Two-phase trajectory optimization for space scenarios.

Solves regulation-to-origin problems with nonlinear dynamics by a
finite-horizon iterative-LQR leg whose terminal cost is the stationary
Riccati value, followed by stationary LQR regulation inside a terminal set.
Ships three ready-made scenarios (spacecraft attitude, orbital rendezvous,
Mars soft landing) and a CLI that runs, sweeps, and verifies them.
"""

from .cost import AltitudePenaltySpec, QuadraticCostSpec, TerminalValue, altitude_penalty
from .dynamics import (
    DiscreteModel,
    Linearization,
    double_integrator,
    euler_step,
    finite_diff_jacobians,
    jacobians,
    lti_model,
)
from .errors import (
    ConfigError,
    DynamicsDomainError,
    HittingTimeNotFoundError,
    NotAFixedPointError,
    RegularizationError,
    SingularityError,
    SpacetrajError,
    StabilizabilityError,
    UnsupportedOrbitError,
)
from .ilqr import GainSchedule, SolveReport, SolverSettings, Trajectory, solve_fhocp
from .lqr import (
    LqrSolution,
    MembershipResult,
    RegulationDesign,
    TerminalSetSpec,
    in_terminal_set,
    linearize_at_goal,
    regulation_rollout,
    solve_dare,
    stationary_design,
)
from .two_phase import (
    BellmanResidual,
    ClosedLoopTrajectory,
    ConvergenceRow,
    SweepPoint,
    TwoPhaseProblem,
    TwoPhaseSolution,
    bellman_check,
    convergence_study,
    lyapunov_decrease_ratio,
    solve_two_phase,
    two_phase_simulate,
)

__version__ = "0.1.0"
