"""Scenario construction: default parameters, initial conditions, weights.

Builds ready-to-solve problem objects for the three cases (attitude slew,
orbital rendezvous, powered descent) plus a scalar linear benchmark whose
infinite-horizon cost is known in closed form.

Conventions:
  * Attitude states are radians internally; initial/goal states and weight
    matrices are specified in degrees (the tabulated working units) and
    converted here at the boundary.
  * Rendezvous works in km, km/s, kg, kN. The regulated coordinates are the
    six relative-error states. The design for transfer time T linearizes the
    full 13-state model at the goal-orbit state of epoch T: zero error, the
    initial mass, and the target propagated by `dynamics.simulate` under
    u = 0 (the target's rows of every trajectory, bit for bit). The orbit is
    propagated once, lazily, up to the largest epoch asked for; a goal orbit
    that leaves the dynamics domain raises DynamicsDomainError.
  * Every design comes from `lqr.stationary_design`.
  * The lander works in normalized variables (see `models`); its config I/O
    is plain SI. The scenario is single-phase: the hover equilibrium needs
    nonzero thrust, so no stationary design exists and the solve is a
    penalized finite-horizon problem simulated to touchdown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cost import AltitudePenaltySpec, QuadraticCostSpec, TerminalValue, stage_costs
from .dynamics import DiscreteModel, lti_model, simulate
from .errors import ConfigError, DynamicsDomainError, NotAFixedPointError
from .ilqr import SolveReport, SolverSettings, solve_fhocp, tracking_law
from .lqr import RegulationDesign, TerminalSetSpec, linearize_at_goal, stationary_design
from .models import (
    DEFAULT_INERTIA_DIAG,
    EARTH_MU,
    LANDER_ALTITUDE_INDEX,
    LANDER_CONTROL_SCALE,
    LANDER_R_SCALE,
    LANDER_STATE_SCALE,
    LANDER_V_SCALE,
    REND_ERROR_INDICES,
    AttitudeParams,
    LanderParams,
    OrbitalElements,
    RendezvousParams,
    attitude_model,
    kepler_to_cartesian,
    lander_hover_control,
    lander_model,
    rendezvous_model,
)
from .two_phase import RunResult, TwoPhaseProblem

DEG = math.pi / 180.0

# Tabulated initial conditions (degrees / deg/s; meters / m/s for the lander).
ATTITUDE_INITIAL_DEG = (85.94, -68.75, -120.32, 5.72, -5.72, 2.86)
LANDER_INITIAL_ATTITUDE_DEG = (22.91, 17.18, 11.45, 5.72, 11.45, -11.45)
LANDER_INITIAL_POSITION_M = (300.0, -200.0, 1000.0)
LANDER_INITIAL_VELOCITY_MPS = (100.0, 120.0, 0.0)


def orbit_deg(
    a_km: float, e: float, i_deg: float, raan_deg: float, argp_deg: float, nu_deg: float
) -> OrbitalElements:
    """Orbital elements with the angles given in degrees."""
    return OrbitalElements(a_km, e, i_deg * DEG, raan_deg * DEG, argp_deg * DEG, nu_deg * DEG)


# (a km, e, i, raan, argp, nu in degrees)
CHASER_ORBIT = (7200.0, 0.22, 64.0, 66.0, 28.0, 81.0)
TARGET_ORBIT = (7000.0, 0.1, 40.0, 35.0, 10.0, 120.0)
CHASER_ELEMENTS = orbit_deg(*CHASER_ORBIT)
TARGET_ELEMENTS = orbit_deg(*TARGET_ORBIT)
RENDEZVOUS_MASS_KG = 1000.0

ATTITUDE_DT = 0.1
ATTITUDE_HORIZON = 200.0
RENDEZVOUS_DT = 2.0
RENDEZVOUS_HORIZON = 6000.0
LANDER_DT = 0.2
LANDER_HORIZON = 30.0
LINEAR_HORIZON = 40.0  # steps of 1 s

# Default weights. Attitude weights are per-degree (identity in the tabulated
# working units); rendezvous weights per km / (km/s) on the error states with
# thrust weighted per kN; lander weights act on the normalized variables.
ATTITUDE_Q_DIAG = (1.0,) * 6
ATTITUDE_R_DIAG = (1.0,) * 3
RENDEZVOUS_Q_DIAG = (1.0,) * 6
RENDEZVOUS_R_DIAG = (500.0,) * 3
LANDER_Q_DIAG = (1.0,) * 6 + (10000.0,) * 3 + (1000.0,) * 3
LANDER_R_DIAG = (1.0,) * 6
LANDER_TERMINAL_WEIGHT = 1.0e5
# Commanded descent rate at the planning horizon's end. The terminal
# reference sits one step below the surface at this rate, so the planned
# trajectory crosses zero altitude strictly inside the horizon instead of
# flaring to rest a few centimeters above it (the altitude penalty always
# leaves the unconstrained optimum slightly airborne).
LANDER_SINK_RATE = 0.8  # m/s
LANDER_PENALTY_WEIGHT = 100.0
LANDER_PENALTY_RATE = 1.0
LANDER_PENALTY_COORD_SCALE = 1.0
TOUCHDOWN_SPEED_LIMIT = 2.0  # m/s

# The rendezvous design freezes the moving target at the switch epoch, which
# leaves a few percent of structural prediction error in the regulation
# leg; its membership tolerance allows for it. The other scenarios use the
# `TerminalSetSpec` default.
RENDEZVOUS_MEMBERSHIP_TOLERANCE = 5e-2


def _diag(values: Sequence[float]) -> np.ndarray:
    return np.diag(np.asarray(values, dtype=float))


def float_array(value, field: str, shape: Optional[Tuple[int, ...]] = None) -> np.ndarray:
    """`value` as an array of finite floats, of `shape` when given; otherwise
    ConfigError naming `field`. Strings, all-boolean arrays and ragged
    nesting are rejected."""
    try:
        arr = np.asarray(value)
        if arr.dtype.kind not in "iuf":
            raise ValueError
    except ValueError:  # also raised for ragged nesting
        raise ConfigError(field, f"expected numbers, got {value!r}") from None
    if shape is not None and arr.shape != shape:
        raise ConfigError(field, f"expected shape {shape}, got {arr.shape}")
    arr = arr.astype(float)
    if not np.isfinite(arr).all():
        raise ConfigError(field, f"entries must be finite, got {value!r}")
    return arr


def weight_matrix(value, dim: int, field: str) -> np.ndarray:
    """A diagonal (length-dim) or full (dim x dim) weight array as a matrix."""
    arr = float_array(value, field)
    if arr.shape != ((dim,) if arr.ndim == 1 else (dim, dim)):
        raise ConfigError(field, f"expected {dim} weights or a {dim}x{dim} matrix, got {arr.shape}")
    return np.diag(arr) if arr.ndim == 1 else arr


def default_regulation_cap(horizon: float, dt: float) -> int:
    return int(round(10.0 * horizon / dt))


# ---------------------------------------------------------------------------
# Attitude
# ---------------------------------------------------------------------------

def _attitude_sample(rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    x = np.concatenate([rng.uniform(-1.0, 1.0, 3), rng.uniform(-0.2, 0.2, 3)])
    return x, rng.normal(0, 5, 3)


def attitude_problem(
    initial_state_deg: Sequence[float] = ATTITUDE_INITIAL_DEG,
    goal_state_deg: Sequence[float] = (0.0,) * 6,
    inertia_diag: Sequence[float] = DEFAULT_INERTIA_DIAG,
    dt: float = ATTITUDE_DT,
    q=ATTITUDE_Q_DIAG,
    r=ATTITUDE_R_DIAG,
    settings: Optional[SolverSettings] = None,
    terminal_set: Optional[TerminalSetSpec] = None,
) -> TwoPhaseProblem:
    """Slew-to-rest problem. State weights are per-degree (identity in the
    tabulated working units by default) and are converted to the internal
    radian state; torque weights are per N*m."""
    goal = np.asarray(goal_state_deg, dtype=float)
    if np.any(goal != 0.0):
        raise ValueError("attitude goal must be the origin (rest at zero angles)")
    params = AttitudeParams(inertia=_diag(inertia_diag))
    model = attitude_model(params, dt)
    S = np.diag(np.full(6, 1.0 / DEG))  # rad -> deg per coordinate
    Q = S @ weight_matrix(q, 6, "q") @ S
    R = weight_matrix(r, 3, "r")
    cost = QuadraticCostSpec(Q=Q, R=R)
    x0 = np.asarray(initial_state_deg, dtype=float) * DEG
    settings = settings or SolverSettings()
    terminal_set = terminal_set or TerminalSetSpec(
        regulation_cap=default_regulation_cap(ATTITUDE_HORIZON, dt)
    )
    design = stationary_design(model, cost, np.zeros(6), np.zeros(3), np.arange(6))

    return TwoPhaseProblem(
        model=model,
        cost=cost,
        x0=x0,
        design_for=lambda T: design,
        settings=settings,
        terminal_set=terminal_set,
        sampler=_attitude_sample,
    )


# ---------------------------------------------------------------------------
# Rendezvous
# ---------------------------------------------------------------------------

def rendezvous_initial_state(
    chaser: OrbitalElements = CHASER_ELEMENTS,
    target: OrbitalElements = TARGET_ELEMENTS,
    mass: float = RENDEZVOUS_MASS_KG,
    mu: float = EARTH_MU,
) -> np.ndarray:
    r_c, v_c = kepler_to_cartesian(chaser, mu)
    r_t, v_t = kepler_to_cartesian(target, mu)
    return np.concatenate([r_t - r_c, v_t - v_c, [mass], r_t, v_t])


def _rendezvous_sample(rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    x = np.concatenate(
        [
            rng.normal(0, 100, 3),
            rng.normal(0, 1, 3),
            [1000.0 + rng.normal(0, 100)],
            7000.0 + rng.normal(0, 300, 3),
            rng.normal(0, 4, 3),
        ]
    )
    return x, rng.normal(0, 0.5, 3) + 0.1


def rendezvous_problem(
    chaser: OrbitalElements = CHASER_ELEMENTS,
    target: OrbitalElements = TARGET_ELEMENTS,
    mass: float = RENDEZVOUS_MASS_KG,
    params: Optional[RendezvousParams] = None,
    dt: float = RENDEZVOUS_DT,
    q=RENDEZVOUS_Q_DIAG,
    r=RENDEZVOUS_R_DIAG,
    settings: Optional[SolverSettings] = None,
    terminal_set: Optional[TerminalSetSpec] = None,
) -> TwoPhaseProblem:
    """Chaser-to-target problem in relative-error coordinates.

    The quadratic weight acts on the six error states only (the target state
    and chaser mass ride along unweighted); the regulation design is built
    per transfer time at the goal-orbit state of the switch epoch (see the
    module docstring).
    """
    params = params or RendezvousParams()
    model = rendezvous_model(params, dt)
    Q_full = np.zeros((13, 13))
    Q_full[:6, :6] = weight_matrix(q, 6, "q")
    R = weight_matrix(r, 3, "r")
    cost = QuadraticCostSpec(Q=Q_full, R=R)
    x0 = rendezvous_initial_state(chaser, target, mass, params.mu)
    settings = settings or SolverSettings()
    terminal_set = terminal_set or TerminalSetSpec(
        tolerance=RENDEZVOUS_MEMBERSHIP_TOLERANCE,
        regulation_cap=default_regulation_cap(RENDEZVOUS_HORIZON, dt),
    )

    # the goal-orbit state at every step propagated so far: each design
    # continues the orbit from its last epoch instead of from t = 0
    goal = x0.copy()
    goal[REND_ERROR_INDICES] = 0.0
    orbit = [goal]
    coast = np.zeros(3)
    cache: Dict[int, RegulationDesign] = {}

    def design_for(transfer_time: float) -> RegulationDesign:
        steps = int(round(transfer_time / dt))
        if steps not in cache:
            if steps >= len(orbit):
                X, _, message = simulate(model, orbit[-1], lambda t, x: coast, steps + 1 - len(orbit))
                orbit.extend(X[1:])
                if message:
                    raise DynamicsDomainError(f"goal orbit left the dynamics domain: {message}")
            cache[steps] = stationary_design(model, cost, orbit[steps], coast, REND_ERROR_INDICES)
        return cache[steps]

    return TwoPhaseProblem(
        model=model,
        cost=cost,
        x0=x0,
        design_for=design_for,
        settings=settings,
        terminal_set=terminal_set,
        sampler=_rendezvous_sample,
    )


# ---------------------------------------------------------------------------
# Powered descent (single-phase)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LandingProblem:
    """Penalized finite-horizon descent; no stationary phase (hover thrust is
    a nonzero equilibrium input, so the origin is not a fixed point).

    It answers the problem interface of `two_phase` with its states and
    controls in SI units: `solve` is the descent solve, `simulate` the
    descent to touchdown, and `sweep` is rejected."""

    model: DiscreteModel
    cost: QuadraticCostSpec
    terminal: TerminalValue
    x0: np.ndarray  # normalized state
    steps: int
    settings: SolverSettings
    params: LanderParams
    touchdown_speed_limit: float = TOUCHDOWN_SPEED_LIMIT

    def hover_controls(self) -> np.ndarray:
        u = lander_hover_control(float(self.x0[12]), self.params)
        return np.tile(u, (self.steps, 1))

    def solve(self) -> RunResult:
        report = solve_landing(self)
        traj = report.trajectory
        return RunResult.solved(
            report,
            self.model.dt,
            traj.states * LANDER_STATE_SCALE,
            traj.controls * LANDER_CONTROL_SCALE,
            traj.states[-1][:12] * LANDER_STATE_SCALE[:12],
        )

    def sweep(self):
        """Rejected: without a stationary design there is no grid to sweep."""
        raise ConfigError(
            "scenario",
            "the soft-landing scenario is single-phase (no stationary design exists); sweep does not apply",
        )

    def simulate(self) -> RunResult:
        report = solve_landing(self)
        result = simulate_landing(self, report)
        touched = result.touched_down
        within = bool(abs(result.touchdown_speed) <= self.touchdown_speed_limit) if touched else None
        final = result.touchdown_state_si if touched else result.states[-1] * LANDER_STATE_SCALE
        summary = {
            "solver_converged": report.converged,
            "solver_status": report.status,
            "total_cost": result.total_cost,
            "touched_down": touched,
            "touchdown_time_s": result.touchdown_time,
            "touchdown_speed_mps": result.touchdown_speed,
            "touchdown_speed_within_limit": within,
            "final_state_error": [float(v) for v in final[:12]],
        }
        return RunResult(
            report,
            self.model.dt,
            result.states * LANDER_STATE_SCALE,
            result.controls * LANDER_CONTROL_SCALE,
            result.stage_costs,
            summary,
        )

    def sample(self, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        """A point (x, u) for the Jacobian check."""
        x = np.concatenate(
            [
                rng.uniform(-0.5, 0.5, 3),
                rng.uniform(-0.2, 0.2, 3),
                rng.normal(0, 0.05, 3),
                rng.normal(0, 0.05, 3),
                [rng.uniform(500, 1200)],
            ]
        )
        return x, rng.normal(0.1, 0.2, 6)

    def design_check(self) -> Dict[str, Any]:
        """No stationary design: hover at the initial mass must fail the
        fixed-point test."""
        x_eq = np.zeros(13)
        x_eq[12] = self.params.initial_mass
        try:
            linearize_at_goal(self.model, x_eq, lander_hover_control(x_eq[12], self.params))
        except NotAFixedPointError as exc:
            return {
                "check": "riccati",
                "passed": True,
                "detail": "no stationary design: hover is not a fixed point (single-phase scenario)",
                "residual": exc.residual,
            }
        return {
            "check": "riccati",
            "passed": False,
            "detail": "hover point unexpectedly qualified as an equilibrium",
        }


def soft_landing_problem(
    initial_attitude_deg: Sequence[float] = LANDER_INITIAL_ATTITUDE_DEG,
    initial_position_m: Sequence[float] = LANDER_INITIAL_POSITION_M,
    initial_velocity_mps: Sequence[float] = LANDER_INITIAL_VELOCITY_MPS,
    params: Optional[LanderParams] = None,
    dt: float = LANDER_DT,
    horizon: float = LANDER_HORIZON,
    q=LANDER_Q_DIAG,
    r=LANDER_R_DIAG,
    terminal_weight: float = LANDER_TERMINAL_WEIGHT,
    terminal_sink_rate: float = LANDER_SINK_RATE,
    penalty_weight: float = LANDER_PENALTY_WEIGHT,
    penalty_rate: float = LANDER_PENALTY_RATE,
    penalty_coord_scale: float = LANDER_PENALTY_COORD_SCALE,
    touchdown_speed_limit: float = TOUCHDOWN_SPEED_LIMIT,
    settings: Optional[SolverSettings] = None,
) -> LandingProblem:
    """Descent-to-origin problem in normalized variables.

    The exponential altitude penalty (weight, rate) acts on the normalized
    altitude coordinate scaled by `penalty_coord_scale`. The terminal cost is
    `terminal_weight` times the stage state weight, referenced one step below
    the surface at `terminal_sink_rate`, which times the touchdown to the end
    of the horizon with a controlled descent rate.
    """
    params = params or LanderParams()
    model = lander_model(params, dt)
    Q = np.zeros((13, 13))
    Q[:12, :12] = weight_matrix(q, 12, "q")  # mass unweighted
    R = weight_matrix(r, 6, "r")
    penalty = AltitudePenaltySpec(
        weight=penalty_weight,
        rate=penalty_rate,
        index=LANDER_ALTITUDE_INDEX,
        coord_scale=penalty_coord_scale,
    )
    cost = QuadraticCostSpec(Q=Q, R=R, penalty=penalty)
    reference = np.zeros(13)
    reference[LANDER_ALTITUDE_INDEX] = -terminal_sink_rate * dt / LANDER_R_SCALE
    reference[11] = -terminal_sink_rate / LANDER_V_SCALE
    terminal = TerminalValue(P=(terminal_weight / 2.0) * Q, reference=reference)

    angles = np.asarray(initial_attitude_deg, dtype=float) * DEG
    x0_si = np.concatenate(
        [angles[:3], angles[3:], initial_position_m, initial_velocity_mps, [params.initial_mass]]
    )
    x0 = x0_si / LANDER_STATE_SCALE
    steps = int(round(horizon / dt))
    settings = settings or SolverSettings()
    return LandingProblem(
        model=model,
        cost=cost,
        terminal=terminal,
        x0=x0,
        steps=steps,
        settings=settings,
        params=params,
        touchdown_speed_limit=touchdown_speed_limit,
    )


@dataclass(frozen=True)
class LandingResult:
    """Closed-loop descent, cut at the altitude zero crossing when it occurs."""

    states: np.ndarray  # normalized, (k+1, 13)
    controls: np.ndarray  # normalized, (k, 6)
    stage_costs: np.ndarray
    touched_down: bool
    touchdown_time: float  # s, linearly interpolated at the crossing
    touchdown_speed: float  # m/s, vertical, at the crossing
    touchdown_state_si: np.ndarray  # SI state interpolated at the crossing
    message: str = ""

    @property
    def total_cost(self) -> float:
        return float(np.sum(self.stage_costs))


@np.errstate(over="ignore", invalid="ignore")
def simulate_landing(problem: LandingProblem, report: SolveReport) -> LandingResult:
    """Run the optimized policy with feedback and stop at zero altitude.

    The crossing instant and state are linearly interpolated between the last
    non-negative-altitude step and the first below-ground one. An overflowing
    state ends the run through `euler_step`, without numpy warnings.
    """
    model, nominal = problem.model, report.trajectory
    track = tracking_law(nominal.controls, report.gains.feedback, nominal.states)
    alt_prev = math.nan

    def law(t: int, x: np.ndarray) -> Optional[np.ndarray]:
        nonlocal alt_prev
        if alt_prev >= 0.0 > x[LANDER_ALTITUDE_INDEX]:  # the last step touched down
            return None
        alt_prev = x[LANDER_ALTITUDE_INDEX]
        return track(t, x)

    X, U, message = simulate(model, nominal.states[0], law, nominal.horizon)
    message = message and f"landing rollout left the dynamics domain: {message}"
    touched = len(X) > 1 and X[-2, LANDER_ALTITUDE_INDEX] >= 0.0 > X[-1, LANDER_ALTITUDE_INDEX]
    t_td = v_td = float("nan")
    state_td = np.full(13, np.nan)
    if touched:
        x, x_next = X[-2], X[-1]
        frac = x[LANDER_ALTITUDE_INDEX] / (x[LANDER_ALTITUDE_INDEX] - x_next[LANDER_ALTITUDE_INDEX])
        t_td = (len(X) - 2 + frac) * model.dt
        state_interp = x + frac * (x_next - x)
        state_td = state_interp * LANDER_STATE_SCALE
        v_td = state_interp[11] * LANDER_V_SCALE
    return LandingResult(
        states=X,
        controls=U,
        stage_costs=stage_costs(X[: len(U)], U, problem.cost),
        touched_down=bool(touched),
        touchdown_time=t_td,
        touchdown_speed=v_td,
        touchdown_state_si=state_td,
        message=message,
    )


def solve_landing(problem: LandingProblem) -> SolveReport:
    """Optimize the descent from the hover initial guess."""
    return solve_fhocp(
        problem.model,
        problem.cost,
        problem.terminal,
        problem.x0,
        problem.steps,
        problem.settings,
        problem.hover_controls(),
    )


# ---------------------------------------------------------------------------
# Linear benchmark
# ---------------------------------------------------------------------------

def linear_benchmark(
    x0: float = 1.0,
    settings: Optional[SolverSettings] = None,
    terminal_set: Optional[TerminalSetSpec] = None,
) -> TwoPhaseProblem:
    """Scalar system x+ = x + u with stage cost x^2 + u^2.

    Its stationary value matrix is the golden ratio, so the infinite-horizon
    cost from x0 is exactly phi * x0^2; used to validate the level-to-zero
    convergence of the two-phase objective.
    """
    model = lti_model([[1.0]], [[1.0]], dt=1.0, name="scalar_benchmark")
    cost = QuadraticCostSpec(Q=[[2.0]], R=[[2.0]])
    design = stationary_design(model, cost, np.zeros(1), np.zeros(1), np.arange(1))
    return TwoPhaseProblem(
        model=model,
        cost=cost,
        x0=np.array([float(x0)]),
        design_for=lambda T: design,
        settings=settings or SolverSettings(),
        terminal_set=terminal_set
        or TerminalSetSpec(regulation_cap=default_regulation_cap(LINEAR_HORIZON, 1.0)),
    )


def benchmark_grid(max_steps: int = 40) -> List[float]:
    """Integer transfer times for the scalar benchmark."""
    return [float(k) for k in range(1, max_steps + 1)]
