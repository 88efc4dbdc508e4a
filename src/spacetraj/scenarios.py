"""Scenario construction: default parameters, initial conditions, weights.

Builds ready-to-solve problem objects for the three cases (attitude slew,
orbital rendezvous, powered descent) plus a scalar linear benchmark whose
infinite-horizon cost is known in closed form.

Conventions:
  * Attitude states are radians internally; initial/goal states and weight
    matrices are specified in degrees (the tabulated working units) and
    converted here at the boundary.
  * Rendezvous works in km, km/s, kg, kN. The regulated coordinates are the
    six relative-error states; the stationary design freezes the target at
    its (autonomous) position at the switch epoch and the chaser mass at its
    initial value.
  * The lander works in normalized variables (see `models`); its config I/O
    is plain SI. The scenario is single-phase: the hover equilibrium needs
    nonzero thrust, so no stationary design exists and the solve is a
    penalized finite-horizon problem simulated to touchdown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cost import AltitudePenaltySpec, QuadraticCostSpec, TerminalValue
from .dynamics import DiscreteModel, lti_model
from .errors import DynamicsDomainError, SingularityError
from .ilqr import SolveReport, SolverSettings, solve_fhocp
from .lqr import RegulationDesign, TerminalSetSpec, linearize_at_goal, solve_dare
from .models import (
    LANDER_ALTITUDE_INDEX,
    LANDER_R_SCALE,
    LANDER_STATE_SCALE,
    LANDER_V_SCALE,
    AttitudeParams,
    LanderParams,
    OrbitalElements,
    RendezvousParams,
    attitude_model,
    kepler_to_cartesian,
    lander_hover_control,
    lander_model,
    rendezvous_error_model,
    rendezvous_model,
)
from .two_phase import TwoPhaseProblem

DEG = math.pi / 180.0

# Tabulated initial conditions (degrees / deg/s; meters / m/s for the lander).
ATTITUDE_INITIAL_DEG = (85.94, -68.75, -120.32, 5.72, -5.72, 2.86)
LANDER_INITIAL_ATTITUDE_DEG = (22.91, 17.18, 11.45, 5.72, 11.45, -11.45)
LANDER_INITIAL_POSITION_M = (300.0, -200.0, 1000.0)
LANDER_INITIAL_VELOCITY_MPS = (100.0, 120.0, 0.0)

CHASER_ELEMENTS = OrbitalElements(
    a=7200.0, e=0.22, i=64.0 * DEG, raan=66.0 * DEG, argp=28.0 * DEG, nu=81.0 * DEG
)
TARGET_ELEMENTS = OrbitalElements(
    a=7000.0, e=0.1, i=40.0 * DEG, raan=35.0 * DEG, argp=10.0 * DEG, nu=120.0 * DEG
)

ATTITUDE_DT = 0.1
ATTITUDE_HORIZON = 200.0
RENDEZVOUS_DT = 2.0
RENDEZVOUS_HORIZON = 6000.0
LANDER_DT = 0.2
LANDER_HORIZON = 30.0

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
TOUCHDOWN_SPEED_LIMIT = 2.0  # m/s


def _diag(values: Sequence[float]) -> np.ndarray:
    return np.diag(np.asarray(values, dtype=float))


def _weight(value, dim: int) -> np.ndarray:
    """Accept a diagonal (length-dim) or full (dim x dim) weight array."""
    arr = np.asarray(value, dtype=float)
    if arr.shape != ((dim,) if arr.ndim == 1 else (dim, dim)):
        raise ValueError(f"expected {dim} diagonal weights or a {dim}x{dim} matrix, got {arr.shape}")
    return np.diag(arr) if arr.ndim == 1 else arr


def default_regulation_cap(horizon: float, dt: float) -> int:
    return int(round(10.0 * horizon / dt))


# ---------------------------------------------------------------------------
# Attitude
# ---------------------------------------------------------------------------

def attitude_problem(
    initial_state_deg: Sequence[float] = ATTITUDE_INITIAL_DEG,
    goal_state_deg: Sequence[float] = (0.0,) * 6,
    inertia_diag: Sequence[float] = (4500.0, 2000.0, 7500.0),
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
    Q = S @ _weight(q, 6) @ S
    R = _weight(r, 3)
    cost = QuadraticCostSpec(Q=Q, R=R)
    x0 = np.asarray(initial_state_deg, dtype=float) * DEG
    settings = settings or SolverSettings()
    terminal_set = terminal_set or TerminalSetSpec(
        regulation_cap=default_regulation_cap(ATTITUDE_HORIZON, dt)
    )

    lin = linearize_at_goal(model, np.zeros(6), np.zeros(3))
    solution = solve_dare(lin.A, lin.B, Q / 2.0, R / 2.0)
    design = RegulationDesign(solution=solution, indices=np.arange(6), state_dim=6)

    return TwoPhaseProblem(
        model=model,
        cost=cost,
        x0=x0,
        design_for=lambda T: design,
        settings=settings,
        terminal_set=terminal_set,
        label="attitude",
    )


# ---------------------------------------------------------------------------
# Rendezvous
# ---------------------------------------------------------------------------

def rendezvous_initial_state(
    chaser: OrbitalElements = CHASER_ELEMENTS,
    target: OrbitalElements = TARGET_ELEMENTS,
    mass: float = 1000.0,
    mu: float = RendezvousParams().mu,
) -> np.ndarray:
    r_c, v_c = kepler_to_cartesian(chaser, mu)
    r_t, v_t = kepler_to_cartesian(target, mu)
    return np.concatenate([r_t - r_c, v_t - v_c, [mass], r_t, v_t])


def _propagate_target(
    r: np.ndarray, v: np.ndarray, steps: int, dt: float, mu: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Euler propagation of the autonomous target orbit (control-independent)."""
    r = r.copy()
    v = v.copy()
    for _ in range(steps):
        acc = -mu * r / np.linalg.norm(r) ** 3
        r, v = r + dt * v, v + dt * acc
    return r, v


def rendezvous_problem(
    chaser: OrbitalElements = CHASER_ELEMENTS,
    target: OrbitalElements = TARGET_ELEMENTS,
    mass: float = 1000.0,
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
    per transfer time at the target's switch-epoch position.
    """
    params = params or RendezvousParams()
    model = rendezvous_model(params, dt)
    Q6 = _weight(q, 6)
    Q_full = np.zeros((13, 13))
    Q_full[:6, :6] = Q6
    R = _weight(r, 3)
    cost = QuadraticCostSpec(Q=Q_full, R=R)
    x0 = rendezvous_initial_state(chaser, target, mass, params.mu)
    settings = settings or SolverSettings()
    # The stationary design freezes the target at the switch epoch while the
    # real target keeps moving during regulation, which carries a few percent
    # of structural prediction error; the membership tolerance allows for it.
    terminal_set = terminal_set or TerminalSetSpec(
        tolerance=5e-2, regulation_cap=default_regulation_cap(RENDEZVOUS_HORIZON, dt)
    )

    r_t0, v_t0 = x0[7:10].copy(), x0[10:13].copy()
    cache: Dict[int, RegulationDesign] = {}

    def design_for(transfer_time: float) -> RegulationDesign:
        steps = int(round(transfer_time / dt))
        if steps not in cache:
            r_T, _ = _propagate_target(r_t0, v_t0, steps, dt, params.mu)
            err_model = rendezvous_error_model(r_T, mass, params, dt)
            lin = linearize_at_goal(err_model, np.zeros(6), np.zeros(3))
            solution = solve_dare(lin.A, lin.B, Q6 / 2.0, R / 2.0)
            cache[steps] = RegulationDesign(
                solution=solution, indices=np.arange(6), state_dim=13
            )
        return cache[steps]

    return TwoPhaseProblem(
        model=model,
        cost=cost,
        x0=x0,
        design_for=design_for,
        settings=settings,
        terminal_set=terminal_set,
        label="rendezvous",
    )


# ---------------------------------------------------------------------------
# Powered descent (single-phase)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LandingProblem:
    """Penalized finite-horizon descent; no stationary phase (hover thrust is
    a nonzero equilibrium input, so the origin is not a fixed point)."""

    model: DiscreteModel
    cost: QuadraticCostSpec
    terminal: TerminalValue
    x0: np.ndarray  # normalized state
    steps: int
    settings: SolverSettings
    params: LanderParams
    touchdown_speed_limit: float = TOUCHDOWN_SPEED_LIMIT
    label: str = "soft-landing"

    @property
    def dt(self) -> float:
        return self.model.dt

    def hover_controls(self) -> np.ndarray:
        u = lander_hover_control(float(self.x0[12]), self.params)
        return np.tile(u, (self.steps, 1))


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
    penalty_coord_scale: float = 1.0,
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
    Q[:12, :12] = _weight(q, 12)  # mass unweighted
    R = _weight(r, 6)
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
    from .cost import stage_cost  # local import to avoid cycle noise

    model = problem.model
    nominal = report.trajectory
    gains = report.gains
    x = nominal.states[0].copy()
    states = [x]
    controls: List[np.ndarray] = []
    costs: List[float] = []
    touched = False
    t_td = float("nan")
    v_td = float("nan")
    state_td = np.full(13, np.nan)
    message = ""

    for t in range(nominal.horizon):
        u = nominal.controls[t] + gains.feedback[t] @ (x - nominal.states[t])
        controls.append(u)
        costs.append(stage_cost(x, u, problem.cost))
        try:
            x_next = model.step(x, u)
        except (SingularityError, DynamicsDomainError) as exc:
            message = f"landing rollout left the dynamics domain: {exc}"
            break
        alt_prev = x[LANDER_ALTITUDE_INDEX]
        alt_next = x_next[LANDER_ALTITUDE_INDEX]
        states.append(x_next)
        if alt_prev >= 0.0 > alt_next:
            touched = True
            frac = alt_prev / (alt_prev - alt_next)
            t_td = (t + frac) * model.dt
            state_interp = x + frac * (x_next - x)
            state_td = state_interp * LANDER_STATE_SCALE
            v_td = state_interp[11] * LANDER_V_SCALE
            x = x_next
            break
        x = x_next

    return LandingResult(
        states=np.array(states),
        controls=np.array(controls),
        stage_costs=np.array(costs),
        touched_down=touched,
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
) -> TwoPhaseProblem:
    """Scalar system x+ = x + u with stage cost x^2 + u^2.

    Its stationary value matrix is the golden ratio, so the infinite-horizon
    cost from x0 is exactly phi * x0^2; used to validate the level-to-zero
    convergence of the two-phase objective.
    """
    model = lti_model([[1.0]], [[1.0]], dt=1.0, name="scalar_benchmark")
    cost = QuadraticCostSpec(Q=[[2.0]], R=[[2.0]])
    solution = solve_dare([[1.0]], [[1.0]], [[1.0]], [[1.0]])
    design = RegulationDesign(solution=solution, indices=np.arange(1), state_dim=1)
    return TwoPhaseProblem(
        model=model,
        cost=cost,
        x0=np.array([float(x0)]),
        design_for=lambda T: design,
        settings=settings or SolverSettings(),
        terminal_set=TerminalSetSpec(regulation_cap=1000),
        label="custom-linear",
    )


def benchmark_grid(max_steps: int = 40) -> List[float]:
    """Integer transfer times for the scalar benchmark."""
    return [float(k) for k in range(1, max_steps + 1)]
