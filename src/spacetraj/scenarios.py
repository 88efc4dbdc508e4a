"""Scenario construction: the problem object of each scenario's config.

Each builder takes one `config.ScenarioConfig` (the scenario's defaults,
`config.scenario_defaults`, when omitted) and reads its fields directly;
`build_problem(cfg)` picks the builder of `cfg.scenario`. The defaults, the
scenario constants and the checked array conversions live in `config`, which
this module imports; `config` imports neither this module nor `two_phase`.
Three cases (attitude slew, orbital rendezvous, powered descent) plus a
scalar linear benchmark whose infinite-horizon cost is known in closed form.

Conventions:
  * Attitude states are radians internally; initial states and weight
    matrices are specified in degrees (the tabulated working units) and
    converted here at the boundary.
  * Rendezvous works in km, km/s, kg, kN. The regulated coordinates are the
    six relative-error states. The initial state comes from the chaser and
    target orbits, not from `initial_state`. The design for transfer time T
    linearizes the full 13-state model at the goal-orbit state of epoch T:
    zero error, the initial mass, and the target propagated by
    `dynamics.simulate` under u = 0 (the target's rows of every trajectory,
    bit for bit). The orbit is propagated once, lazily, up to the largest
    epoch asked for; a goal orbit that leaves the dynamics domain raises
    DynamicsDomainError.
  * Every design comes from `lqr.stationary_design`.
  * The lander works in normalized variables (see `models`); its config I/O
    is plain SI. The scenario is single-phase: the hover equilibrium needs
    nonzero thrust, so no stationary design exists and the solve is a
    penalized finite-horizon problem whose descent is cut at touchdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import (
    DEG,
    ScenarioConfig,
    default_sweep_grid,
    float_array,
    scenario_defaults,
    scenario_record,
    weight_matrix,
)
from .cost import AltitudePenaltySpec, QuadraticCostSpec, TerminalValue
from .dynamics import DiscreteModel, lti_model, simulate
from .errors import ConfigError, DynamicsDomainError
from .ilqr import SolveReport, SolverSettings, solve_fhocp
from .lqr import RegulationDesign, stationary_design
from .models import (
    LANDER_ALTITUDE_INDEX,
    LANDER_CONTROL_SCALE,
    LANDER_R_SCALE,
    LANDER_STATE_SCALE,
    LANDER_V_SCALE,
    REND_ERROR_INDICES,
    AttitudeParams,
    LanderParams,
    RendezvousParams,
    attitude_model,
    kepler_to_cartesian,
    lander_hover_control,
    lander_model,
    rendezvous_model,
)
from .two_phase import RunResult, TwoPhaseProblem


def _diag(values: Sequence[float]) -> np.ndarray:
    return np.diag(np.asarray(values, dtype=float))


def _config(cfg: Optional[ScenarioConfig], scenario: str) -> ScenarioConfig:
    """`cfg`, or the defaults of `scenario` when omitted; a config of another
    scenario is rejected."""
    if cfg is None:
        return scenario_defaults(scenario)
    if cfg.scenario != scenario:
        raise ConfigError("scenario", f"the {scenario} problem requires scenario={scenario}, got {cfg.scenario!r}")
    return cfg


def _weights(cfg: ScenarioConfig) -> Tuple[np.ndarray, np.ndarray]:
    """The `q` and `r` matrices, of the lengths the scenario's record gives."""
    record = scenario_record(cfg.scenario)
    return weight_matrix(cfg.q, len(record.q), "q"), weight_matrix(cfg.r, len(record.control_columns), "r")


def _two_phase(
    cfg: ScenarioConfig,
    model: DiscreteModel,
    cost: QuadraticCostSpec,
    x0: np.ndarray,
    design_for: Callable[[float], RegulationDesign],
    sampler: Optional[Callable[[np.random.Generator], Tuple[np.ndarray, np.ndarray]]] = None,
) -> TwoPhaseProblem:
    """A two-phase problem with the config's solver, terminal set, horizon
    and sweep."""
    return TwoPhaseProblem(
        model=model,
        cost=cost,
        x0=x0,
        design_for=design_for,
        sampler=sampler,
        settings=cfg.solver,
        terminal_set=cfg.terminal_set,
        horizon=cfg.horizon,
        grid=tuple(default_sweep_grid(cfg)),
    )


# ---------------------------------------------------------------------------
# Attitude
# ---------------------------------------------------------------------------

def _attitude_sample(rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    x = np.concatenate([rng.uniform(-1.0, 1.0, 3), rng.uniform(-0.2, 0.2, 3)])
    return x, rng.normal(0, 5, 3)


def attitude_problem(cfg: Optional[ScenarioConfig] = None) -> TwoPhaseProblem:
    """Slew-to-rest problem. State weights are per-degree (identity in the
    tabulated working units by default) and are converted to the internal
    radian state; torque weights are per N*m."""
    cfg = _config(cfg, "attitude")
    model = attitude_model(AttitudeParams(inertia=_diag(cfg.attitude.inertia_diag)), cfg.dt)
    S = np.diag(np.full(6, 1.0 / DEG))  # rad -> deg per coordinate
    q, R = _weights(cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        Q = S @ q @ S
    if not np.isfinite(Q).all():
        raise ConfigError("q", "the per-degree weights overflow when converted to radians")
    cost = QuadraticCostSpec(Q=Q, R=R)
    design = stationary_design(model, cost, np.zeros(6), np.zeros(3), np.arange(6))
    x0 = np.asarray(cfg.initial_state, dtype=float) * DEG
    return _two_phase(cfg, model, cost, x0, lambda T: design, _attitude_sample)


# ---------------------------------------------------------------------------
# Rendezvous
# ---------------------------------------------------------------------------

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


def rendezvous_problem(cfg: Optional[ScenarioConfig] = None) -> TwoPhaseProblem:
    """Chaser-to-target problem in relative-error coordinates.

    The quadratic weight acts on the six error states only (the target state
    and chaser mass ride along unweighted); the regulation design is built
    per transfer time at the goal-orbit state of the switch epoch (see the
    module docstring).
    """
    cfg = _config(cfg, "rendezvous")
    rc = cfg.rendezvous
    dt = cfg.dt
    model = rendezvous_model(RendezvousParams(mu=rc.mu, alpha=rc.alpha), dt)
    q, R = _weights(cfg)
    Q_full = np.zeros((13, 13))
    Q_full[:6, :6] = q
    cost = QuadraticCostSpec(Q=Q_full, R=R)
    r_c, v_c = kepler_to_cartesian(rc.chaser.to_elements(), rc.mu)
    r_t, v_t = kepler_to_cartesian(rc.target.to_elements(), rc.mu)
    x0 = np.concatenate([r_t - r_c, v_t - v_c, [rc.mass_kg], r_t, v_t])

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

    return _two_phase(cfg, model, cost, x0, design_for, _rendezvous_sample)


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
    touchdown_speed_limit: float

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
        return simulate_landing(self, solve_landing(self))

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

    def checks(self) -> List[Dict[str, Any]]:
        """Neither `verify` entry applies: no stationary design, no
        two-phase value."""
        detail = "single-phase scenario: hover is not a fixed point, so no stationary design exists"
        return [
            {"check": "riccati", "passed": None, "detail": detail},
            {"check": "bellman", "passed": None, "detail": detail},
        ]


def soft_landing_problem(cfg: Optional[ScenarioConfig] = None) -> LandingProblem:
    """Descent-to-origin problem in normalized variables.

    The exponential altitude penalty (weight, rate) acts on the normalized
    altitude coordinate, so `penalty_rate` is per normalized unit
    (`LANDER_R_SCALE` m). The terminal cost is `terminal_weight` times the
    stage state weight, referenced one step below the surface at
    `terminal_sink_rate_mps`, which times the touchdown to the end of the
    horizon with a controlled descent rate.
    """
    cfg = _config(cfg, "soft-landing")
    L, dt = cfg.lander, cfg.dt
    params = LanderParams(
        inertia=_diag(L.inertia_diag), isp=L.isp_s, g_ref=L.g_ref, initial_mass=L.initial_mass_kg
    )
    q, R = _weights(cfg)
    Q = np.zeros((13, 13))
    Q[:12, :12] = q  # mass unweighted
    penalty = AltitudePenaltySpec(weight=L.penalty_weight, rate=L.penalty_rate, index=LANDER_ALTITUDE_INDEX)
    cost = QuadraticCostSpec(Q=Q, R=R, penalty=penalty)
    reference = np.zeros(13)
    reference[LANDER_ALTITUDE_INDEX] = -L.terminal_sink_rate_mps * dt / LANDER_R_SCALE
    reference[11] = -L.terminal_sink_rate_mps / LANDER_V_SCALE
    angles = np.asarray(cfg.initial_state, dtype=float) * DEG
    x0_si = np.concatenate([angles, L.initial_position_m, L.initial_velocity_mps, [params.initial_mass]])
    with np.errstate(over="ignore"):
        hessian = L.terminal_weight * Q  # the terminal Hessian 2P
    if not np.isfinite(hessian).all():
        raise ConfigError("lander.terminal_weight", "the terminal weight times q overflows")
    P = (L.terminal_weight / 2.0) * Q
    return LandingProblem(
        model=lander_model(params, dt),
        cost=cost,
        terminal=TerminalValue(P=P, reference=reference),
        x0=x0_si / LANDER_STATE_SCALE,
        steps=int(round(cfg.horizon / dt)),
        settings=cfg.solver,
        params=params,
        touchdown_speed_limit=L.touchdown_speed_limit_mps,
    )


def simulate_landing(problem: LandingProblem, report: SolveReport) -> RunResult:
    """The optimized descent to touchdown, read from the solve, as the
    `simulate` result in SI units.

    Tracking the nominal with u*_t + K_t (x_t - x*_t) from its own initial
    state leaves the feedback term zero, so the closed loop is the nominal:
    its states, controls and stage costs, cut after the first step from
    non-negative to negative altitude (whole when there is none). The
    summary's touchdown time, vertical speed and final state are
    interpolated linearly at the crossing within that step.
    """
    nominal = report.trajectory
    altitude = nominal.states[:, LANDER_ALTITUDE_INDEX]
    crossings = np.flatnonzero((altitude[:-1] >= 0.0) & (altitude[1:] < 0.0))
    touched = len(crossings) > 0
    end = crossings[0] + 1 if touched else nominal.horizon
    states, costs = nominal.states[: end + 1], nominal.stage_costs[:end]
    t_td, v_td, within, final = np.nan, np.nan, None, states[-1] * LANDER_STATE_SCALE
    if touched:
        x, x_next = states[-2:]
        frac = x[LANDER_ALTITUDE_INDEX] / (x[LANDER_ALTITUDE_INDEX] - x_next[LANDER_ALTITUDE_INDEX])
        t_td = (end - 1 + frac) * problem.model.dt
        state_interp = x + frac * (x_next - x)
        final = state_interp * LANDER_STATE_SCALE
        v_td = state_interp[11] * LANDER_V_SCALE
        within = bool(abs(v_td) <= problem.touchdown_speed_limit)
    summary = {
        "solver_converged": report.converged,
        "solver_status": report.status,
        "total_cost": float(np.sum(costs)),
        "touched_down": touched,
        "touchdown_time_s": t_td,
        "touchdown_speed_mps": v_td,
        "touchdown_speed_within_limit": within,
        "final_state_error": [float(v) for v in final[:12]],
    }
    controls = nominal.controls[:end] * LANDER_CONTROL_SCALE
    return RunResult(report, problem.model.dt, states * LANDER_STATE_SCALE, controls, costs, summary)


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

def linear_benchmark(cfg: Optional[ScenarioConfig] = None) -> TwoPhaseProblem:
    """Scalar system x+ = x + u with stage cost (q x^2 + r u^2) / 2.

    With the default q = r = 2 its stationary value matrix is the golden
    ratio, so the infinite-horizon cost from x0 is exactly phi * x0^2
    (scaling q and r by c scales it by c); used to validate the
    level-to-zero convergence of the two-phase objective.
    """
    cfg = _config(cfg, "custom-linear")
    model = lti_model([[1.0]], [[1.0]], dt=cfg.dt)
    Q, R = _weights(cfg)
    cost = QuadraticCostSpec(Q=Q, R=R)
    design = stationary_design(model, cost, np.zeros(1), np.zeros(1), np.arange(1))
    x0 = float_array(cfg.initial_state, "initial_state", (model.state_dim,))
    return _two_phase(cfg, model, cost, x0, lambda T: design)


BUILDERS = {
    "attitude": attitude_problem,
    "rendezvous": rendezvous_problem,
    "soft-landing": soft_landing_problem,
    "custom-linear": linear_benchmark,
}


def build_problem(cfg: ScenarioConfig):
    """Scenario config -> the problem object every CLI command runs."""
    return BUILDERS[cfg.scenario](cfg)
