"""Infinite-horizon solving by transfer-time sweep plus terminal regulation.

The finite-horizon solver handles the nonlinear leg; a stationary LQR handles
the tail. Sweeping the transfer time T and testing the optimized terminal
state for terminal-set membership picks the first hitting time: the smallest
T whose terminal state is regulated at (near) the quadratically predicted
cost. The combined objective

    sum_{t<T} c(x_t, u_t) + max(z_T' P z_T, level)

converges to the true infinite-horizon cost as the level shrinks to zero,
which `convergence_study` measures on a problem whose true cost is the
quadratic x0'Px0 (linear dynamics). `bellman_check` re-solves from successor
states to measure one-step Bellman residuals of the combined value.

A query is stated once, on the problem: its `grid`, `warm_start` and
`terminal_set` (with the level). One walk of the grid serves the sweep, and
one function, `_first_hits`, holds the hitting rule and the objective:
`solve_two_phase(problem)` asks it for the problem's own level,
`convergence_study(problem, levels)` for many levels in one level-free walk.

A problem object is what every CLI command runs: `TwoPhaseProblem` here and
`scenarios.LandingProblem` answer `solve()` and `simulate()` with one
`RunResult`, `sweep()` with the grid's points, `sample(rng)` with a
Jacobian-check point and `design_check()` with the `riccati` check of
`verify`, so how a scenario is solved, simulated, scaled and checked lives
behind the object.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .cost import QuadraticCostSpec, TerminalValue, first_over_cap, stage_costs
from .dynamics import DiscreteModel, simulate
from .errors import HittingTimeNotFoundError, RegularizationError, StabilizabilityError
from .ilqr import SolveReport, SolverSettings, solve_fhocp, tracking_law
from .lqr import (
    MembershipResult,
    RegulationDesign,
    TerminalSetSpec,
    in_terminal_set,
    regulation_law,
)


@dataclass(frozen=True)
class RunResult:
    """A `solve` or `simulate` run: the solve report, the states and controls
    in output units, the stage cost of each control, the phase of each
    control (None: all phase 1) and the command's scenario-specific summary
    fields."""

    report: SolveReport
    dt: float
    states: np.ndarray
    controls: np.ndarray
    stage_costs: np.ndarray
    summary: Dict[str, Any]
    phases: Optional[np.ndarray] = None

    @classmethod
    def solved(
        cls, report: SolveReport, dt: float, states: np.ndarray, controls: np.ndarray, final_state_error
    ) -> "RunResult":
        """The `solve` result of a finite-horizon report."""
        traj = report.trajectory
        summary = {
            "total_cost": traj.total_cost,
            "stage_cost_sum": traj.phase_cost,
            "terminal_cost": traj.terminal_cost,
            "converged": report.converged,
            "status": report.status,
            "final_state_error": [float(v) for v in final_state_error],
        }
        return cls(report, dt, states, controls, traj.stage_costs, summary)


@dataclass(frozen=True)
class TwoPhaseProblem:
    """A regulation goal at the origin plus everything needed to solve for it.

    `design_for(T)` returns the stationary regulation design used when the
    switch happens at transfer time T, built by `lqr.stationary_design` on
    the problem's own model. It is constant for time-invariant goals and
    built per T when the goal moves: rendezvous linearizes at the goal-orbit
    state of epoch T, and raises DynamicsDomainError when that orbit leaves
    the dynamics domain before T (a sweep records the point as failed,
    `verify` exits 3). `horizon`, `grid`, `warm_start` and `terminal_set`
    are what `solve`, `simulate`, `sweep`, `design_check`, `solve_two_phase`,
    `convergence_study` and `bellman_check` run at (the builders in
    `scenarios` set them from the config; `dataclasses.replace` asks another
    query). `leg` is the one finite-horizon solve behind all of them.
    """

    model: DiscreteModel
    cost: QuadraticCostSpec
    x0: np.ndarray
    design_for: Callable[[float], RegulationDesign]
    settings: SolverSettings = field(default_factory=SolverSettings)
    terminal_set: TerminalSetSpec = field(default_factory=TerminalSetSpec)
    sampler: Optional[Callable[[np.random.Generator], Tuple[np.ndarray, np.ndarray]]] = None
    horizon: Optional[float] = None
    grid: Tuple[float, ...] = ()
    warm_start: bool = True

    def steps_for(self, transfer_time: float) -> int:
        steps = transfer_time / self.model.dt
        rounded = round(steps)
        if rounded < 1 or abs(steps - rounded) > 1e-6 * max(1.0, steps):
            raise ValueError(
                f"transfer time {transfer_time} is not a positive multiple of dt={self.model.dt}"
            )
        return int(rounded)

    def guess_for(self, steps: int) -> np.ndarray:
        return np.zeros((steps, self.model.control_dim))

    def leg(self, design: RegulationDesign, x0: np.ndarray, controls: np.ndarray) -> SolveReport:
        """The nonlinear leg from `x0` over `len(controls)` steps, started
        from `controls`, with the design's z'Pz as terminal value."""
        return solve_fhocp(
            self.model, self.cost, TerminalValue(design.P_full), x0, len(controls), self.settings, controls
        )

    def solve(self) -> RunResult:
        """The nonlinear leg at `horizon`, its terminal value the design's."""
        design = self.design_for(self.horizon)
        report = self.leg(design, self.x0, self.guess_for(self.steps_for(self.horizon)))
        traj = report.trajectory
        return RunResult.solved(
            report, self.model.dt, traj.states, traj.controls, design.regulated(traj.states[-1])
        )

    def sweep(self) -> List["SweepPoint"]:
        """Every point of `grid`, in order (see `_walk`)."""
        return list(_walk(self))

    def simulate(self) -> RunResult:
        """The first hitting time on `grid`, then the closed loop through it."""
        solution = solve_two_phase(self)
        closed = two_phase_simulate(self, solution)
        costs, phases = closed.stage_costs, closed.phases
        summary = {
            "transfer_time": solution.transfer_time,
            "level": solution.level,
            "objective": solution.objective,
            "phase1_cost": float(np.sum(costs[phases == 1])),
            "phase2_cost": float(np.sum(costs[phases == 2])),
            "total_cost": closed.total_cost,
            "switch_time_s": closed.switch_time,
            "regulation_converged": closed.converged,
            "diverged": closed.diverged,
            "membership_switches": membership_switches(solution.sweep),
            "final_state_error": [float(v) for v in solution.design.regulated(closed.states[-1])],
            "tail_cost_decreasing_outside_set": lyapunov_decreasing(
                closed, solution.design, solution.level
            ),
        }
        return RunResult(
            solution.report, self.model.dt, closed.states, closed.controls, costs, summary, phases
        )

    def sample(self, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        """A point (x, u) for the Jacobian check: the scenario's `sampler`,
        else standard normal entries."""
        if self.sampler is not None:
            return self.sampler(rng)
        x = rng.normal(0, 1.0, self.model.state_dim)
        return x, rng.normal(0, 1.0, self.model.control_dim)

    def design_check(self) -> Dict[str, Any]:
        """The stationary Riccati residual of the design at the last grid time."""
        sol = self.design_for(self.grid[-1]).solution
        return {
            "check": "riccati",
            "passed": bool(sol.residual < 1e-9 and sol.spectral_radius < 1.0),
            "residual": sol.residual,
            "spectral_radius": sol.spectral_radius,
        }


@dataclass(frozen=True)
class SweepPoint:
    """One transfer-time candidate: optimized leg, regulation rollout, membership."""

    transfer_time: float
    ilqr_cost: float
    regulation_cost: float
    terminal_value: float
    total_cost: float
    in_set: bool
    final_state_error: np.ndarray
    report: Optional[SolveReport] = None
    membership: Optional[MembershipResult] = None
    error: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.error)

    @property
    def error_norm(self) -> float:
        return float(np.linalg.norm(self.final_state_error))


def _evaluate_point(
    problem: TwoPhaseProblem, transfer_time: float, previous_controls: Optional[np.ndarray]
) -> SweepPoint:
    try:
        steps = problem.steps_for(transfer_time)
        if previous_controls is None:
            initial_controls = problem.guess_for(steps)
        else:  # warm start: the previous controls, zero-padded
            initial_controls = np.zeros((steps, problem.model.control_dim))
            initial_controls[: len(previous_controls)] = previous_controls[:steps]
        design = problem.design_for(transfer_time)
        report = problem.leg(design, problem.x0, initial_controls)
    except (RegularizationError, StabilizabilityError, ValueError) as exc:
        nan = float("nan")
        return SweepPoint(
            transfer_time=transfer_time,
            ilqr_cost=nan,
            regulation_cost=nan,
            terminal_value=nan,
            total_cost=nan,
            in_set=False,
            final_state_error=np.full(problem.model.state_dim, np.nan),
            error=f"{type(exc).__name__}: {exc}",
        )
    x_T = report.trajectory.states[-1]
    membership = in_terminal_set(problem.model, x_T, design, problem.cost, problem.terminal_set)
    return SweepPoint(
        transfer_time=transfer_time,
        ilqr_cost=report.trajectory.phase_cost,
        regulation_cost=membership.actual_cost,
        terminal_value=membership.predicted_cost,
        total_cost=report.trajectory.phase_cost + membership.actual_cost,
        in_set=membership.member,
        final_state_error=design.regulated(x_T),
        report=report,
        membership=membership,
    )


def _walk(problem: TwoPhaseProblem) -> Iterator[SweepPoint]:
    """Evaluate the problem's (ascending) grid in order, lazily, with
    membership in its terminal set: the one walk behind the sweep, the first
    hitting time and the convergence study.

    With `warm_start` each solve reuses the previous horizon's controls;
    without it each starts from the problem's own guess. Per-point solver
    failures are recorded on the point, not raised.
    """
    grid = list(problem.grid)
    if not (grid and all(b > a for a, b in zip(grid, grid[1:]))):
        raise ValueError(f"the transfer-time grid must be non-empty and ascending, got {grid}")
    previous = None
    for T in grid:
        point = _evaluate_point(problem, T, previous)
        yield point
        if problem.warm_start and not point.failed:
            previous = point.report.trajectory.controls


def membership_switches(points: Sequence[SweepPoint]) -> List[float]:
    """Grid times after the first member at which membership differs from
    the point before; empty when membership along the grid is monotone."""
    flags = [pt.in_set for pt in points]
    if True not in flags:
        return []
    first = flags.index(True)
    return [
        points[i].transfer_time
        for i in range(first + 1, len(points))
        if flags[i] != flags[i - 1]
    ]


@dataclass(frozen=True)
class TwoPhaseSolution:
    """First hitting time on the grid plus the solves behind it."""

    transfer_time: float
    level: float
    objective: float  # nonlinear-leg cost + max(terminal value, level)
    report: SolveReport
    design: RegulationDesign
    membership: MembershipResult
    sweep: Tuple[SweepPoint, ...]


def _first_hits(problem: TwoPhaseProblem, levels: Sequence[Optional[float]]) -> List[TwoPhaseSolution]:
    """The first hitting time of each level, from one walk of the grid.

    A level is hit at the first member of the problem's terminal set whose
    terminal value is at most the level; a None level at the first member,
    and its reported level becomes the terminal value observed there. The
    walk stops once every level is hit, and raises HittingTimeNotFoundError
    with the points walked when one never is.
    """
    hits: List[Optional[int]] = [None] * len(levels)
    walked: List[SweepPoint] = []
    for point in _walk(problem):
        walked.append(point)
        for i, level in enumerate(levels):
            if hits[i] is None and point.in_set and (level is None or point.terminal_value <= level):
                hits[i] = len(walked)
        if None in hits:
            continue
        solutions = []
        for n, level in zip(hits, levels):
            point = walked[n - 1]
            level = point.terminal_value if level is None else level
            solutions.append(
                TwoPhaseSolution(
                    transfer_time=point.transfer_time,
                    level=level,
                    objective=point.ilqr_cost + max(point.terminal_value, level),
                    report=point.report,
                    design=problem.design_for(point.transfer_time),
                    membership=point.membership,
                    sweep=tuple(walked[:n]),
                )
            )
        return solutions
    raise HittingTimeNotFoundError(
        f"no transfer time on the grid {list(problem.grid)} reached the terminal set "
        f"at level {levels[hits.index(None)]}",
        sweep=walked,
    )


def solve_two_phase(problem: TwoPhaseProblem) -> TwoPhaseSolution:
    """Walk the grid upward and stop at the first transfer time whose terminal
    state is a member of `problem.terminal_set` (the first hitting time).

    Without a level, membership uses only the predicted-vs-actual agreement
    test and the reported level is the terminal value observed at the
    selected transfer state.
    """
    return _first_hits(problem, [problem.terminal_set.level])[0]


@dataclass(frozen=True)
class ClosedLoopTrajectory:
    """Two-phase closed-loop run; `phases` marks each applied control 1 or 2."""

    states: np.ndarray
    controls: np.ndarray
    stage_costs: np.ndarray
    phases: np.ndarray
    switch_index: int
    switch_time: float
    converged: bool
    diverged: bool
    message: str = ""

    @property
    def total_cost(self) -> float:
        return float(np.sum(self.stage_costs))

    def tail_costs(self) -> np.ndarray:
        """Remaining accumulated cost from each step onward (cost-to-go estimate)."""
        return np.cumsum(self.stage_costs[::-1])[::-1]


@np.errstate(over="ignore", invalid="ignore")
def two_phase_simulate(
    problem: TwoPhaseProblem,
    solution: TwoPhaseSolution,
    x0: Optional[np.ndarray] = None,
) -> ClosedLoopTrajectory:
    """Apply the optimized policy with feedback, then switch to regulation.

    Phase 1 tracks the nominal with u = u*_t + K_t (x_t - x*_t); from the
    transfer time onward u = -K z until the regulated state converges or the
    cap runs out.

    Without `x0` the run starts at the nominal initial state, where the
    feedback term is zero at every step, so phase 1 is the nominal leg
    itself and is taken from it. Phase 2 then starts from the selected
    point's membership rollout, which applied the same law from the same
    switch state, and runs on from where it stopped. The loops are
    `dynamics.simulate` (see its hot-loop contract); one `stage_costs` call
    prices the finished run, which is cut where phase-1 plus regulation
    cost first passed the cap, so the result is what simulating both phases
    step by step gives. `solution` must come from `solve_two_phase` on
    `problem`. An overflowing state ends the run as diverged, without numpy
    warnings.
    """
    model = problem.model
    nominal = solution.report.trajectory
    stop = problem.terminal_set
    switch_index = nominal.horizon
    regulate = regulation_law(solution.design, stop.state_tol)

    if x0 is None:  # the nominal leg, then the membership rollout resumed
        prefix = solution.membership.rollout
        used = min(prefix.steps, stop.regulation_cap)
        X1 = np.concatenate((nominal.states, prefix.states[1 : used + 1]))
        U1 = np.concatenate((nominal.controls, prefix.controls[:used]))
        law, budget = regulate, stop.regulation_cap - used
    else:  # one loop: tracking up to the switch, regulation from it
        track = tracking_law(nominal.controls, solution.report.gains.feedback, nominal.states)
        X1, U1 = np.array([x0], dtype=float), np.empty((0, model.control_dim))
        budget = switch_index + stop.regulation_cap

        def law(t: int, x: np.ndarray) -> Optional[np.ndarray]:
            return track(t, x) if t < switch_index else regulate(t, x)

    X2, U2, message = simulate(model, X1[-1], law, budget)
    X, U = np.concatenate((X1, X2[1:])), np.concatenate((U1, U2))
    converged = not message and len(U2) < budget
    switched = not message or len(U) > switch_index  # else phase 1 left the domain
    if message:
        phase = "regulation" if switched else "phase-1 rollout"
        message = f"{phase} left the dynamics domain: {message}"
    # Row by row these are the costs the nominal leg and the membership
    # rollout stored. The cap is tested on the regulation steps, on top of
    # the phase-1 cost (a step that failed ended the run first).
    costs = stage_costs(X[: len(U)], U, problem.cost)
    tested = costs[switch_index : len(X) - 1]
    over = first_over_cap(tested, stop.cost_cap, np.sum(costs[:switch_index]))[1]
    if over is not None:
        # the closed loop tests after each applied step: the tripping step stays
        end = switch_index + over + 1
        X, U, costs = X[: end + 1], U[:end], costs[:end]
        converged, message = False, "regulation diverged"
    phases = np.full(len(costs), 2)
    phases[:switch_index] = 1
    return ClosedLoopTrajectory(
        states=X,
        controls=U,
        stage_costs=costs,
        phases=phases,
        switch_index=switch_index if switched else -1,
        switch_time=switch_index * model.dt if switched else float("nan"),
        converged=converged,
        diverged=bool(message),
        message=message,
    )


@dataclass(frozen=True)
class ConvergenceRow:
    level: float
    objective: float
    ideal: float  # x0' P x0, exact for linear dynamics
    gap: float


def convergence_study(problem: TwoPhaseProblem, levels: Sequence[float]) -> List[ConvergenceRow]:
    """Objective-vs-level table on a problem whose true infinite-horizon cost
    is the quadratic x0' P x0 (linear dynamics). The gap shrinks to zero as
    the level does.

    One level-free walk of the problem's grid serves every level: the
    solves, the membership rollouts and the warm-start chain do not depend
    on the level, so each level's objective is the one `solve_two_phase`
    gives at it.
    """
    levels = [float(level) for level in levels]
    if not all(level > 0.0 for level in levels):
        raise ValueError(f"need positive levels, got {levels}")
    free = replace(problem, terminal_set=replace(problem.terminal_set, level=None))
    solutions = _first_hits(free, levels)
    ideal = problem.design_for(problem.grid[0]).predicted_cost(problem.x0)
    return [
        ConvergenceRow(level=sol.level, objective=sol.objective, ideal=ideal, gap=sol.objective - ideal)
        for sol in solutions
    ]


@dataclass(frozen=True)
class BellmanResidual:
    step: int
    value: float  # tail value at x_t
    stage: float  # c(x_t, u_t)
    next_value: float  # re-solved value at x_{t+1}
    residual: float  # |value - stage - next_value| / max(value, 1)
    skipped: bool = False
    reason: str = ""


def bellman_check(
    problem: TwoPhaseProblem, solution: TwoPhaseSolution, steps_to_check: int
) -> List[BellmanResidual]:
    """One-step consistency of the combined value along the optimized leg.

    For each early step t outside the terminal set, re-solve the remaining
    problem from x_{t+1} (same terminal design, horizon shortened by one)
    and compare

        value(x_t)  vs  c(x_t, u_t) + value(x_{t+1}).

    With the problem's `warm_start` the re-solve starts from the shifted
    incumbent controls (fast; confirms stationarity); without it the
    re-solve starts from the problem's own initial guess and must
    rediscover the tail value independently. Steps already inside the
    terminal set are skipped; a failed re-solve marks the residual
    unavailable instead of raising.
    """
    traj = solution.report.trajectory
    design = solution.design
    level = solution.level
    # tail values of the incumbent: sum of remaining stage costs + floored terminal
    floored_terminal = max(traj.terminal_cost, level)
    tails = np.concatenate([np.cumsum(traj.stage_costs[::-1])[::-1], [0.0]]) + floored_terminal

    out: List[BellmanResidual] = []
    for t in range(min(steps_to_check, traj.horizon)):
        if design.predicted_cost(traj.states[t]) <= level:
            out.append(
                BellmanResidual(t, tails[t], 0.0, 0.0, 0.0, skipped=True, reason="inside terminal set")
            )
            continue
        remaining = traj.horizon - (t + 1)
        if remaining < 1:
            out.append(
                BellmanResidual(t, tails[t], 0.0, 0.0, 0.0, skipped=True, reason="no horizon left")
            )
            continue
        guess = traj.controls[t + 1 :] if problem.warm_start else problem.guess_for(remaining)
        try:
            report = problem.leg(design, traj.states[t + 1], guess)
        except (RegularizationError, ValueError) as exc:
            out.append(
                BellmanResidual(
                    t, tails[t], 0.0, 0.0, float("nan"), skipped=True, reason=str(exc)
                )
            )
            continue
        next_value = report.trajectory.phase_cost + max(report.trajectory.terminal_cost, level)
        stage = float(traj.stage_costs[t])
        residual = abs(tails[t] - stage - next_value) / max(tails[t], 1.0)
        out.append(BellmanResidual(t, tails[t], stage, next_value, residual))
    return out


def lyapunov_decreasing(
    closed: ClosedLoopTrajectory, design: RegulationDesign, level: float
) -> bool:
    """True iff the tail cost-to-go strictly decreases at every step whose
    state lies outside the terminal sublevel set. z'Pz is evaluated only at
    the steps where the tail does not decrease."""
    tails = closed.tail_costs()
    rising = np.flatnonzero(~(tails[:-1] > tails[1:]))
    return all(design.predicted_cost(closed.states[t]) <= level for t in rising)
