"""Infinite-horizon solving by transfer-time sweep plus terminal regulation.

The finite-horizon solver handles the nonlinear leg; a stationary LQR handles
the tail. Sweeping the transfer time T and testing the optimized terminal
state for terminal-set membership picks the first hitting time: the smallest
T whose terminal state is regulated at (near) the quadratically predicted
cost. The combined objective

    sum_{t<T} c(x_t, u_t) + max(z_T' P z_T, level)

converges to the true infinite-horizon cost as the level shrinks to zero,
which `convergence_study` measures on a linear benchmark where the true cost
is known in closed form. `bellman_check` re-solves from successor states to
measure one-step Bellman residuals of the combined value.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .cost import QuadraticCostSpec, TerminalValue, stage_cost
from .dynamics import DiscreteModel
from .errors import (
    DynamicsDomainError,
    HittingTimeNotFoundError,
    RegularizationError,
    SingularityError,
    StabilizabilityError,
)
from .ilqr import SolveReport, SolverSettings, solve_fhocp
from .lqr import (
    MembershipResult,
    RegulationDesign,
    TerminalSetSpec,
    in_terminal_set,
)


@dataclass(frozen=True)
class TwoPhaseProblem:
    """A regulation goal at the origin plus everything needed to solve for it.

    `design_for(T)` returns the stationary regulation design used when the
    switch happens at transfer time T; it is constant for time-invariant
    goals and re-evaluated per T when the design point moves (rendezvous
    freezes the target state at the switch epoch).
    """

    model: DiscreteModel
    cost: QuadraticCostSpec
    x0: np.ndarray
    design_for: Callable[[float], RegulationDesign]
    settings: SolverSettings = field(default_factory=SolverSettings)
    terminal_set: TerminalSetSpec = field(default_factory=TerminalSetSpec)
    initial_controls: Optional[Callable[[int], np.ndarray]] = None
    label: str = ""

    def steps_for(self, transfer_time: float) -> int:
        steps = transfer_time / self.model.dt
        rounded = round(steps)
        if rounded < 1 or abs(steps - rounded) > 1e-6 * max(1.0, steps):
            raise ValueError(
                f"transfer time {transfer_time} is not a positive multiple of dt={self.model.dt}"
            )
        return int(rounded)

    def guess_for(self, steps: int) -> np.ndarray:
        if self.initial_controls is None:
            return np.zeros((steps, self.model.control_dim))
        return np.asarray(self.initial_controls(steps), dtype=float)


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
    problem: TwoPhaseProblem,
    transfer_time: float,
    stop: TerminalSetSpec,
    previous_controls: Optional[np.ndarray] = None,
) -> SweepPoint:
    try:
        steps = problem.steps_for(transfer_time)
        if previous_controls is None:
            initial_controls = problem.guess_for(steps)
        else:
            initial_controls = _extend_controls(
                previous_controls, steps, problem.model.control_dim
            )
        design = problem.design_for(transfer_time)
        terminal = TerminalValue(design.P_full)
        report = solve_fhocp(
            problem.model,
            problem.cost,
            terminal,
            problem.x0,
            steps,
            problem.settings,
            initial_controls,
        )
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
    membership = in_terminal_set(problem.model, x_T, design, problem.cost, stop)
    return SweepPoint(
        transfer_time=transfer_time,
        ilqr_cost=report.trajectory.phase_cost,
        regulation_cost=membership.rollout.cost,
        terminal_value=membership.predicted_cost,
        total_cost=report.trajectory.phase_cost + membership.rollout.cost,
        in_set=membership.member,
        final_state_error=design.regulated(x_T),
        report=report,
        membership=membership,
    )


def _extend_controls(controls: np.ndarray, steps: int, control_dim: int) -> np.ndarray:
    """Warm start for the next horizon: previous controls, zero-padded."""
    out = np.zeros((steps, control_dim))
    keep = min(len(controls), steps)
    out[:keep] = controls[:keep]
    return out


def sweep_transfer_time(
    problem: TwoPhaseProblem,
    grid: Sequence[float],
    warm_start: bool = True,
    workers: Optional[int] = None,
) -> List[SweepPoint]:
    """Evaluate every transfer time on the (ascending) grid.

    With warm starting each solve reuses the previous horizon's controls, so
    the sweep is sequential; without it the points are independent and fan
    out across a thread pool. Per-point solver failures are recorded on the
    point, not raised.
    """
    grid = list(grid)
    assert grid and all(b > a for a, b in zip(grid, grid[1:])), "grid must be ascending"
    stop = problem.terminal_set
    if warm_start:
        points = []
        previous = None
        for T in grid:
            point = _evaluate_point(problem, T, stop, previous)
            points.append(point)
            if not point.failed:
                previous = point.report.trajectory.controls
        return points
    if workers is None or workers <= 1:
        return [_evaluate_point(problem, T, stop) for T in grid]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_evaluate_point, problem, T, stop) for T in grid]
        points = [f.result() for f in futures]
    return sorted(points, key=lambda p: p.transfer_time)


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


def solve_two_phase(
    problem: TwoPhaseProblem,
    level: Optional[float] = None,
    grid: Sequence[float] | None = None,
    warm_start: bool = True,
) -> TwoPhaseSolution:
    """Walk the grid upward and stop at the first transfer time whose terminal
    state is a terminal-set member (the first hitting time).

    With `level=None` membership uses only the predicted-vs-actual agreement
    test and the reported level becomes the terminal value actually observed
    at the selected transfer state.
    """
    assert grid is not None and len(grid) > 0, "a transfer-time grid is required"
    assert level is None or level > 0.0
    stop = replace(problem.terminal_set, level=level)
    evaluated: List[SweepPoint] = []
    previous = None
    for T in grid:
        point = _evaluate_point(problem, T, stop, previous if warm_start else None)
        evaluated.append(point)
        if not point.failed:
            previous = point.report.trajectory.controls
        if point.in_set:
            effective_level = level if level is not None else point.terminal_value
            objective = point.ilqr_cost + max(point.terminal_value, effective_level)
            return TwoPhaseSolution(
                transfer_time=T,
                level=effective_level,
                objective=objective,
                report=point.report,
                design=problem.design_for(T),
                membership=point.membership,
                sweep=tuple(evaluated),
            )
    raise HittingTimeNotFoundError(
        f"no transfer time on the grid {list(grid)} reached the terminal set",
        sweep=evaluated,
    )


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


def two_phase_simulate(
    problem: TwoPhaseProblem,
    solution: TwoPhaseSolution,
    x0: Optional[np.ndarray] = None,
) -> ClosedLoopTrajectory:
    """Apply the optimized policy with feedback, then switch to regulation.

    Phase 1 tracks the nominal with u = u*_t + K_t (x_t - x*_t); from the
    transfer time onward u = -K z until the regulated state converges or the
    cap runs out. Starting exactly at the nominal initial state reproduces
    the nominal leg.
    """
    model = problem.model
    nominal = solution.report.trajectory
    gains = solution.report.gains
    design = solution.design
    stop = problem.terminal_set
    x = np.array(problem.x0 if x0 is None else x0, dtype=float)
    states = [x]
    controls: List[np.ndarray] = []
    costs: List[float] = []
    phases: List[int] = []
    diverged = False
    converged = False
    message = ""

    # per-step loops on short vectors: ndarray.dot and math scalar tests
    # compute what @ and numpy reductions would, bit for bit, with less
    # call overhead (see the ilqr module docstring)
    step, stage, spec = model.step, stage_cost, problem.cost
    U_nom, X_nom, feedback = nominal.controls, nominal.states, gains.feedback
    for t in range(nominal.horizon):
        u = U_nom[t] + feedback[t].dot(x - X_nom[t])
        controls.append(u)
        costs.append(stage(x, u, spec))
        phases.append(1)
        try:
            x = step(x, u)
        except (SingularityError, DynamicsDomainError) as exc:
            return ClosedLoopTrajectory(
                states=np.array(states),
                controls=np.array(controls),
                stage_costs=np.array(costs),
                phases=np.array(phases),
                switch_index=-1,
                switch_time=float("nan"),
                converged=False,
                diverged=True,
                message=f"phase-1 rollout left the dynamics domain: {exc}",
            )
        states.append(x)

    switch_index = nominal.horizon
    switch_time = switch_index * model.dt
    running = float(np.sum(costs))
    indices, gain = design.indices, -design.solution.K  # u = (-K) z, as `feedback`
    for _ in range(stop.regulation_cap):
        z = x[indices]
        if math.sqrt(z.dot(z)) < stop.state_tol:
            converged = True
            break
        u = gain.dot(z)
        controls.append(u)
        c = stage(x, u, spec)
        costs.append(c)
        running += c
        phases.append(2)
        try:
            x = step(x, u)
        except (SingularityError, DynamicsDomainError) as exc:
            diverged = True
            message = f"regulation left the dynamics domain: {exc}"
            break
        states.append(x)
        if not np.isfinite(x).all() or running > stop.cost_cap:
            diverged = True
            message = "regulation diverged"
            break

    return ClosedLoopTrajectory(
        states=np.array(states),
        controls=np.array(controls),
        stage_costs=np.array(costs),
        phases=np.array(phases),
        switch_index=switch_index,
        switch_time=switch_time,
        converged=converged,
        diverged=diverged,
        message=message,
    )


@dataclass(frozen=True)
class ConvergenceRow:
    level: float
    objective: float
    ideal: float  # x0' P x0, exact for linear dynamics
    gap: float


def convergence_study(
    problem: TwoPhaseProblem,
    levels: Sequence[float],
    grid: Sequence[float],
) -> List[ConvergenceRow]:
    """Objective-vs-level table on a problem whose true infinite-horizon cost
    is the quadratic x0' P x0 (linear dynamics). The gap shrinks to zero as
    the level does."""
    design = problem.design_for(grid[0])
    ideal = design.predicted_cost(problem.x0)
    rows = []
    for level in levels:
        solution = solve_two_phase(problem, level=level, grid=grid)
        rows.append(
            ConvergenceRow(
                level=float(level),
                objective=solution.objective,
                ideal=ideal,
                gap=solution.objective - ideal,
            )
        )
    return rows


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
    problem: TwoPhaseProblem,
    solution: TwoPhaseSolution,
    steps_to_check: int,
    warm_start: bool = True,
) -> List[BellmanResidual]:
    """One-step consistency of the combined value along the optimized leg.

    For each early step t outside the terminal set, re-solve the remaining
    problem from x_{t+1} (same terminal design, horizon shortened by one)
    and compare

        value(x_t)  vs  c(x_t, u_t) + value(x_{t+1}).

    With `warm_start` the re-solve starts from the shifted incumbent
    controls (fast; confirms stationarity); without it the re-solve starts
    from the problem's own initial guess and must rediscover the tail value
    independently. Steps already inside the terminal set are skipped; a
    failed re-solve marks the residual unavailable instead of raising.
    """
    traj = solution.report.trajectory
    design = solution.design
    terminal = TerminalValue(design.P_full)
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
        guess = traj.controls[t + 1 :] if warm_start else problem.guess_for(remaining)
        try:
            report = solve_fhocp(
                problem.model,
                problem.cost,
                terminal,
                traj.states[t + 1],
                remaining,
                problem.settings,
                guess,
            )
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
    state lies outside the terminal sublevel set."""
    tails = closed.tail_costs()
    for t in range(len(tails) - 1):
        if design.predicted_cost(closed.states[t]) <= level:
            continue
        if not tails[t] > tails[t + 1]:
            return False
    return True
