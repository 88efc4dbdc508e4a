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
states to measure one-step Bellman residuals of the combined value, and
`lyapunov_decrease_ratio` measures the decrease condition
V(x_t) - V(x_{t+1}) >= c(x_t, u_t) of V = z'Pz along the regulation phase
of a closed loop (a ratio of 1 on linear dynamics).

A query is stated once, on the problem: its `grid` and `terminal_set`
(with the level). One walk of the grid serves the sweep, one function,
`first_hit`, holds the hitting rule, and `_first_hits` the objective:
`solve_two_phase(problem)` asks it for the problem's own level,
`convergence_study(problem, levels)` for many levels in one level-free walk;
`first_hit_bracketed` is the bracket rule both summaries report. The closed
loop resumes the member's rollout through `lqr.regulation_rollout`.

A problem object is what every CLI command runs: `TwoPhaseProblem` here and
`scenarios.LandingProblem` answer `solve()` and `simulate()` with one
`RunResult`, `sweep()` with the grid's points, `sample(rng)` with a
Jacobian-check point and `checks()` with the `riccati` and `bellman` entries
of `verify`, so how a scenario is solved, simulated, scaled and checked
lives behind the object.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .cost import QuadraticCostSpec, TerminalValue
from .dynamics import DiscreteModel
from .errors import HittingTimeNotFoundError, RegularizationError, StabilizabilityError
from .ilqr import SolveReport, SolverSettings, solve_fhocp
from .lqr import (
    MembershipResult,
    RegulationDesign,
    TerminalSetSpec,
    in_terminal_set,
    regulation_rollout,
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
    `solve` exits 3). `horizon`, `grid` and `terminal_set` are what
    `solve`, `simulate`, `sweep`, `checks`, `solve_two_phase`,
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
            "first_hit_bracketed": first_hit_bracketed(solution.sweep),
            "final_state_error": [float(v) for v in solution.design.regulated(closed.states[-1])],
            "lyapunov_decrease_ratio": lyapunov_decrease_ratio(closed, solution.design),
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

    def checks(self) -> List[Dict[str, Any]]:
        """The `riccati` and `bellman` entries of `verify`, on one solve of
        the query: the stationary Riccati residual of the design at T*, and
        the cold one-step Bellman residuals of three steps of its leg (not
        applicable, `passed` None, when every step is skipped; failed, with
        a `detail` naming the failures, when a re-solve raised)."""
        solution = solve_two_phase(self)
        sol = solution.design.solution
        steps = bellman_check(self, solution, 3)
        measured = [c for c in steps if not c.skipped]
        failures = sorted({c.reason for c in measured if c.reason})
        worst = max((c.residual for c in measured if not c.reason), default=None)
        passed = None if not measured else not failures and bool(worst < 1e-6)
        bellman = {"check": "bellman", "passed": passed, "max_residual": worst}
        if failures:
            bellman["detail"] = "re-solve failed: " + "; ".join(failures)
        elif not measured:
            bellman["detail"] = "every step skipped: " + "; ".join(sorted({c.reason for c in steps}))
        return [
            {
                "check": "riccati",
                "passed": bool(sol.residual < 1e-9 and sol.spectral_radius < 1.0),
                "residual": sol.residual,
                "spectral_radius": sol.spectral_radius,
            },
            bellman,
        ]


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
        initial_controls = problem.guess_for(steps)
        if previous_controls is not None:  # warm start: the previous controls over the guess's head
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

    Each solve starts from the controls of the last point that did not
    fail, zero-padded (warm start), the first from the problem's own guess.
    Per-point solver failures are recorded on the point, not raised.
    """
    grid = list(problem.grid)
    if not (grid and all(b > a for a, b in zip(grid, grid[1:]))):
        raise ValueError(f"the transfer-time grid must be non-empty and ascending, got {grid}")
    previous = None
    for T in grid:
        point = _evaluate_point(problem, T, previous)
        yield point
        if not point.failed:
            previous = point.report.trajectory.controls


def first_hit(points: Sequence[SweepPoint], level: Optional[float] = None) -> Optional[int]:
    """Index of the first member of `points` (within the terminal set's own
    level, when it has one), or, with a level, of the first member whose
    terminal value is at most it; None when there is none."""
    return next(
        (i for i, pt in enumerate(points) if pt.in_set and (level is None or pt.terminal_value <= level)),
        None,
    )


def membership_switches(points: Sequence[SweepPoint]) -> List[float]:
    """Grid times after the first member at which membership differs from
    the point before; empty when membership along the grid is monotone."""
    first = first_hit(points)
    if first is None:
        return []
    return [points[i].transfer_time for i in range(first + 1, len(points)) if points[i].in_set != points[i - 1].in_set]


def first_hit_bracketed(points: Sequence[SweepPoint]) -> Optional[bool]:
    """Whether a point that did not fail precedes the first member, so the
    hit is bracketed by a miss; None when no point is a member."""
    hit = first_hit(points)
    return None if hit is None else any(not pt.failed for pt in points[:hit])


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

    A level is hit at `first_hit` of the points walked; a None level's
    reported level becomes the terminal value observed there. The walk
    stops once every level is hit, and raises HittingTimeNotFoundError
    with the points walked when one never is.
    """
    hits: List[Optional[int]] = [None] * len(levels)
    walked: List[SweepPoint] = []
    for point in _walk(problem):
        walked.append(point)
        hits = [first_hit(walked, level) for level in levels]  # a grid is tens of points
        if None in hits:
            continue
        solutions = []
        for n, level in zip(hits, levels):
            point = walked[n]
            level = point.terminal_value if level is None else level
            solutions.append(
                TwoPhaseSolution(
                    transfer_time=point.transfer_time,
                    level=level,
                    objective=point.ilqr_cost + max(point.terminal_value, level),
                    report=point.report,
                    design=problem.design_for(point.transfer_time),
                    membership=point.membership,
                    sweep=tuple(walked[: n + 1]),
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


def two_phase_simulate(problem: TwoPhaseProblem, solution: TwoPhaseSolution) -> ClosedLoopTrajectory:
    """The two-phase run from the problem's initial state, read from the solve.

    Phase 1 is the nominal leg (tracking it from its own initial state leaves
    the feedback term zero). Phase 2, u = -K z until the regulated state
    converges or the cap runs out, is the selected point's membership
    rollout (the same law from the same switch state) resumed where it
    stopped through `regulation_rollout`, from the rollout's running cost
    and step count. The caps bound the regulation phase alone, as in the
    membership rollout, so the reused prefix never trips a cap that
    admitted it, and the resumed steps keep the bits of one rollout from
    the switch state. `solution` must come from `solve_two_phase` on
    `problem`. An overflowing state ends the run as diverged, without numpy
    warnings.
    """
    nominal, prefix = solution.report.trajectory, solution.membership.rollout
    rest = regulation_rollout(
        problem.model, prefix.states[-1], solution.design, problem.cost, problem.terminal_set,
        start=(prefix.cost, prefix.steps),
    )
    costs = np.concatenate((nominal.stage_costs, prefix.stage_costs, rest.stage_costs))
    switch_index = nominal.horizon
    phases = np.full(len(costs), 2)
    phases[:switch_index] = 1
    return ClosedLoopTrajectory(
        states=np.concatenate((nominal.states, prefix.states[1:], rest.states[1:])),
        controls=np.concatenate((nominal.controls, prefix.controls, rest.controls)),
        stage_costs=costs,
        phases=phases,
        switch_index=switch_index,
        switch_time=switch_index * problem.model.dt,
        converged=rest.converged,
        diverged=rest.diverged,
        message=rest.message,
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
    reason: str = ""  # why the step was skipped or its re-solve failed


def bellman_check(
    problem: TwoPhaseProblem, solution: TwoPhaseSolution, steps_to_check: int
) -> List[BellmanResidual]:
    """One-step consistency of the combined value along the optimized leg.

    For each early step t outside the terminal set, re-solve the remaining
    problem from x_{t+1} (same terminal design, horizon shortened by one)
    and compare

        value(x_t)  vs  c(x_t, u_t) + value(x_{t+1}).

    Each re-solve starts cold, from the problem's own initial guess, so it
    must rediscover the tail value independently: a leg that stopped short
    of stationarity shows as a residual. Steps already inside the terminal
    set, or with no horizon left, are skipped; a re-solve that raises is a
    failed step (residual NaN, the error as its reason), not an exception.
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
        try:
            report = problem.leg(design, traj.states[t + 1], problem.guess_for(remaining))
        except (RegularizationError, ValueError) as exc:
            out.append(BellmanResidual(t, tails[t], 0.0, 0.0, float("nan"), reason=f"{type(exc).__name__}: {exc}"))
            continue
        next_value = report.trajectory.phase_cost + max(report.trajectory.terminal_cost, level)
        stage = float(traj.stage_costs[t])
        residual = abs(tails[t] - stage - next_value) / max(tails[t], 1.0)
        out.append(BellmanResidual(t, tails[t], stage, next_value, residual))
    return out


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def lyapunov_decrease_ratio(closed: ClosedLoopTrajectory, design: RegulationDesign) -> Optional[List[float]]:
    """[min, max] over the phase-2 steps of (V_t - V_{t+1}) / c_t, with
    V = z'Pz of `design`; None when phase 2 has no step.

    The decrease condition V(x+) - V(x) <= -c(x, u) holds where the ratio
    is at least 1, and linear dynamics under the design's own gain give 1
    exactly. A diverged run yields inf or nan, without numpy warnings."""
    s = closed.switch_index
    Z = closed.states[s:, design.indices]  # a failed last step has no successor state
    if len(Z) < 2:
        return None
    V = np.einsum("ti,ij,tj->t", Z, design.solution.P, Z)
    ratio = (V[:-1] - V[1:]) / closed.stage_costs[s : s + len(Z) - 1]
    return [float(ratio.min()), float(ratio.max())]
