"""Transfer-time sweep, hitting-time selection, closed-loop simulation,
level convergence, and Bellman/Lyapunov diagnostics."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from spacetraj.config import default_sweep_grid, parse_config_dict, scenario_defaults
from spacetraj.cost import QuadraticCostSpec, TerminalValue, stage_costs
from spacetraj.dynamics import lti_model, simulate
from spacetraj.errors import HittingTimeNotFoundError, NotAFixedPointError
from spacetraj.ilqr import SolveReport, SolverSettings, rollout
from spacetraj.lqr import (
    PREDICTION_FLOOR,
    LqrSolution,
    RegulationDesign,
    TerminalSetSpec,
    in_terminal_set,
    linearize_at_goal,
    regulation_law,
    regulation_rollout,
)
from spacetraj.scenarios import attitude_problem, build_problem, linear_benchmark
from spacetraj.two_phase import (
    TwoPhaseProblem,
    TwoPhaseSolution,
    bellman_check,
    convergence_study,
    lyapunov_decrease_ratio,
    membership_switches,
    solve_two_phase,
    two_phase_simulate,
)

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def query(problem, grid, level=None):
    """`problem` asked on `grid`, at `level`."""
    stop = dataclasses.replace(problem.terminal_set, level=level)
    return dataclasses.replace(problem, grid=tuple(grid), terminal_set=stop)


def steps(n):
    """The scalar benchmark's integer transfer times 1..n."""
    return [float(k) for k in range(1, n + 1)]


def test_sweep_from_origin_all_points_trivial():
    bp = dataclasses.replace(linear_benchmark(), x0=np.zeros(1))
    points = query(bp, [1.0, 2.0, 3.0]).sweep()
    for pt in points:
        assert pt.total_cost == pytest.approx(0.0, abs=1e-12)
        assert pt.in_set
    sol = solve_two_phase(query(bp, [1.0, 2.0, 3.0], level=0.1))
    assert sol.transfer_time == 1.0


def test_sweep_points_carry_cost_identity():
    bp = linear_benchmark()
    for pt in query(bp, [1.0, 3.0, 6.0]).sweep():
        assert pt.total_cost == pytest.approx(pt.ilqr_cost + pt.regulation_cost, abs=1e-12)


def test_objective_gap_bounded_by_level_difference():
    bp = linear_benchmark()
    small, large = 0.05 * GOLDEN, 0.5 * GOLDEN
    j_small = solve_two_phase(query(bp, steps(20), level=small)).objective
    j_large = solve_two_phase(query(bp, steps(20), level=large)).objective
    assert j_large >= j_small - 1e-9
    assert j_large - j_small <= (large - small) + 1e-9


def test_start_inside_terminal_set():
    bp = dataclasses.replace(linear_benchmark(), x0=np.array([0.05]))
    sol = solve_two_phase(query(bp, steps(10), level=1.0))
    assert sol.transfer_time == 1.0
    assert sol.report.trajectory.phase_cost < 0.01


def test_convergence_study_gap_shrinks_to_zero():
    bp = linear_benchmark()
    assert bp.grid == tuple(steps(40))
    levels = [GOLDEN * f for f in (0.5, 0.25, 0.1, 0.03, 0.01, 0.001)]
    rows = convergence_study(bp, levels)
    for row in rows:
        assert row.gap >= -1e-9
        assert row.ideal == pytest.approx(GOLDEN, abs=1e-10)
    assert rows[-1].gap < 1e-3 * GOLDEN
    # larger levels never undercut smaller ones (within solver tolerance)
    objectives = [r.objective for r in rows]
    assert all(a >= b - 1e-8 for a, b in zip(objectives, objectives[1:]))


def test_convergence_study_walks_the_grid_once(monkeypatch):
    """One level-free walk gives every level the objective of its own
    first-hitting-time solve, bit for bit, with 4 solves instead of one
    walk per level (13)."""
    import spacetraj.two_phase as two_phase

    bp = linear_benchmark()
    levels = [GOLDEN * f for f in (0.5, 0.25, 0.1, 0.03, 0.01, 0.001)]
    want = [solve_two_phase(query(bp, bp.grid, level=level)).objective for level in levels]
    solves = 0
    solve = two_phase.solve_fhocp

    def counting(*args, **kwargs):
        nonlocal solves
        solves += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(two_phase, "solve_fhocp", counting)
    rows = convergence_study(bp, levels)
    assert solves == 4
    assert [r.level for r in rows] == levels
    assert [r.objective for r in rows] == want


def test_convergence_study_raises_when_a_level_is_never_reached():
    bp = linear_benchmark()
    with pytest.raises(HittingTimeNotFoundError) as info:
        convergence_study(query(bp, steps(5)), [0.5 * GOLDEN, 1e-30])
    assert len(info.value.sweep) == 5


def test_rendezvous_designs_continue_the_target_orbit(monkeypatch):
    """Designs built along a shuffled grid equal, bit for bit, designs whose
    goal orbit is propagated from t = 0, and the orbit is propagated only
    once, up to the largest grid step."""
    import spacetraj.scenarios as scenarios

    grid = default_sweep_grid(parse_config_dict({"scenario": "rendezvous"}))
    shuffled = [grid[i] for i in np.random.default_rng(8).permutation(len(grid))]
    fresh = {T: scenarios.rendezvous_problem().design_for(T) for T in grid}
    propagated = 0

    def counting(*args):
        nonlocal propagated
        X, U, message = simulate(*args)
        propagated += len(U)
        return X, U, message

    monkeypatch.setattr(scenarios, "simulate", counting)
    problem = scenarios.rendezvous_problem()
    for T in shuffled:
        got, want = problem.design_for(T).solution, fresh[T].solution
        assert np.array_equal(got.P, want.P) and np.array_equal(got.K, want.K)
    assert propagated == round(max(grid) / scenario_defaults("rendezvous").dt)


def test_rendezvous_goal_orbit_is_the_trajectory_target(monkeypatch):
    """The design for T linearizes the full model at the goal-orbit state of
    epoch T, whose target rows are those of every trajectory at T, bit for
    bit (3,000 steps here). Its error block is an exact fixed point of the
    model, while the full state is not (the target moves)."""
    import spacetraj.scenarios as scenarios

    goals = []
    design = scenarios.stationary_design

    def recording(model, cost, x_eq, u_eq, indices):
        goals.append(np.array(x_eq))
        return design(model, cost, x_eq, u_eq, indices)

    monkeypatch.setattr(scenarios, "stationary_design", recording)
    problem = dataclasses.replace(
        scenarios.rendezvous_problem(), settings=SolverSettings(max_iterations=2)
    )
    x_T = problem.solve().states[-1]
    (goal,) = goals
    assert np.array_equal(goal[7:13], x_T[7:13])
    assert np.array_equal(goal[:6], np.zeros(6)) and goal[6] == problem.x0[6]
    zero = np.zeros(3)
    assert np.array_equal((problem.model.step(goal, zero) - goal)[:7], np.zeros(7))
    with pytest.raises(NotAFixedPointError):
        linearize_at_goal(problem.model, goal, zero)


def test_bellman_residuals_linear_instance():
    bp = linear_benchmark()
    sol = solve_two_phase(query(bp, steps(20), level=0.002))
    checks = bellman_check(bp, sol, steps_to_check=3)
    assert len(checks) == 3 and not any(c.skipped for c in checks)
    for c in checks:
        assert c.residual < 1e-6


def test_bellman_skips_steps_inside_terminal_set():
    # initial state already inside the sublevel set: the scope rule skips it
    bp = dataclasses.replace(linear_benchmark(), x0=np.array([0.05]))
    sol = solve_two_phase(query(bp, steps(20), level=0.5))
    checks = bellman_check(bp, sol, steps_to_check=1)
    assert checks[0].skipped and checks[0].reason == "inside terminal set"


def test_two_phase_simulate_reproduces_nominal_without_perturbation():
    bp = linear_benchmark()
    sol = solve_two_phase(query(bp, steps(20), level=0.05))
    closed = two_phase_simulate(bp, sol)
    T = sol.report.trajectory.horizon
    assert np.array_equal(closed.states[: T + 1], sol.report.trajectory.states)
    assert np.array_equal(closed.controls[:T], sol.report.trajectory.controls)
    assert closed.switch_index == T
    assert closed.switch_time == pytest.approx(sol.transfer_time)
    assert closed.converged and not closed.diverged
    assert np.all(closed.phases[:T] == 1) and np.all(closed.phases[T:] == 2)


def test_phase_boundary_feasibility():
    bp = linear_benchmark()
    sol = solve_two_phase(query(bp, steps(20), level=0.05))
    closed = two_phase_simulate(bp, sol)
    for t in range(len(closed.controls)):
        step = bp.model.step(closed.states[t], closed.controls[t])
        assert np.array_equal(closed.states[t + 1], step)


def scaled_gain(design, factor):
    """`design` with its feedback gain scaled by `factor` (the same P)."""
    solution = dataclasses.replace(design.solution, K=factor * design.solution.K)
    return RegulationDesign(solution, design.indices, design.state_dim)


def test_lyapunov_ratio_is_one_on_linear_dynamics():
    # V = x'Px of the DARE decreases by exactly the stage cost under u = -Kx
    bp = query(linear_benchmark(), steps(20), level=0.05)
    sol = solve_two_phase(bp)
    closed = two_phase_simulate(bp, sol)
    low, high = lyapunov_decrease_ratio(closed, sol.design)
    assert abs(low - 1.0) <= 4 * np.spacing(1.0) and abs(high - 1.0) <= 4 * np.spacing(1.0)


@pytest.mark.parametrize("factor,ratio", [(0.5, 0.7718), (2.0, 0.6044)])
def test_lyapunov_ratio_falls_with_a_wrong_gain(factor, ratio):
    """Phase 2 resumed under a scaled gain K: V falls by less than the
    stage cost, (1 - a^2) P / (1 + K^2) with a = 1 - K, while the remaining
    cumulative stage cost still decreases at every step, so a test of it
    cannot see the fault."""
    bp = query(linear_benchmark(), steps(20), level=0.05)
    sol = solve_two_phase(bp)
    faulty = dataclasses.replace(sol, design=scaled_gain(sol.design, factor))
    closed = two_phase_simulate(bp, faulty)
    low, high = lyapunov_decrease_ratio(closed, faulty.design)
    assert low == pytest.approx(ratio, abs=1e-4) and high == pytest.approx(1.0)
    tails = np.cumsum(closed.stage_costs[::-1])[::-1]
    assert np.all(tails[:-1] > tails[1:])


def test_lyapunov_ratio_of_a_diverged_run_is_nan_without_warnings():
    bp = query(linear_benchmark(), steps(20), level=0.05)
    sol = solve_two_phase(bp)
    faulty = dataclasses.replace(sol, design=scaled_gain(sol.design, 1e200))
    closed = two_phase_simulate(bp, faulty)
    assert closed.diverged and np.isinf(closed.stage_costs[-1])
    assert all(math.isnan(r) for r in lyapunov_decrease_ratio(closed, faulty.design))


def test_lyapunov_ratio_is_none_without_phase_2():
    # from the origin the regulation law stops before its first step
    bp = dataclasses.replace(query(linear_benchmark(), [1.0]), x0=np.zeros(1))
    sol = solve_two_phase(bp)
    closed = two_phase_simulate(bp, sol)
    assert len(closed.stage_costs) == closed.switch_index
    assert lyapunov_decrease_ratio(closed, sol.design) is None


@pytest.mark.parametrize("scenario,low", [("attitude", 0.1), ("rendezvous", 4e-5)])
def test_bellman_check_fails_on_an_unconverged_leg(scenario, low):
    """The cold re-solves pass on the scenario's T* solve and expose an
    incumbent leg stopped after one iteration."""
    problem = build_problem(scenario_defaults(scenario))
    sol = solve_two_phase(problem)
    assert max(c.residual for c in bellman_check(problem, sol, 3)) < 1e-6
    capped = dataclasses.replace(problem, settings=dataclasses.replace(problem.settings, max_iterations=1))
    incumbent = capped.leg(sol.design, problem.x0, problem.guess_for(problem.steps_for(sol.transfer_time)))
    checks = bellman_check(problem, dataclasses.replace(sol, report=incumbent), 3)
    assert len(checks) == 3 and not any(c.skipped for c in checks)
    assert min(c.residual for c in checks) > low


def test_hitting_time_not_found_carries_sweep():
    bp = linear_benchmark()
    with pytest.raises(HittingTimeNotFoundError) as exc:
        solve_two_phase(query(bp, [1.0, 2.0], level=1e-9))
    assert len(exc.value.sweep) == 2


def test_warm_sweep_is_deterministic():
    """Each point's solve starts from the previous point's controls; two
    walks of the grid give the same points, iteration logs included."""
    bp = linear_benchmark()
    grid = [1.0, 2.0, 4.0, 8.0]
    first = query(bp, grid).sweep()
    again = query(bp, grid).sweep()
    assert [pt.transfer_time for pt in first] == grid
    for a, b in zip(first, again):
        assert a.transfer_time == b.transfer_time
        assert a.total_cost == b.total_cost
        assert a.in_set == b.in_set
        assert a.report.iterations == b.report.iterations


def test_sweep_records_solver_failures_without_raising():
    bp = linear_benchmark()
    # non-multiple transfer time triggers a recorded per-point failure
    points = query(bp, [0.5, 1.0]).sweep()
    assert points[0].failed and not points[1].failed


def test_grid_must_be_ascending():
    bp = linear_benchmark()
    for grid in ([2.0, 1.0], [1.0, 1.0], []):
        problem = query(bp, grid)
        for ask in (problem.sweep, lambda: solve_two_phase(problem), lambda: convergence_study(problem, [1.0])):
            with pytest.raises(ValueError, match="non-empty and ascending"):
                ask()


@pytest.mark.parametrize(
    "level,grid,message",
    [(0.0, [1.0], "positive and finite"), (float("nan"), [1.0], "positive and finite"), (None, [], "ascending")],
)
def test_solve_two_phase_validation(level, grid, message):
    # the terminal set rejects the level when the problem states it; the
    # walk rejects the grid
    with pytest.raises(ValueError, match=message):
        solve_two_phase(query(linear_benchmark(), grid, level=level))


@pytest.mark.parametrize("level", [0.0, -1.0, float("nan")])
def test_convergence_study_rejects_a_non_positive_level(level):
    with pytest.raises(ValueError, match="positive levels"):
        convergence_study(linear_benchmark(), [1.0, level])


def default_sweep(scenario):
    problem = build_problem(parse_config_dict({"scenario": scenario}))
    return problem, problem.sweep()


@pytest.fixture(scope="module")
def attitude_sweep():
    return default_sweep("attitude")


def roll_to_state_tol(problem, pt, stop):
    """The point's terminal state rolled to state_tol with no early stop, and
    the membership verdict of its tail-closed cost."""
    x = pt.report.trajectory.states[-1]
    design = problem.design_for(pt.transfer_time)
    full = regulation_rollout(problem.model, x, design, problem.cost, stop)
    predicted = design.predicted_cost(x)
    band = stop.tolerance * max(predicted, PREDICTION_FLOOR)
    within_tol = not full.diverged and abs(full.cost + full.tail - predicted) <= band
    return full, within_tol and (stop.level is None or predicted <= stop.level)


def test_attitude_tail_closes_the_late_grid_points(attitude_sweep):
    # rolled to ||z|| < 1e-6 without the tail these read 1.8 % and 2.0 % off
    _, points = attitude_sweep
    late = {round(pt.transfer_time, 6): pt for pt in points}
    for T in (170.8, 200.0):
        pt = late[T]
        assert pt.in_set
        assert abs(pt.regulation_cost - pt.terminal_value) <= 1e-8 * pt.terminal_value


def test_attitude_sweep_costs_match_rolling_to_state_tol(attitude_sweep):
    # a member's cost is the full roll's; a non-member stopped once its
    # verdict was decided, and the full roll's cost lies in its bracket
    problem, points = attitude_sweep
    decided = 0
    for pt in points:
        full, member = roll_to_state_tol(problem, pt, problem.terminal_set)
        closed = full.cost + full.tail
        rollout = pt.membership.rollout
        assert rollout.steps <= full.steps
        assert pt.in_set == member
        if pt.in_set:
            assert abs(pt.regulation_cost - closed) <= 1e-9 * closed
        else:
            assert rollout.cost <= closed <= rollout.cost + 2.0 * rollout.tail
            decided += rollout.decided
        assert pt.total_cost == pt.ilqr_cost + pt.regulation_cost
    assert decided == 8


def test_rendezvous_sweep_verdicts_match_rolling_to_state_tol():
    # the attitude sweep's verdicts are checked with its costs above
    problem, points = default_sweep("rendezvous")
    for pt in points:
        assert pt.in_set == roll_to_state_tol(problem, pt, problem.terminal_set)[1]


def test_linear_benchmark_verdicts_match_rolling_to_state_tol():
    # the walks behind `convergence` (level-free) and `verify` (level 0.002)
    bp = linear_benchmark()
    defaults = scenario_defaults("custom-linear")
    verify = linear_benchmark(
        dataclasses.replace(
            defaults, horizon=20.0, terminal_set=dataclasses.replace(defaults.terminal_set, level=0.002)
        )
    )
    assert verify.grid == tuple(steps(20))
    walks = [(bp.sweep(), bp.terminal_set), (solve_two_phase(verify).sweep, verify.terminal_set)]
    for points, stop in walks:
        for pt in points:
            assert pt.in_set == roll_to_state_tol(bp, pt, stop)[1]


def test_attitude_membership_is_not_monotone(attitude_sweep):
    _, points = attitude_sweep
    first = next(pt.transfer_time for pt in points if pt.in_set)
    assert first == 22.0
    assert membership_switches(points) == pytest.approx([25.8, 41.3])


def test_membership_switches():
    def points(flags):
        return [SimpleNamespace(transfer_time=float(i), in_set=f) for i, f in enumerate(flags)]

    assert membership_switches(points([])) == []
    assert membership_switches(points([False, False])) == []
    assert membership_switches(points([False, True, True])) == []
    assert membership_switches(points([False, True, False, False, True, False])) == [2.0, 4.0, 5.0]


@pytest.mark.parametrize("q,r", [([1.0] * 5, [1.0] * 3), ([1.0] * 6, np.eye(2))])
def test_weight_shape_is_validated(q, r):
    with pytest.raises(ValueError, match="expected"):
        attitude_problem(dataclasses.replace(scenario_defaults("attitude"), q=q, r=r))


@pytest.mark.parametrize("cap", [1000.0, np.finfo(float).max])
@pytest.mark.parametrize("caller", ["ilqr.rollout", "lqr.regulation_rollout", "two_phase_simulate"])
def test_every_cost_cap_trips_at_the_same_step(caller, cap):
    """One diverging input for the three priced loops: x+ = 2x + u under
    u = -x/2 from x = 1, stage cost x^2 + u^2. The state grows by 1.5 a step
    and stays finite while its cost overflows, so at the largest float cap
    only the non-finite running sum trips. Each caller stops at the first step
    whose running sum, in step order, is non-finite or above the cap: a
    candidate is rejected whole, and the regulation rollout and the closed
    loop keep the tripping step, as a test after each applied step does."""
    model = lti_model([[2.0]], [[1.0]])
    spec = QuadraticCostSpec(Q=[[2.0]], R=[[2.0]])
    design = RegulationDesign(LqrSolution(np.eye(1), np.array([[0.5]]), 1.5, 0.0, 0), np.arange(1), 1)
    # the cost overflows near step 880, the state near step 1750
    stop = TerminalSetSpec(regulation_cap=1200, cost_cap=cap)
    x0 = np.array([1.0])
    with np.errstate(over="ignore"):
        X, U, message = simulate(model, x0, regulation_law(design, stop.state_tol), stop.regulation_cap)
    assert not message
    costs = stage_costs(X[:-1], U, spec)
    running, trip = 0.0, None
    for t, c in enumerate(costs):
        running += float(c)
        if not math.isfinite(running) or running > cap:
            trip = t
            break
    assert trip is not None and 1 <= trip < len(U) - 1

    if caller == "ilqr.rollout":  # a candidate that trips anywhere is rejected
        terminal = TerminalValue(np.eye(1))
        assert rollout(model, x0, U[:trip], spec, terminal, cap) is not None
        assert rollout(model, x0, U[: trip + 1], spec, terminal, cap) is None
    elif caller == "lqr.regulation_rollout":
        with np.errstate(over="ignore"):
            out = regulation_rollout(model, x0, design, spec, stop)
        assert out.diverged and "exceeded cap" in out.message
        assert out.steps == trip + 1 and out.cost == running
        assert np.array_equal(out.states, X[: trip + 2])
    else:
        problem = TwoPhaseProblem(model, spec, x0, lambda T: design, terminal_set=stop)
        nominal = rollout(model, x0, U[:1], spec, TerminalValue(np.eye(1)))
        report = SolveReport(nominal, (), True, "converged")
        with np.errstate(over="ignore"):
            membership = in_terminal_set(model, nominal.states[-1], design, spec, stop)
        solution = TwoPhaseSolution(1.0, 1.0, 0.0, report, design, membership, ())
        closed = two_phase_simulate(problem, solution)
        assert closed.diverged and closed.message.startswith("regulation rollout cost exceeded cap (")
        assert len(closed.controls) == trip + 1
        assert np.array_equal(closed.controls, U[: trip + 1])


def test_warm_walk_points_end_at_a_small_gradient():
    """Newton passes on the attitude leg: every warm-started walk point up
    to T* keeps its curvature and stops with max ||Q_u|| at most 1e-4
    (Gauss-Newton passes alone stopped at 5e-3 to 1e-2). The cold first
    point's first curvature pass fails, so that solve runs Gauss-Newton."""
    solution = solve_two_phase(attitude_problem())
    first, *warm = solution.sweep
    assert solution.transfer_time == 22.0 and len(warm) == 5
    assert (first.report.curvature_used, first.report.curvature_dropped_at) == (False, 1)
    for point in warm:
        report = point.report
        assert (report.curvature_used, report.curvature_dropped_at) == (True, None)
        assert report.iterations[-1].gradient_norm <= 1e-4, point.transfer_time
