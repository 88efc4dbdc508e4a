"""Transfer-time sweep, hitting-time selection, closed-loop simulation,
level convergence, and Bellman/Lyapunov diagnostics."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from spacetraj.config import build_two_phase_problem, default_sweep_grid, parse_config_dict
from spacetraj.dynamics import ContinuousModel, DiscreteModel
from spacetraj.errors import HittingTimeNotFoundError
from spacetraj.lqr import regulation_rollout
from spacetraj.scenarios import attitude_problem, benchmark_grid, linear_benchmark
from spacetraj.two_phase import (
    bellman_check,
    convergence_study,
    lyapunov_decreasing,
    membership_switches,
    solve_two_phase,
    sweep_transfer_time,
    two_phase_simulate,
)

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def test_sweep_from_origin_all_points_trivial():
    bp = dataclasses.replace(linear_benchmark(), x0=np.zeros(1))
    points = sweep_transfer_time(bp, [1.0, 2.0, 3.0])
    for pt in points:
        assert pt.total_cost == pytest.approx(0.0, abs=1e-12)
        assert pt.in_set
    sol = solve_two_phase(bp, level=0.1, grid=[1.0, 2.0, 3.0])
    assert sol.transfer_time == 1.0


def test_sweep_points_carry_cost_identity():
    bp = linear_benchmark()
    for pt in sweep_transfer_time(bp, [1.0, 3.0, 6.0]):
        assert pt.total_cost == pytest.approx(pt.ilqr_cost + pt.regulation_cost, abs=1e-12)


def test_objective_gap_bounded_by_level_difference():
    bp = linear_benchmark()
    grid = benchmark_grid(20)
    small, large = 0.05 * GOLDEN, 0.5 * GOLDEN
    j_small = solve_two_phase(bp, level=small, grid=grid).objective
    j_large = solve_two_phase(bp, level=large, grid=grid).objective
    assert j_large >= j_small - 1e-9
    assert j_large - j_small <= (large - small) + 1e-9


def test_start_inside_terminal_set():
    bp = dataclasses.replace(linear_benchmark(), x0=np.array([0.05]))
    sol = solve_two_phase(bp, level=1.0, grid=benchmark_grid(10))
    assert sol.transfer_time == 1.0
    assert sol.report.trajectory.phase_cost < 0.01


def test_convergence_study_gap_shrinks_to_zero():
    bp = linear_benchmark()
    levels = [GOLDEN * f for f in (0.5, 0.25, 0.1, 0.03, 0.01, 0.001)]
    rows = convergence_study(bp, levels, benchmark_grid(40))
    for row in rows:
        assert row.gap >= -1e-9
        assert row.ideal == pytest.approx(GOLDEN, abs=1e-10)
    assert rows[-1].gap < 1e-3 * GOLDEN
    # larger levels never undercut smaller ones (within solver tolerance)
    objectives = [r.objective for r in rows]
    assert all(a >= b - 1e-8 for a, b in zip(objectives, objectives[1:]))


def test_bellman_residuals_linear_instance():
    bp = linear_benchmark()
    sol = solve_two_phase(bp, level=0.002, grid=benchmark_grid(20))
    checks = bellman_check(bp, sol, steps_to_check=3)
    assert len(checks) == 3 and not any(c.skipped for c in checks)
    for c in checks:
        assert c.residual < 1e-6


def test_bellman_skips_steps_inside_terminal_set():
    # initial state already inside the sublevel set: the scope rule skips it
    bp = dataclasses.replace(linear_benchmark(), x0=np.array([0.05]))
    sol = solve_two_phase(bp, level=0.5, grid=benchmark_grid(20))
    checks = bellman_check(bp, sol, steps_to_check=1)
    assert checks[0].skipped and checks[0].reason == "inside terminal set"


def test_two_phase_simulate_reproduces_nominal_without_perturbation():
    bp = linear_benchmark()
    sol = solve_two_phase(bp, level=0.05, grid=benchmark_grid(20))
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
    sol = solve_two_phase(bp, level=0.05, grid=benchmark_grid(20))
    closed = two_phase_simulate(bp, sol)
    for t in range(len(closed.controls)):
        step = bp.model.step(closed.states[t], closed.controls[t])
        assert np.array_equal(closed.states[t + 1], step)


def test_feedback_beats_open_loop_replay():
    bp = linear_benchmark()
    sol = solve_two_phase(bp, level=0.05, grid=benchmark_grid(20))
    nominal = sol.report.trajectory
    x0 = bp.x0 + 0.05
    closed = two_phase_simulate(bp, sol, x0=x0)
    # open-loop replay of the nominal controls from the perturbed start
    x = x0.copy()
    for t in range(nominal.horizon):
        x = bp.model.step(x, nominal.controls[t])
    T = nominal.horizon
    closed_err = abs(closed.states[T][0] - nominal.states[T][0])
    open_err = abs(x[0] - nominal.states[T][0])
    assert closed_err < open_err


def test_lyapunov_tail_decrease_outside_set():
    bp = linear_benchmark()
    sol = solve_two_phase(bp, level=0.05, grid=benchmark_grid(20))
    closed = two_phase_simulate(bp, sol)
    assert lyapunov_decreasing(closed, sol.design, sol.level)


def test_hitting_time_not_found_carries_sweep():
    bp = linear_benchmark()
    with pytest.raises(HittingTimeNotFoundError) as exc:
        solve_two_phase(bp, level=1e-9, grid=[1.0, 2.0])
    assert len(exc.value.sweep) == 2


def test_cold_sweep_is_deterministic():
    bp = linear_benchmark()
    grid = [1.0, 2.0, 4.0, 8.0]
    first = sweep_transfer_time(bp, grid, warm_start=False)
    again = sweep_transfer_time(bp, grid, warm_start=False)
    assert [pt.transfer_time for pt in first] == grid
    for a, b in zip(first, again):
        assert a.transfer_time == b.transfer_time
        assert a.total_cost == b.total_cost
        assert a.in_set == b.in_set


def test_sweep_records_solver_failures_without_raising():
    bp = linear_benchmark()
    # non-multiple transfer time triggers a recorded per-point failure
    points = sweep_transfer_time(bp, [0.5, 1.0], warm_start=True)
    assert points[0].failed and not points[1].failed


def test_grid_must_be_ascending():
    bp = linear_benchmark()
    with pytest.raises(ValueError, match="ascending"):
        sweep_transfer_time(bp, [2.0, 1.0])
    with pytest.raises(ValueError, match="ascending"):
        sweep_transfer_time(bp, [])


@pytest.mark.parametrize(
    "level,grid,message",
    [(0.0, [1.0], "positive level"), (float("nan"), [1.0], "positive level"), (None, [], "grid")],
)
def test_solve_two_phase_validation(level, grid, message):
    with pytest.raises(ValueError, match=message):
        solve_two_phase(linear_benchmark(), level=level, grid=grid)


@pytest.fixture(scope="module")
def attitude_sweep():
    cfg = parse_config_dict({"scenario": "attitude"})
    problem = build_two_phase_problem(cfg)
    return problem, sweep_transfer_time(problem, default_sweep_grid(cfg))


def test_attitude_tail_closes_the_late_grid_points(attitude_sweep):
    # rolled to ||z|| < 1e-6 without the tail these read 1.8 % and 2.0 % off
    _, points = attitude_sweep
    late = {round(pt.transfer_time, 6): pt for pt in points}
    for T in (170.8, 200.0):
        pt = late[T]
        assert pt.in_set
        assert abs(pt.regulation_cost - pt.terminal_value) <= 1e-8 * pt.terminal_value


def test_attitude_sweep_costs_match_rolling_to_state_tol(attitude_sweep):
    problem, points = attitude_sweep
    for pt in points:
        full = regulation_rollout(
            problem.model,
            pt.report.trajectory.states[-1],
            problem.design_for(pt.transfer_time),
            problem.cost,
            problem.terminal_set,
        )
        closed = full.cost + full.tail
        assert pt.membership.rollout.steps <= full.steps
        assert abs(pt.regulation_cost - closed) <= 1e-9 * closed
        assert pt.total_cost == pt.ilqr_cost + pt.regulation_cost


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


@pytest.mark.filterwarnings("error")
def test_phase_one_stops_at_an_overflowing_state():
    # a finite derivative whose Euler step overflows: the new state is
    # tested, so phase 1 ends diverged instead of running on through inf
    bp = linear_benchmark()
    sol = solve_two_phase(bp, level=0.05, grid=benchmark_grid(20))
    runaway = DiscreteModel(
        ContinuousModel(1, 1, lambda x, u: np.array([1e308]), name="runaway"), dt=1.0
    )
    closed = two_phase_simulate(dataclasses.replace(bp, model=runaway), sol, x0=np.array([1e308]))
    assert closed.diverged and not closed.converged
    assert closed.message.startswith("phase-1 rollout left the dynamics domain")
    assert len(closed.states) == 1 and np.isfinite(closed.states).all()


@pytest.mark.filterwarnings("error")
def test_overflowing_initial_state_diverges_without_warnings():
    # the feedback product and the stage cost overflow before `euler_step`
    # rejects the state; the run reports a divergence, with nothing on stderr
    p = attitude_problem()
    sol = solve_two_phase(p, grid=[22.0])
    x0 = np.array(p.x0, dtype=float)
    x0[0] = 1e308
    closed = two_phase_simulate(p, sol, x0=x0)
    assert closed.diverged and not closed.converged
    assert closed.message.startswith("phase-1 rollout left the dynamics domain")


@pytest.mark.parametrize("q,r", [([1.0] * 5, [1.0] * 3), ([1.0] * 6, np.eye(2))])
def test_weight_shape_is_validated(q, r):
    with pytest.raises(ValueError, match="expected"):
        attitude_problem(q=q, r=r)
