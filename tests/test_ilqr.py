"""Backward/forward passes and the fixed-horizon solve loop."""

import numpy as np
import pytest

from spacetraj.cost import QuadraticCostSpec, TerminalValue
from spacetraj.dynamics import double_integrator, lti_model
from spacetraj.errors import RegularizationError
from spacetraj.ilqr import (
    REG_MIN,
    backward_pass,
    forward_pass,
    rollout,
    solve_fhocp,
)
from spacetraj.lqr import solve_dare
from spacetraj.scenarios import attitude_problem


def finite_horizon_oracle(A, B, Q, R, P_terminal, x0, T):
    """Independent backward Riccati recursion for stage 0.5(x'Qx+u'Ru) and
    terminal x'Px; returns (optimal cost, gain list)."""
    S = 2.0 * P_terminal
    gains = [None] * T
    for t in range(T - 1, -1, -1):
        H = R + B.T @ S @ B
        K = np.linalg.solve(H, B.T @ S @ A)
        gains[t] = K
        S = Q + A.T @ S @ (A - B @ K)
        S = 0.5 * (S + S.T)
    return 0.5 * float(x0 @ S @ x0), gains


def di_problem(T=50, dt=0.1):
    model = double_integrator(dt)
    A = np.array([[1.0, dt], [0.0, 1.0]])
    B = np.array([[0.0], [dt]])
    Q, R = np.eye(2), np.eye(1)
    P_inf = solve_dare(A, B, Q / 2, R / 2).P
    spec = QuadraticCostSpec(Q=Q, R=R)
    terminal = TerminalValue(P=P_inf)
    return model, A, B, Q, R, spec, terminal


def test_backward_pass_gains_match_riccati_recursion():
    model, A, B, Q, R, spec, terminal = di_problem(T=30)
    x0 = np.array([1.0, -0.5])
    us = np.zeros((30, 1))
    traj = rollout(model, x0, us, spec, terminal)
    gains = backward_pass(traj, model, spec, terminal, regularization=0.0)
    _, K_oracle = finite_horizon_oracle(A, B, Q, R, terminal.P, x0, 30)
    for t in range(30):
        assert np.allclose(gains.feedback[t], -np.asarray(K_oracle[t]), rtol=1e-10)


def test_backward_pass_linearizes_the_trajectory_in_one_call(monkeypatch):
    import spacetraj.ilqr as ilqr

    calls = []

    def counting(fn):
        def wrapper(*args):
            states = next(a for a in args if isinstance(a, np.ndarray))
            calls.append((fn.__name__, states.shape))
            return fn(*args)

        return wrapper

    monkeypatch.setattr(ilqr, "jacobians", counting(ilqr.jacobians))
    monkeypatch.setattr(ilqr, "cost_derivatives", counting(ilqr.cost_derivatives))
    model, _, _, _, _, spec, terminal = di_problem()
    traj = rollout(model, np.array([1.0, -0.5]), np.zeros((30, 1)), spec, terminal)
    backward_pass(traj, model, spec, terminal, regularization=0.0)
    assert sorted(calls) == [("cost_derivatives", (30, 2)), ("jacobians", (30, 2))]


def test_forward_pass_single_step_reaches_lqr_optimum():
    model, A, B, Q, R, spec, terminal = di_problem(T=40)
    x0 = np.array([2.0, 1.0])
    traj = rollout(model, x0, np.zeros((40, 1)), spec, terminal)
    gains = backward_pass(traj, model, spec, terminal, regularization=0.0)
    cand = forward_pass(traj, gains, 1.0, model, spec, terminal)
    j_star, _ = finite_horizon_oracle(A, B, Q, R, terminal.P, x0, 40)
    assert cand.total_cost == pytest.approx(j_star, rel=1e-10)


def test_feedforward_zero_at_optimum():
    # on the exactly optimal trajectory the cost gradient vanishes, so the
    # feedforward terms are zero to roundoff
    model, A, B, Q, R, spec, terminal = di_problem(T=25)
    x0 = np.array([1.0, 0.3])
    _, K_oracle = finite_horizon_oracle(A, B, Q, R, terminal.P, x0, 25)
    x = x0.copy()
    us = np.empty((25, 1))
    for t in range(25):
        us[t] = -np.asarray(K_oracle[t]) @ x
        x = model.step(x, us[t])
    traj = rollout(model, x0, us, spec, terminal)
    gains = backward_pass(traj, model, spec, terminal, regularization=0.0)
    assert np.max(np.abs(gains.feedforward)) < 1e-10


def test_single_step_scalar_feedforward_by_hand():
    # x+ = a x + b u, stage 0.5(q x^2 + r u^2), terminal p x^2:
    # k0 = -(r + b * 2p * b)^-1 (r u0 + b * 2p * (a x0 + b u0))
    a, b, q, r, p = 0.9, 0.4, 2.0, 0.5, 1.3
    x0, u0 = 1.7, -0.6
    model = lti_model([[a]], [[b]], dt=1.0)
    spec = QuadraticCostSpec(Q=[[q]], R=[[r]])
    terminal = TerminalValue(P=[[p]])
    traj = rollout(model, np.array([x0]), np.array([[u0]]), spec, terminal)
    gains = backward_pass(traj, model, spec, terminal, regularization=0.0)
    x1 = a * x0 + b * u0
    expected = -(r * u0 + b * 2 * p * x1) / (r + b * 2 * p * b)
    assert gains.feedforward[0, 0] == pytest.approx(expected, rel=1e-12)


def test_forward_pass_identity_update():
    model, A, B, Q, R, spec, terminal = di_problem(T=10)
    traj = rollout(model, np.array([1.0, 1.0]), np.zeros((10, 1)), spec, terminal)
    from spacetraj.ilqr import GainSchedule

    zero_gains = GainSchedule(
        feedforward=np.zeros((10, 1)),
        feedback=np.zeros((10, 1, 2)),
        gradient_norm=0.0,
        change_linear=0.0,
        change_quadratic=0.0,
    )
    cand = forward_pass(traj, zero_gains, 0.0, model, spec, terminal)
    assert np.array_equal(cand.states, traj.states)
    assert np.array_equal(cand.controls, traj.controls)
    assert cand.total_cost == traj.total_cost


def test_converges_in_two_iterations_on_double_integrator():
    model, A, B, Q, R, spec, terminal = di_problem(T=50)
    rng = np.random.default_rng(123)
    for _ in range(5):
        x0 = rng.normal(0, 2.0, 2)
        report = solve_fhocp(model, spec, terminal, x0, 50)
        j_star, _ = finite_horizon_oracle(A, B, Q, R, terminal.P, x0, 50)
        assert report.converged
        assert len(report.iterations) <= 2
        assert report.cost == pytest.approx(j_star, rel=1e-8)


def test_zero_initial_state_converges_immediately():
    model, *_, spec, terminal = di_problem(T=20)
    report = solve_fhocp(model, spec, terminal, np.zeros(2), 20)
    assert report.converged and report.status == "stationary"
    assert len(report.iterations) == 1
    assert report.cost == 0.0
    assert not report.trajectory.controls.any()


def test_monotone_descent_and_feasibility_on_attitude():
    p = attitude_problem()
    steps = int(round(10.0 / p.model.dt))
    design = p.design_for(10.0)
    terminal = TerminalValue(P=design.P_full)
    report = solve_fhocp(p.model, p.cost, terminal, p.x0, steps, p.settings)
    accepted = [rec.cost for rec in report.iterations if rec.accepted]
    assert all(b <= a for a, b in zip(accepted, accepted[1:]))
    # dynamic feasibility is exact: states were produced by these very steps
    traj = report.trajectory
    worst = max(
        np.max(np.abs(traj.states[t + 1] - p.model.step(traj.states[t], traj.controls[t])))
        for t in range(traj.horizon)
    )
    assert worst == 0.0
    # stationarity at convergence, scaled by cost magnitude
    assert report.converged
    final_gains = backward_pass(traj, p.model, p.cost, terminal, REG_MIN)
    assert final_gains.gradient_norm < 1e-3 * max(1.0, abs(report.cost))


def test_total_cost_is_stage_sum_plus_terminal():
    model, *_, spec, terminal = di_problem(T=15)
    report = solve_fhocp(model, spec, terminal, np.array([1.0, 0.0]), 15)
    traj = report.trajectory
    assert traj.total_cost == pytest.approx(float(np.sum(traj.stage_costs)) + traj.terminal_cost, abs=0.0)


def test_deterministic_iteration_log():
    p = attitude_problem()
    steps = int(round(5.0 / p.model.dt))
    terminal = TerminalValue(P=p.design_for(5.0).P_full)
    r1 = solve_fhocp(p.model, p.cost, terminal, p.x0, steps, p.settings)
    r2 = solve_fhocp(p.model, p.cost, terminal, p.x0, steps, p.settings)
    assert len(r1.iterations) == len(r2.iterations)
    for a, b in zip(r1.iterations, r2.iterations):
        assert a == b  # bitwise-identical records
    assert np.array_equal(r1.trajectory.states, r2.trajectory.states)


def test_divergent_initial_guess_raises():
    p = attitude_problem()
    steps = 100
    terminal = TerminalValue(P=p.design_for(10.0).P_full)
    crazy = np.full((steps, 3), 1e9)  # torque that slews straight through the pitch singularity
    with pytest.raises(ValueError, match="divergent"):
        solve_fhocp(p.model, p.cost, terminal, p.x0, steps, p.settings, crazy)


def test_consecutive_line_search_failures_escalate_damping_geometrically(monkeypatch):
    """The k-th rejected line search in a row multiplies lambda by
    REG_GROWTH**k; an accepted step shrinks it and restarts the count."""
    import spacetraj.ilqr as ilqr

    model, _, _, _, _, spec, terminal = di_problem()
    dampings = []
    original_backward, original_forward = ilqr.backward_pass, ilqr.forward_pass

    def recording(traj, model, spec, terminal, regularization):
        dampings.append(regularization)
        return original_backward(traj, model, spec, terminal, regularization)

    trials = 0

    def rejecting(*args, **kwargs):
        nonlocal trials
        trials += 1
        return None if trials in (1, 2, 3, 5, 6) else original_forward(*args, **kwargs)

    monkeypatch.setattr(ilqr, "backward_pass", recording)
    monkeypatch.setattr(ilqr, "forward_pass", rejecting)
    # one trial per line search, so trial i is the line search of iteration i
    monkeypatch.setattr(ilqr, "ALPHAS", (1.0,))
    report = solve_fhocp(model, spec, terminal, np.array([1.0, -0.5]), 50)
    # rejected x3 (x10, x100, x1000), accepted (x0.1), rejected x2 (x10, x100), accepted
    assert dampings[:8] == pytest.approx([1e-6, 1e-5, 1e-3, 1.0, 0.1, 1.0, 100.0, 10.0])
    assert [rec.accepted for rec in report.iterations[:7]] == [
        False, False, False, True, False, False, True
    ]
    assert report.converged


def test_escalation_stops_at_reg_max(monkeypatch):
    import spacetraj.ilqr as ilqr

    model, _, _, _, _, spec, terminal = di_problem()
    monkeypatch.setattr(ilqr, "forward_pass", lambda *args, **kwargs: None)
    monkeypatch.setattr(ilqr, "ALPHAS", (1.0,))
    monkeypatch.setattr(ilqr, "REG_MAX", 1e2)
    report = solve_fhocp(model, spec, terminal, np.array([1.0, -0.5]), 50)
    # 1e-6 -> 1e-5 -> 1e-3 -> 1 -> capped at 1e2, where the next failure stops
    assert [rec.regularization for rec in report.iterations] == pytest.approx(
        [1e-6, 1e-5, 1e-3, 1.0, 1e2]
    )
    assert report.status == "line_search_failed" and not report.converged


def test_singular_control_hessian_is_rejected_at_its_step(monkeypatch):
    """The sweep's solve returns NaN for a singular Q_uu instead of raising;
    the deferred Cholesky test names the step."""
    import spacetraj.ilqr as ilqr

    original = ilqr.cost_derivatives

    def singular_at_step_4(x, u, spec):
        der = original(x, u, spec)
        l_uu = np.array(der.l_uu)
        l_uu[4] = 0.0
        return type(der)(der.l_x, der.l_xx, der.l_u, l_uu)

    monkeypatch.setattr(ilqr, "cost_derivatives", singular_at_step_4)
    # B'V_xx B vanishes for B = 0, so Q_uu at step 4 is exactly zero
    model = lti_model(np.eye(2), np.zeros((2, 1)))
    spec = QuadraticCostSpec(Q=np.eye(2), R=np.eye(1))
    terminal = TerminalValue(np.eye(2))
    traj = rollout(model, np.array([1.0, 2.0]), np.zeros((10, 1)), spec, terminal)
    with pytest.raises(RegularizationError, match="at step 4 with damping 0.000e\\+00"):
        backward_pass(traj, model, spec, terminal, 0.0)
    gains = backward_pass(traj, model, spec, terminal, 1e-3)
    assert np.isfinite(gains.feedforward).all() and np.isfinite(gains.feedback).all()
