"""Bit-exactness of the hot loops.

`rollout`, `backward_pass`, `forward_pass`, `regulation_rollout`,
`stage_cost` and `two_phase_simulate` are written with ``ndarray.dot``,
scalar `math` tests and a deferred positive-definiteness test. The plain
``@`` formulas they replaced are kept below as the reference; every result
must equal the reference's bit for bit (``np.array_equal``, ``==``), since a
last-bit change can flip whether a marginal solve converges.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spacetraj.ilqr as ilqr
from spacetraj.config import build_landing_problem, parse_config_dict
from spacetraj.cost import (
    AltitudePenaltySpec,
    QuadraticCostSpec,
    TerminalValue,
    stage_cost,
)
from spacetraj.dynamics import jacobians, lti_model
from spacetraj.errors import (
    DynamicsDomainError,
    RegularizationError,
    SingularityError,
    StabilizabilityError,
)
from spacetraj.ilqr import (
    GainSchedule,
    SolverSettings,
    Trajectory,
    backward_pass,
    forward_pass,
    rollout,
    solve_fhocp,
)
from spacetraj.lqr import (
    RegulationDesign,
    RegulationRollout,
    TerminalSetSpec,
    regulation_rollout,
    solve_dare,
)
from spacetraj.scenarios import attitude_problem, rendezvous_problem
from spacetraj.two_phase import (
    ClosedLoopTrajectory,
    solve_two_phase,
    two_phase_simulate,
)

DAMPINGS = (1e-6, 1e-2)
LOOP_SETTINGS = settings(max_examples=25, deadline=None)


# ---------------------------------------------------------------------------
# reference loops (the plain @ formulas, one numpy call per operation)
# ---------------------------------------------------------------------------

def ref_stage_cost(x, u, spec):
    c = 0.5 * (float(x @ spec.Q @ x) + float(u @ spec.R @ u))
    if spec.penalty is not None:
        c += spec.penalty.value(x)
    return c


def ref_rollout(model, x0, controls, spec, terminal, cost_cap=1e30):
    controls = np.asarray(controls, dtype=float)
    T = len(controls)
    states = np.empty((T + 1, model.state_dim))
    states[0] = np.asarray(x0, dtype=float)
    stage_costs = np.empty(T)
    running = 0.0
    for t in range(T):
        stage_costs[t] = ref_stage_cost(states[t], controls[t], spec)
        running += stage_costs[t]
        if not np.isfinite(running) or abs(running) > cost_cap:
            return None
        try:
            states[t + 1] = model.step(states[t], controls[t])
        except (SingularityError, DynamicsDomainError):
            return None
        if not np.all(np.isfinite(states[t + 1])):
            return None
    return Trajectory(states, controls, stage_costs, terminal.value(states[T]))


def _sym(M):
    return 0.5 * (M + M.T)


def ref_backward_pass(traj, model, spec, terminal, regularization):
    """Per-step Cholesky test; looks the linearizations up on `ilqr` at call
    time so a monkeypatched expansion reaches both versions."""
    T = traj.horizon
    n, m = model.state_dim, model.control_dim
    X, U = traj.states[:-1], traj.controls
    lin = ilqr.jacobians(model, X, U)
    der = ilqr.cost_derivatives(X, U, spec)
    ks = np.empty((T, m))
    Ks = np.empty((T, m, n))
    V_x = terminal.gradient(traj.states[T])
    V_xx = terminal.hessian()
    grad_norm = 0.0
    change_lin = 0.0
    change_quad = 0.0
    reg_eye = regularization * np.eye(m)
    for t in range(T - 1, -1, -1):
        A, B = lin.A[t], lin.B[t]
        Q_x = der.l_x[t] + A.T @ V_x
        Q_u = der.l_u[t] + B.T @ V_x
        Q_xx = der.l_xx[t] + A.T @ V_xx @ A
        Q_ux = B.T @ V_xx @ A
        Q_uu = _sym(der.l_uu[t] + B.T @ V_xx @ B) + reg_eye
        try:
            np.linalg.cholesky(Q_uu)
        except np.linalg.LinAlgError:
            raise RegularizationError(
                f"control Hessian not positive definite at step {t} "
                f"with damping {regularization:.3e}"
            )
        gains = -np.linalg.solve(Q_uu, np.column_stack((Q_u, Q_ux)))
        k, K = gains[:, 0], gains[:, 1:]
        ks[t] = k
        Ks[t] = K
        V_x = Q_x + K.T @ Q_uu @ k + K.T @ Q_u + Q_ux.T @ k
        V_xx = _sym(Q_xx + K.T @ Q_uu @ K + K.T @ Q_ux + Q_ux.T @ K)
        grad_norm = max(grad_norm, float(np.linalg.norm(Q_u)))
        change_lin += float(k @ Q_u)
        change_quad += float(k @ Q_uu @ k)
    return GainSchedule(ks, Ks, grad_norm, change_lin, change_quad)


def ref_forward_pass(traj, gains, alpha, model, spec, terminal, cost_cap=1e30):
    T = traj.horizon
    states = np.empty_like(traj.states)
    controls = np.empty_like(traj.controls)
    stage_costs = np.empty(T)
    states[0] = traj.states[0]
    running = 0.0
    for t in range(T):
        controls[t] = (
            traj.controls[t]
            + alpha * gains.feedforward[t]
            + gains.feedback[t] @ (states[t] - traj.states[t])
        )
        stage_costs[t] = ref_stage_cost(states[t], controls[t], spec)
        running += stage_costs[t]
        if not np.isfinite(running) or abs(running) > cost_cap:
            return None
        try:
            states[t + 1] = model.step(states[t], controls[t])
        except (SingularityError, DynamicsDomainError):
            return None
        if not np.all(np.isfinite(states[t + 1])):
            return None
    return Trajectory(states, controls, stage_costs, terminal.value(states[T]))


def ref_regulation_rollout(model, x0, design, spec, stop):
    x = np.array(x0, dtype=float)
    states = [x]
    controls = []
    cost = 0.0
    converged = diverged = False
    message = ""
    for _ in range(stop.regulation_cap):
        if np.linalg.norm(x[design.indices]) < stop.state_tol:
            converged = True
            break
        u = -design.solution.K @ x[design.indices]
        cost += ref_stage_cost(x, u, spec)
        if not np.isfinite(cost) or cost > stop.cost_cap:
            diverged = True
            message = f"regulation cost exceeded cap ({cost:.3e})"
            break
        try:
            x = model.step(x, u)
        except (SingularityError, DynamicsDomainError) as exc:
            diverged = True
            message = f"regulation rollout left the dynamics domain: {exc}"
            break
        if not np.all(np.isfinite(x)):
            diverged = True
            message = "regulation rollout produced non-finite state"
            break
        controls.append(u)
        states.append(x)
    return RegulationRollout(
        states=np.array(states),
        controls=np.array(controls).reshape(len(controls), model.control_dim),
        cost=float(cost),
        converged=converged,
        diverged=diverged,
        message=message,
    )


def ref_two_phase_simulate(problem, solution):
    model, spec = problem.model, problem.cost
    nominal, gains = solution.report.trajectory, solution.report.gains
    design, stop = solution.design, problem.terminal_set
    x = np.array(problem.x0, dtype=float)
    states, controls, costs = [x], [], []
    for t in range(nominal.horizon):
        u = nominal.controls[t] + gains.feedback[t] @ (x - nominal.states[t])
        controls.append(u)
        costs.append(ref_stage_cost(x, u, spec))
        x = model.step(x, u)
        states.append(x)
    converged = False
    for _ in range(stop.regulation_cap):
        if np.linalg.norm(x[design.indices]) < stop.state_tol:
            converged = True
            break
        u = -design.solution.K @ x[design.indices]
        controls.append(u)
        costs.append(ref_stage_cost(x, u, spec))
        x = model.step(x, u)
        states.append(x)
    return np.array(states), np.array(controls), np.array(costs), converged


# ---------------------------------------------------------------------------
# comparison helpers
# ---------------------------------------------------------------------------

def assert_same_trajectory(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None
    assert np.array_equal(got.states, want.states)
    assert np.array_equal(got.controls, want.controls)
    assert np.array_equal(got.stage_costs, want.stage_costs)
    assert got.terminal_cost == want.terminal_cost


def assert_same_gains(got, want):
    assert np.array_equal(got.feedforward, want.feedforward)
    assert np.array_equal(got.feedback, want.feedback)
    assert got.gradient_norm == want.gradient_norm
    assert got.change_linear == want.change_linear
    assert got.change_quadratic == want.change_quadratic


def check_ilqr_loops(model, spec, terminal, x0, controls, alphas=(1.0, 0.7**3)):
    """rollout, then backward and forward passes at each damping, all
    against the reference; returns the last forward candidate."""
    traj = rollout(model, x0, controls, spec, terminal)
    assert_same_trajectory(traj, ref_rollout(model, x0, controls, spec, terminal))
    cand = None
    for damping in DAMPINGS:
        gains = backward_pass(traj, model, spec, terminal, damping)
        assert_same_gains(gains, ref_backward_pass(traj, model, spec, terminal, damping))
        for alpha in alphas:
            cand = forward_pass(traj, gains, alpha, model, spec, terminal)
            assert_same_trajectory(
                cand, ref_forward_pass(traj, gains, alpha, model, spec, terminal)
            )
    return cand


def check_regulation(model, x, design, spec, stop):
    got = regulation_rollout(model, x, design, spec, stop)
    want = ref_regulation_rollout(model, x, design, spec, stop)
    assert np.array_equal(got.states, want.states)
    assert np.array_equal(got.controls, want.controls)
    assert got.cost == want.cost
    assert (got.converged, got.diverged, got.message) == (
        want.converged,
        want.diverged,
        want.message,
    )
    return got


# ---------------------------------------------------------------------------
# scenario trajectories
# ---------------------------------------------------------------------------

def test_attitude_loops_are_bit_exact():
    p = attitude_problem()
    design = p.design_for(22.0)
    terminal = TerminalValue(design.P_full)
    steps = p.steps_for(22.0)
    cand = check_ilqr_loops(p.model, p.cost, terminal, p.x0, p.guess_for(steps))
    # a second linearization around the improved, nonzero-control trajectory
    check_ilqr_loops(p.model, p.cost, terminal, p.x0, cand.controls)
    stop = TerminalSetSpec(regulation_cap=3000)
    out = check_regulation(p.model, 0.05 * p.x0, design, p.cost, stop)
    assert out.converged and out.steps > 100


def test_rendezvous_loops_are_bit_exact():
    p = rendezvous_problem()
    design = p.design_for(300.0)
    terminal = TerminalValue(design.P_full)
    steps = p.steps_for(300.0)
    cand = check_ilqr_loops(p.model, p.cost, terminal, p.x0, p.guess_for(steps))
    stop = TerminalSetSpec(regulation_cap=500)
    check_regulation(p.model, cand.states[-1], design, p.cost, stop)


def test_soft_landing_loops_are_bit_exact():
    p = build_landing_problem(parse_config_dict({"scenario": "soft-landing"}))
    cand = check_ilqr_loops(p.model, p.cost, p.terminal, p.x0, p.hover_controls())
    check_ilqr_loops(p.model, p.cost, p.terminal, p.x0, cand.controls)


def test_two_phase_simulate_is_bit_exact():
    p = attitude_problem()
    solution = solve_two_phase(p, grid=[22.0])
    closed = two_phase_simulate(p, solution)
    states, controls, costs, converged = ref_two_phase_simulate(p, solution)
    assert isinstance(closed, ClosedLoopTrajectory)
    assert np.array_equal(closed.states, states)
    assert np.array_equal(closed.controls, controls)
    assert np.array_equal(closed.stage_costs, costs)
    assert closed.converged == converged and not closed.diverged


def test_divergent_rollout_matches_reference():
    p = attitude_problem()
    design = p.design_for(22.0)
    terminal = TerminalValue(design.P_full)
    huge = np.full((50, 3), 1e3)
    for cap in (1e30, 1e3):
        assert_same_trajectory(
            rollout(p.model, p.x0, huge, p.cost, terminal, cap),
            ref_rollout(p.model, p.x0, huge, p.cost, terminal, cap),
        )
    stop = TerminalSetSpec(regulation_cap=200, cost_cap=1.0)
    out = check_regulation(p.model, p.x0, design, p.cost, stop)
    assert out.diverged


# ---------------------------------------------------------------------------
# generated linear problems
# ---------------------------------------------------------------------------

@st.composite
def lti_problems(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    T = draw(st.integers(1, 25))
    rng = np.random.default_rng(seed)
    A = rng.normal(0.0, 0.6, (n, n))
    B = rng.normal(0.0, 1.0, (n, m))
    Lq = rng.normal(size=(n, n))
    Lr = rng.normal(size=(m, m))
    Q = Lq @ Lq.T + 0.1 * np.eye(n)
    R = Lr @ Lr.T + 0.1 * np.eye(m)
    P = np.diag(rng.uniform(0.0, 3.0, n))
    x0 = rng.normal(0.0, 2.0, n)
    controls = rng.normal(0.0, 0.5, (T, m))
    return lti_model(A, B), QuadraticCostSpec(Q=Q, R=R), TerminalValue(P), x0, controls


@LOOP_SETTINGS
@given(lti_problems())
def test_lti_loops_are_bit_exact(problem):
    model, spec, terminal, x0, controls = problem
    check_ilqr_loops(model, spec, terminal, x0, controls)


@LOOP_SETTINGS
@given(lti_problems())
def test_lti_regulation_is_bit_exact(problem):
    model, spec, _, x0, _ = problem
    lin = jacobians(model, np.zeros(model.state_dim), np.zeros(model.control_dim))
    try:
        sol = solve_dare(lin.A, lin.B, spec.Q / 2.0, spec.R / 2.0)
    except StabilizabilityError:
        return
    design = RegulationDesign(sol, np.arange(model.state_dim), model.state_dim)
    check_regulation(model, x0, design, spec, TerminalSetSpec(regulation_cap=400))


@LOOP_SETTINGS
@given(
    st.integers(1, 13),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_stage_cost_is_bit_exact(n, m, seed, with_penalty):
    rng = np.random.default_rng(seed)
    Lq = rng.normal(size=(n, n))
    Lr = rng.normal(size=(m, m))
    penalty = AltitudePenaltySpec(100.0, 1.0, int(rng.integers(n))) if with_penalty else None
    spec = QuadraticCostSpec(Q=Lq @ Lq.T, R=Lr @ Lr.T + np.eye(m), penalty=penalty)
    for _ in range(10):
        x = rng.normal(0.0, 3.0, n)
        u = rng.normal(0.0, 3.0, m)
        assert stage_cost(x, u, spec) == ref_stage_cost(x, u, spec)


# ---------------------------------------------------------------------------
# the deferred positive-definiteness test
# ---------------------------------------------------------------------------

def _indefinite_at(monkeypatch, steps_and_values):
    """Make l_uu equal `value * I` at the given steps of every expansion."""
    original = ilqr.cost_derivatives

    def patched(x, u, spec):
        der = original(x, u, spec)
        l_uu = np.array(der.l_uu)
        for step, value in steps_and_values:
            l_uu[step] = value * np.eye(l_uu.shape[-1])
        return type(der)(der.l_x, der.l_xx, der.l_u, l_uu)

    monkeypatch.setattr(ilqr, "cost_derivatives", patched)


def _linear_problem(T=20):
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = np.array([[0.0], [0.1]])
    spec = QuadraticCostSpec(Q=np.eye(2), R=np.eye(1))
    return lti_model(A, B), spec, TerminalValue(np.eye(2)), np.array([1.0, -0.5]), np.zeros((T, 1))


@pytest.mark.parametrize(
    "bad",
    [
        [(7, -5.0)],
        [(3, -5.0), (12, -5.0)],  # the latest step is named
        [(19, -5.0)],  # the first step of the sweep
        [(0, -5.0)],  # the last step of the sweep
        [(9, -1e200)],  # overflow past the failing step
        [(9, -np.inf)],
    ],
)
def test_deferred_test_names_the_reference_step(monkeypatch, bad):
    _indefinite_at(monkeypatch, bad)
    model, spec, terminal, x0, controls = _linear_problem()
    traj = rollout(model, x0, controls, spec, terminal)
    with pytest.raises(RegularizationError) as want:
        ref_backward_pass(traj, model, spec, terminal, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RegularizationError) as got:
            backward_pass(traj, model, spec, terminal, 0.0)
    assert str(got.value) == str(want.value)
    assert f"step {max(step for step, _ in bad)} " in str(got.value)


def test_nan_expansion_passes_through_like_the_reference(monkeypatch):
    # Cholesky does not reject a NaN matrix; both versions return NaN gains
    _indefinite_at(monkeypatch, [(9, np.nan)])
    model, spec, terminal, x0, controls = _linear_problem()
    traj = rollout(model, x0, controls, spec, terminal)
    want = ref_backward_pass(traj, model, spec, terminal, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = backward_pass(traj, model, spec, terminal, 0.0)
    assert np.array_equal(got.feedforward, want.feedforward, equal_nan=True)
    assert np.array_equal(got.feedback, want.feedback, equal_nan=True)


def test_solve_escalates_damping_until_the_step_is_fixed(monkeypatch):
    # Q_uu = -5 + B'V_xx B + lambda at step 7 (B'V_xx B < 1): indefinite
    # until lambda reaches 10 (reg_init 1e-6, growth 10)
    _indefinite_at(monkeypatch, [(7, -5.0)])
    model, spec, terminal, x0, _ = _linear_problem()
    calls = []
    original = ilqr.backward_pass

    def counting(*args):
        calls.append(args[-1])
        return original(*args)

    monkeypatch.setattr(ilqr, "backward_pass", counting)
    report = solve_fhocp(model, spec, terminal, x0, 20)
    assert calls[:8] == pytest.approx([1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0])
    assert report.converged and np.isfinite(report.cost)


def test_solve_raises_at_reg_max_when_damping_cannot_fix_it(monkeypatch):
    _indefinite_at(monkeypatch, [(7, -1e9)])
    model, spec, terminal, x0, _ = _linear_problem()
    with pytest.raises(RegularizationError, match="step 7 with damping 1.000e\\+08"):
        solve_fhocp(model, spec, terminal, x0, 20, SolverSettings(reg_max=1e8))
