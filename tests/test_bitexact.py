"""Exactness of the hot loops.

`rollout`, `forward_pass`, `regulation_rollout` and `two_phase_simulate` are
written with ``ndarray.dot`` and scalar `math` tests, step the model through
`euler_step` on the kernel's floats, and price their steps once, after the
loop, with the batched `stage_costs`; `two_phase_simulate` takes its phase 1
from the nominal leg and resumes its phase 2 from the membership rollout.
The plain step-by-step ``@`` formulas are kept below as the reference. The
states, controls, phases, flags and messages of every result must equal the
reference's bit for bit (``np.array_equal``, ``==``), since a last-bit
change can flip whether a marginal solve converges.

Stage costs are the exception on the forward side: `stage_costs` sums each
row's quadratic forms in its own fixed order, which is not the order of
``x @ Q @ x``. Each cost agrees with the reference's to `STAGE_RTOL`
relative to the row's |quadratic part| + |penalty| (measured at most 31
ulps, 6.9e-15, over 200,000 generated rows), and a running sum of them to
`STAGE_RTOL` relative to the sum of those scales plus the number of terms
times the sum itself. A row's cost has the same bits alone or at any offset
of any batch, which `test_stage_costs_match_the_row_reference` checks.

`backward_pass` is the one exception: it runs the same Riccati recursion as
an augmented sweep over z = [u; x; 1] with fewer, larger products, so it is
held to stated float bounds instead. Against the reference's per-step
formulas its gains and predicted-change terms agree to `SWEEP_RTOL` relative
to each quantity's largest entry, and against the same recursion evaluated
in long double (`oracle_backward_pass`) its error is at most twice the
reference's plus `ORACLE_FLOOR` times that largest entry. Both forward
passes are fed the same gains, so everything downstream stays bitwise.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spacetraj.ilqr as ilqr
from spacetraj.config import parse_config_dict
from spacetraj.cost import (
    AltitudePenaltySpec,
    QuadraticCostSpec,
    TerminalValue,
    stage_costs,
)
from spacetraj.dynamics import DiscreteModel, jacobians, lti_model
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
    LqrSolution,
    RegulationDesign,
    RegulationRollout,
    TerminalSetSpec,
    regulation_rollout,
    solve_dare,
)
from spacetraj.scenarios import attitude_problem, build_problem, rendezvous_problem
from spacetraj.two_phase import (
    ClosedLoopTrajectory,
    solve_two_phase,
    two_phase_simulate,
)

DAMPINGS = (1e-6, 1e-2)
LOOP_SETTINGS = settings(max_examples=25, deadline=None)
# Agreement of the augmented sweep with the per-step reference, relative to
# each quantity's largest entry: measured at most 2.6e-14 on the scenario
# trajectories below (3e-15 at attitude T = 2,200) and 5.4e-11 over 6,000
# draws of `lti_problems` at both dampings, whose unstable draws amplify
# rounding over their 25 steps in either evaluation order.
SWEEP_RTOL = 1e-12
GENERATED_SWEEP_RTOL = 1e-9
# Allowance, relative to the largest entry, of the error against the
# long-double oracle: a few ulps where the reference happens to be exact.
ORACLE_FLOOR = 1e-14
# Agreement of `stage_costs` with `ref_stage_cost`, relative to each row's
# |quadratic part| + |penalty| (see the module docstring).
STAGE_RTOL = 1e-13


# ---------------------------------------------------------------------------
# reference loops (the plain @ formulas, one numpy call per operation)
# ---------------------------------------------------------------------------

def ref_stage_cost(x, u, spec):
    c = 0.5 * (float(x @ spec.Q @ x) + float(u @ spec.R @ u))
    if spec.penalty is not None:
        c += spec.penalty.value(x)
    return c


def stage_scales(X, U, spec):
    """|quadratic part| + |penalty| of each row, the scale of `STAGE_RTOL`."""
    scales = [abs(0.5 * (float(x @ spec.Q @ x) + float(u @ spec.R @ u))) for x, u in zip(X, U)]
    if spec.penalty is not None:
        scales = [s + abs(spec.penalty.value(x)) for s, x in zip(scales, X)]
    return np.array(scales)


def assert_costs_close(got, want, X, U, spec):
    """Per-row stage costs within `STAGE_RTOL` of the reference's."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= STAGE_RTOL * stage_scales(X, U, spec))


def assert_sum_close(got, want, X, U, spec):
    """A running sum of stage costs within the bound on its terms."""
    scale = np.sum(stage_scales(X, U, spec)) + len(X) * abs(want)
    assert abs(got - want) <= STAGE_RTOL * scale, (got, want)


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


def _solve_longdouble(M, R):
    """Gaussian elimination with partial pivoting, in the dtype of M and R."""
    M, R = M.copy(), R.copy()
    m = len(M)
    for j in range(m):
        p = j + int(np.argmax(np.abs(M[j:, j])))
        M[[j, p]], R[[j, p]] = M[[p, j]], R[[p, j]]
        f = M[j + 1 :, j] / M[j, j]
        M[j + 1 :] -= np.outer(f, M[j])
        R[j + 1 :] -= np.outer(f, R[j])
    X = np.empty_like(R)
    for j in range(m - 1, -1, -1):
        X[j] = (R[j] - M[j, j + 1 :] @ X[j + 1 :]) / M[j, j]
    return X


def oracle_backward_pass(traj, model, spec, terminal, regularization):
    """The reference recursion in long double, from the same double-precision
    expansion; returns a GainSchedule of long-double arrays and scalars."""
    ld = np.longdouble
    T = traj.horizon
    n, m = model.state_dim, model.control_dim
    X, U = traj.states[:-1], traj.controls
    lin = ilqr.jacobians(model, X, U)
    der = ilqr.cost_derivatives(X, U, spec)
    As, Bs = lin.A.astype(ld), lin.B.astype(ld)
    l_x, l_u = der.l_x.astype(ld), der.l_u.astype(ld)
    l_xx, l_uu = der.l_xx.astype(ld), der.l_uu.astype(ld)
    ks = np.empty((T, m), dtype=ld)
    Ks = np.empty((T, m, n), dtype=ld)
    V_x = terminal.gradient(traj.states[T]).astype(ld)
    V_xx = terminal.hessian().astype(ld)
    grad_norm = change_lin = change_quad = ld(0)
    reg_eye = ld(regularization) * np.eye(m, dtype=ld)
    for t in range(T - 1, -1, -1):
        A, B = As[t], Bs[t]
        Q_x = l_x[t] + A.T @ V_x
        Q_u = l_u[t] + B.T @ V_x
        Q_xx = l_xx[t] + A.T @ V_xx @ A
        Q_ux = B.T @ V_xx @ A
        Q_uu = _sym(l_uu[t] + B.T @ V_xx @ B) + reg_eye
        gains = -_solve_longdouble(Q_uu, np.column_stack((Q_u, Q_ux)))
        k, K = gains[:, 0], gains[:, 1:]
        ks[t] = k
        Ks[t] = K
        V_x = Q_x + K.T @ Q_uu @ k + K.T @ Q_u + Q_ux.T @ k
        V_xx = _sym(Q_xx + K.T @ Q_uu @ K + K.T @ Q_ux + Q_ux.T @ K)
        grad_norm = max(grad_norm, np.sqrt(Q_u @ Q_u))
        change_lin += k @ Q_u
        change_quad += k @ Q_uu @ k
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
    """Rolls to state_tol (no tail stop); the tail is z'Pz where it stops."""
    x = np.array(x0, dtype=float)
    states = [x]
    controls = []
    costs = []
    cost = 0.0
    converged = diverged = False
    message = ""
    for _ in range(stop.regulation_cap):
        if np.linalg.norm(x[design.indices]) < stop.state_tol:
            converged = True
            break
        u = -design.solution.K @ x[design.indices]
        c = ref_stage_cost(x, u, spec)
        cost += c
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
        costs.append(c)
        states.append(x)
    z = x[design.indices]
    return RegulationRollout(
        states=np.array(states),
        controls=np.array(controls).reshape(len(controls), model.control_dim),
        stage_costs=np.array(costs),
        cost=float(cost),
        tail=0.0 if diverged else float(z @ design.solution.P @ z),
        converged=converged,
        diverged=diverged,
        message=message,
    )


def ref_two_phase_simulate(problem, solution):
    """Both phases simulated step by step from the nominal initial state."""
    model, spec = problem.model, problem.cost
    nominal, gains = solution.report.trajectory, solution.report.gains
    design, stop = solution.design, problem.terminal_set
    x = np.array(problem.x0, dtype=float)
    states, controls, costs, phases = [x], [], [], []
    for t in range(nominal.horizon):
        u = nominal.controls[t] + gains.feedback[t] @ (x - nominal.states[t])
        controls.append(u)
        costs.append(ref_stage_cost(x, u, spec))
        phases.append(1)
        x = model.step(x, u)
        states.append(x)
    running = float(np.sum(costs))
    converged = diverged = False
    message = ""
    for _ in range(stop.regulation_cap):
        if np.linalg.norm(x[design.indices]) < stop.state_tol:
            converged = True
            break
        u = -design.solution.K @ x[design.indices]
        controls.append(u)
        c = ref_stage_cost(x, u, spec)
        costs.append(c)
        running += c
        phases.append(2)
        x = model.step(x, u)
        states.append(x)
        if running > stop.cost_cap:
            diverged = True
            message = "regulation diverged"
            break
    return ClosedLoopTrajectory(
        states=np.array(states),
        controls=np.array(controls),
        stage_costs=np.array(costs),
        phases=np.array(phases),
        switch_index=nominal.horizon,
        switch_time=nominal.horizon * model.dt,
        converged=converged,
        diverged=diverged,
        message=message,
    )


# ---------------------------------------------------------------------------
# comparison helpers
# ---------------------------------------------------------------------------

def assert_same_trajectory(got, want, spec):
    if want is None:
        assert got is None
        return
    assert got is not None
    assert np.array_equal(got.states, want.states)
    assert np.array_equal(got.controls, want.controls)
    assert_costs_close(got.stage_costs, want.stage_costs, want.states[:-1], want.controls, spec)
    assert got.terminal_cost == want.terminal_cost


GAIN_FIELDS = ("feedforward", "feedback", "gradient_norm", "change_linear", "change_quadratic")


def gain_errors(got, want):
    """Largest absolute difference of each gain quantity, relative to the
    largest entry of `want`'s (1 where that is zero)."""
    out = {}
    for name in GAIN_FIELDS:
        a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        scale = float(np.max(np.abs(b))) or 1.0
        out[name] = float(np.max(np.abs(a.astype(b.dtype) - b))) / scale
    return out


def assert_gains_within_bounds(got, want, oracle, rtol):
    """`got` (the augmented sweep) against the per-step reference `want` and
    the long-double `oracle` of the same recursion.

    The oracle test compares the worst error over the five quantities: on
    ill-conditioned draws the error of a single quantity moves by more than
    a factor of two with the evaluation order alone (7 of 6,000
    draw-damping pairs, mostly the gradient norm of an unstable draw). The
    worst one moves too: of the pairs whose reference error exceeds 2e-14
    (about 1.2% of 20,000 pairs), each double-precision order tried, this
    sweep's included, lands over twice the reference's on about 2%, as
    rounding amplified over the horizon decides which order comes out
    ahead. The pinned draw `lti_problem(6, 1, 40, 13)` is one: at damping
    1e-6 it measured 3.06e-14 against the reference's 6.8e-15 (2.36e-14
    allowed) with the damping added before the product."""
    assert got.feedforward.shape == want.feedforward.shape
    assert got.feedback.shape == want.feedback.shape
    agreement = gain_errors(got, want)
    assert max(agreement.values()) <= rtol, agreement
    new, ref = gain_errors(got, oracle), gain_errors(want, oracle)
    assert max(new.values()) <= 2.0 * max(ref.values()) + ORACLE_FLOOR, (new, ref)


def check_ilqr_loops(
    model, spec, terminal, x0, controls, alphas=(1.0, 0.7**3), rtol=SWEEP_RTOL
):
    """rollout, then backward and forward passes at each damping, all
    against the reference (the forward passes bitwise, from the same gains);
    returns the last forward candidate."""
    traj = rollout(model, x0, controls, spec, terminal)
    assert_same_trajectory(traj, ref_rollout(model, x0, controls, spec, terminal), spec)
    cand = None
    for damping in DAMPINGS:
        gains = backward_pass(traj, model, spec, terminal, damping)
        assert_gains_within_bounds(
            gains,
            ref_backward_pass(traj, model, spec, terminal, damping),
            oracle_backward_pass(traj, model, spec, terminal, damping),
            rtol,
        )
        for alpha in alphas:
            cand = forward_pass(traj, gains, alpha, model, spec, terminal)
            assert_same_trajectory(
                cand, ref_forward_pass(traj, gains, alpha, model, spec, terminal), spec
            )
    return cand


def assert_same_closed_loop(got, want, spec):
    assert isinstance(got, ClosedLoopTrajectory)
    assert np.array_equal(got.states, want.states)
    assert np.array_equal(got.controls, want.controls)
    X = want.states[: len(want.controls)]
    assert_costs_close(got.stage_costs, want.stage_costs, X, want.controls, spec)
    assert np.array_equal(got.phases, want.phases)
    assert got.phases.dtype == want.phases.dtype
    assert (got.switch_index, got.switch_time) == (want.switch_index, want.switch_time)
    assert (got.converged, got.diverged, got.message) == (
        want.converged,
        want.diverged,
        want.message,
    )


def check_regulation(model, x, design, spec, stop):
    got = regulation_rollout(model, x, design, spec, stop)
    want = ref_regulation_rollout(model, x, design, spec, stop)
    assert np.array_equal(got.states, want.states)
    assert np.array_equal(got.controls, want.controls)
    X, U = want.states[: len(want.controls)], want.controls
    assert_costs_close(got.stage_costs, want.stage_costs, X, U, spec)
    if want.diverged:  # `cost` also holds the cost of the control not applied
        X, U = want.states, np.vstack([U, design.feedback(want.states[-1])])
    assert_sum_close(got.cost, want.cost, X, U, spec)
    assert got.tail == want.tail
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
    assert design.take == slice(0, 6)  # z is a view; the reference copies
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
    assert design.take == slice(0, 6)
    terminal = TerminalValue(design.P_full)
    steps = p.steps_for(300.0)
    cand = check_ilqr_loops(p.model, p.cost, terminal, p.x0, p.guess_for(steps))
    stop = TerminalSetSpec(regulation_cap=500)
    check_regulation(p.model, cand.states[-1], design, p.cost, stop)


def test_soft_landing_loops_are_bit_exact():
    p = build_problem(parse_config_dict({"scenario": "soft-landing"}))
    cand = check_ilqr_loops(p.model, p.cost, p.terminal, p.x0, p.hover_controls())
    check_ilqr_loops(p.model, p.cost, p.terminal, p.x0, cand.controls)


def test_two_phase_simulate_is_bit_exact():
    p = attitude_problem()
    solution = solve_two_phase(dataclasses.replace(p, grid=(22.0,)))
    closed = two_phase_simulate(p, solution)
    assert_same_closed_loop(closed, ref_two_phase_simulate(p, solution), p.cost)
    assert closed.converged and not closed.diverged


@pytest.mark.parametrize("scenario", ["attitude", "rendezvous"])
def test_resumed_closed_loop_is_bit_exact_on_the_default_problem(scenario):
    p = build_problem(parse_config_dict({"scenario": scenario}))
    solution = solve_two_phase(p)
    prefix = solution.membership.rollout
    closed = two_phase_simulate(p, solution)
    assert_same_closed_loop(closed, ref_two_phase_simulate(p, solution), p.cost)
    assert closed.converged and not closed.diverged
    # the membership rollout stopped on its tail, well short of state_tol
    regulated = closed.phases == 2
    assert 0 < prefix.steps < regulated.sum()
    assert np.array_equal(closed.controls[regulated][: prefix.steps], prefix.controls)


def test_cost_cap_trips_on_the_reused_prefix():
    base = attitude_problem()
    solution = solve_two_phase(dataclasses.replace(base, grid=(22.0,)))
    phase1 = solution.report.trajectory.phase_cost
    prefix = solution.membership.rollout
    # the cap admits the membership rollout (regulation cost alone) but not
    # phase 1 plus the first half of it
    cap = phase1 + 0.5 * prefix.cost
    p = dataclasses.replace(
        base, terminal_set=dataclasses.replace(base.terminal_set, cost_cap=cap)
    )
    solution = solve_two_phase(dataclasses.replace(p, grid=(22.0,)))
    assert solution.membership.rollout.steps == prefix.steps
    closed = two_phase_simulate(p, solution)
    assert_same_closed_loop(closed, ref_two_phase_simulate(p, solution), p.cost)
    assert closed.diverged and not closed.converged
    tripped = int(np.sum(closed.phases == 2))
    assert 0 < tripped < prefix.steps
    assert closed.message == "regulation diverged"


def test_divergent_rollout_matches_reference():
    p = attitude_problem()
    design = p.design_for(22.0)
    terminal = TerminalValue(design.P_full)
    huge = np.full((50, 3), 1e3)
    for cap in (1e30, 1e3):
        assert_same_trajectory(
            rollout(p.model, p.x0, huge, p.cost, terminal, cap),
            ref_rollout(p.model, p.x0, huge, p.cost, terminal, cap),
            p.cost,
        )
    stop = TerminalSetSpec(regulation_cap=200, cost_cap=1.0)
    out = check_regulation(p.model, p.x0, design, p.cost, stop)
    assert out.diverged


def test_non_finite_running_cost_rejects_the_rollout_at_any_cap():
    # x+ = 2x stays finite while its cost overflows
    model = lti_model([[2.0]], [[1.0]])
    spec = QuadraticCostSpec(Q=np.eye(1), R=np.eye(1))
    x0, controls = np.array([1e200]), np.zeros((3, 1))
    for cap in (1e30, np.inf):
        with np.errstate(over="ignore"):
            assert ref_rollout(model, x0, controls, spec, TerminalValue(np.eye(1)), cap) is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rollout(model, x0, controls, spec, TerminalValue(np.eye(1)), cap) is None


def test_regulation_leaving_the_domain_matches_reference():
    def rates(x, u):
        if abs(x[0]) > 10.0:
            raise DynamicsDomainError(f"state {x[0]} out of range")
        return [x[0] + u[0]]

    model = DiscreteModel(1, 1, rates, 1.0)
    spec = QuadraticCostSpec(Q=np.eye(1), R=np.eye(1))
    # u = -0.5 x: x grows by 1.5 a step and leaves the domain at step 6
    solution = LqrSolution(np.eye(1), np.array([[0.5]]), 1.5, 0.0, 0)
    design = RegulationDesign(solution, np.arange(1), 1)
    for cap, message in ((1e12, "left the dynamics domain"), (30.0, "exceeded cap")):
        stop = TerminalSetSpec(regulation_cap=50, cost_cap=cap)
        out = check_regulation(model, np.array([1.0]), design, spec, stop)
        assert out.diverged and message in out.message


# ---------------------------------------------------------------------------
# generated linear problems
# ---------------------------------------------------------------------------

def lti_problem(n, m, seed, T):
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


@st.composite
def lti_problems(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    T = draw(st.integers(1, 25))
    return lti_problem(n, m, seed, T)


@LOOP_SETTINGS
@given(lti_problems())
@example(lti_problem(6, 1, 40, 13))
def test_lti_loops_are_bit_exact(problem):
    model, spec, terminal, x0, controls = problem
    check_ilqr_loops(model, spec, terminal, x0, controls, rtol=GENERATED_SWEEP_RTOL)


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
def test_stage_costs_match_the_row_reference(n, m, seed, with_penalty):
    rng = np.random.default_rng(seed)
    Lq = rng.normal(size=(n, n))
    Lr = rng.normal(size=(m, m))
    penalty = AltitudePenaltySpec(100.0, 1.0, int(rng.integers(n))) if with_penalty else None
    spec = QuadraticCostSpec(Q=Lq @ Lq.T, R=Lr @ Lr.T + np.eye(m), penalty=penalty)
    X = rng.normal(0.0, 3.0, (12, n))
    U = rng.normal(0.0, 3.0, (12, m))
    costs = stage_costs(X, U, spec)
    want = np.array([ref_stage_cost(x, u, spec) for x, u in zip(X, U)])
    assert_costs_close(costs, want, X, U, spec)
    # a row gives the same bits alone and at any offset
    for t in range(12):
        assert stage_costs(X[t:], U[t:], spec)[0] == costs[t]
        assert stage_costs(X[t : t + 1], U[t : t + 1], spec)[0] == costs[t]
    assert np.array_equal(stage_costs(X[::-1], U[::-1], spec), costs[::-1])


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


def test_nan_expansion_is_rejected_at_its_step(monkeypatch):
    # Cholesky does not reject a NaN matrix; the batched finiteness test does
    _indefinite_at(monkeypatch, [(9, np.nan)])
    model, spec, terminal, x0, controls = _linear_problem()
    traj = rollout(model, x0, controls, spec, terminal)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RegularizationError, match="at step 9 with damping"):
            backward_pass(traj, model, spec, terminal, 0.0)
        # no damping makes it finite: the solve escalates lambda to reg_max
        with pytest.raises(RegularizationError, match="step 9 with damping 1.000e\\+08"):
            solve_fhocp(model, spec, terminal, x0, 20, SolverSettings(reg_max=1e8))


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
