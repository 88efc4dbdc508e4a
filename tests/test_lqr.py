"""Stationary Riccati solution, regulation rollouts, terminal-set membership."""

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_discrete_are

from spacetraj.cost import QuadraticCostSpec, stage_costs
from spacetraj.dynamics import DiscreteModel, lti_model, simulate
from spacetraj.errors import DynamicsDomainError, NotAFixedPointError, StabilizabilityError
import spacetraj.lqr as lqr
from spacetraj.lqr import (
    CHUNK_STEPS,
    DARE_RESIDUAL_MAX,
    TAIL_FRACTION,
    LqrSolution,
    RegulationDesign,
    TerminalSetSpec,
    dare_residual,
    in_terminal_set,
    linearize_at_goal,
    regulation_law,
    regulation_rollout,
    solve_dare,
)
from spacetraj.models import REND_ERROR_INDICES, lander_hover_control, lander_model, rendezvous_model
from spacetraj.scenarios import attitude_problem, linear_benchmark
from support import double_integrator

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def random_lti_draw(n, m, seed):
    """A random pair (A, B) with stage weights (Q, R) from `seed`, and the
    generator, to draw further from."""
    rng = np.random.default_rng(seed)
    A = rng.normal(0.0, 0.6, (n, n))
    B = rng.normal(0.0, 1.0, (n, m))
    Lq = rng.normal(size=(n, n))
    Lr = rng.normal(size=(m, m))
    spec = QuadraticCostSpec(Q=Lq @ Lq.T + 0.1 * np.eye(n), R=Lr @ Lr.T + 0.1 * np.eye(m))
    return A, B, spec, rng


# Draws (n, m, seed) whose doubling P failed the prediction test below: each
# has an unstable open loop, one control and cond(P) from 3e6 to 6e9.
ILL_CONDITIONED_DRAWS = [(4, 1, 2100723), (4, 1, 467), (6, 1, 83347), (4, 1, 113)]


def test_scalar_golden_ratio_fixed_point():
    sol = solve_dare([[1.0]], [[1.0]], [[1.0]], [[1.0]])
    assert sol.P[0, 0] == pytest.approx(GOLDEN, abs=1e-10)
    assert sol.spectral_radius < 1.0
    # K = P/(1+P) = 1/phi
    assert sol.K[0, 0] == pytest.approx(1.0 / GOLDEN, abs=1e-10)


def test_state_dies_in_one_step():
    Q = np.diag([2.0, 3.0])
    sol = solve_dare(np.zeros((2, 2)), np.eye(2), Q, np.eye(2))
    assert np.allclose(sol.P, Q, atol=1e-12)
    assert np.allclose(sol.K, 0.0, atol=1e-12)


def test_double_integrator_matches_value_iteration_oracle():
    m = double_integrator(dt=0.1)
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = np.array([[0.0], [0.1]])
    Q, R = np.eye(2), np.eye(1)
    # independent fixed-point iteration, written out longhand
    P = Q.copy()
    for _ in range(200000):
        S = R + B.T @ P @ B
        P_next = Q + A.T @ P @ A - A.T @ P @ B @ np.linalg.inv(S) @ B.T @ P @ A
        if np.linalg.norm(P_next - P) < 1e-12 * np.linalg.norm(P_next):
            P = P_next
            break
        P = P_next
    sol = solve_dare(A, B, Q, R)
    assert np.allclose(sol.P, P, rtol=1e-10)


def test_dare_matches_scipy():
    rng = np.random.default_rng(2)
    for _ in range(10):
        A = rng.normal(0, 0.6, (3, 3))
        B = rng.normal(0, 1.0, (3, 2))
        Q = np.eye(3)
        R = np.eye(2)
        sol = solve_dare(A, B, Q, R)
        P_ref = solve_discrete_are(A, B, Q, R)
        assert np.allclose(sol.P, P_ref, rtol=1e-8)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 3), st.integers(0, 2**32 - 1))
@example(*ILL_CONDITIONED_DRAWS[1])
@example(*ILL_CONDITIONED_DRAWS[2])
@example(*ILL_CONDITIONED_DRAWS[3])
def test_dare_matches_scipy_on_random_draws(n, m, seed):
    """Every P `solve_dare` returns has a residual within DARE_RESIDUAL_MAX
    and agrees with scipy's to 1e-12 cond(P) relative (norm-wise): both
    err along P's small eigenvectors (measured at most 1.3e-14 cond(P)
    over 4,000 draws, none refused)."""
    A, B, spec, _ = random_lti_draw(n, m, seed)
    Q, R = spec.Q / 2.0, spec.R / 2.0
    try:
        sol = solve_dare(A, B, Q, R)
    except StabilizabilityError as exc:
        assert "Riccati residual" in str(exc), exc
        return
    P_ref = solve_discrete_are(A, B, Q, R)
    assert sol.residual <= DARE_RESIDUAL_MAX
    assert np.linalg.norm(sol.P - P_ref) <= 1e-12 * np.linalg.cond(P_ref) * np.linalg.norm(P_ref)


@pytest.mark.parametrize("draw", ILL_CONDITIONED_DRAWS[1:])
def test_dare_refines_an_ill_conditioned_doubling(draw, monkeypatch):
    """The doubling stops on its relative change at residuals 3.9e-10 to
    4.8e-9; Newton-Kleinman steps bring each under DARE_REFINE_ABOVE."""
    A, B, spec, _ = random_lti_draw(*draw)
    refined = []
    original = lqr._newton_kleinman

    def recording(*args):
        refined.append(dare_residual(*args))
        return original(*args)

    monkeypatch.setattr(lqr, "_newton_kleinman", recording)
    sol = solve_dare(A, B, spec.Q / 2.0, spec.R / 2.0)
    assert len(refined) == 1 and 3e-10 < refined[0] < 5e-9
    assert sol.residual <= lqr.DARE_REFINE_ABOVE
    assert sol.residual == dare_residual(sol.P, A, B, spec.Q / 2.0, spec.R / 2.0)


def test_dare_refuses_a_design_it_cannot_refine():
    """At cond(P) = 6e9 the doubling stops at residual 5.8e-3 and the
    refinement gets no lower than 2.6e-9. Such a P cannot be told apart
    from a wrong one (scipy's own misses a closed-loop step's prediction by
    4.5e-7 relative here), so the design is refused."""
    A, B, spec, _ = random_lti_draw(*ILL_CONDITIONED_DRAWS[0])
    with pytest.raises(StabilizabilityError, match=r"Riccati residual .* above 1e-09 after Newton-Kleinman"):
        solve_dare(A, B, spec.Q / 2.0, spec.R / 2.0)


@pytest.mark.parametrize("scenario", ["attitude", "rendezvous", "custom-linear"])
def test_default_designs_are_not_refined(scenario, monkeypatch):
    """The default designs' doubling residuals (at most 2.5e-16) are under
    DARE_REFINE_ABOVE, so they keep the doubling's bits."""
    from spacetraj.config import parse_config_dict
    from spacetraj.scenarios import build_problem

    def refusing(*args):
        raise AssertionError("refined a default design")

    monkeypatch.setattr(lqr, "_newton_kleinman", refusing)
    p = build_problem(parse_config_dict({"scenario": scenario}))
    for T in p.grid:
        assert p.design_for(T).solution.residual <= lqr.DARE_REFINE_ABOVE


def test_riccati_residual_invariant():
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = np.array([[0.0], [0.1]])
    sol = solve_dare(A, B, np.eye(2), np.eye(1))
    assert sol.residual < 1e-9
    assert dare_residual(sol.P, A, B, np.eye(2), np.eye(1)) < 1e-9


def test_closed_loop_stable_whenever_solve_succeeds():
    rng = np.random.default_rng(4)
    for _ in range(20):
        A = rng.normal(0, 0.8, (4, 4))
        B = rng.normal(0, 1.0, (4, 2))
        sol = solve_dare(A, B, np.eye(4), np.eye(2))
        assert sol.spectral_radius < 1.0


def test_unstabilizable_pair_raises():
    # unstable mode with no control authority
    A = np.diag([2.0, 0.5])
    B = np.array([[0.0], [1.0]])
    with pytest.raises(StabilizabilityError):
        solve_dare(A, B, np.eye(2), np.eye(1), max_iterations=5000)


def test_telescoping_identity_linear_closed_loop():
    # x0' P x0 = N-step accumulated (x'Qx + u'Ru) + x_N' P x_N, any N
    A = np.array([[1.0, 0.2], [0.0, 0.95]])
    B = np.array([[0.0], [0.2]])
    Q, R = np.eye(2), np.eye(1)
    sol = solve_dare(A, B, Q, R)
    x = np.array([1.5, -0.7])
    total = 0.0
    v0 = x @ sol.P @ x
    for _ in range(37):
        u = -sol.K @ x
        total += x @ Q @ x + u @ R @ u
        x = A @ x + B @ u
    assert total + x @ sol.P @ x == pytest.approx(v0, rel=1e-12)


def test_regulation_rollout_from_origin_is_empty():
    bp = linear_benchmark()
    design = bp.design_for(1.0)
    out = regulation_rollout(bp.model, np.zeros(1), design, bp.cost, bp.terminal_set)
    assert out.steps == 0 and out.cost == 0.0 and out.converged


def test_regulation_rollout_matches_quadratic_value():
    bp = linear_benchmark()
    design = bp.design_for(1.0)
    out = regulation_rollout(bp.model, np.array([1.0]), design, bp.cost, bp.terminal_set)
    assert out.converged
    assert out.cost == pytest.approx(GOLDEN, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 1e-12, 1e-8, 1e-4, 1e-2, 0.5]),
    st.integers(1, 400),
)
@example(*ILL_CONDITIONED_DRAWS[0], 0.0, 400)
@example(*ILL_CONDITIONED_DRAWS[1], 0.0, 400)
@example(*ILL_CONDITIONED_DRAWS[2], 0.0, 400)
@example(*ILL_CONDITIONED_DRAWS[3], 0.0, 400)
def test_linear_rolled_cost_plus_tail_is_the_prediction(n, m, seed, fraction, cap):
    """On a linear model the tail closes the rolled cost exactly, wherever
    the rollout stops: at state_tol, on the tail bound, or at the cap. A
    design `solve_dare` refuses (its residual stayed above the bound) has
    nothing to test."""
    A, B, spec, rng = random_lti_draw(n, m, seed)
    try:
        sol = solve_dare(A, B, spec.Q / 2.0, spec.R / 2.0)  # stage cost is x'Qx/2 + u'Ru/2
    except StabilizabilityError:
        return
    design = RegulationDesign(sol, np.arange(n), n)
    x0 = rng.normal(0.0, 2.0, n)
    predicted = design.predicted_cost(x0)
    out = regulation_rollout(
        lti_model(A, B), x0, design, spec, TerminalSetSpec(regulation_cap=cap), fraction * predicted
    )
    assert not out.diverged
    assert out.cost == pytest.approx(float(np.sum(out.stage_costs)), rel=1e-12)
    assert abs(out.cost + out.tail - predicted) <= 1e-9 * predicted
    # and so would any earlier stop
    rolled = np.concatenate([[0.0], np.cumsum(out.stage_costs)])
    tails = np.einsum("ti,ij,tj->t", out.states, sol.P, out.states)
    assert np.all(np.abs(rolled + tails - predicted) <= 1e-9 * predicted)
    z = out.states[-1]
    assert out.tail == pytest.approx(float(z @ sol.P @ z), rel=1e-12)
    if out.converged and np.linalg.norm(z) >= 1e-6:
        assert out.tail <= fraction * predicted  # stopped on the tail bound


def test_tail_stop_waits_for_the_norm_pretest():
    bp = linear_benchmark()
    design = bp.design_for(1.0)
    assert design.p_min_eigenvalue == pytest.approx(GOLDEN, rel=1e-12)
    bound = 1e-6
    out = regulation_rollout(bp.model, np.array([1.0]), design, bp.cost, bp.terminal_set, bound)
    full = regulation_rollout(bp.model, np.array([1.0]), design, bp.cost, bp.terminal_set)
    assert out.converged and 0 < out.steps < full.steps
    assert out.tail <= bound < design.predicted_cost(out.states[-2])
    # the prefix is the full rollout's, bit for bit
    assert np.array_equal(out.states, full.states[: out.steps + 1])
    assert np.array_equal(out.stage_costs, full.stage_costs[: out.steps])
    assert out.cost + out.tail == pytest.approx(GOLDEN, rel=1e-12)


def test_membership_is_tail_closed():
    bp = linear_benchmark()
    design = bp.design_for(1.0)
    res = in_terminal_set(bp.model, np.array([1.0]), design, bp.cost, bp.terminal_set)
    band = bp.terminal_set.tolerance * GOLDEN
    assert res.member
    assert res.actual_cost == res.rollout.cost + res.rollout.tail
    assert 0.0 < res.rollout.tail <= TAIL_FRACTION * band
    assert abs(res.actual_cost - res.predicted_cost) <= 1e-12 * GOLDEN


def test_membership_origin():
    bp = linear_benchmark()
    res = in_terminal_set(bp.model, np.zeros(1), bp.design_for(1.0), bp.cost, bp.terminal_set)
    assert res.member


def test_membership_linear_below_level():
    bp = linear_benchmark()
    import dataclasses

    stop = dataclasses.replace(bp.terminal_set, level=1.0)
    design = bp.design_for(1.0)
    for x0 in (0.1, 0.5, np.sqrt(1.0 / GOLDEN) * 0.999):
        res = in_terminal_set(bp.model, np.array([x0]), design, bp.cost, stop)
        assert res.member
    res = in_terminal_set(bp.model, np.array([1.0]), design, bp.cost, stop)
    assert not res.member and res.within_tolerance and not res.within_level


def test_membership_monotone_under_regulation_linear():
    bp = linear_benchmark()
    import dataclasses

    stop = dataclasses.replace(bp.terminal_set, level=0.5)
    design = bp.design_for(1.0)
    K = design.solution.K
    x = np.array([0.5])
    for _ in range(10):
        x_next = bp.model.step(x, -K @ x)
        if in_terminal_set(bp.model, x, design, bp.cost, stop).member:
            assert in_terminal_set(bp.model, x_next, design, bp.cost, stop).member
        x = x_next


def test_membership_false_for_far_attitude_state():
    p = attitude_problem()
    design = p.design_for(80.0)
    res = in_terminal_set(p.model, p.x0, design, p.cost, p.terminal_set)
    assert not res.member


@pytest.mark.parametrize("a", [1.3, 0.5])
def test_membership_stops_once_the_verdict_is_decided(a):
    """The scalar benchmark's design (made for x+ = x + u) run on x+ = a x + u:
    the loop costs more (a = 1.3) or less (a = 0.5) than its prediction, so
    the rollout stops at the first state whose bracket [rolled, rolled +
    2 z'Pz] leaves the band, well before the tail bound, with the verdict of
    rolling on to state_tol."""
    bp = linear_benchmark()
    design, stop, x = bp.design_for(1.0), bp.terminal_set, np.array([1.0])
    model = lti_model([[a]], [[1.0]])
    res = in_terminal_set(model, x, design, bp.cost, stop)
    full = regulation_rollout(model, x, design, bp.cost, stop)
    band = stop.tolerance * GOLDEN
    out = res.rollout
    assert out.decided and not (out.converged or out.diverged)
    assert 0 < out.steps < full.steps and out.tail > TAIL_FRACTION * band
    assert np.array_equal(out.states, full.states[: out.steps + 1])
    assert np.array_equal(out.stage_costs, full.stage_costs[: out.steps])
    # the full roll's verdict, and its cost within the tail of the reported one
    closed = full.cost + full.tail
    assert abs(closed - GOLDEN) > band and not (res.member or res.within_tolerance)
    assert abs(res.actual_cost - closed) <= out.tail
    if a > 1.0:  # decided from above, which needs no bracket
        assert out.cost > GOLDEN + band and full.converged
    else:
        assert out.cost + 2.0 * out.tail < GOLDEN - band


def _leaves_domain_above(bound):
    """x+ = 2x + u (dt = 1), whose step is undefined once |x| > bound."""

    def rates(x, u):
        if abs(x[0]) > bound:
            raise DynamicsDomainError(f"|x| above {bound}")
        return [x[0] + u[0]]

    return DiscreteModel(1, 1, rates, 1.0, lambda x, u: (np.eye(1), np.eye(1)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "model,gain,cap,steps,outcome",
    [
        (lti_model([[1.0]], [[1.0]]), 0.01, 2000, 1375, "converged"),
        (lti_model([[1.0]], [[1.0]]), 0.01, 150, 150, "step cap"),
        (lti_model([[2.0]], [[1.0]]), 0.5, 1200, 876, "cost cap"),
        (_leaves_domain_above(1e50), 0.5, 1200, 285, "domain"),
    ],
)
def test_chunked_rollout_keeps_the_rows_of_one_loop(model, gain, cap, steps, outcome):
    """The rollout runs `simulate` in chunks of CHUNK_STEPS, each priced by
    its own `stage_costs` call; every kept row is bitwise that of one loop
    priced once, wherever the stop falls. The cost-cap case is x+ = 2x + u
    under u = -x/2 with the cap at the largest float: the overflow of the
    cost (and of the law's z'z) ends it as diverged, without numpy warnings,
    and keeps the tripping control with the state it led to. The domain case
    keeps the control whose step failed, which has no successor state."""
    spec = QuadraticCostSpec(Q=[[2.0]], R=[[2.0]])
    design = RegulationDesign(LqrSolution(np.eye(1), np.array([[gain]]), 0.0, 0.0, 0), np.arange(1), 1)
    stop = TerminalSetSpec(regulation_cap=cap, cost_cap=sys.float_info.max)
    x0 = np.array([1.0])
    out = regulation_rollout(model, x0, design, spec, stop)
    with np.errstate(over="ignore"):
        X, U, message = simulate(model, x0, regulation_law(design, stop.state_tol), cap)
        costs = stage_costs(X[: len(U)], U, spec)
        running = np.cumsum(costs)
    assert out.steps == steps > CHUNK_STEPS
    assert len(out.states) == (steps if outcome == "domain" else steps + 1)
    assert np.array_equal(out.states, X[: len(out.states)])
    assert np.array_equal(out.controls, U[:steps])
    assert np.array_equal(out.stage_costs, costs[:steps])
    assert out.cost == running[steps - 1]
    assert out.converged == (outcome == "converged")
    assert out.diverged == (outcome in ("cost cap", "domain")) and not out.decided
    # the cap trips at the first non-finite running sum, which the loop stepped past
    assert np.isfinite(running[steps - 2]) and (outcome != "cost cap" or not np.isfinite(running[steps - 1]))
    assert bool(message) == (outcome == "domain")


def _excluding_ball(model, radius):
    """`model` with its step undefined once max|x| < radius, so a regulated
    loop leaves the domain on its way to the origin."""

    def rates(x, u):
        if max(map(abs, x)) < radius:
            raise DynamicsDomainError(f"max|x| below {radius}")
        return model.rates(x, u)

    return dataclasses.replace(model, rates=rates)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("stop_at", ["converged", "tail", "decided", "cap", "domain"])
def test_every_stop_reports_the_running_sum_of_its_rows(stop_at, n, m, seed):
    """One rule for every stop of a regulation rollout on a generated linear
    draw under its own design: `cost` is the last running sum of
    `stage_costs`, and each control has its successor state except the one
    whose step left the domain."""
    rng = np.random.default_rng(seed)
    A, B = rng.normal(0.0, 0.6, (n, n)), rng.normal(0.0, 1.0, (n, m))
    Lq, Lr = rng.normal(size=(n, n)), rng.normal(size=(m, m))
    spec = QuadraticCostSpec(Q=Lq @ Lq.T + 0.1 * np.eye(n), R=Lr @ Lr.T + 0.1 * np.eye(m))
    try:
        sol = solve_dare(A, B, spec.Q / 2.0, spec.R / 2.0)
    except StabilizabilityError:
        return
    design = RegulationDesign(sol, np.arange(n), n)
    model, x0 = lti_model(A, B), rng.normal(0.0, 2.0, n)
    predicted = design.predicted_cost(x0)
    stop, kwargs = TerminalSetSpec(), {}
    if stop_at == "tail":
        kwargs["tail_bound"] = 1e-3 * predicted
    elif stop_at == "decided":  # the loop costs its prediction, far below the band
        kwargs["band"] = (10.0 * predicted, 11.0 * predicted)
    elif stop_at == "cap":
        stop = TerminalSetSpec(cost_cap=0.5 * predicted)
    elif stop_at == "domain":
        model = _excluding_ball(model, 0.5 * np.abs(x0).max())
    out = regulation_rollout(model, x0, design, spec, stop, **kwargs)

    assert out.steps > 0 and out.cost == np.cumsum(out.stage_costs)[-1]
    assert len(out.states) == out.steps + (stop_at != "domain")
    assert out.converged == (stop_at in ("converged", "tail"))
    assert out.decided == (stop_at == "decided")
    assert out.diverged == (stop_at in ("cap", "domain"))
    if stop_at == "tail":
        assert 0.0 < out.tail <= kwargs["tail_bound"]
    if stop_at == "cap":
        assert out.cost > stop.cost_cap >= out.cost - out.stage_costs[-1]


def _check_resume(model, x0, design, spec):
    """Roll from `x0` to a tail stop, then resume from its state with its
    running cost and step count: under each stop (the defaults, a cost cap
    between the tail stop's cost and the full roll's, a step cap the first
    roll used up) the two pieces are one band-less rollout from `x0`, bit
    for bit. Returns the first roll and the one rollout of each stop."""
    tail_bound = 1e-3 * design.predicted_cost(x0)
    first = regulation_rollout(model, x0, design, spec, TerminalSetSpec(), tail_bound)
    assert first.converged and first.steps > 0 and first.tail <= tail_bound
    whole = regulation_rollout(model, x0, design, spec, TerminalSetSpec())
    wants = []
    for stop in (
        TerminalSetSpec(),
        TerminalSetSpec(cost_cap=0.5 * (first.cost + whole.cost)),
        TerminalSetSpec(regulation_cap=first.steps),
    ):
        want = regulation_rollout(model, x0, design, spec, stop)
        rest = regulation_rollout(model, first.states[-1], design, spec, stop, start=(first.cost, first.steps))
        assert np.array_equal(np.concatenate((first.states, rest.states[1:])), want.states)
        assert np.array_equal(np.concatenate((first.controls, rest.controls)), want.controls)
        assert np.array_equal(np.concatenate((first.stage_costs, rest.stage_costs)), want.stage_costs)
        assert (rest.cost, rest.tail, rest.converged, rest.diverged, rest.message) == (
            want.cost,
            want.tail,
            want.converged,
            want.diverged,
            want.message,
        )
        wants.append(want)
    # the step cap: nothing was left to resume, and the cap has run out
    assert rest.steps == 0 and rest.controls.shape == (0, model.control_dim) and not rest.converged
    return first, wants


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_a_resumed_rollout_is_one_rollout(n, m, seed):
    """`start` = (cost, steps) continues a stopped rollout: on a generated
    linear draw under its own design, a tail stop resumed to the end gives
    one band-less rollout's states, controls, stage costs, cost and cap
    trip."""
    rng = np.random.default_rng(seed)
    A, B = rng.normal(0.0, 0.6, (n, n)), rng.normal(0.0, 1.0, (n, m))
    Lq, Lr = rng.normal(size=(n, n)), rng.normal(size=(m, m))
    spec = QuadraticCostSpec(Q=Lq @ Lq.T + 0.1 * np.eye(n), R=Lr @ Lr.T + 0.1 * np.eye(m))
    try:
        sol = solve_dare(A, B, spec.Q / 2.0, spec.R / 2.0)
    except StabilizabilityError:
        return
    _check_resume(lti_model(A, B), rng.normal(0.0, 2.0, n), RegulationDesign(sol, np.arange(n), n), spec)


def test_a_resumed_attitude_rollout_is_one_rollout():
    p = attitude_problem()
    first, (whole, capped, _) = _check_resume(p.model, 0.05 * p.x0, p.design_for(22.0), p.cost)
    assert whole.converged and whole.steps > first.steps > 0
    # the cost cap trips after the resume, on the resumed steps
    assert capped.diverged and whole.steps > capped.steps > first.steps
    assert capped.message.startswith("regulation rollout cost exceeded cap (")


def test_linearize_at_goal_attitude():
    p = attitude_problem()
    lin = linearize_at_goal(p.model, np.zeros(6), np.zeros(3))
    assert np.linalg.matrix_rank(lin.A) == 6
    # rate coupling at zero attitude: yaw<-w3, pitch<-w2, roll<-w1
    assert np.allclose(lin.A[0:3, 3:6], p.model.dt * np.eye(3)[::-1])


def test_linearize_at_goal_rendezvous_error_subsystem():
    # the error block of the full model at zero error on a moving target
    m = rendezvous_model()
    x = np.concatenate([np.zeros(6), [1000.0], [7000.0, 0.0, 0.0], [0.0, 7.5, 0.0]])
    lin = linearize_at_goal(m, x, np.zeros(3), REND_ERROR_INDICES)
    assert lin.A.shape == (6, 6) and lin.B.shape == (6, 3)
    full = linearize_at_goal(m, x, np.zeros(3), np.arange(7))  # error block and mass
    assert np.array_equal(full.A[:6, :6], lin.A) and np.array_equal(full.B[:6], lin.B)


def test_linearize_at_goal_rejects_lander_rest_point():
    from spacetraj.models import LanderParams

    params = LanderParams()
    m = lander_model(params)
    x = np.zeros(13)
    x[12] = 1000.0
    with pytest.raises(NotAFixedPointError):
        linearize_at_goal(m, x, np.zeros(6))  # gravity accelerates the free lander
    with pytest.raises(NotAFixedPointError):
        # hover thrust freezes position but keeps burning mass
        linearize_at_goal(m, x, lander_hover_control(1000.0, params))


def test_regulation_design_embedding():
    sol = solve_dare([[1.0]], [[1.0]], [[1.0]], [[1.0]])
    design = RegulationDesign(solution=sol, indices=np.array([2]), state_dim=4)
    x = np.array([9.0, 9.0, 0.5, 9.0])
    assert design.predicted_cost(x) == pytest.approx(GOLDEN * 0.25)
    P_full = design.P_full
    assert P_full.shape == (4, 4) and P_full[2, 2] == pytest.approx(GOLDEN)
    assert P_full.sum() == pytest.approx(P_full[2, 2])


def _attitude_pair():
    p = attitude_problem()
    lin = linearize_at_goal(p.model, np.zeros(6), np.zeros(3))
    return lin.A, lin.B, p.cost.Q / 2.0, p.cost.R / 2.0


def test_doubling_converges_near_the_stability_boundary():
    # R scaled by 1e6 puts the closed loop at spectral radius 0.9998, where
    # value iteration needed 43,715 steps
    A, B, Q, R = _attitude_pair()
    sol = solve_dare(A, B, Q, 1e6 * R)
    assert sol.iterations <= 64
    assert sol.residual < 1e-12
    assert 0.999 < sol.spectral_radius < 1.0
    # scipy carries ~1e-8 relative noise on entries that are structurally
    # zero here (its own residual is 4.8e-11), so compare norm-wise
    P_ref = solve_discrete_are(A, B, Q, 1e6 * R)
    assert np.linalg.norm(sol.P - P_ref) <= 1e-6 * np.linalg.norm(P_ref)


def test_default_attitude_design_takes_few_doublings():
    sol = attitude_problem().design_for(22.0).solution
    assert sol.iterations <= 20
    A, B, Q, R = _attitude_pair()
    assert np.allclose(sol.P, solve_discrete_are(A, B, Q, R), rtol=1e-8, atol=1e-8 * np.abs(sol.P).max())


def test_doubling_cap_is_a_stabilizability_error():
    A, B, Q, R = _attitude_pair()
    with pytest.raises(StabilizabilityError, match="did not converge in 3 doublings"):
        solve_dare(A, B, Q, R, max_iterations=3)


@pytest.mark.parametrize(
    "indices,take",
    [([0, 1, 2], slice(0, 3)), ([2, 3], slice(2, 4)), ([0, 2], None), ([1, 0], None)],
)
def test_contiguous_regulated_block_is_a_view(indices, take):
    k = len(indices)
    solution = solve_dare(np.eye(k), np.eye(k), np.eye(k), np.eye(k))
    design = RegulationDesign(solution, np.array(indices), 4)
    x = np.array([1.0, -2.0, 3.0, -4.0])
    z = design.regulated(x)
    assert np.array_equal(z, x[indices])
    assert np.shares_memory(z, x) == (take is not None)
    if take is not None:
        assert design.take == take
    P_full = np.zeros((4, 4))
    P_full[np.ix_(indices, indices)] = solution.P
    assert np.array_equal(design.P_full, P_full)
