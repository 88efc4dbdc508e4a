"""Stage cost, altitude penalty, terminal value, and their derivatives."""

import numpy as np
import pytest

from spacetraj.cost import (
    AltitudePenaltySpec,
    QuadraticCostSpec,
    TerminalValue,
    altitude_penalty,
    cost_derivatives,
    stage_costs,
)


def stage_cost(x, u, spec):
    """The cost of one row through the batched `stage_costs`."""
    return float(stage_costs([x], [u], spec)[0])


def fd_gradient(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def fd_hessian_diag(f, x, h=1e-4):
    d = np.zeros_like(x)
    f0 = f(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        d[i] = (f(x + e) - 2 * f0 + f(x - e)) / h**2
    return d


def test_stage_cost_zero_at_origin():
    spec = QuadraticCostSpec(Q=np.eye(3), R=np.eye(2))
    assert stage_cost(np.zeros(3), np.zeros(2), spec) == 0.0


def test_stage_cost_unit_vector():
    spec = QuadraticCostSpec(Q=np.eye(3), R=np.eye(2))
    x = np.array([1.0, 0.0, 0.0])
    assert stage_cost(x, np.zeros(2), spec) == 0.5


def test_stage_cost_matches_double_loop_oracle():
    rng = np.random.default_rng(5)
    M = rng.normal(size=(4, 4))
    Q = M @ M.T + 0.1 * np.eye(4)
    R = np.diag(rng.uniform(0.5, 2.0, 2))
    spec = QuadraticCostSpec(Q=Q, R=R)
    for _ in range(20):
        x = rng.normal(size=4)
        u = rng.normal(size=2)
        # independent componentwise summation
        acc = 0.0
        for i in range(4):
            for j in range(4):
                acc += 0.5 * x[i] * Q[i, j] * x[j]
        for i in range(2):
            for j in range(2):
                acc += 0.5 * u[i] * R[i, j] * u[j]
        assert stage_cost(x, u, spec) == pytest.approx(acc, abs=1e-12)


def test_stage_cost_positive_away_from_origin():
    spec = QuadraticCostSpec(Q=np.eye(2), R=np.eye(1))
    rng = np.random.default_rng(9)
    for _ in range(200):
        x = rng.normal(size=2)
        u = rng.normal(size=1)
        if np.linalg.norm(x) + np.linalg.norm(u) > 0:
            assert stage_cost(x, u, spec) > 0.0


def test_penalty_zero_at_zero_altitude():
    assert altitude_penalty(0.0, 100.0, 1.0) == 0.0


def test_penalty_below_ground_value():
    assert altitude_penalty(-1.0, 100.0, 1.0) == pytest.approx(100.0 * np.e - 100.0, rel=1e-12)


def test_penalty_asymptote():
    assert altitude_penalty(1e3, 100.0, 1.0) == pytest.approx(-100.0, rel=1e-12)


def test_penalty_monotone_and_bounded():
    grid = np.linspace(-5.0, 50.0, 400)
    vals = np.array([altitude_penalty(a, 100.0, 1.0) for a in grid])
    assert np.all(np.diff(vals) <= 0.0)
    # strictly decreasing until exp(-a) saturates in double precision
    head = vals[grid <= 30.0]
    assert np.all(np.diff(head) < 0.0)
    assert np.all(vals >= -100.0)


@pytest.mark.filterwarnings("error")
def test_penalty_with_an_overflowing_rate_is_never_nan():
    # rate^2 * weight overflows: the Hessian is taken in log space, so it is
    # 0 where exp(-rate * altitude) underflows (not inf * 0 = NaN) and inf
    # where the term itself overflows; the terms that still fit stay exact,
    # and what overflows is inf, all without numpy warnings
    pen = AltitudePenaltySpec(weight=100.0, rate=1e300, index=0)
    x = np.array([[1e3], [0.0], [-1.0]])
    assert np.array_equal(pen.hessian_at(x), [0.0, np.inf, np.inf])
    assert np.array_equal(pen.gradient_at(x), [-0.0, -1e302, -np.inf])
    assert np.array_equal(pen.value(x), [-100.0, 0.0, np.inf])
    assert pen.hessian_at(x[0]) == 0.0


@pytest.mark.filterwarnings("error")
def test_overflowing_penalty_coefficients_keep_the_finite_terms():
    # weight * k^2 = -1e400 and weight * k = 1e400 overflow, while the
    # terms at these altitudes are about 5e-35: w * k^2 * exp(-k * a)
    # evaluated in an order that stays in range
    hess = AltitudePenaltySpec(weight=-1e200, rate=1e50, index=0, coord_scale=1e50)
    want = -(1e200 * np.exp(-1e3)) * 1e200
    assert hess.hessian_at(np.array([1e-97])) == pytest.approx(want, rel=1e-12)
    grad = AltitudePenaltySpec(weight=-1e200, rate=1e200, index=0)
    want = (1e200 * np.exp(-1e3)) * 1e200
    assert grad.gradient_at(np.array([[1e-197]]))[0] == pytest.approx(want, rel=1e-12)


def test_derivatives_zero_at_origin():
    spec = QuadraticCostSpec(Q=np.eye(3), R=np.eye(2))
    der = cost_derivatives(np.zeros(3), np.zeros(2), spec)
    assert not der.l_x.any() and not der.l_u.any()


def test_penalty_gradient_at_zero():
    spec = QuadraticCostSpec(
        Q=np.zeros((3, 3)),
        R=np.eye(1),
        penalty=AltitudePenaltySpec(weight=100.0, rate=1.0, index=2),
    )
    der = cost_derivatives(np.zeros(3), np.zeros(1), spec)
    assert der.l_x[2] == pytest.approx(-100.0, rel=1e-12)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(17)
    M = rng.normal(size=(4, 4))
    spec = QuadraticCostSpec(
        Q=M @ M.T,
        R=np.diag(rng.uniform(0.5, 2.0, 3)),
        penalty=AltitudePenaltySpec(weight=100.0, rate=1.0, index=1, coord_scale=2.0),
    )
    for _ in range(100):
        x = rng.normal(0, 1.0, 4)
        u = rng.normal(0, 1.0, 3)
        der = cost_derivatives(x, u, spec)
        # cancellation in the difference quotient floors at eps*|cost|/h, so
        # the control gradient (exactly quadratic, no truncation error) uses
        # a larger step and tolerances scale with the cost magnitude
        scale = max(1.0, abs(stage_cost(x, u, spec)))
        gx = fd_gradient(lambda xx: stage_cost(xx, u, spec), x)
        gu = fd_gradient(lambda uu: stage_cost(x, uu, spec), u, h=1e-4)
        assert np.allclose(der.l_x, gx, rtol=1e-6, atol=1e-6 * max(scale, np.abs(gx).max()))
        assert np.allclose(der.l_u, gu, rtol=1e-6, atol=1e-6 * scale)
        hx = fd_hessian_diag(lambda xx: stage_cost(xx, u, spec), x, h=1e-3)
        assert np.allclose(np.diag(der.l_xx), hx, rtol=1e-4, atol=1e-4 * max(scale, np.abs(hx).max()))


def test_terminal_value_basics():
    assert TerminalValue(np.eye(2)).value(np.zeros(2)) == 0.0
    assert TerminalValue(np.eye(2)).value(np.array([3.0, 4.0])) == 25.0


def test_terminal_gradient_and_hessian():
    P = np.array([[2.0, 0.5], [0.5, 1.0]])
    tv = TerminalValue(P=P)
    x = np.array([1.0, -2.0])
    assert np.allclose(tv.gradient(x), 2 * P @ x)
    assert np.allclose(tv.hessian(), 2 * P)


def test_terminal_reference_offsets_minimum():
    ref = np.array([0.5, -0.5])
    tv = TerminalValue(P=np.eye(2), reference=ref)
    assert tv.value(ref) == 0.0
    assert tv.value(np.zeros(2)) == pytest.approx(0.5)


def test_spec_validation():
    with pytest.raises(ValueError, match="R must be positive definite"):
        QuadraticCostSpec(Q=np.eye(2), R=np.zeros((1, 1)))
    with pytest.raises(ValueError, match="Q must be symmetric"):
        QuadraticCostSpec(Q=np.array([[0.0, 1.0], [0.0, 0.0]]), R=np.eye(1))
    with pytest.raises(ValueError, match="Q must be positive semidefinite"):
        QuadraticCostSpec(Q=-np.eye(2), R=np.eye(1))
    with pytest.raises(ValueError, match="R must be symmetric"):
        QuadraticCostSpec(Q=np.eye(2), R=np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="penalty index 2"):
        QuadraticCostSpec(Q=np.eye(2), R=np.eye(1), penalty=AltitudePenaltySpec(1.0, 1.0, 2))


@pytest.mark.parametrize(
    "P,reference,message",
    [
        (np.array([[1.0, 1.0], [0.0, 1.0]]), None, "symmetric"),
        (-np.eye(2), None, "positive semidefinite"),
        (np.eye(2), np.zeros(3), "reference has shape"),
    ],
)
def test_terminal_value_validation(P, reference, message):
    with pytest.raises(ValueError, match=message):
        TerminalValue(P=P, reference=reference)
