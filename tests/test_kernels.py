"""Property tests for the model kernels.

The scalar-math derivatives and the batched Jacobians are checked against
the straightforward numpy formulas kept below as the reference; batched
Jacobians and cost derivatives must equal their per-point evaluations
bitwise and agree with central differences.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spacetraj.cost import AltitudePenaltySpec, QuadraticCostSpec, cost_derivatives
from spacetraj.dynamics import (
    ContinuousModel,
    DiscreteModel,
    finite_diff_jacobians,
    jacobians,
    lti_model,
)
from spacetraj.errors import SingularityError
from spacetraj.models import (
    LANDER_M_SCALE,
    LANDER_R_SCALE,
    LANDER_U_SCALE,
    LANDER_V_SCALE,
    AttitudeParams,
    LanderParams,
    RendezvousParams,
    attitude_deriv,
    attitude_model,
    lander_deriv,
    lander_model,
    rendezvous_deriv,
    rendezvous_model,
)

RTOL = 1e-12
# Tolerance of the analytic-vs-central-difference suites in test_dynamics.
FD_RTOL = 1e-5

KERNEL_SETTINGS = settings(max_examples=30, deadline=None)


# ---------------------------------------------------------------------------
# reference numpy formulas (one point at a time)
# ---------------------------------------------------------------------------

def ref_skew(v):
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def ref_euler_rate_matrix(theta, phi):
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    return np.array([[0.0, sp, cp], [0.0, ct * cp, -ct * sp], [ct, st * sp, st * cp]]) / ct


def ref_rigid_body_partials(x, J):
    theta, phi, w = x[1], x[2], x[3:6]
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    g = sp * w[1] + cp * w[2]
    h = cp * w[1] - sp * w[2]
    D = np.zeros((6, 6))
    D[0:3, 1] = [g * st / ct**2, 0.0, g / ct**2]
    D[0:3, 2] = [h / ct, -g, (st / ct) * h]
    D[0:3, 3:6] = ref_euler_rate_matrix(theta, phi)
    D[3:6, 3:6] = -np.linalg.inv(J) @ (ref_skew(w) @ J - ref_skew(J @ w))
    return D


def ref_attitude_deriv(x, torque, J):
    w = x[3:6]
    angle_rates = ref_euler_rate_matrix(x[1], x[2]) @ w
    wdot = np.linalg.solve(J, -np.cross(w, J @ w) + torque)
    return np.concatenate([angle_rates, wdot])


def ref_attitude_jacobians(x, torque, J):
    dfdu = np.zeros((6, 3))
    dfdu[3:6, :] = np.linalg.inv(J)
    return ref_rigid_body_partials(x, J), dfdu


def ref_inv_cube_grad(r, mu):
    R = np.linalg.norm(r)
    return mu * (np.eye(3) / R**3 - 3.0 * np.outer(r, r) / R**5)


def ref_rendezvous_deriv(x, u, p):
    e_r, e_v, m, r_t, v_t = x[0:3], x[3:6], x[6], x[7:10], x[10:13]
    r_c = r_t - e_r
    R_t, R_c = np.linalg.norm(r_t), np.linalg.norm(r_c)
    e_v_dot = -p.mu * r_t / R_t**3 + p.mu * r_c / R_c**3 - u / m
    return np.concatenate(
        [e_v, e_v_dot, [-p.alpha * np.linalg.norm(u)], v_t, -p.mu * r_t / R_t**3]
    )


def ref_rendezvous_jacobians(x, u, p):
    e_r, m, r_t = x[0:3], x[6], x[7:10]
    G_t = ref_inv_cube_grad(r_t, p.mu)
    G_c = ref_inv_cube_grad(r_t - e_r, p.mu)
    dfdx = np.zeros((13, 13))
    dfdx[0:3, 3:6] = np.eye(3)
    dfdx[3:6, 0:3] = -G_c
    dfdx[3:6, 6] = u / m**2
    dfdx[3:6, 7:10] = G_c - G_t
    dfdx[7:10, 10:13] = np.eye(3)
    dfdx[10:13, 7:10] = -G_t
    dfdu = np.zeros((13, 3))
    dfdu[3:6, :] = -np.eye(3) / m
    if np.linalg.norm(u) > 0.0:
        dfdu[6, :] = -p.alpha * u / np.linalg.norm(u)
    return dfdx, dfdu


def ref_lander_deriv(x, control, p):
    w, v_bar, m = x[3:6], x[9:12], x[12]
    J = p.inertia
    torque = LANDER_M_SCALE * control[0:3]
    u_bar = control[3:6]
    angle_rates = ref_euler_rate_matrix(x[1], x[2]) @ w
    wdot = np.linalg.solve(J, -np.cross(w, J @ w) + torque)
    r_dot = (LANDER_V_SCALE / LANDER_R_SCALE) * v_bar
    v_dot = (LANDER_U_SCALE / LANDER_V_SCALE) * u_bar / m
    v_dot = v_dot + np.array([0.0, 0.0, -p.g_ref / LANDER_V_SCALE])
    m_dot = -LANDER_U_SCALE * np.linalg.norm(u_bar) / (p.isp * p.g_ref)
    return np.concatenate([angle_rates, wdot, r_dot, v_dot, [m_dot]])


def ref_lander_jacobians(x, control, p):
    m, u_bar = x[12], control[3:6]
    Jinv = np.linalg.inv(p.inertia)
    dfdx = np.zeros((13, 13))
    dfdx[0:6, 0:6] = ref_rigid_body_partials(x, p.inertia)
    dfdx[6:9, 9:12] = (LANDER_V_SCALE / LANDER_R_SCALE) * np.eye(3)
    dfdx[9:12, 12] = -(LANDER_U_SCALE / LANDER_V_SCALE) * u_bar / m**2
    dfdu = np.zeros((13, 6))
    dfdu[3:6, 0:3] = LANDER_M_SCALE * Jinv
    dfdu[9:12, 3:6] = (LANDER_U_SCALE / LANDER_V_SCALE) * np.eye(3) / m
    norm_u = np.linalg.norm(u_bar)
    if norm_u > 0.0:
        dfdu[12, 3:6] = -LANDER_U_SCALE * u_bar / (norm_u * p.isp * p.g_ref)
    return dfdx, dfdu


def assert_close(actual, reference, rtol=RTOL):
    """Agreement to `rtol` relative to the largest entry of the reference."""
    scale = max(np.abs(reference).max(), np.finfo(float).tiny)
    np.testing.assert_allclose(actual, reference, rtol=rtol, atol=rtol * scale)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

def vec(n, lo, hi):
    return st.lists(
        st.floats(lo, hi, allow_nan=False, allow_infinity=False), min_size=n, max_size=n
    ).map(np.array)


@st.composite
def spd_inertias(draw):
    """Diagonal or rotated (non-diagonal) inertia, principal moments 500-10000 kg m^2."""
    moments = draw(vec(3, 500.0, 10000.0))
    if draw(st.booleans()):
        return np.diag(moments)
    a, b, c = draw(vec(3, -math.pi, math.pi))
    ca, sa, cb, sb, cc, sc = math.cos(a), math.sin(a), math.cos(b), math.sin(b), math.cos(c), math.sin(c)
    Rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    Ry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    Rx = np.array([[1.0, 0.0, 0.0], [0.0, cc, -sc], [0.0, sc, cc]])
    R = Rz @ Ry @ Rx
    J = R @ np.diag(moments) @ R.T
    return 0.5 * (J + J.T)


def attitude_states():
    # pitch kept 0.05 rad away from the singularity
    return st.tuples(
        vec(1, -math.pi, math.pi),
        vec(1, -math.pi / 2 + 0.05, math.pi / 2 - 0.05),
        vec(1, -math.pi, math.pi),
        vec(3, -0.5, 0.5),
    ).map(np.concatenate)


def lander_states():
    return st.tuples(
        attitude_states(), vec(3, -0.2, 0.2), vec(3, -0.2, 0.2), vec(1, 300.0, 1500.0)
    ).map(np.concatenate)


def rendezvous_states():
    return st.tuples(
        vec(3, -200.0, 200.0),
        vec(3, -2.0, 2.0),
        vec(1, 200.0, 2000.0),
        vec(3, 4000.0, 9000.0),
        vec(3, -8.0, 8.0),
    ).map(np.concatenate)


def trajectories(states, controls, max_len=6):
    """A (T, n) stack of states with a matching (T, m) stack of controls."""
    return st.integers(1, max_len).flatmap(
        lambda T: st.tuples(
            st.lists(states, min_size=T, max_size=T).map(np.array),
            st.lists(controls, min_size=T, max_size=T).map(np.array),
        )
    )


# ---------------------------------------------------------------------------
# scalar derivatives against the reference
# ---------------------------------------------------------------------------

@KERNEL_SETTINGS
@given(x=attitude_states(), torque=vec(3, -500.0, 500.0), J=spd_inertias())
def test_attitude_deriv_matches_reference(x, torque, J):
    assert_close(attitude_deriv(x, torque, AttitudeParams(inertia=J)), ref_attitude_deriv(x, torque, J))


@KERNEL_SETTINGS
@given(x=lander_states(), control=vec(6, -1.0, 1.0), J=spd_inertias())
def test_lander_deriv_matches_reference(x, control, J):
    p = LanderParams(inertia=J)
    assert_close(lander_deriv(x, control, p), ref_lander_deriv(x, control, p))


@KERNEL_SETTINGS
@given(x=rendezvous_states(), u=vec(3, -2.0, 2.0))
def test_rendezvous_deriv_matches_reference(x, u):
    p = RendezvousParams()
    assert_close(rendezvous_deriv(x, u, p), ref_rendezvous_deriv(x, u, p))


# ---------------------------------------------------------------------------
# batched Jacobians: reference, per-point equality, central differences
# ---------------------------------------------------------------------------

def _attitude_case(J):
    p = AttitudeParams(inertia=J)
    return attitude_model(p), lambda x, u: ref_attitude_jacobians(x, u, J)


def _lander_case(J):
    p = LanderParams(inertia=J)
    return lander_model(p), lambda x, u: ref_lander_jacobians(x, u, p)


def _rendezvous_case(J):
    p = RendezvousParams()
    return rendezvous_model(p), lambda x, u: ref_rendezvous_jacobians(x, u, p)


CASES = {
    "attitude": (_attitude_case, attitude_states(), vec(3, -500.0, 500.0)),
    "lander": (_lander_case, lander_states(), vec(6, -1.0, 1.0)),
    "rendezvous": (_rendezvous_case, rendezvous_states(), vec(3, -2.0, 2.0)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_batched_jacobians_match_reference_and_points(name):
    make, states, controls = CASES[name]

    @KERNEL_SETTINGS
    @given(traj=trajectories(states, controls), J=spd_inertias())
    def check(traj, J):
        X, U = traj
        model, ref = make(J)
        batch = jacobians(model, X, U)
        T, n, m = len(X), model.state_dim, model.control_dim
        assert batch.A.shape == (T, n, n) and batch.B.shape == (T, n, m)
        for t in range(T):
            point = jacobians(model, X[t], U[t])
            np.testing.assert_array_equal(batch.A[t], point.A)
            np.testing.assert_array_equal(batch.B[t], point.B)
            dfdx, dfdu = ref(X[t], U[t])
            assert_close(point.A, np.eye(n) + model.dt * dfdx)
            assert_close(point.B, model.dt * dfdu)

    check()


@pytest.mark.parametrize("name", sorted(CASES))
def test_batched_jacobians_match_finite_differences(name):
    make, states, controls = CASES[name]

    # thrust kept off the |u| kink at zero, which a central difference straddles
    away_from_kink = controls.filter(lambda u: np.linalg.norm(u[-3:]) > 1e-2)

    @settings(max_examples=15, deadline=None)
    @given(traj=trajectories(states, away_from_kink, max_len=4))
    def check(traj):
        X, U = traj
        model, _ = make(np.diag([4500.0, 2000.0, 7500.0]))
        batch = jacobians(model, X, U)
        for t in range(len(X)):
            fd = finite_diff_jacobians(model, X[t], U[t])
            errA = np.linalg.norm(batch.A[t] - fd.A) / max(1.0, np.linalg.norm(fd.A))
            errB = np.linalg.norm(batch.B[t] - fd.B) / max(1.0, np.linalg.norm(fd.B))
            assert errA < FD_RTOL and errB < FD_RTOL

    check()


def test_constant_partials_are_broadcast_over_a_trajectory():
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = np.array([[0.0], [0.1]])
    lin = jacobians(lti_model(A, B), np.zeros((5, 2)), np.zeros((5, 1)))
    assert lin.A.shape == (5, 2, 2) and lin.B.shape == (5, 2, 1)
    assert all(np.array_equal(lin.A[t], A) and np.array_equal(lin.B[t], B) for t in range(5))


def test_finite_difference_fallback_loops_over_a_trajectory():
    inner = ContinuousModel(1, 1, lambda x, u: np.array([np.sin(x[0]) + u[0]]))
    model = DiscreteModel(inner=inner, dt=0.2)
    X = np.array([[0.1], [0.5], [-1.2]])
    U = np.array([[0.0], [1.0], [2.0]])
    lin = jacobians(model, X, U)
    for t in range(3):
        point = finite_diff_jacobians(model, X[t], U[t])
        assert np.array_equal(lin.A[t], point.A) and np.array_equal(lin.B[t], point.B)


# ---------------------------------------------------------------------------
# batched cost derivatives
# ---------------------------------------------------------------------------

@KERNEL_SETTINGS
@given(traj=trajectories(vec(4, -3.0, 3.0), vec(2, -3.0, 3.0)), penalized=st.booleans())
def test_batched_cost_derivatives_equal_per_point(traj, penalized):
    X, U = traj
    penalty = AltitudePenaltySpec(weight=100.0, rate=1.0, index=2, coord_scale=2.0) if penalized else None
    Q = np.array([[2.0, 0.3, 0.0, 0.1], [0.3, 1.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.0], [0.1, 0.0, 0.0, 1.5]])
    spec = QuadraticCostSpec(Q=Q, R=np.array([[1.0, 0.2], [0.2, 2.0]]), penalty=penalty)
    batch = cost_derivatives(X, U, spec)
    for t in range(len(X)):
        point = cost_derivatives(X[t], U[t], spec)
        for name in ("l_x", "l_xx", "l_u", "l_uu"):
            np.testing.assert_array_equal(getattr(batch, name)[t], getattr(point, name))


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make_model,n,m", [(attitude_model, 6, 3), (lander_model, 13, 6)])
def test_singularity_guard_raises_inside_batched_jacobians(make_model, n, m):
    X = np.zeros((6, n))
    if n == 13:
        X[:, 12] = 1000.0
    X[:, 3] = 0.1
    X[4, 1] = math.pi / 2
    with pytest.raises(SingularityError) as exc:
        jacobians(make_model(), X, np.zeros((6, m)))
    np.testing.assert_array_equal(exc.value.state, X[4])


def test_non_finite_derivative_raises_in_euler_step():
    x = np.array([0.0, 0.0, 0.0, np.nan, 0.0, 0.0])
    with pytest.raises(SingularityError):
        attitude_model().step(x, np.zeros(3))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_euler_step_raises():
    # the derivative (A - I) x / dt = 1e308 is finite; the new state is not
    model = lti_model([[2.0]], [[1.0]])
    with pytest.raises(SingularityError, match="non-finite state") as exc:
        model.step(np.array([1e308]), np.zeros(1))
    np.testing.assert_array_equal(exc.value.state, [1e308])
