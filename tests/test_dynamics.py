"""Euler stepping and Jacobian machinery."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from spacetraj.config import parse_config_dict
from spacetraj.dynamics import (
    DiscreteModel,
    double_integrator,
    euler_step,
    finite_diff_jacobians,
    jacobians,
    lti_model,
)
from spacetraj.errors import SingularityError
from spacetraj.ilqr import rollout
from spacetraj.models import (
    AttitudeParams,
    RendezvousParams,
    attitude_model,
    lander_model,
    rendezvous_model,
)
from spacetraj.scenarios import build_problem


def scalar_integrator(dt=0.1):
    return DiscreteModel(1, 1, lambda x, u: u, dt, lambda x, u: (np.zeros((1, 1)), np.eye(1)))


def test_scalar_integrator_step():
    m = scalar_integrator(dt=0.1)
    out = euler_step(m, np.array([0.0]), np.array([1.0]))
    assert out[0] == pytest.approx(0.1, abs=0.0)


def test_euler_step_does_not_mutate_inputs():
    m = attitude_model()
    x = np.array([0.3, -0.2, 0.1, 0.05, -0.02, 0.01])
    u = np.array([1.0, -2.0, 0.5])
    x_copy, u_copy = x.copy(), u.copy()
    euler_step(m, x, u)
    assert np.array_equal(x, x_copy) and np.array_equal(u, u_copy)


def test_attitude_origin_is_fixed_point():
    m = attitude_model()
    x = np.zeros(6)
    for dt in (0.05, 0.1, 1.0):
        m2 = attitude_model(dt=dt)
        assert np.array_equal(m2.step(x, np.zeros(3)), x)


def test_euler_consistency_identity():
    # (step(x,u) - x) / dt reproduces the derivative to roundoff in the
    # state magnitude (the subtraction x + dt*d - x rounds at eps * |x|)
    m = rendezvous_model()
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.normal(0, 50, 6), [1000.0], [7000.0, 100.0, -200.0], [0.2, 7.4, 0.1]])
    u = rng.normal(0, 0.3, 3)
    d = np.array(m.rates(x.tolist(), u.tolist()))
    bound = np.finfo(float).eps * np.maximum(1.0, np.abs(x)) / m.dt * 4.0
    assert np.all(np.abs((m.step(x, u) - x) / m.dt - d) <= bound)


def test_fd_jacobians_exact_for_linear_map():
    A = np.array([[0.9, 0.2], [-0.1, 1.05]])
    B = np.array([[0.0], [0.3]])
    m = lti_model(A, B, dt=0.5)
    lin = finite_diff_jacobians(m, np.array([0.4, -1.2]), np.array([0.7]))
    assert np.allclose(lin.A, A, atol=1e-9)
    assert np.allclose(lin.B, B, atol=1e-9)


def test_jacobians_exact_for_lti():
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = np.array([[0.0], [0.1]])
    m = lti_model(A, B)
    lin = jacobians(m, np.zeros(2), np.zeros(1))
    assert np.array_equal(lin.A, A)
    assert np.array_equal(lin.B, B)


def test_jacobians_never_write_a_shared_partial():
    # lti_model hands out the same unbatched (Ac, Bc) on every call; only a
    # batched partial, fresh per call, is scaled in place
    m = lti_model([[0.9, 0.2], [-0.1, 1.05]], [[0.0], [0.3]], dt=0.5)
    Ac, Bc = m.deriv_jacobians(np.zeros(2), np.zeros(1))
    before = Ac.copy(), Bc.copy()
    jacobians(m, np.array([0.4, -1.2]), np.array([0.7]))
    jacobians(m, np.ones((4, 2)), np.ones((4, 1)))
    assert np.array_equal(Ac, before[0]) and np.array_equal(Bc, before[1])


def test_trajectory_jacobians_peak_allocation():
    """Linearizing the default 150-step soft-landing trajectory allocates
    under 450 KiB at its peak (356 KiB measured for the 290 KiB it returns;
    580 KiB while ``dt * dfdx`` and ``dt * dfdu`` were new arrays)."""
    p = build_problem(parse_config_dict({"scenario": "soft-landing"}))
    traj = rollout(p.model, p.x0, p.hover_controls(), p.cost, p.terminal)
    X, U = traj.states[:-1], traj.controls
    assert X.shape == (150, 13)
    tracemalloc.start()
    try:
        jacobians(p.model, X, U)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 450 * 1024, peak


def test_attitude_fd_kinematics_block_at_origin():
    # evaluating the 3-2-1 rate matrix at zero angles gives the anti-diagonal
    # permutation (yaw rate = w3, pitch rate = w2, roll rate = w1), so the
    # angle/rate coupling block of A is dt times that permutation
    m = attitude_model(dt=0.1)
    lin = finite_diff_jacobians(m, np.zeros(6), np.zeros(3))
    expected = 0.1 * np.eye(3)[::-1]
    assert np.allclose(lin.A[0:3, 3:6], expected, atol=1e-9)


def test_rendezvous_gravity_gradient_block_at_symmetric_point():
    # chaser on top of the target: the error-block rows of A carry the
    # gravity-gradient coupling -mu (I/R^3 - 3 r r'/R^5), hand-derived
    p = RendezvousParams()
    dt = 2.0
    m = rendezvous_model(p, dt)
    r_t = np.array([7000.0, 0.0, 0.0])
    v_t = np.array([0.0, np.sqrt(p.mu / 7000.0), 0.0])
    x = np.concatenate([np.zeros(6), [1000.0], r_t, v_t])
    lin = jacobians(m, x, np.zeros(3))
    R = np.linalg.norm(r_t)
    G = p.mu * (np.eye(3) / R**3 - 3.0 * np.outer(r_t, r_t) / R**5)
    assert np.allclose(lin.A[3:6, 0:3], -dt * G, rtol=1e-12)
    lin_fd = finite_diff_jacobians(m, x, np.ones(3) * 0.1)
    assert np.allclose(lin_fd.A[3:6, 0:3], -dt * G, rtol=1e-4, atol=1e-10)


def test_lander_thrust_rows_at_hover():
    from spacetraj.models import LANDER_U_SCALE, LANDER_V_SCALE, LanderParams, lander_hover_control

    p = LanderParams()
    dt = 0.2
    m = lander_model(p, dt)
    mass = 1000.0
    x = np.zeros(13)
    x[12] = mass
    x[8] = 0.1
    u = lander_hover_control(mass, p)
    lin = jacobians(m, x, u)
    expected = dt * (LANDER_U_SCALE / LANDER_V_SCALE) / mass
    assert np.allclose(lin.B[9:12, 3:6], expected * np.eye(3), rtol=1e-12)


@pytest.mark.parametrize(
    "make_model,sample",
    [
        (
            lambda: attitude_model(),
            lambda rng: (
                np.concatenate([rng.uniform(-1.0, 1.0, 3), rng.uniform(-0.2, 0.2, 3)]),
                rng.normal(0, 5, 3),
            ),
        ),
        (
            lambda: rendezvous_model(),
            lambda rng: (
                np.concatenate(
                    [
                        rng.normal(0, 100, 3),
                        rng.normal(0, 1, 3),
                        [1000.0 + rng.normal(0, 100)],
                        7000.0 + rng.normal(0, 300, 3),
                        rng.normal(0, 4, 3),
                    ]
                ),
                rng.normal(0, 0.5, 3) + 0.1,
            ),
        ),
        (
            lambda: lander_model(),
            lambda rng: (
                np.concatenate(
                    [
                        rng.uniform(-0.5, 0.5, 3),
                        rng.uniform(-0.2, 0.2, 3),
                        rng.normal(0, 0.05, 3),
                        rng.normal(0, 0.05, 3),
                        [rng.uniform(500, 1200)],
                    ]
                ),
                rng.normal(0.1, 0.2, 6),
            ),
        ),
    ],
    ids=["attitude", "rendezvous", "lander"],
)
def test_analytic_matches_finite_difference_100_points(make_model, sample):
    model = make_model()
    rng = np.random.default_rng(42)
    for _ in range(100):
        x, u = sample(rng)
        ja = jacobians(model, x, u)
        jf = finite_diff_jacobians(model, x, u)
        errA = np.linalg.norm(ja.A - jf.A) / max(1.0, np.linalg.norm(jf.A))
        errB = np.linalg.norm(ja.B - jf.B) / max(1.0, np.linalg.norm(jf.B))
        assert errA < 1e-5 and errB < 1e-5


def test_singularity_guard_raises_with_state():
    m = attitude_model()
    x = np.array([0.0, np.deg2rad(89.9999999), 0.0, 0.1, 0.0, 0.0])
    with pytest.raises(SingularityError) as exc:
        m.step(x, np.zeros(3))
    assert exc.value.state is not None
    assert np.allclose(exc.value.state, x)


def test_two_body_energy_drift_halves_with_step():
    # order-1 integrator: halving dt halves the specific-energy drift (+-20%)
    p = RendezvousParams()
    r0 = np.array([7000.0, 0.0, 0.0])
    v0 = np.array([0.0, np.sqrt(p.mu / 7000.0) * 1.05, 0.3])

    def specific_orbital_energy(r, v, mu):
        return 0.5 * float(np.dot(v, v)) - mu / float(np.linalg.norm(r))

    e0 = specific_orbital_energy(r0, v0, p.mu)

    def drift(dt, total=1000.0):
        r, v = r0.copy(), v0.copy()
        for _ in range(int(total / dt)):
            acc = -p.mu * r / np.linalg.norm(r) ** 3
            r, v = r + dt * v, v + dt * acc
        return abs(specific_orbital_energy(r, v, p.mu) - e0)

    ratio = drift(1.0) / drift(2.0)
    assert 0.5 * 0.8 < ratio < 0.5 * 1.2


def test_double_integrator_step():
    m = double_integrator(dt=0.1)
    x = m.step(np.array([1.0, 2.0]), np.array([3.0]))
    assert np.allclose(x, [1.2, 2.3])


@pytest.mark.parametrize(
    "build,message",
    [
        (
            lambda: DiscreteModel(0, 1, lambda x, u: x, 1.0, lambda x, u: (np.eye(0), np.zeros((0, 1)))),
            "dimensions must be positive",
        ),
        (lambda: dataclasses.replace(double_integrator(), dt=0.0), "dt must be positive"),
        (lambda: dataclasses.replace(double_integrator(), dt=float("nan")), "dt must be positive"),
        (lambda: lti_model(np.eye(3), np.ones((2, 1))), "A has shape"),
        (lambda: dataclasses.replace(double_integrator(), deriv_jacobians=None), "deriv_jacobians"),
    ],
)
def test_model_validation_raises_value_error(build, message):
    with pytest.raises(ValueError, match=message):
        build()
