"""Scenario right-hand sides, normalization, and orbital-element conversion."""

import numpy as np
import pytest

from spacetraj.errors import DynamicsDomainError, SingularityError, UnsupportedOrbitError
from spacetraj.models import (
    LANDER_STATE_SCALE,
    AttitudeParams,
    LanderParams,
    OrbitalElements,
    RendezvousParams,
    attitude_model,
    attitude_rates,
    kepler_to_cartesian,
    lander_hover_control,
    lander_model,
    lander_rates,
    rendezvous_rates,
    scale_lander,
    specific_orbital_energy,
    unscale_lander,
)

DEG = np.pi / 180.0


def rates_at(kernel, x, u, p):
    """A point kernel's rates at array arguments, as an array."""
    return np.array(kernel(np.asarray(x).tolist(), np.asarray(u).tolist(), p))


# ---------------------------------------------------------------------------
# attitude
# ---------------------------------------------------------------------------

def test_attitude_equilibrium():
    d = rates_at(attitude_rates, np.zeros(6), np.zeros(3), AttitudeParams())
    assert np.array_equal(d, np.zeros(6))


def test_attitude_gyroscopic_term_componentwise():
    # hand-evaluated w x (J w) for diagonal J, divided componentwise
    J = np.diag([4500.0, 2000.0, 7500.0])
    w = np.array([0.1, -0.1, 0.05])
    # cross product by hand: (w2*J3*w3 - w3*J2*w2, w3*J1*w1 - w1*J3*w3, w1*J2*w2 - w2*J1*w1)
    gyro = np.array(
        [
            w[1] * 7500.0 * w[2] - w[2] * 2000.0 * w[1],
            w[2] * 4500.0 * w[0] - w[0] * 7500.0 * w[2],
            w[0] * 2000.0 * w[1] - w[1] * 4500.0 * w[0],
        ]
    )
    expected = -gyro / np.array([4500.0, 2000.0, 7500.0])
    x = np.concatenate([np.zeros(3), w])
    d = rates_at(attitude_rates, x, np.zeros(3), AttitudeParams(inertia=J))
    assert np.allclose(d[3:6], expected, rtol=1e-14)


def test_attitude_step_matches_hand_kinematics():
    # independent evaluation via the scalar rate equations
    # psi' = (sin(phi) w2 + cos(phi) w3)/cos(theta)
    # theta' = cos(phi) w2 - sin(phi) w3
    # phi' = w1 + tan(theta) (sin(phi) w2 + cos(phi) w3)
    x = np.array([85.94, -68.75, -120.32, 5.72, -5.72, 2.86]) * DEG
    psi, th, ph = x[0], x[1], x[2]
    w1, w2, w3 = x[3], x[4], x[5]
    g = np.sin(ph) * w2 + np.cos(ph) * w3
    rates = np.array([g / np.cos(th), np.cos(ph) * w2 - np.sin(ph) * w3, w1 + np.tan(th) * g])
    J = np.array([4500.0, 2000.0, 7500.0])
    gyro = np.array(
        [
            w2 * J[2] * w3 - w3 * J[1] * w2,
            w3 * J[0] * w1 - w1 * J[2] * w3,
            w1 * J[1] * w2 - w2 * J[0] * w1,
        ]
    )
    expected_step = x + 0.1 * np.concatenate([rates, -gyro / J])
    m = attitude_model(dt=0.1)
    assert np.allclose(m.step(x, np.zeros(3)), expected_step, rtol=1e-13)


def test_attitude_pitch_guard():
    x = np.zeros(6)
    x[1] = 89.9999999 * DEG
    x[3] = 0.1
    with pytest.raises(SingularityError):
        rates_at(attitude_rates, x, np.zeros(3), AttitudeParams())


def test_attitude_params_validation():
    with pytest.raises(ValueError):
        AttitudeParams(inertia=np.diag([1.0, -1.0, 1.0]))


@pytest.mark.parametrize("make_params", [AttitudeParams, LanderParams])
@pytest.mark.parametrize(
    "inertia",
    [
        np.diag([1.0, -1.0, 1.0]),
        np.diag([1.0, np.nan, 1.0]),
        np.diag([1.0, 1.0, np.inf]),
        np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        np.eye(2),
    ],
    ids=["indefinite", "nan", "inf", "asymmetric", "2x2"],
)
def test_bad_inertia_raises_value_error(make_params, inertia):
    with pytest.raises(ValueError):
        make_params(inertia=inertia)


def test_inverse_inertia_is_precomputed():
    J = np.array([[4500.0, 100.0, 0.0], [100.0, 2000.0, -50.0], [0.0, -50.0, 7500.0]])
    for p in (AttitudeParams(inertia=J), LanderParams(inertia=J)):
        np.testing.assert_allclose(p.inertia_inv @ J, np.eye(3), atol=1e-12)


# ---------------------------------------------------------------------------
# rendezvous
# ---------------------------------------------------------------------------

def rendezvous_state(e_r=0, e_v=0, m=1000.0, r_t=(7000.0, 0.0, 0.0), v_t=(0.0, 7.5, 0.0)):
    e_r = np.broadcast_to(np.asarray(e_r, dtype=float), 3)
    e_v = np.broadcast_to(np.asarray(e_v, dtype=float), 3)
    return np.concatenate([e_r, e_v, [m], r_t, v_t])


def test_rendezvous_symmetric_point():
    d = rates_at(rendezvous_rates, rendezvous_state(), np.zeros(3), RendezvousParams())
    assert np.allclose(d[0:6], 0.0)
    assert d[6] == 0.0


def test_rendezvous_mass_flow_345():
    d = rates_at(rendezvous_rates, rendezvous_state(), np.array([3.0, 4.0, 0.0]), RendezvousParams())
    assert d[6] == pytest.approx(-5e-4 * 5.0, rel=1e-15)


def test_rendezvous_circular_orbit_acceleration():
    p = RendezvousParams()
    d = rates_at(rendezvous_rates, rendezvous_state(), np.zeros(3), p)
    assert np.linalg.norm(d[10:13]) == pytest.approx(p.mu / 7000.0**2, rel=1e-12)


def test_rendezvous_error_stays_zero_without_thrust():
    from spacetraj.models import rendezvous_model

    m = rendezvous_model()
    x = rendezvous_state()
    for _ in range(200):
        x = m.step(x, np.zeros(3))
    assert np.allclose(x[0:6], 0.0)
    assert x[6] == 1000.0


def test_rendezvous_domain_guard():
    with pytest.raises(DynamicsDomainError):
        rates_at(rendezvous_rates, rendezvous_state(r_t=(500.0, 0.0, 0.0)), np.zeros(3), RendezvousParams())
    with pytest.raises(DynamicsDomainError):
        rates_at(rendezvous_rates, rendezvous_state(m=-1.0), np.zeros(3), RendezvousParams())


# ---------------------------------------------------------------------------
# lander
# ---------------------------------------------------------------------------

def lander_state(r=(0.0, 0.0, 0.1), v=(0.0, 0.0, 0.0), m=1000.0):
    return np.concatenate([np.zeros(6), r, v, [m]])


def test_lander_hover_cancels_gravity():
    p = LanderParams()
    x = lander_state()
    u = lander_hover_control(1000.0, p)
    d = rates_at(lander_rates, x, u, p)
    assert np.allclose(d[6:12], 0.0, atol=1e-15)  # position and velocity frozen
    assert d[12] < 0.0  # mass strictly decreasing


def test_lander_hover_invariant_under_stepping():
    p = LanderParams()
    m = lander_model(p, dt=0.2)
    x = lander_state()
    for _ in range(20):
        u = lander_hover_control(x[12], p)
        x = m.step(x, u)
    assert np.allclose(x[6:12], lander_state()[6:12], atol=1e-12)
    assert x[12] < 1000.0


def test_lander_mass_flow_unit_rate():
    # thrust magnitude Isp * g_ref * 1 kg/s in newtons burns one kg per second
    p = LanderParams()
    thrust_n = 225.0 * 3.7114  # = 835.065 N
    u = np.concatenate([np.zeros(3), [0.0, 0.0, thrust_n / 1e4]])
    d = rates_at(lander_rates, lander_state(), u, p)
    assert d[12] == pytest.approx(-1.0, rel=1e-12)


def test_lander_free_fall_acceleration():
    p = LanderParams()
    d = rates_at(lander_rates, lander_state(), np.zeros(6), p)
    v_dot_si = d[9:12] * 1e3
    assert np.allclose(v_dot_si, [0.0, 0.0, -3.7114], rtol=1e-12)


def test_lander_domain_guard_on_mass():
    with pytest.raises(DynamicsDomainError):
        rates_at(lander_rates, lander_state(m=0.0), np.zeros(6), LanderParams())


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_scaling_tabulated_position():
    x_si = np.concatenate([np.zeros(6), [300.0, -200.0, 1000.0], np.zeros(3), [1000.0]])
    x_bar, _ = scale_lander(x_si, np.zeros(6))
    assert np.allclose(x_bar[6:9], [0.03, -0.02, 0.1])


def test_scaling_zero_is_zero():
    x, u = scale_lander(np.zeros(13), np.zeros(6))
    assert not x.any() and not u.any()


def test_scaling_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.normal(0, 1e4, 13)
        u = rng.normal(0, 1e4, 6)
        x2, u2 = unscale_lander(*scale_lander(x, u))
        assert np.allclose(x2, x, rtol=1e-14)
        assert np.allclose(u2, u, rtol=1e-14)


# ---------------------------------------------------------------------------
# orbital elements
# ---------------------------------------------------------------------------

def test_kepler_circular_equatorial():
    el = OrbitalElements(a=7000.0, e=0.0, i=0.0, raan=0.0, argp=0.0, nu=0.0)
    r, v = kepler_to_cartesian(el, 398600.0)
    assert np.allclose(r, [7000.0, 0.0, 0.0])
    assert np.allclose(v, [0.0, np.sqrt(398600.0 / 7000.0), 0.0])


def test_kepler_conic_equation_for_chaser_elements():
    el = OrbitalElements(a=7200.0, e=0.22, i=64 * DEG, raan=66 * DEG, argp=28 * DEG, nu=81 * DEG)
    r, _ = kepler_to_cartesian(el)
    expected = 7200.0 * (1 - 0.22**2) / (1 + 0.22 * np.cos(81 * DEG))
    assert np.linalg.norm(r) == pytest.approx(expected, rel=1e-12)


def test_kepler_vis_viva_holds():
    rng = np.random.default_rng(11)
    mu = 398600.0
    for _ in range(50):
        el = OrbitalElements(
            a=rng.uniform(6700, 45000),
            e=rng.uniform(0, 0.9),
            i=rng.uniform(0, np.pi),
            raan=rng.uniform(0, 2 * np.pi),
            argp=rng.uniform(0, 2 * np.pi),
            nu=rng.uniform(0, 2 * np.pi),
        )
        r, v = kepler_to_cartesian(el, mu)
        vis_viva = mu * (2.0 / np.linalg.norm(r) - 1.0 / el.a)
        assert abs(np.dot(v, v) - vis_viva) / vis_viva < 1e-10


def test_kepler_rejects_hyperbolic():
    with pytest.raises(UnsupportedOrbitError):
        OrbitalElements(a=7000.0, e=1.2, i=0.0, raan=0.0, argp=0.0, nu=0.0)


def test_specific_energy_negative_for_bound_orbit():
    el = OrbitalElements(a=7000.0, e=0.1, i=0.5, raan=0.1, argp=0.2, nu=1.0)
    r, v = kepler_to_cartesian(el)
    assert specific_orbital_energy(r, v) == pytest.approx(-398600.0 / (2 * 7000.0), rel=1e-10)
