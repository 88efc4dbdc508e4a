"""Scenario dynamics: spacecraft attitude, orbital rendezvous, powered descent.

All right-hand sides are continuous-time; each model is one
`dynamics.DiscreteModel` (explicit Euler) and follows the kernel contract
stated in `dynamics`:

- ``*_rates(x, u, p)`` is the model's one point kernel: scalar math
  (``math`` functions, explicit cross products) on lists of floats,
  returning a tuple of floats. The Euler step runs it once per simulated
  step, where numpy's per-call overhead on 3-vectors would dominate.
- ``*_deriv_jacobians(x, u, p)`` accept an optional leading trajectory axis
  (x of shape (n,) or (T, n)) and return the partials for every point from
  one vectorized evaluation; partials that are constant come back unbatched.
  Every model has them (`DiscreteModel` requires them), and each batched
  partial is a fresh array, which `dynamics.jacobians` scales in place.
- ``attitude_deriv_hessians(x, p)`` is the attitude model's optional
  `deriv_hessians` (second partials in the state, batched the same way);
  the other models state none.
- The inverse inertia is computed once, from the validated matrix, when
  `AttitudeParams` or `LanderParams` is constructed, and the constant wdot
  block of the second partials when `AttitudeParams` is. Attitude and
  lander share the rigid-body helpers (`_rigid_body_rates`,
  `_rigid_body_partials`).

Unit conventions:

Attitude (6 states, SI):
    x = [psi, theta, phi, w1, w2, w3]   3-2-1 Euler angles (rad), body rates (rad/s)
    u = [M1, M2, M3]                    body torques (N*m)

    angle rates = (1/cos(theta)) * [[0,  sin(phi),            cos(phi)          ],
                                    [0,  cos(theta)cos(phi), -cos(theta)sin(phi)],
                                    [cos(theta), sin(theta)sin(phi), sin(theta)cos(phi)]] @ w
    wdot = -J^-1 (w x J w) + J^-1 M

    The kinematics are singular at theta = +/-90 deg; evaluations with
    |cos(theta)| < COS_THETA_MIN raise SingularityError rather than clamping
    (silent clamping corrupts gradients).

Rendezvous (13 states, km / km/s / kg / kN):
    x = [e_r (3), e_v (3), m, r_t (3), v_t (3)]
    u = thrust (kN); accelerations come out in km/s^2 because mu is km^3/s^2.

    e_r = r_t - r_c is the chaser's relative position error, e_v the velocity
    error; the target's inertial state (r_t, v_t) is propagated alongside
    because the error equations depend on it. Along any target orbit,
    e = 0 with u = 0 and a positive mass stays e = 0 exactly (the two
    gravity terms cancel bit for bit), so the regulated block
    REND_ERROR_INDICES has the target's moving orbit as its goal:

    e_r'  = e_v
    e_v'  = -mu r_t/|r_t|^3 + mu r_c/|r_c|^3 - u/m,   r_c = r_t - e_r
    m'    = -alpha ||u||
    r_t'  = v_t
    v_t'  = -mu r_t/|r_t|^3

Powered descent (13 states, normalized):
    x = [psi, theta, phi, w1, w2, w3, r1, r2, r3, v1, v2, v3, m]
    u = [torque (3), thrust (3)]

    Position/velocity/controls are normalized so all coordinates are of
    comparable magnitude: r/1e4 (m), v/1e3 (m/s), torque/1e2 (N*m),
    thrust/1e4 (N). Mass stays in kg. In normalized variables:

    r'   = (1e3/1e4) v
    v'   = (1e4/1e3) u/m + g/1e3,   g = [0, 0, -g_ref] m/s^2
    m'   = -1e4 ||u|| / (Isp * g_ref)

    plus the attitude block above driven by the normalized torque. r3 is the
    altitude above the landing point; the dynamics remain valid for r3 < 0
    but simulations terminate at the zero crossing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .dynamics import DiscreteModel
from .errors import DynamicsDomainError, SingularityError, UnsupportedOrbitError

COS_THETA_MIN = 1e-8

DEFAULT_INERTIA_DIAG = (4500.0, 2000.0, 7500.0)  # kg*m^2, attitude and lander

EARTH_MU = 398600.0  # km^3/s^2
MARS_GRAVITY = 3.7114  # m/s^2, surface reference

# Normalization factors for the powered-descent problem.
LANDER_R_SCALE = 1.0e4  # m per normalized position unit
LANDER_V_SCALE = 1.0e3  # m/s per normalized velocity unit
LANDER_M_SCALE = 1.0e2  # N*m per normalized torque unit
LANDER_U_SCALE = 1.0e4  # N per normalized thrust unit

LANDER_STATE_SCALE = np.array(
    [1.0] * 6 + [LANDER_R_SCALE] * 3 + [LANDER_V_SCALE] * 3 + [1.0]
)
LANDER_CONTROL_SCALE = np.array([LANDER_M_SCALE] * 3 + [LANDER_U_SCALE] * 3)

LANDER_ALTITUDE_INDEX = 8  # r3 within the lander state vector


def _check_theta(theta, state: np.ndarray) -> None:
    """Raise SingularityError where |cos(theta)| < COS_THETA_MIN.

    `theta` is one pitch angle (a number) with its state, or an array of them
    with the matching stack of states; the error carries the first offending
    state.
    """
    if not isinstance(theta, np.ndarray):
        if abs(math.cos(theta)) < COS_THETA_MIN:
            raise SingularityError(
                f"attitude kinematics singular at pitch {theta!r} rad", state=state
            )
        return
    bad = np.abs(np.cos(theta)) < COS_THETA_MIN
    if bad.any():
        first = np.unravel_index(np.argmax(bad), bad.shape)
        _check_theta(float(theta[first]), state[first])


def _init_inertia(params) -> None:
    """Validate `params.inertia` (3x3, finite, symmetric positive definite) and
    precompute its inverse: `inertia_inv` for the batched Jacobians, and both
    matrices as nested lists for the scalar derivative."""
    J = np.atleast_2d(np.asarray(params.inertia, dtype=float))
    if J.shape != (3, 3):
        raise ValueError(f"inertia must be 3x3, got shape {J.shape}")
    if not np.isfinite(J).all():
        raise ValueError("inertia entries must be finite")
    if not np.allclose(J, J.T):
        raise ValueError("inertia must be symmetric")
    if not np.all(np.linalg.eigvalsh(J) > 0.0):
        raise ValueError("inertia must be positive definite")
    J_inv = np.linalg.inv(J)
    object.__setattr__(params, "inertia", J)
    object.__setattr__(params, "inertia_inv", J_inv)
    object.__setattr__(params, "_inertia_lists", (J.tolist(), J_inv.tolist()))


def _rigid_body_rates(
    theta: float, phi: float, w1: float, w2: float, w3: float,
    m1: float, m2: float, m3: float, J: list, J_inv: list,
) -> Tuple[float, ...]:
    """3-2-1 angle rates and body angular acceleration ``J^-1 (M - w x J w)``.

    Scalar math on floats; `J` and `J_inv` are 3x3 nested lists. The caller
    has checked theta against the singularity.
    """
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    g = sp * w2 + cp * w3
    (j11, j12, j13), (j21, j22, j23), (j31, j32, j33) = J
    h1 = j11 * w1 + j12 * w2 + j13 * w3
    h2 = j21 * w1 + j22 * w2 + j23 * w3
    h3 = j31 * w1 + j32 * w2 + j33 * w3
    r1 = m1 - (w2 * h3 - w3 * h2)
    r2 = m2 - (w3 * h1 - w1 * h3)
    r3 = m3 - (w1 * h2 - w2 * h1)
    (k11, k12, k13), (k21, k22, k23), (k31, k32, k33) = J_inv
    return (
        g / ct,
        cp * w2 - sp * w3,
        w1 + st * g / ct,
        k11 * r1 + k12 * r2 + k13 * r3,
        k21 * r1 + k22 * r2 + k23 * r3,
        k31 * r1 + k32 * r2 + k33 * r3,
    )


def _matmul3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for (stacks of) 3-row matrices, summed in a fixed order so a
    batch and each of its points agree bitwise."""
    return (
        a[..., :, 0:1] * b[..., 0:1, :]
        + a[..., :, 1:2] * b[..., 1:2, :]
        + a[..., :, 2:3] * b[..., 2:3, :]
    )


def _skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices over leading axes: ``_skew(a) @ b == a x b``."""
    S = np.zeros(v.shape[:-1] + (3, 3))
    S[..., 0, 1], S[..., 0, 2] = -v[..., 2], v[..., 1]
    S[..., 1, 0], S[..., 1, 2] = v[..., 2], -v[..., 0]
    S[..., 2, 0], S[..., 2, 1] = -v[..., 1], v[..., 0]
    return S


def _rigid_body_partials(
    x: np.ndarray, J: np.ndarray, J_inv: np.ndarray, dfdx: np.ndarray
) -> None:
    """Write d(angle rates, wdot)/d(angles, body rates) into dfdx[..., 0:6, 0:6]
    for the states x[..., 0:6], over any leading axes."""
    theta, phi = x[..., 1], x[..., 2]
    _check_theta(theta, x)
    w = x[..., 3:6]
    w2, w3 = w[..., 1], w[..., 2]
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    g = sp * w2 + cp * w3
    h = cp * w2 - sp * w3
    # ct * ct: a 0-d ct**2 can differ by an ulp from the batched square
    dfdx[..., 0, 1] = g * st / (ct * ct)
    dfdx[..., 2, 1] = g / (ct * ct)
    dfdx[..., 0, 2] = h / ct
    dfdx[..., 1, 2] = -g
    dfdx[..., 2, 2] = (st / ct) * h
    dfdx[..., 0, 4] = sp / ct
    dfdx[..., 0, 5] = cp / ct
    dfdx[..., 1, 4] = cp
    dfdx[..., 1, 5] = -sp
    dfdx[..., 2, 3] = 1.0
    dfdx[..., 2, 4] = st * sp / ct
    dfdx[..., 2, 5] = st * cp / ct
    # d(w x Jw)/dw = [w]x J - [Jw]x
    Jw = _matmul3(J, w[..., :, None])[..., 0]
    dfdx[..., 3:6, 3:6] = -_matmul3(J_inv, _matmul3(_skew(w), J) - _skew(Jw))


def _norm_grad(u: np.ndarray) -> np.ndarray:
    """d|u|/du over leading axes; the kink at u = 0 takes the zero subgradient."""
    norm = np.linalg.norm(u, axis=-1, keepdims=True)
    return np.divide(u, norm, out=np.zeros_like(u), where=norm > 0.0)


# ---------------------------------------------------------------------------
# Attitude
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttitudeParams:
    """Rigid-body inertia; must be symmetric positive definite (kg*m^2).

    Its inverse, and the constant second partials of wdot in w, are
    computed once here, from the checked matrix.
    """

    inertia: np.ndarray = field(default_factory=lambda: np.diag(DEFAULT_INERTIA_DIAG))
    inertia_inv: np.ndarray = field(init=False, repr=False, compare=False)
    _inertia_lists: tuple = field(init=False, repr=False, compare=False)
    _gyroscopic_hessian: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _init_inertia(self)
        # (w x Jw)_a = e_abc w_b (Jw)_c is bilinear in w, so its second
        # partials e_ajc J_ck + e_akc J_cj do not depend on the point
        eps = np.zeros((3, 3, 3))
        eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
        eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
        D = np.einsum("ajc,ck->ajk", eps, self.inertia)
        W = -np.einsum("ia,ajk->ijk", self.inertia_inv, D + D.transpose(0, 2, 1))
        object.__setattr__(self, "_gyroscopic_hessian", W)


def attitude_rates(x: list, torque: list, p: AttitudeParams) -> Tuple[float, ...]:
    _, theta, phi, w1, w2, w3 = x
    _check_theta(theta, x)
    m1, m2, m3 = torque
    return _rigid_body_rates(theta, phi, w1, w2, w3, m1, m2, m3, *p._inertia_lists)


def attitude_deriv_jacobians(
    x: np.ndarray, torque: np.ndarray, p: AttitudeParams
) -> Tuple[np.ndarray, np.ndarray]:
    """Continuous partials at x (6,) or along a trajectory x (T, 6); the
    control partial is constant and returned unbatched."""
    dfdx = np.zeros(x.shape[:-1] + (6, 6))
    _rigid_body_partials(x, p.inertia, p.inertia_inv, dfdx)
    dfdu = np.zeros((6, 3))
    dfdu[3:6, :] = p.inertia_inv
    return dfdx, dfdu


def attitude_deriv_hessians(x: np.ndarray, p: AttitudeParams) -> np.ndarray:
    """Second partials d^2 f_i / dx_j dx_k of the rates at x (6,) or along a
    trajectory x (T, 6), of shape (..., 6, 6, 6) and symmetric in (j, k).
    The rates are affine in the torque with a constant coefficient, so
    every second partial involving it is zero. The kinematic rows depend on
    sin/cos of theta and phi; the wdot block is the constant of
    `AttitudeParams`."""
    theta, phi = x[..., 1], x[..., 2]
    _check_theta(theta, x)
    w2, w3 = x[..., 4], x[..., 5]
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    g = sp * w2 + cp * w3  # d g / d phi = h
    h = cp * w2 - sp * w3  # d h / d phi = -g
    c2, tt = ct * ct, st / ct
    C = np.zeros(x.shape[:-1] + (6, 6, 6))
    for i, j, k, value in (
        # psi rate g / cos(theta)
        (0, 1, 1, g * (1.0 + st * st) / (c2 * ct)),
        (0, 1, 2, h * st / c2),
        (0, 1, 4, sp * st / c2),
        (0, 1, 5, cp * st / c2),
        (0, 2, 2, -g / ct),
        (0, 2, 4, cp / ct),
        (0, 2, 5, -sp / ct),
        # theta rate h
        (1, 2, 2, -h),
        (1, 2, 4, -sp),
        (1, 2, 5, -cp),
        # phi rate w1 + tan(theta) g
        (2, 1, 1, 2.0 * g * st / (c2 * ct)),
        (2, 1, 2, h / c2),
        (2, 1, 4, sp / c2),
        (2, 1, 5, cp / c2),
        (2, 2, 2, -tt * g),
        (2, 2, 4, tt * cp),
        (2, 2, 5, -tt * sp),
    ):
        C[..., i, j, k] = C[..., i, k, j] = value
    C[..., 3:6, 3:6, 3:6] = p._gyroscopic_hessian
    return C


def attitude_model(p: AttitudeParams | None = None, dt: float = 0.1) -> DiscreteModel:
    p = p or AttitudeParams()
    return DiscreteModel(
        state_dim=6,
        control_dim=3,
        rates=lambda x, u: attitude_rates(x, u, p),
        dt=dt,
        deriv_jacobians=lambda x, u: attitude_deriv_jacobians(x, u, p),
        deriv_hessians=lambda x, u: attitude_deriv_hessians(x, p),
    )


# ---------------------------------------------------------------------------
# Rendezvous
# ---------------------------------------------------------------------------

MIN_ORBIT_RADIUS_KM = 1000.0  # domain guard on |r_t| and |r_c|


@dataclass(frozen=True)
class RendezvousParams:
    mu: float = EARTH_MU  # km^3/s^2
    alpha: float = 5.0e-4  # kg/s of propellant per kN of thrust

    def __post_init__(self):
        if not (self.mu > 0.0 and self.alpha > 0.0):
            raise ValueError("mu and alpha must be positive")


REND_ERROR_INDICES = np.arange(6)  # (e_r, e_v): the block the regulation design acts on


def _inv_cube_grad(r: np.ndarray, mu: float) -> np.ndarray:
    """d(mu * r / |r|^3)/dr over leading axes of r."""
    R = np.linalg.norm(r, axis=-1)[..., None, None]
    return mu * (np.eye(3) / R**3 - 3.0 * (r[..., :, None] * r[..., None, :]) / R**5)


def rendezvous_rates(x: list, u: list, p: RendezvousParams) -> Tuple[float, ...]:
    e1, e2, e3, v1, v2, v3, m, t1, t2, t3, s1, s2, s3 = x
    if m <= 0.0:
        raise DynamicsDomainError(f"non-positive chaser mass {m}")
    c1, c2, c3 = t1 - e1, t2 - e2, t3 - e3  # chaser position r_c = r_t - e_r
    R_t = math.sqrt(t1 * t1 + t2 * t2 + t3 * t3)
    R_c = math.sqrt(c1 * c1 + c2 * c2 + c3 * c3)
    if R_t <= MIN_ORBIT_RADIUS_KM or R_c <= MIN_ORBIT_RADIUS_KM:
        raise DynamicsDomainError(
            f"orbit radius below {MIN_ORBIT_RADIUS_KM} km (target {R_t:.1f}, chaser {R_c:.1f})"
        )
    u1, u2, u3 = u
    mu = p.mu
    kt, kc = R_t**3, R_c**3
    g1, g2, g3 = -mu * t1 / kt, -mu * t2 / kt, -mu * t3 / kt
    return (
        v1, v2, v3,
        g1 + mu * c1 / kc - u1 / m,
        g2 + mu * c2 / kc - u2 / m,
        g3 + mu * c3 / kc - u3 / m,
        -p.alpha * math.sqrt(u1 * u1 + u2 * u2 + u3 * u3),
        s1, s2, s3,
        g1, g2, g3,
    )


def rendezvous_deriv_jacobians(
    x: np.ndarray, u: np.ndarray, p: RendezvousParams
) -> Tuple[np.ndarray, np.ndarray]:
    """Continuous partials at x (13,) or along a trajectory x (T, 13)."""
    e_r, m = x[..., 0:3], x[..., 6]
    r_t = x[..., 7:10]
    G_t = _inv_cube_grad(r_t, p.mu)
    G_c = _inv_cube_grad(r_t - e_r, p.mu)
    eye = np.eye(3)

    dfdx = np.zeros(x.shape[:-1] + (13, 13))
    dfdx[..., 0:3, 3:6] = eye
    dfdx[..., 3:6, 0:3] = -G_c
    dfdx[..., 3:6, 6] = u / m[..., None] ** 2
    dfdx[..., 3:6, 7:10] = G_c - G_t
    dfdx[..., 7:10, 10:13] = eye
    dfdx[..., 10:13, 7:10] = -G_t

    dfdu = np.zeros(x.shape[:-1] + (13, 3))
    dfdu[..., 3:6, :] = -eye / m[..., None, None]
    dfdu[..., 6, :] = -p.alpha * _norm_grad(u)
    return dfdx, dfdu


def rendezvous_model(p: RendezvousParams | None = None, dt: float = 2.0) -> DiscreteModel:
    p = p or RendezvousParams()
    return DiscreteModel(
        state_dim=13,
        control_dim=3,
        rates=lambda x, u: rendezvous_rates(x, u, p),
        dt=dt,
        deriv_jacobians=lambda x, u: rendezvous_deriv_jacobians(x, u, p),
    )


# ---------------------------------------------------------------------------
# Powered descent
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LanderParams:
    """Lander inertia (SPD, kg*m^2; its inverse is computed once here),
    engine Isp, reference gravity and initial mass."""

    inertia: np.ndarray = field(default_factory=lambda: np.diag(DEFAULT_INERTIA_DIAG))
    isp: float = 225.0  # s
    g_ref: float = MARS_GRAVITY  # m/s^2
    initial_mass: float = 1000.0  # kg
    inertia_inv: np.ndarray = field(init=False, repr=False, compare=False)
    _inertia_lists: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _init_inertia(self)
        if not (self.isp > 0.0 and self.g_ref > 0.0 and self.initial_mass > 0.0):
            raise ValueError("isp, g_ref and initial_mass must be positive")


# d(r)/dt per normalized velocity, d(v)/dt per normalized thrust / mass
_LANDER_R_RATE = LANDER_V_SCALE / LANDER_R_SCALE
_LANDER_V_RATE = LANDER_U_SCALE / LANDER_V_SCALE


def lander_rates(x: list, control: list, p: LanderParams) -> Tuple[float, ...]:
    """Normalized-variable right-hand side; `control` is [torque(3), thrust(3)]."""
    _, theta, phi, w1, w2, w3, _, _, _, v1, v2, v3, m = x
    _check_theta(theta, x)
    if m <= 0.0:
        raise DynamicsDomainError(f"non-positive lander mass {m}")
    m1, m2, m3, f1, f2, f3 = control
    return (
        *_rigid_body_rates(
            theta, phi, w1, w2, w3,
            LANDER_M_SCALE * m1, LANDER_M_SCALE * m2, LANDER_M_SCALE * m3,
            *p._inertia_lists,
        ),
        _LANDER_R_RATE * v1,
        _LANDER_R_RATE * v2,
        _LANDER_R_RATE * v3,
        _LANDER_V_RATE * f1 / m,
        _LANDER_V_RATE * f2 / m,
        _LANDER_V_RATE * f3 / m - p.g_ref / LANDER_V_SCALE,
        -LANDER_U_SCALE * math.sqrt(f1 * f1 + f2 * f2 + f3 * f3) / (p.isp * p.g_ref),
    )


def lander_deriv_jacobians(
    x: np.ndarray, control: np.ndarray, p: LanderParams
) -> Tuple[np.ndarray, np.ndarray]:
    """Continuous partials at x (13,) or along a trajectory x (T, 13)."""
    m = x[..., 12]
    u_bar = control[..., 3:6]
    lead = x.shape[:-1]

    dfdx = np.zeros(lead + (13, 13))
    _rigid_body_partials(x, p.inertia, p.inertia_inv, dfdx)
    dfdx[..., 6:9, 9:12] = _LANDER_R_RATE * np.eye(3)
    dfdx[..., 9:12, 12] = -_LANDER_V_RATE * u_bar / m[..., None] ** 2

    dfdu = np.zeros(lead + (13, 6))
    dfdu[..., 3:6, 0:3] = LANDER_M_SCALE * p.inertia_inv
    dfdu[..., 9:12, 3:6] = _LANDER_V_RATE * np.eye(3) / m[..., None, None]
    dfdu[..., 12, 3:6] = -LANDER_U_SCALE / (p.isp * p.g_ref) * _norm_grad(u_bar)
    return dfdx, dfdu


def lander_model(p: LanderParams | None = None, dt: float = 0.2) -> DiscreteModel:
    p = p or LanderParams()
    return DiscreteModel(
        state_dim=13,
        control_dim=6,
        rates=lambda x, u: lander_rates(x, u, p),
        dt=dt,
        deriv_jacobians=lambda x, u: lander_deriv_jacobians(x, u, p),
    )


def lander_hover_control(mass: float, p: LanderParams) -> np.ndarray:
    """Normalized control that cancels gravity at the given mass (zero torque)."""
    thrust = np.array([0.0, 0.0, mass * p.g_ref])  # N
    return np.concatenate([np.zeros(3), thrust / LANDER_U_SCALE])


# ---------------------------------------------------------------------------
# Orbital elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitalElements:
    """Classical elements, angles in radians; only elliptical orbits (0 <= e < 1)."""

    a: float  # semi-major axis, km
    e: float
    i: float
    raan: float
    argp: float
    nu: float

    def __post_init__(self):
        if not (self.a > 0.0 and 0.0 <= self.e < 1.0):
            raise UnsupportedOrbitError(
                f"need a > 0 and 0 <= e < 1, got a={self.a}, e={self.e}"
            )


def _rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_x(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def kepler_to_cartesian(
    el: OrbitalElements, mu: float = EARTH_MU
) -> Tuple[np.ndarray, np.ndarray]:
    """Perifocal construction rotated into the inertial frame (3-1-3: raan, i, argp).

    Returns position (km) and velocity (km/s); outputs satisfy the conic
    equation and vis-viva by construction.
    """
    p_lr = el.a * (1.0 - el.e**2)  # semi-latus rectum
    r_mag = p_lr / (1.0 + el.e * np.cos(el.nu))
    r_pf = r_mag * np.array([np.cos(el.nu), np.sin(el.nu), 0.0])
    h = np.sqrt(mu * p_lr)
    v_pf = (mu / h) * np.array([-np.sin(el.nu), el.e + np.cos(el.nu), 0.0])
    rot = _rot_z(el.raan) @ _rot_x(el.i) @ _rot_z(el.argp)
    return rot @ r_pf, rot @ v_pf
