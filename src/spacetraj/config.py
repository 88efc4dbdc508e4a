"""Scenario configuration: the one description of each scenario.

`ScenarioConfig` holds every parameter of a scenario, and this module owns
their defaults and the scenario constants. Each scenario has one `Scenario`
record in `SCENARIO_RECORDS` (looked up by `scenario_record`): its tabulated
defaults (`scenario_defaults(s)` is the tabulated case of scenario `s`), the
sections its problem does not read, the lengths of `q` and `initial_state`,
and the state and control columns of its trajectory. The builders in
`scenarios` read a config directly (`scenarios.build_problem(cfg)`); this
module knows no problem object and imports neither `scenarios` nor
`two_phase`, which import it.

Configs are JSON (UTF-8, nesting allowed). Angles cross this boundary in
degrees and are converted where the problem objects are built; weight
matrices may be given as a diagonal (list of length n) or a full matrix
(n x n nested lists). Unknown keys anywhere are rejected with the offending
dotted path, and so is a section the scenario's problem does not read
(`Scenario.unread`). The `solver` and `terminal_set` sections are
`ilqr.SolverSettings` and `lqr.TerminalSetSpec`; each checks its fields,
naming the section (`solver.tolerance`). `validate_config` checks every
other field, and `float_array` and `weight_matrix` are the checked
conversions of the array-valued ones; each raises ConfigError naming the
field.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cost import is_psd
from .errors import ConfigError, integer, number, positive, real
from .ilqr import SolverSettings
from .lqr import TerminalSetSpec
from .models import COS_THETA_MIN, DEFAULT_INERTIA_DIAG, EARTH_MU, LanderParams, OrbitalElements, RendezvousParams

DEG = math.pi / 180.0

# Tabulated initial conditions of the lander section (meters / m/s).
LANDER_INITIAL_POSITION_M = (300.0, -200.0, 1000.0)
LANDER_INITIAL_VELOCITY_MPS = (100.0, 120.0, 0.0)

# (a km, e, i, raan, argp, nu in degrees)
CHASER_ORBIT = (7200.0, 0.22, 64.0, 66.0, 28.0, 81.0)
TARGET_ORBIT = (7000.0, 0.1, 40.0, 35.0, 10.0, 120.0)
RENDEZVOUS_MASS_KG = 1000.0

LANDER_TERMINAL_WEIGHT = 1.0e5
# Commanded descent rate at the planning horizon's end. The terminal
# reference sits one step below the surface at this rate, so the planned
# trajectory crosses zero altitude strictly inside the horizon instead of
# flaring to rest a few centimeters above it (the altitude penalty always
# leaves the unconstrained optimum slightly airborne).
LANDER_SINK_RATE = 0.8  # m/s
LANDER_PENALTY_WEIGHT = 100.0
LANDER_PENALTY_RATE = 1.0
TOUCHDOWN_SPEED_LIMIT = 2.0  # m/s

# The rendezvous design freezes the moving target at the switch epoch, which
# leaves a few percent of structural prediction error in the regulation
# leg; its membership tolerance allows for it. The other scenarios use the
# `TerminalSetSpec` default.
RENDEZVOUS_MEMBERSHIP_TOLERANCE = 5e-2

# Largest horizon / dt and grid time / dt accepted (each step is stored).
MAX_STEPS = 10**6


# Every default below is a scenario constant above or the default of the
# object the field configures.
@dataclass
class SweepConfig:
    grid: Optional[List[float]] = None  # log-spaced default when omitted


@dataclass
class OrbitConfig:
    a_km: float
    e: float
    i_deg: float
    raan_deg: float
    argp_deg: float
    nu_deg: float

    def to_elements(self) -> OrbitalElements:
        return OrbitalElements(
            self.a_km, self.e, self.i_deg * DEG, self.raan_deg * DEG, self.argp_deg * DEG, self.nu_deg * DEG
        )


@dataclass
class AttitudeConfig:
    inertia_diag: List[float] = field(default_factory=lambda: list(DEFAULT_INERTIA_DIAG))


@dataclass
class RendezvousConfig:
    mu: float = EARTH_MU
    alpha: float = RendezvousParams.alpha
    mass_kg: float = RENDEZVOUS_MASS_KG
    chaser: OrbitConfig = field(default_factory=lambda: OrbitConfig(*CHASER_ORBIT))
    target: OrbitConfig = field(default_factory=lambda: OrbitConfig(*TARGET_ORBIT))


@dataclass
class LanderConfig:
    isp_s: float = LanderParams.isp
    g_ref: float = LanderParams.g_ref
    initial_mass_kg: float = LanderParams.initial_mass
    inertia_diag: List[float] = field(default_factory=lambda: list(DEFAULT_INERTIA_DIAG))
    penalty_weight: float = LANDER_PENALTY_WEIGHT
    penalty_rate: float = LANDER_PENALTY_RATE
    terminal_weight: float = LANDER_TERMINAL_WEIGHT
    terminal_sink_rate_mps: float = LANDER_SINK_RATE
    touchdown_speed_limit_mps: float = TOUCHDOWN_SPEED_LIMIT
    initial_position_m: List[float] = field(default_factory=lambda: list(LANDER_INITIAL_POSITION_M))
    initial_velocity_mps: List[float] = field(default_factory=lambda: list(LANDER_INITIAL_VELOCITY_MPS))


@dataclass
class ScenarioConfig:
    scenario: str
    dt: float
    horizon: float
    initial_state: List[float]
    q: Any  # diagonal list or full matrix
    r: Any
    solver: SolverSettings = field(default_factory=SolverSettings)
    terminal_set: TerminalSetSpec = field(default_factory=TerminalSetSpec)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    attitude: AttitudeConfig = field(default_factory=AttitudeConfig)
    rendezvous: RendezvousConfig = field(default_factory=RendezvousConfig)
    lander: LanderConfig = field(default_factory=LanderConfig)
    convergence_levels: Optional[List[float]] = None
    output_dir: str = "out"
    seed: int = 0


@dataclass(frozen=True)
class Scenario:
    """One scenario as the config states it: the tabulated values of the
    top-level fields, the sections its problem does not read (setting one
    is a config error), and the state and control columns of its
    trajectory.csv. A config's `q` (as a diagonal) and `initial_state` have
    the lengths of the tabulated ones, and `r` has one weight per control
    column."""

    dt: float
    horizon: float
    initial_state: Tuple[float, ...]
    q: Tuple[float, ...]
    r: Tuple[float, ...]
    unread: Tuple[str, ...]
    state_columns: Tuple[str, ...]
    control_columns: Tuple[str, ...]
    terminal_set: TerminalSetSpec = TerminalSetSpec()


_EULER_COLUMNS = ("psi_rad", "theta_rad", "phi_rad", "w1_radps", "w2_radps", "w3_radps")
_TORQUE_COLUMNS = ("M1_Nm", "M2_Nm", "M3_Nm")

# Initial states are in degrees and deg/s. Attitude weights are per degree
# (identity in the tabulated working units); rendezvous weights per km /
# (km/s) on the error states with thrust weighted per kN; lander weights act
# on the normalized variables.
SCENARIO_RECORDS = {
    "attitude": Scenario(
        dt=0.1,
        horizon=200.0,
        initial_state=(85.94, -68.75, -120.32, 5.72, -5.72, 2.86),
        q=(1.0,) * 6,
        r=(1.0,) * 3,
        unread=("rendezvous", "lander"),
        state_columns=_EULER_COLUMNS,
        control_columns=_TORQUE_COLUMNS,
    ),
    "rendezvous": Scenario(
        dt=2.0,
        horizon=6000.0,
        initial_state=(),  # derived from the orbital elements
        q=(1.0,) * 6,  # the relative-error states
        r=(500.0,) * 3,
        unread=("attitude", "lander"),
        state_columns=(
            "er1_km", "er2_km", "er3_km", "ev1_kmps", "ev2_kmps", "ev3_kmps", "m_kg",
            "rt1_km", "rt2_km", "rt3_km", "vt1_kmps", "vt2_kmps", "vt3_kmps",
        ),
        control_columns=("u1_kN", "u2_kN", "u3_kN"),
        terminal_set=TerminalSetSpec(tolerance=RENDEZVOUS_MEMBERSHIP_TOLERANCE),
    ),
    # single-phase: no terminal set and no sweep
    "soft-landing": Scenario(
        dt=0.2,
        horizon=30.0,
        initial_state=(22.91, 17.18, 11.45, 5.72, 11.45, -11.45),  # the attitude; the lander section gives the rest
        q=(1.0,) * 6 + (10000.0,) * 3 + (1000.0,) * 3,  # the mass is unweighted
        r=(1.0,) * 6,
        unread=("attitude", "rendezvous", "terminal_set", "sweep"),
        state_columns=(*_EULER_COLUMNS, "r1_m", "r2_m", "r3_m", "v1_mps", "v2_mps", "v3_mps", "m_kg"),
        control_columns=(*_TORQUE_COLUMNS, "u1_N", "u2_N", "u3_N"),
    ),
    # x+ = x + u with stage cost (q x^2 + r u^2) / 2 = x^2 + u^2, whose
    # stationary value matrix is the golden ratio
    "custom-linear": Scenario(
        dt=1.0,
        horizon=40.0,  # steps of 1 s
        initial_state=(1.0,),
        q=(2.0,),
        r=(2.0,),
        unread=("attitude", "rendezvous", "lander"),
        state_columns=("x1",),
        control_columns=("u1",),
    ),
}


def _coerce(value: Any, template: Any, path: str) -> Any:
    """Fill a dataclass/list/scalar `template` from a parsed JSON `value`,
    rejecting unknown keys and reporting dotted paths on errors; a section
    that checks its own fields has its errors prefixed with its path."""
    if hasattr(template, "__dataclass_fields__"):
        if not isinstance(value, dict):
            raise ConfigError(path, f"expected an object, got {type(value).__name__}")
        changes = {}
        for key, sub in value.items():
            sub_path = f"{path}.{key}" if path else key
            if key not in template.__dataclass_fields__:
                raise ConfigError(sub_path, "unknown key")
            changes[key] = _coerce(sub, getattr(template, key), sub_path)
        try:
            return replace(template, **changes)
        except ConfigError as exc:
            raise exc.within(path) from None
    if isinstance(value, bool):
        raise ConfigError(path, "unexpected boolean")
    if isinstance(template, float) and isinstance(value, (int, float)):
        return number(value, path)  # an int past the float range is an infinity
    return value


def scenario_record(scenario: str) -> Scenario:
    if scenario not in SCENARIO_RECORDS:
        raise ConfigError("scenario", f"must be one of {tuple(SCENARIO_RECORDS)}, got {scenario!r}")
    return SCENARIO_RECORDS[scenario]


def scenario_defaults(scenario: str) -> ScenarioConfig:
    rec = scenario_record(scenario)
    return ScenarioConfig(
        scenario, rec.dt, rec.horizon, list(rec.initial_state), list(rec.q), list(rec.r), terminal_set=rec.terminal_set
    )


def apply_overrides(data: Dict[str, Any], overrides: Sequence[str]) -> Dict[str, Any]:
    """Apply `key.path=value` strings onto a raw config dict (values parsed as
    JSON when possible, else taken as strings)."""
    data = copy.deepcopy(data)
    for item in overrides:
        if "=" not in item:
            raise ConfigError("--set", f"expected key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(key, "path collides with a non-object value")
        node[parts[-1]] = value
    return data


def parse_config_dict(data: Dict[str, Any]) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("", "top-level config must be an object")
    scenario = data.get("scenario")
    if scenario is None:
        raise ConfigError("scenario", "missing (set it in the file or via --set scenario=...)")
    base = scenario_defaults(scenario)
    for section in scenario_record(scenario).unread:
        if section in data:
            raise ConfigError(section, f"the {scenario} problem does not read this section")
    rest = {k: v for k, v in data.items() if k != "scenario"}
    cfg = _coerce(rest, base, "")
    validate_config(cfg)
    return cfg


def parse_config(
    path: Optional[str] = None, overrides: Sequence[str] = ()
) -> ScenarioConfig:
    data: Dict[str, Any] = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8").strip()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(str(path), f"cannot read the config file: {exc}") from exc
        if text:
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    if overrides:
        data = apply_overrides(data, overrides)
    return parse_config_dict(data)


def emit_config(cfg: ScenarioConfig) -> Dict[str, Any]:
    """Inverse of parse_config_dict, parse(emit(cfg)) == cfg; unread sections are left out."""
    unread = scenario_record(cfg.scenario).unread
    return {k: v for k, v in asdict(cfg).items() if k not in unread}


def _has_bool(value: Any) -> bool:
    return isinstance(value, bool) or isinstance(value, list) and any(map(_has_bool, value))


def float_array(value, field: str, shape: Optional[Tuple[int, ...]] = None) -> np.ndarray:
    """`value` as an array of finite floats, of `shape` when given; otherwise
    ConfigError naming `field`. Strings, booleans and ragged nesting are
    rejected."""
    try:
        arr = np.asarray(value)
        if arr.dtype.kind not in "iuf" or _has_bool(value):
            raise ValueError
    except ValueError:  # also raised for ragged nesting
        raise ConfigError(field, f"expected numbers, got {value!r}") from None
    if shape is not None and arr.shape != shape:
        raise ConfigError(field, f"expected shape {shape}, got {arr.shape}")
    arr = arr.astype(float)
    if not np.isfinite(arr).all():
        raise ConfigError(field, f"entries must be finite, got {value!r}")
    return arr


def weight_matrix(value, dim: int, field: str) -> np.ndarray:
    """A diagonal (length-dim) or full (dim x dim) weight array as a matrix."""
    arr = float_array(value, field)
    if arr.shape != ((dim,) if arr.ndim == 1 else (dim, dim)):
        raise ConfigError(field, f"expected {dim} weights or a {dim}x{dim} matrix, got {arr.shape}")
    return np.diag(arr) if arr.ndim == 1 else arr


def validate_config(cfg: ScenarioConfig) -> None:
    record = scenario_record(cfg.scenario)
    positive(cfg.dt, "dt")
    positive(cfg.horizon, "horizon")
    if cfg.horizon < cfg.dt:
        raise ConfigError("horizon", f"must be at least dt, got {cfg.horizon}")
    if cfg.horizon / cfg.dt > MAX_STEPS:
        raise ConfigError("horizon", f"more than {MAX_STEPS} steps of dt={cfg.dt}")
    if cfg.scenario == "custom-linear" and cfg.dt != 1.0:
        raise ConfigError("dt", f"the custom-linear benchmark steps once per second, got {cfg.dt}")
    # a solve runs exactly horizon / dt steps
    if abs(cfg.horizon / cfg.dt - round(cfg.horizon / cfg.dt)) > 1e-6:
        raise ConfigError("horizon", f"must be a multiple of dt={cfg.dt}, got {cfg.horizon}")
    integer(cfg.seed, "seed", 0)
    if not isinstance(cfg.output_dir, str):
        raise ConfigError("output_dir", f"expected a path, got {cfg.output_dir!r}")
    if not record.initial_state:
        if cfg.initial_state != []:
            raise ConfigError(
                "initial_state", "must be empty: rendezvous.chaser and rendezvous.target give the initial state"
            )
    else:
        init = float_array(cfg.initial_state, "initial_state", (len(record.initial_state),))
        # six entries are Euler angles and rates: the model's pitch rule
        if len(init) == 6 and abs(math.cos(init[1] * DEG)) < COS_THETA_MIN:
            raise ConfigError("initial_state", "pitch angle sits on the kinematic singularity, cos(pitch) = 0")

    Q = weight_matrix(cfg.q, len(record.q), "q")
    if not np.allclose(Q, Q.T) or not is_psd(Q):
        raise ConfigError("q", "must be symmetric positive semidefinite")
    R = weight_matrix(cfg.r, len(record.control_columns), "r")
    # the stationary design solves against R / 2, which must stay definite
    if not np.allclose(R, R.T) or np.any(np.linalg.eigvalsh(R / 2.0) <= 0.0):
        raise ConfigError("r", "must be symmetric positive definite")

    if cfg.sweep.grid is not None:
        grid = float_array(cfg.sweep.grid, "sweep.grid")
        if grid.ndim != 1 or not len(grid):
            raise ConfigError("sweep.grid", "must be a non-empty list of transfer times")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("sweep.grid", "must be strictly ascending")
        for T in grid:
            if T <= 0 or abs(T / cfg.dt - round(T / cfg.dt)) > 1e-6:
                raise ConfigError("sweep.grid", f"{T} is not a positive multiple of dt={cfg.dt}")
            if T / cfg.dt > MAX_STEPS:
                raise ConfigError("sweep.grid", f"transfer time {T} is more than {MAX_STEPS} steps of dt={cfg.dt}")

    if cfg.convergence_levels is not None:
        lv = float_array(cfg.convergence_levels, "convergence_levels")
        if lv.ndim != 1 or any(x <= 0 for x in lv) or any(b >= a for a, b in zip(lv, lv[1:])):
            raise ConfigError("convergence_levels", "must be strictly decreasing positive numbers")

    for path, diag in (
        ("attitude.inertia_diag", cfg.attitude.inertia_diag),
        ("lander.inertia_diag", cfg.lander.inertia_diag),
    ):
        if not (float_array(diag, path, (3,)) > 0.0).all():
            raise ConfigError(path, f"entries must be positive, got {diag!r}")
    float_array(cfg.lander.initial_position_m, "lander.initial_position_m", (3,))
    float_array(cfg.lander.initial_velocity_mps, "lander.initial_velocity_mps", (3,))
    for name in ("isp_s", "g_ref", "initial_mass_kg"):
        positive(getattr(cfg.lander, name), f"lander.{name}")
    for name in ("penalty_weight", "penalty_rate", "terminal_sink_rate_mps", "touchdown_speed_limit_mps"):
        real(getattr(cfg.lander, name), f"lander.{name}")
    if real(cfg.lander.terminal_weight, "lander.terminal_weight") < 0.0:
        raise ConfigError("lander.terminal_weight", f"must not be negative, got {cfg.lander.terminal_weight!r}")
    for name in ("mu", "alpha", "mass_kg"):
        positive(getattr(cfg.rendezvous, name), f"rendezvous.{name}")
    for name in ("chaser", "target"):
        orbit = getattr(cfg.rendezvous, name)
        positive(orbit.a_km, f"rendezvous.{name}.a_km")
        if not 0.0 <= real(orbit.e, f"rendezvous.{name}.e") < 1.0:
            raise ConfigError(f"rendezvous.{name}.e", f"must lie in [0, 1), got {orbit.e!r}")
        for angle in ("i_deg", "raan_deg", "argp_deg", "nu_deg"):
            real(getattr(orbit, angle), f"rendezvous.{name}.{angle}")


def default_sweep_grid(cfg: ScenarioConfig) -> List[float]:
    """20 log-spaced transfer times between 5% and 100% of the horizon,
    snapped to dt multiples and deduplicated (ConfigError if 5% is 0)."""
    if cfg.sweep.grid is not None:
        return list(cfg.sweep.grid)
    if cfg.scenario == "custom-linear":
        return [float(k) for k in range(1, int(cfg.horizon / cfg.dt) + 1)]
    shortest = 0.05 * cfg.horizon
    if shortest == 0.0:
        raise ConfigError("horizon", f"5% of {cfg.horizon!r} underflows to 0: no default grid spans it")
    raw = np.geomspace(shortest, cfg.horizon, 20)
    snapped = sorted({max(1, round(T / cfg.dt)) * cfg.dt for T in raw})
    return [float(T) for T in snapped]
