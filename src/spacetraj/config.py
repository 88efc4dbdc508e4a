"""Scenario configuration: parsing, validation, defaults, round-tripping.

Configs are JSON (UTF-8, nesting allowed). Angles cross this boundary in
degrees and are converted where the problem objects are built; weight
matrices may be given as a diagonal (list of length n) or a full matrix
(n x n nested lists). Unknown keys anywhere are rejected with the offending
dotted path.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .errors import ConfigError
from .ilqr import SolverSettings
from .lqr import TerminalSetSpec
from . import scenarios as sc

SCENARIOS = ("attitude", "rendezvous", "soft-landing", "custom-linear")

STATE_DIMS = {"attitude": 6, "rendezvous": 6, "soft-landing": 12, "custom-linear": 1}
CONTROL_DIMS = {"attitude": 3, "rendezvous": 3, "soft-landing": 6, "custom-linear": 1}

# Largest horizon / dt accepted (each step is a stored state and control).
MAX_STEPS = 10**6
# Most line-search trials per iLQR iteration (solver.alpha_count).
MAX_LINE_SEARCH_STEPS = 100


@dataclass
class SolverConfig:
    max_iterations: int = 500
    tolerance: float = 1e-8
    alpha_factor: float = 0.7
    alpha_count: int = 16
    reg_init: float = 1e-6
    reg_growth: float = 10.0
    reg_shrink: float = 0.1
    reg_min: float = 1e-8
    reg_max: float = 1e8
    cost_cap: float = 1e30

    def to_settings(self) -> SolverSettings:
        return SolverSettings(
            max_iterations=int(self.max_iterations),
            tolerance=self.tolerance,
            alphas=tuple(self.alpha_factor**i for i in range(int(self.alpha_count))),
            reg_init=self.reg_init,
            reg_growth=self.reg_growth,
            reg_shrink=self.reg_shrink,
            reg_min=self.reg_min,
            reg_max=self.reg_max,
            cost_cap=self.cost_cap,
        )


@dataclass
class TerminalSetConfig:
    level: Optional[float] = None
    tolerance: Optional[float] = None  # scenario default when omitted
    regulation_cap: Optional[int] = None  # 10 * horizon / dt when omitted
    state_tol: float = 1e-6
    cost_cap: float = 1e12

    def to_spec(self, horizon: float, dt: float, default_tolerance: float) -> TerminalSetSpec:
        cap = self.regulation_cap
        if cap is None:
            cap = sc.default_regulation_cap(horizon, dt)
        return TerminalSetSpec(
            level=self.level,
            tolerance=self.tolerance if self.tolerance is not None else default_tolerance,
            regulation_cap=int(cap),
            state_tol=self.state_tol,
            cost_cap=self.cost_cap,
        )


@dataclass
class SweepConfig:
    grid: Optional[List[float]] = None  # log-spaced default when omitted
    warm_start: bool = True


@dataclass
class OrbitConfig:
    a_km: float
    e: float
    i_deg: float
    raan_deg: float
    argp_deg: float
    nu_deg: float

    def to_elements(self) -> sc.OrbitalElements:
        d = math.pi / 180.0
        return sc.OrbitalElements(
            a=self.a_km,
            e=self.e,
            i=self.i_deg * d,
            raan=self.raan_deg * d,
            argp=self.argp_deg * d,
            nu=self.nu_deg * d,
        )


@dataclass
class AttitudeConfig:
    inertia_diag: List[float] = field(default_factory=lambda: [4500.0, 2000.0, 7500.0])


@dataclass
class RendezvousConfig:
    mu: float = 398600.0
    alpha: float = 5e-4
    mass_kg: float = 1000.0
    chaser: OrbitConfig = field(
        default_factory=lambda: OrbitConfig(7200.0, 0.22, 64.0, 66.0, 28.0, 81.0)
    )
    target: OrbitConfig = field(
        default_factory=lambda: OrbitConfig(7000.0, 0.1, 40.0, 35.0, 10.0, 120.0)
    )


@dataclass
class LanderConfig:
    isp_s: float = 225.0
    g_ref: float = 3.7114
    initial_mass_kg: float = 1000.0
    inertia_diag: List[float] = field(default_factory=lambda: [4500.0, 2000.0, 7500.0])
    penalty_weight: float = 100.0
    penalty_rate: float = 1.0
    penalty_coord_scale: float = 1.0
    terminal_weight: float = sc.LANDER_TERMINAL_WEIGHT
    terminal_sink_rate_mps: float = sc.LANDER_SINK_RATE
    touchdown_speed_limit_mps: float = 2.0
    initial_position_m: List[float] = field(default_factory=lambda: [300.0, -200.0, 1000.0])
    initial_velocity_mps: List[float] = field(default_factory=lambda: [100.0, 120.0, 0.0])


@dataclass
class ScenarioConfig:
    scenario: str
    dt: float
    horizon: float
    initial_state: List[float]
    goal_state: List[float]
    q: Any  # diagonal list or full matrix
    r: Any
    solver: SolverConfig = field(default_factory=SolverConfig)
    terminal_set: TerminalSetConfig = field(default_factory=TerminalSetConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    attitude: AttitudeConfig = field(default_factory=AttitudeConfig)
    rendezvous: RendezvousConfig = field(default_factory=RendezvousConfig)
    lander: LanderConfig = field(default_factory=LanderConfig)
    convergence_levels: Optional[List[float]] = None
    output_dir: str = "out"
    seed: int = 0


_SCENARIO_BASE = {
    "attitude": dict(
        dt=sc.ATTITUDE_DT,
        horizon=sc.ATTITUDE_HORIZON,
        initial_state=list(sc.ATTITUDE_INITIAL_DEG),
        goal_state=[0.0] * 6,
        q=[1.0] * 6,
        r=[1.0] * 3,
    ),
    "rendezvous": dict(
        dt=sc.RENDEZVOUS_DT,
        horizon=sc.RENDEZVOUS_HORIZON,
        initial_state=[],  # derived from the orbital elements
        goal_state=[0.0] * 6,
        q=list(sc.RENDEZVOUS_Q_DIAG),
        r=list(sc.RENDEZVOUS_R_DIAG),
    ),
    "soft-landing": dict(
        dt=sc.LANDER_DT,
        horizon=sc.LANDER_HORIZON,
        initial_state=list(sc.LANDER_INITIAL_ATTITUDE_DEG),
        goal_state=[0.0] * 12,
        q=list(sc.LANDER_Q_DIAG),
        r=list(sc.LANDER_R_DIAG),
    ),
    "custom-linear": dict(
        dt=1.0,
        horizon=40.0,
        initial_state=[1.0],
        goal_state=[0.0],
        q=[2.0],
        r=[2.0],
    ),
}

DEFAULT_MEMBERSHIP_TOLERANCE = {
    "attitude": 1e-2,
    "rendezvous": 5e-2,
    "soft-landing": 1e-2,
    "custom-linear": 1e-2,
}


def _coerce(value: Any, template: Any, path: str) -> Any:
    """Fill a dataclass/list/scalar `template` from a parsed JSON `value`,
    rejecting unknown keys and reporting dotted paths on errors."""
    if hasattr(template, "__dataclass_fields__"):
        if not isinstance(value, dict):
            raise ConfigError(path, f"expected an object, got {type(value).__name__}")
        out = copy.deepcopy(template)
        fields = template.__dataclass_fields__
        for key, sub in value.items():
            if key not in fields:
                raise ConfigError(f"{path}.{key}" if path else key, "unknown key")
            current = getattr(out, key)
            setattr(out, key, _coerce(sub, current, f"{path}.{key}" if path else key))
        return out
    if isinstance(value, bool):
        if not isinstance(template, (bool, type(None))):
            raise ConfigError(path, "unexpected boolean")
        return value
    if isinstance(value, (int, float)):
        if isinstance(template, bool):
            raise ConfigError(path, "expected a boolean")
        return value if isinstance(value, int) and isinstance(template, int) else float(value) if isinstance(template, float) else value
    return value


def scenario_defaults(scenario: str) -> ScenarioConfig:
    if scenario not in SCENARIOS:
        raise ConfigError("scenario", f"must be one of {SCENARIOS}, got {scenario!r}")
    return ScenarioConfig(scenario=scenario, **copy.deepcopy(_SCENARIO_BASE[scenario]))


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
    rest = {k: v for k, v in data.items() if k != "scenario"}
    cfg = _coerce(rest, base, "")
    validate_config(cfg)
    return cfg


def parse_config(
    path: Optional[str] = None, overrides: Sequence[str] = ()
) -> ScenarioConfig:
    data: Dict[str, Any] = {}
    if path is not None:
        text = Path(path).read_text(encoding="utf-8").strip()
        if text:
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    if overrides:
        data = apply_overrides(data, overrides)
    return parse_config_dict(data)


def emit_config(cfg: ScenarioConfig) -> Dict[str, Any]:
    """Inverse of parse_config_dict: parse(emit(cfg)) == cfg."""
    return asdict(cfg)


def weight_matrix(value: Any, dim: int, path: str) -> np.ndarray:
    """Diagonal list or full matrix -> validated ndarray."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 1:
        if arr.shape != (dim,):
            raise ConfigError(path, f"expected {dim} diagonal entries, got {arr.shape[0]}")
        return np.diag(arr)
    if arr.ndim == 2:
        if arr.shape != (dim, dim):
            raise ConfigError(path, f"expected a {dim}x{dim} matrix, got {arr.shape}")
        return arr
    raise ConfigError(path, "expected a diagonal list or a square matrix")


def _check_inertia_diag(value: Any, path: str) -> None:
    """Principal moments of inertia: three finite, positive numbers."""
    try:
        diag = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(path, "expected a list of 3 numbers") from None
    if diag.shape != (3,):
        raise ConfigError(path, f"expected 3 entries, got shape {diag.shape}")
    if not (np.isfinite(diag).all() and (diag > 0.0).all()):
        raise ConfigError(path, f"entries must be finite and positive, got {diag.tolist()}")


def _real(value: Any, path: str) -> float:
    """A finite real number; booleans and strings are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        raise ConfigError(path, f"must be finite, got {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(path, f"must be finite, got {value!r}")
    return out


def _positive(value: Any, path: str) -> None:
    if _real(value, path) <= 0.0:
        raise ConfigError(path, f"must be positive, got {value!r}")


def _in_unit_interval(value: Any, path: str) -> None:
    if not 0.0 < _real(value, path) < 1.0:
        raise ConfigError(path, f"must lie in (0, 1), got {value!r}")


def _integer(value: Any, path: str, minimum: int, maximum: Optional[int] = None) -> None:
    """An integral number (2 or 2.0, not 2.5) within [minimum, maximum]."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(path, f"must be an integer, got {value!r}")
    if value < minimum or (maximum is not None and value > maximum):
        bound = f"at least {minimum}" if maximum is None else f"between {minimum} and {maximum}"
        raise ConfigError(path, f"must be {bound}, got {value!r}")


def validate_config(cfg: ScenarioConfig) -> None:
    if cfg.scenario not in SCENARIOS:
        raise ConfigError("scenario", f"must be one of {SCENARIOS}")
    _positive(cfg.dt, "dt")
    _positive(cfg.horizon, "horizon")
    if cfg.horizon < cfg.dt:
        raise ConfigError("horizon", f"must be at least dt, got {cfg.horizon}")
    if cfg.horizon / cfg.dt > MAX_STEPS:
        raise ConfigError("horizon", f"more than {MAX_STEPS} steps of dt={cfg.dt}")
    n = STATE_DIMS[cfg.scenario]
    m = CONTROL_DIMS[cfg.scenario]

    if cfg.scenario != "rendezvous":
        init = np.asarray(cfg.initial_state, dtype=float)
        dim = 6 if cfg.scenario in ("attitude", "soft-landing") else n
        if init.shape != (dim,):
            raise ConfigError("initial_state", f"expected {dim} entries, got {init.shape}")
        if not np.all(np.isfinite(init)):
            raise ConfigError("initial_state", "entries must be finite")
        if cfg.scenario in ("attitude", "soft-landing") and abs(abs(init[1]) - 90.0) < 1e-6:
            raise ConfigError("initial_state", "pitch angle sits on the 90 deg singularity")
    goal = np.asarray(cfg.goal_state, dtype=float)
    if goal.shape != (n,):
        raise ConfigError("goal_state", f"expected {n} entries, got {goal.shape}")
    if np.any(goal != 0.0):
        raise ConfigError("goal_state", "only the origin goal is supported")

    Q = weight_matrix(cfg.q, n, "q")
    if not np.allclose(Q, Q.T) or np.any(np.linalg.eigvalsh(Q) < -1e-12):
        raise ConfigError("q", "must be symmetric positive semidefinite")
    R = weight_matrix(cfg.r, m, "r")
    if not np.allclose(R, R.T) or np.any(np.linalg.eigvalsh(R) <= 0.0):
        raise ConfigError("r", "must be symmetric positive definite")

    s = cfg.solver
    _integer(s.max_iterations, "solver.max_iterations", 1)
    _positive(s.tolerance, "solver.tolerance")
    _in_unit_interval(s.alpha_factor, "solver.alpha_factor")
    _integer(s.alpha_count, "solver.alpha_count", 1, MAX_LINE_SEARCH_STEPS)
    if s.alpha_factor ** (s.alpha_count - 1) <= 0.0:
        raise ConfigError("solver.alpha_count", "the smallest line-search step underflows to zero")
    for name in ("reg_min", "reg_init", "reg_max"):
        _positive(getattr(s, name), f"solver.{name}")
    if not (s.reg_min <= s.reg_init <= s.reg_max):
        raise ConfigError("solver.reg_init", "need 0 < reg_min <= reg_init <= reg_max")
    if _real(s.reg_growth, "solver.reg_growth") <= 1.0:
        raise ConfigError("solver.reg_growth", f"must be greater than 1, got {s.reg_growth!r}")
    _in_unit_interval(s.reg_shrink, "solver.reg_shrink")
    _positive(s.cost_cap, "solver.cost_cap")

    t = cfg.terminal_set
    if t.level is not None:
        _positive(t.level, "terminal_set.level")
    if t.tolerance is not None:
        _positive(t.tolerance, "terminal_set.tolerance")
    if t.regulation_cap is not None:
        _integer(t.regulation_cap, "terminal_set.regulation_cap", 1)
    _positive(t.state_tol, "terminal_set.state_tol")
    _positive(t.cost_cap, "terminal_set.cost_cap")

    if cfg.sweep.grid is not None:
        grid = list(cfg.sweep.grid)
        if not grid:
            raise ConfigError("sweep.grid", "must not be empty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("sweep.grid", "must be strictly ascending")
        for T in grid:
            _real(T, "sweep.grid")
            if T <= 0 or abs(T / cfg.dt - round(T / cfg.dt)) > 1e-6:
                raise ConfigError("sweep.grid", f"{T} is not a positive multiple of dt={cfg.dt}")

    if cfg.convergence_levels is not None:
        lv = list(cfg.convergence_levels)
        for x in lv:
            _real(x, "convergence_levels")
        if any(x <= 0 for x in lv) or any(b >= a for a, b in zip(lv, lv[1:])):
            raise ConfigError("convergence_levels", "must be positive and strictly decreasing")

    for path, diag in (
        ("attitude.inertia_diag", cfg.attitude.inertia_diag),
        ("lander.inertia_diag", cfg.lander.inertia_diag),
    ):
        _check_inertia_diag(diag, path)
    if cfg.lander.isp_s <= 0 or cfg.lander.g_ref <= 0 or cfg.lander.initial_mass_kg <= 0:
        raise ConfigError("lander", "isp_s, g_ref, initial_mass_kg must be positive")
    if cfg.rendezvous.alpha <= 0 or cfg.rendezvous.mu <= 0 or cfg.rendezvous.mass_kg <= 0:
        raise ConfigError("rendezvous", "mu, alpha, mass_kg must be positive")
    for name, orbit in (("chaser", cfg.rendezvous.chaser), ("target", cfg.rendezvous.target)):
        if orbit.a_km <= 0 or not (0 <= orbit.e < 1):
            raise ConfigError(f"rendezvous.{name}", "need a_km > 0 and 0 <= e < 1")


def default_sweep_grid(cfg: ScenarioConfig) -> List[float]:
    """20 log-spaced transfer times between 5% and 100% of the horizon,
    snapped to dt multiples and deduplicated."""
    if cfg.sweep.grid is not None:
        return list(cfg.sweep.grid)
    if cfg.scenario == "custom-linear":
        return [float(k) for k in range(1, int(cfg.horizon / cfg.dt) + 1)]
    raw = np.geomspace(0.05 * cfg.horizon, cfg.horizon, 20)
    snapped = sorted({max(1, round(T / cfg.dt)) * cfg.dt for T in raw})
    return [float(T) for T in snapped]


def build_two_phase_problem(cfg: ScenarioConfig):
    """Scenario config -> solvable problem object (two-phase scenarios only)."""
    settings = cfg.solver.to_settings()
    tol = DEFAULT_MEMBERSHIP_TOLERANCE[cfg.scenario]
    terminal_set = cfg.terminal_set.to_spec(cfg.horizon, cfg.dt, tol)
    if cfg.scenario == "attitude":
        return sc.attitude_problem(
            initial_state_deg=cfg.initial_state,
            inertia_diag=cfg.attitude.inertia_diag,
            dt=cfg.dt,
            q=weight_matrix(cfg.q, 6, "q"),
            r=weight_matrix(cfg.r, 3, "r"),
            settings=settings,
            terminal_set=terminal_set,
        )
    if cfg.scenario == "rendezvous":
        params = sc.RendezvousParams(mu=cfg.rendezvous.mu, alpha=cfg.rendezvous.alpha)
        return sc.rendezvous_problem(
            chaser=cfg.rendezvous.chaser.to_elements(),
            target=cfg.rendezvous.target.to_elements(),
            mass=cfg.rendezvous.mass_kg,
            params=params,
            dt=cfg.dt,
            q=weight_matrix(cfg.q, 6, "q"),
            r=weight_matrix(cfg.r, 3, "r"),
            settings=settings,
            terminal_set=terminal_set,
        )
    if cfg.scenario == "custom-linear":
        import dataclasses

        bp = sc.linear_benchmark(x0=float(cfg.initial_state[0]), settings=settings)
        return dataclasses.replace(bp, terminal_set=terminal_set)
    raise ConfigError("scenario", f"{cfg.scenario} has no two-phase formulation")


def build_landing_problem(cfg: ScenarioConfig):
    if cfg.scenario != "soft-landing":
        raise ConfigError("scenario", "landing problem requires scenario=soft-landing")
    settings = cfg.solver.to_settings()
    L = cfg.lander
    params = sc.LanderParams(
        inertia=np.diag(L.inertia_diag),
        isp=L.isp_s,
        g_ref=L.g_ref,
        initial_mass=L.initial_mass_kg,
    )
    return sc.soft_landing_problem(
        initial_attitude_deg=cfg.initial_state,
        initial_position_m=L.initial_position_m,
        initial_velocity_mps=L.initial_velocity_mps,
        params=params,
        dt=cfg.dt,
        horizon=cfg.horizon,
        q=weight_matrix(cfg.q, 12, "q"),
        r=weight_matrix(cfg.r, 6, "r"),
        terminal_weight=L.terminal_weight,
        terminal_sink_rate=L.terminal_sink_rate_mps,
        penalty_weight=L.penalty_weight,
        penalty_rate=L.penalty_rate,
        penalty_coord_scale=L.penalty_coord_scale,
        touchdown_speed_limit=L.touchdown_speed_limit_mps,
        settings=settings,
    )
