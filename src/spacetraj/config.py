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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .errors import ConfigError
from .ilqr import LINE_SEARCH_FACTOR, LINE_SEARCH_STEPS, SolverSettings
from .lqr import TerminalSetSpec
from . import scenarios as sc

SCENARIOS = ("attitude", "rendezvous", "soft-landing", "custom-linear")

STATE_DIMS = {"attitude": 6, "rendezvous": 6, "soft-landing": 12, "custom-linear": 1}
CONTROL_DIMS = {"attitude": 3, "rendezvous": 3, "soft-landing": 6, "custom-linear": 1}

# Largest horizon / dt accepted (each step is a stored state and control).
MAX_STEPS = 10**6
# Most line-search trials per iLQR iteration (solver.alpha_count).
MAX_LINE_SEARCH_STEPS = 100


# Every default below is the default of the object the field configures.
@dataclass
class SolverConfig:
    max_iterations: int = SolverSettings.max_iterations
    tolerance: float = SolverSettings.tolerance
    alpha_factor: float = LINE_SEARCH_FACTOR
    alpha_count: int = LINE_SEARCH_STEPS
    reg_init: float = SolverSettings.reg_init
    reg_growth: float = SolverSettings.reg_growth
    reg_shrink: float = SolverSettings.reg_shrink
    reg_min: float = SolverSettings.reg_min
    reg_max: float = SolverSettings.reg_max
    cost_cap: float = SolverSettings.cost_cap

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
    state_tol: float = TerminalSetSpec.state_tol
    cost_cap: float = TerminalSetSpec.cost_cap

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
        return sc.orbit_deg(self.a_km, self.e, self.i_deg, self.raan_deg, self.argp_deg, self.nu_deg)


@dataclass
class AttitudeConfig:
    inertia_diag: List[float] = field(default_factory=lambda: list(sc.DEFAULT_INERTIA_DIAG))


@dataclass
class RendezvousConfig:
    mu: float = sc.EARTH_MU
    alpha: float = sc.RendezvousParams.alpha
    mass_kg: float = sc.RENDEZVOUS_MASS_KG
    chaser: OrbitConfig = field(default_factory=lambda: OrbitConfig(*sc.CHASER_ORBIT))
    target: OrbitConfig = field(default_factory=lambda: OrbitConfig(*sc.TARGET_ORBIT))


@dataclass
class LanderConfig:
    isp_s: float = sc.LanderParams.isp
    g_ref: float = sc.LanderParams.g_ref
    initial_mass_kg: float = sc.LanderParams.initial_mass
    inertia_diag: List[float] = field(default_factory=lambda: list(sc.DEFAULT_INERTIA_DIAG))
    penalty_weight: float = sc.LANDER_PENALTY_WEIGHT
    penalty_rate: float = sc.LANDER_PENALTY_RATE
    penalty_coord_scale: float = sc.LANDER_PENALTY_COORD_SCALE
    terminal_weight: float = sc.LANDER_TERMINAL_WEIGHT
    terminal_sink_rate_mps: float = sc.LANDER_SINK_RATE
    touchdown_speed_limit_mps: float = sc.TOUCHDOWN_SPEED_LIMIT
    initial_position_m: List[float] = field(default_factory=lambda: list(sc.LANDER_INITIAL_POSITION_M))
    initial_velocity_mps: List[float] = field(default_factory=lambda: list(sc.LANDER_INITIAL_VELOCITY_MPS))


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
        q=list(sc.ATTITUDE_Q_DIAG),
        r=list(sc.ATTITUDE_R_DIAG),
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
        horizon=sc.LINEAR_HORIZON,
        initial_state=[1.0],
        goal_state=[0.0],
        q=[2.0],
        r=[2.0],
    ),
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
    if isinstance(template, bool) and not isinstance(value, bool):
        raise ConfigError(path, "expected a boolean")
    if isinstance(value, bool):
        if not isinstance(template, (bool, type(None))):
            raise ConfigError(path, "unexpected boolean")
        return value
    if isinstance(value, (int, float)):
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
    if cfg.scenario == "custom-linear" and cfg.dt != 1.0:
        raise ConfigError("dt", f"the custom-linear benchmark steps once per second, got {cfg.dt}")
    # a two-phase solve runs exactly horizon / dt steps; the lander rounds
    if cfg.scenario != "soft-landing" and abs(cfg.horizon / cfg.dt - round(cfg.horizon / cfg.dt)) > 1e-6:
        raise ConfigError("horizon", f"must be a multiple of dt={cfg.dt}, got {cfg.horizon}")
    _integer(cfg.seed, "seed", 0)
    if not isinstance(cfg.output_dir, str):
        raise ConfigError("output_dir", f"expected a path, got {cfg.output_dir!r}")
    n = STATE_DIMS[cfg.scenario]
    m = CONTROL_DIMS[cfg.scenario]

    if cfg.scenario != "rendezvous":
        dim = 6 if cfg.scenario in ("attitude", "soft-landing") else n
        init = sc.float_array(cfg.initial_state, "initial_state", (dim,))
        if cfg.scenario in ("attitude", "soft-landing") and abs(abs(init[1]) - 90.0) < 1e-6:
            raise ConfigError("initial_state", "pitch angle sits on the 90 deg singularity")
    if np.any(sc.float_array(cfg.goal_state, "goal_state", (n,)) != 0.0):
        raise ConfigError("goal_state", "only the origin goal is supported")

    Q = sc.weight_matrix(cfg.q, n, "q")
    if not np.allclose(Q, Q.T) or np.any(np.linalg.eigvalsh(Q) < -1e-12):
        raise ConfigError("q", "must be symmetric positive semidefinite")
    R = sc.weight_matrix(cfg.r, m, "r")
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
        grid = sc.float_array(cfg.sweep.grid, "sweep.grid")
        if grid.ndim != 1 or not len(grid):
            raise ConfigError("sweep.grid", "must be a non-empty list of transfer times")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("sweep.grid", "must be strictly ascending")
        for T in grid:
            if T <= 0 or abs(T / cfg.dt - round(T / cfg.dt)) > 1e-6:
                raise ConfigError("sweep.grid", f"{T} is not a positive multiple of dt={cfg.dt}")

    if cfg.convergence_levels is not None:
        lv = sc.float_array(cfg.convergence_levels, "convergence_levels")
        if lv.ndim != 1 or any(x <= 0 for x in lv) or any(b >= a for a, b in zip(lv, lv[1:])):
            raise ConfigError("convergence_levels", "must be strictly decreasing positive numbers")

    for path, diag in (
        ("attitude.inertia_diag", cfg.attitude.inertia_diag),
        ("lander.inertia_diag", cfg.lander.inertia_diag),
    ):
        if not (sc.float_array(diag, path, (3,)) > 0.0).all():
            raise ConfigError(path, f"entries must be positive, got {diag!r}")
    sc.float_array(cfg.lander.initial_position_m, "lander.initial_position_m", (3,))
    sc.float_array(cfg.lander.initial_velocity_mps, "lander.initial_velocity_mps", (3,))
    for name in ("isp_s", "g_ref", "initial_mass_kg"):
        _positive(getattr(cfg.lander, name), f"lander.{name}")
    for name in ("penalty_weight", "penalty_rate", "penalty_coord_scale", "terminal_sink_rate_mps", "touchdown_speed_limit_mps"):
        _real(getattr(cfg.lander, name), f"lander.{name}")
    if _real(cfg.lander.terminal_weight, "lander.terminal_weight") < 0.0:
        raise ConfigError("lander.terminal_weight", f"must not be negative, got {cfg.lander.terminal_weight!r}")
    for name in ("mu", "alpha", "mass_kg"):
        _positive(getattr(cfg.rendezvous, name), f"rendezvous.{name}")
    for name in ("chaser", "target"):
        orbit = getattr(cfg.rendezvous, name)
        _positive(orbit.a_km, f"rendezvous.{name}.a_km")
        if not 0.0 <= _real(orbit.e, f"rendezvous.{name}.e") < 1.0:
            raise ConfigError(f"rendezvous.{name}.e", f"must lie in [0, 1), got {orbit.e!r}")
        for angle in ("i_deg", "raan_deg", "argp_deg", "nu_deg"):
            _real(getattr(orbit, angle), f"rendezvous.{name}.{angle}")


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


def build_problem(cfg: ScenarioConfig):
    """Scenario config -> the problem object every CLI command runs."""
    if cfg.scenario == "soft-landing":
        return build_landing_problem(cfg)
    return build_two_phase_problem(cfg)


def build_two_phase_problem(cfg: ScenarioConfig):
    """Scenario config -> solvable problem object (two-phase scenarios only),
    carrying the configured horizon, sweep grid and warm-start flag."""
    settings = cfg.solver.to_settings()
    if cfg.scenario == "attitude":
        problem = sc.attitude_problem(
            initial_state_deg=cfg.initial_state,
            inertia_diag=cfg.attitude.inertia_diag,
            dt=cfg.dt,
            q=cfg.q,
            r=cfg.r,
            settings=settings,
        )
    elif cfg.scenario == "rendezvous":
        params = sc.RendezvousParams(mu=cfg.rendezvous.mu, alpha=cfg.rendezvous.alpha)
        problem = sc.rendezvous_problem(
            chaser=cfg.rendezvous.chaser.to_elements(),
            target=cfg.rendezvous.target.to_elements(),
            mass=cfg.rendezvous.mass_kg,
            params=params,
            dt=cfg.dt,
            q=cfg.q,
            r=cfg.r,
            settings=settings,
        )
    elif cfg.scenario == "custom-linear":
        problem = sc.linear_benchmark(x0=float(cfg.initial_state[0]), settings=settings)
    else:
        raise ConfigError("scenario", f"{cfg.scenario} has no two-phase formulation")
    return replace(
        problem,
        # an unset membership tolerance stays the scenario's own
        terminal_set=cfg.terminal_set.to_spec(cfg.horizon, cfg.dt, problem.terminal_set.tolerance),
        horizon=cfg.horizon,
        grid=tuple(default_sweep_grid(cfg)),
        warm_start=cfg.sweep.warm_start,
    )


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
        q=cfg.q,
        r=cfg.r,
        terminal_weight=L.terminal_weight,
        terminal_sink_rate=L.terminal_sink_rate_mps,
        penalty_weight=L.penalty_weight,
        penalty_rate=L.penalty_rate,
        penalty_coord_scale=L.penalty_coord_scale,
        touchdown_speed_limit=L.touchdown_speed_limit_mps,
        settings=settings,
    )
