"""Config parsing, validation, defaults, and round-tripping."""

import copy
import dataclasses
import json

import numpy as np
import pytest

from spacetraj import scenarios
from spacetraj.config import (
    RENDEZVOUS_MEMBERSHIP_TOLERANCE,
    apply_overrides,
    default_sweep_grid,
    emit_config,
    parse_config,
    parse_config_dict,
    scenario_defaults,
)
from spacetraj.errors import ConfigError
from spacetraj.ilqr import SolverSettings
from spacetraj.lqr import TerminalSetSpec
from spacetraj.scenarios import build_problem


def test_empty_file_plus_scenario_gives_full_defaults(tmp_path):
    cfg_file = tmp_path / "empty.json"
    cfg_file.write_text("")
    cfg = parse_config(str(cfg_file), overrides=["scenario=attitude"])
    assert cfg.dt == 0.1
    assert cfg.horizon == 200.0
    assert cfg.attitude.inertia_diag == [4500.0, 2000.0, 7500.0]
    assert cfg.initial_state == [85.94, -68.75, -120.32, 5.72, -5.72, 2.86]
    assert cfg.q == [1.0] * 6 and cfg.r == [1.0] * 3


def test_rendezvous_defaults():
    cfg = parse_config_dict({"scenario": "rendezvous"})
    assert cfg.dt == 2.0 and cfg.horizon == 6000.0
    assert cfg.rendezvous.mu == 398600.0
    assert cfg.rendezvous.alpha == 5e-4
    assert cfg.rendezvous.chaser.a_km == 7200.0 and cfg.rendezvous.chaser.e == 0.22
    assert cfg.rendezvous.target.nu_deg == 120.0


def test_lander_defaults():
    cfg = parse_config_dict({"scenario": "soft-landing"})
    assert cfg.dt == 0.2 and cfg.horizon == 30.0
    assert cfg.lander.isp_s == 225.0
    assert cfg.lander.g_ref == 3.7114
    assert cfg.lander.penalty_weight == 100.0 and cfg.lander.penalty_rate == 1.0
    assert cfg.lander.initial_position_m == [300.0, -200.0, 1000.0]
    assert cfg.lander.initial_velocity_mps == [100.0, 120.0, 0.0]


def assert_same(a, b, path="problem"):
    """Field by field equality of problem objects. A model is compared by
    its attributes (its steps by the caller), a function field by identity
    or else by its value at T = 300 s (a grid time of every two-phase
    default)."""
    if hasattr(a, "rates"):
        assert (a.state_dim, a.control_dim, a.dt, a.name) == (b.state_dim, b.control_dim, b.dt, b.name), path
    elif dataclasses.is_dataclass(a):
        assert type(a) is type(b), path
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
    elif callable(a) and a is not b:
        assert_same(a(300.0), b(300.0), f"{path}(300)")
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, b), path
    else:
        assert a == b, path


@pytest.mark.parametrize(
    "scenario,builder",
    [
        ("attitude", scenarios.attitude_problem),
        ("rendezvous", scenarios.rendezvous_problem),
        ("soft-landing", scenarios.soft_landing_problem),
        ("custom-linear", scenarios.linear_benchmark),
    ],
)
def test_default_config_builds_the_default_problem(scenario, builder):
    """A builder without a config builds the scenario's default config."""
    built, default = build_problem(scenario_defaults(scenario)), builder()
    assert_same(built, default)
    u = np.full(default.model.control_dim, 0.1)
    assert np.array_equal(built.model.step(built.x0, u), default.model.step(default.x0, u))


# Fields that do not describe the problem: where the outputs go, the seed
# of the Jacobian check and the levels of the convergence study (which runs
# on the linear benchmark's defaults).
EXEMPT = {"output_dir", "seed", "convergence_levels"}
# The lander is single-phase: it has no terminal set and no sweep.
EXEMPT_PREFIXES = {"soft-landing": ("terminal_set.", "sweep.")}
SECTIONS = {"attitude": "attitude", "rendezvous": "rendezvous", "soft-landing": "lander", "custom-linear": None}
# Fields that take only their default value in that scenario.
FIXED = {("custom-linear", "dt"), ("rendezvous", "initial_state")}
# Values for fields that are unset by default.
UNSET = {"terminal_set.level": 1.0}


def config_leaves(data, prefix=""):
    """(dotted path, list index or None, value) of every leaf of an emitted
    config; a list of numbers gives one leaf per entry."""
    for key, value in data.items():
        path = prefix + key
        if isinstance(value, dict):
            yield from config_leaves(value, path + ".")
        elif isinstance(value, list) and value and not isinstance(value[0], list):
            for i, entry in enumerate(value):
                yield path, i, entry
        else:
            yield path, None, value


def variants(path, value, data):
    """Other values of one leaf: a number halved and doubled, a count one
    less and one more, the other boolean, a value for an unset field."""
    if path == "sweep.grid":
        return [[data["horizon"]]]
    if path in UNSET:
        return [UNSET[path]]
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value - 1, value + 1]
    if isinstance(value, float):
        return [0.5 * value, 2.0 * value] if value else [0.5, -0.5]
    if value == []:
        return [[1.0, 2.0, 3.0]]
    raise AssertionError(f"no variant for {path}={value!r}")


def same_problem(a, b):
    try:
        assert_same(a, b)
    except AssertionError:
        return False
    u = np.full(a.model.control_dim, 0.1)
    return np.array_equal(a.model.step(a.x0, u), b.model.step(b.x0, u))


@pytest.mark.parametrize("scenario", ["attitude", "rendezvous", "soft-landing", "custom-linear"])
def test_every_config_field_reaches_the_problem(scenario):
    """Every field of a scenario's description, each list entry on its own,
    either changes the problem `build_problem` returns or is rejected by
    name: no field is read and then dropped. A field other than the named
    fixed ones must also take some other value."""
    data = emit_config(scenario_defaults(scenario))
    default = build_problem(scenario_defaults(scenario))
    other_sections = set(SECTIONS.values()) - {SECTIONS[scenario], None}
    checked = set()
    for path, index, value in config_leaves(data):
        if (
            path in EXEMPT | {"scenario"}
            or path.split(".")[0] in other_sections
            or path.startswith(EXEMPT_PREFIXES.get(scenario, ()))
        ):
            continue
        accepted = 0
        for other in variants(path, value, data):
            varied = copy.deepcopy(data)
            *parents, leaf = path.split(".")
            node = varied
            for part in parents:
                node = node[part]
            if index is None:
                node[leaf] = other
            else:
                node[leaf][index] = other
            name = path if index is None else f"{path}[{index}]"
            try:
                problem = build_problem(parse_config_dict(varied))
            except ConfigError as exc:
                assert exc.field == path, f"{name}={other!r} rejected as {exc.field}"
                continue
            assert not same_problem(problem, default), f"{name}={other!r} does not reach the problem"
            accepted += 1
        assert accepted or (scenario, path) in FIXED, f"{path} takes no other value"
        checked.add(path)
    assert {"dt", "horizon", "initial_state", "q", "r", "solver.max_iterations"} <= checked


@pytest.mark.parametrize("scenario", ["attitude", "rendezvous", "custom-linear"])
def test_the_configured_terminal_set_is_the_one_the_problem_runs(scenario):
    """The `terminal_set` section is the spec itself: the rendezvous
    tolerance is its scenario default, and the regulation cap has one
    default whatever the horizon."""
    cfg = scenario_defaults(scenario)
    assert build_problem(cfg).terminal_set == cfg.terminal_set
    tolerance = RENDEZVOUS_MEMBERSHIP_TOLERANCE if scenario == "rendezvous" else TerminalSetSpec.tolerance
    assert cfg.terminal_set.tolerance == tolerance
    for steps in (10, 2 * round(cfg.horizon / cfg.dt)):
        varied = parse_config_dict({"scenario": scenario, "horizon": steps * cfg.dt})
        assert build_problem(varied).terminal_set == varied.terminal_set == cfg.terminal_set
        assert varied.terminal_set.regulation_cap == 20000


def test_negative_dt_rejected():
    with pytest.raises(ConfigError, match="dt"):
        parse_config_dict({"scenario": "attitude", "dt": -1.0})


def test_unknown_key_rejected_with_path():
    with pytest.raises(ConfigError, match="lander.warp_drive"):
        parse_config_dict({"scenario": "soft-landing", "lander": {"warp_drive": 9}})


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError, match="scenario"):
        parse_config_dict({"scenario": "submarine"})


def test_diagonal_weight_expansion_and_dimension_error():
    cfg = parse_config_dict({"scenario": "attitude", "q": [1, 2, 3, 4, 5, 6]})
    problem = build_problem(cfg)
    # per-degree weights land on the diagonal after the unit conversion
    deg = np.pi / 180.0
    assert np.allclose(np.diag(problem.cost.Q), np.array([1, 2, 3, 4, 5, 6]) / deg**2)
    with pytest.raises(ConfigError, match="q"):
        parse_config_dict({"scenario": "attitude", "q": [1, 2, 3, 4, 5]})


def test_full_matrix_weights_accepted():
    q = (np.eye(6) + 0.01 * np.ones((6, 6))).tolist()
    cfg = parse_config_dict({"scenario": "attitude", "q": q})
    problem = build_problem(cfg)
    assert problem.cost.Q[0, 1] != 0.0


def test_pitch_singularity_initial_state_rejected():
    bad = [0.0, 90.0, 0.0, 0.0, 0.0, 0.0]
    with pytest.raises(ConfigError, match="initial_state"):
        parse_config_dict({"scenario": "attitude", "initial_state": bad})


def test_nonzero_goal_rejected():
    with pytest.raises(ConfigError, match="goal_state"):
        parse_config_dict({"scenario": "attitude", "goal_state": [1, 0, 0, 0, 0, 0]})


def test_sweep_grid_validation():
    with pytest.raises(ConfigError, match="sweep.grid"):
        parse_config_dict({"scenario": "attitude", "sweep": {"grid": [10.0, 5.0]}})
    with pytest.raises(ConfigError, match="sweep.grid"):
        parse_config_dict({"scenario": "attitude", "sweep": {"grid": [10.05]}})


@pytest.mark.parametrize("scenario", ["attitude", "rendezvous", "soft-landing", "custom-linear"])
def test_round_trip(scenario):
    cfg = scenario_defaults(scenario)
    assert parse_config_dict({"scenario": scenario, **{k: v for k, v in emit_config(cfg).items() if k != "scenario"}}) == cfg


def test_round_trip_with_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "soft-landing", "lander": {"isp_s": 300.0}}))
    cfg = parse_config(str(path), overrides=["lander.g_ref=3.0", "dt=0.1"])
    assert cfg.lander.isp_s == 300.0 and cfg.lander.g_ref == 3.0 and cfg.dt == 0.1
    again = parse_config_dict(emit_config(cfg))
    assert again == cfg


def test_apply_overrides_json_values():
    data = apply_overrides({}, ["scenario=attitude", "sweep.grid=[10, 80]", "sweep.warm_start=false"])
    assert data["sweep"]["grid"] == [10, 80]
    assert data["sweep"]["warm_start"] is False


def test_default_sweep_grid_is_ascending_multiple_of_dt():
    cfg = parse_config_dict({"scenario": "attitude"})
    grid = default_sweep_grid(cfg)
    assert len(grid) >= 2
    assert all(b > a for a, b in zip(grid, grid[1:]))
    for T in grid:
        assert abs(T / cfg.dt - round(T / cfg.dt)) < 1e-9
    assert grid[-1] == cfg.horizon


def test_build_landing_problem_requires_lander_scenario():
    cfg = parse_config_dict({"scenario": "attitude"})
    with pytest.raises(ConfigError, match="scenario"):
        scenarios.soft_landing_problem(cfg)


def test_invalid_json_reports_path(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config(str(path))


@pytest.mark.parametrize(
    "key,value",
    [
        ("dt", float("inf")),
        ("dt", "fast"),
        ("horizon", 1e300),
        ("solver.cost_cap", float("inf")),
        ("solver.reg_shrink", 1.0),
        ("solver.alpha_factor", float("nan")),
        ("solver.alpha_count", 101),
        ("solver.max_iterations", True),
        ("terminal_set.regulation_cap", 1.5),
        ("terminal_set.state_tol", 0.0),
        ("terminal_set.cost_cap", float("nan")),
    ],
)
def test_bad_numeric_field_names_its_path(key, value):
    data = {"scenario": "attitude"}
    node = data
    *parents, leaf = key.split(".")
    for part in parents:
        node = node.setdefault(part, {})
    node[leaf] = value
    with pytest.raises(ConfigError) as info:
        parse_config_dict(data)
    assert info.value.field == key


@pytest.mark.parametrize(
    "cls,field",
    [(SolverSettings, "max_iterations"), (SolverSettings, "alpha_count"), (TerminalSetSpec, "regulation_cap")],
    ids=lambda x: getattr(x, "__name__", x),
)
def test_parameter_objects_check_their_counts(cls, field):
    """The library objects apply the config's rules: a count is an integral
    number, not a boolean or a string, and an integral float is stored as
    an int."""
    for bad in (True, "x", 2.5):
        with pytest.raises(ConfigError) as info:
            cls(**{field: bad})
        assert info.value.field == field
    value = getattr(cls(**{field: 3.0}), field)
    assert value == 3 and type(value) is int


def test_integral_float_counts_are_accepted():
    cfg = parse_config_dict(
        {"scenario": "attitude", "solver": {"max_iterations": 3.0, "alpha_count": 4.0}}
    )
    settings = cfg.solver
    assert settings.max_iterations == 3 and isinstance(settings.max_iterations, int)
    assert len(settings.alphas) == 4
