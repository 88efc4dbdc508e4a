"""Atomic CSV/JSON artifact writers with embedded schema tags.

Files are written to a temporary sibling and renamed into place. Floats are
rendered with repr (shortest round-trip), so identical runs produce
byte-identical CSV bodies; CSVs use '.' decimals, '\n' newlines, UTF-8, and
no locale-dependent formatting. The first line of every CSV is a
`# schema: <name>` comment.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence

import numpy as np

TRAJECTORY_SCHEMA = "trajectory-v1"
SWEEP_SCHEMA = "sweep-v1"
ITERATIONS_SCHEMA = "iterations-v1"
CONVERGENCE_SCHEMA = "convergence-v1"
SUMMARY_SCHEMA = "summary-v1"

STATE_COLUMNS = {
    "attitude": ["psi_rad", "theta_rad", "phi_rad", "w1_radps", "w2_radps", "w3_radps"],
    "rendezvous": [
        "er1_km", "er2_km", "er3_km",
        "ev1_kmps", "ev2_kmps", "ev3_kmps",
        "m_kg",
        "rt1_km", "rt2_km", "rt3_km",
        "vt1_kmps", "vt2_kmps", "vt3_kmps",
    ],
    "soft-landing": [
        "psi_rad", "theta_rad", "phi_rad",
        "w1_radps", "w2_radps", "w3_radps",
        "r1_m", "r2_m", "r3_m",
        "v1_mps", "v2_mps", "v3_mps",
        "m_kg",
    ],
    "custom-linear": ["x1"],
}

CONTROL_COLUMNS = {
    "attitude": ["M1_Nm", "M2_Nm", "M3_Nm"],
    "rendezvous": ["u1_kN", "u2_kN", "u3_kN"],
    "soft-landing": ["M1_Nm", "M2_Nm", "M3_Nm", "u1_N", "u2_N", "u3_N"],
    "custom-linear": ["u1"],
}

SWEEP_COLUMNS = [
    "T", "ilqr_cost", "regulation_cost", "terminal_value", "total_cost", "in_omega", "error_norm",
]

ITERATION_COLUMNS = ["iteration", "cost", "alpha", "lambda", "gradient_norm", "accepted"]

CONVERGENCE_COLUMNS = ["level", "objective", "ideal", "gap"]


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int,)):
        return str(value)
    if isinstance(value, float):
        return repr(float(value))  # numpy 2 reprs np.float64 as "np.float64(...)"
    try:
        return repr(float(value))  # numpy scalars
    except (TypeError, ValueError):
        return str(value)


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8", newline="\n")
    os.replace(tmp, path)


# `repr` formats these types (not bool) exactly as `_fmt` does
_REPR_TYPES = frozenset((float, int))


def write_csv(path: Path, schema: str, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> Path:
    lines = [f"# schema: {schema}", ",".join(header)]
    for row in rows:
        if _REPR_TYPES.issuperset(map(type, row)):
            lines.append(",".join(map(repr, row)))
        else:
            lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")
    return path


def write_json(path: Path, payload: Dict[str, Any]) -> Path:
    payload = dict(payload)
    payload.setdefault("schema", SUMMARY_SCHEMA)
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def trajectory_rows(
    dt: float,
    states,
    controls,
    stage_costs,
    phases=None,
) -> List[List[Any]]:
    """Rows for the trajectory CSV: one per state sample; the final row
    (no control applied) carries zero control/stage-cost entries and the
    last phase label so every cell stays finite. Cells are Python floats
    and ints, which `write_csv` formats with `repr` directly."""
    dt = float(dt)
    controls = np.asarray(controls, dtype=float)
    n_controls = len(controls)
    phases = [1] * n_controls if phases is None else [int(p) for p in phases]
    costs = np.asarray(stage_costs, dtype=float).tolist()
    tails = [[*u, c, p] for u, c, p in zip(controls.tolist(), costs, phases)]
    filler = [0.0] * (controls.shape[1] if n_controls else 0) + [0.0, phases[-1] if phases else 1]
    return [
        [t * dt, *x, *(tails[t] if t < n_controls else filler)]
        for t, x in enumerate(np.asarray(states, dtype=float).tolist())
    ]
