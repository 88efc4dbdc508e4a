"""Atomic CSV/JSON artifact writers with embedded schema tags.

Files are written to a temporary sibling and renamed into place; a write
that fails part-way removes the sibling and leaves any earlier file at the
target as it was. Floats are rendered with repr (shortest round-trip), so
identical runs produce byte-identical CSV bodies; CSVs use '.' decimals,
'\n' newlines, UTF-8, and no locale-dependent formatting. The first line of
every CSV is a `# schema: <name>` comment.

Rows are streamed: `trajectory_rows` converts its arrays and `write_csv`
formats and writes the rows `BLOCK_ROWS` at a time through one open file,
so the writer's memory does not depend on the row count.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from itertools import islice
from typing import Any, Dict, Iterable, Iterator, List, Sequence

import numpy as np

TRAJECTORY_SCHEMA = "trajectory-v1"
SWEEP_SCHEMA = "sweep-v1"
ITERATIONS_SCHEMA = "iterations-v1"
CONVERGENCE_SCHEMA = "convergence-v1"
SUMMARY_SCHEMA = "summary-v1"

# Rows converted, formatted and written at a time.
BLOCK_ROWS = 256

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


def _atomic_write(path: Path, chunks: Iterable[str]) -> None:
    """Write the chunks to a temporary sibling and rename it into place;
    on any failure the sibling is removed and the target left as it was."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    fh = open(tmp, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# `repr` formats these types (not bool) exactly as `_fmt` does
_REPR_TYPES = frozenset((float, int))


def _csv_blocks(schema: str, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> Iterator[str]:
    yield f"# schema: {schema}\n" + ",".join(header) + "\n"
    rows = iter(rows)
    while block := list(islice(rows, BLOCK_ROWS)):
        lines = []
        for row in block:
            if _REPR_TYPES.issuperset(map(type, row)):
                lines.append(",".join(map(repr, row)))
            else:
                lines.append(",".join(_fmt(v) for v in row))
        lines.append("")
        yield "\n".join(lines)


def write_csv(path: Path, schema: str, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> Path:
    _atomic_write(path, _csv_blocks(schema, header, rows))
    return path


def write_json(path: Path, payload: Dict[str, Any]) -> Path:
    payload = dict(payload)
    payload.setdefault("schema", SUMMARY_SCHEMA)
    _atomic_write(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])
    return path


def trajectory_rows(
    dt: float,
    states,
    controls,
    stage_costs,
    phases=None,
) -> Iterator[List[Any]]:
    """Rows for the trajectory CSV: one per state sample; the final row
    (no control applied) carries zero control/stage-cost entries and the
    last phase label so every cell stays finite. The arrays are converted
    `BLOCK_ROWS` rows at a time; cells are Python floats and ints, which
    `write_csv` formats with `repr` directly."""
    dt = float(dt)
    states = np.asarray(states, dtype=float)
    controls = np.asarray(controls, dtype=float)
    costs = np.asarray(stage_costs, dtype=float)
    n_controls = len(controls)
    if phases is None:
        phases = [1] * n_controls
    last_phase = int(phases[-1]) if len(phases) else 1
    filler = [0.0] * (controls.shape[1] if n_controls else 0) + [0.0, last_phase]
    for start in range(0, len(states), BLOCK_ROWS):
        stop = start + BLOCK_ROWS
        tails = [
            [*u, c, int(p)]
            for u, c, p in zip(controls[start:stop].tolist(), costs[start:stop].tolist(), phases[start:stop])
        ]
        for t, x in enumerate(states[start:stop].tolist(), start):
            yield [t * dt, *x, *(tails[t - start] if t < n_controls else filler)]
