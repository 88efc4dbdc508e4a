"""Atomic CSV/JSON artifact writers with embedded schema tags.

The writers know no scenario: a caller passes the header and rows of a CSV.
Files are written to a temporary sibling and renamed into place; a write
that fails part-way removes the sibling and leaves any earlier file at the
target as it was. Every cell is a Python float or int and is rendered with
`repr` (shortest round-trip for floats), so identical runs produce
byte-identical CSV bodies; CSVs use '.' decimals, '\n' newlines, UTF-8, and
no locale-dependent formatting. The first line of every CSV is a
`# schema: <name>` comment.

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

SWEEP_COLUMNS = [
    "T", "ilqr_cost", "regulation_cost", "terminal_value", "total_cost", "in_omega", "error_norm",
]

ITERATION_COLUMNS = ["iteration", "cost", "alpha", "lambda", "gradient_norm", "accepted"]

CONVERGENCE_COLUMNS = ["level", "objective", "ideal", "gap"]


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


def _csv_blocks(schema: str, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> Iterator[str]:
    yield f"# schema: {schema}\n" + ",".join(header) + "\n"
    rows = iter(rows)
    while block := list(islice(rows, BLOCK_ROWS)):
        yield "\n".join([",".join(map(repr, row)) for row in block]) + "\n"


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
    `BLOCK_ROWS` rows at a time into Python floats and ints."""
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
