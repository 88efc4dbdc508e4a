"""Compare what the CLI writes in two source trees.

    python tools/compare_outputs.py A B

Runs every command (solve, sweep, simulate, verify, convergence) on every
scenario's default config, once with `A/src` and once with `B/src` on the
import path, each run in a fresh working directory with `--out out`. It
prints a Markdown report of every difference: the exit code, the stdout
line, the bytes of each CSV and each key of `summary.json`. The keys
`wall_clock_s` and `config.output_dir` are ignored, and so are the paths a
run prints, since both trees write to the same relative directory.

Exit status: 0 when every output matches, 1 when something differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

COMMANDS = ("solve", "sweep", "simulate", "verify", "convergence")
SCENARIOS = ("attitude", "rendezvous", "soft-landing", "custom-linear")
IGNORED_KEYS = {"wall_clock_s", "config.output_dir"}


def run(tree: Path, command: str, scenario: str, workdir: Path) -> Tuple[int, str, Dict[str, bytes]]:
    """Exit code, stdout and the files written by one CLI run on `tree`."""
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "spacetraj.cli", command, "--set", f"scenario={scenario}", "--out", "out"],
        cwd=workdir,
        env=env,
        capture_output=True,
        text=True,
    )
    out = workdir / "out"
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return proc.returncode, proc.stdout, files


def flatten(value: Any, prefix: str = "") -> Iterator[Tuple[str, Any]]:
    """(dotted key, leaf value) of a parsed JSON object; lists are leaves."""
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from flatten(sub, f"{prefix}{key}.")
    else:
        yield prefix[:-1], value


def summary_diff(a: bytes, b: bytes) -> List[str]:
    left, right = (dict(flatten(json.loads(x))) for x in (a, b))
    return [
        f"`{key}`: {left.get(key, '(absent)')!r} -> {right.get(key, '(absent)')!r}"
        for key in sorted(left.keys() | right.keys())
        if key not in IGNORED_KEYS and left.get(key, "(absent)") != right.get(key, "(absent)")
    ]


def csv_diff(name: str, a: bytes, b: bytes) -> str:
    left, right = a.decode().splitlines(), b.decode().splitlines()
    changed = [i for i in range(max(len(left), len(right))) if left[i : i + 1] != right[i : i + 1]]
    where = f"first at line {changed[0] + 1}" if changed else "in line endings only"
    return f"`{name}`: {len(changed)} of {len(left)} -> {len(right)} lines differ, {where}"


def compare(a: Path, b: Path, scratch: Path) -> List[Tuple[str, List[str]]]:
    """Per run, the list of differences (empty when identical)."""
    report = []
    for command in COMMANDS:
        for scenario in SCENARIOS:
            name = f"{command} {scenario}"
            (code_a, out_a, files_a), (code_b, out_b, files_b) = (
                run(tree, command, scenario, scratch / side / command / scenario)
                for side, tree in (("a", a), ("b", b))
            )
            diffs = []
            if code_a != code_b:
                diffs.append(f"exit code: {code_a} -> {code_b}")
            if out_a != out_b:
                diffs.append(f"stdout: {out_a.strip()!r} -> {out_b.strip()!r}")
            for file in sorted(files_a.keys() | files_b.keys()):
                if file not in files_a or file not in files_b:
                    diffs.append(f"`{file}` written by only {'A' if file in files_a else 'B'}")
                elif file == "summary.json":
                    diffs += [f"summary.json {d}" for d in summary_diff(files_a[file], files_b[file])]
                elif files_a[file] != files_b[file]:
                    diffs.append(csv_diff(file, files_a[file], files_b[file]))
            report.append((name, diffs))
    return report


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="source tree of the baseline")
    parser.add_argument("b", type=Path, help="source tree of the change")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        report = compare(args.a, args.b, Path(scratch))
    groups: Dict[Tuple[str, ...], List[str]] = {}  # runs with the same differences
    for name, diffs in report:
        if diffs:
            groups.setdefault(tuple(diffs), []).append(name)
    differing = sum(len(names) for names in groups.values())
    print(f"## Outputs of `{args.a}` -> `{args.b}`\n")
    print(f"{len(report) - differing} of {len(report)} runs identical "
          f"(ignoring {', '.join(f'`{k}`' for k in sorted(IGNORED_KEYS))}).\n")
    for diffs, names in groups.items():
        print("- " + ", ".join(f"`{name}`" for name in names))
        for diff in diffs:
            print(f"  - {diff}")
    return 1 if groups else 0


if __name__ == "__main__":
    sys.exit(main())
