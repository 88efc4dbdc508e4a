"""One workload run in a fresh single-threaded interpreter.

    python3 perfbench/child.py '<spec json>'

The spec holds ``command``, ``inputs`` (one list of ``--set`` strings for
``spacetraj.config.parse_config`` per distinct input), ``out`` (output
directory), ``mode`` (``setup``, ``ops`` or ``trace``), ``seconds`` (the
timing budget) and ``spans_csv`` (trace mode only).

The child times the cold import of ``spacetraj.cli`` plus config parsing,
then calls ``spacetraj.cli.run(command, cfg)`` on every input. The first
input is the timed one: it runs before each other input, once more after
the last, and then again while the next call is expected to end within
``seconds``; every other input runs once. Repetition ``r`` of input ``i``
writes to ``out/i/r``.

In ``ops`` mode light spans (see ``spans.SEGMENT_TARGETS``) split each
repetition into segments, whose self times the parent combines across
repetitions. In ``trace`` mode every layer is wrapped and the per-layer
aggregates of the last repetition are returned. The child prints one JSON
line: set-up time, per input the list of repetitions (wall time, exit
code, segment self times and layout), and peak resident memory.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    started = time.perf_counter()
    from spacetraj import cli
    from spacetraj.config import parse_config
    from spacetraj.errors import ConfigError, SpacetrajError

    cfgs = [parse_config(None, overrides) for overrides in spec["inputs"]]
    result = {"setup_s": time.perf_counter() - started}
    if spec["mode"] == "setup":
        print(json.dumps(result))
        return 0

    import spans

    tracer = spans.Tracer()
    tracer.install(spans.LAYER_TARGETS if spec["mode"] == "trace" else spans.SEGMENT_TARGETS)
    run = tracer.wrap("cli.run", cli.run)
    deadline = time.perf_counter() + spec["seconds"]
    entries = [{"reps": [], "segment_ops": None} for _ in cfgs]

    def repeat(i: int) -> float:
        tracer.reset()
        reps = entries[i]["reps"]
        cfgs[i].output_dir = f"{spec['out']}/{i}/{len(reps)}"
        error = ""
        start = time.perf_counter()
        try:
            _, code = run(spec["command"], cfgs[i])
        except ConfigError as exc:
            code, error = 2, str(exc)
        except SpacetrajError as exc:
            code, error = 3, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        names, self_s, ops = tracer.segments()
        layout = hashlib.sha256(json.dumps([names, ops]).encode()).hexdigest()
        reps.append({"wall_s": wall, "exit_code": code, "error": error, "self_s": self_s, "layout": layout})
        if entries[i]["segment_ops"] is None:
            entries[i]["segment_ops"] = ops
        return wall

    for i in range(1, len(cfgs)):
        repeat(0)
        repeat(i)
    repeat(0)
    while time.perf_counter() + min(r["wall_s"] for r in entries[0]["reps"]) <= deadline:
        repeat(0)
    result["inputs"] = entries
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if spec["mode"] == "trace":
        result["trace"] = tracer.aggregate()
        tracer.write_csv(spec["spans_csv"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
