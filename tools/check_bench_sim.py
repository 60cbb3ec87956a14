#!/usr/bin/env python3
"""Simulator-determinism check (CI): a fresh bench run must reproduce the
committed ``BENCH_PR2.json`` on every deterministic entry.

The simulator runs on a virtual clock, so every experiment entry it produces
is a pure function of the code.  A refactor that claims "same behaviour and
numbers" must leave all of them byte-identical.  Entries that measure the
machine rather than the protocol are excluded:

* ``*.wall_s``          -- per-experiment wall-clock time;
* ``e12.*``             -- multicore wall-clock speedup;
* ``e14.indexes``       -- wall-clock index build and query timings;
* ``e18.obs_overhead``  -- CPU-time ratio of traced vs untraced runs;
* ``micro.*``           -- Bechamel microbenchmarks.

Usage::

    python3 tools/check_bench_sim.py NEW.json [COMMITTED.json]

``COMMITTED.json`` defaults to ``BENCH_PR2.json`` at the repository root.
Exit 1 listing every differing, missing or extra entry.  No third-party
imports; runs anywhere python3 runs.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

EXCLUDED_PREFIXES = ("e12.", "micro.")
EXCLUDED_NAMES = ("e14.indexes", "e18.obs_overhead")


def deterministic(name: str) -> bool:
    return not (
        name.endswith(".wall_s")
        or name.startswith(EXCLUDED_PREFIXES)
        or name in EXCLUDED_NAMES
    )


def entries(path: pathlib.Path) -> dict:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        sys.exit(f"check_bench_sim: cannot read {path}: {err}")
    experiments = data.get("experiments")
    if not isinstance(experiments, dict):
        sys.exit(f"check_bench_sim: {path} has no 'experiments' object")
    return {k: v for k, v in experiments.items() if deterministic(k)}


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    fresh = entries(pathlib.Path(argv[1]))
    committed_path = pathlib.Path(argv[2]) if len(argv) == 3 else ROOT / "BENCH_PR2.json"
    committed = entries(committed_path)
    problems = []
    for name in sorted(committed.keys() | fresh.keys()):
        if name not in fresh:
            problems.append(f"missing from the fresh run: {name}")
        elif name not in committed:
            problems.append(f"not in {committed_path.name}: {name}")
        elif fresh[name] != committed[name]:
            problems.append(
                f"{name} differs:\n  committed: {json.dumps(committed[name], sort_keys=True)}"
                f"\n  fresh:     {json.dumps(fresh[name], sort_keys=True)}"
            )
    if problems:
        print(
            f"check_bench_sim: {len(problems)} deterministic entr"
            f"{'y' if len(problems) == 1 else 'ies'} drifted from {committed_path.name}:",
            file=sys.stderr,
        )
        for line in problems:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"check_bench_sim: {len(committed)} deterministic entries match {committed_path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
