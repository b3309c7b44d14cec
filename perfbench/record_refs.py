"""Pin the exact outputs the benchmark's checks compare against.

    python3 perfbench/record_refs.py      # from a checkout root

Runs each workload's commands once, over every count window a seed can
choose, and writes perfbench/refs.json.  Run it only on a commit whose
outputs are trusted; the references must not follow later changes.
"""

from __future__ import annotations

import json
import os
import sys
import time

import workloads as wl
from run import RUN_LIMIT_S, Runner


def _stdout(runner: Runner, argv, sha256: dict | None = None) -> str:
    ran = runner.run(argv)
    if ran["failed"]:
        raise SystemExit(f"{' '.join(argv)} failed: {ran['problems']}")
    if sha256 is not None:
        sha256[" ".join(argv)] = ran["sha256"]
    with open(os.path.join(runner.work, "stdout.txt")) as fh:
        return fh.read()


def _count_refs(text: str) -> dict:
    rows = {r[0]: [r[1], r[6], r[5]] for r in wl._data_rows(text) if len(r) == 7}
    mu = float(wl._data_rows(text)[0][4])
    return {"rows": rows, "mu_infty": mu}


def main() -> int:
    runner = Runner(os.getcwd(), time.monotonic() + 10 * RUN_LIMIT_S)
    try:
        refs = record(runner)
    finally:
        runner.close()
    with open(wl.REFS_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {wl.REFS_PATH}", file=sys.stderr)
    return 0


def record(runner: Runner) -> dict:
    refs: dict = {"sha256": {}}
    hi = wl.FAST_NMIN + wl.FAST_SHIFTS - 1 + wl.FAST_WIDTH - 1
    refs["count_fast"] = _count_refs(_stdout(
        runner, wl.count_argv(wl.FAST_LATTICE, wl.FAST_NMIN, hi, 100, 0)))
    refs["count_generic"] = _count_refs(_stdout(
        runner, wl.count_argv(wl.GENERIC_LATTICE, wl.GENERIC_NMIN, wl.GENERIC_NMAX,
                              30, 0, samples=100000)))
    fixed = {c.label: c.argv for name in ("k3", "algebra")
             for c in wl.build(name, 0, {})}
    texts = {label: _stdout(runner, argv, refs["sha256"]) for label, argv in fixed.items()}
    refs["k3"] = wl._data_rows(texts["k3"])[0]
    refs["theta"] = [",".join(r) for r in wl._data_rows(texts["theta"])]
    refs["cusp"] = [",".join(r) for r in wl._data_rows(texts["cusp"])]
    refs["eis"] = [",".join(r) for r in wl._data_rows(texts["eis"])]
    weil_lines = texts["weil"].splitlines()
    level = weil_lines[1].split("level=")[1]
    dim = weil_lines.index("matrix,S") - weil_lines.index("matrix,T") - 1
    refs["weil"] = {"level": level, "dim": dim}
    return refs


if __name__ == "__main__":
    sys.exit(main())
