"""hyperlat benchmark: real CLI commands, each in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a hyperlat checkout; the program is imported from its
``src``.  A pass runs the workload's commands one after another, as a shell
would; passes repeat until the next one would end after S seconds.  The last
line of stdout is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

--trace 0 reports the end-to-end metrics, medians over passes:
  wall_s       spawn of each command to its exit, summed over the pass
  setup_s      spawn of each command to the end of ``import hyperlat.cli``,
               summed over the pass
  peak_rss_mb  largest max-RSS of a command process in the pass
Both times are at the host's reference speed: each command's times are
scaled by speed.REFERENCE_S over the speed probe timed beside it (see
speed.py).  The benchmark and its commands run pinned to one core.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of spans.PER_LAYER (medians over traced passes; process.cpu_s over
untraced ones; process.trace_overhead_s is the difference of the medians).

A command fails when it exits non-zero, raises, or its output check finds a
problem; ``failed`` counts such commands.  Details (per-pass figures, output
checks, stdout sha256 drift, absent trace targets, machine, all spans) go to
``perfbench/.work/`` and a summary to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import spans
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
RUN_LIMIT_S = 170          # every command is killed past this point of a run
# One BLAS thread: commands run one at a time and the box is shared, so a
# fixed thread count keeps timings repeatable.  The value is recorded.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class Runner:
    """Spawns commands from a checkout root and keeps everything they left."""

    def __init__(self, root: str, deadline: float):
        self.root = root
        self.deadline = deadline
        self.work = os.path.join(HERE, ".work")
        os.makedirs(self.work, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **BLAS_ENV)
        self.spans: list[dict] = []
        self.commands_run = 0
        self.prober = speed.Prober()
        self.last_probe = None

    def close(self) -> None:
        self.prober.close()

    def run(self, argv, trace: bool = False, check=None) -> dict:
        """Run one CLI command in a new interpreter; return its figures."""
        cmd_id = self.commands_run
        self.commands_run += 1
        out_path = os.path.join(self.work, "stdout.txt")
        err_path = os.path.join(self.work, "stderr.txt")
        rec_path = os.path.join(self.work, "record.json")
        if os.path.exists(rec_path):
            os.remove(rec_path)
        probe_before = self.last_probe or self.prober.probe()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, CHILD, rec_path, "1" if trace else "0", "--", *argv],
                stdout=out, stderr=err, cwd=self.root, env=self.env)
            timer = threading.Timer(max(0.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                end = time.monotonic()
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        self.last_probe = self.prober.probe()
        probe_s = (probe_before + self.last_probe) / 2
        scale = speed.REFERENCE_S / probe_s
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read().decode(errors="replace")
        record = {}
        if os.path.exists(rec_path):
            with open(rec_path) as fh:
                record = json.load(fh)
        result = {
            "id": cmd_id, "argv": list(argv), "traced": trace,
            "wall_s": (end - start) * scale, "raw_wall_s": end - start, "probe_s": probe_s,
            "setup_s": (record["imported_at"] - start) * scale if "imported_at" in record else None,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "exit": proc.returncode, "error": record.get("error"),
            "stdout_bytes": len(stdout),
            "sha256": hashlib.sha256(stdout).hexdigest(),
            "hist_cache": record.get("hist_cache", {"entries": 0, "mb": 0.0}),
            "absent": record.get("absent", []),
            "span_stats": spans.span_stats(record.get("spans", [])),
            "problems": [],
        }
        if proc.returncode != 0:
            result["problems"].append(
                f"exit code {proc.returncode}: {record.get('error') or stderr[-300:]}")
        elif "imported_at" not in record:
            result["problems"].append("command left no record")
        elif check is not None:
            try:
                result["problems"] += check(stdout.decode(errors="replace"))
            except Exception as exc:  # a malformed output is a failed command
                result["problems"].append(f"output check raised {type(exc).__name__}: {exc}")
        result["failed"] = bool(result["problems"])
        for name, parent, s0, s1, points in record.get("spans", []):
            self.spans.append({"cmd": cmd_id, "name": name, "parent": parent,
                               "start": s0, "end": s1, "points": points})
        return result

    def run_pass(self, commands: list[workloads.Command], trace: bool) -> dict:
        results = [self.run(c.argv, trace, c.check) for c in commands]
        return {
            "traced": trace, "commands": results,
            "wall_s": sum(r["wall_s"] for r in results),
            "raw_wall_s": sum(r["raw_wall_s"] for r in results),
            "probe_s": statistics.median(r["probe_s"] for r in results),
            "setup_s": sum(r["setup_s"] or 0.0 for r in results),
            "peak_rss_mb": max(r["rss_mb"] for r in results),
            "cpu_s": sum(r["cpu_s"] for r in results),
        }


def machine_info() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": metadata.version("mpmath"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_ENV,
        "platform": platform.platform(),
    }


def _median(passes, key):
    return statistics.median(p[key] for p in passes)


def layer_values(passes) -> dict:
    """Median over traced passes of each per-layer metric."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    per_pass = []
    for p in traced:
        cmds = p["commands"]
        stats = spans.merge_stats(c["span_stats"] for c in cmds)
        per_pass.append(spans.layer_metrics(
            stats, [c["hist_cache"] for c in cmds], sum(c["stdout_bytes"] for c in cmds)))
    values = {k: statistics.median(v[k] for v in per_pass) for k in per_pass[0]}
    values["process.cpu_s"] = _median(untraced, "cpu_s")
    values["process.trace_overhead_s"] = _median(traced, "wall_s") - _median(untraced, "wall_s")
    return values


def measure(runner: Runner, commands, seconds: float, trace: bool) -> list[dict]:
    """Passes until the next would end after `seconds`; with `trace`,
    alternating untraced and traced passes, at least one of each."""
    passes = []
    began = time.monotonic()
    while True:
        pass_began = time.monotonic()
        passes.append(runner.run_pass(commands, trace and len(passes) % 2 == 1))
        passes[-1]["elapsed_s"] = time.monotonic() - pass_began
        if trace and len(passes) < 2:
            continue
        elapsed = time.monotonic() - began
        if elapsed + _median(passes, "elapsed_s") > seconds:
            return passes


def bench(args, runner: Runner, started: float) -> int:
    """Prepare, measure and report one run; the exit code."""
    root = runner.root
    warm = runner.run([])          # compiles bytecode, checks the import path
    if warm["failed"]:
        print(f"hyperlat does not import from {root}/src: {warm['problems']}",
              file=sys.stderr)
        return 2

    refs = workloads.load_refs()
    oracle = None
    prep = [warm]
    if args.workload == "count_generic":
        ran = runner.run(workloads.oracle_argv(workloads.GENERIC_NMIN, workloads.GENERIC_NMAX))
        prep.append(ran)
        if ran["failed"]:
            print(f"fast-path oracle failed: {ran['problems']}", file=sys.stderr)
            return 2
        with open(os.path.join(runner.work, "stdout.txt")) as fh:
            oracle = workloads.parse_empirical(fh.read())
    commands = workloads.build(args.workload, args.seed, refs, oracle)

    passes = measure(runner, commands, args.seconds, bool(args.trace))
    cmds = [c for p in passes for c in p["commands"]]
    attempted, failed = len(cmds), sum(c["failed"] for c in cmds)
    untraced = [p for p in passes if not p["traced"]]
    if args.trace:
        values = layer_values(passes)
        values["fail_frac"] = failed / attempted
        units = dict(spans.PER_LAYER)
        metrics = {k: {"value": values[k], "unit": units[k]} for k, _ in spans.PER_LAYER}
    else:
        metrics = {
            "wall_s": {"value": _median(untraced, "wall_s"), "unit": "s"},
            "setup_s": {"value": _median(untraced, "setup_s"), "unit": "s"},
            "peak_rss_mb": {"value": _median(untraced, "peak_rss_mb"), "unit": "MB"},
        }

    pinned_sha = refs.get("sha256", {})
    drift = sorted({" ".join(c["argv"]) for c in cmds
                    if pinned_sha.get(" ".join(c["argv"]), c["sha256"]) != c["sha256"]})
    absent = sorted({a for c in cmds for a in c["absent"]})
    problems = [(" ".join(c["argv"]), c["problems"]) for c in cmds if c["problems"]]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_info(),
        "passes": len(untraced), "traced_passes": len(passes) - len(untraced),
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "problems": problems, "stdout_drift": drift, "absent_trace_targets": absent,
        "pass_figures": [{k: p[k] for k in ("traced", "wall_s", "raw_wall_s", "probe_s",
                                             "setup_s", "peak_rss_mb", "cpu_s")}
                         for p in passes],
        "preparation": [{k: c[k] for k in ("argv", "wall_s", "exit")} for c in prep],
        "metrics": metrics,
    }
    with open(os.path.join(runner.work, f"result-{tag}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    with open(os.path.join(runner.work, f"spans-{tag}.json"), "w") as fh:
        json.dump(runner.spans, fh)

    print(f"# {tag}: {len(untraced)} untraced and {len(passes) - len(untraced)} "
          f"traced passes, {failed}/{attempted} commands failed, "
          f"run {time.monotonic() - started:.1f}s; unscaled wall_s "
          f"{_median(untraced, 'raw_wall_s'):.3f}, probe {_median(untraced, 'probe_s'):.3f}s",
          file=sys.stderr)
    for argv_text, probs in problems:
        print(f"# FAILED {argv_text}: {'; '.join(probs[:3])}", file=sys.stderr)
    for argv_text in drift:
        print(f"# stdout drifted from the pinned sha256: {argv_text}", file=sys.stderr)
    if absent:
        print(f"# absent trace targets: {', '.join(absent)}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated benchmark unwinds through Runner.run, which kills its command
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    started = time.monotonic()
    # one core for the runner, its probes and its commands: a probe then
    # times the core its command ran on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hyperlat", "cli.py")):
        print(f"no hyperlat source at {root}/src: run from a checkout root",
              file=sys.stderr)
        return 2
    runner = Runner(root, started + RUN_LIMIT_S)
    try:
        return bench(args, runner, started)
    finally:
        runner.close()


if __name__ == "__main__":
    sys.exit(main())
