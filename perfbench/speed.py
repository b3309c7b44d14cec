"""Host speed probe: a fixed kernel timed beside every command.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 1.7x in phases of minutes, far beyond the bounds the benchmark keeps.
Times are therefore reported at the host's reference speed: a command's
measured time is multiplied by REFERENCE_S / p, where p is the mean of the
probe timed just before and just after the command in the same process tree,
pinned to the same core.  The probe touches no hyperlat code, so a change to
the program moves the scaled times in proportion to the raw ones.

The probe runs in a helper process of its own (``Prober``): the kernel's
arrays would otherwise raise the runner's peak RSS, which every command it
spawns inherits in its max-RSS.

The kernel mixes what the workloads do: a pure-Python integer loop (the
densities), random reads from a dict of 400 000 lists (the object-heavy
generic enumerator, whose data does not fit in cache) and numpy work on a
32 MB array (the fast-path grid and histogram).  Each part takes about a
third of the probe.  Allocation-heavy parts were tried and dropped: their
own time varied five-fold between probes.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

# Median probe time on the reference machine (2-core x86_64 Xeon VM,
# Python 3.11.7, numpy 2.4.6, one BLAS thread).  It only sets the scale.
REFERENCE_S = 0.25


def _python_ints() -> int:
    s = 0
    for i in range(700_000):
        s += i * i % 7
    return s


def _python_lookups(table: dict, keys: list) -> int:
    s = 0
    for k in keys:
        s += table[k][0]
    return s


def _numpy_arrays(array) -> int:
    import numpy as np  # only the helper loads numpy; the runner imports Prober
    total = 0
    for m in (1009, 1013):
        x = array * array % m
        total += int(np.bincount(x).max()) + int(np.sort(x[:500_000])[7])
    return total


def _serve() -> None:
    """Time the kernel once per line read from stdin; print the seconds."""
    import numpy as np
    rng = np.random.default_rng(0)
    array = rng.integers(0, 1 << 20, 4_000_000)
    table = {i * 7919 % 10_000_019: [i] for i in range(400_000)}
    keys = [int(k) for k in rng.choice(list(table), 80_000)]
    for _ in sys.stdin:
        began = time.perf_counter()
        _python_ints()
        _python_lookups(table, keys)
        _numpy_arrays(array)
        print(time.perf_counter() - began, flush=True)


class Prober:
    """The probe's helper process; it inherits the caller's core."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def probe(self) -> float:
        """Seconds the fixed kernel takes now."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


if __name__ == "__main__":
    _serve()
