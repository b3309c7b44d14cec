"""The benchmark's workloads, their inputs from a seed, and output checks.

Each workload is a list of hyperlat CLI commands run one after another in
fresh interpreters.  Every command carries a check of its stdout that
returns the problems found; an empty list means the output is right.
Exact fields are compared with references pinned in refs.json (recorded by
record_refs.py); float fields at the tolerances stated below; any nan fails.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_PATH = os.path.join(HERE, "refs.json")
GENERIC_LATTICE = "perfbench/lattices/uu2_blocks.json"
FAST_LATTICE = "U+U+rank1(-2)"

# count_fast windows start at FAST_NMIN + k with k < FAST_SHIFTS; larger
# shifts would change the work per run (it grows about like n).
FAST_NMIN, FAST_WIDTH, FAST_SHIFTS = 300, 31, 4
# The generic enumerator's cost grows about like n^2.3, so moving its window
# by even one norm changes the work by 50-80 %; the seed moves only its
# Monte Carlo seed.  The oracle below does not rely on the window.  Norms
# 1..4 take about 2 s, so a run holds about ten passes; the enumerator is
# still most of each.
GENERIC_NMIN, GENERIC_NMAX = 1, 4

FLOAT_RTOL = 1e-9        # fields recomputable from other printed fields
REF_FLOAT_RTOL = 1e-9    # deterministic floats against refs.json
MU_INFTY_RTOL = 0.05     # Monte Carlo measure vs its reference, any seed
WEIL_RESIDUAL = 1e-9


@dataclass
class Command:
    label: str
    argv: list[str]
    check: Callable[[str], list[str]]


def load_refs() -> dict:
    with open(REFS_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# output parsing and checks

def _data_rows(text: str) -> list[list[str]]:
    """CSV rows after the header line and column line, comments dropped."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _has_nan(text: str) -> bool:
    tokens = set(re.split(r"[\s,;=:]+", text.lower()))
    return bool(tokens & {"nan", "-nan", "inf", "-inf", "+inf"})


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rtol * max(abs(a), abs(b))


def check_count(text: str, norms, pinned: dict, mu_ref: float, oracle=None) -> list[str]:
    """Rows for exactly `norms`; exact columns equal `pinned` (per n) and,
    when given, the oracle's empirical counts; floats consistent."""
    problems = []
    if _has_nan(text):
        problems.append("nan or inf in output")
    rows = _data_rows(text)
    got_n = [r[0] for r in rows]
    want_n = [str(n) for n in norms]
    if got_n != want_n:
        problems.append(f"norms {got_n[:3]}... != expected {want_n[:3]}...")
    ratios = []
    for r in rows:
        if len(r) != 7:
            problems.append(f"row has {len(r)} fields: {r}")
            continue
        n, emp, pred, ratio, mu, ss, grazing = r
        try:
            pred_f, ratio_f, mu_f = float(pred), float(ratio), float(mu)
            ss_f = float(Fraction(ss))
        except ValueError:
            problems.append(f"n={n}: unparsable row {r}")
            continue
        ratios.append(ratio_f)
        ref = pinned.get(n)
        if ref is not None and [emp, grazing, ss] != ref:
            problems.append(f"n={n}: empirical,grazing,ss {[emp, grazing, ss]} != {ref}")
        if oracle is not None and oracle.get(n) != emp:
            problems.append(f"n={n}: empirical {emp} != fast-path {oracle.get(n)}")
        if not _close(mu_f, mu_ref, MU_INFTY_RTOL):
            problems.append(f"n={n}: mu_infty {mu_f} far from {mu_ref}")
        # predicted = mu_infty * n^(b/2) * ss with b = 3: both lattices are U+U+<-2>
        if not _close(pred_f, mu_f * float(n) ** 1.5 * ss_f, FLOAT_RTOL):
            problems.append(f"n={n}: predicted {pred_f} != mu*n^1.5*ss")
        if not _close(ratio_f, int(emp) / pred_f if pred_f else math.nan, FLOAT_RTOL):
            problems.append(f"n={n}: ratio {ratio_f} != empirical/predicted")
    mean = [ln for ln in text.splitlines() if ln.startswith("# mean_ratio=")]
    if not mean:
        problems.append("no mean_ratio line")
    elif ratios:
        value = float(mean[0].split()[1].split("=")[1])
        if not _close(value, sum(ratios) / len(ratios), FLOAT_RTOL):
            problems.append(f"mean_ratio {value} != mean of ratios")
    return problems


def check_rows_exact(text: str, ref_rows) -> list[str]:
    rows = [",".join(r) for r in _data_rows(text)]
    if _has_nan(text):
        return ["nan or inf in output"]
    return [] if rows == ref_rows else [f"rows differ from reference: {rows[:2]}..."]


def check_k3(text: str, ref: list[str]) -> list[str]:
    rows = _data_rows(text)
    if len(rows) != 1 or len(rows[0]) != 6:
        return [f"expected one 6-field row, got {rows}"]
    row = rows[0]
    problems = []
    exact = [row[0], row[1], row[3], row[4], row[5]]
    if exact != [ref[0], ref[1], ref[3], ref[4], ref[5]]:
        problems.append(f"rho,exponent,flags {exact} != reference {ref}")
    if not _close(float(Fraction(row[2])), float(Fraction(ref[2])), REF_FLOAT_RTOL):
        problems.append(f"value {row[2]} != reference {ref[2]}")
    return problems


def check_eis(text: str, ref_rows) -> list[str]:
    rows = _data_rows(text)
    if _has_nan(text):
        return ["nan or inf in output"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for row, ref in zip(rows, ref_rows):
        ref = ref.split(",")
        if row[:3] + row[4:] != ref[:3] + ref[4:]:
            problems.append(f"row {row[:3]}: exact fields differ from reference")
        elif not _close(float(Fraction(row[3])), float(Fraction(ref[3])), REF_FLOAT_RTOL):
            problems.append(f"row {row[:3]}: c_value {row[3]} != {ref[3]}")
    return problems


def check_weil(text: str, ref: dict) -> list[str]:
    lines = text.splitlines()
    rel = [ln for ln in lines if ln.startswith("# relations ")]
    if not rel:
        return ["no relations line"]
    fields = dict(kv.split("=") for kv in rel[0].split()[2:])
    problems = []
    for key in ("unitarity", "braid", "t_order"):
        value = float(fields.get(key, "nan"))
        if not value < WEIL_RESIDUAL:
            problems.append(f"{key} residual {value} not below {WEIL_RESIDUAL}")
    if fields.get("level") != ref["level"]:
        problems.append(f"level {fields.get('level')} != {ref['level']}")
    try:
        t_at, s_at = lines.index("matrix,T"), lines.index("matrix,S")
    except ValueError:
        return problems + ["matrix blocks missing"]
    dim = ref["dim"]
    for label, block in (("T", lines[t_at + 1:s_at]), ("S", lines[s_at + 1:])):
        entries = [complex(*map(float, z.split(","))) for ln in block for z in ln.split()]
        if len(block) != dim or len(entries) != dim * dim:
            problems.append(f"{label} is not {dim}x{dim}")
        elif not all(math.isfinite(abs(z)) for z in entries):
            problems.append(f"{label} has non-finite entries")
        elif label == "S" and not all(abs(abs(z) * math.sqrt(dim) - 1) < WEIL_RESIDUAL
                                      for z in entries):
            problems.append("S entries are not of modulus 1/sqrt(dim)")
    return problems


# ---------------------------------------------------------------------------
# workloads

def count_argv(lattice: str, nmin: int, nmax: int, prime_bound: int, seed: int,
               samples: int | None = None, workers: int = 1) -> list[str]:
    argv = ["count", "--lattice", lattice, "--rho", "1", "--nmin", str(nmin),
            "--nmax", str(nmax), "--prime-bound", str(prime_bound),
            "--seed", str(seed), "--workers", str(workers)]
    if samples is not None:
        argv += ["--samples", str(samples)]
    return argv


def fast_window(seed: int) -> tuple[int, int]:
    start = FAST_NMIN + random.Random(seed).randrange(FAST_SHIFTS)
    return start, start + FAST_WIDTH - 1


def oracle_argv(nmin: int, nmax: int) -> list[str]:
    """Fast-path count of the generic workload's norms, for its oracle."""
    return count_argv(FAST_LATTICE, nmin, nmax, 2, 0, samples=1000)


def parse_empirical(text: str) -> dict:
    return {r[0]: r[1] for r in _data_rows(text) if len(r) == 7}


def build(name: str, seed: int, refs: dict, oracle: dict | None = None) -> list[Command]:
    """The commands of workload `name` for `seed`.  count_generic needs the
    oracle: n -> fast-path empirical count, from `oracle_argv`."""
    if name == "count_fast":
        lo, hi = fast_window(seed)
        pinned, mu = refs["count_fast"]["rows"], refs["count_fast"]["mu_infty"]
        argv = count_argv(FAST_LATTICE, lo, hi, 100, seed)
        norms = range(lo, hi + 1)
        return [Command("count", argv, lambda t: check_count(t, norms, pinned, mu))]
    if name == "count_generic":
        pinned, mu = refs["count_generic"]["rows"], refs["count_generic"]["mu_infty"]
        argv = count_argv(GENERIC_LATTICE, GENERIC_NMIN, GENERIC_NMAX, 30, seed,
                          samples=100000)
        norms = range(GENERIC_NMIN, GENERIC_NMAX + 1)
        return [Command("count", argv, lambda t: check_count(t, norms, pinned, mu, oracle))]
    if name == "k3":
        argv = ["k3", "--two-d", "2", "--n", "4", "--mu-s", "1", "--prime-bound", "50"]
        return [Command("k3", argv, lambda t: check_k3(t, refs["k3"]))]
    if name == "algebra":
        return [
            Command("theta", ["theta", "--lattice", "E8(-1)+rank1(-2)", "--order", "2"],
                    lambda t: check_rows_exact(t, refs["theta"])),
            Command("weil", ["weil", "--lattice", "U+U+rank1(-200)"],
                    lambda t: check_weil(t, refs["weil"])),
            Command("cusp", ["cusp", "--lattice", "U+U+rank1(-8)", "--bound", "2"],
                    lambda t: check_rows_exact(t, refs["cusp"])),
            Command("eis", ["eis", "--lattice", "U+U+rank1(-8)", "--gamma", "2",
                            "--nmax", "40", "--prime-bound", "100"],
                    lambda t: check_eis(t, refs["eis"])),
        ]
    raise KeyError(f"unknown workload {name!r}")


WORKLOADS = ("count_fast", "count_generic", "k3", "algebra")
