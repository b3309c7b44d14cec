"""A seeded fuzz of the command line, run in process.

Each command runs about 200 argument vectors.  A draw starts from one of the
command's valid vectors and changes up to three flags: it drops one, or sets
it to another valid or boundary value, or to a malformed one (empty, abc,
-1, 0, 1/0, nan); reversed ranges, and residues and rows of the wrong length,
come out of the same pools.  Lattices and bounds are small and no run has
more than two workers.  Every run must exit 0, 2 (the input's fault) or 3 (a
size guard), never with a traceback; a refusal prints exactly one
'hyperlat: error:' line, and no output prints nan.
"""

import contextlib
import io
import random
import re

import pytest

from hyperlat.cli import main

RUNS = 200
MALFORMED = ["", "abc", "-1", "0", "1/0", "nan"]
UU2, UU8 = "U+U+rank1(-2)", "U+U+rank1(-8)"
# |D| = 2592: weil would print two matrices of 2592^2 entries, so it skips it
DIAGONAL = "rank1(2)+rank1(6)+rank1(-6)+rank1(-6)+rank1(-6)"
LATTICES = [UU2, UU8, DIAGONAL, "U+U", "U+rank1(-2)", "rank1(-2)", "rank1(-2)+rank1(-4)",
            "E8(-1)", "nosuch", "rank1(0)", "U+U+rank1(-20000)"]
# one residue, five residues, and wrong lengths; the zero class is the default
GAMMAS = ["1", "3", "0,0,1,2,2", "1,0", "1,1,1,1,1,1"]
ROW = ",".join(["1", "1"] + ["0"] * 20)               # square 2 in the first U
ROWS = ROW + ";" + ",".join(["0"] * 2 + ["1", "2"] + ["0"] * 18)
RATIONALS = ["1", "2", "6", "1/16", "5/4", "9/4", "27/4", "-3"]
SMALL = ["1", "2", "10", "30"]
MU_S = ["1", "0.5", "-2", "1e999", "inf"]

# command -> (valid vectors, values each flag may take instead); None is a switch
COMMANDS = {
    "lattice": ([{"--lattice": UU2}], {"--lattice": LATTICES}),
    "fqm": ([{"--lattice": UU8}], {"--lattice": LATTICES}),
    "weil": ([{"--lattice": UU2}, {"--lattice": UU8, "--dual": None}],
             {"--lattice": [x for x in LATTICES if x != DIAGONAL], "--dual": None}),
    "theta": ([{"--lattice": "rank1(-2)", "--order": "2"},
               {"--lattice": "rank1(-2)+rank1(-4)", "--order": "3"}],
              {"--lattice": LATTICES, "--order": ["0", "3/2", "1/4", "-1"]}),
    "cusp": ([{"--lattice": UU8}, {"--lattice": "U+U", "--bound": "1"}],
             {"--lattice": LATTICES, "--bound": ["0", "1", "100"]}),
    "density": ([{"--lattice": UU2, "--n": "27", "--prime": "3"},
                 {"--lattice": UU8, "--gamma": "1", "--n": "33/16", "--prime": "2"},
                 {"--lattice": DIAGONAL, "--gamma": "0,0,1,2,2", "--n": "27/4",
                  "--prime": "3"}],
                {"--lattice": LATTICES, "--gamma": GAMMAS, "--n": RATIONALS,
                 "--prime": ["2", "3", "5", "7", "4", "1"]}),
    "eis": ([{"--lattice": UU2, "--nmax": "3", "--prime-bound": "10"},
             {"--lattice": UU8, "--gamma": "2", "--nmax": "3", "--prime-bound": "20"}],
            {"--lattice": LATTICES, "--gamma": GAMMAS, "--nmax": ["1", "2", "-2"],
             "--prime-bound": SMALL}),
    "count": ([{"--lattice": UU2, "--rho": "1", "--nmin": "1", "--nmax": "6",
                "--prime-bound": "10"},
               {"--lattice": UU8, "--gamma": "1", "--rho": "3/2", "--nmin": "1/16",
                "--nmax": "33/16", "--samples": "1000", "--workers": "2"},
               {"--lattice": DIAGONAL, "--rho": "1", "--nmin": "1", "--nmax": "4",
                "--prime-bound": "30"}],
              {"--lattice": LATTICES, "--gamma": GAMMAS, "--rho": ["1/2", "2", "3/2", "-1"],
               "--nmin": RATIONALS, "--nmax": RATIONALS, "--seed": ["3", "7"],
               "--workers": ["1", "2"], "--samples": ["1", "100", "1000"],
               "--prime-bound": SMALL}),
    "predict": ([{"--lattice": UU2, "--n": "1", "--mu-s": "1", "--prime-bound": "20"},
                 {"--lattice": UU8, "--n": "4", "--mu-s": "1", "--boundary": "0:1;1:1",
                  "--cusp-bound": "1", "--prime-bound": "10"}],
                {"--lattice": LATTICES, "--gamma": GAMMAS, "--n": RATIONALS, "--mu-s": MU_S,
                 "--boundary": ["0:1", "99:1", "1", "x:1", "0:1;"], "--cusp-bound": ["0", "1"],
                 "--prime-bound": SMALL}),
    "k3": ([{"--two-d": "2", "--n": "4", "--mu-s": "1", "--prime-bound": "2"},
            {"--p-rows": ROW, "--n": "1", "--mu-s": "1", "--prime-bound": "2"}],
           {"--two-d": ["4", "3", "-2"], "--p-rows": [ROW, ROWS, "1,0", "1,1;0", "1/2", "0:1"],
            "--gamma": ["1", "3", "1,0"], "--n": RATIONALS, "--mu-s": MU_S,
            "--prime-bound": SMALL}),
}


def _draw(rng, valid, pools):
    """A valid vector with up to three flags dropped or changed."""
    args = dict(rng.choice(valid))
    for flag in rng.sample(sorted(pools), min(len(pools), rng.randint(0, 3))):
        values = pools[flag]
        if rng.random() < 0.15 or values is None and flag in args:
            args.pop(flag, None)
        elif values is None:
            args[flag] = None
        else:
            args[flag] = rng.choice(values if rng.random() < 0.7 else MALFORMED)
    argv = []
    for flag, value in args.items():
        argv += [flag] if value is None else [flag, value]
    return argv


def _run(argv):
    """Exit status, stdout and stderr of one in-process run; an exception
    that escapes main is returned as its traceback text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv, out=out)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:    # what the shell would print as a traceback
            code = f"Traceback: {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_fuzz(command):
    rng = random.Random(f"hyperlat-fuzz-{command}")
    problems = []
    codes = set()
    for _ in range(RUNS):
        argv = [command] + _draw(rng, *COMMANDS[command])
        code, out, err = _run(argv)
        codes.add(code)
        errors = [l for l in err.splitlines() if l.startswith("hyperlat: error:")]
        if code not in (0, 2, 3):
            problems.append((argv, code))
        elif "Traceback" in err or (code != 0) != (len(errors) == 1):
            problems.append((argv, err))
        elif "nan" in re.split(r"[\s,;=]+", out + err):
            problems.append((argv, "prints nan"))
    assert not problems, problems[:5]
    # the draws reach both sides: some runs succeed and some are refused
    assert 0 in codes and 2 in codes
