import functools
import io
import json
import os
import re
import subprocess
import sys

import pytest

from hyperlat.cli import main, parse_lattice_spec
from hyperlat.hyperboloid import SWEEP_GUARD
from hyperlat.lattices import direct_sum, hyperbolic_plane, rank1


def _checkout_env() -> dict:
    """The environment of a child interpreter that imports hyperlat from
    this checkout."""
    import hyperlat
    src = os.path.dirname(os.path.dirname(os.path.abspath(hyperlat.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_cli(argv) -> str:
    buf = io.StringIO()
    code = main(argv, out=buf)
    assert code == 0
    return buf.getvalue()


def test_parse_lattice_spec(tmp_path):
    V = parse_lattice_spec("U+U+rank1(-2)")
    assert V.rank == 5 and V.det == -2
    path = tmp_path / "lat.json"
    path.write_text(V.to_json())
    back = parse_lattice_spec(str(path))
    assert back.gram == V.gram


def test_lattice_command():
    out = run_cli(["lattice", "--lattice", "U+rank1(-4)"])
    assert "rank,3" in out
    assert "det,4" in out
    assert "signature,(1,2)" in out


def test_fqm_command():
    out = run_cli(["fqm", "--lattice", "rank1(-2)"])
    assert "invariant factors: 2" in out
    assert "1 : Q=3/4" in out


def test_weil_command():
    out = run_cli(["weil", "--lattice", "U+U+rank1(-2)"])
    assert "matrix,T" in out and "matrix,S" in out


def test_theta_command():
    out = run_cli(["theta", "--lattice", "rank1(-2)", "--order", "2"])
    assert "gamma_index,exp_num,exp_den,coeff_num,coeff_den" in out
    assert "0,1,1,2,1" in out


def test_cusp_command():
    out = run_cli(["cusp", "--lattice", "U+U+rank1(-2)", "--bound", "1"])
    lines = [l for l in out.splitlines() if l and not l.startswith(("#", "index"))]
    assert lines
    assert all(line.split(",")[4] == "True" for line in lines)  # strongly primitive


def test_density_command():
    out = run_cli(["density", "--lattice", "U+U+rank1(-2)", "--n", "1",
                   "--prime", "5"])
    assert "5,1,26/25,650;406250" in out


def test_eis_determinism():
    args = ["eis", "--lattice", "U+U+rank1(-2)", "--nmax", "2",
            "--prime-bound", "20"]
    assert run_cli(args) == run_cli(args)


def test_eis_contents():
    out = run_cli(["eis", "--lattice", "U+U+rank1(-2)", "--nmax", "1",
                   "--prime-bound", "10"])
    line = [l for l in out.splitlines() if l.startswith("0,1,1")][0]
    fields = line.split(",")
    assert fields[4] == "10"
    assert "2=35/32" in fields[5]


def test_eis_indexes_a_group_too_large_to_list():
    # |D| = 20002 is past the listing guard; predict and count run on it too
    out = run_cli(["eis", "--lattice", "U+U+rank1(-20002)", "--nmax", "2",
                   "--prime-bound", "10"])
    rows = out.splitlines()[2:]
    assert len(rows) == 2 and all(r.split(",")[0] == "0" for r in rows)


@pytest.mark.parametrize("spec", ["U+U+rank1(-8)", "U+U+rank1(-2)+rank1(-4)"])
def test_eis_gamma_index_is_the_place_in_elements(spec):
    D = parse_lattice_spec(spec).discriminant_group()
    for i, gamma in enumerate(D.elements()):
        out = run_cli(["eis", "--lattice", spec, "--gamma", ",".join(map(str, gamma)),
                       "--nmax", "1", "--prime-bound", "5"])
        assert {r.split(",")[0] for r in out.splitlines()[2:]} == {str(i)}


def test_count_determinism_and_format():
    args = ["count", "--lattice", "U+U+rank1(-2)", "--rho", "1",
            "--nmin", "30", "--nmax", "34", "--seed", "11",
            "--samples", "50000", "--prime-bound", "20"]
    out1 = run_cli(args)
    out2 = run_cli(args)
    assert out1 == out2
    header = [l for l in out1.splitlines()
              if l.startswith("n,empirical")][0]
    assert header == "n,empirical,predicted,ratio,mu_infty,ss_truncated,grazing_count"
    rows = [l for l in out1.splitlines()
            if l and not l.startswith(("#", "n,"))]
    assert len(rows) == 5


def test_count_worker_determinism():
    base = ["count", "--lattice", "U+U+rank1(-2)", "--rho", "1",
            "--nmin", "30", "--nmax", "31", "--seed", "3",
            "--samples", "40000", "--prime-bound", "10"]
    two = base + ["--workers", "2"]
    assert run_cli(two) == run_cli(two)


def test_predict_command():
    out = run_cli(["predict", "--lattice", "U+U+rank1(-2)", "--n", "1",
                   "--mu-s", "1", "--prime-bound", "30"])
    assert "value,error_order,representable" in out
    val = float([l for l in out.splitlines()
                 if not l.startswith(("#", "value"))][0].split(",")[0])
    assert val > 0


def test_predict_with_boundary():
    out = run_cli(["predict", "--lattice", "U+U+rank1(-2)", "--n", "1",
                   "--mu-s", "1", "--prime-bound", "20",
                   "--boundary", "0:1", "--cusp-bound", "1"])
    assert "# cusp corrections" in out


def test_k3_command():
    out = run_cli(["k3", "--two-d", "2", "--n", "4", "--mu-s", "1",
                   "--prime-bound", "10"])
    row = [l for l in out.splitlines() if not l.startswith(("#", "rho,"))][0]
    fields = row.split(",")
    assert fields[0] == "1"
    assert fields[1] == "19/2"
    assert fields[3] == "True"  # 2n = 8 = 2*2^2 on the coset


# <2>+<-22>+<-22> in the K3 lattice, spanned by e1+f1, e2-11f2 and e3-11f3
_ZEROS = ",0" * 16
K3_RANK3_ROWS = f"1,1,0,0,0,0{_ZEROS};0,0,1,-11,0,0{_ZEROS};0,0,0,0,1,-11{_ZEROS}"

def test_k3_rank3_coset_read_off_local_densities():
    # 2n = 4: x^2 - 11 y^2 - 11 z^2 = 2 fails mod 11, so False is exact;
    # 2n = 2 is locally solvable, and the global question stays open
    def last_line(n):
        return run_cli(["k3", "--p-rows", K3_RANK3_ROWS, "--n", n, "--mu-s", "1",
                        "--prime-bound", "20"]).splitlines()[-1]

    assert last_line("2") == "3,17/2,3731.97026002,False,True,True"
    assert last_line("1") == "3,17/2,10.3071721819,True,False,True"


def test_k3_rows_match_two_d():
    # the complement of explicit rows has a basis of its own; densities must not care
    def data_row(argv):
        out = run_cli(argv + ["--n", "4", "--mu-s", "1", "--prime-bound", "20"])
        return [l for l in out.splitlines() if not l.startswith(("#", "rho,"))]

    rows = data_row(["k3", "--p-rows", ",".join(["1", "1"] + ["0"] * 20)])
    assert rows == data_row(["k3", "--two-d", "2"])
    assert len(rows) == 1


def test_predict_builds_one_theta_series_per_cusp(monkeypatch):
    import hyperlat.qseries as qs
    calls = []
    theta = qs.theta_series

    def counted(K, order):
        calls.append((K.gram, order))
        return theta(K, order)

    monkeypatch.setattr(qs, "theta_series", counted)
    out = run_cli(["predict", "--lattice", "U+U+rank1(-8)", "--n", "4", "--mu-s", "1",
                   "--prime-bound", "20", "--boundary", "0:1;1:1", "--cusp-bound", "2"])
    assert out.count("# u=") == 2
    # a(0, 0, F) and a(gamma, n, F) come from one series of order n, which
    # the two cusps share because their K_F lattices agree
    assert len(calls) == 1
    assert all(order == 4 for _, order in calls)


def test_predict_builds_one_theta_series_per_distinct_kf(monkeypatch):
    import hyperlat.qseries as qs
    calls = []
    theta = qs.theta_series

    def counted(K, order):
        calls.append((K.gram, order))
        return theta(K, order)

    monkeypatch.setattr(qs, "theta_series", counted)
    # planes 0 and 2 of U+U+<-8> have K_F = <-8> and <-2>
    out = run_cli(["predict", "--lattice", "U+U+rank1(-8)", "--n", "4", "--mu-s", "1",
                   "--prime-bound", "20", "--boundary", "0:1;2:1", "--cusp-bound", "2"])
    assert out.count("# u=") == 2
    assert calls == [(((-8,),), 4), (((-2,),), 4)]


def test_predict_builds_cusp_data_only_for_named_planes(monkeypatch):
    import hyperlat.cli as cli
    import hyperlat.cusps as cusps
    calls = []
    datum = cusps.cusp_datum

    def counted(V, plane_rows, *args, **kwargs):
        calls.append(tuple(map(tuple, plane_rows)))
        return datum(V, plane_rows, *args, **kwargs)

    monkeypatch.setattr(cusps, "cusp_datum", counted)
    monkeypatch.setattr(cli, "cusp_datum", counted, raising=False)
    out = run_cli(["predict", "--lattice", "U+U+rank1(-8)", "--n", "4", "--mu-s", "1",
                   "--boundary", "0:1;1:1", "--cusp-bound", "2"])
    assert out.count("# u=") == 2
    # the search finds 160 planes; only the two the boundary names get a datum
    assert len(calls) == 2
    planes = cusps.isotropic_planes(parse_lattice_spec("U+U+rank1(-8)"), 2)
    assert len(planes) == 160
    assert calls == planes[:2]


@pytest.mark.parametrize("argv", [
    ["count", "--lattice", "U+U+rank1(-2)", "--gamma", "1,0,0,0,0", "--rho", "1",
     "--nmin", "3", "--nmax", "4", "--samples", "1000"],
    ["density", "--lattice", "U+U+rank1(-2)", "--gamma", "1,0", "--n", "1", "--prime", "5"],
    ["eis", "--lattice", "U+U+rank1(-2)", "--gamma", "1,0", "--nmax", "2"],
    ["predict", "--lattice", "U+U+rank1(-2)", "--gamma", "1,0", "--n", "1", "--mu-s", "1"],
])
def test_gamma_with_wrong_residue_count_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv, out=io.StringIO())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    errors = [l for l in err.splitlines() if l.startswith("hyperlat: error:")]
    assert len(errors) == 1 and "expects 1 residues" in errors[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["count", "--rho", "1", "--nmin", "3", "--nmax", "3"],
    ["density", "--n", "1", "--prime", "2"],
    ["eis", "--nmax", "2"],
    ["predict", "--n", "1", "--mu-s", "1"],
    ["k3", "--two-d", "2", "--n", "4", "--mu-s", "1"],
], ids=lambda argv: argv[0])
def test_count_takes_no_guard(argv, capsys):
    # no local count has a size guard, so no command takes --guard
    if argv[0] != "k3":
        argv = argv[:1] + ["--lattice", "U+U+rank1(-2)"] + argv[1:]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--guard", "1"], out=io.StringIO())
    assert exc.value.code == 2
    assert "unrecognized arguments: --guard" in capsys.readouterr().err


def test_count_without_samples_runs_no_monte_carlo(monkeypatch, capsys):
    import hyperlat.hyperboloid as hyp

    def refuse(*args, **kwargs):
        raise AssertionError("count ran the Monte Carlo mu_infty")

    monkeypatch.setattr(hyp, "mu_infty", refuse)
    out = run_cli(["count", "--lattice", "U+U+rank1(-2)", "--rho", "1",
                   "--nmin", "30", "--nmax", "34", "--prime-bound", "20"])
    assert "samples=0" in out.splitlines()[0]
    assert capsys.readouterr().err == ""


def test_count_monte_carlo_cross_check_goes_to_stderr(capsys):
    base = ["count", "--lattice", "U+U+rank1(-2)", "--rho", "1", "--nmin", "30",
            "--nmax", "34", "--prime-bound", "20", "--seed", "4"]
    plain = run_cli(base)
    assert capsys.readouterr().err == ""
    checked = run_cli(base + ["--samples", "20000", "--workers", "2"])
    # the CSV does not depend on the Monte Carlo: only the header's samples= moves
    assert checked.splitlines()[1:] == plain.splitlines()[1:]
    assert "samples=20000" in checked.splitlines()[0]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("# mu_infty monte_carlo=")
    fields = dict(kv.split("=") for kv in err[0][2:].split()[1:])
    assert set(fields) == {"monte_carlo", "stderr", "closed_form", "z"}
    assert float(fields["closed_form"]) == float(plain.splitlines()[2].split(",")[4])
    z = (float(fields["monte_carlo"]) - float(fields["closed_form"])) / float(fields["stderr"])
    assert abs(z) < 4 and float(fields["z"]) == pytest.approx(z, abs=0.01)


def test_k3_gamma_outside_the_complement_is_a_usage_error(capsys):
    # D(V) of the rank-21 complement for 2d = 2 is Z/2: one residue
    with pytest.raises(SystemExit) as exc:
        main(["k3", "--two-d", "2", "--gamma", "1,0", "--n", "4", "--mu-s", "1"],
             out=io.StringIO())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    errors = [l for l in err.splitlines() if l.startswith("hyperlat: error:")]
    assert len(errors) == 1 and "expects 1 residues" in errors[0]
    assert "Traceback" not in err


def test_predict_computes_the_coefficient_once(monkeypatch):
    import hyperlat.densities as dens
    calls = []
    series = dens.singular_series

    def counted(*args, **kwargs):
        calls.append(args[1])
        return series(*args, **kwargs)

    monkeypatch.setattr(dens, "singular_series", counted)
    out = run_cli(["predict", "--lattice", "U+U+rank1(-8)", "--n", "4", "--mu-s", "1",
                   "--boundary", "0:1;1:1", "--cusp-bound", "2"])
    assert out.count("# u=") == 2
    # the main term and the cusp terms share one c(gamma, n)
    assert len(calls) == 1


def test_density_off_coset_n_is_a_usage_error(capsys):
    # gamma = 1 in Z/8 takes the norms -Q(gamma) + Z = 1/16 + Z, which 2 is not in
    with pytest.raises(SystemExit) as exc:
        main(["density", "--lattice", "U+U+rank1(-8)", "--gamma", "1", "--n", "2",
              "--prime", "5"], out=io.StringIO())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    errors = [l for l in err.splitlines() if l.startswith("hyperlat: error:")]
    assert len(errors) == 1 and "-Q(gamma) + Z = 1/16 + Z" in errors[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("prime", ["0", "4", "9", "-5"])
def test_density_non_prime_is_a_usage_error(prime, capsys):
    line = _usage_error(["density", "--lattice", "U+U+rank1(-2)", "--n", "1",
                         "--prime", prime], capsys)
    assert line == f"hyperlat: error: p must be a prime, got {prime}"


def test_density_prime_one_is_a_usage_error_not_a_hang():
    # p = 1 would loop for ever in the p-adic valuation; local_density refuses it
    env = _checkout_env()
    proc = subprocess.run([sys.executable, "-m", "hyperlat", "density", "--lattice",
                           "U+U+rank1(-2)", "--n", "1", "--prime", "1"],
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == "hyperlat: error: p must be a prime, got 1"


@pytest.mark.parametrize("n", ["0", "-1"])
def test_density_non_positive_n_is_a_usage_error(n, capsys):
    line = _usage_error(["density", "--lattice", "U+U+rank1(-2)", "--n", n,
                         "--prime", "5"], capsys)
    # local_density's own precondition, in its own words
    assert line == f"hyperlat: error: the norm n must be > 0, got {n}"


@pytest.mark.parametrize("two_d", ["0", "-2", "3"])
def test_k3_bad_two_d_is_a_usage_error(two_d, capsys):
    line = _usage_error(["k3", "--two-d", two_d, "--n", "4", "--mu-s", "1"], capsys)
    assert f"wants a positive even square 2d (or explicit rows), got {two_d}" in line


def test_predict_off_coset_n_with_boundary_prints_the_zero_row():
    base = ["predict", "--lattice", "U+U+rank1(-8)", "--gamma", "1", "--n", "2",
            "--mu-s", "1"]

    def value_row(out):
        lines = out.splitlines()
        return lines[lines.index("value,error_order,representable") + 1]

    plain = value_row(run_cli(base))
    assert plain.startswith("0,") and plain.endswith(",False")
    out = run_cli(base + ["--boundary", "0:1", "--cusp-bound", "2"])
    assert value_row(out) == plain
    # off the coset both c(gamma, n) and a(gamma, n, F) vanish
    assert "# u=0 degree=1" in out


@functools.cache
def _loaded_modules(code, *args, cwd=None):
    """Run code in a new interpreter that imports hyperlat from this checkout;
    return the names in its sys.modules at the end, before the report loads
    json."""
    report = "\nloaded = sorted(sys.modules)\nimport json\nprint(json.dumps(loaded))"
    proc = subprocess.run([sys.executable, "-c", "import sys\n" + code + report, *args],
                          capture_output=True, text=True, env=_checkout_env(), cwd=cwd,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return frozenset(json.loads(proc.stdout.splitlines()[-1]))


def _new_modules(code, *args, cwd=None):
    """The modules code loads that a bare interpreter has not: what ``site``
    preloads (typing, on some installs) does not count."""
    return _loaded_modules(code, *args, cwd=cwd) - _loaded_modules("")


def _package_modules(modules):
    """The numpy, mpmath and hyperlat.* modules among modules."""
    return {m for m in modules if m in ("numpy", "mpmath") or m.startswith("hyperlat.")}


BASE_MODULES = {"hyperlat.cli", "hyperlat.exactla", "hyperlat.lattices"}


# written by the test in the directory the command runs in
LATTICE_FILE = "u_rank1_-4.json"

LOAD_SETS = [
    (["lattice", "--lattice", "U+rank1(-4)"], set()),
    (["lattice", "--lattice", LATTICE_FILE], set()),
    (["fqm", "--lattice", "rank1(-8)"], {"fqm"}),
    (["theta", "--lattice", "E8(-1)+rank1(-2)", "--order", "1"], {"fqm", "qseries"}),
    (["weil", "--lattice", "U+U+rank1(-2)"], {"fqm", "weil"}),
    (["cusp", "--lattice", "U+U+rank1(-8)", "--bound", "1"], {"fqm", "cusps"}),
    (["eis", "--lattice", "U+U+rank1(-8)", "--gamma", "2", "--nmax", "3",
      "--prime-bound", "20"], {"fqm", "densities"}),
    (["k3", "--two-d", "2", "--n", "4", "--mu-s", "1", "--prime-bound", "20"],
     {"fqm", "densities", "predict"}),
    # a rank-3 P, <2>+<-22>+<-22>: its coset is decided by local densities
    (["k3", "--p-rows", K3_RANK3_ROWS, "--n", "2", "--mu-s", "1", "--prime-bound", "20"],
     {"fqm", "densities", "predict"}),
    (["predict", "--lattice", "U+U+rank1(-8)", "--n", "4", "--mu-s", "1",
      "--prime-bound", "20"], {"fqm", "densities", "predict"}),
    (["count", "--lattice", "U+U+rank1(-2)", "--rho", "1", "--nmin", "3", "--nmax", "4",
      "--prime-bound", "20"], {"fqm", "densities", "hyperboloid", "numpy"}),
    # five 2-adic residual coordinates: counted with no array
    (["density", "--lattice", "rank1(2)+rank1(2)+rank1(-2)+rank1(-2)+rank1(-2)",
      "--n", "1", "--prime", "2"], {"fqm", "densities"}),
]


@pytest.mark.parametrize("argv, loaded", LOAD_SETS,
                         ids=[a[0] + "-p-rows" * ("--p-rows" in a) + "-file" * (LATTICE_FILE in a)
                              for a, _ in LOAD_SETS])
def test_commands_load_only_what_they_use(argv, loaded, tmp_path):
    # numpy costs about 145 ms of start-up; mpmath, which no command loads,
    # about 40 ms.  Of the standard library, dataclasses costs about 6.5 ms
    # with the inspect, ast, dis and tokenize it imports, and json about 1.7 ms
    (tmp_path / LATTICE_FILE).write_text('{"gram": [[0, 1, 0], [1, 0, 0], [0, 0, -4]]}')
    new = _new_modules("import io\nfrom hyperlat.cli import main\n"
                       "main(sys.argv[1:], out=io.StringIO())", *argv, cwd=tmp_path)
    got = _package_modules(new)
    want = BASE_MODULES | {m if m in ("numpy", "mpmath") else f"hyperlat.{m}"
                           for m in loaded}
    assert got == want
    assert "dataclasses" not in new
    # numpy imports inspect itself
    assert "numpy" in new or "inspect" not in new
    # only a lattice file is read as JSON
    assert ("json" in new) == (LATTICE_FILE in argv)


PUBLIC_NAMES = {
    "exactla": "InputError NodeGuardExceeded",
    "lattices": "IntegerLattice LatticeError Signature direct_sum e8 hyperbolic_plane "
                "is_anisotropic_over_q k3_lattice lattice_from_json load_lattice "
                "make_named orthogonal_complement rank1 rescale",
    "fqm": "FiniteQuadraticModule FqmError Subgroup discriminant_group isotropic_subgroups "
           "orthogonal_subgroup overlattice quotient_module quotient_with_projection "
           "subgroup_generated",
    "weil": "WeilAction WeilError intertwining_defect pullback_matrix pushforward_matrix "
            "rho_S rho_T verify_relations",
    "qseries": "BoundaryCoefficient QSeriesError VectorQSeries a_coeff e2_series multiply "
               "theta_series u_coeff",
    "densities": "DensityError EisensteinCoefficient GuardExceeded LocalDensityReport "
                 "PredictionResult SingularSeries StabilizationError count_solutions_naive "
                 "count_solutions_split eisenstein_coefficient is_representable "
                 "local_density singular_series",
    "cusps": "CuspDatum CuspError cusp_datum find_isotropic_planes isotropic_planes "
             "project_class",
    "hyperboloid": "CountReport ExperimentSummary PointCount SplittingFrame Window "
                   "admissible_values box_scan_count count_range enumerate_points "
                   "equidistribution_run mu_a0 mu_a0_closed mu_infty mu_infty_closed "
                   "splitting_frame unit_sphere_area",
    "predict": "K3Prediction PredictError PredictionInput RepresentabilityResult "
               "degree_prediction elliptic_census_prediction k3_lattices k3_predict "
               "k3_sublattice represents_on_coset",
}


def test_package_names_resolve_lazily():
    import importlib

    assert _package_modules(_new_modules("import hyperlat")) == set()
    assert _package_modules(_new_modules("from hyperlat import theta_series")) == {
        "hyperlat.exactla", "hyperlat.fqm", "hyperlat.lattices", "hyperlat.qseries"}
    for module, names in PUBLIC_NAMES.items():
        source = importlib.import_module(f"hyperlat.{module}")
        for name in names.split():
            scope = {}
            exec(f"from hyperlat import {name}", scope)
            assert scope[name] is getattr(source, name), (module, name)
    with pytest.raises(ImportError):
        exec("from hyperlat import no_such_name", {})


def _usage_error(argv, capsys) -> str:
    """The one 'hyperlat: error:' line of a command that must exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv, out=io.StringIO())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    errors = [l for l in err.splitlines() if l.startswith("hyperlat: error:")]
    assert len(errors) == 1 and "Traceback" not in err
    return errors[0]


LATTICE_COMMANDS = [
    ["lattice"], ["fqm"], ["weil"], ["theta", "--order", "1"], ["cusp"],
    ["density", "--n", "1", "--prime", "5"], ["eis", "--nmax", "2"],
    ["count", "--rho", "1", "--nmin", "3", "--nmax", "4"],
    ["predict", "--n", "1", "--mu-s", "1"],
]


@pytest.mark.parametrize("spec, message", [
    ("nosuch", "neither"),
    ("rank1(x)", "invalid literal"),
    ("rank1(0)", "nonzero even integer"),
    ("malformed.json", "Expecting"),
], ids=["unknown", "rank1-not-int", "rank1-zero", "bad-json"])
def test_bad_lattice_spec_is_a_usage_error(spec, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "malformed.json").write_text('{"gram": [[2, 1],')
    for cmd in LATTICE_COMMANDS:
        line = _usage_error([cmd[0], "--lattice", spec] + cmd[1:], capsys)
        assert spec in line and message in line, (cmd, line)


@pytest.mark.parametrize("argv, message", [
    (["theta", "--lattice", "rank1(-2)", "--order", "-1"], "order must be >= 0"),
    (["theta", "--lattice", "U", "--order", "1"], "negative definite"),
    (["cusp", "--lattice", "rank1(-2)", "--bound", "1"], "signature (2, b)"),
    (["cusp", "--lattice", "U+U+rank1(-2)", "--bound", "-1"],
     "argument --bound: wants an integer >= 0, got '-1'"),
], ids=["theta-order", "theta-indefinite", "cusp-signature", "cusp-bound"])
def test_theta_and_cusp_preconditions_are_usage_errors(argv, message, capsys):
    assert message in _usage_error(argv, capsys)


def test_cusp_bound_zero_prints_the_empty_table():
    out = run_cli(["cusp", "--lattice", "U+U+rank1(-2)", "--bound", "0"])
    assert out.splitlines()[1:] == [
        "index,plane_rows,imprimitivity,kf_gram,strongly_primitive,det_identity"]


@pytest.mark.parametrize("argv, digest", [
    (["weil", "--lattice", "U+U+rank1(-200)"],
     "0bb70d5807c05c87de16ee6afd832f6beab723c7ab9fbcaa37cd15aabdc410de"),
    (["weil", "--lattice", "U+U+rank1(-200)", "--dual"],
     "0f819c6999a8f59084bec0e854e19378677d49df0556da8d9ad17327589cd6d3"),
    (["cusp", "--lattice", "U+U+rank1(-8)", "--bound", "2"],
     "0ebfaae8083f05456efba61d3a8a2121321e22dae16e0050bd5d2a0b7bb3ed0a"),
], ids=["weil", "weil-dual", "cusp"])
def test_weil_and_cusp_output_is_pinned(argv, digest):
    import hashlib

    assert hashlib.sha256(run_cli(argv).encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, builds", [
    (["cusp", "--lattice", "U+U+rank1(-8)", "--bound", "2"], 3),
    (["eis", "--lattice", "U+U+rank1(-8)", "--gamma", "2", "--nmax", "40",
      "--prime-bound", "100"], 1),
], ids=["cusp", "eis"])
def test_discriminant_group_is_built_once_per_gram(argv, builds, monkeypatch):
    # cusp asks for three distinct Grams (V and two K_F) 320 times, and eis
    # for V's once per norm; each module is built from its Gram once
    from hyperlat import fqm

    built = []
    init = fqm.FiniteQuadraticModule.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.lattice is not None:
            built.append(self.lattice.gram)

    monkeypatch.setattr(fqm.FiniteQuadraticModule, "__init__", counted)
    fqm.discriminant_group.cache_clear()
    run_cli(argv)
    assert len(built) == len(set(built)) == builds


def test_predict_with_boundary_loads_no_numpy():
    got = _package_modules(_new_modules(
        "import io, sys\nfrom hyperlat.cli import main\nmain(sys.argv[1:], out=io.StringIO())",
        "predict", "--lattice", "U+U+rank1(-8)", "--n", "4", "--mu-s", "1",
        "--prime-bound", "20", "--boundary", "0:1", "--cusp-bound", "1"))
    assert "numpy" not in got and "hyperlat.cusps" in got


@pytest.mark.parametrize("argv, message", [
    (["count", "--lattice", "U+U+rank1(-2)", "--rho", "abc", "--nmin", "1", "--nmax", "2"],
     "--rho wants a rational number, got 'abc'"),
    (["count", "--lattice", "U+U+rank1(-2)", "--rho", "1", "--nmin", "abc", "--nmax", "2"],
     "--nmin wants a rational number"),
    (["count", "--lattice", "U+U+rank1(-2)", "--rho", "1", "--nmin", "1", "--nmax", "1/0"],
     "--nmax wants a rational number, got '1/0'"),
    (["density", "--lattice", "U+U+rank1(-8)", "--n", "abc", "--prime", "5"],
     "--n wants a rational number"),
    (["predict", "--lattice", "U+U+rank1(-2)", "--n", "abc", "--mu-s", "1"],
     "--n wants a rational number"),
    (["k3", "--two-d", "2", "--n", "abc", "--mu-s", "1"], "--n wants a rational number"),
    (["theta", "--lattice", "E8(-1)", "--order", "abc"], "--order wants a rational number"),
], ids=["count-rho", "count-nmin", "count-nmax", "density-n", "predict-n", "k3-n",
        "theta-order"])
def test_rational_flags_that_are_not_rationals_are_usage_errors(argv, message, capsys):
    assert message in _usage_error(argv, capsys)


def test_count_negative_rho_is_a_usage_error(capsys):
    line = _usage_error(["count", "--lattice", "U+U+rank1(-2)", "--rho", "-1",
                         "--nmin", "1", "--nmax", "2"], capsys)
    assert "rho must be >= 0, got -1" in line


@pytest.mark.parametrize("lattice, boundary, message", [
    ("U+U+rank1(-2)", "99:1", "index 99 is not one of the 40 planes found at --cusp-bound 1"),
    ("U+U+rank1(-2)", "0", "--boundary wants 'index:degree;...' with integers, got '0'"),
    ("U+U+rank1(-2)", "0:1;x:1", "got 'x:1'"),
    ("rank1(-2)+rank1(-4)", "0:1", "signature (2, b)"),
], ids=["index", "no-degree", "not-integer", "signature"])
def test_predict_bad_boundary_is_a_usage_error(lattice, boundary, message, capsys):
    line = _usage_error(["predict", "--lattice", lattice, "--n", "1", "--mu-s", "1",
                         "--boundary", boundary, "--cusp-bound", "1"], capsys)
    assert message in line


def test_closed_stdout_ends_quietly():
    # `hyperlat weil ... | head -1`: the reader goes away after one line
    env = _checkout_env()
    proc = subprocess.Popen([sys.executable, "-m", "hyperlat", "weil", "--lattice",
                             "U+U+rank1(-200)"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"# lattice=U+U+rank1(-200)")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    assert err == ""


@pytest.mark.parametrize("lattice, nmin, nmax, prime_bound, message, limit", [
    ("U+U+rank1(-2)", "1000000000", "1000000000", "10",
     "count of at least 6000000003 points and table entries exceeds guard", SWEEP_GUARD),
], ids=["sweep"])
def test_guard_errors_exit_3(lattice, nmin, nmax, prime_bound, message, limit, capsys):
    # a valid input too large for a guard of the computation: one line, exit 3,
    # naming the limit it exceeded
    code = main(["count", "--lattice", lattice, "--rho", "1", "--nmin", nmin,
                 "--nmax", nmax, "--prime-bound", prime_bound], out=io.StringIO())
    lines = capsys.readouterr().err.splitlines()
    assert code == 3 and len(lines) == 1
    assert lines[0].startswith("hyperlat: error: ") and message in lines[0]
    assert lines[0].endswith(f"exceeds guard {limit}")


def test_residual_of_two_coordinates_at_p3_is_counted():
    # stabilization at 2 n det = 2^4 3^7 wants s = 9 at p = 3, where two
    # unpaired coordinates remain: counted by reduction, with no table
    out = io.StringIO()
    assert main(["count", "--lattice", "rank1(2)+rank1(6)+rank1(-6)+rank1(-6)+rank1(-6)",
                 "--gamma", "0,0,1,2,2", "--rho", "1", "--nmin", "27/4", "--nmax", "27/4",
                 "--prime-bound", "10"], out=out) == 0
    rows = [l.split(",") for l in out.getvalue().splitlines()[2:] if not l.startswith("#")]
    assert len(rows) == 1
    n, empirical, _, _, _, series, grazing = rows[0]
    assert (n, empirical, series, grazing) == ("27/4", "51", "1152/1225", "0")


def test_one_norm_count_prints_no_nan():
    # one norm leaves the first half empty: its mean is not printed as nan,
    # and the row is the same as with both halves printed
    text = run_cli(["count", "--lattice", "rank1(2)+rank1(6)+rank1(-6)+rank1(-6)+rank1(-6)",
                    "--gamma", "0,0,1,2,2", "--rho", "1", "--nmin", "27/4",
                    "--nmax", "27/4", "--prime-bound", "10"])
    lines = text.splitlines()
    assert lines[2] == "27/4,51,44.0905663683,1.15671002214,2.67345961444,1152/1225,0"
    assert lines[3:] == ["# mean_ratio=1.15671002214"]
    assert "nan" not in re.split(r"[\s,;=]+", text)


def test_count_prints_both_halves():
    text = run_cli(["count", "--lattice", "U+U+rank1(-2)", "--rho", "1", "--nmin", "1",
                    "--nmax", "3", "--prime-bound", "10"])
    last = text.splitlines()[-1].split()
    assert [x.split("=")[0] for x in last[1:]] == ["mean_ratio", "first_half", "second_half"]


@pytest.mark.parametrize("n", ["4", "8", "16"])
def test_density_of_six_two_adic_units_is_counted(n):
    # six <-2> coordinates stay one 2-adic residual; its raw counts agree with
    # the exhaustive counter wherever that fits its guard
    from hyperlat.densities import count_solutions_naive

    lattice = "U+U+" + "+".join(["rank1(-2)"] * 6)
    out = io.StringIO()
    assert main(["density", "--lattice", lattice, "--n", n, "--prime", "2"], out=out) == 0
    prime, s0, density, raw = out.getvalue().splitlines()[-1].split(",")
    counts = [int(x) for x in raw.split(";")]
    assert prime == "2" and len(counts) == int(s0) + 1
    L = parse_lattice_spec(lattice)
    for s in (1, 2):
        assert counts[s - 1] == count_solutions_naive(None, int(n), L, 2 ** s)


def test_count_small_rank_is_a_usage_error(capsys):
    line = _usage_error(["count", "--lattice", "U+U", "--rho", "1", "--nmin", "1",
                         "--nmax", "2"], capsys)
    assert "the experiment wants signature (2, b) with b >= 3, got rank 4" in line


def _refusal(argv, capsys):
    """(exit status, the one 'hyperlat: error:' line) of a refused command,
    which must print nothing to stdout."""
    out = io.StringIO()
    try:
        code = main(argv, out=out)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    errors = [l for l in err.splitlines() if l.startswith("hyperlat: error:")]
    assert len(errors) == 1 and "Traceback" not in err, err
    assert out.getvalue() == "", out.getvalue()
    return code, errors[0]


UU2 = ["--lattice", "U+U+rank1(-2)"]
COUNT = ["count"] + UU2 + ["--rho", "1", "--nmin", "1", "--nmax", "2"]


@pytest.mark.parametrize("argv, message", [
    (["cusp"] + UU2 + ["--bound", "100"],
     "plane search box of 328080401001 vectors exceeds guard 10000000"),
    (["weil", "--lattice", "U+U+rank1(-20000)"],
     "listing a module of order 20000 exceeds guard 10000"),
    (["fqm", "--lattice", "U+U+rank1(-20000)"],
     "listing a module of order 20000 exceeds guard 10000"),
    # listed (|D| = 2592), but each matrix would hold 6.7 * 10^6 entries
    (["weil", "--lattice", "rank1(2)+rank1(6)+rank1(-6)+rank1(-6)+rank1(-6)"],
     "Weil matrices of a module of order 2592 have 6718464 entries each, past guard 4000000"),
    # 4 * 10^7 candidates on the one level, refused before the first
    (["theta", "--lattice", "rank1(-2)", "--order", "100000000000000"],
     "enumeration exceeded 1000000 nodes"),
], ids=["cusp-box", "weil-order", "fqm-order", "weil-matrix", "theta-nodes"])
def test_size_refusals_exit_3(argv, message, capsys):
    code, line = _refusal(argv, capsys)
    assert code == 3 and message in line


@pytest.mark.parametrize("argv, message", [
    (["k3", "--p-rows", "1,0", "--n", "1", "--mu-s", "1"],
     "sublattice rows must have 22 coordinates"),
    (["k3", "--p-rows", "abc", "--n", "1", "--mu-s", "1"], "argument --p-rows"),
    (["k3", "--p-rows", "1/2", "--n", "1", "--mu-s", "1"], "argument --p-rows"),
    (["k3", "--p-rows", "0:1", "--n", "1", "--mu-s", "1"], "argument --p-rows"),
    (["k3", "--p-rows", ";", "--n", "1", "--mu-s", "1"], "argument --p-rows"),
    (["predict"] + UU2 + ["--n", "1", "--mu-s", "nan"],
     "argument --mu-s: wants a finite number, got 'nan'"),
    (["predict", "--lattice", "rank1(-2)", "--n", "1", "--mu-s", "1"],
     "predictions want signature (2,b) with b >= 3, got rank 1"),
    (["eis", "--lattice", "rank1(-2)", "--nmax", "2"],
     "Eisenstein coefficients want signature (2,b) with b >= 3, got rank 1"),
    (["eis", "--lattice", "E8", "--nmax", "1", "--prime-bound", "5"],
     "Eisenstein coefficients want signature (2,b) with b >= 3, got signature (8,0)"),
    (["predict", "--lattice", "U+E8", "--n", "1", "--mu-s", "1"],
     "predictions want signature (2,b) with b >= 3, got signature (9,1)"),
    (COUNT + ["--workers", "0", "--samples", "10"],
     "argument --workers: wants an integer >= 1, got '0'"),
    (COUNT + ["--workers", "-1", "--samples", "1"], "argument --workers"),
    (COUNT + ["--samples", "-5"], "argument --samples: wants an integer >= 0, got '-5'"),
    (COUNT + ["--prime-bound", "-5"], "argument --prime-bound"),
    (COUNT + ["--seed", "-1", "--samples", "10"], "argument --seed"),
    (["density"] + UU2 + ["--n", "1", "--prime", "5", "--smax", "2"],
     "unrecognized arguments: --smax 2"),
    (["count"] + UU2 + ["--rho", "1", "--nmin", "600", "--nmax", "300"],
     "no n in [600, 300] lies in -Q(gamma) + Z = 0 + Z"),
    (["count", "--lattice", "U+U+rank1(-8)", "--gamma", "1", "--rho", "1", "--nmin", "2",
      "--nmax", "2"], "no n in [2, 2] lies in -Q(gamma) + Z = 1/16 + Z"),
    (["count"] + UU2 + ["--rho", "1", "--nmin", "0", "--nmax", "2"],
     "the norm n must be > 0, got 0"),
], ids=["k3-row-length", "k3-rows-abc", "k3-rows-fraction", "k3-rows-colon", "k3-rows-empty",
        "predict-mu-nan", "predict-rank", "eis-rank", "eis-signature", "predict-signature",
        "count-workers-0", "count-workers-neg",
        "count-samples", "count-prime-bound", "count-seed", "density-smax",
        "count-reversed", "count-off-coset", "count-nmin-0"])
def test_input_errors_exit_2(argv, message, capsys):
    code, line = _refusal(argv, capsys)
    assert code == 2 and message in line, line


def test_count_with_every_norm_skipped_prints_no_mean():
    # n = 1 is not represented over Z_3: one skipped line, and no mean of nothing
    text = run_cli(["count", "--lattice", "rank1(2)+rank1(6)+rank1(-6)+rank1(-6)+rank1(-6)",
                    "--rho", "1", "--nmin", "1", "--nmax", "1", "--prime-bound", "30"])
    lines = text.splitlines()
    assert lines[2:] == ["# skipped n=1: not locally representable"]
    assert "nan" not in re.split(r"[\s,;=]+", text)
