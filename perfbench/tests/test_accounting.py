"""Tests of the benchmark's own machinery: failure accounting, the
count_generic oracle, and the span arithmetic.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests     # from a checkout root
"""

import json
import os
import time

import pytest

import run
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture
def runner():
    ran = run.Runner(ROOT, time.monotonic() + run.RUN_LIMIT_S)
    yield ran
    ran.close()


def _stdout(runner, argv):
    ran = runner.run(argv)
    assert not ran["failed"], ran["problems"]
    with open(os.path.join(runner.work, "stdout.txt")) as fh:
        return fh.read()


def test_known_bad_inputs_land_in_fail_frac(runner, tmp_path):
    no_blocks = tmp_path / "no_blocks.json"
    with open(os.path.join(ROOT, workloads.GENERIC_LATTICE)) as fh:
        lattice = json.load(fh)
    del lattice["blocks"]
    no_blocks.write_text(json.dumps(lattice))
    mu = workloads.load_refs()["count_generic"]["mu_infty"]

    def count_check(norms):
        return lambda text: workloads.check_count(text, norms, {}, mu)

    bad = [
        workloads.Command("guard", workloads.count_argv(str(no_blocks), 4, 4, 30, 0,
                                                        samples=1000), count_check([4])),
        workloads.Command("nan", workloads.count_argv("U+U+rank1(-2)", 600, 300, 30, 0,
                                                      samples=1000), count_check([])),
        workloads.Command("workers", workloads.count_argv("U+U+rank1(-2)", 1, 2, 30, 0,
                                                          samples=1000, workers=0),
                          count_check([1, 2])),
        workloads.Command("good", workloads.count_argv("U+U+rank1(-2)", 1, 2, 30, 0,
                                                       samples=1000), count_check([1, 2])),
    ]
    done = runner.run_pass(bad, trace=False)
    by_label = dict(zip((c.label for c in bad), done["commands"]))
    assert "GuardExceeded" in by_label["guard"]["error"]
    assert by_label["nan"]["exit"] == 0
    assert "nan or inf in output" in by_label["nan"]["problems"]
    assert "ZeroDivisionError" in by_label["workers"]["error"]
    assert not by_label["good"]["failed"]
    failed = sum(c["failed"] for c in done["commands"])
    assert failed / len(done["commands"]) == 0.75


def test_generic_oracle_needs_no_pinned_window(runner):
    nmin, nmax = 2, 4   # not the workload's window, and not pinned
    oracle = workloads.parse_empirical(_stdout(runner, workloads.oracle_argv(nmin, nmax)))
    text = _stdout(runner, workloads.count_argv(workloads.GENERIC_LATTICE, nmin, nmax,
                                                30, 3, samples=100000))
    mu = workloads.load_refs()["count_generic"]["mu_infty"]
    norms = range(nmin, nmax + 1)
    assert workloads.check_count(text, norms, {}, mu, oracle) == []
    wrong = dict(oracle, **{"3": str(int(oracle["3"]) + 1)})
    assert workloads.check_count(text, norms, {}, mu, wrong) != []


def test_traced_command_reports_spans(runner):
    ran = runner.run(["eis", "--lattice", "U+U+rank1(-8)", "--gamma", "2", "--nmax", "3",
                      "--prime-bound", "10"], trace=True)
    assert not ran["failed"] and ran["absent"] == []
    stats = ran["span_stats"]
    assert stats["cli.main"]["calls"] == 1
    assert stats["densities.eisenstein_coefficient"]["calls"] == 3
    # cli.main's own discriminant_group call is caught through the imported name
    assert stats["fqm.discriminant_group"]["calls"] >= 1


def test_missing_trace_target_is_absent_not_an_error():
    rec = spans.install(targets=(("densities", "no_such_function"),
                                 ("no_such_module", "f")))
    assert rec.absent == ["densities.no_such_function", "no_such_module.f"]


def test_span_stats_total_self_and_recursion():
    # f(0..10) calls g(1..4) and f(5..7); g calls nothing traced
    recorded = [["f", -1, 0.0, 10.0, None], ["g", 0, 1.0, 4.0, 7],
                ["f", 0, 5.0, 7.0, None]]
    st = spans.span_stats(recorded)
    assert st["f"]["calls"] == 2 and st["f"]["total_s"] == 10.0
    assert st["f"]["self_s"] == (10.0 - 3.0 - 2.0) + 2.0
    assert st["g"]["points"] == 7 and st["g"]["self_s"] == 3.0


def test_tail_needs_ten_samples_beyond():
    assert spans._tail([1.0] * 19) == (0.0, 0.0)
    assert spans._tail(list(range(20)))[1] == 50.0
    assert spans._tail(list(range(1000)))[1] == 99.0


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
