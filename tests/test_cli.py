"""CLI round trips, deterministic artifacts and exit codes."""

import ast
import hashlib
import json
import math
import os
import random
import subprocess
import sys

import pytest

import greedylab

from greedylab.cli import main


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def schedule_file(tmp_path):
    return write(tmp_path / "sched.json", {"a": [4, 5, 6, 7], "K": 3})


@pytest.fixture
def vector_file(tmp_path):
    return write(tmp_path / "vec.json", {"groups": [[0, "2", "20"], [1, "1", "20"]]})


def test_norm_command(tmp_path, schedule_file, vector_file, capsys):
    assert main(["norm", "--space", schedule_file, "--vector", vector_file]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["power_exact"] == "36"  # 4*4 + 20
    assert blob["float"] == pytest.approx(6.0)


def test_sigma_gamma_commands(tmp_path, schedule_file, vector_file, capsys):
    assert main(["sigma", "--space", schedule_file, "--vector", vector_file, "--N", "20"]) == 0
    sigma_blob = json.loads(capsys.readouterr().out)
    assert sigma_blob["sigma"]["power_exact"] == "16"
    assert main(["gamma", "--space", schedule_file, "--vector", vector_file, "--N", "20"]) == 0
    gamma_blob = json.loads(capsys.readouterr().out)
    assert gamma_blob["gamma"]["power_exact"] == "20"


def test_errors_csv(tmp_path, schedule_file, vector_file):
    out = tmp_path / "errors.csv"
    assert main([
        "--out", str(out), "errors", "--space", schedule_file, "--vector", vector_file,
    ]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "k,sigma_sq,gamma_sq,sigma_float,gamma_float"
    assert len(lines) == 42  # header + k = 0..40
    k20 = lines[21].split(",")
    assert k20[0] == "20" and k20[1] == "16" and k20[2] == "20"


def test_errors_builds_one_greedy_profile(tmp_path, schedule_file, vector_file, monkeypatch):
    # Both sequences come from one profile of the vector.
    from greedylab import greedy

    built = []
    real = greedy.GreedyProfile.__init__
    monkeypatch.setattr(greedy.GreedyProfile, "__init__",
                        lambda self, *args: built.append(args) or real(self, *args))
    out = str(tmp_path / "errors.csv")
    assert main(["--out", out, "errors", "--space", schedule_file, "--vector", vector_file]) == 0
    assert len(built) == 1


def test_demfun_csv_matches_spec_example(tmp_path, capsys):
    mini = write(tmp_path / "mini.json", {"a": [4, 5, 6, 7]})
    out = tmp_path / "demfun.csv"
    assert main(["--out", str(out), "demfun", "--space", mini, "--max-N", "40"]) == 0
    rows = {int(line.split(",")[0]): line.split(",") for line in out.read_text().strip().split("\n")[1:]}
    assert rows[20][1] == "4" and rows[20][3] == "2"
    assert rows[40][1] == "20" and rows[40][3].startswith("4.4721359549995")


def test_demfun_output_is_byte_deterministic(tmp_path):
    mini = write(tmp_path / "mini.json", {"a": [4, 5, 6, 7]})
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["--out", str(out1), "demfun", "--space", mini, "--max-N", "40"])
    main(["--out", str(out2), "demfun", "--space", mini, "--max-N", "40"])
    assert out1.read_bytes() == out2.read_bytes()


def test_doubling_scan_csv(tmp_path, schedule_file):
    out = tmp_path / "scan.csv"
    assert main(["--out", str(out), "doubling-scan", "--space", schedule_file, "--k", "1..2"]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "1" and "True" in lines[1]


def test_doubling_scan_exits_1_on_a_row_that_breaks_the_theorem(tmp_path, capsys, monkeypatch):
    # h_l^p(2 n_4) one above n_4 = 840 on a = (4, ..., 10): the squared ratio
    # 841/120 still beats (2/3) a_4, and the scan's theorem check refuses it.
    from greedylab import democracy

    real = democracy._hl_points
    monkeypatch.setattr(democracy, "_hl_points", lambda blocks, ns: [
        (value + (n == 1680), witness) for n, (value, witness) in zip(ns, real(blocks, ns))])
    space = write(tmp_path / "a6.json", {"a": [4, 5, 6, 7, 8, 9, 10]})
    out = tmp_path / "scan.csv"
    assert main(["--out", str(out), "doubling-scan", "--space", space, "--k", "1..5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert json.loads(captured.err)["error"] == (
        "InvariantError: doubling scan, k=3: h_l^p(n_(k+1)) = 120 and h_l^p(2n_(k+1)) = 841, "
        "where the theorem gives n_k = 120 and n_(k+1) = 840")


def test_prefix_check_reports_counterexample(tmp_path, schedule_file, capsys):
    out = tmp_path / "prefix.csv"
    assert main(["--out", str(out), "prefix-check", "--space", schedule_file, "--max-N", "45"]) == 0
    err = capsys.readouterr().err
    assert "counterexamples" in err and "40" in err


def test_cghm_and_check71_round_trip(tmp_path):
    hl = write(tmp_path / "hl.json", {"kind": "one_plus_log2"})
    hr = write(tmp_path / "hr.json", {"kind": "sqrt"})
    out = tmp_path / "cghm.json"
    assert main([
        "--out", str(out), "cghm", "--hl", hl, "--hr", hr, "--alpha", "0.25", "--count", "5",
    ]) == 0
    blob = json.loads(out.read_text())
    assert len(blob["w"]) == 5 and not blob["exhausted"]
    assert main([
        "check71", "--hl", hl, "--hr", hr, "--pairs", str(out), "--C", "1", "--alpha", "0.25",
    ]) == 0


def _table(path, h, top):
    return write(path, {"kind": "table", "values": {str(n): h(n) for n in range(1, top + 1)}})


def test_cghm_doubling_check_stops_where_the_tables_end(tmp_path):
    # The pre-check reads h_l(N), h_l(2N) at each N whose 2N the table holds,
    # and no further; tables on N < 5000 once raised KeyError: 8192.
    hl = _table(tmp_path / "hl.json", lambda n: 1 + math.log2(n), 4999)
    hr = _table(tmp_path / "hr.json", math.sqrt, 4999)
    out = tmp_path / "cghm.json"
    assert main(["--out", str(out), "cghm", "--hl", hl, "--hr", hr, "--alpha", "0.25"]) == 0
    blob = json.loads(out.read_text())
    assert (blob["w"], blob["k"], blob["n"]) == ([1], [361], [361]) and blob["exhausted"]
    assert blob["checks"] == [{"cghm2": True, "cghm3": True, "chain": True}]
    # The same first term as the closed forms the tables sample.
    hl = write(tmp_path / "log.json", {"kind": "one_plus_log2"})
    hr = write(tmp_path / "sqrt.json", {"kind": "sqrt"})
    assert main(["--out", str(out), "cghm", "--hl", hl, "--hr", hr, "--alpha", "0.25"]) == 0
    assert json.loads(out.read_text())["k"][0] == 361


def test_cghm_refuses_a_table_that_fails_to_double_between_probes(tmp_path, capsys):
    # h_l(4)/h_l(2) = 3 > 2.5.  The probes N = 1 and 4 read 2 and 4/3, and
    # the run once exited 0.
    h = write(tmp_path / "h.json", {"kind": "table", "values": {"1": 1, "2": 2, "4": 6, "8": 8}})
    out = tmp_path / "cghm.json"
    assert main(["--out", str(out), "cghm", "--hl", h, "--hr", h, "--alpha", "0.25",
                 "--c-doubling", "2.5"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == (
        "ValueError: h_l is not 2.5-doubling at N=2: 6.0 > 2.5 * 2.0")
    assert not out.exists()


def test_cghm_check_past_the_table_is_exhaustion(tmp_path):
    # The checks read h_l at n = w * k: here 16 * 16 = 256, past a table on 1..100.
    hl = _table(tmp_path / "hl.json", lambda n: 1.0, 100)
    hr = _table(tmp_path / "hr.json", math.sqrt, 100)
    out = tmp_path / "cghm.json"
    assert main([
        "--out", str(out), "cghm", "--hl", hl, "--hr", hr, "--alpha", "0.5",
        "--c-doubling", "1", "--probe-limit", "64",
    ]) == 0
    blob = json.loads(out.read_text())
    assert (blob["w"], blob["k"], blob["n"]) == ([1, 4, 9], [1, 4, 9], [1, 16, 81])
    assert blob["exhausted"] and "256" in blob["exhausted_reason"]
    assert len(blob["checks"]) == 3 and all(all(c.values()) for c in blob["checks"])


def test_cghm_treats_a_float_overflow_as_h_unknown(tmp_path):
    # h(N) = N^400 overflows a float from N = 8 (4^400 = 2^800 still fits): the
    # search stops there, where the run once exited 1 with the OverflowError.
    h = write(tmp_path / "power400.json", {"kind": "power", "exponent": 400})
    out = tmp_path / "cghm.json"
    assert main(["--out", str(out), "cghm", "--hl", h, "--hr", h, "--alpha", "0.25",
                 "--c-doubling", "1e200"]) == 0
    blob = json.loads(out.read_text())
    assert (blob["w"], blob["k"], blob["checks"], blob["exhausted"]) == ([], [], [], True)
    assert blob["exhausted_reason"].startswith("h_r/h_l is not known at N = 8,")


def test_cghm_threshold_past_the_float_range_is_exhaustion(tmp_path):
    # At mu = 2 the threshold C^2 = 1e400 is past the float range: the run once
    # exited 1 with OverflowError there, though --count 1 exited 0.
    one = write(tmp_path / "one.json", {"kind": "power", "exponent": 0})
    p100 = write(tmp_path / "p100.json", {"kind": "power", "exponent": 100})
    out = tmp_path / "cghm.json"
    assert main(["--out", str(out), "cghm", "--hl", one, "--hr", p100, "--alpha", "0.25",
                 "--c-doubling", "1e200", "--count", "3"]) == 0
    blob = json.loads(out.read_text())
    assert (blob["w"], blob["k"], blob["exhausted"]) == ([1], [100], True)
    assert blob["checks"] == [{"cghm2": True, "cghm3": True, "chain": True}]
    assert "mu = 2" in blob["exhausted_reason"] and "float range" in blob["exhausted_reason"]


def test_check71_refuses_an_exhausted_cghm_report(tmp_path, capsys):
    # The k crossing needs N = 2, past the probe limit: no pair is built.
    hl = write(tmp_path / "hl.json", {"kind": "one_plus_log2"})
    hr = write(tmp_path / "hr.json", {"kind": "sqrt"})
    report, out = tmp_path / "cghm.json", tmp_path / "check71.json"
    assert main(["--out", str(report), "cghm", "--hl", hl, "--hr", hr, "--alpha", "0.25",
                 "--probe-limit", "1"]) == 0
    blob = json.loads(report.read_text())
    assert (blob["k"], blob["n"], blob["exhausted"]) == ([], [], True)
    capsys.readouterr()
    assert main(["--out", str(out), "check71", "--hl", hl, "--hr", hr, "--pairs", str(report),
                 "--alpha", "0.25"]) == 1
    assert "pairs" in json.loads(capsys.readouterr().err)["error"]
    assert not out.exists()


def test_check71_failing_pairs_exit_1(tmp_path, capsys):
    hl = write(tmp_path / "hl.json", {"kind": "sqrt"})
    hr = write(tmp_path / "hr.json", {"kind": "sqrt"})
    pairs = write(tmp_path / "pairs.json", [[2, 4], [2, 2048]])
    assert main(["check71", "--hl", hl, "--hr", hr, "--pairs", pairs, "--C", "1", "--alpha", "0.5"]) == 1


def test_check71_names_the_side_and_the_n_a_table_cannot_answer(tmp_path, capsys):
    hl = write(tmp_path / "hl.json", {"kind": "table", "values": {"1": 1, "2": 1.5, "4": 2}})
    hr = write(tmp_path / "hr.json", {"kind": "sqrt"})
    pairs = write(tmp_path / "pairs.json", [[1, 2], [2, 8]])
    assert main(["check71", "--hl", hl, "--hr", hr, "--pairs", pairs, "--alpha", "0.25"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == (
        "ValueError: pair 2: h_l is not known at N = 8")


@pytest.mark.parametrize("argv,name", [
    (["cghm", "--alpha", "nan"], "alpha"),
    (["cghm", "--alpha", "0.25", "--c-doubling", "inf"], "c_doubling"),
    (["check71", "--pairs", "PAIRS", "--C", "nan", "--alpha", "0.25"], "c"),
    (["check71", "--pairs", "PAIRS", "--C", "1", "--alpha", "inf"], "alpha"),
    # a non-finite h-function field, in an --hl that replaces the first
    *[(argv + ["--hl", h], name)
      for argv in (["cghm", "--alpha", "0.25"], ["check71", "--pairs", "PAIRS", "--alpha", "0.25"])
      for h, name in (("nan_scale", "scale"), ("nan_exponent", "exponent"),
                      ("inf_table", "table value at 16"))],
])
def test_cghm_and_check71_refuse_non_finite_parameters(tmp_path, capsys, input_files, argv, name):
    # These runs used to compute, then fail at the JSON writer on a nan or inf;
    # a nan exponent made every h(n) 1.0, and cghm exited 0.
    hl = write(tmp_path / "hl.json", {"kind": "one_plus_log2"})
    hr = write(tmp_path / "hr.json", {"kind": "sqrt"})
    files = dict(input_files, PAIRS=write(tmp_path / "pairs.json", [[4, 8]]))
    argv = [argv[0], "--hl", hl, "--hr", hr] + [files.get(a, a) for a in argv[1:]]
    assert main(["--out", str(tmp_path / "report.json")] + argv) == 1
    assert json.loads(capsys.readouterr().err)["error"].startswith(f"ValueError: {name} must be finite")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv,space,name", [
    (["demfun", "--max-N", "4"], {"a": [4, 5, 6, 7], "inner_p": math.inf, "outer_p": math.inf},
     "outer_p"),
    (["norm", "--vector", "VEC"], {"lp": math.inf, "dim": 3}, "inner_p"),
], ids=["demfun", "norm"])
def test_an_infinite_exponent_is_refused(tmp_path, capsys, argv, space, name):
    # demfun once exited 0 with every float column 1, the root 1/inf of each power.
    space = write(tmp_path / "space.json", space)
    vec = write(tmp_path / "vec.json", {"groups": [[0, "1", "2"]]})
    out = tmp_path / "report.out"
    argv = [argv[0], "--space", space] + [vec if a == "VEC" else a for a in argv[1:]]
    assert main(["--out", str(out)] + argv) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == f"ValueError: exponent {name} must be a finite number >= 1, got inf"
    assert not out.exists()


def test_xs_experiment_refuses_minus_infinity_q(tmp_path, capsys):
    # q = -inf once ran as q = +inf and reported "q": "inf".
    sched = write(tmp_path / "squares.json", {"a": [(j + 2) ** 2 for j in range(5)]})
    out = tmp_path / "report.json"
    argv = ["--out", str(out), "xs-experiment", "--schedule", sched, "--s", "2", "--alpha", "1"]
    assert main(argv + ["--q=-inf"]) == 1
    assert "q must be positive" in json.loads(capsys.readouterr().err)["error"]
    assert not out.exists()
    assert main(argv + ["--q=inf"]) == 0


def test_xs_experiment_json_schema(tmp_path):
    sched = write(tmp_path / "squares.json", {"a": [4, 9, 16, 25]})
    out = tmp_path / "report.json"
    assert main([
        "--out", str(out), "xs-experiment", "--schedule", sched,
        "--s", "2,3", "--alpha", "1", "--q", "1,inf",
    ]) == 0
    blob = json.loads(out.read_text())
    assert set(blob) == {"runs"} and len(blob["runs"]) == 4
    for run in blob["runs"]:
        assert {"s", "alpha", "q", "A", "G", "ratio", "envelope", "checks"} <= set(run)
    assert blob["runs"][1]["q"] == "inf"


@pytest.mark.parametrize("mode", ["exact", "bounds"])
def test_xs_experiment_refuses_non_finite_json(tmp_path, capsys, mode):
    # squares_schedule(72) at s = 71: the float quasi-norms overflow (at q = 1,
    # in the fsum of the series), and a report holding NaN or Infinity is
    # refused instead of written. --mode is still accepted and changes nothing.
    sched = write(tmp_path / "squares.json", {"a": [(j + 2) ** 2 for j in range(73)]})
    for q, keys in (("inf", ["inf"]), ("1", [1.0]), ("1,inf", [1.0, "inf"])):
        argv = ["xs-experiment", "--schedule", sched, "--s", "71", "--alpha", "1", "--q", q,
                "--mode", mode]
        for extra in ([], ["--out", str(tmp_path / "report.json")]):
            assert main(argv + extra) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            diag = json.loads(captured.err)
            assert "not JSON compliant" in diag["error"]
            assert diag["runs"] == [{"s": 71, "alpha": 1.0, "q": key} for key in keys]
    assert os.listdir(tmp_path) == ["squares.json"]  # no report, no temp file


def test_xs_experiment_refusal_names_the_non_finite_runs(tmp_path, capsys):
    # s = 2 is finite at both pairs, s = 71 only at (0.5, inf); the report
    # is refused as a whole, and the diagnostic lists the other run.
    sched = write(tmp_path / "squares.json", {"a": [(j + 2) ** 2 for j in range(73)]})
    out = tmp_path / "report.json"
    argv = ["--out", str(out), "xs-experiment", "--schedule", sched, "--s", "2,71",
            "--alpha", "1,0.5", "--q", "inf"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    diag = json.loads(captured.err)
    assert captured.out == "" and "not JSON compliant" in diag["error"]
    assert diag["runs"] == [{"s": 71, "alpha": 1.0, "q": "inf"}]
    assert os.listdir(tmp_path) == ["squares.json"]  # no report, no temp file


def test_xs_experiment_exits_1_when_a_check_fails(tmp_path, capsys, monkeypatch):
    # The report is still written, and the diagnostic names each run's failed checks.
    from greedylab import approx

    real = approx.sequence_bound_checks
    monkeypatch.setattr(approx, "sequence_bound_checks",
                        lambda *args: {**real(*args), "ls3_sigma_all": False})
    sched = write(tmp_path / "squares.json", {"a": [4, 9, 16, 25]})
    out = tmp_path / "report.json"
    argv = ["--out", str(out), "xs-experiment", "--schedule", sched, "--s", "2",
            "--alpha", "1", "--q", "2,inf"]
    assert main(argv) == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "xs-experiment: a check failed"
    assert diag["runs"] == [{"s": 2, "alpha": 1.0, "q": q, "failed": ["ls3_sigma_all"]}
                            for q in (2.0, "inf")]
    runs = json.loads(out.read_text())["runs"]
    assert [run["checks"]["ls3_sigma_all"] for run in runs] == [False, False]


def test_xs_experiment_shallow_schedule_diagnostic(tmp_path, capsys):
    sched = write(tmp_path / "squares.json", {"a": [4, 9, 16, 25]})
    code = main(["xs-experiment", "--schedule", sched, "--s", "99", "--alpha", "1", "--q", "1"])
    assert code == 1
    assert "too shallow" in capsys.readouterr().err


def test_empty_report_emission(tmp_path):
    from greedylab.cli import emit_report

    out = tmp_path / "empty.json"
    emit_report({"runs": []}, path=str(out))
    assert json.loads(out.read_text()) == {"runs": []}
    emit_report({"runs": []}, path=str(out))
    assert out.read_text() == '{\n  "runs": []\n}\n'
    emit_report([], path=str(out))  # a list is JSON too
    assert out.read_text() == "[]\n"
    table = tmp_path / "empty.csv"
    emit_report(("N,prefix_sq,hl_sq,equal", []), path=str(table))
    assert table.read_text() == ""  # a table without rows has no header either


# Byte-exact artifacts: sha256 digests taken with the per-row CSV writer the
# column writer replaced, on inputs that name every column type (exact ints,
# exact Fractions, 17-digit floats, booleans).
ARITH4 = {"a": [4, 5, 6, 7, 8]}  # arithmetic_schedule(4)
WINDOW6 = {"a": [4, 5, 6, 7, 8, 9]}
TIED = [[1, "5", "10"], [2, "5", "12"], [3, "5", "8"], [1, "3", "6"], [2, "3", "9"],
        [0, "2", "3"], [3, "1", "30"]]
TIED_Q = [[1, "5/3", "10"], [2, "5/3", "12"], [3, "5/3", "8"], [1, "3/2", "6"],
          [2, "3/2", "9"], [0, "2/7", "3"], [3, "1/5", "30"]]
TIE_FREE = [[0, "9", "2"], [0, "4", "1"], [1, "8", "5"], [1, "6", "7"], [2, "7", "20"],
            [2, "3", "15"], [3, "5", "25"], [3, "2", "12"]]
TIE_FREE_Q = [[0, "9/2", "2"], [0, "4/3", "1"], [1, "8/5", "5"], [1, "6/7", "7"],
              [2, "7/4", "20"], [2, "3/11", "15"], [3, "5/6", "25"], [3, "2/9", "12"]]
GOLDEN = [
    ("demfun", {"space": WINDOW6}, ["demfun", "--space", "space", "--max-N", "1200"],
     "dc63266c37a71af59886f35e7e9fa716f526c08dea455a25d690cbf96834e608"),
    ("errors-tied", {"space": ARITH4, "vector": {"groups": TIED}},
     ["errors", "--space", "space", "--vector", "vector"],
     "8630e1bfb2c0a9abfae2266eaf17198fda41fd06b0472640255875553dae3efe"),
    ("errors-tied-rational", {"space": ARITH4, "vector": {"groups": TIED_Q}},
     ["errors", "--space", "space", "--vector", "vector"],
     "ad63b0b79d26e94af09c9d1523feff07f078f43eac2943546db21c1b5d1691ff"),
    ("errors-tie-free", {"space": ARITH4, "vector": {"groups": TIE_FREE}},
     ["errors", "--space", "space", "--vector", "vector"],
     "33a7ec1c7c2700cb9850efe2e12b558fc65599da94f0678a0533eec5f78d043f"),
    ("errors-tie-free-rational", {"space": ARITH4, "vector": {"groups": TIE_FREE_Q}},
     ["errors", "--space", "space", "--vector", "vector"],
     "c77208e70a41f3bef791a6ffe0ef72d86038acd122faeb2b2eeda11c4cceb456"),
    ("doubling-scan", {"space": WINDOW6}, ["doubling-scan", "--space", "space", "--k", "1..3"],
     "8262686d8662915dc6262eeb88e8ddeb1e465a6df21e00e71b2aa1b1460c2437"),
    ("prefix-check", {"space": WINDOW6}, ["prefix-check", "--space", "space", "--max-N", "200"],
     "c6fb1f08bde9beb86e00ecf3340553d6927fb666444122dd30aca5bb349aeefe"),
    # every block's segment of the prefix column, with its counterexamples
    ("prefix-check-all-blocks", {"space": ARITH4},
     ["prefix-check", "--space", "space", "--max-N", "6720"],
     "1cf577e692bf1acc08ee6f827e8544b46366a3b4cb84413a5e5707ee81916ac5"),
    # h_r's plateau past the cap sum, 6
    ("demfun-hr-plateau", {"space": {"blocks": [[2, 5], [3, 7], [1, 4]]}},
     ["demfun", "--space", "space", "--max-N", "16"],
     "f9cb78ba00add8ab3298f9f1b3b63d0dd26be308c42d5e58fd9b31c10d7520ec"),
    # the table skips blocks 5 to 11, whose caps are at least max_N
    ("demfun-deep-window", {"space": {"a": list(range(4, 17))}},  # arithmetic_schedule(12)
     ["demfun", "--space", "space", "--max-N", "20000"],
     "bfb1b7f2ed033e8419c0250e33b1fbe346bbe48c2b5e73686c4ee6a464397f0f"),
    # full-cap blocks before and after the blocks hold max_N, between narrow ones
    ("demfun-block-sum", {"space": {"blocks": [[5, 9], [30, 30], [2, 4], [100, 100], [3, 7]] * 3}},
     ["demfun", "--space", "space", "--max-N", "150"],
     "27ed9c07ad8225f1a0a6d5cf88a4a0b0042b9f0e43f97d65d2929de442c6507f"),
]


def _golden_artifact(tmp_path, files, argv) -> bytes:
    paths = {name: write(tmp_path / f"{name}.json", obj) for name, obj in files.items()}
    out = tmp_path / "artifact"
    assert main(["--out", str(out)] + [paths.get(arg, arg) for arg in argv]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("files,argv,digest", [case[1:] for case in GOLDEN],
                         ids=[case[0] for case in GOLDEN])
def test_csv_artifacts_are_byte_identical(tmp_path, files, argv, digest):
    assert hashlib.sha256(_golden_artifact(tmp_path, files, argv)).hexdigest() == digest


# Byte-exact JSON reports on the README inputs.  xs-experiment is pinned on
# every route: exact per piece at q = 2, the maxima at q = inf, and at q = 1
# and 1.5 the float series, whose sum() calls Python 3.12+ compensates; its
# digest is the same on Python 3.10.13, 3.11.7, 3.12.1 and 3.13.0.
README_SPACE = {"a": [4, 5, 6, 7]}
README_VECTOR = {"groups": [[0, "2", "20"], [1, "1", "20"]]}
HL, HR = {"kind": "one_plus_log2"}, {"kind": "sqrt"}
JSON_GOLDEN = [
    ("norm", {"space": README_SPACE, "vector": README_VECTOR},
     ["norm", "--space", "space", "--vector", "vector"],
     "b55ea51d5d9c6c1ff95312d3330617ca797b24aed6da150d8ca93d9d43099d0a"),
    ("sigma", {"space": README_SPACE, "vector": README_VECTOR},
     ["sigma", "--space", "space", "--vector", "vector", "--N", "20"],
     "62caf80ebeea4fabc39fdc20066a4b30f56e8cef4d497bc9ea45ea5edd2f9deb"),
    ("gamma", {"space": README_SPACE, "vector": README_VECTOR},
     ["gamma", "--space", "space", "--vector", "vector", "--N", "20"],
     "8fa3293db6aeed3ec32303100bc364f9d316354b57ab675ca554e17db5c05e1b"),
    ("cghm", {"hl": HL, "hr": HR}, ["cghm", "--hl", "hl", "--hr", "hr", "--alpha", "0.25"],
     "0630d1f4f1369f846a6b325173713e5ea03fe47837f5f64b93f2f2b8bc82ebb8"),
    ("check71", {"hl": HL, "hr": HR, "pairs": {"pairs": [[361, 361], [5545927979, 2002080000419],
                                                         [208502235769, 232062988410897]]}},
     ["check71", "--hl", "hl", "--hr", "hr", "--pairs", "pairs", "--alpha", "0.25"],
     "b7bd08c4befd90ad3b4685d7d433b9af72482fda4f425cb5688fa519dda6439f"),
    ("xs-experiment", {"schedule": {"a": [4, 9, 16, 25, 36, 49]}},  # squares_schedule(5)
     ["xs-experiment", "--schedule", "schedule", "--s", "2..4", "--alpha", "0.5,1,2", "--q", "2,inf"],
     "3cf9ffa5088d715952cb26e7a0c65acc1f986b98d29c1563cc5ea73428750bc5"),
    # s = 4 reaches the Euler-Maclaurin route
    ("xs-experiment-series", {"schedule": {"a": [4, 9, 16, 25, 36, 49]}},
     ["xs-experiment", "--schedule", "schedule", "--s", "2..4", "--alpha", "0.5,1,2", "--q", "1,1.5"],
     "668ca4f78e230d00426416ebd678d4bcae9a8eecbae30d94feac0279e72be0cd"),
]


@pytest.mark.parametrize("files,argv,digest", [case[1:] for case in JSON_GOLDEN],
                         ids=[case[0] for case in JSON_GOLDEN])
def test_json_artifacts_are_byte_identical(tmp_path, files, argv, digest):
    assert hashlib.sha256(_golden_artifact(tmp_path, files, argv)).hexdigest() == digest


# Bad but parseable inputs: (argv with file placeholders, expected exit code).
PARSEABLE_INPUTS = [
    (["sigma", "--space", "sched", "--vector", "vec", "--N", "-1"], 1),
    (["gamma", "--space", "sched", "--vector", "vec", "--N", "-1"], 1),
    (["errors", "--space", "sched", "--vector", "vec", "--max-k", "-1"], 1),
    (["demfun", "--space", "sched", "--max-N", "-1"], 1),
    # No N is nothing checked.
    (["prefix-check", "--space", "sched", "--max-N", "-1"], 1),
    (["prefix-check", "--space", "sched", "--max-N", "0"], 1),
    (["norm", "--space", "l2", "--vector", "huge"], 0),
    (["sigma", "--space", "l2", "--vector", "huge", "--N", "1"], 0),
    (["gamma", "--space", "l2", "--vector", "huge", "--N", "1"], 0),
    (["errors", "--space", "l2", "--vector", "huge"], 0),
    (["demfun", "--space", "mixed", "--max-N", "4"], 1),
    (["errors", "--space", "mixed", "--vector", "vec"], 1),
    (["doubling-scan", "--space", "mixed_sched", "--k", "1"], 1),
    (["prefix-check", "--space", "mixed_sched", "--max-N", "4"], 1),
    (["doubling-scan", "--space", "cubic", "--k", "1"], 0),
    (["norm", "--space", "mixed", "--vector", "huge"], 0),
    (["check71", "--hl", "sqrt", "--hr", "power400", "--pairs", "pairs", "--alpha", "1"], 1),
    (["check71", "--hl", "zero_table", "--hr", "sqrt", "--pairs", "pairs", "--alpha", "1"], 1),
    # Integer fields take a JSON int or a string of one: nothing is floored.
    (["demfun", "--space", "float_a", "--max-N", "4"], 1),
    (["norm", "--space", "sched", "--vector", "float_count"], 1),
    (["norm", "--space", "sched", "--vector", "float_block"], 1),
    (["check71", "--hl", "sqrt", "--hr", "sqrt", "--pairs", "float_pairs", "--alpha", "1"], 1),
    # Wrong shapes and non-numeric exponents.
    (["norm", "--space", "sched", "--vector", "list_vector"], 1),
    (["norm", "--space", "string_p", "--vector", "vec"], 1),
    (["check71", "--hl", "list_table", "--hr", "sqrt", "--pairs", "pairs", "--alpha", "1"], 1),
    (["check71", "--hl", "sqrt", "--hr", "sqrt", "--pairs", "flat_pairs", "--alpha", "1"], 1),
    # No pairs is nothing checked, and ragged k and n lists would drop pairs.
    (["check71", "--hl", "sqrt", "--hr", "sqrt", "--pairs", "no_pairs", "--alpha", "1"], 1),
    (["check71", "--hl", "sqrt", "--hr", "sqrt", "--pairs", "no_k_n", "--alpha", "1"], 1),
    (["check71", "--hl", "sqrt", "--hr", "sqrt", "--pairs", "ragged_k_n", "--alpha", "1"], 1),
    # K < 1 once sliced multipliers off the end: K = -3 built 4 blocks.
    (["demfun", "--space", "negative_k", "--max-N", "5"], 1),
    # A non-finite h-function field: a nan exponent made every h(n) 1.0.
    (["cghm", "--hl", "nan_scale", "--hr", "sqrt", "--alpha", "0.25", "--count", "2"], 1),
    (["cghm", "--hl", "nan_exponent", "--hr", "sqrt", "--alpha", "0.25", "--count", "2"], 1),
    (["cghm", "--hl", "inf_table", "--hr", "sqrt", "--alpha", "0.25", "--count", "2"], 1),
    (["check71", "--hl", "nan_scale", "--hr", "sqrt", "--pairs", "pairs", "--alpha", "1"], 1),
    (["check71", "--hl", "nan_exponent", "--hr", "sqrt", "--pairs", "pairs", "--alpha", "1"], 1),
    (["check71", "--hl", "inf_table", "--hr", "sqrt", "--pairs", "pairs", "--alpha", "1"], 1),
    # A row field past the float range: n/k, C (n/k)^alpha and h_r(k)/h_l(n).
    (["check71", "--hl", "log2", "--hr", "sqrt", "--pairs", "n_1e400", "--alpha", "2"], 1),
    (["check71", "--hl", "log2", "--hr", "sqrt", "--pairs", "n_1e300", "--alpha", "2"], 1),
    (["check71", "--hl", "log2", "--hr", "sqrt", "--pairs", "n_4", "--alpha", "1e308"], 1),
    (["check71", "--hl", "log2", "--hr", "sqrt", "--pairs", "n_4", "--alpha", "1", "--C", "1e308"], 1),
    (["check71", "--hl", "tiny_table", "--hr", "huge_table", "--pairs", "n_4", "--alpha", "1"], 1),
]


# The diagnostic of every row that reads an input named here.
PARSEABLE_ERRORS = {
    # It once divided by h_l(16) = 0: ZeroDivisionError.
    "zero_table": "ValueError: table value at 16 must be > 0, got 0.0",
    "power400": "ValueError: pair 1: h_r is not known at N = 8",
    # It once named upto, the argument of ErrorSequence.powers.
    "--max-k": "ValueError: max_k must be an integer >= 0, got -1",
    "n_1e400": "ValueError: pair 1: n_over_k is past the float range",
    "n_1e300": "ValueError: pair 1: rhs is past the float range",
    "1e308": "ValueError: pair 1: rhs is past the float range",  # as --alpha and as --C
    "tiny_table": "ValueError: pair 1: lhs is past the float range",
}


@pytest.fixture
def input_files(tmp_path):
    files = {
        "sched": {"a": [4, 5, 6, 7]},
        "cubic": {"a": [4, 5, 6, 7], "inner_p": 3, "outer_p": 3},
        "mixed": {"blocks": [[2, 4], [3, 6]], "inner_p": 1, "outer_p": 2},
        "mixed_sched": {"a": [4, 5, 6, 7], "inner_p": 1, "outer_p": 2},
        "l2": {"lp": 2, "dim": 5},
        "vec": {"groups": [[0, "2", "2"], [1, "1", "3"]]},
        "huge": {"groups": [[0, "1" + "0" * 200, "3"]]},
        "sqrt": {"kind": "sqrt"},
        "power400": {"kind": "power", "exponent": 400},  # 8^400 overflows a float
        "zero_table": {"kind": "table", "values": {"16": 0}},
        "pairs": {"pairs": [[8, 16]]},
        "log2": {"kind": "one_plus_log2"},
        "n_1e400": [[1, "1" + "0" * 400]],
        "n_1e300": [[1, "1" + "0" * 300]],
        "n_4": [[1, 4]],
        "tiny_table": {"kind": "table", "values": {"4": 1e-300}},
        "huge_table": {"kind": "table", "values": {"1": 1e300}},
        "float_a": {"a": [4, 5.5, 6]},
        "float_count": {"groups": [[0, "1", 2.5]]},
        "float_block": {"groups": [[0.9, "1", 2]]},
        "float_pairs": {"pairs": [[1.5, 3]]},
        "list_vector": [[0, "1", 2]],
        "string_p": {"lp": "2"},
        "list_table": {"kind": "table", "values": [1, 2]},
        "flat_pairs": [1, 2],
        "no_pairs": [],
        "no_k_n": {"k": [], "n": []},
        "ragged_k_n": {"k": [4, 16], "n": [64]},
        "negative_k": {"a": [4, 5, 6, 7, 8, 9, 10], "K": -3},
        "nan_scale": {"kind": "power", "scale": math.nan, "exponent": 0.5},
        "nan_exponent": {"kind": "power", "exponent": math.nan},
        "inf_table": {"kind": "table", "values": {"1": 1.0, "16": math.inf}},
    }
    return {name: write(tmp_path / f"{name}.json", obj) for name, obj in files.items()}


@pytest.mark.parametrize(
    "argv,code", PARSEABLE_INPUTS, ids=[" ".join(argv) for argv, _ in PARSEABLE_INPUTS]
)
def test_parseable_input_exits_without_traceback(tmp_path, argv, code, input_files, capsys):
    # Exit 0, or exit 1 with a JSON diagnostic and no output, to stdout or to --out.
    # An exception fails the test.
    names, argv = argv, [input_files.get(arg, arg) for arg in argv]
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 1:
        error = json.loads(captured.err)["error"]
        assert all(error == PARSEABLE_ERRORS.get(name, error) for name in names)
        assert captured.out == ""
        out = tmp_path / "refused.out"
        assert main(["--out", str(out)] + argv) == 1
        assert not out.exists()


@pytest.mark.parametrize("pairs,words", [
    ({"k": [4, 16], "n": [64]}, ["k has 2 entries", "n has 1"]),
    ({"k": [4, 16]}, ['"pairs"', '"k"', '"n"']),
    ({"mu": [[4, 16]]}, ['"pairs"', '"k"', '"n"']),
    (7, ['"pairs"', '"k"', '"n"']),
], ids=["ragged", "k_without_n", "no_pairs_key", "number"])
def test_check71_names_the_fields_of_a_misshapen_pairs_file(tmp_path, capsys, pairs, words):
    # The diagnostic names the fields, not a bare zip() or KeyError message.
    hl = write(tmp_path / "hl.json", {"kind": "sqrt"})
    pairs = write(tmp_path / "pairs.json", pairs)
    out = tmp_path / "check71.json"
    argv = ["check71", "--hl", hl, "--hr", hl, "--pairs", pairs, "--alpha", "1"]
    assert main(["--out", str(out)] + argv) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error.startswith("ValueError: ") and all(word in error for word in words), error
    assert not out.exists()


@pytest.mark.parametrize("max_n", ["0", "-1"])
def test_prefix_check_refuses_an_empty_range(tmp_path, capsys, max_n):
    sched = write(tmp_path / "sched.json", {"a": [4, 5, 6, 7]})
    out = tmp_path / "prefix.csv"
    assert main(["--out", str(out), "prefix-check", "--space", sched, "--max-N", max_n]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError: no N to check"
    assert not out.exists()


def test_float_columns_take_the_pth_root(input_files, capsys):
    assert main(["doubling-scan", "--space", input_files["cubic"], "--k", "1"]) == 0
    row = dict(zip(*[line.split(",") for line in capsys.readouterr().out.split()]))
    assert row["ratio_sq"] == "5" and row["bound_sq"] == "10/3"
    assert float(row["ratio_float"]) == pytest.approx(5 ** (1 / 3), rel=1e-15)
    assert float(row["bound_float"]) == pytest.approx((10 / 3) ** (1 / 3), rel=1e-15)
    assert main(["errors", "--space", input_files["l2"], "--vector", input_files["huge"]]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.split()]
    assert rows[1][1] == "3" + "0" * 400
    assert float(rows[1][3]) == pytest.approx(3**0.5 * 1e200, rel=1e-15)


@pytest.mark.parametrize("p", [1, 2, 3, 1.5])
def test_root_strings_match_the_per_value_root(p):
    from fractions import Fraction

    from greedylab.cli import _root_strings, fmt_float
    from greedylab.spaces import _float_root

    ints = [0, 1, 2, 3, 4, 10**15 + 7, 2**53 + 1, 10**300]
    fractions = [Fraction(1, 3), Fraction(10, 3), Fraction(2**80 + 1, 7), Fraction(5, 10**300)]
    past = [10**400, Fraction(10**500, 3)]  # past the float range: every value takes _float_root
    for column in (ints, fractions, ints + fractions, ints + past, fractions + past):
        want = {v: fmt_float(_float_root(v, p)) for v in column}
        assert _root_strings(p, column, column[::-1]) == want


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-string limit")
def test_errors_prints_powers_past_the_int_string_limit(tmp_path):
    # A 2,501-digit magnitude squares to a 5,001-digit power, past the
    # interpreter's default limit of 4,300 digits for int -> str: in
    # process at that limit, and in a fresh interpreter at its default.
    space = write(tmp_path / "space.json", {"blocks": [[1, 2]]})
    vector = write(tmp_path / "vec.json", {"groups": [[0, "1" + "0" * 2500, "1"], [0, "1", "1"]]})
    out = tmp_path / "errors.csv"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert main(["--out", str(out), "errors", "--space", space, "--vector", vector]) == 0
    finally:
        sys.set_int_max_str_digits(limit)
    top = "1" + "0" * 5000
    assert out.read_text().split("\n") == [
        "k,sigma_sq,gamma_sq,sigma_float,gamma_float", f"0,{top},{top},inf,inf",
        "1,1,1,1,1", "2,0,0,0,0", ""]
    assert _fresh_ok(["errors", "--space", space, "--vector", vector], timeout=30) == out.read_text()


def test_norm_past_the_float_range_is_null(tmp_path):
    # The root of a 5,001-digit power is past the float range: JSON gets
    # null there, and the exact power in full.
    space = write(tmp_path / "space.json", {"blocks": [[1, 2]]})
    vector = write(tmp_path / "vec.json", {"groups": [[0, "1" + "0" * 2500, "1"], [0, "1", "1"]]})
    blob = json.loads(_fresh_ok(["norm", "--space", space, "--vector", vector], timeout=30))
    assert blob["float"] is None and blob["power_exact"] == "1" + "0" * 5000 and blob["p"] == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def _fresh_cli(argv, timeout=120):
    """Run the CLI on argv in a new interpreter under ``python -O``, which strips asserts."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(greedylab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-O", "-m", "greedylab.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


def _fresh_ok(argv, timeout):
    """The stdout of a fresh CLI run on argv that exits 0."""
    proc = _fresh_cli(argv, timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_xs_experiment_refuses_huge_integer_exponents_without_summing(tmp_path):
    # q alpha - 1 = 19999 and 2e300 - 1 are integers, but the largest
    # piece-end term already puts each root past the float range, so no
    # exact sum of that degree is attempted.
    sched = write(tmp_path / "squares.json", {"a": [(j + 2) ** 2 for j in range(7)]})
    out = tmp_path / "report.json"
    proc = _fresh_cli(["--out", str(out), "xs-experiment", "--schedule", sched, "--s", "2,4",
                       "--alpha", "10000,1e300", "--q", "2"], timeout=20)
    assert proc.returncode == 1 and proc.stdout == ""
    diag = json.loads(proc.stderr)
    assert "not JSON compliant" in diag["error"]
    assert diag["runs"] == [{"s": s, "alpha": alpha, "q": 2.0}
                            for s in (2, 4) for alpha in (10000.0, 1e300)]
    assert os.listdir(tmp_path) == ["squares.json"]


def test_xs_experiment_refuses_overflowing_roots_below_q_1(tmp_path):
    # At q = 0.001 the 1000th power the q-th root takes leaves the float range.
    sched = write(tmp_path / "squares.json", {"a": [(j + 2) ** 2 for j in range(5)]})
    proc = _fresh_cli(["--out", str(tmp_path / "report.json"), "xs-experiment", "--schedule", sched,
                       "--s", "2,3", "--alpha", "1", "--q", "0.001"], timeout=20)
    assert proc.returncode == 1
    diag = json.loads(proc.stderr)
    assert proc.stdout == "" and "not JSON compliant" in diag["error"]
    assert diag["runs"] == [{"s": s, "alpha": 1.0, "q": 0.001} for s in (2, 3)]
    assert os.listdir(tmp_path) == ["squares.json"]


# Deep runs, each in a fresh `python -O` process under its own timeout.


def _xs_runs(tmp_path, count, s, alpha, q, timeout):
    """The runs of xs-experiment on the schedule of multipliers (j + 2)^2, j < count."""
    sched = write(tmp_path / f"squares{count}.json", {"a": [(j + 2) ** 2 for j in range(count)]})
    argv = ["xs-experiment", "--schedule", sched, "--s", s, "--alpha", alpha, "--q", q]
    return json.loads(_fresh_ok(argv, timeout))["runs"]


def test_xs_experiment_is_exact_at_q_1000_and_3000(tmp_path):
    runs = _xs_runs(tmp_path, 6, "2..3", "1", "1000,3000", timeout=60)
    assert [(run["s"], run["q"]) for run in runs] == [(2, 1000), (2, 3000), (3, 1000), (3, 3000)], runs
    (s4,) = _xs_runs(tmp_path, 6, "4", "1", "1000", timeout=60)
    assert (s4["s"], s4["q"]) == (4, 1000), s4
    for run in runs + [s4]:
        assert math.isfinite(run["A"]) and math.isfinite(run["G"]), run
        assert run["A_bounds"] == [run["A"]] * 2 and run["G_bounds"] == [run["G"]] * 2, run


def test_xs_experiment_at_q_inf_to_s47(tmp_path):
    runs = _xs_runs(tmp_path, 49, "2..47", "0.5,1,2", "inf", timeout=30)
    assert len(runs) == 3 * 46, len(runs)
    first = {run["alpha"]: run["normalized"] for run in runs if run["s"] == 2}
    assert sorted(first) == [0.5, 1, 2], sorted(first)
    for run in runs:
        assert all(math.isfinite(run[key]) for key in ("A", "G", "ratio", "normalized")), run
        assert run["checks"] and all(run["checks"].values()), run
        assert 0.5 <= run["normalized"] / first[run["alpha"]] <= 2, ("left a factor 2 of s = 2", run)


def test_xs_experiment_values_lie_in_their_brackets_at_s7_to_12(tmp_path):
    runs = _xs_runs(tmp_path, 15, "7..12", "0.5,1,2", "1,1.5", timeout=60)
    assert len(runs) == 6 * 6, len(runs)
    for run in runs:
        assert run["checks"] and all(run["checks"].values()), run
        for key in ("A", "G", "ratio"):
            lo, hi = run[key + "_bounds"]
            assert lo <= run[key] <= hi, (key, run)


def test_xs_experiment_brackets_are_narrow_and_falling_to_s6(tmp_path):
    by_alpha = {}
    for run in _xs_runs(tmp_path, 7, "2..6", "0.5,1,2", "1", timeout=30):
        lo, hi = run["ratio_bounds"]
        assert 0 < lo <= hi <= lo * (1 + 1e-8), ("ratio bracket wider than 1e-8", run)
        for key in ("A", "G", "ratio"):
            lo, hi = run[key + "_bounds"]
            assert lo <= run[key] <= hi, (key, run)
        by_alpha.setdefault(run["alpha"], []).append(run)
    assert sorted(by_alpha) == [0.5, 1, 2], sorted(by_alpha)
    for alpha, runs in by_alpha.items():
        assert [run["s"] for run in runs] == [2, 3, 4, 5, 6], (alpha, runs)
        for a, b in zip(runs, runs[1:]):
            assert b["ratio_bounds"][1] < a["ratio_bounds"][0], (alpha, a["s"], b["s"])


@pytest.mark.parametrize("alpha,q", [("0.5", "1"), ("1", "1"), ("2", "1"), ("1", "1.5")])
def test_xs_experiment_brackets_to_s40(tmp_path, alpha, q):
    runs = _xs_runs(tmp_path, 43, "2..40", alpha, q, timeout=60)
    assert [run["s"] for run in runs] == list(range(2, 41)), (alpha, q)
    for run in runs:
        assert run["checks"] and all(run["checks"].values()), run
        for key in ("A_bounds", "G_bounds", "ratio_bounds"):
            lo, hi = run[key]
            assert math.isfinite(lo) and math.isfinite(hi), (key, run)
            assert 0 < lo <= hi <= lo * (1 + 1e-8), ("bracket wider than 1e-8", key, run)


def test_doubling_scan_of_999_rows(tmp_path):
    space = write(tmp_path / "deep.json", {"a": list(range(4, 1005))})
    _fresh_ok(["doubling-scan", "--space", space, "--k", "1..999"], timeout=20)


def test_gamma_on_a_tie_over_14_blocks_of_10_20_coordinates(tmp_path):
    big = 10**20
    space = write(tmp_path / "wide.json",
                  {"blocks": [[i + 2, big * (i + 1) + 2 * i + 1] for i in range(14)]})
    groups = [[i, "3", str(big + i)] for i in range(14)] + [[i, "1", str(i + 1)] for i in range(14)]
    vector = write(tmp_path / "wide_vector.json", {"groups": groups})
    n = sum(big + 2 * i + 1 for i in range(14)) // 2
    _fresh_ok(["gamma", "--space", space, "--vector", vector, "--N", str(n)], timeout=60)


def test_gamma_on_the_all_ones_vector_of_a_40_block_window(tmp_path):
    sched = greedylab.arithmetic_schedule(40)
    blocks = list(zip(sched.caps(), sched.sizes()))
    space = write(tmp_path / "window40.json", {"blocks": blocks})
    vector = write(tmp_path / "ones40.json",
                   {"groups": [[b, "1", str(size)] for b, (_, size) in enumerate(blocks)]})
    n = sum(size for _, size in blocks) // 2
    _fresh_ok(["gamma", "--space", space, "--vector", vector, "--N", str(n)], timeout=60)


def test_demfun_on_a_40_block_window(tmp_path):
    space = write(tmp_path / "arith40.json", {"a": list(greedylab.arithmetic_schedule(40).a)})
    assert _fresh_ok(["demfun", "--space", space, "--max-N", "10"], timeout=60).count("\n") == 12


def test_demfun_to_max_n_200000_on_a_12_block_window(tmp_path):
    obj = {"a": [4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]}
    space = write(tmp_path / "arith12.json", obj)
    table = _fresh_ok(["demfun", "--space", space, "--max-N", "200000"], timeout=20)
    assert table.count("\n") == 200002
    last = table.splitlines()[-1].split(",")
    want = greedylab.demfun_dp(greedylab.space_from_json(obj), 200000, which="hl").hl_power
    assert last[0] == "200000" and int(last[1]) == want, (last, want)


def test_errors_and_gamma_on_a_30_block_rational_vector(tmp_path):
    rng = random.Random(30)
    blocks, groups = [], []
    for b in range(30):
        size = rng.randint(10, 30)
        blocks.append([rng.randint(2, size // 2), size])
        for _ in range(rng.randint(2, 4)):
            mag = "%d/%d" % (rng.randint(1, 9), rng.choice((3, 7, 11, 13)))
            groups.append([b, mag, str(rng.randint(1, size // 4))])
    files = ["--space", write(tmp_path / "rational30.json", {"blocks": blocks}),
             "--vector", write(tmp_path / "rational30_vector.json", {"groups": groups})]
    _fresh_ok(["errors", *files], timeout=60)
    n = sum(int(c) for _b, _m, c in groups) // 2
    _fresh_ok(["gamma", *files, "--N", str(n)], timeout=60)


def test_shared_parser_keeps_no_state_between_calls(tmp_path, schedule_file, vector_file,
                                                    capsys):
    # main() reuses one parser per process; in one process each call's exit
    # code, stdout, stderr and artifact equal the same call's from a fresh
    # interpreter, so no flag value leaks from one call into the next.
    from greedylab.cli import build_parser

    errors = ["errors", "--space", schedule_file, "--vector", vector_file]
    calls = [
        ["errors", "--space", schedule_file, "--bogus"],  # usage error
        ["--out", "OUT"] + errors,
        errors + ["--out", "OUT"],
        errors,
    ]
    codes = []
    for i, argv in enumerate(calls):
        here, fresh = tmp_path / f"here{i}.csv", tmp_path / f"fresh{i}.csv"
        try:
            code = main([str(here) if a == "OUT" else a for a in argv])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        proc = _fresh_cli([str(fresh) if a == "OUT" else a for a in argv])
        assert (code, captured.out, captured.err) == (proc.returncode, proc.stdout, proc.stderr)
        assert here.exists() == fresh.exists() == ("OUT" in argv)
        assert not here.exists() or here.read_bytes() == fresh.read_bytes()
        codes.append(code)
    assert codes == [2, 0, 0, 0]
    assert build_parser() is build_parser()


def test_budget_ties_flag_is_a_usage_error():
    # Tie extremes are exact at any multiplicity, so there is no tie budget.
    with pytest.raises(SystemExit) as err:
        main(["--budget-ties", "5", "verify", "--only", "1"])
    assert err.value.code == 2


def test_budget_terms_flag_is_a_usage_error(schedule_file, vector_file):
    # No quasi-norm series has a term budget, so no command takes one,
    # before or after its name.
    xs = ["xs-experiment", "--schedule", schedule_file, "--s", "2", "--alpha", "1", "--q", "1"]
    norm = ["norm", "--space", schedule_file, "--vector", vector_file]
    for command in (xs, norm):
        for argv in (["--budget-terms", "5"] + command, command + ["--budget-terms", "5"]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2


def test_xs_experiment_exact_past_the_old_budget(tmp_path):
    # s = 7 on squares_schedule(8): 2,438,553,600 terms, once refused past a
    # budget of 10^8 terms; each value lies inside its bracket.
    sched = write(tmp_path / "squares.json", {"a": [(j + 2) ** 2 for j in range(9)]})
    out = tmp_path / "report.json"
    assert main(["--out", str(out), "xs-experiment", "--s", "7", "--schedule", sched,
                 "--alpha", "0.5,1", "--q", "1,1.5"]) == 0
    runs = json.loads(out.read_text())["runs"]
    assert len(runs) == 4
    for run in runs:
        for key in ("A", "G", "ratio"):
            lo, hi = run[f"{key}_bounds"]
            assert lo <= run[key] <= hi, (key, run)


def test_xs_experiment_mode_is_ignored(tmp_path):
    # --mode is still accepted, and checked, but every report has one shape.
    sched = write(tmp_path / "squares.json", {"a": [(j + 2) ** 2 for j in range(5)]})
    argv = ["xs-experiment", "--schedule", sched, "--s", "2..3", "--alpha", "0.5,1", "--q", "1,inf"]
    reports = []
    for extra in ([], ["--mode", "exact"], ["--mode", "bounds"]):
        out = tmp_path / "report.json"
        assert main(["--out", str(out)] + argv + extra) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]
    for run in json.loads(reports[0])["runs"]:
        assert {"A", "G", "ratio", "normalized", "A_bounds", "G_bounds", "ratio_bounds"} <= set(run)
        assert "bounded" not in run
    with pytest.raises(SystemExit) as err:
        main(argv + ["--mode", "foo"])
    assert err.value.code == 2


def test_backwards_ranges_are_usage_errors(tmp_path, capsys):
    # A descending range names nothing: the command would check nothing and exit 0.
    sched = write(tmp_path / "squares.json", {"a": [(j + 2) ** 2 for j in range(7)]})
    for argv in (["xs-experiment", "--schedule", sched, "--s", "5..2", "--alpha", "1", "--q", "1"],
                 ["xs-experiment", "--schedule", sched, "--s", "2,5..4", "--alpha", "1", "--q", "1"],
                 ["doubling-scan", "--space", sched, "--k", "4..1"]):
        with pytest.raises(SystemExit) as err:
            main(["--out", str(tmp_path / "out")] + argv)
        assert err.value.code == 2
        assert "is empty" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["squares.json"]


def test_xs_experiment_large_integer_q_finishes(tmp_path):
    # Forward differences take O(q^2) big-int steps on a piece longer than
    # d + 1 = 1.5 q terms; s = 2 has 72 terms, summed one by one.
    # At q = 3000 the q-th root of the sum and the envelope's s^(-q/2) once
    # left the float range (OverflowError, then a 0.0 envelope).
    sched = write(tmp_path / "squares.json", {"a": [(j + 2) ** 2 for j in range(5)]})
    proc = _fresh_cli(["xs-experiment", "--schedule", sched, "--s", "2", "--alpha", "1",
                       "--q", "1000,3000"], timeout=10)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)["runs"]
    assert [run["q"] for run in runs] == [1000, 3000]
    for run in runs:
        assert 0 < run["ratio"] < 1 and 0 < run["envelope"] < 1
        assert math.isfinite(run["normalized"]) and run["normalized"] > 0


def test_xs_experiment_bounds_reach_s6(tmp_path):
    # squares_schedule(6): s = 6 has support 38,102,400.
    sched = write(tmp_path / "squares.json", {"a": [(j + 2) ** 2 for j in range(7)]})
    out = tmp_path / "report.json"
    assert main([
        "--out", str(out), "xs-experiment", "--schedule", sched, "--s", "2,3,4,5,6",
        "--alpha", "1,2", "--q", "1,2,inf",
    ]) == 0
    runs = json.loads(out.read_text())["runs"]
    assert [run["s"] for run in runs] == [s for s in range(2, 7) for _ in range(6)]
    for run in runs:
        assert run["checks"] and all(run["checks"].values())
        lo, hi = run["A_bounds"]
        assert 0 < lo <= hi and (lo == hi) == (run["q"] != 1)


def test_verify_subset(capsys):
    assert main(["verify", "--only", "1,3"]) == 0
    out = capsys.readouterr().out
    assert "criterion 1" in out and "criterion 3" in out and "criterion 2" not in out


@pytest.mark.parametrize("only,unknown", [("99", "99"), ("1,12", "12"), ("0,12", "0, 12")])
def test_verify_refuses_criteria_it_does_not_have(only, unknown, capsys):
    # A subset naming no criterion would pass having checked nothing.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--only", only])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"no criterion {unknown} " in captured.err


def test_verify_runs_a_repeated_criterion_once(capsys):
    assert main(["verify", "--only", "7,7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("[PASS] criterion 7:")


def test_verify_passes_with_assertions_stripped():
    # Invariants raise InvariantError rather than assert, so -O keeps them.
    proc = _fresh_cli(["verify"], timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 11 and all(line.startswith("[PASS]") for line in lines)


def _package_trees():
    """(file name, parsed AST) of every module in the package."""
    package = os.path.dirname(os.path.abspath(greedylab.__file__))
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), filename=name)


def _package_imports(tree):
    """(package module, names bound from it) for each import in a tree.

    A whole-module import (``from . import explicit``) binds no names: ().
    """
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0:
                if base.split(".")[0] != "greedylab":
                    continue
                base = base[len("greedylab"):].lstrip(".")
            if base:
                out.append((base.split(".")[0], tuple(a.name for a in node.names)))
            else:
                out += [(a.name, ()) for a in node.names]
        elif isinstance(node, ast.Import):
            out += [(a.name.split(".")[1], ()) for a in node.names
                    if a.name.startswith("greedylab.")]
    return out


def test_package_has_no_assert_statements():
    # python -O strips assert statements and sets __debug__ to False;
    # invariants raise InvariantError and no code reads __debug__, so the
    # package runs the same under -O and the in-process tests stand for it.
    found = []
    for name, tree in _package_trees():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)
                  or isinstance(node, ast.Name) and node.id == "__debug__"]
    assert found == []


def test_oracles_are_fenced_in_explicit():
    # An oracle must not share code with the route it checks: only the
    # acceptance suite reads explicit.py (greedy.py re-binds one name for
    # the benchmark harness), explicit.py imports no production route, and
    # from the norm layer only the types, two helpers and the space_norm
    # that lattice_check checks.
    users, explicit_imports = [], []
    for name, tree in _package_trees():
        imports = _package_imports(tree)
        if name == "explicit.py":
            explicit_imports = imports
        elif name != "acceptance.py":
            users += [(name, names) for module, names in imports if module == "explicit"]
    assert users == [("greedy.py", ("sigma_power_table",))]
    routes = {"greedy", "democracy", "approx", "alloc", "errorseq"}
    assert explicit_imports and not {module for module, _ in explicit_imports} & routes
    norm_layer = {n for module, names in explicit_imports if module in ("spaces", "vectors")
                  for n in names}
    assert norm_layer == {"space_norm", "_float_root", "NormValue", "SpaceSpec",
                          "CompressedVector", "canonicalize"}
