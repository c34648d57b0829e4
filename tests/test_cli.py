import json
import os
import subprocess
import sys
from decimal import Decimal

from peakpoly.cli import main
from peakpoly.engine import count_via_formula
from peakpoly.intpoly import BinomialPolynomial
from peakpoly.verify import verify_counts

GOLDEN_TABLE_CSV = """\
j\\k,0,1,2,3,4,5,6
0,4,2,2,2,0,-3,0
1,-2,0,0,-2,-3,3,25
2,2,0,-2,-1,6,22,50
3,-2,-2,1,7,16,28,43
4,0,3,6,9,12,15,18
5,3,3,3,3,3,3,3
6,0,0,0,0,0,0,0
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poly_text_singleton(capsys):
    code, out, _ = run_cli(capsys, "poly", "--set", "2")
    assert code == 0
    assert out.strip() == "C(x-2,1)"


def test_poly_json_center_zero(capsys):
    code, out, _ = run_cli(capsys, "poly", "--set", "4,6", "--center", "0",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["set"] == [4, 6]
    assert data["center"] == 0
    assert data["coefficients"] == ["4", "-2", "2", "-2", "0", "3"]
    assert data["degree"] == 5


def test_poly_csv(capsys):
    code, out, _ = run_cli(capsys, "poly", "--set", "2", "--format", "csv")
    assert code == 0
    assert out == "center,j,coefficient\n2,0,0\n2,1,1\n"


def test_poly_inadmissible_exits_2(capsys):
    code, _, err = run_cli(capsys, "poly", "--set", "1")
    assert code == 2
    assert "position 1" in err
    code, _, err = run_cli(capsys, "poly", "--set", "2,3")
    assert code == 2
    assert "adjacent" in err


def test_malformed_set_exits_1(capsys):
    for bad in ("3,2", "2,2", "a", "2,,4", "0"):
        code, _, err = run_cli(capsys, "poly", "--set", bad)
        assert code == 1, bad
        assert err.startswith("error:")


def test_empty_set_poly(capsys):
    code, out, _ = run_cli(capsys, "poly", "--set", "")
    assert code == 0
    assert out.strip() == "1"


def test_set_parsing_tolerates_whitespace(capsys):
    code, out, _ = run_cli(capsys, "poly", "--set", " 3 , 5 , 8 ",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["set"] == [3, 5, 8]


def test_table_csv_golden(capsys):
    code, out, _ = run_cli(capsys, "table", "--set", "4,6", "--jmax", "6",
                           "--kmin", "0", "--kmax", "6", "--format", "csv")
    assert code == 0
    assert out == GOLDEN_TABLE_CSV


def test_table_text_small(capsys):
    code, out, _ = run_cli(capsys, "table", "--set", "2", "--jmax", "2",
                           "--kmin", "2", "--kmax", "4")
    assert code == 0
    lines = [line.split() for line in out.strip().splitlines()]
    assert lines[1] == ["0", "0", "1", "2"]
    assert lines[2] == ["1", "1", "1", "1"]
    assert lines[3] == ["2", "0", "0", "0"]


def test_table_single_row_is_plain_evaluations(capsys):
    code, out, _ = run_cli(capsys, "table", "--set", "2", "--jmax", "0",
                           "--kmin", "0", "--kmax", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "0,-2,-1,0,1,2"


def test_count_all_methods_agree(capsys):
    code, out, _ = run_cli(capsys, "count", "--set", "4,6", "--n", "7",
                           "--method", "all")
    assert code == 0
    assert out.count("400") == 3
    assert "agreement: ok" in out


def test_count_single_methods(capsys):
    code, out, _ = run_cli(capsys, "count", "--set", "2", "--n", "3",
                           "--method", "brute")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run_cli(capsys, "count", "--set", "6", "--n", "6")
    assert code == 0 and out.strip() == "0"


def test_count_json(capsys):
    code, out, _ = run_cli(capsys, "count", "--set", "2", "--n", "8",
                           "--method", "all", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["agree"] is True
    assert data["counts"]["formula"] == data["counts"]["bruteforce"] == "384"


def test_count_flag_can_lower_the_cap(capsys):
    code, _, err = run_cli(capsys, "count", "--set", "2", "--n", "6",
                           "--method", "brute", "--enum-cap", "5")
    assert code == 1
    assert "cap" in err


def test_count_brute_above_cap_exits_1(capsys):
    code, _, err = run_cli(capsys, "count", "--set", "2", "--n", "11",
                           "--method", "brute")
    assert code == 1
    assert "cap" in err


def test_count_disagreement_exits_3(capsys, monkeypatch):
    # the routes can only disagree if the code is wrong, so fake one route
    monkeypatch.setattr("peakpoly.cli.count_via_recursion", lambda s, n: -1)
    code, out, err = run_cli(capsys, "count", "--set", "2", "--n", "4",
                             "--method", "all")
    assert code == 3
    assert "MISMATCH" in out
    assert "disagree" in err


def test_counts_check_catches_an_off_by_one_oracle(capsys, monkeypatch):
    # break the S_n oracle for one set at one length and check that every
    # consumer of it names that length and exits 3
    import peakpoly.perms as perms
    exact = perms._peak_set_counts

    def off_by_one(n):
        counts = dict(exact(n))
        if n == 9:
            counts[(4, 6)] += 1
        return counts

    monkeypatch.setattr(perms, "_peak_set_counts", off_by_one)
    report = verify_counts((4, 6), 10)
    assert not report.passed
    assert report.checks[0].name == "counts" and report.checks[0].witness == 9

    code, out, _ = run_cli(capsys, "verify", "--set", "4,6", "--checks", "counts",
                           "--n-max", "10")
    assert code == 3
    assert "counts: FAIL (witness=9)" in out

    code, _, err = run_cli(capsys, "count", "--set", "4,6", "--n", "9", "--method", "all")
    assert code == 3
    assert [line for line in err.splitlines() if line.startswith("error:")] == [err.strip()]


def test_log_concavity_check_catches_a_planted_dip(capsys, plant_coefficients):
    # plant c_3 = 1 in p_{4,6} (really 43): c_3^2 = 1 < c_2 * c_4 = 50 * 18,
    # while every coefficient stays positive; planted in what the build
    # yields, where verify_set and the sweep both read the coefficients
    import peakpoly.verify as verify
    planted = (0, 25, 50, 1, 18, 3)
    plant_coefficients(lambda t, raw: planted if t == (4, 6) else raw)
    report = verify.verify_log_concavity((4, 6))
    assert [(c.name, c.witness) for c in report.checks] == [("logconcavity", 3)]

    code, out, _ = run_cli(capsys, "verify", "--set", "4,6", "--checks", "logconcavity")
    assert code == 3
    assert "logconcavity: FAIL (witness=3)" in out

    assert [r.positions for r in verify.sweep(8).failures] == [(4, 6)]
    code, out, _ = run_cli(capsys, "sweep", "--max-m", "8")
    assert code == 3
    assert "FAIL {4,6}: logconcavity" in out


def test_poly_json_round_trips_into_formula_count(capsys):
    for set_arg, n in (("4,6", 9), ("2", 7), ("3,5,8", 11)):
        code, out, _ = run_cli(capsys, "poly", "--set", set_arg, "--format", "json")
        assert code == 0
        data = json.loads(out)
        poly = BinomialPolynomial.from_json_dict(data)
        s = tuple(data["set"])
        assert poly.evaluate(n) * 2 ** (n - len(s) - 1) == count_via_formula(s, n)


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--set", "4,6",
                           "--checks", "positivity,logconcavity")
    assert code == 0
    assert "positivity: pass" in out
    assert "logconcavity: pass" in out


def test_verify_json_with_counts(capsys):
    code, out, _ = run_cli(capsys, "verify", "--set", "2",
                           "--checks", "counts", "--n-max", "6",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["notes"]["counts"]["4"]["formula"] == "8"


def test_verify_rejects_empty_set_for_positivity(capsys):
    code, _, err = run_cli(capsys, "verify", "--set", "")
    assert code == 2
    assert "inadmissible" in err


def test_verify_unknown_check_exits_1(capsys):
    code, _, err = run_cli(capsys, "verify", "--set", "2", "--checks", "magic")
    assert code == 1
    assert "unknown check" in err
    code, _, err = run_cli(capsys, "verify", "--set", "2", "--checks", ",")
    assert code == 1
    assert err.splitlines() == ["error: no checks selected"]


def test_verify_k_max_flag(capsys):
    code, out, _ = run_cli(capsys, "verify", "--set", "2", "--k-max", "9",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["notes"]["k_max"] == 9
    code, _, err = run_cli(capsys, "verify", "--set", "4,6", "--k-max", "3")
    assert code == 1


def test_sweep_text_and_exit(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--max-m", "6")
    assert code == 0
    assert "sets checked: 12" in out
    assert "failures: 0" in out


def test_sweep_json_and_report_file(tmp_path, capsys):
    report_path = tmp_path / "summary.json"
    code, out, _ = run_cli(capsys, "sweep", "--max-m", "5", "--jobs", "2",
                           "--report", str(report_path), "--format", "json")
    assert code == 0
    printed = json.loads(out)
    saved = json.loads(report_path.read_text())
    assert printed == saved
    assert saved["sets_checked"] == 7
    assert saved["failures"] == []
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    assert leftovers == []


def test_sweep_unwritable_report_exits_1(capsys):
    code, _, err = run_cli(capsys, "sweep", "--max-m", "3",
                           "--report", "/nonexistent/dir/out.json")
    assert code == 1
    assert err.startswith("error:")


def test_sweep_rejects_counts_check(capsys):
    code, _, err = run_cli(capsys, "sweep", "--max-m", "5", "--checks", "counts")
    assert code == 1
    assert "unknown check" in err
    code, _, err = run_cli(capsys, "sweep", "--max-m", "5", "--checks", ",")
    assert code == 1
    assert err.splitlines() == ["error: no checks selected"]


def test_enumerate_grouped_text(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--group-by-peaks")
    assert code == 0
    assert out.splitlines() == ["{}: 4", "{2}: 2"]


def test_enumerate_grouped_json(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--group-by-peaks",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["total"] == "24"
    assert sum(int(g["count"]) for g in data["groups"]) == 24
    assert data["groups"][0] == {"set": [], "count": "8"}


def test_enumerate_plain_lists_lexicographically(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "3")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "1 2 3"
    assert rows == sorted(rows)
    assert len(rows) == 6


def test_enumerate_above_cap_exits_1(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--n", "11")
    assert code == 1
    assert "cap" in err


def _run_module(*argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "peakpoly", *argv],
                          capture_output=True, text=True, env=env)


def test_exit_codes_via_subprocess():
    assert _run_module("poly", "--set", "2").returncode == 0
    assert _run_module("poly", "--set", "1").returncode == 2
    assert _run_module("poly", "--set", "2,2").returncode == 1
    assert _run_module("nonsense").returncode == 1


def test_recursion_count_at_large_n_via_subprocess():
    recursion = _run_module("count", "--set", "4,6", "--n", "1000", "--method", "recursion")
    formula = _run_module("count", "--set", "4,6", "--n", "1000", "--method", "formula")
    assert recursion.returncode == formula.returncode == 0, recursion.stderr
    assert recursion.stdout == formula.stdout


def test_counts_past_the_int_string_limit_via_subprocess():
    # (n - 2) * 2^(n - 2) has 6,025 digits at n = 20000, past the default
    # 4,300-digit limit on int-string conversion; output lifts it
    expected = 19998 * 2 ** 19998
    text = _run_module("count", "--set", "2", "--n", "20000")
    data = _run_module("count", "--set", "2", "--n", "20000", "--format", "json")
    assert text.returncode == data.returncode == 0, text.stderr + data.stderr
    # Decimal reads and compares the digits exactly, with no such limit
    assert Decimal(text.stdout) == expected
    assert Decimal(json.loads(data.stdout)["counts"]["formula"]) == expected

    # input is still read under the limit: one error line, exit 1
    huge = "1" * 5000
    for argv in (("--set", "2", "--n", huge), ("--set", f"2,{huge}", "--n", "5")):
        result = _run_module("count", *argv)
        assert result.returncode == 1
        assert result.stderr.count("\n") == 1 and result.stderr.startswith("error: ")

    # the counts check renders its rows the same way
    result = subprocess.run([sys.executable, "-X", "int_max_str_digits=640", "-m", "peakpoly",
                             "verify", "--set", "2", "--checks", "counts", "--n-max", "2200"],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_deep_set_via_subprocess():
    # a cold build over a down-closure 1199 sets deep
    for command in ("poly", "verify"):
        result = _run_module(command, "--set", "1200")
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr


def test_cli_import_leaves_out_process_pools():
    code = ("import sys, peakpoly.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cold_import_leaves_out_dataclasses_and_inspect():
    # -S: no .pth file in site-packages can pre-load a module; dataclasses
    # pulls in inspect, ast, dis and tokenize, about 10 ms of every cold call
    import peakpoly
    src = os.path.dirname(os.path.dirname(os.path.abspath(peakpoly.__file__)))
    code = (f"import sys; sys.path.insert(0, {src!r}); import peakpoly, peakpoly.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_env_var_overrides_enumeration_cap():
    result = _run_module("enumerate", "--n", "4", "--group-by-peaks",
                         env_extra={"PEAKPOLY_ENUM_CAP": "3"})
    assert result.returncode == 1
    assert "cap" in result.stderr
    # the explicit flag wins over the environment
    result = _run_module("enumerate", "--n", "4", "--group-by-peaks",
                         "--enum-cap", "4",
                         env_extra={"PEAKPOLY_ENUM_CAP": "3"})
    assert result.returncode == 0


def test_running_out_of_memory_or_depth_exits_1_with_one_error_line(capsys, monkeypatch):
    # exit 1, as the uncaught error gave, but one error line, not a traceback
    for error, line in ((MemoryError(), "error: out of memory\n"),
                        (RecursionError("maximum recursion depth exceeded"),
                         "error: maximum recursion depth exceeded\n")):
        def raising(args):
            raise error

        monkeypatch.setattr("peakpoly.cli._cmd_sweep", raising)
        code, out, err = run_cli(capsys, "sweep", "--max-m", "5")
        assert (code, out, err) == (1, "", line)
