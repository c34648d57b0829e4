import json
import os
import re
import subprocess
import sys
from decimal import Decimal

import pytest

from peakpoly.cli import main
from peakpoly.engine import count_via_formula
from peakpoly.intpoly import BinomialPolynomial
from peakpoly.verify import verify_counts, verify_set

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


def test_a_malformed_set_is_reported_after_a_bad_cap(capsys):
    # the CLI reads --set into integers only; the library that takes the
    # set rejects it, after the cap has been read
    code, out, err = run_cli(capsys, "count", "--set", "5,3", "--n", "6", "--enum-cap", "0")
    assert (code, out, err) == (1, "", "error: enumeration cap must be >= 1\n")
    code, out, err = run_cli(capsys, "count", "--set", "5,3", "--n", "6")
    assert (code, out) == (1, "")
    assert err.startswith("error: peak positions must be strictly increasing")


def test_each_set_is_canonicalised_once(capsys, monkeypatch):
    import peakpoly.perms as perms
    original = perms.as_peak_set
    calls = []

    def counting(positions):
        s = original(positions)
        calls.append(s)
        return s

    # raising=False: a module that does not bind as_peak_set gets a copy
    # it never calls
    for module in ("perms", "engine", "verify", "cli"):
        monkeypatch.setattr(f"peakpoly.{module}.as_peak_set", counting, raising=False)
    for argv in (("poly", "--set", "4,6"), ("table", "--set", "4,6"),
                 ("verify", "--set", "4,6"),
                 ("count", "--set", "4,6", "--n", "7", "--method", "formula")):
        calls.clear()
        assert run_cli(capsys, *argv)[0] == 0, argv
        assert calls == [(4, 6)], argv
    calls.clear()
    assert len(perms.permutations_with_peak_set((2,), 4)) == 8
    assert calls == [(2,)]


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


GOLDEN_OUTPUTS = [
    (("table", "--set", "2", "--jmax", "1", "--kmin", "2", "--kmax", "3", "--format", "json"),
     '''{
  "set": [
    2
  ],
  "jmax": 1,
  "kmin": 2,
  "kmax": 3,
  "cells": [
    [
      "0",
      "1"
    ],
    [
      "1",
      "1"
    ]
  ]
}
'''),
    (("count", "--set", "4,6", "--n", "8", "--format", "csv"), "method,count\nformula,3200\n"),
    (("count", "--set", "4,6", "--n", "8", "--method", "all", "--format", "csv"),
     "method,count\nformula,3200\nrecursion,3200\nbruteforce,3200\n"),
    (("verify", "--set", "4,6", "--format", "csv"),
     "check,passed,witness\npositivity,true,\norder-m-difference-zero,true,\n"
     "zero-at-max,true,\ndegree,true,\nlogconcavity,true,\n"),
    (("enumerate", "--n", "2", "--format", "json"),
     '''{
  "n": 2,
  "permutations": [
    [
      1,
      2
    ],
    [
      2,
      1
    ]
  ]
}
'''),
    (("enumerate", "--n", "3", "--format", "csv"),
     "entries\n1 2 3\n1 3 2\n2 1 3\n2 3 1\n3 1 2\n3 2 1\n"),
    (("enumerate", "--n", "4", "--group-by-peaks", "--format", "csv"),
     "peak_set,count\n,8\n2,8\n3,8\n"),
]


@pytest.mark.parametrize("argv, golden", GOLDEN_OUTPUTS,
                         ids=[" ".join(argv) for argv, _ in GOLDEN_OUTPUTS])
def test_output_formats_golden(capsys, argv, golden):
    assert run_cli(capsys, *argv) == (0, golden, "")


def test_sweep_csv_golden(capsys):
    # every field but elapsed_seconds is pinned
    code, out, err = run_cli(capsys, "sweep", "--max-m", "6", "--format", "csv")
    assert (code, err) == (0, "")
    header, row = out.splitlines()
    assert header == "m_max,checks,sets_checked,failures,elapsed_seconds"
    *fields, elapsed = row.split(",")
    assert fields == ["6", "positivity logconcavity", "12", "0"]
    assert re.fullmatch(r"\d+\.\d{3}", elapsed)


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


def test_counts_check_catches_a_dropped_derived_term(capsys, monkeypatch):
    # drop one term of S's own list in the down-closure: the recursion
    # route then counts wrong, and the counts check names the first length
    # where formula and recursion differ, and exits 3
    import peakpoly.engine as engine
    s, n_max = (4, 6, 9), 14
    closure = engine._closure

    def dropping(t):
        sets = closure(t)
        last, terms = sets[-1]
        assert last == t
        terms.pop()
        return sets

    monkeypatch.setattr(engine, "_closure", dropping)
    first = next(n for n in range(s[-1] + 1, n_max + 1)
                 if engine.count_via_recursion(s, n) != count_via_formula(s, n))
    report = verify_set(s, ("counts",), n_max=n_max)
    assert [(c.name, c.passed, c.witness) for c in report.checks] == [("counts", False, first)]

    code, out, _ = run_cli(capsys, "verify", "--set", "4,6,9", "--checks", "counts",
                           "--n-max", str(n_max))
    assert code == 3
    assert f"counts: FAIL (witness={first})" in out


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


def test_a_negative_limb_exits_3_naming_its_set(capsys, plant_negative_limb):
    # c_1 = -1 planted in p_{3,5} as the walk yields it: the sweep lists that set
    # with its positivity witness and stops there; a set built from it,
    # here {3,5,8}, is refused with one error line naming {3,5}
    plant_negative_limb((3, 5), 1)
    code, out, err = run_cli(capsys, "sweep", "--max-m", "8", "--format", "json")
    data = json.loads(out)
    assert code == 3 and err == ""
    assert data["sets_checked"] == 6
    (failure,) = data["failures"]
    assert failure["set"] == [3, 5] and failure["coefficients"][1] == "-1"
    assert {c["name"]: c["witness"] for c in failure["checks"]}["positivity"] == [1, 5]

    for command in ("poly", "table", "verify"):
        code, out, err = run_cli(capsys, command, "--set", "3,5,8")
        assert (code, out) == (3, ""), command
        assert err == "error: p_S for S = {3,5} has c_1 = -1 < 0; {3,5,8} is not built\n"


def test_a_negative_coefficient_that_log_concavity_passes_exits_3(capsys, plant_negative_limb):
    # c_1 = -1 planted in {3,5}'s chain: log-concavity alone passes it, so
    # verify prints no report and one error line naming the coefficient;
    # positivity fails it, a report and exit 3
    plant_negative_limb((3, 5), 1)
    code, out, err = run_cli(capsys, "verify", "--set", "3,5", "--checks", "logconcavity")
    assert (code, out) == (3, "")
    assert err == "error: p_S for S = {3,5} has c_1 = -1 < 0; no selected check fails on it\n"
    code, out, err = run_cli(capsys, "verify", "--set", "3,5")
    assert (code, err) == (3, "")
    assert "positivity: FAIL (witness=(1, 5))" in out


def test_a_closure_past_the_cap_exits_1_with_one_error_line(capsys, monkeypatch):
    # {2,4,6}'s closure has 8 sets, past a cap of 7
    monkeypatch.setattr("peakpoly.engine._CLOSURE_CAP", 7)
    for argv in (("count", "--set", "2,4,6", "--n", "9", "--method", "recursion"),
                 ("count", "--set", "2,4,6", "--n", "9", "--method", "all"),
                 ("verify", "--set", "2,4,6", "--checks", "counts")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err == "error: the closure of {2,4,6} under derived sets has more than 7 sets\n"


def test_a_closure_past_the_real_cap_is_left_to_the_formula_route(capsys):
    # {5,10,20,40,80}'s closure has 200,000 sets: the recursion route refuses
    # it after its walk (about 0.7 s whole CLI), while the formula route
    # builds the set's chain of 75 sets
    code, out, err = run_cli(capsys, "count", "--set", "5,10,20,40,80", "--n", "81")
    assert (code, err) == (0, "")
    assert int(out) == count_via_formula((5, 10, 20, 40, 80), 81) > 0
    code, out, err = run_cli(capsys, "count", "--set", "5,10,20,40,80", "--n", "81",
                             "--method", "recursion")
    assert (code, out) == (1, "")
    assert err == ("error: the closure of {5,10,20,40,80} under derived sets"
                   " has more than 100000 sets\n")


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


def test_verify_k_max_is_checked_by_the_library_alone(capsys):
    # one check, after the set's own: a low --k-max gets the library's
    # error line, an inadmissible set still exits 2, and a check that
    # reads no k_max accepts any
    code, _, err = run_cli(capsys, "verify", "--set", "4,6", "--k-max", "5")
    assert code == 1
    assert err.splitlines() == ["error: k_max must be >= max(S) = 6, got 5"]
    code, _, err = run_cli(capsys, "verify", "--set", "2,3", "--k-max", "1")
    assert code == 2
    assert "inadmissible" in err
    code, out, _ = run_cli(capsys, "verify", "--set", "4,6", "--checks", "logconcavity",
                           "--k-max", "2")
    assert code == 0
    assert "logconcavity: pass" in out


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


def test_a_report_that_cannot_be_renamed_leaves_no_temp_file(tmp_path, capsys):
    # the report path is a directory: the temp file is written beside it,
    # the rename onto the directory fails, and the temp file is removed
    target = tmp_path / "report"
    target.mkdir()
    code, out, err = run_cli(capsys, "sweep", "--max-m", "5", "--report", str(target))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert os.listdir(tmp_path) == ["report"]
    assert os.listdir(target) == []


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
    # 3: a child plants c_1 = -1 in p_{3,5} as the walk yields it, and the
    # sweep fails positivity there
    result = _run_planted("sweep", "--max-m", "8")
    assert result.returncode == 3, result.stderr
    assert "FAIL {3,5}: positivity" in result.stdout


def _run_planted(*argv, module=None):
    # the CLI in a child where the walk yields {3,5} as a trip with c_1 = -1,
    # as sys.exit(cli.main(argv)) or, given a module, as `python -m module`
    # runs it, with an atexit hook that writes the freeze count on stderr
    plant = ("import sys, peakpoly.verify as verify; walk = verify._walk; "
             "verify._walk = lambda top, roots, w: ((t, p, (0, -1, 18, 10, 2) if t == (3, 5) "
             "else c) for t, p, c in walk(top, roots, w)); ")
    if module is None:
        plant += f"import peakpoly.cli as cli; sys.exit(cli.main({list(argv)!r}))"
    else:
        plant += ("import atexit, gc, runpy; atexit.register(lambda: print("
                  "f'frozen {gc.get_freeze_count()}', file=sys.stderr)); "
                  f"sys.argv = [{module!r}, *{list(argv)!r}]; "
                  f"runpy.run_module({module!r}, run_name='__main__')")
    return subprocess.run([sys.executable, "-c", plant], capture_output=True, text=True)


@pytest.mark.parametrize("argv, code", [
    (("poly", "--set", "2"), 0),
    (("poly", "--set", "2,2"), 1),
    (("nonsense",), 1),
    (("poly", "--set", "1"), 2),
    (("sweep", "--max-m", "16", "--checks", "logconcavity"), 3),
])
def test_the_entry_points_exit_as_main_returns_with_the_heap_frozen(argv, code):
    # the exit of `python -m peakpoly` and of `python -m peakpoly.cli`
    # freezes the heap before shutdown, with the stdout, stderr and exit
    # code of sys.exit(main(argv))
    base = _run_planted(*argv)
    assert base.returncode == code, base.stderr
    for module in ("peakpoly", "peakpoly.cli"):
        result = _run_planted(*argv, module=module)
        stderr, _, frozen = result.stderr.rpartition("frozen ")
        assert int(frozen) > 0, module
        assert (result.returncode, result.stdout, stderr) == \
               (code, base.stdout, base.stderr), module
    if code < 3:  # unplanted, through the package's own __main__
        result = _run_module(*argv)
        assert (result.returncode, result.stdout, result.stderr) == \
               (code, base.stdout, base.stderr)


def test_main_in_process_freezes_nothing(capsys):
    import gc
    before = gc.get_freeze_count()
    assert run_cli(capsys, "poly", "--set", "3,7,12,17,20", "--format", "json")[0] == 0
    assert gc.get_freeze_count() == before


def test_every_entry_point_names_run_and_exit():
    # the console script's target is read as text, so this runs without
    # tomllib (3.10)
    import importlib

    import peakpoly.__main__
    import peakpoly.cli as cli
    src = os.path.dirname(os.path.abspath(cli.__file__))
    with open(os.path.join(src, "..", "..", "pyproject.toml")) as handle:
        scripts = handle.read().split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    target = re.search(r'^peakpoly\s*=\s*"([\w.]+):(\w+)"$', scripts, re.M)
    assert target, scripts
    assert getattr(importlib.import_module(target[1]), target[2]) is cli.run_and_exit
    assert peakpoly.__main__.run_and_exit is cli.run_and_exit
    for name in ("__main__.py", "cli.py"):
        with open(os.path.join(src, name)) as handle:
            assert handle.read().endswith('\nif __name__ == "__main__":\n    run_and_exit()\n'), name


def test_a_closed_stdout_exits_1_with_one_error_line():
    # enumerate --n 9 prints 362,880 lines, far more than a pipe holds, so
    # the child is still writing when its reader goes away
    with subprocess.Popen([sys.executable, "-m", "peakpoly", "enumerate", "--n", "9"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.readline() == "1 2 3 4 5 6 7 8 9\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (1, "error: [Errno 32] Broken pipe\n")


def test_a_planted_trip_that_log_concavity_passes_exits_3_via_subprocess():
    # log-concavity alone passes {3,5} with c_1 = -1: the sweep ends there
    # with one error line and no summary, whatever the worker count
    for jobs in ("1", "2", "3"):
        result = _run_planted("sweep", "--max-m", "16", "--checks", "logconcavity",
                              "--format", "json", "--jobs", jobs)
        assert result.returncode == 3, result.stderr
        assert result.stdout == ""
        assert result.stderr == ("error: p_S for S = {3,5} has c_1 = -1 < 0; "
                                 "the sweep stops there, after 6 sets\n"), jobs


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
    # a cold build over a chain 1199 sets deep
    for command in ("poly", "verify"):
        result = _run_module(command, "--set", "1200")
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr


def test_a_set_with_a_vast_down_closure_via_subprocess():
    # {20, 40, ..., 400}'s down-closure is too large to hold in memory;
    # its chain has 380 sets
    positions = ",".join(str(v) for v in range(20, 401, 20))
    result = _run_module("poly", "--set", positions, "--format", "json")
    assert result.returncode == 0, result.stderr
    data = json.loads(result.stdout)
    coeffs = [int(c) for c in data["coefficients"]]
    assert data["degree"] == 399 and len(coeffs) == 400
    assert coeffs[0] == 0 and all(c > 0 for c in coeffs[1:])


def test_cli_import_leaves_out_process_pools():
    code = ("import sys, peakpoly.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cold_import_leaves_out_dataclasses_and_inspect():
    # -S: no .pth file in site-packages can pre-load a module; dataclasses
    # pulls in inspect, ast, dis and tokenize, about 10 ms of every cold
    # call, and tempfile 6-7 ms, needed only to write a sweep report; the
    # records are collections.namedtuple subclasses, so typing stays out too;
    # json (1.6 ms) and csv (0.5 ms) load only when a call writes that format
    import peakpoly
    src = os.path.dirname(os.path.dirname(os.path.abspath(peakpoly.__file__)))
    code = (f"import sys; sys.path.insert(0, {src!r}); import peakpoly, peakpoly.cli; "
            "print(sorted({'csv', 'dataclasses', 'inspect', 'json', 'tempfile', 'typing'}"
            " & set(sys.modules)))")
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
