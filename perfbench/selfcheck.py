"""Show that every check of the benchmark can fail, and fails the right way.

    python3 perfbench/selfcheck.py

Rebuilds correct program outputs from the recorded reference data, shows
that the checkers accept them, then feeds corrupted copies: one altered
digit, a wrong sets_checked, a failing report, error exits.  Each must be
caught and tallied as the right kind: a wrong answer is fatal to the run,
an error exit is counted as failed.  Needs no peakpoly import and runs in
well under a second.
"""

import json
import sys

import checks
from checks import FAILED, OK, WRONG

TRACEBACK = (b"Traceback (most recent call last):\n  ...\n"
             b"RecursionError: maximum recursion depth exceeded\n")


def alter_one_digit(text: str, skip: int = 0) -> str:
    """Change the last digit of the text (skipping `skip` digits from the end)."""
    positions = [i for i, ch in enumerate(text) if ch.isdigit()]
    i = positions[-1 - skip]
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def expect(label: str, outcome: checks.Outcome, kind: str) -> checks.Outcome:
    if outcome.kind != kind:
        raise AssertionError(f"{label}: expected {kind}, got {outcome}")
    print(f"ok  {label:44s} -> {outcome.kind} {outcome.detail[:70]}")
    return outcome


def main() -> int:
    expected = checks.load_expected()
    digests = checks.load_query_digests(20)
    outcomes = []

    # poly: the recorded JSON of {4,6}, printed as the CLI prints it
    s = (4, 6)
    poly = expected["polys"]["4,6"]
    poly_out = (json.dumps(poly, indent=2) + "\n").encode()
    outcomes.append(expect("poly {4,6} as recorded",
                           checks.check_poly(0, poly_out, b"", s, digests[s][0]), OK))
    outcomes.append(expect("poly {4,6} with one digit altered", checks.check_poly(
        0, alter_one_digit(poly_out.decode(), skip=1).encode(), b"", s, digests[s][0]), WRONG))

    # count: count({4,6}, 7) = 400 is the paper's spot value
    count = checks.formula_count(poly, s, 7)
    if count != 400:
        raise AssertionError(f"reference arithmetic gives count({{4,6}}, 7) = {count}")
    outcomes.append(expect("count {4,6} n=7 = 400", checks.check_count(
        0, b"400\n", b"", s, 7, poly), OK))
    outcomes.append(expect("count {4,6} n=7 with one digit altered", checks.check_count(
        0, b"401\n", b"", s, 7, poly), WRONG))
    big_n = 900
    right = str(checks.formula_count(poly, s, big_n))
    outcomes.append(expect("count {4,6} n=900 with one digit altered", checks.check_count(
        0, (alter_one_digit(right, skip=100) + "\n").encode(), b"", s, big_n, poly), WRONG))
    outcomes.append(expect("count exit 1 with a RecursionError", checks.check_count(
        1, b"", TRACEBACK, s, big_n, poly), FAILED))
    outcomes.append(expect("count exit 3 (routes disagree)", checks.check_count(
        3, b"", b"error: counting methods disagree\n", s, 7, poly), WRONG))

    # verify: a digest mismatch is wrong, a usage error is a failure
    outcomes.append(expect("verify with altered stdout", checks.check_verify(
        0, b"set: {4,6}\npositivity: pass\n", b"", s, digests[s][1]), WRONG))
    outcomes.append(expect("verify exit 2 (inadmissible set)", checks.check_verify(
        2, b"", b"error: inadmissible peak set\n", s, digests[s][1]), FAILED))

    # sweep: the recorded jobs=1 JSON passes; a wrong count or a failure does not
    sweep = dict(expected["sweep_jobs1"])
    sweep_out = json.dumps({**sweep, "elapsed_seconds": 6.9}, indent=2).encode()
    outcomes.append(expect("sweep JSON as recorded", checks.check_sweep(
        0, sweep_out, b"", sweep, 20), OK))
    bad = json.dumps({**sweep, "sets_checked": sweep["sets_checked"] - 1,
                      "elapsed_seconds": 6.9}).encode()
    wrong = expect("sweep with sets_checked one short",
                   checks.check_sweep(0, bad, b"", sweep, 20), WRONG)
    if "sets_checked" not in wrong.detail:
        raise AssertionError(f"wrong sets_checked reported as: {wrong.detail}")
    outcomes.append(wrong)
    bad = json.dumps({**sweep, "m_max": 19, "elapsed_seconds": 6.9}).encode()
    outcomes.append(expect("sweep JSON differing from jobs=1", checks.check_sweep(
        0, bad, b"", sweep, 20), WRONG))
    outcomes.append(expect("sweep killed", checks.check_sweep(
        -9, b"", b"", sweep, 20), FAILED))

    # crosscheck: every report must pass
    sets = checks.admissible_sets(4)
    rows = [{"set": list(t), "passed": True, "failed": []} for t in sets]
    rows[1] = {"set": list(sets[1]), "passed": False, "failed": ["counts"]}
    rows[2] = {"set": list(sets[2]), "error": "RecursionError: deep"}
    kinds = [o.kind for o in checks.check_crosscheck(0, json.dumps(rows).encode(), b"", sets)]
    if kinds != [OK, WRONG, FAILED, OK]:
        raise AssertionError(f"crosscheck outcomes {kinds}")
    print(f"ok  {'crosscheck: a failing report, an error row':44s} -> {kinds}")

    attempted, failed, correct = checks.tally(outcomes)
    want = (len(outcomes), sum(o.kind == FAILED for o in outcomes), False)
    if (attempted, failed, correct) != want or failed != 3:
        raise AssertionError(f"tally {attempted, failed, correct}, expected {want}")
    ok_only = [o for o in outcomes if o.kind != WRONG]
    if checks.tally(ok_only) != (len(ok_only), 3, True):
        raise AssertionError("failures alone must not make a run incorrect")
    print(f"ok  tally: {attempted} attempted, {failed} failed, correct={correct}")

    if checks.admissible_count(20) != 10945 or checks.admissible_count(9) != 54:
        raise AssertionError("admissible set counts")
    if len(checks.admissible_sets(20)) != checks.admissible_count(20):
        raise AssertionError("enumeration and recurrence disagree")
    print("ok  admissible sets: 10945 with max <= 20, 54 with max <= 9")
    return 0


if __name__ == "__main__":
    sys.exit(main())
