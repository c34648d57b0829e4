"""Reference arithmetic and output checks for the peakpoly benchmark.

Nothing here imports peakpoly.  The set enumeration, the set count and the
binomial arithmetic are the benchmark's own, so a defect in the package
cannot hide itself by agreeing with its own checker.

Every checked operation ends in one of three outcomes:

  ok      the program exited 0 with the right answer;
  failed  the program refused or crashed (exit 1 or 2, a traceback, a kill);
          counted in `failed`, never fatal;
  wrong   the program answered and the answer is wrong, or it reported a
          failed verification check (exit 3), which for these workloads
          is a theorem violated; fatal to the benchmark run.
"""

import hashlib
import json
import math
import os
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(HERE, "data")

OK, FAILED, WRONG = "ok", "failed", "wrong"


class Outcome(NamedTuple):
    kind: str
    detail: str = ""


def sparse_subset_count(k: int) -> int:
    """Subsets with no two consecutive members of a k-element path: a(k) = a(k-1) + a(k-2)."""
    a, b = 1, 2
    for _ in range(k):
        a, b = b, a + b
    return a


def admissible_count(max_m: int) -> int:
    """Nonempty admissible peak sets with max <= max_m.

    A set with maximum m is {m} plus a no-two-consecutive subset of
    {2, ..., m-2}, a path of max(m-3, 0) elements.
    """
    return sum(sparse_subset_count(max(m - 3, 0)) for m in range(2, max_m + 1))


def admissible_sets(max_m: int) -> list[tuple[int, ...]]:
    """The same sets, ordered by (max, lexicographic)."""
    def sparse(lo, hi):
        yield ()
        for first in range(lo, hi + 1):
            for rest in sparse(first + 2, hi):
                yield (first,) + rest

    out = []
    for m in range(2, max_m + 1):
        out.extend(sorted(rest + (m,) for rest in sparse(2, m - 2)))
    return out


def format_set(s) -> str:
    return ",".join(str(v) for v in s)


def digest(data) -> str:
    """First 8 hex digits of the SHA-256 of a program output."""
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:8]


def evaluate_poly(poly: dict, x: int) -> int:
    """sum_j c_j * C(x - center, j) for the JSON form of `peakpoly poly --format json`."""
    t = x - int(poly["center"])
    if t < 0:
        raise ValueError("the reference evaluates only at or above the centre")
    return sum(int(c) * math.comb(t, j) for j, c in enumerate(poly["coefficients"]))


def formula_count(poly: dict, s, n: int) -> int:
    """count(S, n) = p_S(n) * 2^(n - |S| - 1) for n > max(S)."""
    return evaluate_poly(poly, n) * 2 ** (n - len(s) - 1)


def load_expected() -> dict:
    with open(os.path.join(DATA, "expected.json")) as handle:
        return json.load(handle)


def load_query_digests(max_m: int) -> dict:
    """Set -> (poly JSON digest, verify text digest), recorded by record.py."""
    sets = admissible_sets(max_m)
    rows = []
    with open(os.path.join(DATA, "query_digests.txt")) as handle:
        for line in handle:
            if line.strip() and not line.startswith("#"):
                rows.append(tuple(line.split()))
    if len(rows) != len(sets):
        raise ValueError(f"digest table has {len(rows)} rows, expected {len(sets)}")
    return dict(zip(sets, rows))


def tally(outcomes) -> tuple[int, int, bool]:
    """(attempted, failed, correct): any wrong answer makes the run incorrect."""
    outcomes = list(outcomes)
    return (len(outcomes), sum(o.kind == FAILED for o in outcomes),
            not any(o.kind == WRONG for o in outcomes))


def _error_exit(rc: int, stderr: bytes) -> Outcome:
    lines = stderr.decode(errors="replace").strip().splitlines()
    reason = lines[-1] if lines else "no message"
    if rc == 3:
        return Outcome(WRONG, f"exit 3 (a check failed or counts disagreed): {reason}")
    return Outcome(FAILED, f"exit {rc}: {reason}")


def check_sweep(rc: int, stdout: bytes, stderr: bytes, expected: dict,
                max_m: int) -> Outcome:
    """`sweep --format json` must equal the recorded jobs=1 JSON except elapsed_seconds."""
    if rc != 0:
        return _error_exit(rc, stderr)
    try:
        got = json.loads(stdout)
        elapsed = got.pop("elapsed_seconds")
    except (ValueError, KeyError, AttributeError) as exc:
        return Outcome(WRONG, f"sweep output is not the JSON summary: {exc}")
    if not isinstance(elapsed, (int, float)):
        return Outcome(WRONG, f"elapsed_seconds is not a number: {elapsed!r}")
    if got.get("sets_checked") != admissible_count(max_m):
        return Outcome(WRONG, f"sets_checked={got.get('sets_checked')!r}, "
                              f"but {admissible_count(max_m)} sets are admissible")
    if got.get("failures") != []:
        return Outcome(WRONG, f"sweep reported failures: {str(got.get('failures'))[:200]}")
    if got != expected:
        return Outcome(WRONG, f"sweep JSON differs from the jobs=1 JSON: {got} != {expected}")
    return Outcome(OK)


def check_crosscheck(rc: int, stdout: bytes, stderr: bytes,
                     sets: list) -> list[Outcome]:
    """One outcome per set; every verify_set report must pass."""
    if rc != 0:
        return [_error_exit(rc, stderr)] * len(sets)
    try:
        rows = json.loads(stdout)
    except ValueError as exc:
        return [Outcome(WRONG, f"crosscheck output is not JSON: {exc}")] * len(sets)
    if [tuple(row["set"]) for row in rows] != [tuple(s) for s in sets]:
        return [Outcome(WRONG, "crosscheck reports do not cover the admissible sets")] * len(sets)
    out = []
    for row in rows:
        if row.get("error"):
            out.append(Outcome(FAILED, f"{row['set']}: {row['error']}"))
        elif row.get("passed") is not True:
            out.append(Outcome(WRONG, f"{row['set']}: report failed {row.get('failed')}"))
        else:
            out.append(Outcome(OK))
    return out


def check_poly(rc: int, stdout: bytes, stderr: bytes, s, want_digest: str) -> Outcome:
    if rc != 0:
        return _error_exit(rc, stderr)
    if digest(stdout) != want_digest:
        return Outcome(WRONG, f"poly {format_set(s)}: stdout digest {digest(stdout)} "
                              f"!= recorded {want_digest}")
    return Outcome(OK)


def check_count(rc: int, stdout: bytes, stderr: bytes, s, n: int,
                reference_poly: dict | None) -> Outcome:
    """A count must equal the reference polynomial, evaluated here, times 2^(n-|S|-1)."""
    if rc != 0:
        return _error_exit(rc, stderr)
    if reference_poly is None:
        return Outcome(FAILED, f"count {format_set(s)} n={n}: no verified polynomial "
                               "to check it against")
    want = formula_count(reference_poly, s, n)
    try:
        got = int(stdout.decode().strip())
    except ValueError:
        return Outcome(WRONG, f"count {format_set(s)} n={n}: not an integer: {stdout[:80]!r}")
    if got != want:
        return Outcome(WRONG, f"count {format_set(s)} n={n}: got {got}, expected {want}")
    return Outcome(OK)


def check_verify(rc: int, stdout: bytes, stderr: bytes, s, want_digest: str) -> Outcome:
    if rc != 0:
        return _error_exit(rc, stderr)
    if digest(stdout) != want_digest:
        return Outcome(WRONG, f"verify {format_set(s)}: stdout digest {digest(stdout)} "
                              f"!= recorded {want_digest}")
    return Outcome(OK)
