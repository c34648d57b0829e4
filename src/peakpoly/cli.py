"""Command-line front end.

Subcommands: poly, table, count, verify, sweep, enumerate.  Output is
text by default; --format json/csv are schema-stable and render all big
integers as decimal strings.

Exit codes: 0 success (and all checks passed), 1 usage or resource-limit
error, 2 structurally inadmissible peak set, 3 a verification check failed,
the counting routes disagreed, or a set came out with a negative coefficient.
"""

import argparse
import gc
import itertools
import math
import os
import sys

from peakpoly.engine import (NegativeCoefficientError, count_via_formula, count_via_recursion,
                             peak_polynomial)
from peakpoly.perms import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    InadmissibleSetError,
    _format_set,
    count_bruteforce,
    ensure_within_cap,
    enumerate_by_peak_set,
)
from peakpoly.verify import ALL_CHECKS, SWEEP_CHECKS, sweep, verify_set

ENUM_CAP_ENV_VAR = "PEAKPOLY_ENUM_CAP"

FORMATS = ("text", "json", "csv")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_set(text: str) -> tuple[int, ...]:
    """Comma-separated integers, as given; '' means the empty set.

    Every command hands them to a library entry that canonicalises the
    set, rejecting duplicates and descending order rather than sorting them.
    """
    if text.strip() == "":
        return ()
    try:
        return tuple([int(part) for part in text.split(",")])
    except ValueError:
        raise _UsageError(
            f"peak positions must be comma-separated integers, got {text!r}") from None


def _parse_checks(text: str) -> tuple[str, ...]:
    """Comma-separated check names, blanks dropped; the library checks them."""
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _resolve_cap(cap: int | None) -> int:
    if cap is None:
        env = os.environ.get(ENUM_CAP_ENV_VAR)
        if not env:
            return DEFAULT_ENUMERATION_CAP
        try:
            cap = int(env)
        except ValueError:
            raise _UsageError(
                f"{ENUM_CAP_ENV_VAR} must be an integer, got {env!r}") from None
    if cap < 1:
        raise _UsageError("enumeration cap must be >= 1")
    return cap


def _write_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial report."""
    import tempfile  # here, not at the top: a call that writes no report skips it
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".peakpoly-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _json(payload) -> str:
    """payload as JSON text indented by 2, the form of every JSON output."""
    import json  # here, not at the top: a text or CSV call never loads it
    return json.dumps(payload, indent=2)


def _print_csv(rows) -> None:
    import csv  # here, not at the top: only a CSV call loads it
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerows(rows)


def _cmd_poly(args) -> int:
    s = args.set
    poly = peak_polynomial(s)  # centred at max(S), the default
    if args.center is not None:
        poly = poly.recenter(args.center)
    if args.format == "json":
        print(_json({"set": list(s), **poly.to_json_dict()}))
    elif args.format == "csv":
        rows = [("center", "j", "coefficient")]
        rows += [(str(poly.center), str(j), str(c)) for j, c in enumerate(poly.coeffs)]
        _print_csv(rows)
    else:
        print(poly.expansion())
    return 0


def _cmd_table(args) -> int:
    s = args.set
    poly = peak_polynomial(s)
    m = s[-1] if s else 0
    jmax = args.jmax if args.jmax is not None else m
    kmin = args.kmin if args.kmin is not None else 0
    kmax = args.kmax if args.kmax is not None else m
    table = poly.difference_table(jmax, kmin, kmax)
    if args.format == "json":
        print(_json({"set": list(s), **table.to_json_dict()}))
    elif args.format == "csv":
        sys.stdout.write(table.to_csv())
    else:
        header = ["j\\k"] + [str(k) for k in range(kmin, kmax + 1)]
        body = [[str(j)] + [str(v) for v in row] for j, row in enumerate(table.cells)]
        widths = [max(len(line[col]) for line in [header] + body)
                  for col in range(len(header))]
        for line in [header] + body:
            print("  ".join(cell.rjust(width) for cell, width in zip(line, widths)))
    return 0


def _cmd_count(args) -> int:
    s, cap = args.set, args.enum_cap
    counts = {}
    if args.method in ("formula", "all"):
        counts["formula"] = count_via_formula(s, args.n)
    if args.method in ("recursion", "all"):
        counts["recursion"] = count_via_recursion(s, args.n)
    if args.method in ("brute", "all"):
        counts["bruteforce"] = count_bruteforce(s, args.n, cap)
    agree = len(set(counts.values())) == 1

    if args.format == "json":
        payload = {"set": list(s), "n": args.n,
                   "counts": {k: str(v) for k, v in counts.items()}}
        if args.method == "all":
            payload["agree"] = agree
        print(_json(payload))
    elif args.format == "csv":
        rows = [("method", "count")] + [(k, str(v)) for k, v in counts.items()]
        _print_csv(rows)
    elif args.method == "all":
        for name, value in counts.items():
            print(f"{name}: {value}")
        print(f"agreement: {'ok' if agree else 'MISMATCH'}")
    else:
        print(next(iter(counts.values())))

    if not agree:
        print(f"error: counting methods disagree for set {_format_set(s)}, "
              f"n={args.n}: {counts}", file=sys.stderr)
        return 3
    return 0


def _render_report_text(report) -> str:
    lines = [f"set: {_format_set(report.positions)}"]
    for check in report.checks:
        if check.passed:
            lines.append(f"{check.name}: pass")
        else:
            lines.append(f"{check.name}: FAIL (witness={check.witness!r})")
    coeffs = ", ".join(str(c) for c in report.coefficients)
    lines.append(f"coefficients (j=0..{report.m} at center {report.m}): {coeffs}")
    for key, value in report.notes.items():
        if key == "counts":
            for n, row in value.items():
                triple = ", ".join(f"{k}={v}" for k, v in row.items() if v is not None)
                lines.append(f"n={n}: {triple}")
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    s, cap = args.set, args.enum_cap
    checks = _parse_checks(args.checks)
    reach = {} if args.k_max is None else {"k_extra": args.k_max - (s[-1] if s else 0)}
    report = verify_set(s, checks, **reach, n_max=args.n_max, max_n=cap)

    if args.format == "json":
        print(_json(report.to_json_dict()))
    elif args.format == "csv":
        rows = [("check", "passed", "witness")]
        rows += [(c.name, str(c.passed).lower(),
                  "" if c.witness is None else str(c.witness)) for c in report.checks]
        _print_csv(rows)
    else:
        print(_render_report_text(report))
    return 0 if report.passed else 3


def _cmd_sweep(args) -> int:
    checks = _parse_checks(args.checks)
    summary = sweep(args.max_m, checks, workers=args.jobs)

    if args.report:
        _write_atomic(args.report, _json(summary.to_json_dict()) + "\n")

    if args.format == "json":
        print(_json(summary.to_json_dict()))
    elif args.format == "csv":
        rows = [("m_max", "checks", "sets_checked", "failures", "elapsed_seconds"),
                (str(summary.m_max), " ".join(summary.checks),
                 str(summary.sets_checked), str(len(summary.failures)),
                 f"{summary.elapsed_seconds:.3f}")]
        _print_csv(rows)
    else:
        print(f"sets checked: {summary.sets_checked}")
        print(f"failures: {len(summary.failures)}")
        for report in summary.failures:
            failed = [c.name for c in report.checks if not c.passed]
            print(f"  FAIL {_format_set(report.positions)}: {', '.join(failed)}")
        print(f"elapsed: {summary.elapsed_seconds:.2f}s")
    return 0 if not summary.failures else 3


def _cmd_enumerate(args) -> int:
    cap = args.enum_cap
    if args.group_by_peaks:
        counts = enumerate_by_peak_set(args.n, cap)
        if args.format == "json":
            payload = {
                "n": args.n,
                "total": str(math.factorial(args.n)),
                "groups": [{"set": list(s), "count": str(c)} for s, c in counts.items()],
            }
            print(_json(payload))
        elif args.format == "csv":
            rows = [("peak_set", "count")]
            rows += [(",".join(str(v) for v in s), str(c)) for s, c in counts.items()]
            _print_csv(rows)
        else:
            for s, c in counts.items():
                print(f"{_format_set(s)}: {c}")
        return 0

    ensure_within_cap(args.n, cap)
    perms = itertools.permutations(range(1, args.n + 1))
    if args.format == "json":
        print(_json({"n": args.n, "permutations": [list(p) for p in perms]}))
    elif args.format == "csv":
        rows = [("entries",)]
        rows += [(" ".join(str(v) for v in p),) for p in perms]
        _print_csv(rows)
    else:
        for p in perms:
            print(" ".join(str(v) for v in p))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="peakpoly",
                     description="Exact peak-set statistics of permutations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default="text",
                       help="output format (default: text)")

    def add_cap(p):
        p.add_argument("--enum-cap", type=int, default=None, metavar="N",
                       help="largest n the exhaustive scan will accept "
                            f"(default {DEFAULT_ENUMERATION_CAP}, or "
                            f"${ENUM_CAP_ENV_VAR})")

    p = sub.add_parser("poly", help="print the peak polynomial of a set")
    p.add_argument("--set", required=True, help="peak positions, e.g. 3,5,8 ('' = empty)")
    p.add_argument("--center", type=int, default=None,
                   help="basis center (default: max of the set)")
    add_format(p)
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("table", help="print a forward-difference table")
    p.add_argument("--set", required=True)
    p.add_argument("--jmax", type=int, default=None, help="highest difference order")
    p.add_argument("--kmin", type=int, default=None, help="first column (default 0)")
    p.add_argument("--kmax", type=int, default=None, help="last column (default max of set)")
    add_format(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("count", help="count permutations with a given peak set")
    p.add_argument("--set", required=True)
    p.add_argument("--n", type=int, required=True, help="permutation length")
    p.add_argument("--method", choices=("formula", "recursion", "brute", "all"),
                   default="formula")
    add_format(p)
    add_cap(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("verify", help="run checks on one peak set")
    p.add_argument("--set", required=True)
    p.add_argument("--checks", default=",".join(SWEEP_CHECKS),
                   help=f"comma-separated subset of {','.join(ALL_CHECKS)}")
    p.add_argument("--k-max", type=int, default=None,
                   help="positivity checked up to this center (default max+5)")
    p.add_argument("--n-max", type=int, default=None,
                   help="counts cross-checked up to this length")
    add_format(p)
    add_cap(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="verify all admissible sets up to a bound")
    p.add_argument("--max-m", type=int, required=True,
                   help="largest maximum position to sweep")
    p.add_argument("--checks", default=",".join(SWEEP_CHECKS),
                   help=f"comma-separated subset of {','.join(SWEEP_CHECKS)}")
    p.add_argument("--jobs", type=int, default=1,
                   help="processes to walk the sweep in (at most max-m - 3); "
                        "the output is the same for every value")
    p.add_argument("--report", default=None, metavar="PATH",
                   help="also write the JSON summary to this file (atomically)")
    add_format(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("enumerate", help="list S_n, optionally grouped by peak set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group-by-peaks", action="store_true",
                   help="print peak-set counts instead of raw permutations")
    add_format(p)
    add_cap(p)
    p.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # input is read under CPython's int-string limit (4,300 digits by
    # default); the run lifts it, so every count it computes can print
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    try:
        args = parser.parse_args(argv)
        if "set" in args:
            args.set = _parse_set(args.set)
        if "enum_cap" in args:
            args.enum_cap = _resolve_cap(args.enum_cap)
        if limit:
            sys.set_int_max_str_digits(0)
        return args.func(args)
    except InadmissibleSetError as exc:
        print(f"error: inadmissible peak set: {exc}", file=sys.stderr)
        return 2
    except NegativeCoefficientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (_UsageError, EnumerationCapError, ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # its message is usually empty
        print("error: out of memory", file=sys.stderr)
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def run_and_exit() -> None:
    """Run main on sys.argv and exit the process with its code.

    The entry point of `peakpoly`, `python -m peakpoly` and
    `python -m peakpoly.cli`.  It calls gc.freeze() before exiting, so the
    collections of interpreter shutdown skip the heap the call leaves
    behind, some 13,000 tracked objects after a `poly` call: its shutdown
    took about 9 ms, and 2 ms frozen, where the work took under 2 ms.  The
    exit is still sys.exit, so stdout and stderr are flushed and atexit
    handlers run.  main itself freezes nothing, as a process that calls it
    (a test, a benchmark) lives on.
    """
    rc = main()
    gc.freeze()
    sys.exit(rc)


if __name__ == "__main__":
    run_and_exit()
