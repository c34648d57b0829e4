"""Record the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/record.py

Writes perfbench/data/query_digests.txt (digests of `poly --format json`
and `verify` stdout for every admissible set with max <= 20) and
perfbench/data/expected.json (the jobs=1 sweep JSON without its timing,
and the polynomial JSON of every set with max <= 10, which the recursion
counts of the query workload are checked against).  Re-record only when
the CLI's output is meant to change; the recorded files are the contract.
"""

import contextlib
import io
import json
import os
import sys

import checks

QUERY_MAX_M = 20
RECURSION_MAX_M = 10
SWEEP_MAX_M = 20


def cli_stdout(main, argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    if rc != 0:
        raise SystemExit(f"peakpoly {' '.join(argv)} exited {rc}")
    return buf.getvalue()


def main() -> None:
    from peakpoly.cli import main as cli_main

    sweep = json.loads(cli_stdout(cli_main, ["sweep", "--max-m", str(SWEEP_MAX_M),
                                             "--format", "json"]))
    del sweep["elapsed_seconds"]
    own = {"m_max": SWEEP_MAX_M, "checks": ["positivity", "logconcavity"],
           "sets_checked": checks.admissible_count(SWEEP_MAX_M), "failures": []}
    if sweep != own:
        raise SystemExit(f"sweep disagrees with the benchmark's own count: {sweep}")

    lines = [
        "# sha256[:8] of the stdout of `peakpoly poly --set S --format json` and of",
        f"# `peakpoly verify --set S`, one line per admissible S with max <= {QUERY_MAX_M},",
        "# in (max, lexicographic) order; written by perfbench/record.py",
    ]
    small = {}
    for s in checks.admissible_sets(QUERY_MAX_M):
        text = checks.format_set(s)
        poly = cli_stdout(cli_main, ["poly", "--set", text, "--format", "json"])
        verify = cli_stdout(cli_main, ["verify", "--set", text])
        lines.append(f"{checks.digest(poly)} {checks.digest(verify)}")
        if s[-1] <= RECURSION_MAX_M:
            small[text] = json.loads(poly)

    expected = {"sweep_jobs1": sweep, "recursion_max_m": RECURSION_MAX_M,
                "polys": small}
    with open(os.path.join(checks.DATA, "query_digests.txt"), "w") as handle:
        handle.write("\n".join(lines) + "\n")
    with open(os.path.join(checks.DATA, "expected.json"), "w") as handle:
        json.dump(expected, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    sys.exit(main())
