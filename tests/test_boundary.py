"""Every public entry point checks a peak set by the same rules.

A malformed set (not a strictly increasing tuple of integers >= 1) raises
ValueError everywhere; an inadmissible one raises InadmissibleSetError
where an admissible set is needed and is an ordinary input elsewhere.  The
CLI maps both to its exit codes with one `error:` line, including for the
option values it leaves the library to check.
"""

import pytest

from peakpoly.cli import main
from peakpoly.engine import (
    count_via_formula,
    count_via_recursion,
    derived_sets,
    insertion_cases,
    peak_polynomial,
)
from peakpoly.perms import (
    InadmissibleSetError,
    as_peak_set,
    count_bruteforce,
    group_permutations_by_peak_set,
    is_admissible,
    is_structurally_admissible,
    permutations_with_peak_set,
    structural_violation,
)
from peakpoly.verify import (
    verify_counts,
    verify_log_concavity,
    verify_positivity,
    verify_set,
)

MALFORMED = {
    "non-integer": ("a",),
    "float": (2.5,),
    "bool": (True,),
    "zero": (0, 4),
    "duplicate": (4, 4),
    "descending": (6, 4),
}
INADMISSIBLE = {"contains 1": (1, 4), "adjacent pair": (3, 4)}

# entry point -> (call on a set, whether it needs an admissible set)
ENTRY_POINTS = {
    "as_peak_set": (as_peak_set, False),
    "structural_violation": (structural_violation, False),
    "is_structurally_admissible": (is_structurally_admissible, False),
    "is_admissible": (lambda s: is_admissible(s, 6), False),
    "count_bruteforce": (lambda s: count_bruteforce(s, 6), False),
    "permutations_with_peak_set": (lambda s: permutations_with_peak_set(s, 6), False),
    "group_permutations_by_peak_set": (lambda s: group_permutations_by_peak_set(6, [s]),
                                       False),
    "derived_sets": (derived_sets, True),
    "peak_polynomial": (peak_polynomial, True),
    "count_via_formula": (lambda s: count_via_formula(s, 6), False),
    "count_via_recursion": (lambda s: count_via_recursion(s, 6), False),
    "insertion_cases": (lambda s: insertion_cases(s, 6), True),
    "verify_positivity": (lambda s: verify_positivity(s, 10), True),
    "verify_log_concavity": (verify_log_concavity, True),
    "verify_counts": (lambda s: verify_counts(s, 6), False),
    "verify_set": (verify_set, True),
    "verify_set counts only": (lambda s: verify_set(s, ("counts",)), False),
}

# library calls with an option value out of range -> the bound the error names
OPTION_CASES = [
    (lambda: verify_set((4, 6), ("counts",), n_max=6), "max(S) + 1 = 7"),
    (lambda: verify_set((2,), ("positivity", "counts"), n_max=-5), "max(S) + 1 = 3"),
    (lambda: verify_counts((2,), 1), "max(S) + 1 = 3"),
    (lambda: verify_counts((), 0), "1"),
]

# CLI calls whose bad option value or set only the library checks -> exit code
CLI_CASES = [
    (["poly", "--set", "4,6", "--center", "-1"], 1),
    (["table", "--set", "4,6", "--jmax", "-1"], 1),
    (["table", "--set", "4,6", "--kmin", "5", "--kmax", "2"], 1),
    (["count", "--set", "4,6", "--n", "0"], 1),
    (["count", "--set", "4,6", "--n", "0", "--method", "recursion"], 1),
    (["count", "--set", "4,6", "--n", "0", "--method", "brute"], 1),
    (["count", "--set", "4,6", "--n", "0", "--method", "all"], 1),
    (["sweep", "--max-m", "1"], 1),
    (["sweep", "--max-m", "5", "--jobs", "0"], 1),
    (["enumerate", "--n", "0"], 1),
    (["enumerate", "--n", "0", "--group-by-peaks"], 1),
    *((["poly", "--set", text], 1) for text in ("a", "2.5", "0,4", "4,4", "6,4", "2,,4")),
    *((["poly", "--set", text], 2) for text in ("1,4", "3,4")),
    (["verify", "--set", "3,4"], 2),
    (["verify", "--set", "2", "--checks", "counts", "--n-max", "1"], 1),
    (["verify", "--set", "2", "--checks", "counts", "--n-max", "-5"], 1),
    (["verify", "--set", "", "--checks", "counts", "--n-max", "0"], 1),
]


def test_sets_and_options_are_checked_at_the_boundary(capsys):
    for entry, (call, needs_admissible) in ENTRY_POINTS.items():
        for kind, s in MALFORMED.items():
            with pytest.raises(ValueError) as info:
                call(s)
            assert type(info.value) is ValueError, (entry, kind)
        for kind, s in INADMISSIBLE.items():
            if needs_admissible:
                with pytest.raises(InadmissibleSetError):
                    call(s)
            else:
                call(s)

    for call, bound in OPTION_CASES:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value).startswith(f"n_max must be >= {bound}, got "), bound

    for argv, code in CLI_CASES:
        assert main(argv) == code, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
