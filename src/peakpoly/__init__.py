"""Exact peak-set statistics of permutations.

Peak polynomials in a binomial-coefficient basis, three independent ways
of counting permutations by peak set, and verification sweeps over all
admissible peak sets up to a bound.  Everything runs in arbitrary-precision
integer arithmetic; nothing here is floating point.
"""

from peakpoly.engine import (
    DerivedPair,
    count_via_formula,
    count_via_recursion,
    derived_sets,
    insertion_cases,
    peak_polynomial,
)
from peakpoly.intpoly import (
    BinomialPolynomial,
    DifferenceTable,
    binomial,
    binomial_row,
    sum_polynomials,
)
from peakpoly.perms import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    InadmissibleSetError,
    as_peak_set,
    count_bruteforce,
    enumerate_by_peak_set,
    is_admissible,
    is_structurally_admissible,
    peak_set,
    permutations_with_peak_set,
    structural_violation,
    structurally_admissible_sets,
)
from peakpoly.verify import (
    CheckResult,
    SweepSummary,
    VerificationReport,
    sweep,
    verify_counts,
    verify_log_concavity,
    verify_positivity,
    verify_set,
)

__version__ = "0.1.0"

__all__ = [
    "BinomialPolynomial",
    "CheckResult",
    "DEFAULT_ENUMERATION_CAP",
    "DerivedPair",
    "DifferenceTable",
    "EnumerationCapError",
    "InadmissibleSetError",
    "SweepSummary",
    "VerificationReport",
    "as_peak_set",
    "binomial",
    "binomial_row",
    "count_bruteforce",
    "count_via_formula",
    "count_via_recursion",
    "derived_sets",
    "enumerate_by_peak_set",
    "insertion_cases",
    "is_admissible",
    "is_structurally_admissible",
    "peak_polynomial",
    "peak_set",
    "permutations_with_peak_set",
    "structural_violation",
    "structurally_admissible_sets",
    "sum_polynomials",
    "sweep",
    "verify_counts",
    "verify_log_concavity",
    "verify_positivity",
    "verify_set",
]
