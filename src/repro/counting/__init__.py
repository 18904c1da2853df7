"""Counting homomorphisms (Section 6).

The brute-force and forest-engine counters live next to the decision
solvers in :mod:`repro.homomorphism`; this package adds the Lemma 6.2
inclusion–exclusion Turing reduction, the Theorem 6.1 counting
classification, and :func:`count_hom`, the library's counting entry point.
"""

from repro.counting.classification import (
    COUNT_PATHWIDTH_THRESHOLD,
    COUNT_TREEDEPTH_THRESHOLD,
    COUNT_TREEWIDTH_THRESHOLD,
    CountResult,
    count_hom,
    counting_degree_for_family,
)
from repro.counting.inclusion_exclusion import (
    count_bijective_endomorphisms,
    count_star_homomorphisms_via_oracle,
)

__all__ = [
    "CountResult",
    "count_hom",
    "counting_degree_for_family",
    "count_star_homomorphisms_via_oracle",
    "count_bijective_endomorphisms",
    "COUNT_TREEDEPTH_THRESHOLD",
    "COUNT_PATHWIDTH_THRESHOLD",
    "COUNT_TREEWIDTH_THRESHOLD",
]
