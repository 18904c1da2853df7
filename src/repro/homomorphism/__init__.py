"""Homomorphism and embedding engines.

* :mod:`repro.homomorphism.backtracking` — generic CSP-style solver
  (ground truth for all specialised algorithms).
* :mod:`repro.homomorphism.obstructions` — vocabulary-level obstruction
  checks (nullary atoms) shared by every solver.
* :mod:`repro.homomorphism.cores` — cores and homomorphic equivalence,
  backed by the rigidity-certified core engine; the ``legacy_*``
  variants keep the seed's per-element restart loop.
* :mod:`repro.homomorphism.core_engine` — fold elimination, rigidity
  certificates, and the single non-surjective-endomorphism search
  behind ``core``, compiled once per call onto element bitmasks.
* :mod:`repro.homomorphism.join_engine` — the semiring join engine:
  indexed, semiring-parameterized DP over tree/path decompositions (one
  code path for existence and counting).
* :mod:`repro.homomorphism.decomposition_solver` — DP over tree / path
  decompositions (the FPT algorithm behind Lemma 3.4 / Theorem 4.6),
  routed through the join engine; the ``legacy_*`` variants keep the
  product-based reference implementation.
* :mod:`repro.homomorphism.treedepth_solver` — the bounded-tree-depth
  recursion of Lemma 3.3 (the para-L case of the classification),
  compiled once per solver and driven by the target's hash indexes.
"""

from repro.homomorphism.backtracking import (
    HomomorphismProblem,
    compatible,
    count_embeddings,
    count_homomorphisms,
    enumerate_homomorphisms,
    find_embedding,
    find_homomorphism,
    has_embedding,
    has_homomorphism,
    is_homomorphism,
    is_partial_homomorphism,
)
from repro.homomorphism.core_engine import (
    CoreComputation,
    compute_core,
    endomorphism_domains,
    find_fold,
    find_fold_batch,
    find_non_surjective_endomorphism,
    fold_reduce,
    rigidity_certificate,
)
from repro.homomorphism.cores import (
    core,
    core_with_witness,
    count_automorphisms,
    find_proper_retraction,
    homomorphically_equivalent,
    is_core,
    legacy_core,
    legacy_core_with_witness,
    legacy_find_proper_retraction,
    legacy_is_core,
)
from repro.homomorphism.obstructions import nullary_obstruction
from repro.homomorphism.decomposition_solver import (
    count_homomorphisms_pd,
    count_homomorphisms_td,
    homomorphism_exists_pd,
    homomorphism_exists_td,
    legacy_count_homomorphisms_td,
    legacy_homomorphism_exists_pd,
    legacy_homomorphism_exists_td,
)
from repro.homomorphism.join_engine import (
    BOOLEAN,
    COUNTING,
    MIN_PLUS,
    Semiring,
    count_homomorphisms_join,
    homomorphism_exists_join,
    iter_bag_assignments,
    run_decomposition_dp,
    run_path_sweep,
)
from repro.homomorphism.treedepth_solver import (
    TreeDepthSolver,
    count_homomorphisms_treedepth,
    homomorphism_exists_treedepth,
)

__all__ = [
    "HomomorphismProblem",
    "find_homomorphism",
    "has_homomorphism",
    "count_homomorphisms",
    "enumerate_homomorphisms",
    "find_embedding",
    "has_embedding",
    "count_embeddings",
    "is_homomorphism",
    "is_partial_homomorphism",
    "compatible",
    "nullary_obstruction",
    "core",
    "core_with_witness",
    "is_core",
    "find_proper_retraction",
    "homomorphically_equivalent",
    "count_automorphisms",
    "CoreComputation",
    "compute_core",
    "endomorphism_domains",
    "find_fold",
    "find_fold_batch",
    "find_non_surjective_endomorphism",
    "fold_reduce",
    "rigidity_certificate",
    "legacy_core",
    "legacy_core_with_witness",
    "legacy_find_proper_retraction",
    "legacy_is_core",
    "homomorphism_exists_td",
    "count_homomorphisms_td",
    "homomorphism_exists_pd",
    "count_homomorphisms_pd",
    "legacy_count_homomorphisms_td",
    "legacy_homomorphism_exists_td",
    "legacy_homomorphism_exists_pd",
    "Semiring",
    "BOOLEAN",
    "COUNTING",
    "MIN_PLUS",
    "run_decomposition_dp",
    "run_path_sweep",
    "homomorphism_exists_join",
    "count_homomorphisms_join",
    "iter_bag_assignments",
    "TreeDepthSolver",
    "homomorphism_exists_treedepth",
    "count_homomorphisms_treedepth",
]
