"""Homomorphism and embedding engines.

* :mod:`repro.homomorphism.backtracking` — generic CSP-style solver
  (ground truth for all specialised algorithms).
* :mod:`repro.homomorphism.obstructions` — vocabulary-level obstruction
  checks (nullary atoms) shared by every solver.
* :mod:`repro.homomorphism.cores` — cores and homomorphic equivalence,
  backed by the rigidity-certified core engine.
* :mod:`repro.homomorphism.core_engine` — fold elimination, rigidity
  certificates, and the single non-surjective-endomorphism search
  behind ``core``, compiled once per call onto element bitmasks.
* :mod:`repro.homomorphism.treedepth_solver` — the forest engine: the
  recursion of Lemma 3.3 along an elimination forest, memoised on each
  vertex's boundary, compiled once per solver and driven by the
  target's hash indexes.  It runs every bounded decision route and every
  bounded count.

The seed core loop, the semiring join engine and the decomposition DP
it replaced are kept with the tests (``tests/oracles/``) as references.
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
)
from repro.homomorphism.obstructions import nullary_obstruction
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
    "TreeDepthSolver",
    "homomorphism_exists_treedepth",
    "count_homomorphisms_treedepth",
]
