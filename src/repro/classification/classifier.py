"""The classifier: the paper's primary contribution as an executable API.

Theorem 3.1 classifies *classes* of structures by whether the treewidth,
pathwidth and tree depth of their cores are bounded.  A class is an
infinite object, so the classifier supports three progressively weaker
views of it:

* :func:`classify_with_bounds` — the caller asserts which measures are
  bounded (e.g. because the class is "all paths"); the theorem is applied
  literally.
* :func:`classify_family` — the caller supplies a *finite sample* of the
  class together with a growth-detection heuristic that decides, from the
  sampled core widths, which measures look bounded.  This is the honest
  empirical analogue used by the benchmarks: the per-structure numbers are
  exact, only the bounded/unbounded call is a heuristic.
* :func:`classify_structure` — the width profile of a single structure's
  core (the basic measurement the other two aggregate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence

from repro.classification.degrees import ComplexityDegree, degree_from_width_bounds
from repro.decomposition.treedepth import EliminationForest
from repro.decomposition.width import width_profile_report_with_forest
from repro.exceptions import ClassificationError
from repro.homomorphism.core_engine import compute_core
from repro.structures.structure import Structure


@dataclass
class StructureProfile:
    """Exact width measurements for one structure and its core.

    ``core_certificate`` records how the core engine proved core-ness:
    a rigidity-certificate tag (``"singleton"``, ``"clique"``,
    ``"odd-cycle"``, ``"ac-rigid"``) when classification skipped the
    endomorphism search entirely, or None when the exhaustive
    non-surjective-endomorphism search was needed.

    ``core_elimination_forest`` is the witness behind ``core_treedepth``:
    an elimination forest of the core's Gaifman graph whose height equals
    the reported depth (optimal within the treedepth engine's exact
    window, the heuristic DFS forest beyond it).  The para-L solver route
    consumes it directly instead of recomputing a forest per solve.

    The ``core_*_exact`` flags carry the per-measure certification status
    from :func:`repro.decomposition.width.width_profile_report_with_forest`:
    True when the value came from an exact engine window or a recognised
    closed-form shape, False when it is a heuristic upper bound.  The
    planner reads them to know whether a route decision rests on a
    certified width or on a guess.
    """

    structure: Structure
    core: Structure
    core_treewidth: int
    core_pathwidth: int
    core_treedepth: int
    core_certificate: Optional[str] = None
    core_elimination_forest: Optional[EliminationForest] = None
    core_treewidth_exact: bool = True
    core_pathwidth_exact: bool = True
    core_treedepth_exact: bool = True

    @property
    def core_size(self) -> int:
        """Number of elements of the core."""
        return len(self.core)

    def core_path_decomposition(self):
        """A good path decomposition of the core, built once per profile.

        Profiles are shared across a batch (and, through the caches,
        across batches), so memoising the decomposition here removes a
        per-solve rebuild from the PATH route — decompositions depend
        only on the core, exactly like the widths.  A certified exact
        pathwidth seeds the witness search as its lower bound, so the
        search does not deepen again from 0 to the value the classifier
        has just certified.
        """
        cached = getattr(self, "_path_decomposition", None)
        if cached is None:
            from repro.decomposition.path_decomposition import (
                path_decomposition_from_ordering,
            )
            from repro.decomposition.width import good_path_decomposition
            from repro.decomposition.width_engine import engine_pathwidth_layout
            from repro.structures.gaifman import gaifman_graph

            if self.core_pathwidth_exact:
                graph = gaifman_graph(self.core)
                _, layout = engine_pathwidth_layout(graph, self.core_pathwidth)
                cached = path_decomposition_from_ordering(graph, layout)
            else:
                cached = good_path_decomposition(self.core)
            self._path_decomposition = cached
        return cached

    def core_tree_decomposition(self):
        """A good tree decomposition of the core, built once per profile
        (the TREE-route sibling of :meth:`core_path_decomposition`)."""
        cached = getattr(self, "_tree_decomposition", None)
        if cached is None:
            from repro.decomposition.width import good_tree_decomposition

            cached = good_tree_decomposition(self.core)
            self._tree_decomposition = cached
        return cached


@dataclass
class ClassificationReport:
    """The outcome of classifying a (sampled) class of structures."""

    degree: ComplexityDegree
    profiles: List[StructureProfile] = field(default_factory=list)
    treewidth_bounded: bool = True
    pathwidth_bounded: bool = True
    treedepth_bounded: bool = True
    max_arity: int = 0
    notes: str = ""

    def width_series(self) -> dict:
        """Return the sampled width series keyed by measure name."""
        return {
            "treewidth": [profile.core_treewidth for profile in self.profiles],
            "pathwidth": [profile.core_pathwidth for profile in self.profiles],
            "treedepth": [profile.core_treedepth for profile in self.profiles],
        }

    def summary(self) -> str:
        """Return a human-readable one-paragraph summary."""
        series = self.width_series()
        return (
            f"degree: {self.degree.value} ({self.degree.paper_statement()}); "
            f"sampled core treewidths {series['treewidth']}, "
            f"pathwidths {series['pathwidth']}, tree depths {series['treedepth']}; "
            f"bounded: tw={self.treewidth_bounded}, pw={self.pathwidth_bounded}, "
            f"td={self.treedepth_bounded}. {self.notes}"
        ).strip()


def classify_structure(structure: Structure) -> StructureProfile:
    """Return the exact core width profile of a single structure.

    The core comes from the rigidity-certified engine
    (:func:`repro.homomorphism.core_engine.compute_core`): patterns whose
    cores fold away or certify rigid never pay for an endomorphism
    search, which is what keeps classification viable for the larger
    query patterns the workload scenarios generate.
    """
    computation = compute_core(structure)
    report, forest = width_profile_report_with_forest(computation.core)
    return StructureProfile(
        structure,
        computation.core,
        report.treewidth.value,
        report.pathwidth.value,
        report.treedepth.value,
        core_certificate=computation.certificate,
        core_elimination_forest=forest,
        core_treewidth_exact=report.treewidth.exact,
        core_pathwidth_exact=report.pathwidth.exact,
        core_treedepth_exact=report.treedepth.exact,
    )


def classify_with_bounds(
    treewidth_bounded: bool,
    pathwidth_bounded: bool,
    treedepth_bounded: bool,
    sample: Sequence[Structure] = (),
) -> ClassificationReport:
    """Apply Theorem 3.1 with caller-asserted boundedness facts."""
    profiles = [classify_structure(structure) for structure in sample]
    degree = degree_from_width_bounds(treewidth_bounded, pathwidth_bounded, treedepth_bounded)
    max_arity = max((p.structure.vocabulary.max_arity() for p in profiles), default=0)
    return ClassificationReport(
        degree=degree,
        profiles=profiles,
        treewidth_bounded=treewidth_bounded,
        pathwidth_bounded=pathwidth_bounded,
        treedepth_bounded=treedepth_bounded,
        max_arity=max_arity,
        notes="boundedness asserted by caller",
    )


def looks_bounded(values: Sequence[int], tail: int = 3, distinct_threshold: int = 3) -> bool:
    """Growth-detection heuristic on a width series sampled at increasing sizes.

    A series "looks unbounded" when it keeps climbing: it attains at least
    ``distinct_threshold`` distinct values, its overall maximum is realised
    within the last ``tail`` entries, and that maximum exceeds the first
    entry.  Otherwise it "looks bounded" — the measure has (so far) stopped
    growing even though the structures keep growing.

    This is necessarily a heuristic (boundedness of an infinite class is
    undecidable from a finite sample): slowly growing measures (e.g. the
    logarithmic tree depth of paths) need samples spanning enough scale to
    show three distinct values.  The tests exercise it on families whose
    true behaviour is known.
    """
    if not values:
        return True
    distinct = len(set(values))
    overall_max = max(values)
    tail_values = values[-tail:] if len(values) > tail else values
    keeps_climbing = (
        distinct >= distinct_threshold
        and overall_max in tail_values
        and overall_max > values[0]
    )
    return not keeps_climbing


def classify_family(
    sample: Iterable[Structure],
    boundedness_heuristic: Callable[[Sequence[int]], bool] = looks_bounded,
    max_arity_bound: Optional[int] = None,
) -> ClassificationReport:
    """Classify a class of structures from a finite, size-increasing sample.

    The sample should list class members of increasing size (the growth
    heuristic reads it as a series).  ``max_arity_bound`` optionally
    enforces the bounded-arity hypothesis of the theorem; exceeding it
    raises :class:`ClassificationError`.
    """
    profiles = [classify_structure(structure) for structure in sample]
    if not profiles:
        raise ClassificationError("cannot classify an empty sample")
    max_arity = max(p.structure.vocabulary.max_arity() for p in profiles)
    if max_arity_bound is not None and max_arity > max_arity_bound:
        raise ClassificationError(
            f"sample arity {max_arity} exceeds the declared bound {max_arity_bound}"
        )
    treewidths = [p.core_treewidth for p in profiles]
    pathwidths = [p.core_pathwidth for p in profiles]
    treedepths = [p.core_treedepth for p in profiles]
    tw_bounded = boundedness_heuristic(treewidths)
    pw_bounded = boundedness_heuristic(pathwidths)
    td_bounded = boundedness_heuristic(treedepths)
    degree = degree_from_width_bounds(tw_bounded, pw_bounded, td_bounded)
    return ClassificationReport(
        degree=degree,
        profiles=profiles,
        treewidth_bounded=tw_bounded,
        pathwidth_bounded=pw_bounded,
        treedepth_bounded=td_bounded,
        max_arity=max_arity,
        notes=f"boundedness inferred from a sample of {len(profiles)} structures",
    )
