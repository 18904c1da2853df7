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
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.classification.degrees import ComplexityDegree, degree_from_width_bounds
from repro.decomposition.treedepth import EliminationForest
from repro.decomposition.treedepth_engine import TreedepthEngine, compute_treedepth
from repro.decomposition.width import (
    PATHWIDTH_EXACT_SIZE_LIMIT,
    TREEDEPTH_EXACT_SIZE_LIMIT,
    TREEWIDTH_EXACT_SIZE_LIMIT,
    width_profile_report_with_forest,
)
from repro.decomposition.width_engine import (
    PathwidthEngine,
    TreewidthEngine,
    engine_pathwidth,
    engine_treewidth,
)
from repro.exceptions import ClassificationError
from repro.homomorphism.core_engine import compute_core
from repro.structures.gaifman import gaifman_graph
from repro.structures.structure import Structure


#: The Gaifman-graph size up to which all three exact engines run: a core
#: this small gets its widths on demand, a bigger one eagerly, through the
#: facade's recognised shapes and heuristics.
LAZY_WIDTH_LIMIT = min(
    TREEWIDTH_EXACT_SIZE_LIMIT, PATHWIDTH_EXACT_SIZE_LIMIT, TREEDEPTH_EXACT_SIZE_LIMIT
)


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

    Widths left out of the constructor (as :func:`classify_structure`
    does for cores of at most :data:`LAZY_WIDTH_LIMIT` elements) are
    computed by the exact engines on first read.  :meth:`threshold_degree`
    stops each threshold question at its cheapest certificate instead.
    Tree depth is a capped search (the treedepth engine bounds td below by
    the longest path and cycle a DFS finds).  Treewidth and pathwidth are
    settled by their engine's root bounds unless the threshold falls
    between them: for tw a contraction-degeneracy lower bound and a
    min-fill incumbent, for pw the tw (or its lower bound) and the
    degeneracy below and the root's greedy layout above.  A width is
    stored only once it is proven exactly, so a core whose root bounds
    settle the question without meeting gets that width on first read.
    A lazy fill computes into locals and stores only finished values, so
    a concurrent reader may recompute but never sees half a result; no
    engine, memo or Gaifman graph outlives the call that needed it.
    """

    __slots__ = (
        "structure",
        "core",
        "core_certificate",
        "core_treewidth_exact",
        "core_pathwidth_exact",
        "core_treedepth_exact",
        "_treewidth",
        "_pathwidth",
        "_treedepth",
    )
    __hash__ = None  # type: ignore[assignment]  # mutable, compared by value

    def __init__(
        self,
        structure: Structure,
        core: Structure,
        core_treewidth: Optional[int] = None,
        core_pathwidth: Optional[int] = None,
        core_treedepth: Optional[int] = None,
        core_certificate: Optional[str] = None,
        core_elimination_forest: Optional[EliminationForest] = None,
        core_treewidth_exact: bool = True,
        core_pathwidth_exact: bool = True,
        core_treedepth_exact: bool = True,
    ) -> None:
        self.structure = structure
        self.core = core
        self.core_certificate = core_certificate
        self.core_treewidth_exact = core_treewidth_exact
        self.core_pathwidth_exact = core_pathwidth_exact
        self.core_treedepth_exact = core_treedepth_exact
        # None marks a measure not computed yet.  Tree depth and its forest
        # are stored as one pair, so they are never seen apart.
        self._treewidth = core_treewidth
        self._pathwidth = core_pathwidth
        self._treedepth: Optional[Tuple[int, Optional[EliminationForest]]] = (
            None if core_treedepth is None else (core_treedepth, core_elimination_forest)
        )

    # -- the widths, filled on first read ------------------------------------
    @property
    def core_treewidth(self) -> int:
        value = self._treewidth
        if value is None:
            value = engine_treewidth(gaifman_graph(self.core))
            self._treewidth = value
        return value

    @property
    def core_pathwidth(self) -> int:
        value = self._pathwidth
        if value is None:
            # pw ≥ tw: the exact treewidth seeds the search, as in the facade.
            hint = self.core_treewidth
            value = engine_pathwidth(gaifman_graph(self.core), lower_hint=hint)
            self._pathwidth = value
        return value

    def _depth(self) -> Tuple[int, Optional[EliminationForest]]:
        known = self._treedepth
        if known is None:
            result = compute_treedepth(gaifman_graph(self.core))
            known = (result.value, result.forest)
            self._treedepth = known
        return known

    @property
    def core_treedepth(self) -> int:
        return self._depth()[0]

    @property
    def core_elimination_forest(self) -> Optional[EliminationForest]:
        return self._depth()[1]

    @property
    def core_size(self) -> int:
        """Number of elements of the core."""
        return len(self.core)

    def adopt_widths(self, other: "StructureProfile") -> None:
        """Take the widths ``other`` has computed that this profile lacks.

        ``other`` must have an equal core: the widths are the core's, so
        they are the same values whichever profile computed them.
        """
        if self._treewidth is None:
            self._treewidth = other._treewidth
        if self._pathwidth is None:
            self._pathwidth = other._pathwidth
        if self._treedepth is None:
            self._treedepth = other._treedepth

    # -- the route decision ---------------------------------------------------
    def threshold_degree(
        self, treedepth_max: int, pathwidth_max: int, treewidth_max: int
    ) -> ComplexityDegree:
        """The Theorem 3.1 degree of the core under width thresholds (see
        :func:`~repro.classification.solver_dispatch.choose_degree`).

        Known widths — all of them on a profile given its widths — are
        compared in the order tw → pw → td.  Otherwise each question is a
        capped search, and tree depth goes first: tw ≤ pw ≤ td − 1, so
        ``td ≤ treedepth_max`` with ``td − 1`` within both other thresholds
        settles para-L, and the same engine yields the forest.  Then tw:
        the treewidth engine's root bounds settle it unless
        ``treewidth_max`` falls between them, and only then does a capped
        search run.  Then pw the same way, from the pathwidth engine's root
        bounds: the root's greedy layout above, and below the tw when it is
        known (its lower bound otherwise) and the degeneracy.
        """
        treedepth = self._treedepth
        if None not in (self._treewidth, self._pathwidth, treedepth):
            if self._treewidth > treewidth_max:
                return ComplexityDegree.W1_HARD
            if self._pathwidth > pathwidth_max:
                return ComplexityDegree.TREE_COMPLETE
            if treedepth[0] > treedepth_max:
                return ComplexityDegree.PATH_COMPLETE
            return ComplexityDegree.PARA_L
        graph = gaifman_graph(self.core)
        if treedepth is None:
            engine = TreedepthEngine(graph)
            value = engine.value(treedepth_max)
            if value <= treedepth_max:
                treedepth = self._treedepth = (value, engine.forest())
        shallow = treedepth is not None and treedepth[0] <= treedepth_max
        if shallow and treedepth[0] - 1 <= min(pathwidth_max, treewidth_max):
            return ComplexityDegree.PARA_L
        # A width is stored only once proven: a bound that answers the
        # question without the value waits for a read.
        treewidth = self._treewidth
        if treewidth is None:
            treewidth, proven = _settle(TreewidthEngine(graph), treewidth_max)
            if proven:
                self._treewidth = treewidth
        if treewidth > treewidth_max:
            return ComplexityDegree.W1_HARD
        pathwidth = self._pathwidth
        if pathwidth is None:
            # pw ≥ tw: the exact tw, or its root lower bound, bounds pw below.
            engine = PathwidthEngine(graph, lower_hint=treewidth)
            pathwidth, proven = _settle(engine, pathwidth_max)
            if proven:
                self._pathwidth = pathwidth
        if pathwidth > pathwidth_max:
            return ComplexityDegree.TREE_COMPLETE
        if shallow:
            return ComplexityDegree.PARA_L
        return ComplexityDegree.PATH_COMPLETE

    # -- value semantics --------------------------------------------------------
    def _arguments(self) -> Tuple:
        """The constructor arguments that rebuild this profile with every
        width filled in (the missing ones are computed)."""
        depth, forest = self._depth()
        return (
            self.structure,
            self.core,
            self.core_treewidth,
            self.core_pathwidth,
            depth,
            self.core_certificate,
            forest,
            self.core_treewidth_exact,
            self.core_pathwidth_exact,
            self.core_treedepth_exact,
        )

    def __reduce__(self) -> Tuple:
        # A profile crossing a process boundary carries every width, so a
        # receiver never classifies again, and pickles the same way
        # whichever widths were read.
        return (StructureProfile, self._arguments())

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._arguments() == other._arguments()  # type: ignore[union-attr]

    def __repr__(self) -> str:
        def shown(value: object) -> str:
            return "?" if value is None else repr(value)

        depth = None if self._treedepth is None else self._treedepth[0]
        return (
            f"StructureProfile(core_size={self.core_size}, "
            f"core_treewidth={shown(self._treewidth)}, "
            f"core_pathwidth={shown(self._pathwidth)}, "
            f"core_treedepth={shown(depth)}, "
            f"core_certificate={self.core_certificate!r})"
        )


def _settle(engine: Union[TreewidthEngine, PathwidthEngine], cap: int) -> Tuple[int, bool]:
    """Answer "width ≤ cap?" by the engine's root bounds, and by a capped
    search only when ``cap`` falls between them.

    Returns a lower bound on the width that is at most ``cap`` exactly
    when the width is, and whether it is the width itself (the bounds
    met, or the search settled the value).
    """
    lower, upper = engine.root_bounds()
    if lower <= cap < upper:
        lower = engine.value(cap)
        if lower <= cap:
            upper = lower
    return lower, lower == upper


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
    query patterns the workload scenarios generate.  A core inside the
    exact engines' window (:data:`LAZY_WIDTH_LIMIT`) gets its widths on
    demand; a bigger one gets all three here.
    """
    computation = compute_core(structure)
    if 0 < len(computation.core) <= LAZY_WIDTH_LIMIT:
        return StructureProfile(
            structure, computation.core, core_certificate=computation.certificate
        )
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
