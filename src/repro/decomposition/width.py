"""Width-measure facade for structures.

Convenience functions computing treewidth, pathwidth and tree depth of a
relational structure (via its Gaifman graph), choosing between the exact
algorithms (small graphs) and the heuristics (large graphs).  The
classification machinery uses the exact variants — the left-hand structures
of ``p-HOM`` are parameter-sized — while benchmark workloads may opt into
the heuristics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.decomposition.exact import (
    exact_pathwidth,
    exact_pathwidth_layout,
    exact_treewidth,
    exact_treewidth_ordering,
)
from repro.decomposition.heuristics import (
    bfs_layout,
    min_fill_ordering,
    ordering_width,
    vertex_separation_of_layout,
)
from repro.decomposition.width_engine import (
    engine_pathwidth,
    recognized_pathwidth,
    recognized_treewidth,
)
from repro.decomposition.path_decomposition import (
    PathDecomposition,
    path_decomposition_from_ordering,
)
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.decomposition.treedepth import (
    EliminationForest,
    dfs_elimination_forest,
    exact_elimination_forest,
    exact_treedepth,
    treedepth_upper_bound,
)
from repro.decomposition.treedepth_engine import recognized_treedepth
from repro.graphlib.graph import Graph
from repro.structures.gaifman import gaifman_graph
from repro.structures.structure import Structure

#: Treewidth and pathwidth exactness windows of the branch-and-bound
#: engines in :mod:`repro.decomposition.width_engine`.  Like the treedepth
#: engine before them they cover the 13–25-element Gaifman graphs of the
#: big rigid cores, and beyond the window the facade still answers exactly
#: when every component is a recognised closed-form shape (path / star /
#: cycle / clique / grid).
TREEWIDTH_EXACT_SIZE_LIMIT = 25
PATHWIDTH_EXACT_SIZE_LIMIT = 25

#: Tree depth keeps exactness further out: the branch-and-bound engine of
#: :mod:`repro.decomposition.treedepth_engine` handles the 13–25 element
#: Gaifman graphs of the big rigid cores (odd cycles, long directed paths,
#: folded grids) that the subset DPs could not reach.  Beyond the limit the
#: facade still answers exactly when every component is a recognised
#: closed-form shape (path / cycle / clique) — that is what keeps P30-scale
#: cores classified by depth instead of by the trivial DFS bound.
TREEDEPTH_EXACT_SIZE_LIMIT = 25


def treewidth(structure: Structure, exact: bool | None = None) -> int:
    """Return (an upper bound on) the treewidth of the structure.

    ``exact=None`` picks the exact engine when the Gaifman graph has at
    most :data:`TREEWIDTH_EXACT_SIZE_LIMIT` vertices or every component is
    a recognised closed-form shape, and the min-fill heuristic otherwise
    (see :func:`graph_treewidth`).
    """
    graph = gaifman_graph(structure)
    return graph_treewidth(graph, exact)


def graph_treewidth(graph: Graph, exact: bool | None = None) -> int:
    """Treewidth of a graph: exact through the branch-and-bound engine up
    to :data:`TREEWIDTH_EXACT_SIZE_LIMIT` vertices (and at any size for
    recognised closed-form shapes), min-fill upper bound beyond."""
    if exact is None:
        if len(graph) <= TREEWIDTH_EXACT_SIZE_LIMIT:
            exact = True
        else:
            recognised = recognized_treewidth(graph)
            if recognised is not None:
                return recognised
            exact = False
    if exact:
        return exact_treewidth(graph)
    return ordering_width(graph, min_fill_ordering(graph))


def pathwidth(structure: Structure, exact: bool | None = None) -> int:
    """Return (an upper bound on) the pathwidth of the structure."""
    graph = gaifman_graph(structure)
    return graph_pathwidth(graph, exact)


def graph_pathwidth(graph: Graph, exact: bool | None = None) -> int:
    """Pathwidth of a graph: exact through the branch-and-bound engine up
    to :data:`PATHWIDTH_EXACT_SIZE_LIMIT` vertices (and at any size for
    recognised closed-form shapes), BFS-layout upper bound beyond."""
    if exact is None:
        if len(graph) <= PATHWIDTH_EXACT_SIZE_LIMIT:
            exact = True
        else:
            recognised = recognized_pathwidth(graph)
            if recognised is not None:
                return recognised
            exact = False
    if exact:
        return exact_pathwidth(graph)
    layout = bfs_layout(graph)
    return vertex_separation_of_layout(graph, layout)


def treedepth(structure: Structure, exact: bool | None = None) -> int:
    """Return (an upper bound on) the tree depth of the structure."""
    graph = gaifman_graph(structure)
    return graph_treedepth(graph, exact)


def graph_treedepth(graph: Graph, exact: bool | None = None) -> int:
    """Tree depth of a graph: exact through the branch-and-bound engine up
    to :data:`TREEDEPTH_EXACT_SIZE_LIMIT` vertices (and at any size for
    recognised closed-form shapes), DFS-height upper bound beyond."""
    if exact is None:
        if len(graph) <= TREEDEPTH_EXACT_SIZE_LIMIT:
            exact = True
        else:
            recognised = recognized_treedepth(graph)
            if recognised is not None:
                return recognised
            exact = False
    if exact:
        return exact_treedepth(graph)
    return treedepth_upper_bound(graph)


def graph_elimination_forest(graph: Graph, exact: bool | None = None) -> EliminationForest:
    """An elimination forest of a graph under the same exactness policy as
    :func:`graph_treedepth`: height-optimal (engine witness) within the
    exact window or for recognised shapes, DFS forest beyond."""
    if exact is None:
        exact = (
            len(graph) <= TREEDEPTH_EXACT_SIZE_LIMIT
            or recognized_treedepth(graph) is not None
        )
    if exact:
        return exact_elimination_forest(graph)
    return dfs_elimination_forest(graph)


def optimal_tree_decomposition(structure: Structure) -> TreeDecomposition:
    """Return a width-optimal tree decomposition of the structure's Gaifman graph."""
    graph = gaifman_graph(structure)
    _, ordering = exact_treewidth_ordering(graph)
    return TreeDecomposition.from_elimination_ordering(graph, ordering)


def optimal_path_decomposition(structure: Structure) -> PathDecomposition:
    """Return a width-optimal path decomposition of the structure's Gaifman graph."""
    graph = gaifman_graph(structure)
    _, layout = exact_pathwidth_layout(graph)
    return path_decomposition_from_ordering(graph, layout)


def optimal_elimination_forest(structure: Structure) -> EliminationForest:
    """Return a height-optimal elimination forest of the structure's Gaifman graph."""
    return exact_elimination_forest(gaifman_graph(structure))


def good_tree_decomposition(structure: Structure) -> TreeDecomposition:
    """Return a tree decomposition: width-optimal (engine witness) within
    the exact window or for recognised shapes, min-fill otherwise."""
    graph = gaifman_graph(structure)
    if (
        len(graph) <= TREEWIDTH_EXACT_SIZE_LIMIT
        or recognized_treewidth(graph) is not None
    ):
        _, ordering = exact_treewidth_ordering(graph)
    else:
        ordering = min_fill_ordering(graph)
    return TreeDecomposition.from_elimination_ordering(graph, ordering)


def good_path_decomposition(structure: Structure) -> PathDecomposition:
    """Return a path decomposition: width-optimal (engine witness) within
    the exact window or for recognised shapes, BFS layout otherwise."""
    graph = gaifman_graph(structure)
    if (
        len(graph) <= PATHWIDTH_EXACT_SIZE_LIMIT
        or recognized_pathwidth(graph) is not None
    ):
        _, layout = exact_pathwidth_layout(graph)
    else:
        layout = bfs_layout(graph)
    return path_decomposition_from_ordering(graph, layout)


@dataclass(frozen=True)
class WidthMeasure:
    """One width measure with its certification status.

    ``exact=True`` means the value is certified (engine window or a
    recognised closed-form shape); ``exact=False`` marks a heuristic
    upper bound — the 13–25 window used to report those with no flag at
    all, which is exactly what routed planners onto guesses.
    """

    value: int
    exact: bool


@dataclass(frozen=True)
class WidthProfileReport:
    """The three width measures of a structure, each with an exactness flag."""

    treewidth: WidthMeasure
    pathwidth: WidthMeasure
    treedepth: WidthMeasure

    def values(self) -> Tuple[int, int, int]:
        """The bare ``(tw, pw, td)`` triple (legacy profile shape)."""
        return (self.treewidth.value, self.pathwidth.value, self.treedepth.value)


def width_profile(structure: Structure, exact: bool | None = None) -> Tuple[int, int, int]:
    """Return ``(treewidth, pathwidth, tree depth)`` of the structure.

    Exact within the per-measure engine windows
    (:data:`TREEWIDTH_EXACT_SIZE_LIMIT`, :data:`PATHWIDTH_EXACT_SIZE_LIMIT`,
    :data:`TREEDEPTH_EXACT_SIZE_LIMIT`) and for recognised closed-form
    shapes beyond; heuristic upper bounds otherwise.  Use
    :func:`width_profile_report` for per-measure exactness flags.
    """
    profile, _ = width_profile_with_forest(structure, exact)
    return profile


def width_profile_report(
    structure: Structure, exact: bool | None = None
) -> WidthProfileReport:
    """Return the width profile with a per-measure ``exact`` marker."""
    report, _ = width_profile_report_with_forest(structure, exact)
    return report


def width_profile_report_with_forest(
    structure: Structure, exact: bool | None = None
) -> Tuple[WidthProfileReport, EliminationForest]:
    """Return the flagged width profile plus the tree-depth witness forest.

    The exact pathwidth search is seeded with the exact treewidth as a
    lower bound (``pw ≥ tw``), so computing the full profile is cheaper
    than computing the measures separately.
    """
    graph = gaifman_graph(structure)
    forest = graph_elimination_forest(graph, exact)
    size = len(graph)

    if exact is True or (exact is None and size <= TREEWIDTH_EXACT_SIZE_LIMIT):
        tw = WidthMeasure(exact_treewidth(graph), True)
    else:
        recognised = None if exact is False else recognized_treewidth(graph)
        if recognised is not None:
            tw = WidthMeasure(recognised, True)
        else:
            tw = WidthMeasure(ordering_width(graph, min_fill_ordering(graph)), False)

    if exact is True or (exact is None and size <= PATHWIDTH_EXACT_SIZE_LIMIT):
        hint = tw.value if tw.exact else 0
        pw = WidthMeasure(engine_pathwidth(graph, lower_hint=hint), True)
    else:
        recognised = None if exact is False else recognized_pathwidth(graph)
        if recognised is not None:
            pw = WidthMeasure(recognised, True)
        else:
            pw = WidthMeasure(
                vertex_separation_of_layout(graph, bfs_layout(graph)), False
            )

    td_exact = exact is True or (
        exact is None
        and (
            size <= TREEDEPTH_EXACT_SIZE_LIMIT
            or recognized_treedepth(graph) is not None
        )
    )
    td = WidthMeasure(forest.height(), td_exact)
    return WidthProfileReport(treewidth=tw, pathwidth=pw, treedepth=td), forest


def width_profile_with_forest(
    structure: Structure, exact: bool | None = None
) -> Tuple[Tuple[int, int, int], EliminationForest]:
    """Return the width profile plus the elimination forest witnessing the
    tree depth entry.

    The forest is the engine's optimal witness within the exact window
    (its height *is* the reported tree depth) and the heuristic DFS forest
    beyond; either way ``forest.witnesses(gaifman_graph(structure))``
    holds, so callers — the classifier stores it on
    :class:`~repro.classification.classifier.StructureProfile` — can hand
    it straight to the para-L solver instead of recomputing one.
    """
    report, forest = width_profile_report_with_forest(structure, exact)
    return report.values(), forest
