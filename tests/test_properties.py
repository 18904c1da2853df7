"""Property-based tests (hypothesis) for core data structures and invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.decomposition import (
    TreeDecomposition,
    exact_pathwidth,
    exact_treedepth,
    exact_treewidth,
    exact_elimination_forest,
    min_fill_ordering,
    optimal_path_decomposition,
    optimal_tree_decomposition,
    ordering_width,
    path_decomposition_from_ordering,
)
from repro.graphlib import Graph, connected_components
from oracles.decomposition_solver import count_homomorphisms_td, homomorphism_exists_pd
from repro.homomorphism import (
    core,
    count_homomorphisms,
    has_homomorphism,
    homomorphically_equivalent,
    homomorphism_exists_treedepth,
    is_homomorphism,
)
from repro.logic import model_check, canonical_query, treedepth_sentence
from repro.structures import (
    are_isomorphic,
    decode_structure,
    encode_structure,
    gaifman_graph,
    graph_structure,
    star_expansion,
    strip_star_expansion,
)

# ---------------------------------------------------------------------------
# graph strategies
# ---------------------------------------------------------------------------

MAX_VERTICES = 7


@st.composite
def small_graphs(draw, min_vertices: int = 1, max_vertices: int = MAX_VERTICES):
    """Random simple graphs on at most MAX_VERTICES vertices."""
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    vertices = list(range(n))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True) if possible else st.just([]))
    return Graph(vertices, edges)


@st.composite
def small_graphs_with_edges(draw):
    """Random graphs guaranteed to have at least one edge."""
    graph = draw(small_graphs(min_vertices=2))
    if graph.number_of_edges() == 0:
        vertices = sorted(graph.vertices)
        graph = Graph(vertices, [(vertices[0], vertices[1])])
    return graph


# ---------------------------------------------------------------------------
# width-measure invariants
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_width_inequalities_hold(graph):
    """tw ≤ pw ≤ td − 1 for every non-empty graph (Section 2.2)."""
    if len(graph) == 0:
        return
    tw = exact_treewidth(graph)
    pw = exact_pathwidth(graph)
    td = exact_treedepth(graph)
    assert tw <= pw <= td - 1
    assert td <= len(graph)


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_elimination_forest_witnesses_treedepth(graph):
    if len(graph) == 0:
        return
    forest = exact_elimination_forest(graph)
    assert forest.witnesses(graph)
    assert forest.height() == exact_treedepth(graph)


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_min_fill_is_a_valid_upper_bound(graph):
    if len(graph) == 0:
        return
    ordering = min_fill_ordering(graph)
    width = ordering_width(graph, ordering)
    assert width >= exact_treewidth(graph)
    decomposition = TreeDecomposition.from_elimination_ordering(graph, ordering)
    decomposition.validate(graph)
    assert decomposition.width() == width


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_path_decomposition_from_any_ordering_is_valid(graph):
    if len(graph) == 0:
        return
    ordering = sorted(graph.vertices)
    decomposition = path_decomposition_from_ordering(graph, ordering)
    decomposition.validate(graph)
    assert decomposition.width() >= exact_pathwidth(graph)


@settings(max_examples=25, deadline=None)
@given(small_graphs())
def test_treedepth_at_most_one_plus_subgraph(graph):
    """Removing a vertex decreases tree depth by at most one (per component)."""
    if len(graph) <= 1:
        return
    td = exact_treedepth(graph)
    vertex = sorted(graph.vertices)[0]
    smaller = graph.remove_vertex(vertex)
    if len(smaller) == 0:
        return
    td_smaller = max(
        exact_treedepth(graph.subgraph(component))
        for component in connected_components(smaller)
    )
    assert td_smaller <= td <= td_smaller + 1


# ---------------------------------------------------------------------------
# structure / encoding invariants
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(small_graphs_with_edges())
def test_encoding_roundtrip(graph):
    structure = graph_structure(graph)
    assert are_isomorphic(structure, decode_structure(encode_structure(structure)))


@settings(max_examples=30, deadline=None)
@given(small_graphs_with_edges())
def test_star_expansion_roundtrip_and_core(graph):
    structure = graph_structure(graph)
    starred = star_expansion(structure)
    assert strip_star_expansion(starred) == structure
    # Star expansions are cores (Example 2.1): the computed core is everything.
    assert len(core(starred)) == len(structure)


@settings(max_examples=25, deadline=None)
@given(small_graphs_with_edges())
def test_gaifman_graph_of_graph_structure_is_the_graph(graph):
    assert gaifman_graph(graph_structure(graph)) == graph


# ---------------------------------------------------------------------------
# homomorphism invariants
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(small_graphs_with_edges(), small_graphs_with_edges())
def test_specialised_solvers_agree_with_bruteforce(pattern_graph, target_graph):
    pattern = graph_structure(pattern_graph)
    target = graph_structure(target_graph)
    expected = has_homomorphism(pattern, target)
    decomposition = optimal_tree_decomposition(pattern)
    assert (count_homomorphisms_td(pattern, target, decomposition) > 0) == expected
    assert homomorphism_exists_pd(pattern, target, optimal_path_decomposition(pattern)) == expected
    assert homomorphism_exists_treedepth(pattern, target) == expected


@settings(max_examples=25, deadline=None)
@given(small_graphs_with_edges(), small_graphs_with_edges())
def test_dp_counting_matches_bruteforce(pattern_graph, target_graph):
    pattern = graph_structure(pattern_graph)
    target = graph_structure(target_graph)
    decomposition = optimal_tree_decomposition(pattern)
    assert count_homomorphisms_td(pattern, target, decomposition) == count_homomorphisms(
        pattern, target
    )


@settings(max_examples=20, deadline=None)
@given(small_graphs_with_edges())
def test_core_is_homomorphically_equivalent_and_minimal(graph):
    structure = graph_structure(graph)
    core_structure = core(structure)
    assert homomorphically_equivalent(structure, core_structure)
    # The core of the core is the core itself (idempotence up to isomorphism).
    assert len(core(core_structure)) == len(core_structure)


@settings(max_examples=20, deadline=None)
@given(small_graphs_with_edges(), small_graphs_with_edges())
def test_homomorphism_composition_closure(left_graph, right_graph):
    """If hom(A→B) and hom(B→C) exist then hom(A→C) exists."""
    a = graph_structure(left_graph)
    b = graph_structure(right_graph)
    from repro.structures import cycle

    c = cycle(3)
    if has_homomorphism(a, b) and has_homomorphism(b, c):
        assert has_homomorphism(a, c)


@settings(max_examples=20, deadline=None)
@given(small_graphs_with_edges(), small_graphs_with_edges())
def test_canonical_query_agrees_with_homomorphism(pattern_graph, target_graph):
    """Chandra–Merlin: B ⊨ φ_A  iff  hom(A → B)."""
    pattern = graph_structure(pattern_graph)
    target = graph_structure(target_graph)
    assert model_check(target, canonical_query(pattern)) == has_homomorphism(pattern, target)


@settings(max_examples=15, deadline=None)
@given(small_graphs_with_edges(), small_graphs_with_edges())
def test_treedepth_sentence_agrees_with_homomorphism(pattern_graph, target_graph):
    """Lemma 3.3: the tree-depth sentence of A is equivalent to hom(A → ·)."""
    pattern = graph_structure(pattern_graph)
    target = graph_structure(target_graph)
    sentence = treedepth_sentence(pattern)
    assert model_check(target, sentence) == has_homomorphism(pattern, target)
