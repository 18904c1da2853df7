"""Tests for tree/path decompositions, exact widths, tree depth and nice decompositions."""

import pickle

import pytest

from conftest import (
    assert_valid_path_decomposition,
    assert_valid_tree_decomposition,
)
from repro.decomposition import (
    EliminationForest,
    PathDecomposition,
    TreeDecomposition,
    decomposition_of_forest,
    dfs_elimination_forest,
    exact_elimination_forest,
    exact_pathwidth,
    exact_pathwidth_layout,
    exact_treedepth,
    exact_treewidth,
    exact_treewidth_ordering,
    graph_pathwidth,
    graph_treedepth,
    graph_treewidth,
    make_nice,
    min_degree_ordering,
    min_fill_ordering,
    optimal_elimination_forest,
    optimal_path_decomposition,
    optimal_tree_decomposition,
    ordering_width,
    path_decomposition_from_ordering,
    path_decomposition_of_path,
    treedepth_upper_bound,
    width_profile,
)
from repro.exceptions import DecompositionError
from repro.graphlib import Graph
from repro.structures import (
    clique_graph,
    complete_binary_tree_graph,
    cycle,
    cycle_graph,
    grid_graph,
    path,
    path_graph,
    star_graph,
)


class TestTreeDecomposition:
    def test_trivial_decomposition_valid(self):
        graph = cycle_graph(5)
        decomposition = TreeDecomposition.trivial(graph)
        decomposition.validate(graph)
        assert decomposition.width() == 4

    def test_elimination_ordering_cycle(self):
        graph = cycle_graph(6)
        decomposition = TreeDecomposition.from_elimination_ordering(
            graph, sorted(graph.vertices)
        )
        decomposition.validate(graph)
        assert_valid_tree_decomposition(graph, decomposition, 2)

    def test_validation_catches_missing_edge(self):
        graph = cycle_graph(3)
        tree = Graph(["a", "b"], [("a", "b")])
        bad = TreeDecomposition(tree, {"a": {1, 2}, "b": {2, 3}})
        with pytest.raises(DecompositionError):
            bad.validate(graph)

    def test_validation_catches_disconnected_occurrence(self):
        graph = Graph([1, 2, 3], [(1, 2), (2, 3)])
        tree = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        bad = TreeDecomposition(tree, {"a": {1, 2}, "b": {2, 3}, "c": {1}})
        with pytest.raises(DecompositionError):
            bad.validate(graph)

    def test_node_graph_must_be_tree(self):
        with pytest.raises(DecompositionError):
            TreeDecomposition(cycle_graph(3), {1: {1}, 2: {2}, 3: {3}})

    def test_forest_decomposition(self):
        graph = Graph([1, 2, 3, 4, 5], [(1, 2), (2, 3), (4, 5)])
        decomposition = decomposition_of_forest(graph)
        decomposition.validate(graph)
        assert decomposition.width() == 1

    def test_optimal_decomposition_width_matches_exact(self):
        for graph in [cycle_graph(5), grid_graph(2, 3), complete_binary_tree_graph(2)]:
            from repro.structures import graph_structure

            decomposition = optimal_tree_decomposition(graph_structure(graph))
            decomposition.validate(graph)
            assert_valid_tree_decomposition(graph, decomposition, exact_treewidth(graph))


class TestPathDecomposition:
    def test_from_ordering_path(self):
        graph = path_graph(6)
        decomposition = path_decomposition_from_ordering(graph, [1, 2, 3, 4, 5, 6])
        decomposition.validate(graph)
        assert_valid_path_decomposition(graph, decomposition, 1)

    def test_of_path_builder(self):
        decomposition = path_decomposition_of_path(path_graph(5))
        assert decomposition.width() == 1

    def test_validation_catches_nonconsecutive(self):
        bad = PathDecomposition([frozenset({1, 2}), frozenset({3}), frozenset({1, 3})])
        with pytest.raises(DecompositionError):
            bad.validate(Graph([1, 2, 3], [(1, 2), (1, 3)]))

    def test_as_tree_decomposition(self):
        graph = cycle_graph(4)
        layout = sorted(graph.vertices)
        decomposition = path_decomposition_from_ordering(graph, layout)
        tree_version = decomposition.as_tree_decomposition()
        tree_version.validate(graph)
        assert tree_version.width() == decomposition.width()

    def test_optimal_path_decomposition(self):
        from repro.structures import graph_structure

        for graph in [cycle_graph(5), star_graph(4), grid_graph(2, 3)]:
            decomposition = optimal_path_decomposition(graph_structure(graph))
            decomposition.validate(graph)
            assert_valid_path_decomposition(graph, decomposition, exact_pathwidth(graph))


class TestExactWidths:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (path_graph(6), 1),
            (cycle_graph(5), 2),
            (clique_graph(4), 3),
            (grid_graph(2, 3), 2),
            (grid_graph(3, 3), 3),
            (star_graph(5), 1),
            (complete_binary_tree_graph(2), 1),
        ],
    )
    def test_treewidth_known_values(self, graph, expected):
        assert exact_treewidth(graph) == expected

    @pytest.mark.parametrize(
        "graph,expected",
        [
            (path_graph(6), 1),
            (cycle_graph(5), 2),
            (clique_graph(4), 3),
            (star_graph(4), 1),
            (complete_binary_tree_graph(2), 1),
            (grid_graph(2, 3), 2),
        ],
    )
    def test_pathwidth_known_values(self, graph, expected):
        assert exact_pathwidth(graph) == expected

    @pytest.mark.parametrize(
        "graph,expected",
        [
            (path_graph(1), 1),
            (path_graph(2), 2),
            (path_graph(3), 2),
            (path_graph(7), 3),
            (star_graph(5), 2),
            (cycle_graph(5), 4),
            (clique_graph(4), 4),
            (complete_binary_tree_graph(2), 3),
        ],
    )
    def test_treedepth_known_values(self, graph, expected):
        assert exact_treedepth(graph) == expected

    def test_treewidth_ordering_realises_width(self):
        graph = grid_graph(2, 4)
        width, ordering = exact_treewidth_ordering(graph)
        assert ordering_width(graph, ordering) == width == exact_treewidth(graph)

    def test_pathwidth_layout_realises_width(self):
        graph = cycle_graph(6)
        width, layout = exact_pathwidth_layout(graph)
        decomposition = path_decomposition_from_ordering(graph, layout)
        assert width == exact_pathwidth(graph)
        assert_valid_path_decomposition(graph, decomposition, width)

    def test_width_inequalities(self):
        # td - 1 >= pw >= tw for every graph (standard inequalities).
        for graph in [path_graph(6), cycle_graph(6), grid_graph(2, 3), star_graph(4)]:
            tw = exact_treewidth(graph)
            pw = exact_pathwidth(graph)
            td = exact_treedepth(graph)
            assert tw <= pw <= td - 1

    def test_heuristics_are_upper_bounds(self):
        for graph in [cycle_graph(6), grid_graph(2, 4), complete_binary_tree_graph(2)]:
            assert ordering_width(graph, min_fill_ordering(graph)) >= exact_treewidth(graph)
            assert ordering_width(graph, min_degree_ordering(graph)) >= exact_treewidth(graph)
            assert graph_treewidth(graph, exact=False) >= exact_treewidth(graph)
            assert graph_pathwidth(graph, exact=False) >= exact_pathwidth(graph)
            assert graph_treedepth(graph, exact=False) >= exact_treedepth(graph)

    def test_width_profile_facade(self):
        tw, pw, td = width_profile(cycle(5))
        assert (tw, pw, td) == (2, 2, 4)


class TestEliminationForest:
    def test_optimal_forest_witnesses_and_height(self):
        graph = cycle_graph(5)
        forest = exact_elimination_forest(graph)
        assert forest.witnesses(graph)
        assert forest.height() == exact_treedepth(graph)

    def test_forest_on_disconnected_graph(self):
        graph = Graph([1, 2, 3, 4], [(1, 2), (3, 4)])
        forest = exact_elimination_forest(graph)
        assert forest.witnesses(graph)
        assert len(forest.roots) == 2

    def test_dfs_forest_upper_bound(self):
        graph = grid_graph(2, 3)
        forest = dfs_elimination_forest(graph)
        assert forest.witnesses(graph)
        assert treedepth_upper_bound(graph) >= exact_treedepth(graph)

    def test_root_path_and_depth(self):
        forest = exact_elimination_forest(path_graph(7))
        deepest = max(forest.vertices(), key=forest.depth)
        assert forest.depth(deepest) == forest.height()
        assert forest.root_path(deepest)[0] in forest.roots

    def test_structure_facade(self):
        forest = optimal_elimination_forest(path(7))
        assert forest.height() == 3

    def test_children_in_repr_order(self):
        parent = {"b": "r", 10: "r", 2: "r", "a": "b", "leaf": 2}
        forest = EliminationForest(parent, ["r"])
        assert forest.children("r") == ["b", 10, 2]
        assert forest.children("b") == ["a"]
        assert forest.children("a") == []
        # Callers get a copy: mutating it leaves the forest as it was.
        forest.children("r").clear()
        assert forest.children("r") == ["b", 10, 2]

    def test_pickle_leaves_out_the_children_map(self):
        forest = exact_elimination_forest(path_graph(7))
        fresh = pickle.dumps(forest)
        children = {v: forest.children(v) for v in forest.vertices()}
        assert pickle.dumps(forest) == fresh
        copy = pickle.loads(fresh)
        assert {v: copy.children(v) for v in copy.vertices()} == children
        assert copy.parent == forest.parent and copy.roots == forest.roots

    def test_forests_compare_and_hash_by_parent_map_and_roots(self):
        forest = EliminationForest({"a": "r", "b": "r", "c": "s"}, ["r", "s"])
        same = EliminationForest({"c": "s", "b": "r", "a": "r"}, ["s", "r"])
        copy = pickle.loads(pickle.dumps(forest))
        assert forest == same == copy
        assert hash(forest) == hash(same) == hash(copy)
        assert len({forest, same, copy}) == 1
        assert forest != EliminationForest({"a": "r", "b": "a", "c": "s"}, ["r", "s"])
        assert forest != EliminationForest({"a": "r", "b": "r"}, ["r", "s", "c"])
        assert forest != {"a": "r", "b": "r", "c": "s"}


class TestNiceDecomposition:
    def test_make_nice_preserves_width(self):
        from repro.structures import graph_structure

        for graph in [cycle_graph(5), grid_graph(2, 3), star_graph(3)]:
            decomposition = optimal_tree_decomposition(graph_structure(graph))
            nice = make_nice(decomposition)
            assert nice.width() == decomposition.width()
            assert nice.root.bag == frozenset()

    def test_nice_nodes_locally_valid(self):
        from repro.structures import graph_structure

        decomposition = optimal_tree_decomposition(graph_structure(cycle_graph(6)))
        nice = make_nice(decomposition)
        for node in nice.postorder():
            node.validate()
        assert nice.number_of_nodes() >= len(decomposition.tree.vertices)
