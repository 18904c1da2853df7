"""Tests for minor maps, minor search and the excluded-minor facts of Theorem 2.3."""

import itertools

import pytest

from repro.decomposition import exact_pathwidth, exact_treedepth, exact_treewidth
from repro.exceptions import StructureError
from repro.graphlib import Graph
from repro.minors import (
    MinorMap,
    excludes_minor,
    find_minor_map,
    has_minor,
    largest_path_minor,
    random_minor,
)
from repro.minors.search import _search_minor_map
from repro.structures import (
    clique_graph,
    complete_binary_tree_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)


class TestMinorMap:
    def test_valid_map_accepted(self):
        host = cycle_graph(6)
        pattern = cycle_graph(3)
        minor_map = MinorMap({1: {1, 2}, 2: {3, 4}, 3: {5, 6}})
        minor_map.validate(pattern, host)

    def test_disjointness_enforced(self):
        host = cycle_graph(4)
        pattern = path_graph(2)
        bad = MinorMap({1: {1, 2}, 2: {2, 3}})
        with pytest.raises(StructureError):
            bad.validate(pattern, host)

    def test_connectivity_enforced(self):
        host = path_graph(4)
        pattern = path_graph(2)
        bad = MinorMap({1: {1, 3}, 2: {2}})
        with pytest.raises(StructureError):
            bad.validate(pattern, host)

    def test_edge_realisation_enforced(self):
        host = Graph([1, 2, 3], [(1, 2)])
        pattern = path_graph(2)
        bad = MinorMap({1: {1}, 2: {3}})
        with pytest.raises(StructureError):
            bad.validate(pattern, host)


class TestMinorSearch:
    def test_triangle_minor_of_k4(self):
        assert has_minor(cycle_graph(3), clique_graph(4))

    def test_path_minor_of_grid(self):
        minor_map = find_minor_map(path_graph(4), grid_graph(2, 2))
        assert minor_map is not None

    def test_cycle_not_minor_of_tree(self):
        assert not has_minor(cycle_graph(3), complete_binary_tree_graph(3))

    def test_k4_not_minor_of_cycle(self):
        assert not has_minor(clique_graph(4), cycle_graph(6))

    def test_star_minor_of_binary_tree(self):
        assert has_minor(star_graph(3), complete_binary_tree_graph(2))

    def test_grid_minor_of_bigger_grid(self):
        assert has_minor(grid_graph(2, 2), grid_graph(2, 3))

    def test_excludes_minor_over_family(self):
        paths = [path_graph(k) for k in range(2, 7)]
        assert excludes_minor(paths, cycle_graph(3))
        assert not excludes_minor([grid_graph(2, 2)], cycle_graph(3))

    def test_largest_path_minor(self):
        assert largest_path_minor(path_graph(5)) == 5
        assert largest_path_minor(cycle_graph(5)) == 5
        assert largest_path_minor(star_graph(3)) == 3


def small_graphs(max_order):
    """Every graph on at most ``max_order`` vertices, one per isomorphism class."""
    graphs = []
    for order in range(max_order + 1):
        slots = list(itertools.combinations(range(order), 2))
        seen = set()
        for mask in range(1 << len(slots)):
            edges = [slot for index, slot in enumerate(slots) if mask >> index & 1]
            form = min(
                tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
                for p in itertools.permutations(range(order))
            )
            if form not in seen:
                seen.add(form)
                graphs.append(Graph(range(order), edges))
    return graphs


class TestPrunedSearch:
    def test_pruned_search_agrees_with_the_full_search(self):
        """The vertex, edge and cyclomatic-number prunes never drop a minor."""
        graphs = small_graphs(5)
        assert len(graphs) == 1 + 1 + 2 + 4 + 11 + 34
        for pattern, host in itertools.product(graphs, repeat=2):
            pruned = find_minor_map(pattern, host) is None
            assert pruned == (_search_minor_map(pattern, host) is None), (pattern, host)


class TestRandomMinorsAndMonotonicity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_minor_is_witnessed(self, seed):
        graph = grid_graph(2, 3)
        minor, minor_map = random_minor(graph, contractions=2, deletions=1, seed=seed)
        minor_map.validate(minor, graph)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_width_measures_minor_monotone(self, seed):
        """tw, pw, td never increase when passing to a minor (Section 2.2)."""
        graph = grid_graph(2, 3)
        minor, _ = random_minor(graph, contractions=2, deletions=1, seed=seed)
        if len(minor) == 0:
            return
        assert exact_treewidth(minor) <= exact_treewidth(graph)
        assert exact_pathwidth(minor) <= exact_pathwidth(graph)
        assert exact_treedepth(minor) <= exact_treedepth(graph)


class TestExcludedMinorCharacterisations:
    """Finite-sample versions of Theorem 2.3 (the easy directions)."""

    def test_bounded_treewidth_family_excludes_a_grid(self):
        # Trees have treewidth 1 and indeed exclude the 2x2 grid (= C4) as a minor.
        trees = [complete_binary_tree_graph(k) for k in (1, 2)]
        assert excludes_minor(trees, grid_graph(2, 2))

    def test_bounded_pathwidth_family_excludes_a_tree(self):
        # Paths (pathwidth 1) exclude the complete binary tree of height 2.
        paths = [path_graph(k) for k in range(2, 8)]
        assert excludes_minor(paths, complete_binary_tree_graph(2))

    def test_bounded_treedepth_family_excludes_a_path(self):
        # Stars (tree depth 2) exclude the path on 4 vertices as a minor.
        stars = [star_graph(k) for k in range(1, 6)]
        assert excludes_minor(stars, path_graph(4))

    def test_unbounded_families_contain_the_minors(self):
        # Grids contain every small grid; binary trees contain every small tree;
        # paths contain every shorter path.
        assert has_minor(grid_graph(2, 2), grid_graph(3, 3))
        assert has_minor(complete_binary_tree_graph(1), complete_binary_tree_graph(2))
        assert has_minor(path_graph(4), path_graph(6))
