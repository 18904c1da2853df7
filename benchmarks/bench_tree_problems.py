"""E8 — Theorems 5.6 / 5.7: TREE-complete problems.

Benchmarks homomorphism and embedding problems on the (directed) B-family
through the tree-decomposition DP (the test oracle the forest engine is
checked against), and the bounded-treewidth embedding
route (connectivization + colour coding), always asserting agreement with
brute force.
"""

import pytest

from oracles.decomposition_solver import homomorphism_exists_td
from repro.decomposition import good_tree_decomposition
from repro.homomorphism import find_embedding, has_embedding, has_homomorphism
from repro.reductions import (
    ColorCodingReduction,
    EmbInstance,
    connectivize_by_treewidth,
)
from repro.structures import (
    directed_b_structure,
    random_graph_structure,
    star_expansion,
)
from repro.workloads import hom_instances_for_pattern


@pytest.mark.parametrize("height", [1, 2])
def test_directed_b_homomorphism_via_tree_dp(benchmark, height):
    pattern = directed_b_structure(height)
    instance = hom_instances_for_pattern(pattern, [len(pattern) + 6], planted=True, seed=height)[0]
    decomposition = good_tree_decomposition(pattern)
    answer = benchmark(homomorphism_exists_td, instance.pattern, instance.target, decomposition)
    assert answer == has_homomorphism(instance.pattern, instance.target)


@pytest.mark.parametrize("height", [1, 2])
def test_directed_b_embedding(benchmark, height):
    pattern = directed_b_structure(height)
    instance = hom_instances_for_pattern(pattern, [len(pattern) + 5], planted=True, seed=height)[0]
    answer = benchmark(has_embedding, instance.pattern, instance.target)
    assert answer == (find_embedding(instance.pattern, instance.target) is not None)


@pytest.mark.parametrize("seed", [0, 1])
def test_bounded_treewidth_embedding_pipeline(benchmark, seed):
    """Theorem 5.6's route: connectivize, then colour-code, then solve."""
    from repro.structures import GRAPH_VOCABULARY, Structure

    pattern = Structure(
        GRAPH_VOCABULARY, [1, 2, 3, 4], {"E": [(1, 2), (2, 1), (3, 4), (4, 3)]}
    )
    target = random_graph_structure(6, 0.6, seed)
    instance = EmbInstance(pattern, target)

    def pipeline():
        connected = connectivize_by_treewidth(instance)
        return ColorCodingReduction().agrees_with_bruteforce(
            EmbInstance(connected.pattern, connected.target)
        )

    assert benchmark(pipeline)
