"""E10 — Theorem 6.1 / Lemma 6.2: the counting classification.

Benchmarks brute force, the tree-depth recursion, ``count_hom`` (which
runs that recursion over the pattern's min-fill elimination tree), the
decomposition DP the recursion replaced (kept as a test oracle) and the
inclusion–exclusion Turing reduction; asserts all counts coincide.
"""

import pytest

from oracles.decomposition_solver import count_homomorphisms_td
from repro.counting import count_hom, count_star_homomorphisms_via_oracle
from repro.decomposition import good_tree_decomposition
from repro.homomorphism import count_homomorphisms, count_homomorphisms_treedepth
from repro.structures import cycle, path, random_graph_structure, star, star_expansion
from repro.structures.random_gen import random_colored_target


@pytest.mark.parametrize("size", [5, 6, 7])
def test_bruteforce_counting_baseline(benchmark, size):
    target = random_graph_structure(size, 0.5, size)
    count = benchmark(count_homomorphisms, path(4), target)
    assert count >= 0


@pytest.mark.parametrize("size", [5, 6, 7])
def test_decomposition_counting(benchmark, size):
    pattern = cycle(4)
    target = random_graph_structure(size, 0.5, size)
    decomposition = good_tree_decomposition(pattern)
    count = benchmark(count_homomorphisms_td, pattern, target, decomposition)
    assert count == count_homomorphisms(pattern, target)


@pytest.mark.parametrize("size", [6, 8])
def test_treedepth_counting(benchmark, size):
    pattern = star(3)
    target = random_graph_structure(size, 0.5, size)
    count = benchmark(count_homomorphisms_treedepth, pattern, target)
    assert count == count_homomorphisms(pattern, target)


@pytest.mark.parametrize("size", [5, 6])
def test_counting_dispatcher(benchmark, size):
    pattern = path(4)
    target = random_graph_structure(size, 0.5, size + 10)
    result = benchmark(count_hom, pattern, target)
    assert result.count == count_homomorphisms(pattern, target)


@pytest.mark.parametrize("seed", [0, 1])
def test_lemma_62_inclusion_exclusion(benchmark, seed):
    pattern_star = star_expansion(cycle(3))
    target = random_colored_target(pattern_star, 5, 0.5, seed)
    count = benchmark(count_star_homomorphisms_via_oracle, pattern_star, target)
    assert count == count_homomorphisms(pattern_star, target)
