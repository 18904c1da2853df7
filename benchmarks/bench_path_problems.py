"""E6 — Theorems 4.6 / 4.7: PATH-complete problems.

Benchmarks the p-st-PATH solvers and the Theorem 4.7 reduction chain on
layered instances produced from p-HOM(P*), asserting every link preserves
the answer.
"""

import pytest

from oracles.decomposition_solver import homomorphism_exists_pd
from repro.decomposition import optimal_path_decomposition
from repro.homomorphism import has_homomorphism
from repro.problems import solve_st_path, solve_st_path_guess_and_check
from repro.reductions import (
    HomInstance,
    StPathInstance,
    hom_pstar_to_colored_odd_cycle,
    hom_pstar_to_st_path,
)
from repro.structures import grid_graph, path, star_expansion
from repro.workloads import colored_path_target


def _pstar_instance(k: int, width: int, seed: int) -> HomInstance:
    pattern = star_expansion(path(k))
    return HomInstance(pattern, colored_path_target(k, width, 0.4, seed))


@pytest.mark.parametrize("side", [4, 6, 8])
def test_st_path_bfs(benchmark, side):
    graph = grid_graph(side, side)
    instance = StPathInstance(graph, (0, 0), (side - 1, side - 1), 2 * side)
    assert benchmark(solve_st_path, instance)


@pytest.mark.parametrize("side", [3, 4])
def test_st_path_guess_and_check(benchmark, side):
    graph = grid_graph(side, side)
    instance = StPathInstance(graph, (0, 0), (side - 1, side - 1), 2 * side - 2)
    answer = benchmark(solve_st_path_guess_and_check, instance)
    assert answer == solve_st_path(instance)


@pytest.mark.parametrize("k,width", [(3, 4), (4, 4), (5, 3)])
def test_hom_pstar_via_path_decomposition(benchmark, k, width):
    """Theorem 4.6's algorithmic content: the left-to-right bag sweep."""
    instance = _pstar_instance(k, width, seed=k * 10 + width)
    decomposition = optimal_path_decomposition(instance.pattern)
    answer = benchmark(homomorphism_exists_pd, instance.pattern, instance.target, decomposition)
    assert answer == has_homomorphism(instance.pattern, instance.target)


@pytest.mark.parametrize("k,width", [(3, 3), (4, 3)])
def test_theorem_47_chain(benchmark, k, width):
    instance = _pstar_instance(k, width, seed=k + width)
    answer = has_homomorphism(instance.pattern, instance.target)

    def run_chain():
        return hom_pstar_to_st_path(instance), hom_pstar_to_colored_odd_cycle(instance)

    st_instance, colored_cycle = benchmark(run_chain)
    assert solve_st_path(st_instance) == answer
    assert has_homomorphism(colored_cycle.pattern, colored_cycle.target) == answer
