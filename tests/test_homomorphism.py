"""Tests for the homomorphism engines: backtracking, cores, DP solvers, tree-depth solver."""

import pytest

from oracles.decomposition_solver import (
    count_homomorphisms_pd,
    count_homomorphisms_td,
    homomorphism_exists_pd,
    homomorphism_exists_td,
)
from repro.decomposition import (
    optimal_path_decomposition,
    optimal_tree_decomposition,
)
from repro.exceptions import DecompositionError, VocabularyError
from repro.homomorphism import (
    HomomorphismProblem,
    TreeDepthSolver,
    compatible,
    core,
    core_with_witness,
    count_automorphisms,
    count_embeddings,
    count_homomorphisms,
    count_homomorphisms_treedepth,
    enumerate_homomorphisms,
    find_embedding,
    find_homomorphism,
    find_proper_retraction,
    has_embedding,
    has_homomorphism,
    homomorphically_equivalent,
    homomorphism_exists_treedepth,
    is_core,
    is_homomorphism,
    is_partial_homomorphism,
)
from repro.structures import (
    GRAPH_VOCABULARY,
    Structure,
    Vocabulary,
    clique,
    cycle,
    grid,
    path,
    random_graph_structure,
    star,
    star_expansion,
)


class TestBacktracking:
    def test_path_maps_into_edge(self):
        assert has_homomorphism(path(5), path(2))

    def test_odd_cycle_into_even_cycle_fails(self):
        assert not has_homomorphism(cycle(5), cycle(4))
        assert has_homomorphism(cycle(4), cycle(4))
        assert not has_homomorphism(cycle(3), cycle(5))
        assert has_homomorphism(cycle(6), cycle(3))

    def test_homomorphism_witness_is_valid(self):
        mapping = find_homomorphism(path(4), cycle(6))
        assert mapping is not None
        assert is_homomorphism(mapping, path(4), cycle(6))

    def test_count_known_values(self):
        # Homs P2 -> K3: ordered edges of K3 = 6; P3 -> K3 = 3*2*2 = 12.
        assert count_homomorphisms(path(2), clique(3)) == 6
        assert count_homomorphisms(path(3), clique(3)) == 12
        # Homs C3 -> C3: the six automorphisms (rotations + reflections).
        assert count_homomorphisms(cycle(3), cycle(3)) == 6

    def test_enumeration_matches_count(self):
        solutions = enumerate_homomorphisms(path(3), cycle(4))
        assert len(solutions) == count_homomorphisms(path(3), cycle(4))
        assert all(is_homomorphism(s, path(3), cycle(4)) for s in solutions)

    def test_embeddings_are_injective(self):
        embedding = find_embedding(path(3), cycle(5))
        assert embedding is not None
        assert len(set(embedding.values())) == 3
        assert count_embeddings(path(3), cycle(5)) == 10  # 5 positions * 2 directions

    def test_no_embedding_when_target_too_small(self):
        assert not has_embedding(path(4), cycle(3))
        assert has_homomorphism(path(4), cycle(3))

    def test_partial_assignment_respected(self):
        problem = HomomorphismProblem(path(3), cycle(6))
        pinned = problem.find(partial={1: 1})
        assert pinned is not None and pinned[1] == 1
        assert problem.count(partial={1: 1}) < problem.count()

    def test_unary_constraints_prune(self):
        starred = star_expansion(path(3))
        target = star_expansion(path(3))
        assert count_homomorphisms(starred, target) == 1

    def test_vocabulary_mismatch_rejected(self):
        other = Structure(Vocabulary({"R": 2}), [1, 2], {"R": [(1, 2)]})
        with pytest.raises(VocabularyError):
            has_homomorphism(path(2), other)

    def test_partial_homomorphism_predicate(self):
        assert is_partial_homomorphism({}, path(3), cycle(3))
        assert is_partial_homomorphism({1: 1}, path(3), cycle(3))
        assert is_partial_homomorphism({1: 1, 2: 2}, path(3), cycle(3))
        assert not is_partial_homomorphism({1: 1, 2: 1}, path(3), cycle(3))

    def test_compatible(self):
        assert compatible({1: "a"}, {2: "b"})
        assert compatible({1: "a"}, {1: "a", 2: "b"})
        assert not compatible({1: "a"}, {1: "b"})


class TestCores:
    def test_core_of_even_cycle_is_edge(self):
        assert len(core(cycle(6))) == 2

    def test_core_of_tree_is_edge(self):
        assert len(core(path(5))) == 2

    def test_odd_cycles_and_cliques_are_cores(self):
        assert is_core(cycle(5))
        assert is_core(clique(4))
        assert find_proper_retraction(cycle(5)) is None

    def test_star_expansions_are_cores(self):
        assert is_core(star_expansion(path(4)))
        assert is_core(star_expansion(grid(2, 2)))

    def test_grid_core_is_edge(self):
        # Grids are bipartite, so their core is a single edge (Example 2.1's logic).
        assert len(core(grid(2, 3))) == 2

    def test_core_witness_is_retraction(self):
        structure = cycle(6)
        core_structure, witness = core_with_witness(structure)
        assert set(witness) == set(structure.universe)
        assert set(witness.values()) == set(core_structure.universe)
        assert is_homomorphism(witness, structure, core_structure)

    def test_homomorphic_equivalence(self):
        assert homomorphically_equivalent(path(5), path(2))
        assert homomorphically_equivalent(cycle(4), cycle(6))
        assert not homomorphically_equivalent(cycle(3), cycle(5))

    def test_automorphism_counts(self):
        assert count_automorphisms(cycle(3)) == 6
        assert count_automorphisms(clique(3)) == 6
        assert count_automorphisms(star_expansion(path(3))) == 1


class TestDecompositionSolvers:
    @pytest.mark.parametrize("seed", range(4))
    def test_tree_dp_matches_bruteforce(self, seed):
        pattern = cycle(5)
        target = random_graph_structure(6, 0.5, seed)
        decomposition = optimal_tree_decomposition(pattern)
        assert homomorphism_exists_td(pattern, target, decomposition) == has_homomorphism(
            pattern, target
        )
        assert count_homomorphisms_td(pattern, target, decomposition) == count_homomorphisms(
            pattern, target
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_path_sweep_matches_bruteforce(self, seed):
        pattern = path(5)
        target = random_graph_structure(6, 0.4, seed)
        decomposition = optimal_path_decomposition(pattern)
        assert homomorphism_exists_pd(pattern, target, decomposition) == has_homomorphism(
            pattern, target
        )
        assert count_homomorphisms_pd(pattern, target, decomposition) == count_homomorphisms(
            pattern, target
        )

    def test_dp_on_disconnected_pattern(self):
        pattern = Structure(
            GRAPH_VOCABULARY, [1, 2, 3, 4], {"E": [(1, 2), (2, 1), (3, 4), (4, 3)]}
        )
        target = cycle(4)
        decomposition = optimal_tree_decomposition(pattern)
        assert count_homomorphisms_td(pattern, target, decomposition) == count_homomorphisms(
            pattern, target
        )

    def test_dp_rejects_wrong_decomposition(self):
        with pytest.raises(DecompositionError):
            homomorphism_exists_td(cycle(5), cycle(3), optimal_tree_decomposition(cycle(4)))


class TestTreeDepthSolver:
    @pytest.mark.parametrize("seed", range(4))
    def test_exists_matches_bruteforce(self, seed):
        pattern = path(6)
        target = random_graph_structure(6, 0.4, seed)
        assert homomorphism_exists_treedepth(pattern, target) == has_homomorphism(
            pattern, target
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_count_matches_bruteforce(self, seed):
        pattern = star(3)
        target = random_graph_structure(5, 0.5, seed)
        assert count_homomorphisms_treedepth(pattern, target) == count_homomorphisms(
            pattern, target
        )

    def test_count_on_disconnected_pattern(self):
        pattern = Structure(
            GRAPH_VOCABULARY, [1, 2, 3, 4], {"E": [(1, 2), (2, 1), (3, 4), (4, 3)]}
        )
        target = cycle(5)
        assert count_homomorphisms_treedepth(pattern, target) == count_homomorphisms(
            pattern, target
        )

    def test_recursion_depth_equals_forest_height(self):
        solver = TreeDepthSolver(cycle(5))
        assert solver.max_live_assignment == 4  # td(C5) = 4

    def test_count_refuses_core_reduction(self):
        solver = TreeDepthSolver(cycle(6), use_core=True)
        with pytest.raises(DecompositionError):
            solver.count(cycle(4))

    def test_odd_cycle_colouring_behaviour(self):
        assert homomorphism_exists_treedepth(cycle(6), cycle(3))
        assert not homomorphism_exists_treedepth(cycle(5), cycle(4))

    def test_gaifman_graph_built_once(self, monkeypatch):
        # The constructor needs the Gaifman graph for both the exact
        # elimination forest and the witness check; it must not be
        # rebuilt per use.
        import repro.homomorphism.treedepth_solver as module

        calls = []
        real = module.gaifman_graph

        def counting_gaifman(structure):
            calls.append(structure)
            return real(structure)

        monkeypatch.setattr(module, "gaifman_graph", counting_gaifman)
        TreeDepthSolver(path(4))
        assert len(calls) == 1


NULLARY_VOCABULARY = Vocabulary({"E": 2, "Z": 0})


class TestNullaryAtoms:
    """A nullary atom of the source failing in the target blocks every solver.

    Regression for the soundness gap the PR-2 differential fuzzing
    surfaced: the backtracking "ground truth" skipped arity-0
    constraints entirely, so it disagreed with the join engine on
    vocabularies with nullary symbols.  The check now lives in
    ``repro.homomorphism.obstructions`` and every solver applies it.
    """

    def _pair(self, target_has_nullary: bool):
        source = Structure(
            NULLARY_VOCABULARY, [1, 2], {"E": [(1, 2)], "Z": [()]}
        )
        target = Structure(
            NULLARY_VOCABULARY,
            [1, 2, 3],
            {"E": [(1, 2), (2, 3)], "Z": [()] if target_has_nullary else []},
        )
        return source, target

    def test_all_solvers_reject_obstructed_pair(self):
        source, target = self._pair(target_has_nullary=False)
        from oracles.join_engine import homomorphism_exists_join
        from repro.counting import count_hom
        from repro.homomorphism import nullary_obstruction

        assert nullary_obstruction(source, target)
        assert not has_homomorphism(source, target)
        assert not has_embedding(source, target)
        assert count_homomorphisms(source, target) == 0
        assert enumerate_homomorphisms(source, target) == []
        assert not homomorphism_exists_join(source, target)
        assert not homomorphism_exists_treedepth(source, target)
        assert count_homomorphisms_treedepth(source, target) == 0
        assert count_hom(source, target).count == 0

    def test_all_solvers_agree_when_target_satisfies_nullary(self):
        source, target = self._pair(target_has_nullary=True)
        from oracles.join_engine import count_homomorphisms_join, homomorphism_exists_join
        from repro.counting import count_hom
        from repro.homomorphism import nullary_obstruction

        assert not nullary_obstruction(source, target)
        assert has_homomorphism(source, target)
        assert homomorphism_exists_join(source, target)
        assert homomorphism_exists_treedepth(source, target)
        assert (
            count_homomorphisms(source, target)
            == count_homomorphisms_join(source, target)
            == count_homomorphisms_treedepth(source, target)
            == count_hom(source, target).count
        )

    def test_empty_source_nullary_relation_is_no_obstruction(self):
        from repro.homomorphism import nullary_obstruction

        source = Structure(NULLARY_VOCABULARY, [1, 2], {"E": [(1, 2)]})
        target = Structure(NULLARY_VOCABULARY, [1, 2], {"E": [(1, 2)]})
        assert not nullary_obstruction(source, target)
        assert has_homomorphism(source, target)
