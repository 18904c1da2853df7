"""Unit tests for the semiring join engine (a test oracle) and the hash-index layer."""

from __future__ import annotations

import sys

import pytest

from oracles.decomposition_solver import (
    _bag_homomorphisms,
    count_homomorphisms_pd,
    count_homomorphisms_td,
    homomorphism_exists_td,
    legacy_count_homomorphisms_td,
)
from oracles.join_engine import (
    BOOLEAN,
    COUNTING,
    MIN_PLUS,
    Semiring,
    count_homomorphisms_join,
    homomorphism_exists_join,
    iter_bag_assignments,
    matching,
    pruned_domains,
    run_decomposition_dp,
    run_path_sweep,
    values,
)
from repro.decomposition.path_decomposition import PathDecomposition
from repro.decomposition.width import (
    good_path_decomposition,
    good_tree_decomposition,
)
from repro.exceptions import DecompositionError
from repro.homomorphism.backtracking import (
    count_homomorphisms,
    has_homomorphism,
    is_partial_homomorphism,
)
from repro.structures import (
    GRAPH_VOCABULARY,
    RelationIndex,
    Structure,
    Vocabulary,
    clique,
    cycle,
    disjoint_union,
    path,
    random_graph_structure,
    stable_key,
    stable_sorted,
    structure_index,
)
from repro.structures.indexes import StructureIndex


# ---------------------------------------------------------------------------
# The index layer
# ---------------------------------------------------------------------------

class TestRelationIndex:
    def setup_method(self):
        self.index = RelationIndex(
            "E", 2, [(1, 2), (1, 3), (2, 3), (3, 1)]
        )

    def test_matching_on_one_bound_position(self):
        assert sorted(matching(self.index, {0: 1})) == [(1, 2), (1, 3)]
        assert sorted(matching(self.index, {1: 3})) == [(1, 3), (2, 3)]
        assert matching(self.index, {0: 4}) == ()

    def test_matching_fully_bound(self):
        assert list(matching(self.index, {0: 1, 1: 2})) == [(1, 2)]
        assert matching(self.index, {0: 2, 1: 1}) == ()

    def test_matching_unbound_returns_all(self):
        assert set(matching(self.index, {})) == {(1, 2), (1, 3), (2, 3), (3, 1)}

    def test_column_and_values(self):
        assert self.index.column(0) == frozenset({1, 2, 3})
        assert self.index.column(1) == frozenset({1, 2, 3})
        assert values(self.index, 1, {0: 1}) == frozenset({2, 3})

    def test_membership_and_len(self):
        assert (1, 2) in self.index
        assert (2, 1) not in self.index
        assert len(self.index) == 4

    def test_out_of_range_positions_raise(self):
        with pytest.raises(IndexError):
            self.index.column(2)
        with pytest.raises(IndexError):
            matching(self.index, {5: 1})


class TestStructureIndex:
    def test_wraps_every_relation(self):
        vocabulary = Vocabulary({"E": 2, "C": 1})
        structure = Structure(
            vocabulary, [1, 2, 3], {"E": [(1, 2), (2, 3)], "C": [(1,)]}
        )
        index = StructureIndex(structure)
        assert index.structure is structure
        assert index.relation("E").arity == 2
        assert values(index.relation("C"), 0, {}) == frozenset({1})

    def test_factory_caches_per_structure(self):
        structure = cycle(4)
        assert structure_index(structure) is structure_index(structure)

    def test_empty_relation_indexes_cleanly(self):
        structure = Structure(GRAPH_VOCABULARY, [1, 2], {"E": []})
        index = StructureIndex(structure)
        assert matching(index.relation("E"), {0: 1}) == ()
        assert index.relation("E").column(0) == frozenset()

    def test_sorted_universe_is_the_stable_order_sorted_once(self):
        elements = [3, "b", 1, "a", (0, 1), _RedToken(), _BlueToken()]
        structure = Structure(GRAPH_VOCABULARY, elements, {"E": [(1, 3)]})
        index = StructureIndex(structure)
        ordered = index.sorted_universe
        assert list(ordered) == stable_sorted(structure.universe)
        # Every solve against the target reads this one copy, which no
        # caller can reorder.
        assert isinstance(ordered, tuple)
        assert index.sorted_universe is ordered


# ---------------------------------------------------------------------------
# Stable sort keys (regression for the repr-only canonical sort)
# ---------------------------------------------------------------------------

class _RedToken:
    """A hashable element whose repr collides with :class:`_BlueToken`."""

    def __repr__(self):
        return "token"


class _BlueToken:
    def __repr__(self):
        return "token"


class TestStableKey:
    def test_orders_colliding_reprs_by_type(self):
        red, blue = _RedToken(), _BlueToken()
        assert repr(red) == repr(blue)
        # repr-only sorting leaves the relative order to the input order;
        # stable_key breaks the tie by type name, the same way round every time.
        assert stable_sorted([red, blue]) == stable_sorted([blue, red])

    def test_orders_mixed_types_deterministically(self):
        mixed = [2, "1", 1, "2"]
        assert stable_sorted(mixed) == stable_sorted(list(reversed(mixed)))

    def test_engine_counts_with_colliding_reprs(self):
        red, blue = _RedToken(), _BlueToken()
        pattern = Structure(GRAPH_VOCABULARY, [red, blue], {"E": [(red, blue)]})
        target = cycle(3)
        expected = count_homomorphisms(pattern, target)
        assert expected > 0
        decomposition = good_tree_decomposition(pattern)
        assert count_homomorphisms_td(pattern, target, decomposition) == expected
        assert legacy_count_homomorphisms_td(pattern, target, decomposition) == expected

    def test_legacy_bag_enumeration_with_mixed_universe(self):
        pattern = Structure(
            GRAPH_VOCABULARY, [1, "a"], {"E": [(1, "a")]}
        )
        target = Structure(
            GRAPH_VOCABULARY, [2, "b"], {"E": [(2, "b"), ("b", 2)]}
        )
        bag = frozenset(pattern.universe)
        mappings = _bag_homomorphisms(pattern, target, bag)
        assert all(
            is_partial_homomorphism(mapping, pattern, target) for mapping in mappings
        )
        assert len(mappings) == count_homomorphisms(pattern, target)


# ---------------------------------------------------------------------------
# Semiring laws
# ---------------------------------------------------------------------------

SEMIRING_SAMPLES = {
    "boolean": (BOOLEAN, [False, True]),
    "counting": (COUNTING, [0, 1, 2, 3, 7]),
    "min-plus": (MIN_PLUS, [float("inf"), 0, 1, 2.5, 10]),
}


@pytest.mark.parametrize("name", sorted(SEMIRING_SAMPLES))
class TestSemiringLaws:
    def test_additive_monoid(self, name):
        semiring, values = SEMIRING_SAMPLES[name]
        for a in values:
            assert semiring.add(a, semiring.zero) == a
            for b in values:
                assert semiring.add(a, b) == semiring.add(b, a)
                for c in values:
                    assert semiring.add(semiring.add(a, b), c) == semiring.add(
                        a, semiring.add(b, c)
                    )

    def test_multiplicative_monoid(self, name):
        semiring, values = SEMIRING_SAMPLES[name]
        for a in values:
            assert semiring.mul(a, semiring.one) == a
            assert semiring.mul(semiring.one, a) == a
            for b in values:
                for c in values:
                    assert semiring.mul(semiring.mul(a, b), c) == semiring.mul(
                        a, semiring.mul(b, c)
                    )

    def test_distributivity_and_annihilation(self, name):
        semiring, values = SEMIRING_SAMPLES[name]
        for a in values:
            assert semiring.mul(a, semiring.zero) == semiring.zero
            assert semiring.mul(semiring.zero, a) == semiring.zero
            for b in values:
                for c in values:
                    assert semiring.mul(a, semiring.add(b, c)) == semiring.add(
                        semiring.mul(a, b), semiring.mul(a, c)
                    )

    def test_sum_and_product_helpers(self, name):
        semiring, values = SEMIRING_SAMPLES[name]
        assert semiring.sum([]) == semiring.zero
        assert semiring.product([]) == semiring.one
        assert semiring.sum(values[:2]) == semiring.add(values[0], values[1])


def test_custom_semiring_is_usable():
    max_plus = Semiring("max-plus", float("-inf"), 0, max, lambda a, b: a + b)
    pattern, target = path(3), cycle(4)
    decomposition = good_tree_decomposition(pattern)
    value = run_decomposition_dp(pattern, target, decomposition, max_plus)
    assert value == 0  # a homomorphism exists, all costs are zero


# ---------------------------------------------------------------------------
# Bag assignment enumeration
# ---------------------------------------------------------------------------

class TestBagAssignments:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_legacy_product_enumeration(self, seed):
        pattern = random_graph_structure(4, 0.6, seed)
        target = random_graph_structure(5, 0.5, seed + 50)
        for bag in [
            frozenset(list(pattern.universe)[:2]),
            frozenset(pattern.universe),
            frozenset(),
        ]:
            fast = {
                tuple(sorted(m.items(), key=lambda kv: stable_key(kv[0])))
                for m in iter_bag_assignments(pattern, target, bag)
            }
            slow = {
                tuple(sorted(m.items(), key=lambda kv: stable_key(kv[0])))
                for m in _bag_homomorphisms(pattern, target, bag)
            }
            assert fast == slow

    def test_empty_bag_yields_empty_assignment(self):
        assert list(iter_bag_assignments(path(2), cycle(3), frozenset())) == [{}]

    def test_sparse_target_keeps_all_partial_homomorphisms(self):
        # Regression: global positional pruning must not leak into the
        # public enumerator.  {a: 2} is a valid partial homomorphism on
        # the bag {a} even though 2 has no outgoing E-edge in the target.
        pattern = Structure(GRAPH_VOCABULARY, ["a", "b"], {"E": [("a", "b")]})
        target = Structure(GRAPH_VOCABULARY, [1, 2], {"E": [(1, 2)]})
        bag = frozenset({"a"})
        fast = sorted(m["a"] for m in iter_bag_assignments(pattern, target, bag))
        slow = sorted(m["a"] for m in _bag_homomorphisms(pattern, target, bag))
        assert fast == slow == [1, 2]

    def test_pruned_domains_respect_unary_relations(self):
        vocabulary = Vocabulary({"E": 2, "C": 1})
        pattern = Structure(
            vocabulary, ["x", "y"], {"E": [("x", "y")], "C": [("x",)]}
        )
        target = Structure(
            vocabulary, [1, 2, 3], {"E": [(1, 2), (2, 3)], "C": [(1,)]}
        )
        domains = pruned_domains(pattern, structure_index(target))
        assert domains["x"] == frozenset({1})
        assert domains["y"] <= frozenset({2, 3})  # column 1 of E in the target


# ---------------------------------------------------------------------------
# Engine end-to-end edge cases
# ---------------------------------------------------------------------------

class TestJoinEngineEdgeCases:
    def test_empty_target_relation_means_no_homomorphism(self):
        pattern = path(3)
        target = Structure(GRAPH_VOCABULARY, [1, 2, 3], {"E": []})
        assert homomorphism_exists_join(pattern, target) is False
        assert count_homomorphisms_join(pattern, target) == 0

    def test_pattern_without_edges_counts_all_maps(self):
        pattern = Structure(GRAPH_VOCABULARY, ["a", "b"], {"E": []})
        target = random_graph_structure(4, 0.5, 3)
        assert count_homomorphisms_join(pattern, target) == 4 ** 2
        assert homomorphism_exists_join(pattern, target) is True

    def test_disconnected_pattern_multiplies_components(self):
        component = path(2)
        pattern = disjoint_union([component, component])
        target = random_graph_structure(5, 0.5, 11)
        expected = count_homomorphisms(component, target) ** 2
        assert count_homomorphisms_join(pattern, target) == expected
        assert count_homomorphisms(pattern, target) == expected

    def test_mismatched_decomposition_raises(self):
        with pytest.raises(DecompositionError):
            homomorphism_exists_td(
                cycle(5), cycle(3), good_tree_decomposition(cycle(4))
            )

    def test_nullary_atom_obstruction(self):
        vocabulary = Vocabulary({"E": 2, "F": 0})
        pattern = Structure(
            vocabulary, ["x", "y"], {"E": [("x", "y")], "F": [()]}
        )
        satisfied = Structure(vocabulary, [1, 2], {"E": [(1, 2)], "F": [()]})
        violated = Structure(vocabulary, [1, 2], {"E": [(1, 2)], "F": []})
        decomposition = good_tree_decomposition(pattern)
        assert run_decomposition_dp(pattern, satisfied, decomposition, COUNTING) > 0
        assert run_decomposition_dp(pattern, violated, decomposition, COUNTING) == 0

    def test_repeated_variable_atoms_require_loops(self):
        looped = Structure(GRAPH_VOCABULARY, ["v"], {"E": [("v", "v")]})
        loopless_target = cycle(3)
        loopy_target = Structure(GRAPH_VOCABULARY, [1, 2], {"E": [(1, 1), (1, 2)]})
        assert count_homomorphisms_join(looped, loopless_target) == 0
        assert count_homomorphisms_join(looped, loopy_target) == 1


class TestDeepDecompositions:
    def test_path_of_500_bags_without_recursion_error(self):
        n = 501
        pattern = path(n)  # universe 1..n
        bags = [frozenset((i, i + 1)) for i in range(1, n)]
        decomposition = PathDecomposition(bags)
        assert len(decomposition) == 500
        target = cycle(4)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(450)  # well below the bag count
        try:
            count_sweep = run_path_sweep(pattern, target, decomposition, COUNTING)
            exists_sweep = run_path_sweep(pattern, target, decomposition, BOOLEAN)
            count_tree = run_decomposition_dp(
                pattern, target, decomposition.as_tree_decomposition(), COUNTING
            )
        finally:
            sys.setrecursionlimit(limit)
        assert exists_sweep is True
        assert count_sweep == count_tree
        # walks of length n-1 on C4: 4 choices for the start, 2 per step
        assert count_sweep == 4 * 2 ** (n - 1)

    def test_rolling_sweep_agrees_with_tree_dp_on_long_paths(self):
        pattern = path(40)
        decomposition = good_path_decomposition(pattern)
        target = random_graph_structure(6, 0.5, 23)
        assert count_homomorphisms_pd(pattern, target, decomposition) == (
            count_homomorphisms_td(
                pattern, target, decomposition.as_tree_decomposition()
            )
        )


class TestEngineAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(8))
    def test_counts_and_existence_match(self, seed):
        pattern = random_graph_structure(4, 0.5, seed)
        target = random_graph_structure(5, 0.4, seed + 100)
        expected_count = count_homomorphisms(pattern, target)
        expected_exists = has_homomorphism(pattern, target)
        assert count_homomorphisms_join(pattern, target) == expected_count
        assert homomorphism_exists_join(pattern, target) == expected_exists
        pd = good_path_decomposition(pattern)
        assert run_path_sweep(pattern, target, pd, COUNTING) == expected_count
        assert bool(run_path_sweep(pattern, target, pd, BOOLEAN)) == expected_exists

    def test_clique_pattern(self):
        pattern = clique(3)
        target = random_graph_structure(7, 0.5, 5)
        assert count_homomorphisms_join(pattern, target) == count_homomorphisms(
            pattern, target
        )
