"""Differential tests for the compiled Lemma 3.3 recursion (``TreeDepthSolver``).

Each case runs the compiled ``exists``/``count`` against two references:
the literal recursion of ``tests/oracles/treedepth_recursion.py`` along
the same elimination forest, and the generic backtracking solver
(``has_homomorphism`` / ``count_homomorphisms``), on two forests: an
exact (or caller-supplied) one and the min-fill elimination tree the PATH
and TREE routes solve on.  The inputs cover what the compiled program
treats specially: atoms of arity 3, variables repeated inside an atom,
unary atoms, several forest roots, nullary atoms, a forest the caller
supplies, the patterns and targets of the ``mixed_vocabulary`` scenario,
a long path query counted through the boundary memo, and a forest taller
than the interpreter's recursion limit.
"""

from __future__ import annotations

import random
import sys

import pytest

from oracles import treedepth_recursion as oracle
from oracles.join_engine import (
    count_homomorphisms_join,
    homomorphism_exists_join,
    run_path_sweep,
)
from repro.classification.classifier import StructureProfile, classify_structure
from repro.classification.degrees import ComplexityDegree
from repro.classification.solver_dispatch import solve_with_degree
from repro.counting import count_hom
from repro.counting.classification import FOREST_COUNT_SOLVER
from repro.cq.query import ConjunctiveQuery
from repro.decomposition.heuristics import min_fill_elimination_forest
from repro.decomposition.treedepth import dfs_elimination_forest
from repro.decomposition.width import good_path_decomposition
from repro.exceptions import VocabularyError
from repro.homomorphism import (
    TreeDepthSolver,
    count_homomorphisms,
    count_homomorphisms_treedepth,
    has_homomorphism,
)
from repro.structures import (
    GRAPH_VOCABULARY,
    Structure,
    Vocabulary,
    gaifman_graph,
    random_structure,
)
from repro.structures.builders import directed_path
from repro.workloads import scenario_by_name
from repro.workloads.scenarios import path_query

TERNARY = Vocabulary({"R": 3, "E": 2})
UNARY = Vocabulary({"E": 2, "C": 1})
NULLARY = Vocabulary({"E": 2, "Z": 0})


def assert_agrees(source: Structure, target: Structure, forest=None) -> None:
    """Compiled, literal and backtracking answers coincide (exists and count),
    along ``forest`` (an exact one when None) and along a min-fill tree."""
    expected_count = count_homomorphisms(source, target)
    expected = has_homomorphism(source, target)
    assert expected == (expected_count > 0)
    for tree in (forest, min_fill_elimination_forest(gaifman_graph(source))):
        solver = TreeDepthSolver(source, forest=tree, use_core=False)
        assert oracle.count(source, solver.forest, target) == expected_count
        assert solver.count(target) == expected_count
        assert oracle.exists(source, solver.forest, target) == expected
        assert solver.exists(target) == expected
    assert TreeDepthSolver(source).exists(target) == expected


def random_pairs(vocabulary: Vocabulary, seed: int, pairs: int = 4):
    rng = random.Random(seed)
    for _ in range(pairs):
        source = random_structure(vocabulary, rng.randint(1, 4), rng.randint(1, 4), rng)
        target = random_structure(vocabulary, rng.randint(2, 5), rng.randint(3, 12), rng)
        yield source, target


@pytest.mark.parametrize("seed", range(12))
def test_ternary_atoms(seed):
    for source, target in random_pairs(TERNARY, 7000 + seed):
        assert_agrees(source, target)


@pytest.mark.parametrize("seed", range(12))
def test_unary_atoms(seed):
    for source, target in random_pairs(UNARY, 8000 + seed):
        assert_agrees(source, target)


@pytest.mark.parametrize(
    "relations",
    [
        {"E": [(0, 0)]},
        {"E": [(0, 0), (0, 1)]},
        {"E": [(0, 1), (1, 1), (1, 2)]},
        {"R": [(0, 1, 0)]},
        {"R": [(0, 1, 0), (1, 2, 1)], "E": [(2, 2)]},
        {"R": [(0, 0, 0), (0, 1, 1)]},
    ],
)
def test_repeated_variables(relations):
    universe = sorted({x for tuples in relations.values() for tup in tuples for x in tup})
    source = Structure(TERNARY, universe, relations)
    rng = random.Random(repr(relations))
    for _ in range(6):
        target = random_structure(TERNARY, rng.randint(2, 4), rng.randint(4, 14), rng)
        assert_agrees(source, target)


def test_disconnected_pattern_has_several_roots():
    source = Structure(
        UNARY,
        range(7),
        {"E": [(0, 1), (1, 2), (3, 4), (4, 3)], "C": [(2,), (5,)]},
    )
    assert len(TreeDepthSolver(source, use_core=False).forest.roots) == 4
    rng = random.Random(11)
    for _ in range(8):
        target = random_structure(UNARY, rng.randint(2, 4), rng.randint(2, 8), rng)
        assert_agrees(source, target)


@pytest.mark.parametrize("target_has_nullary", [False, True])
def test_nullary_atom(target_has_nullary):
    source = Structure(NULLARY, [0, 1, 2], {"E": [(0, 1), (1, 2)], "Z": [()]})
    rng = random.Random(int(target_has_nullary))
    for _ in range(4):
        edges = {(rng.randrange(4), rng.randrange(4)) for _ in range(6)}
        target = Structure(
            NULLARY, range(4), {"E": edges, "Z": [()] if target_has_nullary else []}
        )
        assert_agrees(source, target)


@pytest.mark.parametrize("seed", range(8))
def test_caller_supplied_dfs_forest(seed):
    vocabulary = TERNARY if seed % 2 else UNARY
    for source, target in random_pairs(vocabulary, 9000 + seed):
        forest = dfs_elimination_forest(gaifman_graph(source))
        assert_agrees(source, target, forest=forest)


@pytest.mark.parametrize("missing", ["C", "E"])
@pytest.mark.parametrize("source_relation_empty", [False, True])
def test_target_missing_a_source_symbol_raises(missing, source_relation_empty):
    relations = {"E": [(0, 1)], "C": [] if source_relation_empty else [(1,)]}
    if missing == "E" and source_relation_empty:
        relations = {"E": [], "C": [(1,)]}
    source = Structure(UNARY, [0, 1], relations)
    kept = "E" if missing == "C" else "C"
    target = Structure(
        Vocabulary({kept: UNARY.arity(kept)}),
        [0, 1],
        {kept: [(0, 1)] if kept == "E" else [(0,)]},
    )
    solver = TreeDepthSolver(source, use_core=False)
    with pytest.raises(VocabularyError):
        solver.exists(target)
    with pytest.raises(VocabularyError):
        solver.count(target)


@pytest.mark.parametrize("source_relation_empty", [False, True])
def test_target_giving_a_symbol_another_arity_raises(source_relation_empty):
    source = Structure(
        Vocabulary({"R": 2}), [0, 1], {"R": [] if source_relation_empty else [(0, 1)]}
    )
    target = Structure(Vocabulary({"R": 3}), [0, 1], {"R": [(0, 1, 0), (0, 1, 1)]})
    solver = TreeDepthSolver(source, use_core=False)
    with pytest.raises(VocabularyError):
        solver.exists(target)
    with pytest.raises(VocabularyError):
        solver.count(target)


def test_every_route_raises_on_an_arity_clash():
    # The backtracking solver checks arities up front; the forest engine
    # behind the other three routes and counting must refuse the same
    # target, not read the clash as an empty relation.
    query = ConjunctiveQuery([("R", ("x", "y"))])
    pattern = query.canonical_structure()
    target = Structure(Vocabulary({"R": 3}), [0, 1], {"R": [(0, 1, 0), (0, 1, 1)]})
    profile = classify_structure(pattern)
    for degree in ComplexityDegree:
        with pytest.raises(VocabularyError):
            solve_with_degree(pattern, target, degree, profile)
    with pytest.raises(VocabularyError):
        query.holds_on(target)
    with pytest.raises(VocabularyError):
        query.count_matches(target)
    with pytest.raises(VocabularyError):
        count_hom(pattern, target)
    # So do the references the routes are checked against.
    forest = profile.core_elimination_forest
    for reference in (oracle.exists, oracle.count):
        with pytest.raises(VocabularyError, match="arity mismatch for 'R'"):
            reference(pattern, forest, target)
    for reference in (homomorphism_exists_join, count_homomorphisms_join):
        with pytest.raises(VocabularyError, match="arity mismatch for 'R'"):
            reference(pattern, target)
    with pytest.raises(VocabularyError, match="arity mismatch for 'R'"):
        run_path_sweep(pattern, target, good_path_decomposition(pattern))


@pytest.fixture(scope="module")
def mixed_vocabulary_cases():
    """Every distinct pattern of ``mixed_vocabulary`` seed 1 (600 queries) with
    its target and classification profile."""
    scenario = scenario_by_name("mixed_vocabulary", count=600, seed=1)
    cases = {}
    for query in scenario.queries:
        cases.setdefault((query.canonical_structure(), query.vocabulary()), None)
    targets = {}
    return [
        (
            pattern,
            targets.setdefault(vocabulary, scenario.database.to_structure(vocabulary)),
            classify_structure(pattern),
        )
        for pattern, vocabulary in cases
    ]


def test_mixed_vocabulary_patterns_exist(mixed_vocabulary_cases):
    # Runs the recursion the para-L route runs: on the core, along the
    # profile's elimination forest.
    for pattern, target, profile in mixed_vocabulary_cases:
        core, forest = profile.core, profile.core_elimination_forest
        expected = has_homomorphism(core, target)
        assert oracle.exists(core, forest, target) == expected, pattern
        solver = TreeDepthSolver(core, forest=forest, use_core=False)
        assert solver.exists(target) == expected, pattern


def test_mixed_vocabulary_patterns_count(mixed_vocabulary_cases):
    # The literal recursion and backtracking enumeration cost |target|^k
    # here (42 elements), so they run on the cores of at most two
    # elements; the semiring join engine checks every core of the random
    # queries (the long path queries have counts past 10^15).
    compared = 0
    for pattern, target, profile in mixed_vocabulary_cases:
        core, forest = profile.core, profile.core_elimination_forest
        if len(core) > 5:
            continue
        counted = TreeDepthSolver(core, forest=forest, use_core=False).count(target)
        assert counted == count_homomorphisms_join(core, target), pattern
        if len(core) <= 2:
            assert oracle.count(core, forest, target) == counted, pattern
            assert count_homomorphisms(core, target) == counted, pattern
            compared += 1
    assert compared >= 300


def test_long_path_query_count_equals_the_join_engine(mixed_vocabulary_cases):
    # P11 against the mixed_vocabulary database: the memo keys each vertex
    # of the forest on its boundary, which is what makes counting
    # 6.9 * 10^10 walks take a fraction of a second, on the exact forest
    # and on the min-fill tree count_hom runs on.
    query = path_query(10)
    pattern = query.canonical_structure()
    assert any(pattern == case[0] for case in mixed_vocabulary_cases)
    target = scenario_by_name("mixed_vocabulary", count=600, seed=1).database.to_structure(
        query.vocabulary()
    )
    expected = count_homomorphisms_join(pattern, target)
    assert expected == 68_936_590_884
    assert count_homomorphisms_treedepth(pattern, target) == expected
    result = count_hom(pattern, target)
    assert (result.count, result.solver) == (expected, FOREST_COUNT_SOLVER)


def test_forest_taller_than_the_recursion_limit():
    # The min-fill tree of a path is a path: on 1,200 elements a recursion
    # with one frame per level, on top of the test runner's own frames,
    # would pass the default recursion limit; the explicit stack never
    # touches it.  The profile's widths are given, because exact
    # classification of so long a path is slow.
    pattern = directed_path(1200)
    profile = StructureProfile(pattern, pattern, 1, 1, 11)
    triangle = Structure(GRAPH_VOCABULARY, range(3), {"E": [(0, 1), (1, 2), (2, 0)]})
    forest = min_fill_elimination_forest(gaifman_graph(pattern))
    assert forest.height() > sys.getrecursionlimit() - 50
    for target, expected in ((triangle, True), (directed_path(600), False)):
        result = solve_with_degree(pattern, target, ComplexityDegree.PATH_COMPLETE, profile)
        assert result.answer is expected
    assert TreeDepthSolver(pattern, forest=forest, use_core=False).count(triangle) == 3
