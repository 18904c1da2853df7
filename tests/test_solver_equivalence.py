"""Property-based cross-solver equivalence harness.

Generates random query/database pairs (via :mod:`repro.structures.random_gen`)
and asserts that every solver in the library — generic backtracking, the
tree-depth recursion and ``count_hom``, the counting entry point — and the
two oracles kept with the tests — the legacy product-based decomposition
DP and the semiring join engine — agree on homomorphism *existence* and on
the exact *count*.  This is the safety net that lets the hot paths be rewritten
freely: any divergence between an optimised solver and the ground truth
shows up here with a reproducible seed.
"""

from __future__ import annotations

import random

import pytest

from oracles.decomposition_solver import (
    legacy_count_homomorphisms_td,
    legacy_homomorphism_exists_pd,
)
from oracles.join_engine import (
    BOOLEAN,
    COUNTING,
    run_decomposition_dp,
    run_path_sweep,
)
from repro.counting import count_hom
from repro.decomposition.width import (
    good_path_decomposition,
    good_tree_decomposition,
)
from repro.homomorphism.backtracking import (
    count_homomorphisms,
    has_homomorphism,
)
from repro.homomorphism.treedepth_solver import (
    count_homomorphisms_treedepth,
    homomorphism_exists_treedepth,
)
from repro.structures import (
    Vocabulary,
    random_graph_structure,
    random_structure,
)

#: Seeds × pairs-per-seed = 36 × 3 = 108 random query/database pairs, on
#: top of the mixed-vocabulary cases below — comfortably over the hundred
#: pairs the harness promises.
SEEDS = range(36)
PAIRS_PER_SEED = 3

MIXED_VOCABULARY = Vocabulary({"E": 2, "C": 1})


def _random_pair(rng: random.Random):
    """Return one random (pattern, target) pair of modest size."""
    if rng.random() < 0.25:
        pattern = random_structure(
            MIXED_VOCABULARY, rng.randint(2, 4), rng.randint(1, 4), rng
        )
        target = random_structure(
            MIXED_VOCABULARY, rng.randint(2, 5), rng.randint(2, 8), rng
        )
    else:
        pattern = random_graph_structure(
            rng.randint(2, 4), rng.uniform(0.2, 0.9), rng
        )
        target = random_graph_structure(
            rng.randint(2, 5), rng.uniform(0.2, 0.9), rng
        )
    return pattern, target


def _assert_all_solvers_agree(pattern, target, context: str) -> None:
    """Assert existence and counts coincide across all five solver families."""
    expected_count = count_homomorphisms(pattern, target)
    expected_exists = has_homomorphism(pattern, target)
    assert expected_exists == (expected_count > 0), context

    tree_decomposition = good_tree_decomposition(pattern)
    path_decomposition = good_path_decomposition(pattern)

    # 1. Legacy product-based decomposition DP (the seed implementation).
    assert (
        legacy_count_homomorphisms_td(pattern, target, tree_decomposition)
        == expected_count
    ), context
    assert (
        legacy_homomorphism_exists_pd(pattern, target, path_decomposition)
        == expected_exists
    ), context

    # 2. Tree-depth recursion (Lemma 3.3 / Theorem 6.1(3)).
    assert homomorphism_exists_treedepth(pattern, target) == expected_exists, context
    assert count_homomorphisms_treedepth(pattern, target) == expected_count, context

    # 3. The counting entry point: the forest engine over the pattern's
    #    min-fill elimination tree, or brute force past the width cap.
    assert count_hom(pattern, target).count == expected_count, context

    # 4. Semiring join engine, tree DP and rolling path sweep.
    assert (
        run_decomposition_dp(pattern, target, tree_decomposition, COUNTING)
        == expected_count
    ), context
    assert (
        bool(run_decomposition_dp(pattern, target, tree_decomposition, BOOLEAN))
        == expected_exists
    ), context
    assert (
        run_path_sweep(pattern, target, path_decomposition, COUNTING)
        == expected_count
    ), context
    assert (
        bool(run_path_sweep(pattern, target, path_decomposition, BOOLEAN))
        == expected_exists
    ), context


@pytest.mark.parametrize("seed", SEEDS)
def test_random_query_database_pairs_agree(seed):
    rng = random.Random(20130625 + seed)
    for pair_index in range(PAIRS_PER_SEED):
        pattern, target = _random_pair(rng)
        context = f"seed={seed} pair={pair_index} pattern={pattern!r} target={target!r}"
        _assert_all_solvers_agree(pattern, target, context)


@pytest.mark.parametrize("seed", range(6))
def test_planted_yes_instances_agree(seed):
    """Targets with a planted pattern copy: existence is guaranteed, counts must match."""
    from repro.structures import planted_homomorphism_target

    rng = random.Random(seed)
    pattern = random_graph_structure(rng.randint(2, 4), 0.7, rng)
    target = planted_homomorphism_target(pattern, rng.randint(4, 6), 3, rng)
    context = f"planted seed={seed}"
    assert has_homomorphism(pattern, target), context
    _assert_all_solvers_agree(pattern, target, context)


@pytest.mark.parametrize("seed", range(4))
def test_sparse_no_instances_agree(seed):
    """Dense patterns against sparse targets: mostly no-instances, all solvers say so."""
    rng = random.Random(1000 + seed)
    pattern = random_graph_structure(4, 0.9, rng)
    target = random_graph_structure(5, 0.1, rng)
    _assert_all_solvers_agree(pattern, target, f"sparse seed={seed}")
