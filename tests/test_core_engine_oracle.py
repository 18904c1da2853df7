"""Differential tests for the compiled core engine (``core_engine``).

Every public phase of :mod:`repro.homomorphism.core_engine` must return
exactly what the pre-compilation engine of ``tests/oracles/core_engine.py``
returns — not merely an isomorphic core, but the same core, retraction,
certificate, fold count and search count, the same fold batches and the
same arc-consistent domains.  The corpora cover what the compiled program
treats specially:

* the distinct patterns of the ``mixed_vocabulary`` scenario (seed 1);
* 400 connected graph patterns on 12–16 variables (a spanning tree plus
  chords), half symmetric (they fold, then search) and half oriented;
* random structures with ternary atoms, repeated variables
  (``R(x,y,x)``, ``E(x,x)``), unary and nullary relations and isolated
  elements, including a non-graph vocabulary that contains ``E``;
* a directed cycle, an odd cycle, a clique and a grid.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List

import pytest

from oracles import core_engine as oracle
from repro.homomorphism import core_engine as engine
from repro.structures import GRAPH_VOCABULARY, Structure, Vocabulary, clique, cycle, grid
from repro.structures.builders import directed_cycle
from repro.structures.indexes import stable_sorted
from repro.structures.random_gen import random_structure
from repro.workloads import scenario_by_name

TERNARY = Vocabulary({"R": 3, "E": 2})
UNARY = Vocabulary({"E": 2, "C": 1})
NULLARY = Vocabulary({"E": 2, "Z": 0})


def mixed_patterns() -> List[Structure]:
    """The distinct canonical structures of ``mixed_vocabulary`` seed 1."""
    scenario = scenario_by_name("mixed_vocabulary", count=600, seed=1)
    distinct = {query.canonical_structure(): None for query in scenario.queries}
    return list(distinct)


def graph_pattern(rng: random.Random, symmetric: bool) -> Structure:
    """A connected pattern: a random spanning tree on 12–16 variables plus chords."""
    n = rng.randint(12, 16)
    edges = {(rng.randrange(vertex), vertex) for vertex in range(1, n)}
    target = len(edges) + rng.randint(round(n / 4), round(n / 2))
    while len(edges) < target:
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((a, b))
    arcs = []
    for a, b in sorted(edges):
        if symmetric:
            arcs += [(a, b), (b, a)]
        else:
            arcs.append((a, b) if rng.random() < 0.5 else (b, a))
    name = [f"v{i}" for i in range(n)]
    return Structure(GRAPH_VOCABULARY, name, {"E": [(name[a], name[b]) for a, b in arcs]})


def graph_patterns(count: int = 400, seed: int = 1) -> List[Structure]:
    """``count`` pairwise-distinct graph patterns, alternating symmetric and oriented."""
    rng = random.Random(f"core-engine-oracle:{seed}")
    patterns: Dict[Structure, None] = {}
    while len(patterns) < count:
        patterns.setdefault(graph_pattern(rng, symmetric=len(patterns) % 2 == 0), None)
    return list(patterns)


def random_structures(seed: int = 0) -> List[Structure]:
    """Small random structures over vocabularies beyond the graph one."""
    rng = random.Random(seed)
    structures = []
    for vocabulary in (TERNARY, UNARY, NULLARY, GRAPH_VOCABULARY):
        for _ in range(40):
            # Few tuples over up to 7 elements: repeated variables inside
            # an atom and elements in no atom at all are both common.
            structures.append(
                random_structure(vocabulary, rng.randint(1, 7), rng.randint(1, 8), rng)
            )
    structures += [
        Structure(TERNARY, range(4), {"R": [(0, 1, 0), (1, 2, 1)], "E": [(2, 2)]}),
        Structure(TERNARY, range(5), {"R": [(0, 1, 0), (2, 3, 2), (0, 0, 0)]}),
        Structure(UNARY, range(5), {"E": [(0, 0), (1, 2), (2, 3)], "C": [(3,)]}),
        Structure(NULLARY, range(4), {"E": [(0, 1), (1, 0), (1, 2), (2, 1)], "Z": [()]}),
        Structure(GRAPH_VOCABULARY, [1, "1", 2, "b"], {"E": [(1, "1"), ("1", 2), (2, 1)]}),
    ]
    return structures


def named_structures() -> List[Structure]:
    return [directed_cycle(7), cycle(9), clique(5), grid(3, 4)]


CORPORA: Dict[str, Callable[[], List[Structure]]] = {
    "mixed_vocabulary": mixed_patterns,
    "graph_patterns": graph_patterns,
    "random_structures": random_structures,
    "named": named_structures,
}


@pytest.fixture(scope="module", params=sorted(CORPORA))
def corpus(request) -> List[Structure]:
    return CORPORA[request.param]()


def test_corpus_sizes():
    assert len(mixed_patterns()) == 405
    patterns = graph_patterns()
    assert len(patterns) == 400
    assert {len(pattern) for pattern in patterns} == set(range(12, 17))


def fields(computation) -> tuple:
    return (
        computation.structure,
        computation.core,
        computation.retraction,
        computation.certificate,
        computation.folds,
        computation.searches,
    )


def mismatches(corpus: List[Structure], compute: Callable[[object, Structure], object]) -> List[int]:
    """Indexes of the structures on which the engine and the oracle differ."""
    return [
        index
        for index, structure in enumerate(corpus)
        if compute(engine, structure) != compute(oracle, structure)
    ]


def test_compute_core_matches_oracle(corpus):
    assert mismatches(corpus, lambda module, s: fields(module.compute_core(s))) == []


def test_fold_batch_and_fold_reduce_match_oracle(corpus):
    assert mismatches(corpus, lambda module, s: module.find_fold_batch(s)) == []
    assert mismatches(corpus, lambda module, s: module.fold_reduce(s)) == []


def pivot_seed(structure: Structure) -> dict:
    """Seed domains in which nothing but the stable-first element maps onto it,
    plus a value outside the universe (both engines must drop it)."""
    elements = stable_sorted(structure.universe)
    pivot = elements[0]
    outside = ("outside",)
    return {
        a: frozenset(x for x in elements if x != pivot or a == pivot) | {outside}
        for a in elements
    }


def test_endomorphism_domains_match_oracle(corpus):
    assert mismatches(corpus, lambda module, s: module.endomorphism_domains(s)) == []
    assert mismatches(
        corpus, lambda module, s: module.endomorphism_domains(s, seed=pivot_seed(s))
    ) == []


def test_non_surjective_search_matches_oracle(corpus):
    # On the fold fixpoint, where compute_core searches, and on small
    # inputs as given (unfolded 12–16-element patterns take the oracle a
    # minute to search).
    def search(module, structure):
        folded, _, _ = module.fold_reduce(structure)
        unfolded = structure if len(structure) <= 10 else folded
        return (
            module.find_non_surjective_endomorphism(folded),
            module.find_non_surjective_endomorphism(unfolded),
        )

    assert mismatches(corpus, search) == []


def test_rigidity_certificate_and_proper_retraction_match_oracle(corpus):
    assert mismatches(corpus, lambda module, s: module.rigidity_certificate(s)) == []
    assert mismatches(corpus, lambda module, s: module.proper_retraction(s)) == []


def hash_seed_sample() -> List[Structure]:
    """About 20 structures for the hash-seed check in ``test_core_engine.py``:
    symmetric and oriented graph patterns, then random structures."""
    return graph_patterns(count=12, seed=2) + random_structures(seed=3)[::20]
