"""Shared pytest fixtures and path setup.

The repository is normally installed with ``pip install -e .`` (or
``python setup.py develop`` in offline environments); as a convenience the
``src`` layout is also added to ``sys.path`` so the suite runs from a bare
checkout.
"""

from __future__ import annotations

import os
import pickle
import random
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.cq import ConjunctiveQuery  # noqa: E402  (import after path setup)
from repro.structures import (  # noqa: E402  (import after path setup)
    GRAPH_VOCABULARY,
    Structure,
    Vocabulary,
    cycle,
    graph_structure,
    path,
    random_graph_structure,
    star_expansion,
)


def assert_valid_tree_decomposition(graph, decomposition, expected_width=None):
    """Assert that ``decomposition`` is a valid tree decomposition of ``graph``.

    Checks the three defining properties — vertex coverage, edge
    containment, and connectivity of every vertex's bag subtree — plus,
    when ``expected_width`` is given, that the realised width equals the
    reported value (a witness must *achieve* the number it certifies).
    Reusable across the fuzz corpus and the decomposition unit tests.
    """
    bags = decomposition.bags
    covered = set()
    for bag in bags.values():
        covered.update(bag)
    assert covered == set(graph.vertices), (
        f"bags cover {covered}, graph has {set(graph.vertices)}"
    )
    for u, v in graph.edge_pairs():
        assert any(u in bag and v in bag for bag in bags.values()), (
            f"edge {(u, v)} contained in no bag"
        )
    for vertex in graph.vertices:
        holding = {node for node, bag in bags.items() if vertex in bag}
        # The bag nodes holding `vertex` must induce a connected subtree.
        start = next(iter(holding))
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for neighbour in decomposition.tree.neighbors(node):
                if neighbour in holding and neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
        assert seen == holding, (
            f"bags holding {vertex!r} are disconnected: {holding} vs reachable {seen}"
        )
    if expected_width is not None:
        realised = decomposition.width()
        assert realised == expected_width, (
            f"decomposition width {realised} != reported {expected_width}"
        )


def assert_valid_path_decomposition(graph, decomposition, expected_width=None):
    """Assert that ``decomposition`` is a valid path decomposition of ``graph``.

    Same properties as the tree variant, with connectivity specialised to
    consecutiveness: every vertex's bags must form a contiguous interval
    of the bag sequence.
    """
    bags = list(decomposition.bags)
    covered = set()
    for bag in bags:
        covered.update(bag)
    assert covered == set(graph.vertices), (
        f"bags cover {covered}, graph has {set(graph.vertices)}"
    )
    for u, v in graph.edge_pairs():
        assert any(u in bag and v in bag for bag in bags), (
            f"edge {(u, v)} contained in no bag"
        )
    for vertex in graph.vertices:
        indices = [i for i, bag in enumerate(bags) if vertex in bag]
        assert indices == list(range(indices[0], indices[-1] + 1)), (
            f"bags holding {vertex!r} are not consecutive: {indices}"
        )
    if expected_width is not None:
        realised = decomposition.width()
        assert realised == expected_width, (
            f"decomposition width {realised} != reported {expected_width}"
        )


def restated(queries, times=1):
    """Each query with its first atom stated ``times`` more times.

    A copy has a new content key and the same canonical structure: an
    evaluation service's parent, which answers what it holds by content
    key, sends it to the pool, and a worker's (pattern, vocabulary) memo
    answers it with the object it answered the original with.  Tests
    whose premise is that a repeated batch reaches the pool workers
    repeat it this way; ``times`` gives each further wave new keys.
    """
    return [
        ConjunctiveQuery(
            query.atoms + query.atoms[:1] * times, extra_variables=query.variables
        )
        for query in queries
    ]


def sent_to_pool(monkeypatch):
    """Patches the pool's ``submit`` to record each call's pickled arguments."""
    from concurrent.futures import ProcessPoolExecutor

    sent = []
    original = ProcessPoolExecutor.submit

    def recording(pool, fn, *args, **kwargs):
        sent.append(pickle.dumps((fn, args, kwargs)))
        return original(pool, fn, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", recording)
    return sent


@pytest.fixture
def rng():
    """A deterministic random generator for tests that need randomness."""
    return random.Random(20130625)


@pytest.fixture
def triangle() -> Structure:
    """The 3-cycle (triangle) as an {E}-structure."""
    return cycle(3)


@pytest.fixture
def square() -> Structure:
    """The 4-cycle as an {E}-structure."""
    return cycle(4)


@pytest.fixture
def path4() -> Structure:
    """The 4-vertex path as an {E}-structure."""
    return path(4)


@pytest.fixture
def small_targets() -> list:
    """A deterministic pool of small random graph targets."""
    return [random_graph_structure(n, p, seed) for seed, (n, p) in
            enumerate([(4, 0.4), (5, 0.5), (6, 0.3), (5, 0.7), (6, 0.5)])]


def colored_target_for(pattern_star: Structure, size: int, edge_probability: float, seed: int) -> Structure:
    """Build a random target over a starred pattern's vocabulary (shared helper)."""
    rng_local = random.Random(seed)
    universe = list(range(size))
    edges = {
        (i, j)
        for i in universe
        for j in universe
        if i != j and rng_local.random() < edge_probability
    }
    edges |= {(j, i) for (i, j) in edges}
    relations = {"E": edges}
    for name in pattern_star.vocabulary.names():
        if name != "E":
            relations[name] = {
                (rng_local.choice(universe),) for _ in range(max(1, size // 3))
            }
    return Structure(pattern_star.vocabulary, universe, relations)


@pytest.fixture
def colored_target_factory():
    """Fixture exposing :func:`colored_target_for` to tests."""
    return colored_target_for
