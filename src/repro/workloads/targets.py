"""Target-side workload generators for benchmarks.

The right-hand structures of ``p-HOM`` instances ("the database") drive the
running time of every algorithm in the library, so the benchmark harness
needs target families of controllable size and density, plus planted
yes-instances so both answers are exercised.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cq.database import Database
from repro.reductions.base import EmbInstance, HomInstance
from repro.structures.builders import circulant_graph, grid_graph
from repro.structures.operations import color_symbol
from repro.structures.random_gen import (
    planted_homomorphism_target,
    random_colored_target,
    random_graph_structure,
)
from repro.structures.structure import Structure


def hom_instances_for_pattern(
    pattern: Structure,
    sizes: List[int],
    edge_probability: float = 0.3,
    planted: bool = True,
    seed: int = 0,
) -> List[HomInstance]:
    """Return one ``p-HOM`` instance per target size for a fixed pattern.

    With ``planted=True`` the targets contain a copy of the pattern (so the
    instances are yes-instances of growing size); otherwise the targets are
    uniform random structures over the pattern's vocabulary.
    """
    instances = []
    for index, size in enumerate(sizes):
        if planted:
            target = planted_homomorphism_target(
                pattern, size, noise_edges=size, seed=seed + index
            )
        else:
            target = random_colored_target(
                pattern, size, edge_probability, seed=seed + index
            )
        instances.append(HomInstance(pattern, target))
    return instances


def colored_path_target(k: int, width: int, edge_probability: float, seed: int = 0) -> Structure:
    """Return a layered target for ``p-HOM(P*_k)`` with ``width`` choices per layer.

    Layer ``i`` carries the colour ``C_i``; edges join consecutive layers
    with the given probability.  Yes/no status is random, which is what
    the PATH benchmarks want.
    """
    from repro.structures.builders import path
    from repro.structures.operations import star_expansion
    from repro.structures.vocabulary import GRAPH_VOCABULARY

    rng = random.Random(seed)
    pattern = star_expansion(path(k))
    universe = [(i, j) for i in range(1, k + 1) for j in range(width)]
    edges = set()
    for i in range(1, k):
        for a in range(width):
            for b in range(width):
                if rng.random() < edge_probability:
                    edges.add(((i, a), (i + 1, b)))
                    edges.add(((i + 1, b), (i, a)))
    relations = {"E": edges}
    extra = {}
    for i in range(1, k + 1):
        extra[color_symbol(i)] = 1
        relations[color_symbol(i)] = {((i, j),) for j in range(width)}
    vocabulary = GRAPH_VOCABULARY.extend(extra)
    return Structure(vocabulary, universe, relations)


def emb_instances_for_pattern(
    pattern: Structure, sizes: List[int], edge_probability: float = 0.4, seed: int = 0
) -> List[EmbInstance]:
    """Return embedding instances with random graph targets of the given sizes."""
    return [
        EmbInstance(pattern, random_graph_structure(size, edge_probability, seed + index))
        for index, size in enumerate(sizes)
    ]


# ---------------------------------------------------------------------------
# database-flavoured targets for the EVAL(Φ) execution service
# ---------------------------------------------------------------------------

def _zipf_sampler(rng: random.Random, population: Sequence, skew: float):
    """Return a zero-argument sampler drawing values with P ∝ 1/rank^skew.

    The cumulative weights are computed once per sampler, not per draw —
    each draw is then a single binary search inside ``rng.choices``.
    """
    cumulative = list(
        itertools.accumulate(
            1.0 / (rank + 1) ** skew for rank in range(len(population))
        )
    )

    def sample():
        return rng.choices(population, cum_weights=cumulative, k=1)[0]

    return sample


def skewed_database(
    n: int,
    rows_per_table: int,
    tables: Optional[Dict[str, int]] = None,
    skew: float = 1.5,
    seed: int = 0,
) -> Database:
    """Return a database whose value distribution is Zipf-skewed.

    A few "celebrity" domain values appear in most rows — the classic
    worst case for join fan-out, and exactly the situation where the
    fan-out statistic of :class:`~repro.eval.stats.DatabaseStatistics`
    diverges from the uniform estimate.  ``tables`` maps table names to arities (default: a binary
    ``E`` and a unary ``C1``).
    """
    if tables is None:
        tables = {"E": 2, "C1": 1}
    rng = random.Random(seed)
    domain = list(range(n))
    sample = _zipf_sampler(rng, domain, skew)
    built: Dict[str, Set[Tuple]] = {}
    for name in sorted(tables):
        arity = tables[name]
        rows: Set[Tuple] = set()
        for _ in range(rows_per_table):
            rows.add(tuple(sample() for _ in range(arity)))
        built[name] = rows
    return Database(built, domain=domain)


def dense_graph_database(n: int, edge_probability: float = 0.5, seed: int = 0) -> Database:
    """Return a dense random directed-graph database over table ``E``."""
    rng = random.Random(seed)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < edge_probability
    ]
    return Database({"E": edges}, domain=range(n))


def _symmetric_graph_database(graph) -> Database:
    """An undirected graph as a database: every edge in both directions."""
    edges = set()
    for edge in graph.edges:
        u, v = tuple(edge)
        edges.add((u, v))
        edges.add((v, u))
    return Database({"E": sorted(edges)}, domain=list(graph))


def grid_database(rows: int, cols: int) -> Database:
    """Return the (symmetrised) ``rows × cols`` grid as a graph database."""
    return _symmetric_graph_database(grid_graph(rows, cols))


def expander_database(n: int, offsets: Sequence[int] = (1, 2)) -> Database:
    """Return the (symmetrised) circulant ``C_n(offsets)`` as a graph database.

    With spread-out offsets circulants behave like expanders: constant
    degree but no small separators, so path/tree sweeps see uniformly
    high fan-out everywhere.
    """
    return _symmetric_graph_database(circulant_graph(n, offsets))


def mixed_vocabulary_database(
    n: int,
    rows_per_table: int,
    seed: int = 0,
    skew: float = 0.0,
) -> Database:
    """Return a multi-table database exercising several vocabularies at once.

    Tables: a symmetric binary ``E`` (graph edges), an asymmetric binary
    ``L`` (links), a ternary ``R``, and two unary colours ``C1``/``C2``.
    Query batches over different subsets of these tables span several
    vocabularies: the reference evaluator builds one target structure
    (and one index set) per vocabulary, the execution service one for
    the whole database.  ``skew > 0`` draws values Zipf-style instead
    of uniformly.
    """
    rng = random.Random(seed)
    domain = list(range(n))
    pick = _zipf_sampler(rng, domain, skew) if skew > 0 else (lambda: rng.choice(domain))

    edges: Set[Tuple[int, int]] = set()
    # There are only n·(n−1) ordered non-loop pairs; cap the target so a
    # large rows_per_table saturates the table instead of looping forever.
    edge_target = min(2 * rows_per_table, n * (n - 1))
    while len(edges) < edge_target:
        a, b = pick(), pick()
        if a != b:
            edges.add((a, b))
            edges.add((b, a))
    links = {(pick(), pick()) for _ in range(rows_per_table)}
    triples = {(pick(), pick(), pick()) for _ in range(rows_per_table)}
    c1 = {(value,) for value in rng.sample(domain, max(1, n // 3))}
    c2 = {(value,) for value in rng.sample(domain, max(1, n // 4))}
    return Database(
        {"E": edges, "L": links, "R": triples, "C1": c1, "C2": c2},
        domain=domain,
    )
