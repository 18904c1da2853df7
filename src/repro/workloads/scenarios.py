"""Scenario-diverse EVAL(Φ) workloads: query batches paired with databases.

The execution service (:mod:`repro.eval`), the differential fuzzing
harness and ``benchmarks/bench_eval_service.py`` all need the same thing:
named, seeded, scalable *(queries, database)* pairs covering the shapes
the classification theorem distinguishes.  Each scenario stresses a
different axis:

=====================  ====================================================
scenario               what it stresses
=====================  ====================================================
``grid_walks``         path/cycle queries on a grid database — low
                       fan-out, large sparse target
``expander_mix``       the same queries on a circulant expander — uniform
                       fan-out everywhere, no small separators
``long_paths``         long acyclic (path-shaped) queries — PATH-regime
                       load with deep, narrow patterns
``stars_skewed``       star queries on a Zipf-skewed database — the
                       fan-out statistic diverges from the uniform guess
``cycles_dense``       odd-cycle queries on a dense database — high
                       fan-out joins, W[1]-regime patterns mixed in
``acyclic_random``     random tree-shaped (acyclic) queries — guaranteed
                       easy cores, exercises the treedepth route
``mixed_vocabulary``   random queries over five tables and three distinct
                       vocabularies — one database structure serves them all
``folded_cores``       large symmetric trees / undirected paths / even
                       cycles (10–18 variables) with single-edge cores —
                       trees and paths fold away, even cycles need one
                       short search; a pattern scale the seed ``core()``
                       could not reach
``rigid_cycles``       odd undirected cycles and long directed paths —
                       certificate-rigid cores (odd-cycle / AC
                       certificates), big patterns on the PATH route
``deep_cores``         13–25-variable rigid cores (odd cycles C13–C25,
                       directed paths P13–P30) plus folded grid queries —
                       the scale where exact treedepth used to fall back
                       to the trivial DFS bound; exercises the
                       branch-and-bound treedepth engine end to end
``load_shift``         a mid-run mix flip — cheap folding patterns for the
                       first half, long directed paths and odd cycles for
                       the second, in one batch stream
=====================  ====================================================

All randomness flows through an explicit ``random.Random(seed)``; the
same name, count, seed and scale always produce the identical scenario.

**Scaling.**  Every builder takes a ``scale ≥ 1`` knob that grows the
*database* side only — universes grow linearly in ``scale`` and each
scenario's table row counts land within a constant factor of
``scale × base rows``, into the thousands-of-rows regime at ``scale ≈
10``.  The query batch is untouched (its RNG stream is consumed before
the database is built), so classification work is identical at every
scale and a scaled run stresses exactly what a production service would:
target indexes, statistics, join fan-out and memory — not pattern-side
CPU (ROADMAP "scenario realism").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.cq.database import Database
from repro.cq.query import ConjunctiveQuery, QueryAtom
from repro.workloads.targets import (
    dense_graph_database,
    expander_database,
    grid_database,
    mixed_vocabulary_database,
    skewed_database,
)


@dataclass(frozen=True)
class EvalScenario:
    """A named EVAL(Φ) workload: a query batch and the database to run it on."""

    name: str
    description: str
    queries: Tuple[ConjunctiveQuery, ...]
    database: Database


# ---------------------------------------------------------------------------
# query generators
# ---------------------------------------------------------------------------

def _variables(count: int) -> List[str]:
    return [f"v{i}" for i in range(count)]


def path_query(length: int) -> ConjunctiveQuery:
    """The query "is there a directed walk of ``length`` edges?"."""
    names = _variables(length + 1)
    atoms = [QueryAtom("E", (names[i], names[i + 1])) for i in range(length)]
    return ConjunctiveQuery(atoms)


def cycle_query(length: int) -> ConjunctiveQuery:
    """The query "is there a closed walk of ``length`` edges?"."""
    names = _variables(length)
    atoms = [
        QueryAtom("E", (names[i], names[(i + 1) % length])) for i in range(length)
    ]
    return ConjunctiveQuery(atoms)


def star_query(leaves: int) -> ConjunctiveQuery:
    """The query "is there an element with ``leaves`` out-neighbours?"."""
    names = _variables(leaves + 1)
    atoms = [QueryAtom("E", (names[0], names[i + 1])) for i in range(leaves)]
    return ConjunctiveQuery(atoms)


def clique_query(size: int) -> ConjunctiveQuery:
    """The query "is there a (symmetric) ``size``-clique?".

    The canonical structure is ``K_size``, which is its own core: sizes 5
    and 6 land in the TREE and W[1] regimes under the default thresholds,
    so these queries light up the heavy solver routes.
    """
    names = _variables(size)
    atoms = []
    for i in range(size):
        for j in range(size):
            if i != j:
                atoms.append(QueryAtom("E", (names[i], names[j])))
    return ConjunctiveQuery(atoms)


def undirected_path_query(length: int) -> ConjunctiveQuery:
    """The path query with both edge orientations (a symmetric pattern).

    The canonical structure is the undirected path ``P_{length+1}``,
    which folds to a single symmetric edge — the core engine retracts it
    in near-linear time where the seed restarted a search per element.
    """
    names = _variables(length + 1)
    atoms = []
    for i in range(length):
        atoms.append(QueryAtom("E", (names[i], names[i + 1])))
        atoms.append(QueryAtom("E", (names[i + 1], names[i])))
    return ConjunctiveQuery(atoms)


def undirected_cycle_query(length: int) -> ConjunctiveQuery:
    """The cycle query with both edge orientations.

    Even lengths collapse to a single symmetric edge — no vertex of an
    even cycle is dominated, so the core engine reaches the edge through
    one short non-surjective-endomorphism search rather than folds.  Odd
    lengths are their own cores, certified rigid by the engine's
    odd-cycle certificate.
    """
    names = _variables(length)
    atoms = []
    for i in range(length):
        atoms.append(QueryAtom("E", (names[i], names[(i + 1) % length])))
        atoms.append(QueryAtom("E", (names[(i + 1) % length], names[i])))
    return ConjunctiveQuery(atoms)


def undirected_tree_query(rng: random.Random, variables: int) -> ConjunctiveQuery:
    """A random tree-shaped query with both orientations per edge.

    The canonical structure is a symmetric tree, whose core is a single
    symmetric edge reached purely by leaf folds.
    """
    names = _variables(max(2, variables))
    atoms = []
    for i in range(1, len(names)):
        parent = names[rng.randrange(0, i)]
        atoms.append(QueryAtom("E", (parent, names[i])))
        atoms.append(QueryAtom("E", (names[i], parent)))
    return ConjunctiveQuery(atoms)


def grid_query(rows: int, cols: int) -> ConjunctiveQuery:
    """The ``rows × cols`` grid query with both edge orientations.

    The canonical structure is the symmetric grid — bipartite, so it
    folds all the way down to a single symmetric edge.  At 15–24
    variables these are the "folded grids" of the deep-core workloads:
    big patterns whose classification cost is all fold propagation, with
    a trivial two-element core at the end.
    """
    names = [[f"g{r}_{c}" for c in range(cols)] for r in range(rows)]
    atoms = []
    for r in range(rows):
        for c in range(cols):
            for other in ((r + 1, c), (r, c + 1)):
                if other[0] < rows and other[1] < cols:
                    atoms.append(QueryAtom("E", (names[r][c], names[other[0]][other[1]])))
                    atoms.append(QueryAtom("E", (names[other[0]][other[1]], names[r][c])))
    return ConjunctiveQuery(atoms)


def random_acyclic_query(
    rng: random.Random, variables: int, relation: str = "E"
) -> ConjunctiveQuery:
    """A random tree-shaped (hence acyclic, easy-core) binary query.

    Variable ``i > 0`` is linked to a random earlier variable, with a
    random edge orientation — the random-parent model on query variables.
    """
    names = _variables(max(2, variables))
    atoms = []
    for i in range(1, len(names)):
        parent = names[rng.randrange(0, i)]
        pair = (parent, names[i]) if rng.random() < 0.5 else (names[i], parent)
        atoms.append(QueryAtom(relation, pair))
    return ConjunctiveQuery(atoms)


def random_query(
    rng: random.Random,
    tables: Dict[str, int],
    max_atoms: int = 4,
    max_variables: int = 5,
) -> ConjunctiveQuery:
    """A random conjunctive query over a subset of the given tables."""
    names = _variables(rng.randint(2, max_variables))
    table_names = sorted(tables)
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        table = rng.choice(table_names)
        arity = max(1, tables[table])
        atoms.append(
            QueryAtom(table, tuple(rng.choice(names) for _ in range(arity)))
        )
    return ConjunctiveQuery(atoms)


# ---------------------------------------------------------------------------
# scenario builders
# ---------------------------------------------------------------------------

def _shape_pool(rng: random.Random, count: int, shapes: Sequence[Callable[[], ConjunctiveQuery]]) -> Tuple[ConjunctiveQuery, ...]:
    return tuple(rng.choice(shapes)() for _ in range(count))


def _grid_walks(count: int, seed: int, scale: int = 1) -> EvalScenario:
    rng = random.Random(seed)
    side = max(6, round(6 * scale ** 0.5))
    shapes = [
        lambda: path_query(rng.randint(1, 4)),
        lambda: cycle_query(2 * rng.randint(2, 3)),   # even cycles exist in grids
        lambda: star_query(rng.randint(2, 4)),
    ]
    return EvalScenario(
        "grid_walks",
        "path/cycle/star queries against a grid database (sparse, low fan-out)",
        _shape_pool(rng, count, shapes),
        grid_database(side, side),
    )


def _expander_mix(count: int, seed: int, scale: int = 1) -> EvalScenario:
    rng = random.Random(seed)
    n = 31 * scale
    shapes = [
        lambda: path_query(rng.randint(1, 4)),
        lambda: cycle_query(rng.randint(3, 5)),
        lambda: star_query(rng.randint(2, 4)),
        lambda: clique_query(rng.randint(4, 6)),
    ]
    return EvalScenario(
        "expander_mix",
        "the same query shapes against a circulant expander (uniform fan-out)",
        _shape_pool(rng, count, shapes),
        expander_database(n, (1, 5, 12)),
    )


def _long_paths(count: int, seed: int, scale: int = 1) -> EvalScenario:
    rng = random.Random(seed)
    return EvalScenario(
        "long_paths",
        "long acyclic path queries on a sparse random database (PATH-regime load)",
        tuple(path_query(rng.randint(5, 17)) for _ in range(count)),
        dense_graph_database(24 * scale, edge_probability=0.12 / scale, seed=seed),
    )


def _stars_skewed(count: int, seed: int, scale: int = 1) -> EvalScenario:
    rng = random.Random(seed)
    return EvalScenario(
        "stars_skewed",
        "star queries on a Zipf-skewed database (celebrity fan-out)",
        tuple(star_query(rng.randint(2, 6)) for _ in range(count)),
        skewed_database(40 * scale, rows_per_table=160 * scale, skew=1.5, seed=seed),
    )


def _cycles_dense(count: int, seed: int, scale: int = 1) -> EvalScenario:
    rng = random.Random(seed)
    shapes = [
        lambda: cycle_query(2 * rng.randint(1, 4) + 1),
        lambda: clique_query(rng.randint(4, 5)),
        lambda: path_query(rng.randint(12, 16)),
    ]
    return EvalScenario(
        "cycles_dense",
        "odd-cycle and clique queries on a dense database (all four regimes)",
        _shape_pool(rng, count, shapes),
        dense_graph_database(18 * scale, edge_probability=0.45 / scale, seed=seed),
    )


def _acyclic_random(count: int, seed: int, scale: int = 1) -> EvalScenario:
    rng = random.Random(seed)
    return EvalScenario(
        "acyclic_random",
        "random tree-shaped queries (easy cores, treedepth route)",
        tuple(random_acyclic_query(rng, rng.randint(3, 6)) for _ in range(count)),
        dense_graph_database(20 * scale, edge_probability=0.25 / scale, seed=seed),
    )


def _folded_cores(count: int, seed: int, scale: int = 1) -> EvalScenario:
    rng = random.Random(seed)
    shapes = [
        lambda: undirected_tree_query(rng, rng.randint(10, 16)),
        lambda: undirected_path_query(rng.randint(10, 18)),
        lambda: undirected_cycle_query(2 * rng.randint(4, 8)),
    ]
    return EvalScenario(
        "folded_cores",
        "symmetric trees / long undirected paths (fold to a single edge) "
        "and even cycles (one short search) — collapsing-core patterns",
        _shape_pool(rng, count, shapes),
        grid_database(max(6, round(6 * scale ** 0.5)), max(6, round(6 * scale ** 0.5))),
    )


def _rigid_cycles(count: int, seed: int, scale: int = 1) -> EvalScenario:
    rng = random.Random(seed)
    shapes = [
        lambda: undirected_cycle_query(2 * rng.randint(3, 6) + 1),
        lambda: path_query(rng.randint(12, 20)),
    ]
    return EvalScenario(
        "rigid_cycles",
        "odd undirected cycles (odd-cycle certificate) and long directed "
        "paths (AC-rigid certificate) — big certified-rigid cores on the "
        "PATH route",
        _shape_pool(rng, count, shapes),
        dense_graph_database(16 * scale, edge_probability=0.4 / scale, seed=seed),
    )


def _deep_cores(count: int, seed: int, scale: int = 1) -> EvalScenario:
    rng = random.Random(seed)
    shapes = [
        lambda: undirected_cycle_query(2 * rng.randint(6, 12) + 1),  # C13..C25
        lambda: path_query(rng.randint(12, 29)),                     # P13..P30
        lambda: grid_query(3, rng.randint(5, 8)),                    # 15–24 vars
    ]
    return EvalScenario(
        "deep_cores",
        "13–25-variable rigid cores (odd cycles, long directed paths) and "
        "folded grid queries — exact treedepth at the scale the subset DP "
        "could not reach",
        _shape_pool(rng, count, shapes),
        dense_graph_database(16 * scale, edge_probability=0.4 / scale, seed=seed),
    )


def _load_shift(count: int, seed: int, scale: int = 1) -> EvalScenario:
    rng = random.Random(seed)
    first = count // 2
    cheap = [
        lambda: undirected_tree_query(rng, rng.randint(8, 14)),
        lambda: undirected_path_query(rng.randint(8, 14)),
    ]
    heavy = [
        lambda: path_query(rng.randint(12, 20)),
        lambda: undirected_cycle_query(2 * rng.randint(3, 6) + 1),
    ]
    queries = [rng.choice(cheap)() for _ in range(first)]
    queries += [rng.choice(heavy)() for _ in range(count - first)]
    return EvalScenario(
        "load_shift",
        "a mid-run workload flip: the first half is cheap folding patterns "
        "(symmetric trees/paths), the second half long directed paths and "
        "odd cycles, in one batch stream",
        tuple(queries),
        dense_graph_database(18 * scale, edge_probability=0.35 / scale, seed=seed),
    )


#: The table layout of :func:`mixed_vocabulary_database`, reused by the
#: random query generator so generated queries match the schema.
MIXED_TABLES: Dict[str, int] = {"E": 2, "L": 2, "R": 3, "C1": 1, "C2": 1}


def _mixed_vocabulary(count: int, seed: int, scale: int = 1) -> EvalScenario:
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        # Three sub-schemas — pure graph, link+colour, and the full mix —
        # so one batch spans several distinct vocabularies, plus a slice
        # of long path queries so the batch carries PATH-regime weight.
        choice = rng.random()
        if choice < 0.1:
            queries.append(path_query(rng.randint(10, 15)))
            continue
        if choice < 0.45:
            tables = {"E": 2}
        elif choice < 0.72:
            tables = {"L": 2, "C1": 1}
        else:
            tables = MIXED_TABLES
        queries.append(random_query(rng, tables, max_atoms=4, max_variables=5))
    return EvalScenario(
        "mixed_vocabulary",
        "random queries across three sub-schemas of a five-table database",
        tuple(queries),
        mixed_vocabulary_database(42 * scale, rows_per_table=160 * scale, seed=seed),
    )


_SCENARIO_BUILDERS: Dict[str, Callable[[int, int], EvalScenario]] = {
    "grid_walks": _grid_walks,
    "expander_mix": _expander_mix,
    "long_paths": _long_paths,
    "stars_skewed": _stars_skewed,
    "cycles_dense": _cycles_dense,
    "acyclic_random": _acyclic_random,
    "mixed_vocabulary": _mixed_vocabulary,
    "folded_cores": _folded_cores,
    "rigid_cycles": _rigid_cycles,
    "deep_cores": _deep_cores,
    "load_shift": _load_shift,
}


def all_scenario_names() -> Tuple[str, ...]:
    """Return the names of all registered scenarios (sorted)."""
    return tuple(sorted(_SCENARIO_BUILDERS))


def scenario_by_name(
    name: str, count: int = 50, seed: int = 0, scale: int = 1
) -> EvalScenario:
    """Build the named scenario with ``count`` queries, deterministically.

    ``scale`` grows the database side only (see the module docstring):
    the query batch at ``(name, count, seed)`` is identical at every
    scale, and ``scale=1`` reproduces the historical scenarios exactly.
    """
    if scale < 1:
        raise ValueError("scale must be at least 1")
    try:
        builder = _SCENARIO_BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {sorted(_SCENARIO_BUILDERS)}"
        ) from None
    return builder(count, seed, scale)


def all_scenarios(count: int = 50, seed: int = 0, scale: int = 1) -> List[EvalScenario]:
    """Build every registered scenario at the given scale."""
    return [
        scenario_by_name(name, count, seed, scale) for name in all_scenario_names()
    ]
