"""The benchmark's workloads, built deterministically from a seed.

Each workload loads one layer of the stack and leaves the others nearly
idle, so a change to one layer shows on one workload and not on another:

================  =========================================================
workload          what runs, and which layer does the work
================  =========================================================
``mixed_cold``    600 ``mixed_vocabulary`` queries, in batches of 4,
                  into an in-process ``EvalService``.  The para-L solve
                  does almost all the work.
``classify_cold`` 400 pairwise-distinct connected graph patterns (a random
                  spanning tree plus chords on 12–16 variables, half
                  symmetric, half oriented), in batches of 4, into an
                  in-process ``EvalService`` against the symmetric
                  triangle K3.  Classification (core search, exact
                  widths) does most of the work; solving against K3 stays
                  cheap.
``service_repeat`` Zipf draws from a pool of 160 distinct
                  ``mixed_vocabulary`` patterns through a two-worker
                  ``QueryService`` via ``submit``/``flush``, in batches of
                  16, after an untimed pass over the pool.  Every timed
                  query is a memo hit: the service tier does the work.
``pool_repeat``   Zipf draws from the same pool, cold, through a two-worker
                  ``QueryService`` with ``flush(mode="parallel")`` in
                  batches of 64: the process pool and the manager's
                  cross-worker stores.
================  =========================================================

A workload is a fixed sequence of batches, built from a fixed corpus.
The seed picks the batch a round starts at — the sequence is rotated,
never reordered — and a run replays that one order round after round;
the cold workloads set up a fresh service with cleared module caches
before every round.  So the seed changes what comes first, never what is
sent or what follows what: query cost is heavy-tailed (one pattern of
``mixed_vocabulary`` seed 0 takes ~7 s to solve), regrouping the same
queries into new batches moved the batch-latency percentiles by 4–10%
from seed to seed, and a shuffled order changes which repeats the
bounded caches still hold — each of which would measure the seed rather
than the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cq.database import Database
from repro.cq.query import ConjunctiveQuery, QueryAtom
from repro.structures.vocabulary import Vocabulary
from repro.workloads import scenario_by_name

WORKLOAD_NAMES = ("mixed_cold", "classify_cold", "service_repeat", "pool_repeat")

#: The ``mixed_cold`` corpus: this many ``mixed_vocabulary`` queries of
#: scenario seed 1 (405 distinct patterns).  At 1,200 queries the p90
#: batch fell on a cliff between the light batches and the ~10% that
#: solve an expensive para-L pattern, and moved by a fifth run to run.
MIXED_QUERIES = 600
MIXED_SCENARIO_SEED = 1

#: The ``classify_cold`` corpus: more patterns than the 256-entry profile
#: cache holds.
CLASSIFY_PATTERNS = 400
CLASSIFY_CORPUS_SEED = 1
CLASSIFY_VARIABLES = (12, 16)
CLASSIFY_CHORD_SHARE = (0.25, 0.5)

#: The repeat workloads' pool: the first 160 distinct patterns of
#: ``mixed_vocabulary`` scenario seed 1, which solve in ~0.3 s together.
POOL_PATTERNS = 160
POOL_SCENARIO_SEED = 1

#: Batches of the repeat workloads.  A cold ``pool_repeat`` round spends
#: its first ~20 batches solving the pool; with 200 batches its p90 fell
#: on the steep end of those and moved by a tenth run to run, so a round
#: has 300, and the p90 lies among the memo-hit batches.
SERVICE_BATCHES = 200
POOL_BATCHES = 300

#: The symmetric triangle: hom(A → K3) holds iff A's underlying graph is
#: 3-colourable, which is what the classify workload's oracle checks.
TRIANGLE = Database({"E": [(a, b) for a in range(3) for b in range(3) if a != b]})


@dataclass(frozen=True)
class Workload:
    """One workload: its queries, its batches, and how to serve them."""

    name: str
    seed: int
    database: Database
    queries: Tuple[ConjunctiveQuery, ...]
    #: The fixed batch sequence, as indexes into ``queries``.
    plan: Tuple[Tuple[int, ...], ...]
    #: ``"eval"`` for an in-process ``EvalService``, ``"query"`` for a
    #: ``QueryService``.
    service: str
    workers: int
    #: The mode forced on every ``QueryService.flush`` (None = the
    #: service's own controller decides).
    flush_mode: Optional[str]
    #: Whether every round starts from a fresh set-up and cleared caches;
    #: otherwise one service, after an untimed pass over every query,
    #: serves all rounds.
    cold: bool
    #: ``"join"`` or ``"three_colouring"`` (see perfbench.checks).
    oracle: str
    #: Rounds of a timed run per second asked for: sized so that a run of
    #: this commit fills about the time asked for, and fixed, so that
    #: every commit is measured over the same number of rounds.
    rounds_per_second: float
    #: Rounds of a traced run.
    trace_rounds: int

    @property
    def in_process(self) -> bool:
        """Whether the client process does all the work (no manager or pool)."""
        return self.service == "eval"

    def rounds(self, seconds: float) -> int:
        """Rounds of a timed run asked to last ``seconds``: at least two."""
        return max(2, round(seconds * self.rounds_per_second))

    def order(self) -> Tuple[Tuple[int, ...], ...]:
        """The batches in this seed's order, as indexes into ``queries``."""
        start = random.Random(f"perfbench:{self.name}:{self.seed}").randrange(len(self.plan))
        return self.plan[start:] + self.plan[:start]

    def batches(self) -> List[List[ConjunctiveQuery]]:
        """One round's batches, in order."""
        return [[self.queries[index] for index in batch] for batch in self.order()]

    def round_length(self) -> int:
        return sum(len(batch) for batch in self.plan)

    def vocabularies(self) -> List[Vocabulary]:
        """The distinct vocabularies of the workload's queries, first seen first."""
        seen: Dict[Vocabulary, None] = {}
        for query in self.queries:
            seen.setdefault(query.vocabulary(), None)
        return list(seen)


def consecutive(count: int, size: int) -> Tuple[Tuple[int, ...], ...]:
    """``range(count)`` cut into consecutive batches of ``size``."""
    return tuple(tuple(range(start, min(start + size, count))) for start in range(0, count, size))


def mixed_cold(seed: int) -> Workload:
    scenario = scenario_by_name("mixed_vocabulary", count=MIXED_QUERIES, seed=MIXED_SCENARIO_SEED)
    return Workload(
        name="mixed_cold",
        seed=seed,
        database=scenario.database,
        queries=scenario.queries,
        plan=consecutive(len(scenario.queries), 4),
        service="eval",
        workers=1,
        flush_mode=None,
        cold=True,
        oracle="join",
        rounds_per_second=0.6,
        trace_rounds=2,
    )


def graph_pattern(rng: random.Random, symmetric: bool) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
    """A connected graph pattern: a random spanning tree plus chords.

    Returns ``(variables, arcs)``.  A symmetric pattern carries both
    orientations of every edge (it folds, then needs the core engine's
    endomorphism search); an oriented one carries one random direction
    per edge and keeps a large rigid core for the exact width engines.
    """
    low, high = CLASSIFY_VARIABLES
    n = rng.randint(low, high)
    edges = set()
    for vertex in range(1, n):
        edges.add((rng.randrange(vertex), vertex))
    chords = rng.randint(round(n * CLASSIFY_CHORD_SHARE[0]), round(n * CLASSIFY_CHORD_SHARE[1]))
    target = len(edges) + chords
    while len(edges) < target:
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((a, b))
    arcs: List[Tuple[int, int]] = []
    for a, b in sorted(edges):
        if symmetric:
            arcs += [(a, b), (b, a)]
        else:
            arcs.append((a, b) if rng.random() < 0.5 else (b, a))
    return n, tuple(arcs)


def classify_patterns(seed: int, count: int) -> Tuple[ConjunctiveQuery, ...]:
    """``count`` pairwise-distinct patterns, alternating symmetric and oriented.

    Variables are always ``v0 … v(n-1)`` and every pattern is connected,
    so two patterns have equal canonical structures exactly when their
    variable counts and arc sets are equal — the key deduplicated on.
    """
    rng = random.Random(f"perfbench:classify:{seed}")
    seen = set()
    queries: List[ConjunctiveQuery] = []
    while len(queries) < count:
        n, arcs = graph_pattern(rng, symmetric=len(queries) % 2 == 0)
        key = (n, frozenset(arcs))
        if key in seen:
            continue
        seen.add(key)
        queries.append(ConjunctiveQuery([QueryAtom("E", (f"v{a}", f"v{b}")) for a, b in arcs]))
    return tuple(queries)


def classify_cold(seed: int) -> Workload:
    return Workload(
        name="classify_cold",
        seed=seed,
        database=TRIANGLE,
        queries=classify_patterns(CLASSIFY_CORPUS_SEED, CLASSIFY_PATTERNS),
        plan=consecutive(CLASSIFY_PATTERNS, 4),
        service="eval",
        workers=1,
        flush_mode=None,
        cold=True,
        oracle="three_colouring",
        rounds_per_second=0.4,
        trace_rounds=2,
    )


def pattern_pool() -> Tuple[Database, Tuple[ConjunctiveQuery, ...]]:
    """The repeat workloads' pool of distinct patterns, and its database."""
    scenario = scenario_by_name(
        "mixed_vocabulary", count=2 * POOL_PATTERNS, seed=POOL_SCENARIO_SEED
    )
    seen = set()
    pool = []
    for query in scenario.queries:
        key = (query.canonical_structure(), query.vocabulary())
        if key not in seen:
            seen.add(key)
            pool.append(query)
    if len(pool) < POOL_PATTERNS:
        raise ValueError(f"the pool scenario has only {len(pool)} distinct patterns")
    return scenario.database, tuple(pool[:POOL_PATTERNS])


def zipf_plan(name: str, patterns: int, batches: int, size: int) -> Tuple[Tuple[int, ...], ...]:
    """``batches`` batches of ``size`` Zipf draws over ``range(patterns)``
    (rank = pool position), fixed by the workload's name."""
    rng = random.Random(f"perfbench:{name}:draws")
    weights = [1.0 / (rank + 1) for rank in range(patterns)]
    draws = rng.choices(range(patterns), weights=weights, k=batches * size)
    return tuple(tuple(draws[start : start + size]) for start in range(0, len(draws), size))


def service_repeat(seed: int) -> Workload:
    database, pool = pattern_pool()
    return Workload(
        name="service_repeat",
        seed=seed,
        database=database,
        queries=pool,
        plan=zipf_plan("service_repeat", len(pool), SERVICE_BATCHES, 16),
        service="query",
        workers=2,
        flush_mode=None,
        cold=False,
        oracle="join",
        rounds_per_second=3.0,
        trace_rounds=4,
    )


def pool_repeat(seed: int) -> Workload:
    database, pool = pattern_pool()
    return Workload(
        name="pool_repeat",
        seed=seed,
        database=database,
        queries=pool,
        plan=zipf_plan("pool_repeat", len(pool), POOL_BATCHES, 64),
        service="query",
        workers=2,
        flush_mode="parallel",
        cold=True,
        oracle="join",
        rounds_per_second=0.35,
        trace_rounds=2,
    )


_MAKERS = {
    "mixed_cold": mixed_cold,
    "classify_cold": classify_cold,
    "service_repeat": service_repeat,
    "pool_repeat": pool_repeat,
}


def build(name: str, seed: int) -> Workload:
    """The named workload for ``seed``."""
    try:
        make = _MAKERS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOAD_NAMES)}") from None
    return make(seed)
