"""Threshold questions settled by their cheapest certificate.

:meth:`~repro.classification.classifier.StructureProfile.threshold_degree`
asks Theorem 3.1's three questions about a core (td, tw and pw against
the planner's thresholds) and stops each at the first proof it finds:

* **treewidth** — :meth:`TreewidthEngine.root_bounds`, the
  contraction-degeneracy lower bound and the min-fill incumbent, settle
  ``tw ≤ cap`` unless the cap falls between them.  A tw is stored only
  once proven exactly; the rest waits for a read;
* **pathwidth** — :meth:`PathwidthEngine.root_bounds`, the tw (or its
  root lower bound) and the degeneracy below, the root's greedy layout
  above, settle ``pw ≤ cap`` the same way, with the same storage rule;
* **tree depth** — every branching subproblem of the treedepth engine is
  bounded below by ``td(C_ℓ) = 1 + ⌈log2 ℓ⌉`` for the longest cycle ``ℓ``
  a back edge closes in one DFS;
* **the core** — for an undirected loop-free graph in which every element
  has a neighbour, the full domains already are arc consistency's
  fixpoint, so :meth:`_Program.certify` runs no propagation.

Three searches do less work for the same answers, counted here as well:
the core search checks each atom as soon as all its variables but one
are assigned (forward checking), arc consistency revises only the
variables a change can cut, and a capped pathwidth search bounds by
degeneracy only where the boundary is empty.

Each certificate is held to the exact value it stands in for, and the
work it saves on the 400 graph patterns of ``test_core_engine_oracle`` is
counted, so a regression fails here and not only in the benchmark.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import pytest

from oracles import core_engine as oracle
from oracles.seeds import _exact_treedepth, legacy_exact_treedepth
from test_core_engine_oracle import graph_patterns
from test_lazy_widths import CONFIGS, Case

from repro.classification.degrees import ComplexityDegree
from repro.classification.solver_dispatch import DEFAULT_PLANNER_CONFIG, choose_degree
from repro.decomposition.treedepth_engine import TreedepthEngine
from repro.decomposition.width_engine import (
    PathwidthEngine,
    TreewidthEngine,
    engine_pathwidth,
    engine_treewidth,
)
from repro.graphlib.graph import Graph
from repro.homomorphism import core_engine
from repro.homomorphism.core_engine import endomorphism_domains
from repro.structures.builders import cycle_graph, grid_graph
from repro.structures.gaifman import gaifman_graph


@pytest.fixture(scope="module")
def graph_cases() -> List[Case]:
    return [Case(pattern) for pattern in graph_patterns()]


# ---------------------------------------------------------------------------
# Treewidth: the root bounds
# ---------------------------------------------------------------------------

def test_treewidth_is_stored_only_once_proven(graph_cases):
    left_open = 0
    for case in graph_cases:
        graph = gaifman_graph(case.computation.core)
        lower, upper = TreewidthEngine(graph).root_bounds()
        treewidth, _, treedepth = case.report.values()
        assert lower <= treewidth <= upper
        for config in CONFIGS:
            profile = case.fresh_profile()
            assert choose_degree(profile, config) is case.reference_degree(config)
            cap = config.treewidth_threshold
            asked = not (
                treedepth <= config.treedepth_threshold
                and treedepth - 1 <= min(config.pathwidth_threshold, cap)
            )
            if not asked:
                assert profile._treewidth is None
            elif lower == upper:
                assert profile._treewidth == treewidth
            elif not lower <= cap < upper:
                # The bounds settle tw ≤ cap without the value: read later.
                assert profile._treewidth is None
                left_open += config is DEFAULT_PLANNER_CONFIG
            if profile._treewidth is not None:
                assert profile._treewidth == treewidth
            assert profile.core_treewidth == engine_treewidth(graph) == treewidth
    assert left_open >= 1


# ---------------------------------------------------------------------------
# Pathwidth: the root layout
# ---------------------------------------------------------------------------

def test_pathwidth_is_stored_only_once_proven(graph_cases):
    left_open = 0
    for case in graph_cases:
        graph = gaifman_graph(case.computation.core)
        _, pathwidth, treedepth = case.report.values()
        for config in CONFIGS:
            profile = case.fresh_profile()
            degree = choose_degree(profile, config)
            assert degree is case.reference_degree(config)
            cap = config.pathwidth_threshold
            asked = degree is not ComplexityDegree.W1_HARD and not (
                treedepth <= config.treedepth_threshold
                and treedepth - 1 <= min(cap, config.treewidth_threshold)
            )
            if not asked:
                assert profile._pathwidth is None
                continue
            # The decision's lower hint: the tw, or its root lower bound
            # when the root bounds settled tw ≤ cap without the value.
            hint = profile._treewidth
            if hint is None:
                hint = TreewidthEngine(graph).root_bounds()[0]
            lower, upper = PathwidthEngine(graph, lower_hint=hint).root_bounds()
            assert lower <= pathwidth <= upper
            if lower < upper <= cap:
                # The root layout answers pw ≤ cap: the value waits for a read.
                assert profile._pathwidth is None
                left_open += config is DEFAULT_PLANNER_CONFIG
            elif lower == upper or pathwidth <= cap:
                assert profile._pathwidth == pathwidth
            if profile._pathwidth is not None:
                assert profile._pathwidth == pathwidth
            assert profile.core_pathwidth == engine_pathwidth(graph) == pathwidth
    assert left_open >= 20


# ---------------------------------------------------------------------------
# Tree depth: the DFS cycle bound
# ---------------------------------------------------------------------------

def wheel_graph(rim: int) -> Graph:
    """The cycle ``C_rim`` plus a hub adjacent to all of it."""
    spokes = [("hub", vertex) for vertex in range(rim)]
    ring = [(vertex, (vertex + 1) % rim) for vertex in range(rim)]
    return Graph(list(range(rim)) + ["hub"], ring + spokes)


def chorded_cycle_graph(n: int) -> Graph:
    """``C_n`` plus the chord between opposite vertices: no recognised shape."""
    ring = [(vertex, (vertex + 1) % n) for vertex in range(n)]
    return Graph(range(n), ring + [(0, n // 2)])


TREEDEPTH_GRAPHS: Dict[str, Graph] = {
    **{f"C{n}": cycle_graph(n) for n in range(3, 21)},
    **{f"W{n}": wheel_graph(n) for n in range(3, 11)},
    **{f"C{n}+chord": chorded_cycle_graph(n) for n in range(6, 17)},
    **{f"grid{r}x{c}": grid_graph(r, c) for r, c in [(2, 2), (2, 3), (2, 5), (3, 3), (3, 4), (3, 5)]},
}


@pytest.mark.parametrize("name", sorted(TREEDEPTH_GRAPHS))
def test_treedepth_engine_equals_the_seed(name):
    graph = TREEDEPTH_GRAPHS[name]
    exact = legacy_exact_treedepth(graph)
    engine = TreedepthEngine(graph)
    assert engine.value() == exact
    assert engine.forest().height() == exact
    # Every bound the engine certified on the way, the cycle bound
    # included, stays at or below the subgraph's exact tree depth.
    memo: Dict = {}
    for mask, entry in engine._memo.items():
        vertices = frozenset(v for i, v in enumerate(engine._vertices) if mask >> i & 1)
        assert entry.lb <= _exact_treedepth(graph, vertices, memo, len(graph))[0]


# ---------------------------------------------------------------------------
# The core: no arc consistency that cannot prune
# ---------------------------------------------------------------------------

def folded_symmetric_programs() -> Iterator[Tuple[core_engine._Program, int]]:
    """The symmetric graph patterns, compiled and folded to a fixpoint."""
    for pattern in graph_patterns()[::2]:
        program = core_engine._Program(pattern)
        alive, _ = program.fold_reduce(program.full, list(range(len(program.elements))))
        yield program, alive


def test_symmetric_patterns_certify_without_propagation(monkeypatch):
    revised: List[int] = []
    original = core_engine._Program._revise

    def counted(self, k, cause, domains):
        revised.append(k)
        return original(self, k, cause, domains)

    monkeypatch.setattr(core_engine._Program, "_revise", counted)
    skipped = 0
    for program, alive in folded_symmetric_programs():
        neighbours = program.undirected_neighbours(alive)
        assert neighbours is not None
        if alive.bit_count() == 1 or program.degree_certificate(alive, neighbours):
            continue
        revised.clear()
        certificate, domains = program.certify(alive)
        assert certificate is None and revised == []
        skipped += 1
        expected = endomorphism_domains(program.induce(alive))
        assert {
            program.elements[a]: program.decode(domains[a]) for a in core_engine._bits(alive)
        } == expected
        assert domains == program.domains(alive)
        # With a carried seed (here the full domains) it still propagates.
        revised.clear()
        seeded = program.certify(alive, domains)[1]
        assert revised
        assert seeded == program.domains(alive, domains)
    assert skipped >= 150


def test_forward_checking_visits_fewer_search_nodes(monkeypatch):
    """The engine's search tree is the oracle's with the dead subtrees cut:
    no pattern takes more nodes, and the 400 take a seventh as many."""
    programs: List[core_engine._Program] = []

    class Recorded(core_engine._Program):
        def __init__(self, structure):
            super().__init__(structure)
            programs.append(self)

    entered: List[int] = []
    candidates = oracle._candidates

    def counted(*args, **kwargs):
        entered.append(1)
        return candidates(*args, **kwargs)

    monkeypatch.setattr(core_engine, "_Program", Recorded)
    monkeypatch.setattr(oracle, "_candidates", counted)
    nodes = oracle_nodes = 0
    for pattern in graph_patterns():
        programs.clear()
        entered.clear()
        core_engine.compute_core(pattern)
        oracle.compute_core(pattern)
        (program,) = programs
        assert program.search_nodes <= len(entered)
        nodes += program.search_nodes
        oracle_nodes += len(entered)
    # 9,076 nodes against the oracle's 65,993 (its node: a candidate set
    # computed; the engine's: a level entered).
    assert oracle_nodes >= 60_000
    assert nodes * 5 <= oracle_nodes


def test_arc_consistency_revises_only_what_a_change_can_cut(monkeypatch):
    """Each binary arc's support list counts the lookups ``_revise`` makes
    in it.  Revising by cause reaches the same domains as revising every
    variable of each queued atom, with fewer lookups."""
    lookups = 0

    class Counted(list):
        def __getitem__(self, value):
            nonlocal lookups
            lookups += 1
            return list.__getitem__(self, value)

    arcs_of = core_engine._Program._arcs_of
    domains = core_engine._Program.domains
    revise = core_engine._Program._revise

    def counted_arcs(self, k):
        return [
            (x, y, Counted(supports) if y >= 0 else supports)
            for x, y, supports in arcs_of(self, k)
        ]

    def run() -> Tuple[int, List[List[int]]]:
        nonlocal lookups
        lookups, fixpoints = 0, []

        def recorded(self, alive, seed=None):
            fixpoints.append(domains(self, alive, seed))
            return fixpoints[-1]

        monkeypatch.setattr(core_engine._Program, "domains", recorded)
        for pattern in graph_patterns():
            core_engine.compute_core(pattern)
        return lookups, fixpoints

    monkeypatch.setattr(core_engine._Program, "_arcs_of", counted_arcs)
    by_cause, fixpoints = run()
    monkeypatch.setattr(
        core_engine._Program, "_revise", lambda self, k, cause, domains: revise(self, k, -1, domains)
    )
    every, every_fixpoints = run()
    assert fixpoints == every_fixpoints
    # 305 fixpoints: 101,389 lookups revising every variable, 90,653 by cause.
    assert every >= 95_000
    assert every - by_cause >= 9_000


# ---------------------------------------------------------------------------
# The work the certificates save, counted
# ---------------------------------------------------------------------------

def test_threshold_decisions_settle_at_the_root(graph_cases, monkeypatch):
    built: Dict[type, List] = {TreewidthEngine: [], TreedepthEngine: [], PathwidthEngine: []}
    for cls, log in built.items():

        def recording(self, *args, _original=cls.__init__, _log=log, **kwargs):
            _original(self, *args, **kwargs)
            _log.append(self)

        monkeypatch.setattr(cls, "__init__", recording)
    deep = settled = paths = laid_out = 0
    for case in graph_cases:
        for log in built.values():
            log.clear()
        degree = choose_degree(case.fresh_profile())
        assert sum(engine.branched for engine in built[TreewidthEngine]) == 0
        if case.report.treedepth.value > DEFAULT_PLANNER_CONFIG.treedepth_threshold:
            deep += 1
            (depth_engine,) = built[TreedepthEngine]
            settled += depth_engine.branched == 0
        if degree is ComplexityDegree.PATH_COMPLETE:
            paths += 1
            (width_engine,) = built[PathwidthEngine]
            laid_out += width_engine.branched == 0
    assert deep >= 100
    assert settled >= 45
    # pw ≤ 3 without a branch: the root layout fits the cap or meets the
    # lower bound (98 of 118; 73 when only a met bound stopped the search).
    assert paths >= 100
    assert laid_out >= 90


def test_capped_pathwidth_bounds_by_degeneracy_only_on_closed_masks(graph_cases, monkeypatch):
    calls: List[int] = []
    strengthened: List[int] = []
    degeneracy = PathwidthEngine._degeneracy
    strengthen = PathwidthEngine._strengthen

    def counted_degeneracy(self, mask):
        calls.append(mask)
        return degeneracy(self, mask)

    def counted_strengthen(self, mask, entry, boundary=0):
        strengthened.append(boundary)
        return strengthen(self, mask, entry, boundary)

    monkeypatch.setattr(PathwidthEngine, "_degeneracy", counted_degeneracy)
    monkeypatch.setattr(PathwidthEngine, "_strengthen", counted_strengthen)
    for case in graph_cases:
        choose_degree(case.fresh_profile())
    # Once per mask with an empty boundary (140 of 2,003 strengthened
    # subproblems), not once per strengthened subproblem.
    assert len(calls) == strengthened.count(0)
    assert len(strengthened) >= 1_500
    assert len(calls) * 10 <= len(strengthened)
