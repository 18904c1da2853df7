"""repro — a reproduction of Chen & Müller (PODS 2013).

"The Fine Classification of Conjunctive Queries and Parameterized
Logarithmic Space Complexity" classifies classes of boolean conjunctive
queries (equivalently, of relational structures) by the parameterized
complexity of the homomorphism problem, identifying three degrees inside
FPT — para-L, PATH-complete and TREE-complete — governed by the tree
depth, pathwidth and treewidth of the query cores.

This package implements every object and algorithm the paper relies on:

* :mod:`repro.structures` — relational structures, named families, star
  expansions, Gaifman graphs, products, per-relation hash indexes;
* :mod:`repro.graphlib`, :mod:`repro.decomposition`, :mod:`repro.minors` —
  graphs, tree/path decompositions, tree depth, minor maps;
* :mod:`repro.homomorphism` — homomorphism/embedding solvers (backtracking
  and the memoised elimination-forest recursion), cores;
* :mod:`repro.logic` — first-order formulas, Chandra–Merlin translations,
  the space-accounted model checker, tree-depth sentences;
* :mod:`repro.machines` — Turing machines, jump machines, alternating jump
  machines, configuration graphs, the colour-coding hash family;
* :mod:`repro.reductions` — every reduction in the paper, executable;
* :mod:`repro.classification` — the three-degree classifier and the
  degree-aware solver dispatcher (the paper's main theorem as an API);
* :mod:`repro.counting` — the counting classification of Section 6;
* :mod:`repro.cq` — conjunctive queries, databases, EVAL(Φ);
* :mod:`repro.eval` — the EVAL(Φ) execution service: degree-routed
  planning, database statistics, and the chunked multi-process executor;
* :mod:`repro.problems`, :mod:`repro.workloads` — concrete parameterized
  problems and benchmark workloads.

Quickstart::

    from repro.cq import parse_query, Database
    from repro.classification import classify_structure, solve_hom

    query = parse_query("E(x, y), E(y, z), E(z, x)")       # a triangle query
    profile = query.classify()                               # core widths
    database = Database({"E": [(1, 2), (2, 3), (3, 1)]})
    print(query.holds_on(database))                          # True

Every bounded decision and count runs on one engine, the **forest
engine** (:class:`repro.homomorphism.TreeDepthSolver`): the Lemma 3.3
recursion along an elimination forest, drawing candidates from the
target's hash indexes and memoising each subtree on its boundary (the
bag-keyed tables of decomposition DP).  :func:`solve_hom` routes by the
core's degree; :func:`count_hom` counts on the pattern itself (Theorem
6.1), over its min-fill elimination tree::

    from repro.classification import solve_hom
    from repro.counting import count_hom

    solve_hom(pattern, database_structure).answer   # existence
    count_hom(pattern, database_structure).count    # exact count

Whole query workloads go through the batched evaluator, which caches
classification profiles and database→structure conversions across the
queries of the batch, and optionally fans the batch out to a process
pool (:mod:`repro.eval`)::

    from repro.cq import evaluate_query_set

    for query, result in evaluate_query_set(queries, database, workers=4):
        print(query, result.answer, result.solver)
"""

from repro.classification import (
    ClassificationReport,
    ComplexityDegree,
    SolveResult,
    classify_family,
    classify_structure,
    classify_with_bounds,
    solve_hom,
)
from repro.counting import CountResult, count_hom
from repro.cq import ConjunctiveQuery, Database, evaluate_query_set, parse_query
from repro.eval import (
    DatabaseStatistics,
    EvalService,
    ExecutorConfig,
    PlannerConfig,
    QueryPlan,
)
from repro.service import QueryService
from repro.homomorphism import (
    core,
    count_homomorphisms,
    has_embedding,
    has_homomorphism,
    is_core,
)
from repro.structures import Structure, Vocabulary

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Structure",
    "Vocabulary",
    "ConjunctiveQuery",
    "Database",
    "parse_query",
    "has_homomorphism",
    "has_embedding",
    "count_homomorphisms",
    "core",
    "is_core",
    "ComplexityDegree",
    "ClassificationReport",
    "classify_structure",
    "classify_family",
    "classify_with_bounds",
    "solve_hom",
    "SolveResult",
    "count_hom",
    "CountResult",
    "evaluate_query_set",
    "EvalService",
    "ExecutorConfig",
    "PlannerConfig",
    "QueryPlan",
    "DatabaseStatistics",
    "QueryService",
]
