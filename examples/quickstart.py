"""Quickstart: parse a conjunctive query, classify it, evaluate it.

Run with::

    python examples/quickstart.py
"""

from repro.counting import count_hom
from repro.cq import Database, evaluate_query_set, parse_query
from repro.decomposition import min_fill_elimination_forest
from repro.homomorphism import TreeDepthSolver
from repro.structures import gaifman_graph


def main() -> None:
    # A boolean conjunctive query: "is there a triangle?"
    triangle = parse_query("E(x, y), E(y, z), E(z, x)")
    print("query:", triangle)

    # The Chandra–Merlin view: the query is a relational structure, and its
    # complexity is governed by the width measures of that structure's core.
    profile = triangle.classify()
    print(
        "core widths — treewidth:", profile.core_treewidth,
        "pathwidth:", profile.core_pathwidth,
        "tree depth:", profile.core_treedepth,
    )

    # A small database: a 5-cycle plus one chord (so it contains a triangle).
    database = Database(
        {"E": [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (2, 5),
               (2, 1), (3, 2), (4, 3), (5, 4), (1, 5), (5, 2)]}
    )
    print("database:", database)

    print("triangle present?", triangle.holds_on(database))
    print("number of triangle matches:", triangle.count_matches(database))

    # Counting (Theorem 6.1) classifies the pattern itself, not its core:
    # count_hom reports the count, the algorithm and the pattern's degree.
    pattern = triangle.canonical_structure()
    target = database.to_structure(triangle.vocabulary())
    counted = count_hom(pattern, target)
    print(f"count_hom: {counted.count} [{counted.solver}; {counted.degree.value}]")

    # count_hom, like every bounded decision route, runs on the forest
    # engine: the Lemma 3.3 recursion along an elimination forest, with
    # hash-index candidates and each subtree memoised on its boundary.
    # One compiled solver answers existence and counting on any target.
    forest = min_fill_elimination_forest(gaifman_graph(pattern))
    solver = TreeDepthSolver(pattern, forest=forest, use_core=False)
    print("forest engine existence:", solver.exists(target))
    print("forest engine count:", solver.count(target))

    # Whole query workloads go through the batched evaluator, which caches
    # classification profiles and the database→structure conversion across
    # the queries of the batch and reports the algorithmic regime per query.
    queries = [
        triangle,
        parse_query("E(a, b), E(b, c), E(c, d)"),   # a path-shaped query
        parse_query("E(u, v), E(v, u)"),             # a back-and-forth edge
    ]
    for query, result in evaluate_query_set(queries, database):
        print(f"  {query}  →  {result.answer}  [{result.solver}]")

    # The same batch through the execution service: each query is routed by
    # its degree under the planner's width thresholds, and — for big batches
    # — a chunked process pool via evaluate_query_set(..., workers=N)
    # returns byte-identical results in the same order.
    from repro.eval import EvalService

    with EvalService(database) as service:
        print("plan for the triangle query:")
        print(" ", service.plan(triangle).summary())


if __name__ == "__main__":
    main()
