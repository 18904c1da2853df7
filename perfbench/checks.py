"""Answer checks, run after the timed phase and outside it.

Every attempted query must match two independent sources, each computed
once per distinct (canonical pattern, vocabulary) pair:

* the **reference**: :func:`repro.cq.evaluate_query_set_sequential` must
  give the same ``(answer, solver)`` pair;
* an **oracle** that shares no code with the program's solvers: for the
  ``mixed_vocabulary`` patterns the benchmark's own backtracking join of
  the uncored query over the database tables, and for the classify
  workload's target K3 its own 3-colouring search of the pattern's
  underlying graph (hom(A → K3) iff A is 3-colourable).

The join stands in for ``has_homomorphism``, whose static variable order
took seconds on single unsatisfiable five-variable patterns (a self-loop
atom against the loop-free ``E`` table).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.cq import evaluate_query_set_sequential
from repro.cq.database import Database
from repro.cq.query import ConjunctiveQuery

from perfbench.workloads import Workload


def three_colourable(query: ConjunctiveQuery) -> bool:
    """Whether the underlying undirected graph of a graph query is 3-colourable."""
    neighbours: Dict[str, set] = {variable: set() for variable in query.variables}
    for atom in query.atoms:
        a, b = atom.variables
        if a == b:
            return False
        neighbours[a].add(b)
        neighbours[b].add(a)
    order = sorted(neighbours, key=lambda vertex: (-len(neighbours[vertex]), vertex))
    colour: Dict[str, int] = {}

    def extend(position: int) -> bool:
        if position == len(order):
            return True
        vertex = order[position]
        used = {colour[other] for other in neighbours[vertex] if other in colour}
        for value in range(3):
            if value not in used:
                colour[vertex] = value
                if extend(position + 1):
                    return True
                del colour[vertex]
        return False

    return extend(0)


class JoinOracle:
    """Atom-at-a-time backtracking join of a query over the database tables.

    At every step it extends the assignment through the remaining atom
    with the fewest matching rows, found through per-(table, bound
    positions) hash indexes, so an unsatisfiable atom is met first.
    """

    def __init__(self, database: Database) -> None:
        self._database = database
        self._indexes: Dict[Tuple[str, Tuple[int, ...]], Dict[tuple, List[tuple]]] = {}

    def _rows(self, relation: str, bound: Dict[int, Any]) -> List[tuple]:
        positions = tuple(sorted(bound))
        index = self._indexes.get((relation, positions))
        if index is None:
            index = {}
            for row in self._database.table(relation):
                index.setdefault(tuple(row[p] for p in positions), []).append(row)
            self._indexes[(relation, positions)] = index
        return index.get(tuple(bound[p] for p in positions), [])

    def _candidates(self, atom, assignment: Dict[str, Any]) -> List[Dict[str, Any]]:
        bound = {
            position: assignment[variable]
            for position, variable in enumerate(atom.variables)
            if variable in assignment
        }
        extensions = []
        for row in self._rows(atom.relation, bound):
            extension: Dict[str, Any] = {}
            for variable, value in zip(atom.variables, row):
                if extension.setdefault(variable, value) != value:
                    break
            else:
                extensions.append(extension)
        return extensions

    def holds(self, query: ConjunctiveQuery) -> bool:
        def search(assignment: Dict[str, Any], remaining: List[Any]) -> bool:
            if not remaining:
                return True
            options = [(self._candidates(atom, assignment), atom) for atom in remaining]
            candidates, chosen = min(options, key=lambda option: len(option[0]))
            rest = [atom for atom in remaining if atom is not chosen]
            return any(search({**assignment, **extension}, rest) for extension in candidates)

        return search({}, list(query.atoms))


def oracle(workload: Workload):
    """The workload's oracle: a function from a query to its answer."""
    if workload.oracle == "three_colouring":
        return three_colourable
    return JoinOracle(workload.database).holds


def query_key(query: ConjunctiveQuery) -> Tuple[Any, Any]:
    return query.canonical_structure(), query.vocabulary()


def round_keys(workload: Workload, rounds: int) -> List[List[Any]]:
    """The key of every query of ``rounds`` rounds (each round replays one order)."""
    key_of = [query_key(query) for query in workload.queries]
    keys = [key_of[index] for batch in workload.order() for index in batch]
    return [keys] * rounds


def distinct_per_service(workload: Workload, keys: List[List[Any]]) -> int:
    """Distinct patterns summed over the services that served ``keys``:
    one per round when cold, else one for the whole run (and its warm pass)."""
    if workload.cold:
        return sum(len(set(round_)) for round_ in keys)
    return len({query_key(query) for query in workload.queries})


def repeat_share(workload: Workload, keys: List[List[Any]]) -> float:
    """The share of queries whose pattern their service had already met:
    earlier in the round when cold, and always after a warm pass."""
    warm = set() if workload.cold else {query_key(query) for query in workload.queries}
    repeats = 0
    for round_ in keys:
        seen = set(warm)
        for key in round_:
            repeats += key in seen
            seen.add(key)
    return repeats / sum(len(round_) for round_ in keys)


def check(workload: Workload, run: Dict[str, Any]) -> Dict[str, Any]:
    """Compare every round's answers with the reference and the oracle,
    each computed once per distinct (pattern, vocabulary) pair."""
    keys = round_keys(workload, len(run["answers"]))
    representatives: Dict[Any, ConjunctiveQuery] = {}
    for query in workload.queries:
        representatives.setdefault(query_key(query), query)
    queries = list(representatives.values())
    reference = evaluate_query_set_sequential(queries, workload.database)
    answer_of = oracle(workload)
    expected: Dict[Any, Tuple[str, str]] = {}
    oracle_disagreements = 0
    for key, query, (_, result) in zip(representatives, queries, reference):
        answer = "1" if result.answer else "0"
        if answer_of(query) != result.answer:
            oracle_disagreements += 1
            answer = "?"  # matches no answer
        expected[key] = (answer, result.solver)
    table = run["solver_table"]
    correct = failed = 0
    for round_, answers, solvers in zip(keys, run["answers"], run["solvers"]):
        for key, answer, solver in zip(round_, answers, solvers):
            if answer == "x":
                failed += 1
            elif (answer, table[ord(solver) - ord("a")]) == expected[key]:
                correct += 1
    attempted = sum(len(answers) for answers in run["answers"])
    return {
        "attempted": attempted,
        "correct": correct,
        "failed": failed,
        "distinct": len({key for round_ in keys for key in round_}),
        "repeat_share": repeat_share(workload, keys),
        "oracle_disagreements": oracle_disagreements,
    }


def outcomes_by_key(workload: Workload, run: Dict[str, Any]) -> Dict[Any, set]:
    """Every (answer, solver) pair a run gave for each pattern."""
    table = run["solver_table"]
    found: Dict[Any, set] = {}
    keys = round_keys(workload, len(run["answers"]))
    for round_, answers, solvers in zip(keys, run["answers"], run["solvers"]):
        for key, answer, solver in zip(round_, answers, solvers):
            found.setdefault(key, set()).add(
                (answer, "-" if solver == "-" else table[ord(solver) - ord("a")])
            )
    return found


def same_answers(workload: Workload, first: Dict[str, Any], second: Dict[str, Any]) -> bool:
    """Whether two runs gave each pattern one and the same answer and solver."""
    one, other = outcomes_by_key(workload, first), outcomes_by_key(workload, second)
    shared = one.keys() & other.keys()
    return bool(shared) and all(len(one[key] | other[key]) == 1 for key in shared)
