"""Differential fuzzing harness for EVAL(Φ) and the solver stack.

Four properties are fuzzed:

* **parser round-trip** — random conjunctive-query text (random atoms,
  separators, quantifier-prefix spellings, whitespace) must survive
  ``parse → str → parse`` with atoms and variables intact, and printing
  must be a fixed point from then on.
* **three-way evaluation agreement** — on ≥100 random query/database
  pairs drawn from the scenario generators, the parallel executor, the
  sequential reference evaluator and the direct backtracking solver must
  agree; parallel and sequential must agree byte-for-byte on
  ``(query, answer, solver)``.
* **nullary/empty-relation solver agreement** — on random structure
  pairs over vocabularies containing arity-0 symbols and empty
  relations, the backtracking solver, the join engine and the
  tree-depth recursion must return the same answer (the campaign that
  originally caught the backtracking solver skipping nullary atoms).
* **core-engine equivalence** — on ≥100 random structures, the rigidity-
  certified engine's core must be isomorphic to the seed algorithm's.

The seed is fixed (override with ``REPRO_FUZZ_SEED``) so CI failures are
reproducible by rerunning with the printed seed.
"""

import os
import random

import pytest

from repro.cq import evaluate_query_set_sequential, parse_query
from repro.eval import EvalService, ExecutorConfig
from repro.exceptions import FormulaError
from oracles.join_engine import homomorphism_exists_join
from oracles.seeds import legacy_core
from repro.homomorphism import (
    core,
    has_homomorphism,
    homomorphism_exists_treedepth,
    nullary_obstruction,
)
from repro.structures import Structure, Vocabulary, are_isomorphic
from repro.structures.builders import graph_structure
from repro.structures.random_gen import (
    random_graph_structure,
    random_structure,
    random_tree_graph,
)
from repro.workloads import (
    MIXED_TABLES,
    dense_graph_database,
    expander_database,
    grid_database,
    mixed_vocabulary_database,
    skewed_database,
)

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20130625"))

ATOM_SEPARATORS = [", ", " , ", " & ", " ∧ ", ",", " &  "]
PREFIX_STYLES = [
    "exists {names} . ",
    "exists {names}: ",
    "∃{names} . ",
    "∃ {names} : ",
]


def random_query_text(rng: random.Random, tables=None, max_atoms=3, max_variables=4):
    """Random parseable query text plus the atoms it should parse to."""
    tables = dict(tables or {"E": 2})
    names = [f"v{i}" for i in range(rng.randint(1, max_variables))]
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        table = rng.choice(sorted(tables))
        arity = max(1, tables[table])
        atoms.append((table, tuple(rng.choice(names) for _ in range(arity))))
    fragments = [
        f"{table}({rng.choice(['', ' '])}{', '.join(arguments)})"
        for table, arguments in atoms
    ]
    text = rng.choice(ATOM_SEPARATORS).join(fragments)
    if rng.random() < 0.4:
        # An explicit quantifier prefix, sometimes with an isolated
        # variable that occurs in no atom.
        listed = list(names)
        if rng.random() < 0.5:
            listed.append(f"w{rng.randint(0, 3)}")
        style = rng.choice(PREFIX_STYLES)
        text = style.format(names=rng.choice([" ", ", "]).join(listed)) + text
    return text, atoms


class TestParserRoundTrip:
    def test_parse_str_parse_is_identity_on_random_queries(self):
        rng = random.Random(FUZZ_SEED)
        for trial in range(150):
            text, atoms = random_query_text(rng, MIXED_TABLES)
            query = parse_query(text)
            assert [(a.relation, a.variables) for a in query.atoms] == atoms, (
                f"seed={FUZZ_SEED} trial={trial} text={text!r}"
            )
            reparsed = parse_query(str(query))
            assert reparsed.atoms == query.atoms, f"seed={FUZZ_SEED} text={text!r}"
            assert reparsed.variables == query.variables, (
                f"seed={FUZZ_SEED} text={text!r}"
            )
            # Printing is a fixed point after one round trip.
            assert str(reparsed) == str(query)

    def test_malformed_fragments_still_rejected(self):
        rng = random.Random(FUZZ_SEED)
        for text in ("E(x,)", "E(x y)", "E(x) garbage", "", "exists . ", "E()"):
            with pytest.raises(FormulaError):
                parse_query(text)
        # Fuzzed junk appended to a valid query must not parse silently.
        for _ in range(25):
            text, _ = random_query_text(rng)
            with pytest.raises(FormulaError):
                parse_query(text + " unparsed!junk(")


def fuzz_databases(seed):
    """Six databases of different character, with the schema their queries use."""
    return [
        (dense_graph_database(10, 0.45, seed=seed), {"E": 2}),
        (dense_graph_database(14, 0.15, seed=seed + 1), {"E": 2}),
        (grid_database(4, 5), {"E": 2}),
        (expander_database(13, (1, 5)), {"E": 2}),
        (skewed_database(16, rows_per_table=50, skew=1.8, seed=seed + 2), {"E": 2, "C1": 1}),
        (mixed_vocabulary_database(12, rows_per_table=30, seed=seed + 3), MIXED_TABLES),
    ]


class TestDifferentialEvaluation:
    def test_parallel_sequential_and_backtracking_agree(self):
        rng = random.Random(FUZZ_SEED)
        pairs = 0
        config = ExecutorConfig(workers=2, chunk_size=4)
        for database, tables in fuzz_databases(FUZZ_SEED):
            queries = []
            while len(queries) < 20:
                text, _ = random_query_text(rng, tables)
                queries.append(parse_query(text))
            sequential = evaluate_query_set_sequential(queries, database)
            with EvalService(database, executor=config) as service:
                parallel = service.evaluate(queries, mode="parallel")
                assert service.last_mode == "parallel"
            for (q_seq, r_seq), (q_par, r_par) in zip(sequential, parallel):
                assert q_seq is q_par
                context = f"seed={FUZZ_SEED} query={q_seq} database={database}"
                # Byte-identical provenance between the two service paths.
                assert (r_seq.answer, r_seq.solver, r_seq.degree) == (
                    r_par.answer,
                    r_par.solver,
                    r_par.degree,
                ), context
                # Ground truth: the plain backtracking solver.
                target = database.to_structure(q_seq.vocabulary())
                truth = has_homomorphism(q_seq.canonical_structure(), target)
                assert r_seq.answer == truth, context
                pairs += 1
        assert pairs >= 100


def random_nullary_structure(rng: random.Random, vocabulary: Vocabulary) -> Structure:
    """A random structure where any relation — nullary included — may be empty."""
    universe = list(range(rng.randint(2, 5)))
    relations = {}
    for symbol in vocabulary:
        if symbol.arity == 0:
            relations[symbol.name] = [()] if rng.random() < 0.5 else []
        else:
            rows = rng.randint(0, 2 * len(universe))  # 0 → empty relation
            relations[symbol.name] = {
                tuple(rng.choice(universe) for _ in range(symbol.arity))
                for _ in range(rows)
            }
    return Structure(vocabulary, universe, relations)


class TestNullaryDifferentialFuzz:
    """Solver agreement on vocabularies with arity-0 and empty relations."""

    def test_backtracking_join_and_treedepth_agree(self):
        rng = random.Random(FUZZ_SEED)
        obstructed = 0
        for trial in range(120):
            tables = {"E": 2, "U": 1, "Z": 0, "W": 0}
            if rng.random() < 0.4:
                tables["R"] = 3
            vocabulary = Vocabulary(tables)
            source = random_nullary_structure(rng, vocabulary)
            target = random_nullary_structure(rng, vocabulary)
            context = f"seed={FUZZ_SEED} trial={trial} source={source} target={target}"
            truth = has_homomorphism(source, target)
            assert homomorphism_exists_join(source, target) == truth, context
            assert homomorphism_exists_treedepth(source, target) == truth, context
            if nullary_obstruction(source, target):
                obstructed += 1
                assert not truth, context
        # The generator must actually exercise the obstruction path.
        assert obstructed >= 10


class TestCoreEngineEquivalenceFuzz:
    """Engine cores are isomorphic to seed-algorithm cores."""

    def test_engine_core_isomorphic_to_legacy_core(self):
        rng = random.Random(FUZZ_SEED)
        checked = 0
        while checked < 104:
            kind = checked % 4
            seed = rng.randrange(10**6)
            if kind == 0:
                structure = random_graph_structure(
                    rng.randint(3, 8), rng.uniform(0.1, 0.6), seed=seed
                )
            elif kind == 1:
                structure = graph_structure(
                    random_tree_graph(rng.randint(2, 10), seed=seed)
                )
            elif kind == 2:
                vocabulary = Vocabulary({"E": 2, "U": 1})
                structure = random_structure(
                    vocabulary, rng.randint(2, 6), rng.randint(1, 10), seed=seed
                )
            else:
                vocabulary = Vocabulary({"E": 2, "Z": 0})
                structure = random_nullary_structure(rng, vocabulary)
            engine_core = core(structure)
            seed_core = legacy_core(structure)
            assert are_isomorphic(engine_core, seed_core), (
                f"seed={FUZZ_SEED} trial={checked} structure={structure} "
                f"engine={engine_core} legacy={seed_core}"
            )
            checked += 1
        assert checked >= 100
