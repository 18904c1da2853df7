"""Tests for conjunctive queries, the parser, databases and EVAL(Φ)."""

import pytest

from repro.classification import ComplexityDegree
from repro.cq import (
    ConjunctiveQuery,
    Database,
    QueryAtom,
    classify_query_set,
    evaluate_query_set,
    parse_query,
)
from repro.exceptions import FormulaError, StructureError, VocabularyError
from repro.homomorphism import count_homomorphisms, has_homomorphism
from repro.structures import Structure, Vocabulary, are_isomorphic, cycle, path


class TestDatabase:
    def test_tables_and_domain(self):
        database = Database({"E": [(1, 2), (2, 3)], "Label": [("a",)]})
        assert database.arity("E") == 2
        assert database.arity("Label") == 1
        assert database.number_of_rows() == 3
        assert {1, 2, 3, "a"} <= set(database.domain)

    def test_inconsistent_rows_rejected(self):
        with pytest.raises(StructureError):
            Database({"E": [(1, 2), (1,)]})

    def test_empty_database_rejected(self):
        with pytest.raises(StructureError):
            Database({})

    def test_structure_roundtrip(self):
        database = Database({"E": [(1, 2), (2, 1)]})
        structure = database.to_structure()
        assert Database.from_structure(structure).table("E") == sorted(
            structure.relation("E"), key=repr
        )

    def test_to_structure_with_explicit_vocabulary(self):
        database = Database({"E": [(1, 2)]})
        query = parse_query("E(x, y), F(y)")
        structure = database.to_structure(query.vocabulary())
        assert structure.relation("F") == frozenset()
        assert structure.relation("E") == frozenset({(1, 2)})
        # Tables absent from the supplied schema are dropped, not rejected.
        restricted = database.to_structure(query.vocabulary().restrict(["F"]))
        assert restricted.relation("F") == frozenset()
        # Arity clashes are still an error.
        with pytest.raises(VocabularyError):
            database.to_structure(Vocabulary({"E": 3}))

    def test_an_empty_table_takes_the_vocabulary_arity(self):
        database = Database({"E": [(1, 2)], "F": []})
        structure = database.to_structure(Vocabulary({"E": 2, "F": 2}))
        assert structure.relation("F") == frozenset()
        assert structure.vocabulary.arity("F") == 2
        assert database.to_structure().relation("F") == frozenset()

    def test_unknown_table(self):
        with pytest.raises(VocabularyError):
            Database({"E": [(1, 2)]}).table("F")


class TestConjunctiveQuery:
    def test_triangle_query(self):
        query = ConjunctiveQuery([("E", ("x", "y")), ("E", ("y", "z")), ("E", ("z", "x"))])
        assert len(query.variables) == 3
        # The atoms are directed, so the canonical structure is the directed triangle.
        from repro.structures import directed_cycle

        assert are_isomorphic(query.canonical_structure(), directed_cycle(3))

    def test_query_from_structure_roundtrip(self):
        query = ConjunctiveQuery.from_structure(path(4))
        assert are_isomorphic(query.canonical_structure(), path(4))

    def test_holds_on_database(self):
        query = parse_query("E(x, y), E(y, z), E(z, x)")
        triangle_db = Database({"E": [(1, 2), (2, 3), (3, 1)]})
        square_db = Database({"E": [(1, 2), (2, 3), (3, 4), (4, 1)]})
        assert query.holds_on(triangle_db)
        assert not query.holds_on(square_db)

    def test_count_matches(self):
        query = parse_query("E(x, y)")
        database = Database({"E": [(1, 2), (2, 3), (3, 1)]})
        assert query.count_matches(database) == 3

    # count_matches counts with count_hom, so these queries cover what the
    # forest engine treats apart from brute force: several forest roots,
    # unary atoms, nullary atoms (one the database lacks) and an isolated
    # variable.
    MATCH_DATABASE = Database(
        {"P": [()], "C": [(1,), (3,)], "E": [(1, 2), (2, 3), (3, 1), (3, 3)]}
    )

    @pytest.mark.parametrize(
        "atoms, extra, expected",
        [
            ([("E", ("x", "y")), ("E", ("u", "v"))], (), 16),
            ([("C", ("x",)), ("E", ("x", "y")), ("E", ("y", "z"))], (), 4),
            ([("P", ()), ("E", ("x", "y")), ("C", ("y",))], ("w",), 9),
            ([("Q", ()), ("E", ("x", "y"))], (), 0),
        ],
    )
    def test_count_matches_equals_brute_force(self, atoms, extra, expected):
        query = ConjunctiveQuery(atoms, extra_variables=extra)
        target = self.MATCH_DATABASE.to_structure(query.vocabulary())
        assert count_homomorphisms(query.canonical_structure(), target) == expected
        assert query.count_matches(self.MATCH_DATABASE) == expected
        assert query.count_matches(target) == expected

    def test_count_matches_on_a_target_lacking_a_symbol_raises(self):
        query = ConjunctiveQuery([("C", ("x",)), ("E", ("x", "y"))])
        target = Structure(Vocabulary({"E": 2}), [1, 2], {"E": [(1, 2)]})
        with pytest.raises(VocabularyError):
            query.count_matches(target)

    def test_holds_on_structure_directly(self):
        query = parse_query("E(x, y), E(y, z)")
        assert query.holds_on(cycle(4)) == has_homomorphism(
            query.canonical_structure(), cycle(4)
        )

    def test_to_sentence_quantifier_rank(self):
        query = parse_query("E(x, y), E(y, z)")
        assert query.to_sentence().quantifier_rank() == 3

    def test_classify(self):
        profile = parse_query("E(x, y), E(y, z), E(z, x)").classify()
        assert profile.core_treewidth == 2

    def test_inconsistent_arity_rejected(self):
        query = ConjunctiveQuery([("R", ("x", "y")), ("R", ("x",))])
        with pytest.raises(FormulaError):
            query.vocabulary()

    def test_needs_a_variable(self):
        with pytest.raises(FormulaError):
            ConjunctiveQuery([])


def first_occurrence_order(atoms, extra_variables=()):
    """The variable order by its literal definition: atoms first, then extras."""
    seen = []
    for atom in atoms:
        for variable in atom.variables:
            if variable not in seen:
                seen.append(variable)
    for variable in extra_variables:
        if variable not in seen:
            seen.append(variable)
    return tuple(seen)


class TestContentKey:
    """``content_key()`` is the query's atoms and variables as plain tuples."""

    def test_the_key_is_plain_tuples_of_strings(self):
        query = parse_query("exists w . E(x, y), R(y, y, z)")
        assert query.content_key() == (
            (("E", ("x", "y")), ("R", ("y", "y", "z"))),
            ("x", "y", "z", "w"),
        )

    def test_a_list_of_variables_works_in_either_spelling(self):
        from repro.eval import EvalService

        spellings = [
            ConjunctiveQuery([QueryAtom("E", ["x", "y"]), QueryAtom("E", ["y", "z"])]),
            ConjunctiveQuery([("E", ["x", "y"]), ("E", ["y", "z"])]),
            ConjunctiveQuery([("E", ("x", "y")), ("E", ("y", "z"))]),
        ]
        assert len({query.content_key() for query in spellings}) == 1
        database = Database({"E": [(1, 2), (2, 3)]})
        assert [query.holds_on(database) for query in spellings] == [True] * 3
        with EvalService(database) as service:
            results = service.evaluate(spellings)
        answers = {(result.answer, result.solver) for _, result in results}
        assert answers == {(True, results[0][1].solver)}

    @pytest.mark.parametrize(
        "text",
        [
            "E(x, y), E(y, z), E(z, x)",
            "exists w v . E(x, y), R(y, y, z)",
            "exists x y w . E(x, y), E(x, y)",
            "exists w . Label(w)",
        ],
    )
    def test_from_content_key_rebuilds_an_equal_query(self, text):
        query = parse_query(text)
        rebuilt = ConjunctiveQuery.from_content_key(query.content_key())
        assert rebuilt.content_key() == query.content_key()
        assert rebuilt.variables == query.variables
        assert rebuilt.canonical_structure() == query.canonical_structure()
        assert rebuilt.vocabulary() == query.vocabulary()
        assert str(rebuilt) == str(query)
        assert rebuilt.atoms == query.atoms

    def test_reordered_or_repeated_atoms_give_distinct_keys(self):
        query = parse_query("E(x, y), E(y, z)")
        reordered = ConjunctiveQuery(tuple(reversed(query.atoms)), query.variables)
        repeated = ConjunctiveQuery(query.atoms + query.atoms[:1])
        keys = {variant.content_key() for variant in (query, reordered, repeated)}
        assert len(keys) == 3
        # A repeated atom changes the key even where the variables agree.
        assert repeated.variables == query.variables
        assert reordered.canonical_structure() == query.canonical_structure()
        assert repeated.canonical_structure() == query.canonical_structure()

    def test_variable_order_is_first_occurrence_on_every_scenario(self):
        from repro.workloads import all_scenario_names, scenario_by_name

        for name in all_scenario_names():
            for query in scenario_by_name(name, count=30, seed=3).queries:
                assert query.variables == first_occurrence_order(query.atoms), name
                extras = ("isolated",) + tuple(reversed(query.variables)) + ("isolated",)
                padded = ConjunctiveQuery(query.atoms, extra_variables=extras)
                assert padded.variables == first_occurrence_order(query.atoms, extras)
                assert padded.variables == query.variables + ("isolated",)


class TestParser:
    def test_basic_forms(self):
        assert len(parse_query("E(x,y), E(y,z)").atoms) == 2
        assert len(parse_query("exists x y z . E(x,y) & E(y,z)").variables) == 3
        assert len(parse_query("∃x,y : R(x, y, y)").atoms) == 1

    def test_prefix_introduces_isolated_variables(self):
        query = parse_query("exists x y w . E(x, y)")
        assert "w" in query.variables
        assert len(query.canonical_structure()) == 3

    def test_garbage_rejected(self):
        with pytest.raises(FormulaError):
            parse_query("E(x,y) or E(y,z)")
        with pytest.raises(FormulaError):
            parse_query("")
        with pytest.raises(FormulaError):
            parse_query("E()")

    def test_parse_matches_manual_construction(self):
        parsed = parse_query("E(a, b), E(b, c)")
        manual = ConjunctiveQuery([QueryAtom("E", ("a", "b")), QueryAtom("E", ("b", "c"))])
        assert are_isomorphic(parsed.canonical_structure(), manual.canonical_structure())


class TestQuerySetEvaluation:
    def test_evaluate_query_set(self):
        queries = [
            parse_query("E(x, y)"),
            parse_query("E(x, y), E(y, z), E(z, x)"),
        ]
        database = Database({"E": [(1, 2), (2, 3), (3, 1)]})
        results = evaluate_query_set(queries, database)
        assert [result.answer for _, result in results] == [True, True]
        square = Database({"E": [(1, 2), (2, 3), (3, 4), (4, 1)]})
        results = evaluate_query_set(queries, square)
        assert [result.answer for _, result in results] == [True, False]

    def test_classify_query_set(self):
        # Path-shaped queries of growing length: the degree is PATH-complete
        # only for the starred variants; plain path queries have edge cores.
        queries = [ConjunctiveQuery.from_structure(path(k)) for k in range(2, 7)]
        report = classify_query_set(queries)
        assert report.degree is ComplexityDegree.PARA_L
