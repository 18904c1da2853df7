"""Tests for vocabularies and relational structures."""

import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.exceptions import StructureError, VocabularyError
from repro.structures import (
    GRAPH_VOCABULARY,
    RelationSymbol,
    Structure,
    Vocabulary,
    cycle,
    path,
)


class TestVocabulary:
    def test_from_mapping(self):
        vocabulary = Vocabulary({"E": 2, "C": 1})
        assert vocabulary.arity("E") == 2
        assert vocabulary.arity("C") == 1
        assert set(vocabulary.names()) == {"E", "C"}
        assert vocabulary.max_arity() == 2

    def test_symbol_objects(self):
        vocabulary = Vocabulary([RelationSymbol("R", 3)])
        assert vocabulary.symbol("R").arity == 3

    def test_conflicting_arities_rejected(self):
        with pytest.raises(VocabularyError):
            Vocabulary([RelationSymbol("R", 1), RelationSymbol("R", 2)])

    def test_extend_and_restrict(self):
        vocabulary = Vocabulary({"E": 2})
        extended = vocabulary.extend({"C": 1})
        assert "C" in extended and "E" in extended
        restricted = extended.restrict(["E"])
        assert "C" not in restricted
        with pytest.raises(VocabularyError):
            extended.extend({"E": 3})
        with pytest.raises(VocabularyError):
            extended.restrict(["missing"])

    def test_includes_needs_every_symbol_at_its_arity(self):
        vocabulary = Vocabulary({"E": 2, "C": 1, "T": 0})
        assert vocabulary.includes(GRAPH_VOCABULARY)
        assert vocabulary.includes(Vocabulary({"C": 1, "T": 0}))
        assert vocabulary.includes(Vocabulary())
        assert vocabulary.includes(vocabulary)
        assert not vocabulary.includes(Vocabulary({"E": 3}))
        assert not vocabulary.includes(Vocabulary({"E": 2, "F": 2}))
        assert not GRAPH_VOCABULARY.includes(vocabulary)

    def test_equality_and_hash(self):
        assert Vocabulary({"E": 2}) == GRAPH_VOCABULARY
        assert hash(Vocabulary({"E": 2})) == hash(GRAPH_VOCABULARY)

    def test_unknown_symbol(self):
        with pytest.raises(VocabularyError):
            GRAPH_VOCABULARY.arity("R")

    def test_bad_symbol_name_and_arity(self):
        with pytest.raises(VocabularyError):
            RelationSymbol("", 1)
        with pytest.raises(VocabularyError):
            RelationSymbol("R", -1)


class TestStructure:
    def test_basic_construction(self):
        structure = Structure(GRAPH_VOCABULARY, [1, 2, 3], {"E": [(1, 2), (2, 3)]})
        assert len(structure) == 3
        assert (1, 2) in structure.relation("E")
        assert structure.total_tuples() == 2

    def test_empty_universe_rejected(self):
        with pytest.raises(StructureError):
            Structure(GRAPH_VOCABULARY, [], {})

    def test_wrong_arity_rejected(self):
        with pytest.raises(StructureError):
            Structure(GRAPH_VOCABULARY, [1, 2], {"E": [(1, 2, 2)]})

    def test_unknown_symbol_rejected(self):
        with pytest.raises(VocabularyError):
            Structure(GRAPH_VOCABULARY, [1], {"R": [(1,)]})

    def test_tuple_outside_universe_rejected(self):
        with pytest.raises(StructureError):
            Structure(GRAPH_VOCABULARY, [1, 2], {"E": [(1, 7)]})

    def test_size_measure(self):
        # |A| = |tau| + |A| + sum |R^A| * ar(R): 1 + 3 + 2*2 = 8 for P3.
        assert path(3).size() == 1 + 3 + 4 * 2

    def test_induced_substructure(self):
        structure = cycle(5)
        induced = structure.induced_substructure({1, 2, 3})
        assert len(induced) == 3
        assert (1, 2) in induced.relation("E")
        assert (5, 1) not in induced.relation("E")
        with pytest.raises(StructureError):
            structure.induced_substructure(set())

    def test_restrict_and_expand(self):
        vocabulary = Vocabulary({"E": 2, "C": 1})
        structure = Structure(vocabulary, [1, 2], {"E": [(1, 2)], "C": [(1,)]})
        restricted = structure.restrict_vocabulary(["E"])
        assert "C" not in restricted.vocabulary
        expanded = restricted.expand({"D": 1}, {"D": [(2,)]})
        assert expanded.relation("D") == frozenset({(2,)})
        with pytest.raises(VocabularyError):
            restricted.expand({"D": 1}, {"Z": [(1,)]})

    def test_relabel(self):
        renamed = path(3).relabel({1: "a", 2: "b", 3: "c"})
        assert ("a", "b") in renamed.relation("E")
        with pytest.raises(StructureError):
            path(3).relabel({1: "x", 2: "x"})

    def test_equality_and_hash(self):
        assert path(3) == path(3)
        assert hash(path(3)) == hash(path(3))
        assert path(3) != path(4)

    def test_missing_relation_is_empty(self):
        structure = Structure(Vocabulary({"E": 2, "C": 1}), [1], {})
        assert structure.relation("E") == frozenset()
        assert structure.relation("C") == frozenset()

    def test_elements_of(self):
        structure = path(4)
        assert structure.elements_of("E") == frozenset({1, 2, 3, 4})


class TestPicklingAcrossProcesses:
    """A pickled structure, graph or digraph is hashed anew by its receiver.

    ``str`` hashing is salted per process, so a hash cached by the sender
    is wrong in a receiver with another salt: the structure would compare
    equal to a fresh one there and still miss it in a set or dict key.
    """

    _BUILD = textwrap.dedent(
        """
        from repro.graphlib.graph import DiGraph, Graph
        from repro.structures import GRAPH_VOCABULARY, Structure

        def build():
            return (
                Structure(GRAPH_VOCABULARY, ["a", "b", "c"], {"E": [("a", "b"), ("b", "c")]}),
                Graph(["a", "b", "c"], [("a", "b"), ("b", "c")]),
                DiGraph(["a", "b", "c"], [("a", "b"), ("b", "c")]),
            )
        """
    )
    _SEND = textwrap.dedent(
        """
        import pickle, sys
        objects = build()
        for hashed in objects:
            hash(hashed)  # cache each hash before pickling
        sys.stdout.buffer.write(pickle.dumps(objects))
        """
    )
    _RECEIVE = textwrap.dedent(
        """
        import pickle, sys
        received = pickle.loads(sys.stdin.buffer.read())
        print([(x == y, x in {y}, hash(x) == hash(y)) for x, y in zip(received, build())])
        """
    )

    def _run(self, code: str, seed: str, data: bytes = b"") -> bytes:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", self._BUILD + code],
            input=data, env=env, capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    def test_a_receiver_with_another_hash_seed_finds_the_structure(self):
        sent = self._run(self._SEND, "1")
        received = self._run(self._RECEIVE, "12345", sent)
        assert received.decode().strip() == repr([(True, True, True)] * 3)

    def test_the_cached_hash_stays_out_of_the_pickle(self):
        structure = path(3)
        hash(structure)
        copy = pickle.loads(pickle.dumps(structure))
        assert copy._hash is None
        assert copy == structure and hash(copy) == hash(structure)
