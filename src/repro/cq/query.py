"""Boolean conjunctive queries.

A boolean conjunctive query is an existentially quantified conjunction of
relational atoms.  By Chandra–Merlin it is equivalent to a relational
structure (its *canonical structure*), and evaluating it on a database is
the homomorphism problem — which is exactly the formulation the paper
classifies.  The :class:`ConjunctiveQuery` class keeps the syntactic view
(variables and atoms) and converts to and from the structural view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cq.database import Database
from repro.exceptions import FormulaError
from repro.logic.canonical import canonical_query
from repro.logic.formula import Formula
from repro.structures.structure import Structure
from repro.structures.vocabulary import Vocabulary


#: One atom as plain data: ``(relation, variables)``.
PlainAtom = Tuple[str, Tuple[str, ...]]

#: What :meth:`ConjunctiveQuery.content_key` returns: the plain atoms, then
#: the variables.
ContentKey = Tuple[Tuple[PlainAtom, ...], Tuple[str, ...]]


def _format_atom(relation: str, variables: Sequence[str]) -> str:
    return f"{relation}({', '.join(variables)})"


@dataclass(frozen=True)
class QueryAtom:
    """One atom ``R(x₁, …, x_r)`` of a conjunctive query."""

    relation: str
    variables: Tuple[str, ...]

    def __str__(self) -> str:
        return _format_atom(self.relation, self.variables)


class ConjunctiveQuery:
    """A boolean conjunctive query ``∃x̄ ⋀ atoms``.

    Parameters
    ----------
    atoms:
        The query's atoms.  Every variable occurring in an atom is
        (implicitly existentially) quantified.
    extra_variables:
        Variables to quantify even though they occur in no atom (they
        become isolated elements of the canonical structure).
    """

    def __init__(
        self,
        atoms: Sequence[QueryAtom | Tuple[str, Sequence[str]]],
        extra_variables: Sequence[str] = (),
    ) -> None:
        plain: List[PlainAtom] = []
        for atom in atoms:
            if isinstance(atom, QueryAtom):
                relation, variables = atom.relation, atom.variables
            else:
                relation, variables = atom
            plain.append((relation, tuple(variables)))
        # A dict keeps first-occurrence order and answers membership in
        # constant time.
        order: Dict[str, None] = {}
        for _, variables in plain:
            for variable in variables:
                order[variable] = None
        for variable in extra_variables:
            order[variable] = None
        if not order:
            raise FormulaError("a conjunctive query needs at least one variable")
        self._variables = tuple(order)
        #: The plain atoms and the variables: the query's only copy of its
        #: atoms (see :meth:`content_key`).
        self._key: ContentKey = (tuple(plain), self._variables)
        #: The :class:`QueryAtom` view, built the first time :attr:`atoms`
        #: is read.
        self._atoms: Optional[Tuple[QueryAtom, ...]] = None

    @classmethod
    def from_content_key(cls, key: ContentKey) -> "ConjunctiveQuery":
        """Rebuild a query from its :meth:`content_key`.

        The key's variables list the atoms' variables first, in
        first-occurrence order, and the isolated extras after them, so
        passing them as ``extra_variables`` gives back the same variables
        and hence an equal key.
        """
        atoms, variables = key
        return cls(atoms, extra_variables=variables)

    # -- accessors ------------------------------------------------------------
    @property
    def atoms(self) -> Tuple[QueryAtom, ...]:
        """The query's atoms."""
        if self._atoms is None:
            self._atoms = tuple(
                QueryAtom(relation, variables) for relation, variables in self._key[0]
            )
        return self._atoms

    @property
    def variables(self) -> Tuple[str, ...]:
        """The query's (existential) variables, in first-occurrence order."""
        return self._variables

    def vocabulary(self) -> Vocabulary:
        """Return the vocabulary the query speaks about."""
        arities: Dict[str, int] = {}
        for relation, variables in self._key[0]:
            if relation in arities and arities[relation] != len(variables):
                raise FormulaError(
                    f"relation {relation!r} used with two different arities"
                )
            arities[relation] = len(variables)
        return Vocabulary(arities)

    # -- Chandra–Merlin translations ----------------------------------------------
    def content_key(self) -> ContentKey:
        """A hashable key of plain tuples that determines the canonical structure.

        The key is ``(((relation, variables), …), variables)``: the atoms
        in order, then the variables.  :meth:`canonical_structure` is a
        function of exactly these (``extra_variables`` become isolated
        elements), so equal keys mean equal canonical structures.  The
        converse fails: reordered or repeated atoms give different keys
        for one structure.  The key is built once, with the query, and
        pickles without any reference to this module, so it is also what
        the executor sends to its pool workers
        (:meth:`from_content_key` rebuilds the query there).
        """
        return self._key

    def canonical_structure(self) -> Structure:
        """Return the query's canonical structure (variables as elements)."""
        relations: Dict[str, set] = {}
        for relation, variables in self._key[0]:
            relations.setdefault(relation, set()).add(variables)
        return Structure(self.vocabulary(), self._variables, relations)

    @classmethod
    def from_structure(cls, structure: Structure) -> "ConjunctiveQuery":
        """Return the canonical boolean conjunctive query of a structure."""
        atoms: List[PlainAtom] = []
        for symbol in sorted(structure.vocabulary, key=lambda s: s.name):
            for tup in sorted(structure.relation(symbol.name), key=repr):
                atoms.append((symbol.name, tuple(f"x[{x!r}]" for x in tup)))
        extra = [f"x[{x!r}]" for x in sorted(structure.universe, key=repr)]
        return cls(atoms, extra_variables=extra)

    def to_sentence(self) -> Formula:
        """Return the query as a first-order ``{∧,∃}``-sentence."""
        return canonical_query(self.canonical_structure())

    # -- evaluation -------------------------------------------------------------------
    def holds_on(self, database: Database | Structure) -> bool:
        """Evaluate the query on a database (or a structure) — EVAL({q})."""
        from repro.homomorphism.backtracking import has_homomorphism

        target = (
            database.to_structure(self.vocabulary())
            if isinstance(database, Database)
            else database
        )
        return has_homomorphism(self.canonical_structure(), target)

    def count_matches(self, database: Database | Structure) -> int:
        """Count the satisfying assignments (homomorphisms) of the query
        with :func:`~repro.counting.count_hom`."""
        from repro.counting.classification import count_hom

        target = (
            database.to_structure(self.vocabulary())
            if isinstance(database, Database)
            else database
        )
        return count_hom(self.canonical_structure(), target).count

    # -- classification hooks -----------------------------------------------------------
    def classify(self):
        """Return the width profile of the query's canonical structure's core."""
        from repro.classification.classifier import classify_structure

        return classify_structure(self.canonical_structure())

    def __str__(self) -> str:
        atoms = " ∧ ".join(
            _format_atom(relation, variables) for relation, variables in self._key[0]
        )
        return f"∃{', '.join(self._variables)} . {atoms or '⊤'}"

    def __repr__(self) -> str:
        return f"ConjunctiveQuery({len(self._key[0])} atoms, {len(self._variables)} variables)"
