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
from typing import Dict, List, Sequence, Tuple

from repro.cq.database import Database
from repro.exceptions import FormulaError
from repro.logic.canonical import canonical_query
from repro.logic.formula import Formula
from repro.structures.structure import Structure
from repro.structures.vocabulary import Vocabulary


@dataclass(frozen=True)
class QueryAtom:
    """One atom ``R(x₁, …, x_r)`` of a conjunctive query."""

    relation: str
    variables: Tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(self.variables)})"


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
        normalised: List[QueryAtom] = []
        for atom in atoms:
            if isinstance(atom, QueryAtom):
                normalised.append(atom)
            else:
                relation, variables = atom
                normalised.append(QueryAtom(relation, tuple(variables)))
        self._atoms = tuple(normalised)
        seen: List[str] = []
        for atom in self._atoms:
            for variable in atom.variables:
                if variable not in seen:
                    seen.append(variable)
        for variable in extra_variables:
            if variable not in seen:
                seen.append(variable)
        if not seen:
            raise FormulaError("a conjunctive query needs at least one variable")
        self._variables = tuple(seen)

    # -- accessors ------------------------------------------------------------
    @property
    def atoms(self) -> Tuple[QueryAtom, ...]:
        """The query's atoms."""
        return self._atoms

    @property
    def variables(self) -> Tuple[str, ...]:
        """The query's (existential) variables, in first-occurrence order."""
        return self._variables

    def vocabulary(self) -> Vocabulary:
        """Return the vocabulary the query speaks about."""
        arities: Dict[str, int] = {}
        for atom in self._atoms:
            if atom.relation in arities and arities[atom.relation] != len(atom.variables):
                raise FormulaError(
                    f"relation {atom.relation!r} used with two different arities"
                )
            arities[atom.relation] = len(atom.variables)
        return Vocabulary(arities)

    # -- Chandra–Merlin translations ----------------------------------------------
    def content_key(self) -> Tuple[Tuple[QueryAtom, ...], Tuple[str, ...]]:
        """A hashable key that determines the canonical structure.

        :meth:`canonical_structure` is a function of exactly the atoms and
        the variables (``extra_variables`` become isolated elements), so
        equal keys mean equal canonical structures.  The converse fails:
        reordered or repeated atoms give different keys for one structure.
        The key is rebuilt on every call; nothing is cached on the query.
        """
        return self._atoms, self._variables

    def canonical_structure(self) -> Structure:
        """Return the query's canonical structure (variables as elements)."""
        relations: Dict[str, set] = {}
        for atom in self._atoms:
            relations.setdefault(atom.relation, set()).add(atom.variables)
        return Structure(self.vocabulary(), self._variables, relations)

    @classmethod
    def from_structure(cls, structure: Structure) -> "ConjunctiveQuery":
        """Return the canonical boolean conjunctive query of a structure."""
        atoms: List[QueryAtom] = []
        for symbol in sorted(structure.vocabulary, key=lambda s: s.name):
            for tup in sorted(structure.relation(symbol.name), key=repr):
                atoms.append(QueryAtom(symbol.name, tuple(f"x[{x!r}]" for x in tup)))
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
        """Count the satisfying assignments (homomorphisms) of the query."""
        from repro.homomorphism.backtracking import count_homomorphisms

        target = (
            database.to_structure(self.vocabulary())
            if isinstance(database, Database)
            else database
        )
        return count_homomorphisms(self.canonical_structure(), target)

    # -- classification hooks -----------------------------------------------------------
    def classify(self):
        """Return the width profile of the query's canonical structure's core."""
        from repro.classification.classifier import classify_structure

        return classify_structure(self.canonical_structure())

    def __str__(self) -> str:
        atoms = " ∧ ".join(str(atom) for atom in self._atoms) or "⊤"
        return f"∃{', '.join(self._variables)} . {atoms}"

    def __repr__(self) -> str:
        return f"ConjunctiveQuery({len(self._atoms)} atoms, {len(self._variables)} variables)"
