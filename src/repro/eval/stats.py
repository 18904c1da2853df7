"""Database statistics: relation sizes and index fan-out.

Two numbers drive how much work a solver does against a database:

* **relation sizes** — every solver touches each relevant relation at
  least once, and the treedepth recursion's memo tables grow with them,
  and
* **index fan-out** — the treedepth recursion extends partial maps one
  variable at a time through the per-relation hash indexes of
  :mod:`repro.structures.indexes`; the number of candidate extensions
  per bound prefix is the branching factor of the whole computation.

:class:`DatabaseStatistics` condenses a target structure into exactly
those numbers.  Statistics are cheap (one pass over the tuples via the
cached :class:`~repro.structures.indexes.StructureIndex` columns), and
measuring them warms the index columns the solvers read.  The planner
does not read them: a query's route is its degree alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.structures.indexes import structure_index
from repro.structures.structure import Structure


@dataclass(frozen=True)
class DatabaseStatistics:
    """Summary numbers of one target structure ("the database").

    ``fan_out`` maps each relation name to the average number of tuples
    per distinct value in the relation's first position — the expected
    number of candidate extensions the treedepth recursion sees once one
    endpoint of the relation is bound.  ``max_fan_out`` aggregates that over the
    relations (floored at 1.0).
    """

    universe_size: int
    total_tuples: int
    relation_sizes: Mapping[str, int] = field(default_factory=dict)
    fan_out: Mapping[str, float] = field(default_factory=dict)

    @property
    def max_fan_out(self) -> float:
        """The largest per-relation fan-out (at least 1.0)."""
        return max([1.0, *self.fan_out.values()])

    @property
    def mean_fan_out(self) -> float:
        """The mean fan-out over *populated* relations (at least 1.0).

        Empty (and nullary) relations record ``fan_out = 0.0`` but cost
        the solvers no extension work at all, so averaging them in would
        deflate the mean on sparse vocabularies where most symbols are
        uninstantiated; only relations that actually hold tuples
        participate.
        """
        populated = [value for value in self.fan_out.values() if value > 0.0]
        if not populated:
            return 1.0
        return max(1.0, sum(populated) / len(populated))

    @classmethod
    def of(cls, target: Structure) -> "DatabaseStatistics":
        """Measure a target structure.

        Uses the shared :func:`structure_index` cache, so a statistics
        pass also warms the first-position index column the solvers will
        ask for anyway.
        """
        index = structure_index(target)
        sizes: Dict[str, int] = {}
        fan_out: Dict[str, float] = {}
        for symbol in target.vocabulary:
            relation = index.relation(symbol.name)
            sizes[symbol.name] = len(relation)
            if len(relation) == 0 or symbol.arity == 0:
                fan_out[symbol.name] = 0.0
            else:
                distinct = len(relation.column(0))
                fan_out[symbol.name] = len(relation) / max(1, distinct)
        return cls(
            universe_size=len(target),
            total_tuples=sum(sizes.values()),
            relation_sizes=sizes,
            fan_out=fan_out,
        )
