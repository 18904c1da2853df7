"""Semiring join engine: database-style DP over tree/path decompositions.

The reference for the forest engine
(:class:`repro.homomorphism.treedepth_solver.TreeDepthSolver`), which
answers every bounded decision and count the library makes: this is the
dynamic programming behind Lemma 3.4 and Theorem 4.6 written over
explicit decompositions, sharing no solver code with it.  The naive
DP enumerates every ``|B|^|bag|`` candidate assignment per bag
(:mod:`oracles.decomposition_solver` keeps it); this engine instead
treats each bag like a relational join:

* bag tables are produced by extending consistent partial maps one
  variable at a time, with candidate values fetched from the per-relation
  hash indexes of :mod:`repro.structures.indexes` (never the full
  cartesian product);
* tables are joined bottom-up over the decomposition with an iterative
  postorder worklist, so arbitrarily deep decompositions (paths of
  hundreds of bags) never hit Python's recursion limit;
* the whole sweep is parameterized by a :class:`Semiring`, so Boolean
  existence (Lemma 3.4), Section-6 counting, and future tropical
  width/cost computations share one code path.

Entry points: :func:`run_decomposition_dp` (general tree decompositions),
:func:`run_path_sweep` (the Theorem 4.6 left-to-right scan with a rolling
one-bag state), and the convenience wrappers
:func:`homomorphism_exists_join` / :func:`count_homomorphisms_join`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.decomposition.path_decomposition import PathDecomposition
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.exceptions import VocabularyError
from repro.homomorphism.obstructions import nullary_obstruction
from repro.structures.gaifman import gaifman_graph
from repro.structures.indexes import (
    RelationIndex,
    StructureIndex,
    stable_key,
    stable_sorted,
    structure_index,
)
from repro.structures.structure import Structure

Element = Hashable
Assignment = Dict[Element, Element]
Atom = Tuple[str, Tuple[Element, ...]]


# ---------------------------------------------------------------------------
# Index lookups by position → value maps
# ---------------------------------------------------------------------------

def matching(index: RelationIndex, bound: Mapping[int, Element]) -> Sequence[Tuple[Element, ...]]:
    """The tuples of ``index`` agreeing with ``bound`` (position → value).

    An empty ``bound`` returns every tuple.
    """
    pattern = tuple(sorted(bound))
    return index.table(pattern).get(tuple(bound[i] for i in pattern), ())


def values(
    index: RelationIndex, position: int, bound: Mapping[int, Element]
) -> FrozenSet[Element]:
    """The distinct values at ``position`` among the tuples matching ``bound``."""
    if not bound:
        return index.column(position)
    return frozenset(tup[position] for tup in matching(index, bound))


# ---------------------------------------------------------------------------
# Semirings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Semiring:
    """A commutative semiring ``(D, ⊕, ⊗, 0, 1)`` parameterizing the DP.

    The DP sums (⊕) over alternative extensions and multiplies (⊗) over
    independent subtrees; any semiring whose zero annihilates (``0 ⊗ x =
    0``) yields a correct sweep.  :data:`BOOLEAN` gives existence,
    :data:`COUNTING` the exact homomorphism count, and :data:`MIN_PLUS`
    (tropical) is the hook for minimum-cost/width computations.
    """

    name: str
    zero: Any
    one: Any
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]

    def is_zero(self, value: Any) -> bool:
        """Return True when ``value`` is the additive identity."""
        return value == self.zero

    def sum(self, values: Iterable[Any]) -> Any:
        """Fold ``⊕`` over the values (``0`` for the empty iterable)."""
        total = self.zero
        for value in values:
            total = self.add(total, value)
        return total

    def product(self, values: Iterable[Any]) -> Any:
        """Fold ``⊗`` over the values (``1`` for the empty iterable)."""
        total = self.one
        for value in values:
            total = self.mul(total, value)
        return total

    def __repr__(self) -> str:
        return f"Semiring({self.name})"


#: Existence: ⊕ = or, ⊗ = and.
BOOLEAN = Semiring("boolean", False, True, lambda a, b: a or b, lambda a, b: a and b)

#: Counting: the natural numbers with + and ×.
COUNTING = Semiring("counting", 0, 1, lambda a, b: a + b, lambda a, b: a * b)

#: Tropical (min, +): minimum total cost over homomorphisms.
MIN_PLUS = Semiring("min-plus", float("inf"), 0, min, lambda a, b: a + b)


# ---------------------------------------------------------------------------
# Source-side preparation
# ---------------------------------------------------------------------------

def _source_atoms(source: Structure) -> List[Atom]:
    """Return the source's positive-arity atoms as ``(relation, tuple)`` pairs."""
    atoms: List[Atom] = []
    for symbol in source.vocabulary:
        if symbol.arity == 0:
            continue
        for tup in source.relation(symbol.name):
            atoms.append((symbol.name, tup))
    return atoms


# The nullary check is shared with the backtracking and tree-depth
# solvers; keeping one implementation is what the differential fuzzing
# harness relies on (every solver rejects the same obstructed inputs).
_nullary_obstruction = nullary_obstruction


def _check_arities(source: Structure, target: Structure) -> None:
    """Refuse a target that lacks a source symbol or gives it another
    arity: the sweeps would otherwise match an atom against the leading
    positions of longer target tuples."""
    for symbol in source.vocabulary:
        if target.vocabulary.arity(symbol.name) != symbol.arity:
            raise VocabularyError(
                f"arity mismatch for {symbol.name!r} between source and target"
            )


def pruned_domains(
    source: Structure, index: StructureIndex
) -> Dict[Element, FrozenSet[Element]]:
    """Return per-element candidate domains, pruned by unary and positional support.

    An element constrained by a unary atom may only map into that unary
    relation; an element in position ``i`` of an ``R``-atom may only map to
    values occurring in column ``i`` of ``R`` in the target.
    """
    domains: Dict[Element, set] = {a: set(index.universe) for a in source.universe}
    for symbol in source.vocabulary:
        if symbol.arity == 0:
            continue
        relation = index.relation(symbol.name)
        for tup in source.relation(symbol.name):
            for position, element in enumerate(tup):
                domains[element] &= relation.column(position)
    return {a: frozenset(values) for a, values in domains.items()}


def _bag_order(
    bag: FrozenSet[Element],
    atoms: List[Atom],
    domains: Dict[Element, FrozenSet[Element]],
) -> List[Element]:
    """Order a bag's variables so each one is constrained by its predecessors.

    Greedy connected order over atom co-occurrence: start from the most
    constrained variable (smallest domain), repeatedly pick a variable
    sharing an atom with the already-ordered prefix, falling back to the
    most constrained remaining variable for disconnected bags.  Fully
    deterministic via :func:`stable_key` tie-breaking.
    """
    remaining = set(bag)
    adjacency: Dict[Element, set] = {v: set() for v in bag}
    for _, tup in atoms:
        members = [x for x in stable_sorted(set(tup)) if x in remaining]
        for a in members:
            for b in members:
                if a != b:
                    adjacency[a].add(b)

    def priority(v: Element) -> Tuple[int, Tuple[str, str]]:
        return (len(domains[v]), stable_key(v))

    order: List[Element] = []
    frontier: set = set()
    while remaining:
        pool = frontier & remaining
        pick = min(pool or remaining, key=priority)
        order.append(pick)
        remaining.discard(pick)
        frontier |= adjacency[pick]
    return order


def _closed_atoms_by_level(
    bag_order: List[Element], atoms: List[Atom]
) -> List[List[Atom]]:
    """Group the atoms contained in the bag by the level completing them.

    An atom is *closed* at the level of its last variable in ``bag_order``;
    checking it there (as a candidate filter) is equivalent to checking all
    in-bag atoms on the finished assignment, but prunes partial maps as
    early as possible.
    """
    position = {v: i for i, v in enumerate(bag_order)}
    closed: List[List[Atom]] = [[] for _ in bag_order]
    for name, tup in atoms:
        if all(x in position for x in tup):
            closed[max(position[x] for x in tup)].append((name, tup))
    return closed


def _sorted_domain_lists(
    domains: Dict[Element, FrozenSet[Element]]
) -> Dict[Element, List[Element]]:
    """Pre-sort each domain once per run (the unconstrained-variable fast path)."""
    return {element: stable_sorted(values) for element, values in domains.items()}


def _candidates(
    level: int,
    bag_order: List[Element],
    closed: List[List[Atom]],
    assignment: Assignment,
    index: StructureIndex,
    domains: Dict[Element, FrozenSet[Element]],
    domain_lists: Dict[Element, List[Element]],
) -> List[Element]:
    """Return the consistent values for the variable at ``level``.

    Intersects, over every atom closed at this level, the target values
    supported by the already-assigned positions — one hash lookup per
    atom, never a scan of the target universe.  Constrained candidate
    sets are returned unsorted: this sits in the DP's innermost loop, and
    enumeration order cannot change any semiring result (tables are
    dicts, ⊕ and ⊗ are commutative).
    """
    variable = bag_order[level]
    candidates: Optional[set] = None
    for name, tup in closed[level]:
        relation = index.relation(name)
        variable_positions = [p for p, x in enumerate(tup) if x == variable]
        bound = {p: assignment[x] for p, x in enumerate(tup) if x != variable}
        values = set()
        for target_tuple in matching(relation, bound):
            value = target_tuple[variable_positions[0]]
            if all(target_tuple[p] == value for p in variable_positions[1:]):
                values.add(value)
        candidates = values if candidates is None else candidates & values
        if not candidates:
            return []
    if candidates is None:
        return domain_lists[variable]
    candidates &= domains[variable]
    return list(candidates)


def iter_bag_assignments(
    source: Structure,
    target: Structure,
    bag: FrozenSet[Element],
    index: Optional[StructureIndex] = None,
    domains: Optional[Dict[Element, FrozenSet[Element]]] = None,
) -> Iterator[Assignment]:
    """Yield every partial homomorphism with domain ``bag``, via indexed extension.

    The iteration is a recursion-free backtracking over the bag's
    variables in connected order; candidate values come from the target's
    hash indexes, so sparse targets are never enumerated exhaustively.
    Yields the empty assignment once for an empty bag.

    By default ``domains`` is the full target universe per variable, which
    matches the partial-homomorphism semantics exactly (only atoms inside
    the bag constrain the assignment).  The DP passes
    :func:`pruned_domains` instead: that additionally drops assignments
    with no *full* extension — sound for whole-structure existence and
    counting, but a strict subset of the partial homomorphisms on the bag.
    """
    if index is None:
        index = structure_index(target)
    if domains is None:
        universe = frozenset(index.universe)
        domains = {element: universe for element in source.universe}
    atoms = _source_atoms(source)
    bag_order = _bag_order(bag, atoms, domains)
    closed = _closed_atoms_by_level(bag_order, atoms)
    domain_lists = _sorted_domain_lists(domains)
    for assignment in _iter_prepared_assignments(
        bag_order, closed, index, domains, domain_lists
    ):
        yield dict(assignment)


# ---------------------------------------------------------------------------
# The decomposition sweeps
# ---------------------------------------------------------------------------

def run_decomposition_dp(
    source: Structure,
    target: Structure,
    decomposition: TreeDecomposition,
    semiring: Semiring = COUNTING,
) -> Any:
    """Run the semiring DP bottom-up over a tree decomposition of the source.

    Returns the semiring total over all homomorphisms ``source → target``:
    existence under :data:`BOOLEAN`, the exact count under
    :data:`COUNTING`.  The decomposition must decompose the source's
    Gaifman graph (validated).  The sweep is iterative — a postorder
    worklist over a BFS orientation — so decomposition depth is bounded
    only by memory, not the interpreter's recursion limit.
    """
    decomposition.validate_for_structure(source)
    _check_arities(source, target)
    if _nullary_obstruction(source, target):
        return semiring.zero
    index = structure_index(target)
    domains = pruned_domains(source, index)
    domain_lists = _sorted_domain_lists(domains)
    atoms = _source_atoms(source)

    tree = decomposition.tree
    root = min(tree.vertices, key=stable_key)
    parent: Dict[Hashable, Optional[Hashable]] = {root: None}
    order: List[Hashable] = [root]
    cursor = 0
    while cursor < len(order):
        node = order[cursor]
        cursor += 1
        for neighbour in sorted(tree.neighbors(node), key=stable_key):
            if neighbour not in parent:
                parent[neighbour] = node
                order.append(neighbour)
    children: Dict[Hashable, List[Hashable]] = {node: [] for node in order}
    for node, par in parent.items():
        if par is not None:
            children[par].append(node)

    # tables[node] = (bag_order, {assignment values in bag order: semiring value})
    tables: Dict[Hashable, Tuple[List[Element], Dict[Tuple[Element, ...], Any]]] = {}
    for node in reversed(order):
        bag = decomposition.bag(node)
        bag_order = _bag_order(bag, atoms, domains)
        closed = _closed_atoms_by_level(bag_order, atoms)

        # Pre-project each child table onto the shared variables, summing
        # over the child-only columns, so the join below is one hash lookup
        # per (parent assignment, child) instead of a table scan.
        projections: List[Tuple[List[Element], Dict[Tuple[Element, ...], Any]]] = []
        for child in children[node]:
            child_order, child_table = tables.pop(child)
            shared = [v for v in child_order if v in bag]
            positions = [child_order.index(v) for v in shared]
            grouped: Dict[Tuple[Element, ...], Any] = {}
            for key, value in child_table.items():
                shared_key = tuple(key[p] for p in positions)
                previous = grouped.get(shared_key, semiring.zero)
                grouped[shared_key] = semiring.add(previous, value)
            projections.append((shared, grouped))

        table: Dict[Tuple[Element, ...], Any] = {}
        for assignment in _iter_prepared_assignments(
            bag_order, closed, index, domains, domain_lists
        ):
            value = semiring.one
            for shared, grouped in projections:
                child_value = grouped.get(
                    tuple(assignment[v] for v in shared), semiring.zero
                )
                value = semiring.mul(value, child_value)
                if semiring.is_zero(value):
                    break
            if not semiring.is_zero(value):
                table[tuple(assignment[v] for v in bag_order)] = value
        if not table:
            # A bag with no consistent assignment annihilates every join on
            # the way to the root; the validated coverage makes zero exact.
            return semiring.zero
        tables[node] = (bag_order, table)

    _, root_table = tables[root]
    return semiring.sum(root_table.values())


def _iter_prepared_assignments(
    bag_order: List[Element],
    closed: List[List[Atom]],
    index: StructureIndex,
    domains: Dict[Element, FrozenSet[Element]],
    domain_lists: Dict[Element, List[Element]],
) -> Iterator[Assignment]:
    """Iterate bag assignments from pre-computed order/closure (DP inner loop)."""
    depth = len(bag_order)
    if depth == 0:
        yield {}
        return
    assignment: Assignment = {}
    stack: List[Iterator[Element]] = [
        iter(_candidates(0, bag_order, closed, assignment, index, domains, domain_lists))
    ]
    while stack:
        level = len(stack) - 1
        variable = bag_order[level]
        try:
            assignment[variable] = next(stack[-1])
        except StopIteration:
            stack.pop()
            assignment.pop(variable, None)
            continue
        if level + 1 == depth:
            yield assignment
        else:
            stack.append(
                iter(
                    _candidates(
                        level + 1, bag_order, closed, assignment, index, domains, domain_lists
                    )
                )
            )


def run_path_sweep(
    source: Structure,
    target: Structure,
    decomposition: PathDecomposition,
    semiring: Semiring = COUNTING,
) -> Any:
    """Run the semiring sweep left-to-right over a path decomposition.

    The live state after bag ``i`` is one table: bag-``i`` assignments
    mapped to the semiring total of their extensions to all vertices
    already forgotten — exactly the invariant the Theorem 4.6 PATH machine
    maintains, now over indexed joins.  Memory is bounded by one bag table
    regardless of the decomposition's length.
    """
    decomposition.validate(gaifman_graph(source))
    _check_arities(source, target)
    if _nullary_obstruction(source, target):
        return semiring.zero
    index = structure_index(target)
    domains = pruned_domains(source, index)
    domain_lists = _sorted_domain_lists(domains)
    atoms = _source_atoms(source)

    previous_order: Optional[List[Element]] = None
    previous_table: Dict[Tuple[Element, ...], Any] = {}
    for bag in decomposition.bags:
        bag_order = _bag_order(bag, atoms, domains)
        closed = _closed_atoms_by_level(bag_order, atoms)
        if previous_order is None:
            projection: Optional[Tuple[List[Element], Dict[Tuple[Element, ...], Any]]] = None
        else:
            shared = [v for v in previous_order if v in bag]
            positions = [previous_order.index(v) for v in shared]
            grouped: Dict[Tuple[Element, ...], Any] = {}
            for key, value in previous_table.items():
                shared_key = tuple(key[p] for p in positions)
                grouped[shared_key] = semiring.add(
                    grouped.get(shared_key, semiring.zero), value
                )
            projection = (shared, grouped)
        table: Dict[Tuple[Element, ...], Any] = {}
        for assignment in _iter_prepared_assignments(
            bag_order, closed, index, domains, domain_lists
        ):
            if projection is None:
                value = semiring.one
            else:
                shared, grouped = projection
                value = grouped.get(tuple(assignment[v] for v in shared), semiring.zero)
            if not semiring.is_zero(value):
                table[tuple(assignment[v] for v in bag_order)] = value
        if not table:
            return semiring.zero
        previous_order, previous_table = bag_order, table
    return semiring.sum(previous_table.values())


# ---------------------------------------------------------------------------
# Convenience wrappers
# ---------------------------------------------------------------------------

def _default_decomposition(source: Structure) -> TreeDecomposition:
    from repro.decomposition.width import good_tree_decomposition

    return good_tree_decomposition(source)


def homomorphism_exists_join(
    source: Structure,
    target: Structure,
    decomposition: Optional[TreeDecomposition] = None,
) -> bool:
    """Decide ``hom(source → target)`` with the join engine (Boolean semiring)."""
    if decomposition is None:
        decomposition = _default_decomposition(source)
    return bool(run_decomposition_dp(source, target, decomposition, BOOLEAN))


def count_homomorphisms_join(
    source: Structure,
    target: Structure,
    decomposition: Optional[TreeDecomposition] = None,
) -> int:
    """Count homomorphisms with the join engine (counting semiring)."""
    if decomposition is None:
        decomposition = _default_decomposition(source)
    return run_decomposition_dp(source, target, decomposition, COUNTING)
