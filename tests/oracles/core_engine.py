"""The core engine before compilation: the reference for ``core_engine``.

This is :mod:`repro.homomorphism.core_engine` as it stood before it was
compiled onto bitmasks, kept unchanged so the tests can demand that the
compiled engine returns exactly what it does.  It runs the same three
phases on real structures:

* every fold pass builds the induced ``Structure`` of the survivors and a
  fresh ``StructureIndex`` over it;
* arc consistency scans every tuple of an atom's relation per revision;
* the non-surjective-endomorphism search draws candidates through the
  join engine's ``_bag_order``, ``_closed_atoms_by_level`` and
  ``_candidates``, then sorts them image-first, then by stable key.

``tests/test_core_engine_oracle.py`` compares :func:`compute_core` (all
five :class:`CoreComputation` fields), :func:`find_fold_batch`,
:func:`fold_reduce`, :func:`endomorphism_domains` and
:func:`find_non_surjective_endomorphism` with the compiled engine's.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Mapping, Optional, Set, Tuple

from oracles.join_engine import (
    _bag_order,
    _candidates,
    _closed_atoms_by_level,
    matching,
)
from repro.structures.indexes import StructureIndex, stable_key, stable_sorted
from repro.structures.structure import Structure

Element = Hashable
Endomorphism = Dict[Element, Element]
Atom = Tuple[str, Tuple[Element, ...]]


# ---------------------------------------------------------------------------
# Source-side preparation
# ---------------------------------------------------------------------------

def _positive_atoms(structure: Structure) -> List[Atom]:
    """Return the positive-arity atoms as ``(relation, tuple)`` pairs.

    Nullary atoms never constrain an endomorphism (source and target are
    the same structure), so the engine ignores them; they survive every
    induced substructure and hence reach the core untouched.
    """
    atoms: List[Atom] = []
    for symbol in structure.vocabulary:
        if symbol.arity == 0:
            continue
        for tup in structure.relation(symbol.name):
            atoms.append((symbol.name, tup))
    return atoms


def _atoms_by_element(atoms: List[Atom]) -> Dict[Element, List[Atom]]:
    by_element: Dict[Element, List[Atom]] = {}
    for atom in atoms:
        # Sorted so the mapping's key order never depends on the hash
        # seed — keeps AC traces comparable across differential runs.
        for element in stable_sorted(set(atom[1])):
            by_element.setdefault(element, []).append(atom)
    return by_element


# ---------------------------------------------------------------------------
# Phase 1: folds (dominated-element elimination)
# ---------------------------------------------------------------------------

def _fold_targets(
    a: Element,
    structure: Structure,
    index: StructureIndex,
    by_element: Dict[Element, List[Atom]],
) -> Set[Element]:
    """All ``b ≠ a`` such that ``a ↦ b`` (identity elsewhere) is an endomorphism.

    The map is an endomorphism iff every atom containing ``a`` still
    holds after substituting ``b`` for ``a`` (all occurrences at once) —
    ``a``'s atom-neighbourhood is *dominated* by ``b``'s.  Candidates are
    intersected over ``a``'s atoms via the target hash indexes, so the
    scan costs one index lookup per incident atom.  The shared witness
    check behind :func:`find_fold` and :func:`find_fold_batch`.
    """
    candidates: Optional[Set[Element]] = None
    for name, tup in by_element.get(a, ()):
        relation = index.relation(name)
        a_positions = [p for p, x in enumerate(tup) if x == a]
        bound = {p: x for p, x in enumerate(tup) if x != a}
        values: Set[Element] = set()
        for witness in matching(relation, bound):
            value = witness[a_positions[0]]
            if all(witness[p] == value for p in a_positions[1:]):
                values.add(value)
        candidates = values if candidates is None else candidates & values
        if not candidates:
            break
    if candidates is None:
        # No incident atoms: an isolated element maps anywhere.
        candidates = set(structure.universe)
    else:
        candidates = set(candidates)
    candidates.discard(a)
    return candidates


def find_fold(
    structure: Structure, index: Optional[StructureIndex] = None
) -> Optional[Tuple[Element, Element]]:
    """Return ``(a, b)`` such that ``a ↦ b`` (identity elsewhere) is an endomorphism.

    Low-degree elements are scanned first (leaves fold earliest); the
    per-element witness check is :func:`_fold_targets`.  Returns None
    when no element folds.
    """
    if len(structure) <= 1:
        return None
    if index is None:
        # Built directly, NOT through the structure_index LRU: the engine
        # indexes a throw-away intermediate structure per retraction
        # round, and flooding the small shared cache would evict the hot
        # database indexes the join engine relies on between queries.
        index = StructureIndex(structure)
    atoms = _positive_atoms(structure)
    by_element = _atoms_by_element(atoms)

    def degree(element: Element) -> int:
        return len(by_element.get(element, ()))

    for a in sorted(structure.universe, key=lambda x: (degree(x), stable_key(x))):
        candidates = _fold_targets(a, structure, index, by_element)
        if candidates:
            return a, min(candidates, key=stable_key)
    return None


def find_fold_batch(
    structure: Structure, index: Optional[StructureIndex] = None
) -> List[Tuple[Element, Element]]:
    """Return a non-interfering *set* of folds, applicable simultaneously.

    One scan in :func:`find_fold`'s order, greedily accepting every fold
    ``(a, b)`` whose witness cannot be invalidated by the folds already
    accepted this pass:

    * ``b`` is not itself folded away by the batch, and ``a`` is not the
      target of an earlier accepted fold (targets must survive);
    * no atom incident to ``a`` mentions another batched folded element —
      every atom then contains at most one substituted element, so each
      atom's image under the *combined* map is exactly the atom the
      single-fold check verified, and that image avoids every removed
      element.

    The combined map (``a_i ↦ b_i``, identity elsewhere) is therefore an
    endomorphism of ``structure`` onto the induced substructure with all
    ``a_i`` removed.  The first accepted fold equals :func:`find_fold`'s
    answer, so a non-empty batch exists exactly when a single fold does.
    """
    if len(structure) <= 1:
        return []
    if index is None:
        index = StructureIndex(structure)
    atoms = _positive_atoms(structure)
    by_element = _atoms_by_element(atoms)

    def degree(element: Element) -> int:
        return len(by_element.get(element, ()))

    batch: List[Tuple[Element, Element]] = []
    folded: Set[Element] = set()
    targets: Set[Element] = set()
    for a in sorted(structure.universe, key=lambda x: (degree(x), stable_key(x))):
        if a in targets:
            continue
        if any(
            any(other in folded for other in tup)
            for _, tup in by_element.get(a, ())
        ):
            continue
        candidates = _fold_targets(a, structure, index, by_element)
        candidates -= folded
        if candidates:
            b = min(candidates, key=stable_key)
            batch.append((a, b))
            folded.add(a)
            targets.add(b)
    return batch


def _fold_reduce(
    structure: Structure,
) -> Tuple[Structure, Endomorphism, int, StructureIndex]:
    """:func:`fold_reduce` plus the final structure's index (for reuse).

    Folds are applied in independent *batches* (:func:`find_fold_batch`),
    so the structure and its hash index are rebuilt once per pass instead
    of once per fold — O(rounds) rebuilds where the per-fold loop paid
    O(n) (ROADMAP "fold batching").
    """
    current = structure
    retraction: Endomorphism = {a: a for a in structure.universe}
    count = 0
    index = StructureIndex(current)
    while True:
        batch = find_fold_batch(current, index)
        if not batch:
            return current, retraction, count, index
        count += len(batch)
        mapping = dict(batch)
        current = current.induced_substructure(current.universe - set(mapping))
        index = StructureIndex(current)
        retraction = {x: mapping.get(y, y) for x, y in retraction.items()}


def fold_reduce(structure: Structure) -> Tuple[Structure, Endomorphism, int]:
    """Apply folds to a fixpoint; return ``(folded, retraction, fold_count)``.

    ``retraction`` maps the input structure onto the folded one (a
    composition of single-element folds, hence a homomorphism).
    """
    current, retraction, count, _ = _fold_reduce(structure)
    return current, retraction, count


# ---------------------------------------------------------------------------
# Phase 2: rigidity certificates
# ---------------------------------------------------------------------------

def _degree_certificate(structure: Structure) -> Optional[str]:
    """Degree-based core proofs for loop-free symmetric graph-like structures.

    * complete graph ``K_n``: any non-injective endomorphism would need a
      loop, so every endomorphism is an automorphism → core;
    * connected 2-regular with an odd universe: the structure is an odd
      cycle, every proper retract is a disjoint union of paths (hence
      bipartite), and an odd cycle has no homomorphism into a bipartite
      graph → core.
    """
    if not structure.is_graph_like():
        return None
    edges = structure.relation("E")
    if not edges:
        return None
    if any(u == v for u, v in edges):
        return None  # a loop retracts everything onto its vertex
    neighbours: Dict[Element, Set[Element]] = {x: set() for x in structure.universe}
    for u, v in edges:
        if (v, u) not in edges:
            return None  # directed: leave to AC propagation / search
        neighbours[u].add(v)
    n = len(structure)
    if all(len(adjacent) == n - 1 for adjacent in neighbours.values()):
        return "clique"
    if n % 2 == 1 and all(len(adjacent) == 2 for adjacent in neighbours.values()):
        start = next(iter(neighbours))
        if len(_component(neighbours, start)) == n:
            return "odd-cycle"
    return None


def _component(neighbours: Mapping[Element, Set[Element]], start: Element) -> Set[Element]:
    reached = {start}
    frontier = deque([start])
    while frontier:
        vertex = frontier.popleft()
        for other in neighbours[vertex]:
            if other not in reached:
                reached.add(other)
                frontier.append(other)
    return reached


def endomorphism_domains(
    structure: Structure,
    index: Optional[StructureIndex] = None,
    seed: Optional[Mapping[Element, FrozenSet[Element]]] = None,
) -> Dict[Element, FrozenSet[Element]]:
    """Arc-consistent domains of the endomorphism CSP ``hom(A → A)``.

    Domains start from positional support (as in the join engine's
    ``pruned_domains``) and are refined by generalized AC-3 over the
    atoms: a value survives for a variable only while some target tuple
    supports it together with *currently possible* values of the atom's
    other variables.  The identity assignment is a solution, so ``a ∈
    D(a)`` always; in particular domains never empty out, and an
    all-singleton fixpoint proves the identity is the only endomorphism.

    ``seed`` (incremental AC) pre-restricts each element's domain to a
    caller-supplied superset of its possible images — sound whenever
    the seeds over-approximate every endomorphism of ``structure``, as
    the domains carried between :func:`compute_core` retraction rounds
    do.  Propagation then starts from the smaller frontier instead of
    rediscovering it from full domains each round.
    """
    atoms = _positive_atoms(structure)
    if index is None:
        index = StructureIndex(structure)
    if seed is None:
        domains: Dict[Element, Set[Element]] = {
            a: set(structure.universe) for a in structure.universe
        }
    else:
        universe = set(structure.universe)
        domains = {a: set(seed[a]) & universe for a in structure.universe}
    for name, tup in atoms:
        relation = index.relation(name)
        for position, element in enumerate(tup):
            domains[element] &= relation.column(position)
    by_element = _atoms_by_element(atoms)
    queue: deque = deque(atoms)
    queued: Set[Atom] = set(atoms)
    while queue:
        atom = queue.popleft()
        queued.discard(atom)
        name, tup = atom
        variables = stable_sorted(set(tup))
        supported: Dict[Element, Set[Element]] = {x: set() for x in variables}
        for witness in index.relation(name).tuples:
            seen: Dict[Element, Element] = {}
            consistent = True
            for position, variable in enumerate(tup):
                value = witness[position]
                if value not in domains[variable] or seen.setdefault(variable, value) != value:
                    consistent = False
                    break
            if consistent:
                for variable, value in seen.items():
                    supported[variable].add(value)
        for variable in variables:
            if len(supported[variable]) < len(domains[variable]):
                domains[variable] = supported[variable]
                for other in by_element[variable]:
                    if other != atom and other not in queued:
                        queue.append(other)
                        queued.add(other)
    return {a: frozenset(values) for a, values in domains.items()}


def _certify(
    structure: Structure,
    index: Optional[StructureIndex] = None,
    seed: Optional[Mapping[Element, FrozenSet[Element]]] = None,
) -> Tuple[Optional[str], Optional[Dict[Element, FrozenSet[Element]]]]:
    """Return ``(certificate, None)`` or ``(None, AC domains)`` for the search."""
    if len(structure) == 1:
        return "singleton", None
    certificate = _degree_certificate(structure)
    if certificate is not None:
        return certificate, None
    domains = endomorphism_domains(structure, index, seed=seed)
    if all(len(values) == 1 for values in domains.values()):
        return "ac-rigid", None
    return None, domains


def rigidity_certificate(structure: Structure) -> Optional[str]:
    """Return a tag naming a cheap proof that the structure is a core, or None.

    ``"singleton"``, ``"clique"`` and ``"odd-cycle"`` are
    degree/invariant certificates; ``"ac-rigid"`` means arc-consistency
    propagation collapsed every endomorphism domain to the identity.
    None means no certificate applies — the structure may or may not be
    a core, and only the search can tell.
    """
    return _certify(structure)[0]


# ---------------------------------------------------------------------------
# Phase 3: the single non-surjective-endomorphism search
# ---------------------------------------------------------------------------

def find_non_surjective_endomorphism(
    structure: Structure,
    domains: Optional[Dict[Element, FrozenSet[Element]]] = None,
    index: Optional[StructureIndex] = None,
) -> Optional[Endomorphism]:
    """Return an endomorphism whose image misses ≥ 1 element, or None.

    One backtracking search over the AC-pruned domains replaces the
    seed's ``n`` independent ``hom(A, A − {a})`` searches.  Variables are
    assigned in connected order with candidates drawn from the hash
    indexes (the join engine's extension step, reused); the
    must-miss-one-element constraint rejects surjective completions, and
    candidate values already in the image are tried first — a partial
    assignment can only complete surjectively while it stays injective,
    so reusing a value early commits the whole subtree to non-surjective
    witnesses.
    """
    n = len(structure)
    if n <= 1:
        return None
    if index is None:
        index = StructureIndex(structure)
    if domains is None:
        domains = endomorphism_domains(structure, index)
    if all(len(values) == 1 for values in domains.values()):
        return None  # rigid: the identity is the only endomorphism
    atoms = _positive_atoms(structure)
    order = _bag_order(frozenset(structure.universe), atoms, domains)
    closed = _closed_atoms_by_level(order, atoms)
    domain_lists = {a: stable_sorted(values) for a, values in domains.items()}

    assignment: Endomorphism = {}
    used: Dict[Element, int] = {}

    def candidates(level: int) -> List[Element]:
        pool = _candidates(
            level, order, closed, assignment, index, domains, domain_lists
        )
        # Image values first: reusing a value keeps the image small, which
        # is what lets the completed assignment miss an element.  The
        # inner stable sort keeps the search order deterministic (the
        # join engine returns constrained candidate sets unsorted).
        return sorted(stable_sorted(pool), key=lambda value: value not in used)

    def search(level: int) -> bool:
        if level == n:
            return len(used) < n
        variable = order[level]
        for value in candidates(level):
            assignment[variable] = value
            used[value] = used.get(value, 0) + 1
            if search(level + 1):
                return True
            if used[value] == 1:
                del used[value]
            else:
                used[value] -= 1
            del assignment[variable]
        return False

    if search(0):
        return dict(assignment)
    return None


def proper_retraction(structure: Structure) -> Optional[Endomorphism]:
    """Return an endomorphism with a proper image, or None when none exists.

    The engine-backed replacement for the seed's per-element restart
    loop: try a fold, then a certificate, then the single search.
    """
    if len(structure) <= 1:
        return None
    index = StructureIndex(structure)
    fold = find_fold(structure, index)
    if fold is not None:
        a, b = fold
        return {x: (b if x == a else x) for x in structure.universe}
    certificate, domains = _certify(structure, index)
    if certificate is not None:
        return None
    return find_non_surjective_endomorphism(structure, domains, index)


def _idempotent_retraction(endomorphism: Endomorphism) -> Endomorphism:
    """Iterate an endomorphism to an idempotent power (a true retraction).

    In the finite monoid generated by ``e`` some power is idempotent:
    the image chain ``img(e) ⊇ img(e²) ⊇ …`` stabilises within ``n``
    steps at a set ``I`` that ``eᵏ`` merely permutes, and composing with
    that permutation's inverse (itself a power of ``e`` restricted to
    ``I``) yields ``r = eᵏᵈ`` with ``r∘r = r``.  ``r`` is identity on
    its image — the property the incremental-AC domain carrying in
    :func:`compute_core` needs for soundness, which a raw search witness
    does not provide.
    """
    power = dict(endomorphism)
    image = frozenset(power.values())
    while True:
        next_power = {x: endomorphism[value] for x, value in power.items()}
        next_image = frozenset(next_power.values())
        if next_image == image:
            break
        power, image = next_power, next_image
    inverse = {power[a]: a for a in image}
    return {x: inverse[power[x]] for x in power}


# ---------------------------------------------------------------------------
# The witnessed core computation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoreComputation:
    """A core together with how it was reached and how core-ness was proven.

    ``retraction`` maps the input structure onto ``core`` (a composition
    of fold and search retractions, hence a homomorphism; the identity
    when the input already is its own core and no retraction ran).
    ``certificate`` names the rigidity proof that terminated the
    computation — one of ``"singleton"``, ``"clique"``, ``"odd-cycle"``,
    ``"ac-rigid"`` — or None when termination needed the exhaustive
    non-surjective-endomorphism search.
    """

    structure: Structure
    core: Structure
    retraction: Endomorphism
    certificate: Optional[str]
    folds: int
    searches: int

    @property
    def searched(self) -> bool:
        """True when at least one backtracking search ran."""
        return self.searches > 0


def compute_core(structure: Structure, incremental: bool = True) -> CoreComputation:
    """Compute the core with folds, certificates and the single search.

    Each round folds to a fixpoint, then tries to certify the remainder
    rigid (free termination), then runs one non-surjective-endomorphism
    search; a found retraction shrinks the structure and the loop
    repeats.  The result's ``core`` is an induced substructure of the
    input, unique up to isomorphism, and ``retraction`` witnesses
    ``structure → core``.

    With ``incremental=True`` (the default) the AC domains computed in
    round ``k`` seed round ``k+1``: the search witness is first iterated
    to an idempotent retraction ``r`` (identity on its image ``I``), so
    any endomorphism ``f`` of the shrunken structure lifts to ``f∘r`` on
    the previous one — hence ``f(a) ∈ D(a) ∩ I`` and the carried domains
    ``{a: D(a) ∩ I}`` soundly over-approximate every next-round
    endomorphism.  Folds between rounds are identity on survivors, so
    the carried domains stay valid verbatim (values outside the new
    universe are dropped when seeding).  ``incremental=False`` keeps the
    original from-scratch behaviour bit-for-bit and exists as the
    reference arm of the differential fuzz test.
    """
    current = structure
    retraction: Endomorphism = {a: a for a in structure.universe}
    folds = 0
    searches = 0
    carried: Optional[Dict[Element, FrozenSet[Element]]] = None
    while True:
        current, fold_map, new_folds, index = _fold_reduce(current)
        if new_folds:
            folds += new_folds
            retraction = {x: fold_map[y] for x, y in retraction.items()}
        certificate, domains = _certify(current, index, seed=carried)
        if certificate is not None:
            return CoreComputation(structure, current, retraction, certificate, folds, searches)
        searches += 1
        endomorphism = find_non_surjective_endomorphism(current, domains, index)
        if endomorphism is None:
            return CoreComputation(structure, current, retraction, None, folds, searches)
        if incremental:
            idempotent = _idempotent_retraction(endomorphism)
            image = frozenset(idempotent.values())
            carried = {a: domains[a] & image for a in image}
            current = current.induced_substructure(image)
            retraction = {x: idempotent[y] for x, y in retraction.items()}
        else:
            current = current.induced_substructure(frozenset(endomorphism.values()))
            retraction = {x: endomorphism[y] for x, y in retraction.items()}
