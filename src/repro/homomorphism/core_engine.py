"""The rigidity-certified core engine — the fast path behind ``core``.

The seed algorithm (kept with the tests in ``tests/oracles/seeds.py``)
looks for a proper retraction by restarting a backtracking search ``hom(A, A − {a})`` for
every element ``a``, after every retraction: proving that a structure
*is* a core costs ``n`` exhaustive searches (directed path ``P30`` ≈ 3 s,
odd cycle ``C13`` ≈ 9 s in the seed).  Three observations make it cheap:

1. **Folds** (:func:`find_fold`): when ``a ↦ b`` (identity elsewhere) is
   already an endomorphism, ``a`` retracts away with no search — one
   table lookup per atom containing ``a``.  Iterated to a fixpoint this
   collapses trees, paths and grids.
2. **Rigidity certificates** (:func:`rigidity_certificate`): a loop-free
   clique or a connected odd 2-regular graph is a core by a degree
   argument, and when arc-consistency propagation over ``hom(A → A)``
   collapses every domain to ``{a}`` the identity is the only
   endomorphism (``P30`` in milliseconds).
3. **One search instead of n** (:func:`find_non_surjective_endomorphism`):
   a single backtracking search over the AC-pruned domains looks for any
   endomorphism that misses an element, trying values already in the
   image first.  It checks each atom as soon as all its variables but the
   last are assigned (forward checking): the lookup cuts the last
   variable's candidates, and a value that empties them is dropped before
   the levels between are tried.  On the 400 graph patterns of
   ``tests/test_core_engine_oracle.py`` that is 9,076 search nodes where a
   check at the last variable's level takes 65,993, for the same
   endomorphisms.

**The compiled program.**  Each call compiles its input once
(:class:`_Program`).  The universe is numbered in :func:`stable_sorted`
order, so a set of elements is an int bitmask and its stable-smallest
member is its lowest bit.  Each positive-arity atom becomes an int tuple
plus the bitmask of its elements.  For each (relation, free positions)
pair the program builds, lazily and once, a table from the values at
the other (bound) positions to the bitmask of values the free positions
can take together (repeated free positions must agree).  Folds, arc
consistency and the search then run on an ``alive`` mask of surviving
elements over those tables; only the final core is built, with
``induced_substructure``.

This is sound because a tuple of the substructure induced by ``alive``
is exactly an input tuple whose elements are all alive.  An atom is
therefore present iff its element mask lies inside ``alive``, and a
lookup whose bound values are alive answers for the induced
substructure once its result is masked by ``alive`` — or by a domain,
which always lies inside ``alive``.  Every lookup result is masked so.

:mod:`repro.homomorphism.cores` routes the public ``core`` API through
:func:`compute_core`.  The seed loop (``tests/oracles/seeds.py``) and
the engine before compilation, which rebuilt a structure and its hash
index on every pass (``tests/oracles/core_engine.py``), are test-only
references.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from repro.structures.indexes import stable_sorted
from repro.structures.structure import Structure

Element = Hashable
Endomorphism = Dict[Element, Element]
Row = Tuple[int, ...]
#: Bound values → bitmask of the values the free positions can take.
Table = Dict[Row, int]
#: ``(relation, free positions, width)``: a table looked up with one
#: element at all ``width`` bound positions (:meth:`_Program.table_list`).
ListKey = Tuple[str, Row, int]


def _bits(mask: int) -> Iterator[int]:
    """The element numbers in ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(numbers: Iterable[int]) -> int:
    mask = 0
    for x in numbers:
        mask |= 1 << x
    return mask


def _split(row: Row, variable: int) -> Tuple[Row, Row]:
    """The positions of ``variable`` in ``row``, and the elements at the others."""
    if len(row) == 2:  # every graph atom: no generator needed
        first, second = row
        if first == variable:
            return ((0, 1), ()) if second == variable else ((0,), (second,))
        if second == variable:
            return (1,), (first,)
    free = tuple(p for p, x in enumerate(row) if x == variable)
    return free, tuple(x for x in row if x != variable)


class _Program:
    """One input structure, numbered once and looked up through bitmask tables.

    Every phase takes an ``alive`` mask and works on the substructure it
    induces; the module docstring says why the input's tables serve them all.
    """

    def __init__(self, structure: Structure) -> None:
        self.structure = structure
        self.elements: List[Element] = stable_sorted(structure.universe)
        self.number = {x: i for i, x in enumerate(self.elements)}
        self.full = (1 << len(self.elements)) - 1
        self.rows: Dict[str, List[Row]] = {}
        #: ``(relation, row, element mask)`` per positive-arity atom.  Nullary
        #: atoms never constrain an endomorphism (source and target are the
        #: same structure); they survive every induced substructure.
        self.atoms: List[Tuple[str, Row, int]] = []
        self.incident: List[List[int]] = [[] for _ in self.elements]
        number = self.number.__getitem__
        for symbol in structure.vocabulary:
            if symbol.arity == 0:
                continue
            rows = self.rows[symbol.name] = sorted(
                tuple(map(number, tup)) for tup in structure.relation(symbol.name)
            )
            for row in rows:
                mask = _mask(row)
                for x in _bits(mask):
                    self.incident[x].append(len(self.atoms))
                self.atoms.append((symbol.name, row, mask))
        self._tables: Dict[Tuple[str, Row], Table] = {}
        self._lists: Dict[Tuple[ListKey, ...], List[int]] = {}
        self._fold_lookups: Dict[int, List[Tuple[int, int]]] = {}
        self._arcs: Dict[int, List[Tuple[int, int, Union[int, List[int]]]]] = {}
        #: Search nodes entered (partial assignments whose next variable's
        #: candidates were read), summed over this program's searches.
        self.search_nodes = 0

    def table(self, name: str, free: Row) -> Table:
        """The (relation, free positions) table, built on first use."""
        table = self._tables.get((name, free))
        if table is None:
            table = self._tables[name, free] = self._build_table(name, free)
        return table

    def table_list(self, *keys: ListKey) -> List[int]:
        """Per element ``u``, the AND over ``keys`` of each (relation, free
        positions) table's entry for ``u`` at all ``width`` bound
        positions: a table lookup keyed by one element, as a list, built
        on first use."""
        values = self._lists.get(keys)
        if values is None:
            (name, free, width), *others = keys
            table = self.table(name, free)
            values = [table.get((u,) * width, 0) for u in range(len(self.elements))]
            for key in others:
                values = [a & b for a, b in zip(values, self.table_list(key))]
            self._lists[keys] = values
        return values

    def _build_table(self, name: str, free: Row) -> Table:
        table: Table = {}
        rows = self.rows[name]
        if len(free) == 1 and rows and len(rows[0]) == 2:  # a binary relation
            position = free[0]
            other = 1 - position
            for row in rows:
                key = (row[other],)
                table[key] = table.get(key, 0) | 1 << row[position]
            return table
        for row in rows:
            value = row[free[0]]
            if all(row[p] == value for p in free[1:]):
                key = tuple(x for p, x in enumerate(row) if p not in free)
                table[key] = table.get(key, 0) | 1 << value
        return table

    def live_atoms(self, alive: int) -> List[int]:
        """The atoms of the substructure induced by ``alive``."""
        return [k for k, (_, _, mask) in enumerate(self.atoms) if not mask & ~alive]

    def encode(self, values: Iterable[Element]) -> int:
        return _mask(self.number[x] for x in values if x in self.number)

    def decode(self, mask: int) -> FrozenSet[Element]:
        return frozenset(self.elements[x] for x in _bits(mask))

    def mapping(self, images: List[int]) -> Endomorphism:
        return {x: self.elements[y] for x, y in zip(self.elements, images)}

    def induce(self, alive: int) -> Structure:
        if alive == self.full:
            return self.structure
        return self.structure.induced_substructure(self.decode(alive))

    # -- phase 1: folds -------------------------------------------------------
    def fold_lookups(self, a: int) -> List[Tuple[int, int]]:
        """``(atom mask, fold targets)`` for each atom containing ``a``: the
        ``b`` for which the atom still holds with ``b`` at all of ``a``'s
        positions (identity elsewhere, so one lookup per program)."""
        lookups = self._fold_lookups.get(a)
        if lookups is None:
            lookups = self._fold_lookups[a] = []
            for k in self.incident[a]:
                name, row, mask = self.atoms[k]
                free, bound = _split(row, a)
                lookups.append((mask, self.table(name, free).get(bound, 0)))
        return lookups

    def fold_batch(self, alive: int) -> List[Tuple[int, int]]:
        """:func:`find_fold_batch` on the substructure induced by ``alive``."""
        if alive.bit_count() <= 1:
            return []
        present = {
            a: [lookup for lookup in self.fold_lookups(a) if not lookup[0] & ~alive]
            for a in _bits(alive)
        }
        batch: List[Tuple[int, int]] = []
        folded = targets = 0
        # Low-degree elements first (leaves fold earliest), then stable order.
        for a in sorted(present, key=lambda x: (len(present[x]), x)):
            if targets >> a & 1 or any(mask & folded for mask, _ in present[a]):
                continue
            candidates = alive & ~folded & ~(1 << a)  # an isolated a maps anywhere
            for _, values in present[a]:
                candidates &= values
            if candidates:
                b = (candidates & -candidates).bit_length() - 1
                batch.append((a, b))
                folded |= 1 << a
                targets |= 1 << b
        return batch

    def fold_reduce(self, alive: int, images: List[int]) -> Tuple[int, int]:
        """Fold ``alive`` to a fixpoint, one batch per pass; return ``(alive, folds)``.

        ``images`` (the retraction so far, by number) composes every batch.
        """
        count = 0
        while True:
            batch = dict(self.fold_batch(alive))
            if not batch:
                return alive, count
            count += len(batch)
            images[:] = [batch.get(y, y) for y in images]
            alive &= ~_mask(batch)

    # -- phase 2: rigidity certificates ---------------------------------------
    def undirected_neighbours(self, alive: int) -> Optional[Dict[int, int]]:
        """Each element's neighbour mask when the substructure induced by
        ``alive`` is an undirected loop-free graph, else None."""
        if not self.structure.is_graph_like():
            return None
        successors, predecessors = self.table("E", (1,)), self.table("E", (0,))
        neighbours: Dict[int, int] = {}
        for u in _bits(alive):
            adjacent = successors.get((u,), 0) & alive
            if adjacent >> u & 1:
                return None  # a loop retracts everything onto its vertex
            if adjacent != predecessors.get((u,), 0) & alive:
                return None  # directed: leave to AC propagation / search
            neighbours[u] = adjacent
        return neighbours

    @staticmethod
    def degree_certificate(alive: int, neighbours: Dict[int, int]) -> Optional[str]:
        """Degree proofs of core-ness for an undirected loop-free graph
        (``neighbours`` as :meth:`undirected_neighbours` returns them).

        Every endomorphism of ``K_n`` is injective (merging needs a loop).
        A connected odd 2-regular graph is an odd cycle: its proper retracts
        are unions of paths, hence bipartite, and it maps into no bipartite
        graph.
        """
        n = alive.bit_count()
        degrees = {adjacent.bit_count() for adjacent in neighbours.values()}
        if degrees == {n - 1}:
            return "clique"
        if n % 2 == 1 and degrees == {2}:
            reached, grown = 0, alive & -alive
            while grown != reached:
                reached = grown
                for u in _bits(reached):
                    grown |= neighbours[u]
            if reached == alive:
                return "odd-cycle"
        return None

    def domains(self, alive: int, seed: Optional[List[int]] = None) -> List[int]:
        """Arc-consistent domains of ``hom(A → A)`` for ``A`` induced by ``alive``.

        Generalised AC-3 over the present atoms, from full domains (or
        ``seed`` cut to ``alive``).  Its fixpoint is the largest
        arc-consistent sub-domain, whatever the revision order.

        Each queued atom carries its cause: the one variable whose domain
        shrank since the atom was last made consistent, or -1 ("all") for
        a first revision and once two of its variables shrank.  A revision
        leaves its atom consistent, and the cause's values keep the
        supports they had when only the cause changed, so :meth:`_revise`
        recomputes support for the other variables only.
        """
        domains = [0] * len(self.elements)
        for a in _bits(alive):
            domains[a] = alive if seed is None else seed[a] & alive
        live = self.live_atoms(alive)
        present, queue = set(live), deque(live)
        #: The queued atoms, each with its cause.
        causes = dict.fromkeys(live, -1)
        incident = self.incident
        while queue:
            k = queue.popleft()
            for variable in self._revise(k, causes.pop(k), domains):
                for other in incident[variable]:
                    if other == k or other not in present:
                        continue
                    cause = causes.get(other)
                    if cause is None:
                        queue.append(other)
                        causes[other] = variable
                    elif cause != variable:
                        causes[other] = -1
        return domains

    def _revise(self, k: int, cause: int, domains: List[int]) -> List[int]:
        """Cut each variable of atom ``k`` but ``cause`` (every variable when
        ``cause`` is -1) to its supported values; return those cut."""
        arcs = self._arcs.get(k)
        if arcs is None:
            arcs = self._arcs[k] = self._arcs_of(k)
        if not arcs:
            return self._revise_by_scan(k, cause, domains)
        shrunk: List[int] = []
        for x, y, supports in arcs:  # OR the supports over y's domain
            if x == cause:
                continue
            if y < 0:
                support = supports
            else:
                support, values = 0, domains[y]
                while values:
                    low = values & -values
                    support |= supports[low.bit_length() - 1]
                    values ^= low
            if domains[x] & ~support:
                domains[x] &= support
                shrunk.append(x)
        return shrunk

    def _arcs_of(self, k: int) -> List[Tuple[int, int, Union[int, List[int]]]]:
        """Per variable of atom ``k``: ``(variable, the other variable, its
        support by the other's value)``, or ``(variable, -1, its one
        support)``.  Empty for three or more variables: they scan the rows."""
        name, row, mask = self.atoms[k]
        if mask.bit_count() > 2:
            return []
        return [
            (x, bound[0], self.table_list((name, free, len(bound))))
            if bound
            else (x, -1, self.table(name, free).get((), 0))
            for x in _bits(mask)
            for free, bound in [_split(row, x)]
        ]

    def _revise_by_scan(self, k: int, cause: int, domains: List[int]) -> List[int]:
        """:meth:`_revise` for an atom of three or more variables: one scan
        of its relation's rows."""
        name, row, mask = self.atoms[k]
        supported = dict.fromkeys(_bits(mask & ~(1 << cause) if cause >= 0 else mask), 0)
        for tup in self.rows[name]:
            seen: Dict[int, int] = {}
            for x, value in zip(row, tup):
                if not domains[x] >> value & 1 or seen.setdefault(x, value) != value:
                    break
            else:
                for x in supported:
                    supported[x] |= 1 << seen[x]
        shrunk = [x for x, support in supported.items() if domains[x] & ~support]
        for x in shrunk:
            domains[x] &= supported[x]
        return shrunk

    def certify(
        self, alive: int, seed: Optional[List[int]] = None
    ) -> Tuple[Optional[str], List[int]]:
        """Return ``(certificate, [])`` or ``(None, AC domains)`` for the search.

        Without a ``seed``, an undirected loop-free graph in which every
        element has a neighbour needs no propagation: any value ``a`` at
        either end of an edge is supported by ``a`` and a neighbour of
        ``a``, so the full domains are already arc consistent.
        """
        if alive.bit_count() == 1:
            return "singleton", []
        neighbours = self.undirected_neighbours(alive)
        if neighbours is not None:
            certificate = self.degree_certificate(alive, neighbours)
            if certificate is not None:
                return certificate, []
            if seed is None and all(neighbours.values()):
                return None, [alive if alive >> a & 1 else 0 for a in range(len(self.elements))]
        domains = self.domains(alive, seed)
        if all(domains[a].bit_count() == 1 for a in _bits(alive)):
            return "ac-rigid", []
        return None, domains

    # -- phase 3: the single non-surjective-endomorphism search ---------------
    def search_order(self, alive: int, domains: List[int], live: List[int]) -> List[int]:
        """Connected order: next is a neighbour of the prefix (or any element
        when none is left) with the smallest domain, then the lowest number.
        ``live`` is :meth:`live_atoms` of ``alive``."""
        adjacency = [0] * len(self.elements)
        for k in live:
            mask = self.atoms[k][2]
            for x in _bits(mask):
                adjacency[x] |= mask & ~(1 << x)
        by_size: Dict[int, int] = {}
        for v in _bits(alive):
            size = domains[v].bit_count()
            by_size[size] = by_size.get(size, 0) | 1 << v
        sizes = [by_size[size] for size in sorted(by_size)]
        order: List[int] = []
        remaining, frontier = alive, 0
        while remaining:
            pool = frontier & remaining or remaining
            for members in sizes:
                hit = pool & members
                if hit:
                    pick = (hit & -hit).bit_length() - 1
                    break
            order.append(pick)
            remaining &= ~(1 << pick)
            frontier |= adjacency[pick]
        return order

    def search(self, alive: int, domains: List[int]) -> Optional[List[int]]:
        """Images (by number) of an endomorphism of ``alive`` missing an element.

        Forward checking over :meth:`search_order`: each atom is one lookup
        as soon as all its variables but the last are assigned, and the
        lookup cuts the last variable's candidates; a value that empties
        them is rejected on the spot.  (An atom with one variable cuts its
        candidates before the search starts.)  The cuts skip only subtrees
        without a solution, so the first solution is the one a check at
        the last variable's level would find.  Values already in the image
        come first, then the others, each ascending: a partial assignment
        can complete surjectively only while injective, so reuse commits
        the subtree to non-surjective witnesses.
        """
        live = self.live_atoms(alive)
        order = self.search_order(alive, domains, live)
        n = len(order)
        level_of = [0] * len(self.elements)
        for level, v in enumerate(order):
            level_of[v] = level
        # Each level's candidates, as they stand on entering the level;
        # level ``i + 1``'s array is level ``i``'s once its value's cuts ran.
        start = [domains[v] for v in order]
        # Per level: the later levels its value cuts, by one list lookup
        # (``pairs``: the table-list keys of the atoms on those two levels)
        # or by a table keyed by the bound values (``keyed``, three levels
        # or more).
        pairs: List[Dict[int, Tuple[ListKey, ...]]] = [{} for _ in order]
        keyed: List[List[Tuple[int, Table, Row]]] = [[] for _ in order]
        for k in live:
            name, row, _ = self.atoms[k]
            levels = sorted({level_of[x] for x in row})
            last = levels[-1]
            free, bound = _split(row, order[last])
            if len(levels) == 1:
                start[last] &= self.table(name, free).get((), 0)
                continue
            if len(levels) > 2:
                keyed[levels[-2]].append((last, self.table(name, free), bound))
                continue
            at, key = levels[0], (name, free, len(bound))
            known = pairs[at].get(last)
            pairs[at][last] = (key,) if known is None else known + (key,)
        table_list = self.table_list
        cuts_at = [
            tuple(
                (last, table_list(*(keys if len(keys) == 1 else sorted(set(keys)))))
                for last, keys in cuts.items()
            )
            for cuts in pairs
        ]
        arrays = [start] + [start[:] for _ in order]
        images = list(range(len(self.elements)))
        image_of = images.__getitem__
        uses = [0] * len(self.elements)
        used = nodes = 0

        def extend(level: int) -> bool:
            nonlocal used, nodes
            nodes += 1
            variable = order[level]
            here = arrays[level]
            candidates = here[level]
            if level == n - 1:
                # The last variable: a value in the image, or a new one
                # while the image still misses two elements.
                part = candidates & used
                if not part and used.bit_count() < n - 1:
                    part = candidates
                if not part:
                    return False
                images[variable] = (part & -part).bit_length() - 1
                return True
            below, cuts, lookups = arrays[level + 1], cuts_at[level], keyed[level]
            for part in (candidates & used, candidates & ~used):
                while part:
                    low = part & -part
                    part ^= low
                    value = low.bit_length() - 1
                    below[:] = here
                    for target, values in cuts:
                        cut = below[target] & values[value]
                        if not cut:
                            break
                        below[target] = cut
                    else:
                        images[variable] = value
                        for target, table, bound in lookups:
                            cut = below[target] & table.get(tuple(map(image_of, bound)), 0)
                            if not cut:
                                break
                            below[target] = cut
                        else:
                            uses[value] += 1
                            used |= low
                            if extend(level + 1):
                                return True
                            uses[value] -= 1
                            if not uses[value]:
                                used ^= low
            return False

        found = n > 0 and extend(0)
        self.search_nodes += nodes
        return images if found else None


def find_fold(structure: Structure) -> Optional[Tuple[Element, Element]]:
    """Return ``(a, b)`` such that ``a ↦ b`` (identity elsewhere) is an endomorphism.

    The first fold of :func:`find_fold_batch`'s scan (low degree first,
    then stable order; ``b`` stable-smallest), or None.
    """
    batch = find_fold_batch(structure)
    return batch[0] if batch else None


def find_fold_batch(structure: Structure) -> List[Tuple[Element, Element]]:
    """Return a non-interfering *set* of folds, applicable simultaneously.

    One scan in :func:`find_fold`'s order, greedily accepting every fold
    ``(a, b)`` whose witness cannot be invalidated by the folds already
    accepted this pass:

    * ``b`` is not itself folded away by the batch, and ``a`` is not the
      target of an earlier accepted fold (targets must survive);
    * no atom incident to ``a`` mentions another batched folded element —
      so each atom's image under the *combined* map is exactly the atom
      the single-fold check verified, which avoids every removed element.

    The combined map (``a_i ↦ b_i``, identity elsewhere) is therefore an
    endomorphism onto the induced substructure without the ``a_i``.
    """
    program = _Program(structure)
    elements = program.elements
    return [(elements[a], elements[b]) for a, b in program.fold_batch(program.full)]


def fold_reduce(structure: Structure) -> Tuple[Structure, Endomorphism, int]:
    """Apply folds to a fixpoint; return ``(folded, retraction, fold_count)``.

    One :func:`find_fold_batch` scan per pass; ``retraction`` (a
    composition of folds) maps the input onto the folded structure.
    """
    program = _Program(structure)
    images = list(range(len(program.elements)))
    alive, count = program.fold_reduce(program.full, images)
    return program.induce(alive), program.mapping(images), count


def endomorphism_domains(
    structure: Structure, seed: Optional[Mapping[Element, FrozenSet[Element]]] = None
) -> Dict[Element, FrozenSet[Element]]:
    """Arc-consistent domains of the endomorphism CSP ``hom(A → A)``.

    A value survives for a variable only while some tuple supports it
    together with currently possible values of the atom's other
    variables.  The identity is a solution, so ``a ∈ D(a)`` always, and
    an all-singleton fixpoint proves it is the only endomorphism.

    ``seed`` pre-restricts each domain to a caller-supplied superset of
    the element's possible images, as :func:`compute_core` carries them.
    """
    program = _Program(structure)
    seeds = None if seed is None else [program.encode(seed[x]) for x in program.elements]
    domains = program.domains(program.full, seeds)
    return {x: program.decode(domain) for x, domain in zip(program.elements, domains)}


def rigidity_certificate(structure: Structure) -> Optional[str]:
    """Return a tag naming a cheap proof that the structure is a core, or None.

    ``"singleton"``, ``"clique"`` and ``"odd-cycle"`` are degree
    certificates; ``"ac-rigid"`` means arc consistency collapsed every
    endomorphism domain to the identity.  None means only the search can
    tell.
    """
    program = _Program(structure)
    return program.certify(program.full)[0]


def find_non_surjective_endomorphism(
    structure: Structure, domains: Optional[Mapping[Element, FrozenSet[Element]]] = None
) -> Optional[Endomorphism]:
    """Return an endomorphism whose image misses ≥ 1 element, or None.

    One backtracking search over the AC-pruned domains (computed here
    when ``domains`` is None) replaces the seed's ``n`` independent
    ``hom(A, A − {a})`` searches.
    """
    if len(structure) <= 1:
        return None
    program = _Program(structure)
    if domains is None:
        masks = program.domains(program.full)
    else:
        masks = [program.encode(domains[x]) for x in program.elements]
    if all(mask.bit_count() == 1 for mask in masks):
        return None  # rigid: the identity is the only endomorphism
    images = program.search(program.full, masks)
    return None if images is None else program.mapping(images)


def proper_retraction(structure: Structure) -> Optional[Endomorphism]:
    """Return an endomorphism with a proper image, or None when none exists.

    The engine-backed replacement for the seed's per-element restart
    loop: try a fold, then a certificate, then the single search.
    """
    if len(structure) <= 1:
        return None
    program = _Program(structure)
    images: Optional[List[int]] = list(range(len(program.elements)))
    batch = program.fold_batch(program.full)
    if batch:
        a, b = batch[0]
        images[a] = b
    else:
        certificate, domains = program.certify(program.full)
        if certificate is not None:
            return None
        images = program.search(program.full, domains)
    return None if images is None else program.mapping(images)


def _idempotent_retraction(endomorphism: Dict[int, int]) -> Dict[int, int]:
    """Iterate an endomorphism to an idempotent power (a true retraction).

    The image chain ``img(e) ⊇ img(e²) ⊇ …`` stabilises at a set ``I``
    that ``eᵏ`` merely permutes; composing with that permutation's
    inverse (a power of ``e`` on ``I``) yields ``r`` with ``r∘r = r``,
    identity on its image — which the domain carrying of
    :func:`compute_core` needs and a raw search witness does not give.
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


def compute_core(structure: Structure) -> CoreComputation:
    """Compute the core with folds, certificates and the single search.

    The input is compiled once.  Each round folds to a fixpoint, then
    tries to certify the remainder rigid, then runs one search; a found
    retraction shrinks the ``alive`` mask and the loop repeats.  ``core``
    is an induced substructure of the input, unique up to isomorphism,
    and ``retraction`` witnesses ``structure → core``.

    The AC domains of round ``k`` seed round ``k+1``: the search witness
    is first iterated to an idempotent retraction ``r`` (identity on its
    image ``I``), so any endomorphism ``f`` of the shrunken structure
    lifts to ``f∘r`` on the previous one — hence ``f(a) ∈ D(a) ∩ I`` and
    the carried domains ``{a: D(a) ∩ I}`` soundly over-approximate every
    next-round endomorphism.  Folds between rounds are identity on
    survivors, so the carried domains stay valid verbatim (values of
    folded elements are cut when seeding).
    """
    program = _Program(structure)
    alive = program.full
    images = list(range(len(program.elements)))
    folds = searches = 0
    carried: Optional[List[int]] = None
    while True:
        alive, count = program.fold_reduce(alive, images)
        folds += count
        certificate, domains = program.certify(alive, carried)
        if certificate is not None:
            break
        searches += 1
        found = program.search(alive, domains)
        if found is None:
            break
        idempotent = _idempotent_retraction({x: found[x] for x in _bits(alive)})
        alive = _mask(idempotent.values())
        carried = [mask & alive for mask in domains]
        images = [idempotent[y] for y in images]
    return CoreComputation(
        structure, program.induce(alive), program.mapping(images), certificate, folds, searches
    )
