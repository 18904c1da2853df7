"""Homomorphism testing by dynamic programming over tree decompositions.

This is the classical FPT algorithm behind Lemma 3.4: given a width-``w``
tree decomposition of the left-hand structure ``A``, the set of partial
homomorphisms on each bag is computed bottom-up; two adjacent bags must
agree on their intersection.  Existence, and with a little more care the
exact number of homomorphisms (used by Section 6), follow.

For path decompositions the same sweep specialises to a left-to-right scan
whose live state is a single bag's worth of partial homomorphisms — this is
exactly the guess-and-check structure that Theorem 4.6 turns into a PATH
machine.

A test oracle: the library answers every bounded decision and count with
the forest engine (:mod:`repro.homomorphism.treedepth_solver`).  The
``*_td``/``*_pd`` functions route through the semiring join engine of
:mod:`oracles.join_engine`, which produces bag tables with indexed
candidate lookups instead of the full ``|B|^|bag|`` product.  The
original product-based implementations are kept as the ``legacy_*``
functions: they are the reference the cross-solver equivalence harness
checks the engine against, and the baseline the benchmarks measure the
speedup from.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

from oracles.join_engine import (
    BOOLEAN,
    COUNTING,
    run_decomposition_dp,
    run_path_sweep,
)
from repro.decomposition.path_decomposition import PathDecomposition
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.exceptions import DecompositionError
from repro.homomorphism.backtracking import is_partial_homomorphism
from repro.structures.gaifman import gaifman_graph
from repro.structures.indexes import stable_key
from repro.structures.structure import Structure

Element = Hashable
PartialMap = Tuple[Tuple[Element, Element], ...]  # canonical (sorted) item tuple


def _canonical(mapping: Dict[Element, Element]) -> PartialMap:
    # Sorting by repr alone is unstable for repr-colliding or mixed-type
    # elements; stable_key disambiguates by type name first.
    return tuple(sorted(mapping.items(), key=lambda item: stable_key(item[0])))


def _bag_homomorphisms(
    source: Structure, target: Structure, bag: FrozenSet[Element]
) -> List[Dict[Element, Element]]:
    """Enumerate all partial homomorphisms from ``source`` to ``target`` with domain ``bag``.

    This is the legacy product-based enumeration — ``|B|^|bag|`` candidates
    each checked from scratch.  The join engine replaces it on the hot
    paths; it survives as the reference implementation.
    """
    bag_elements = sorted(bag, key=stable_key)
    if not bag_elements:
        return [{}]
    result = []
    for values in product(sorted(target.universe, key=stable_key), repeat=len(bag_elements)):
        mapping = dict(zip(bag_elements, values))
        if is_partial_homomorphism(mapping, source, target):
            result.append(mapping)
    return result


# ---------------------------------------------------------------------------
# Engine-backed public API
# ---------------------------------------------------------------------------

def homomorphism_exists_td(
    source: Structure,
    target: Structure,
    decomposition: TreeDecomposition,
) -> bool:
    """Decide ``hom(source → target)`` via DP over the given tree decomposition.

    The decomposition must decompose the Gaifman graph of ``source``.
    Runs on the semiring join engine (Boolean semiring).
    """
    return bool(run_decomposition_dp(source, target, decomposition, BOOLEAN))


def count_homomorphisms_td(
    source: Structure,
    target: Structure,
    decomposition: TreeDecomposition,
) -> int:
    """Count homomorphisms ``source → target`` via DP over a tree decomposition.

    Standard junction-tree counting (root the decomposition, combine
    multiplicatively over children, join on shared variables), executed by
    the semiring join engine under the counting semiring.
    """
    return run_decomposition_dp(source, target, decomposition, COUNTING)


def homomorphism_exists_pd(
    source: Structure,
    target: Structure,
    decomposition: PathDecomposition,
) -> bool:
    """Decide ``hom(source → target)`` by a left-to-right sweep over a path decomposition.

    The live state after processing bag ``i`` is the set of partial
    homomorphisms with domain ``X_i`` that extend to all vertices seen so
    far — the same invariant the PATH machine of Theorem 4.6 maintains with
    nondeterministic jumps.  Runs on the join engine's rolling sweep.
    """
    return bool(run_path_sweep(source, target, decomposition, BOOLEAN))


def count_homomorphisms_pd(
    source: Structure,
    target: Structure,
    decomposition: PathDecomposition,
) -> int:
    """Count homomorphisms via a path decomposition (rolling one-bag sweep)."""
    return run_path_sweep(source, target, decomposition, COUNTING)


# ---------------------------------------------------------------------------
# Legacy product-based implementations (reference + benchmark baseline)
# ---------------------------------------------------------------------------

def legacy_homomorphism_exists_td(
    source: Structure,
    target: Structure,
    decomposition: TreeDecomposition,
) -> bool:
    """Seed-era existence check: the product-based DP, kept as a reference."""
    return legacy_count_homomorphisms_td(source, target, decomposition) > 0


def legacy_count_homomorphisms_td(
    source: Structure,
    target: Structure,
    decomposition: TreeDecomposition,
) -> int:
    """Seed-era counting DP enumerating every ``|B|^|bag|`` bag candidate.

    Kept verbatim (modulo the stable sort fix) so the equivalence harness
    can cross-check the join engine and the benchmarks can quantify the
    speedup.
    """
    decomposition.validate_for_structure(source)
    tree = decomposition.tree
    root = min(tree.vertices, key=repr)

    # orientation: parent map via BFS
    parent: Dict[Hashable, Optional[Hashable]] = {root: None}
    order: List[Hashable] = [root]
    index = 0
    while index < len(order):
        node = order[index]
        index += 1
        for neighbour in sorted(tree.neighbors(node), key=repr):
            if neighbour not in parent:
                parent[neighbour] = node
                order.append(neighbour)
    children: Dict[Hashable, List[Hashable]] = {node: [] for node in order}
    for node, par in parent.items():
        if par is not None:
            children[par].append(node)

    # tables[node]: canonical bag-assignment -> number of extensions to the
    # union of bags in the subtree rooted at node.
    tables: Dict[Hashable, Dict[PartialMap, int]] = {}
    # subtree_vertices[node]: union of bags below (and including) node.
    subtree_vertices: Dict[Hashable, FrozenSet[Element]] = {}

    for node in reversed(order):
        bag = decomposition.bag(node)
        below: set = set(bag)
        for child in children[node]:
            below |= subtree_vertices[child]
        subtree_vertices[node] = frozenset(below)
        table: Dict[PartialMap, int] = {}
        for mapping in _bag_homomorphisms(source, target, bag):
            total = 1
            for child in children[node]:
                child_bag = decomposition.bag(child)
                shared = bag & child_bag
                child_total = 0
                for child_key, child_count in tables[child].items():
                    child_map = dict(child_key)
                    if all(child_map.get(x) == mapping.get(x) for x in shared):
                        child_total += child_count
                total *= child_total
                if total == 0:
                    break
            if total:
                table[_canonical(mapping)] = total
        tables[node] = table

    if subtree_vertices[root] != frozenset(source.universe):
        raise DecompositionError("decomposition does not cover the source structure")
    return sum(tables[root].values())


def legacy_homomorphism_exists_pd(
    source: Structure,
    target: Structure,
    decomposition: PathDecomposition,
) -> bool:
    """Seed-era path sweep over product-enumerated bag candidates."""
    decomposition.validate(gaifman_graph(source))
    bags = decomposition.bags
    current: List[Dict[Element, Element]] = []
    for index, bag in enumerate(bags):
        candidates = _bag_homomorphisms(source, target, bag)
        if index == 0:
            current = candidates
        else:
            previous_bag = bags[index - 1]
            shared = previous_bag & bag
            survivors = []
            for mapping in candidates:
                for previous in current:
                    if all(previous.get(x) == mapping.get(x) for x in shared):
                        survivors.append(mapping)
                        break
            current = survivors
        if not current:
            return False
    return True
