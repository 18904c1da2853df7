"""Relational structures: the paper's basic objects.

This package provides vocabularies, finite relational structures, the named
structure families of Section 2.1 (paths, cycles, binary-tree structures,
grids, cliques, ...), structural operations (star expansion ``A*``, direct
products, disjoint unions), Gaifman graphs, isomorphism testing, canonical
encodings, seeded random generators, and the per-relation hash-index layer
(:mod:`repro.structures.indexes`) backing the solvers.
"""

from repro.structures.builders import (
    B_VOCABULARY,
    b_structure,
    binary_strings,
    bounded_depth_tree_graph,
    caterpillar_graph,
    circulant,
    circulant_graph,
    clique,
    clique_graph,
    complete_binary_tree,
    complete_binary_tree_graph,
    cycle,
    cycle_graph,
    digraph_structure,
    directed_b_structure,
    directed_cycle,
    directed_path,
    disjoint_union_graph,
    graph_structure,
    grid,
    grid_graph,
    path,
    path_graph,
    star,
    star_graph,
    structure_digraph,
    structure_graph,
    tree_structure_from_parent,
)
from repro.structures.encoding import (
    canonical_element_order,
    decode_structure,
    encode_bits,
    encode_instance,
    encode_structure,
    encoded_length,
)
from repro.structures.gaifman import gaifman_graph, is_connected_structure
from repro.structures.indexes import (
    RelationIndex,
    StructureIndex,
    stable_key,
    stable_sorted,
    structure_index,
)
from repro.structures.isomorphism import are_isomorphic, find_isomorphism
from repro.structures.operations import (
    color_symbol,
    direct_product,
    disjoint_union,
    is_star_expansion,
    star_expansion,
    strip_star_expansion,
    symmetric_closure,
)
from repro.structures.random_gen import (
    planted_homomorphism_target,
    random_colored_target,
    random_graph,
    random_graph_structure,
    random_structure,
    random_tree_graph,
)
from repro.structures.structure import Structure
from repro.structures.vocabulary import GRAPH_VOCABULARY, RelationSymbol, Vocabulary

__all__ = [
    "Structure",
    "Vocabulary",
    "RelationSymbol",
    "GRAPH_VOCABULARY",
    "B_VOCABULARY",
    # builders
    "graph_structure",
    "digraph_structure",
    "structure_graph",
    "structure_digraph",
    "directed_path",
    "path",
    "path_graph",
    "directed_cycle",
    "cycle",
    "cycle_graph",
    "binary_strings",
    "directed_b_structure",
    "b_structure",
    "complete_binary_tree",
    "complete_binary_tree_graph",
    "grid",
    "grid_graph",
    "clique",
    "clique_graph",
    "star",
    "star_graph",
    "caterpillar_graph",
    "circulant",
    "circulant_graph",
    "bounded_depth_tree_graph",
    "tree_structure_from_parent",
    "disjoint_union_graph",
    # operations
    "star_expansion",
    "is_star_expansion",
    "strip_star_expansion",
    "color_symbol",
    "direct_product",
    "disjoint_union",
    "symmetric_closure",
    # gaifman
    "gaifman_graph",
    "is_connected_structure",
    # indexes
    "RelationIndex",
    "StructureIndex",
    "structure_index",
    "stable_key",
    "stable_sorted",
    # isomorphism
    "are_isomorphic",
    "find_isomorphism",
    # encoding
    "encode_structure",
    "decode_structure",
    "encode_bits",
    "encode_instance",
    "encoded_length",
    "canonical_element_order",
    # random
    "random_graph",
    "random_graph_structure",
    "random_tree_graph",
    "random_structure",
    "random_colored_target",
    "planted_homomorphism_target",
]
