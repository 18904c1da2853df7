"""Path setup and shared helpers for the benchmark harness.

Every benchmark module regenerates one experiment from DESIGN.md's
experiment index (E1–E13).  The paper is a theory paper without tables or
figures, so each "experiment" validates a theorem's claim empirically: the
benchmark fixture measures the running time of the relevant algorithms and
the assertions check the qualitative shape (answers agree, the predicted
degree wins, resource bounds hold).
"""

from __future__ import annotations

import os
import random
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
# ``tests`` holds the oracles (``tests/oracles/``) some benchmarks compare
# the library against; this directory holds ``hostinfo``, which the script
# benchmarks import as they do when run directly.
for _path in (os.path.join(_ROOT, "tests"), os.path.join(_ROOT, "src"), _HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.structures import Structure  # noqa: E402


def colored_target_for(pattern_star: Structure, size: int, edge_probability: float, seed: int) -> Structure:
    """Random target over a starred pattern's vocabulary (same helper as the tests)."""
    rng = random.Random(seed)
    universe = list(range(size))
    edges = {
        (i, j)
        for i in universe
        for j in universe
        if i != j and rng.random() < edge_probability
    }
    edges |= {(j, i) for (i, j) in edges}
    relations = {"E": edges}
    for name in pattern_star.vocabulary.names():
        if name != "E":
            relations[name] = {(rng.choice(universe),) for _ in range(max(1, size // 3))}
    return Structure(pattern_star.vocabulary, universe, relations)
