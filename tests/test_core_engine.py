"""Tests for the rigidity-certified core engine.

The engine must (a) compute cores isomorphic to the seed algorithm's,
(b) certify the canonical rigid families without searching, (c) collapse
foldable families without searching, and (d) produce retraction
witnesses that really are homomorphisms onto the core.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from oracles.seeds import legacy_core, legacy_find_proper_retraction, legacy_is_core
from repro.homomorphism import (
    CoreComputation,
    compute_core,
    core,
    core_with_witness,
    endomorphism_domains,
    find_fold,
    find_non_surjective_endomorphism,
    find_proper_retraction,
    fold_reduce,
    is_core,
    is_homomorphism,
    rigidity_certificate,
)
from repro.structures import (
    Structure,
    Vocabulary,
    are_isomorphic,
    clique,
    cycle,
    grid,
    path,
    star,
    star_expansion,
)
from repro.structures.builders import directed_cycle, directed_path
from repro.structures.random_gen import random_graph_structure, random_structure


class TestFolds:
    def test_path_endpoint_folds(self):
        fold = find_fold(path(5))
        assert fold is not None
        a, b = fold
        mapping = {x: (b if x == a else x) for x in path(5).universe}
        assert is_homomorphism(mapping, path(5), path(5))

    def test_fold_reduce_collapses_tree_to_edge(self):
        folded, retraction, count = fold_reduce(path(7))
        assert len(folded) == 2
        assert count == 5
        assert set(retraction) == set(path(7).universe)
        assert set(retraction.values()) == set(folded.universe)
        assert is_homomorphism(retraction, path(7), path(7))

    def test_grid_folds_to_edge_without_search(self):
        computation = compute_core(grid(3, 4))
        assert len(computation.core) == 2
        assert computation.searches == 0
        assert computation.folds == 10

    def test_odd_cycle_has_no_fold(self):
        assert find_fold(cycle(5)) is None

    def test_directed_path_has_no_fold(self):
        assert find_fold(directed_path(6)) is None

    def test_isolated_element_folds_away(self):
        structure = Structure(
            Vocabulary({"E": 2}), [1, 2, 3], {"E": [(1, 2), (2, 1)]}
        )
        fold = find_fold(structure)
        assert fold is not None and fold[0] == 3


class TestRigidityCertificates:
    @pytest.mark.parametrize(
        "structure, expected",
        [
            (clique(4), "clique"),
            (clique(2), "clique"),
            (cycle(13), "odd-cycle"),
            (cycle(7), "odd-cycle"),
            (directed_path(30), "ac-rigid"),
            (star_expansion(path(4)), "ac-rigid"),
        ],
    )
    def test_certified_families(self, structure, expected):
        assert rigidity_certificate(structure) == expected

    def test_certified_structures_really_are_cores(self):
        for structure in (clique(4), cycle(9), directed_path(12)):
            assert rigidity_certificate(structure) is not None
            assert legacy_is_core(structure)

    @pytest.mark.parametrize(
        "structure",
        [cycle(6), path(5), grid(2, 3), directed_cycle(6)],
    )
    def test_no_certificate_for_non_cores_and_directed_cycles(self, structure):
        # Soundness: nothing that is not (provably) a core gets a tag.
        # Directed cycles ARE cores but fall outside every certificate —
        # the single search must prove them.
        assert rigidity_certificate(structure) is None

    def test_ac_domains_contain_identity(self):
        structure = cycle(6)
        domains = endomorphism_domains(structure)
        assert all(a in domains[a] for a in structure.universe)


class TestNonSurjectiveSearch:
    def test_even_cycle_yields_proper_endomorphism(self):
        structure = cycle(6)
        endomorphism = find_non_surjective_endomorphism(structure)
        assert endomorphism is not None
        assert set(endomorphism.values()) < set(structure.universe)
        assert is_homomorphism(endomorphism, structure, structure)

    @pytest.mark.parametrize("structure", [cycle(5), clique(4), directed_cycle(7)])
    def test_rigid_structures_yield_none(self, structure):
        assert find_non_surjective_endomorphism(structure) is None

    def test_agrees_with_legacy_retraction_existence(self):
        for seed in range(8):
            structure = random_graph_structure(6, 0.35, seed=seed)
            engine = find_non_surjective_endomorphism(structure)
            legacy = legacy_find_proper_retraction(structure)
            assert (engine is None) == (legacy is None), f"seed={seed}"
            if engine is not None:
                assert is_homomorphism(engine, structure, structure)


class TestComputeCore:
    @pytest.mark.parametrize(
        "structure",
        [
            path(6),
            cycle(6),
            cycle(9),
            grid(2, 4),
            clique(4),
            directed_path(9),
            directed_cycle(6),
            star(4),
        ],
    )
    def test_matches_legacy_core_up_to_isomorphism(self, structure):
        assert are_isomorphic(core(structure), legacy_core(structure))

    def test_retraction_witness_is_homomorphism_onto_core(self):
        for structure in (cycle(6), grid(2, 3), path(7)):
            computation = compute_core(structure)
            assert isinstance(computation, CoreComputation)
            assert set(computation.retraction) == set(structure.universe)
            assert set(computation.retraction.values()) == set(
                computation.core.universe
            )
            assert is_homomorphism(computation.retraction, structure, structure)

    def test_core_is_induced_substructure(self):
        structure = cycle(6)
        computation = compute_core(structure)
        assert computation.core.universe <= structure.universe
        assert computation.core == structure.induced_substructure(
            computation.core.universe
        )

    def test_nullary_relations_reach_the_core(self):
        vocabulary = Vocabulary({"E": 2, "Z": 0})
        structure = Structure(
            vocabulary, [1, 2, 3], {"E": [(1, 2), (2, 1), (2, 3), (3, 2)], "Z": [()]}
        )
        computation = compute_core(structure)
        assert computation.core.relation("Z") == frozenset({()})
        assert len(computation.core) == 2

    def test_certificate_reported_when_no_search_ran(self):
        computation = compute_core(directed_path(15))
        assert computation.certificate == "ac-rigid"
        assert not computation.searched
        computation = compute_core(directed_cycle(5))
        assert computation.certificate is None
        assert computation.searched

    def test_single_element_structure(self):
        structure = Structure(Vocabulary({"E": 2}), [1], {"E": [(1, 1)]})
        computation = compute_core(structure)
        assert computation.core == structure
        assert computation.certificate == "singleton"

    def test_loop_collapses_everything(self):
        structure = Structure(
            Vocabulary({"E": 2}), [1, 2, 3], {"E": [(1, 1), (1, 2), (2, 3)]}
        )
        assert len(core(structure)) == 1


class TestEngineBackedPublicApi:
    def test_find_proper_retraction_none_on_cores(self):
        for structure in (cycle(5), clique(4), directed_path(8)):
            assert find_proper_retraction(structure) is None

    def test_find_proper_retraction_valid_on_non_cores(self):
        for structure in (path(5), cycle(6), grid(2, 3)):
            retraction = find_proper_retraction(structure)
            assert retraction is not None
            assert set(retraction.values()) < set(structure.universe)
            assert is_homomorphism(retraction, structure, structure)

    def test_is_core_agrees_with_legacy_on_random_structures(self):
        vocabulary = Vocabulary({"E": 2, "U": 1})
        for seed in range(10):
            structure = random_structure(vocabulary, 5, 6, seed=seed)
            assert is_core(structure) == legacy_is_core(structure), f"seed={seed}"

    def test_core_with_witness_composition(self):
        structure = grid(2, 3)
        core_structure, witness = core_with_witness(structure)
        assert set(witness) == set(structure.universe)
        assert set(witness.values()) == set(core_structure.universe)
        assert is_homomorphism(witness, structure, core_structure)

    def test_classifier_records_certificate(self):
        from repro.classification import classify_structure

        profile = classify_structure(cycle(7))
        assert profile.core_certificate == "odd-cycle"
        profile = classify_structure(cycle(6))
        assert profile.core_certificate == "clique"  # the folded 2-element core


class TestFoldBatching:
    """fold_reduce applies independent fold *sets* per pass, cutting the
    fold scans from one per fold to one per pass."""

    def test_batch_folds_compose_to_an_endomorphism(self):
        from repro.homomorphism import find_fold_batch

        for structure in (path(9), grid(3, 4), star(5)):
            batch = find_fold_batch(structure)
            assert batch, structure
            mapping = dict(batch)
            combined = {
                x: mapping.get(x, x) for x in structure.universe
            }
            assert is_homomorphism(combined, structure, structure)
            # Targets survive the batch: nothing maps to a removed element.
            assert not (set(combined.values()) & set(mapping))

    def test_first_batched_fold_matches_find_fold(self):
        from repro.homomorphism import find_fold_batch

        for structure in (path(7), grid(2, 4)):
            assert find_fold_batch(structure)[0] == find_fold(structure)

    def test_batch_empty_exactly_when_no_fold_exists(self):
        from repro.homomorphism import find_fold_batch

        for structure in (cycle(5), directed_path(6), clique(4)):
            assert find_fold_batch(structure) == []

    def test_fold_reduce_unchanged_semantics_on_random_graphs(self):
        for seed in range(12):
            structure = random_graph_structure(7, 0.3, seed=seed)
            folded, retraction, count = fold_reduce(structure)
            assert count == len(structure) - len(folded)
            assert set(retraction) == set(structure.universe)
            assert set(retraction.values()) == set(folded.universe)
            assert is_homomorphism(retraction, structure, structure)
            assert find_fold(folded) is None  # really a fold fixpoint

    def test_fold_work_is_per_pass_not_per_fold(self, monkeypatch):
        import repro.homomorphism.core_engine as engine

        compiled, scans, tables = [], [], []

        class CountingProgram(engine._Program):
            def __init__(self, structure):
                compiled.append(len(structure))
                super().__init__(structure)

            def fold_batch(self, alive):
                scans.append(alive.bit_count())
                return super().fold_batch(alive)

            def _build_table(self, name, free):
                tables.append((name, free))
                return super()._build_table(name, free)

        monkeypatch.setattr(engine, "_Program", CountingProgram)
        computation = engine.compute_core(path(13))  # 13 elements fold to 2
        assert computation.folds == 11 and len(computation.core) == 2
        # The input is compiled once, not once per fold or per pass.
        assert compiled == [13]
        # A per-fold loop scans once per fold (12 scans); batching scans
        # once per pass, plus the scan that finds no fold.
        assert scans == [13, 11, 9, 7, 5, 3, 2]
        # Every pass reads the same lazily built tables.
        assert tables and len(tables) == len(set(tables)), tables


class TestHashSeedDeterminism:
    """The AC / core pipeline must not leak hash order into its output.

    Regression for the unsorted-set-iteration sites in
    ``endomorphism_domains`` and the join engine: the fixpoint result was
    masked by uniqueness, but the traversal order (and any future
    tie-break decision layered on it) varied with ``PYTHONHASHSEED``.
    Run the same projection under two seeds and demand byte equality.
    """

    _SCRIPT = textwrap.dedent(
        """
        import json, sys
        from repro.homomorphism import compute_core, endomorphism_domains
        from repro.structures import Structure, Vocabulary

        vocabulary = Vocabulary({"e": 2, "t": 3})
        structure = Structure(
            vocabulary,
            universe=["a", "b", "c", "d", "e5"],
            relations={
                "e": [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e5")],
                "t": [("a", "b", "c"), ("b", "c", "d")],
            },
        )
        domains = endomorphism_domains(structure)
        projection = {
            repr(elem): sorted(repr(x) for x in dom)
            for elem, dom in domains.items()
        }
        result = compute_core(structure)

        from test_core_engine_oracle import hash_seed_sample

        def described(structure):
            return {
                "universe": sorted(repr(x) for x in structure.universe),
                "relations": {
                    symbol.name: sorted(repr(t) for t in structure.relation(symbol.name))
                    for symbol in structure.vocabulary
                },
            }

        computations = [
            {
                "core": described(computation.core),
                "retraction": sorted(
                    (repr(x), repr(y)) for x, y in computation.retraction.items()
                ),
                "certificate": computation.certificate,
                "folds": computation.folds,
                "searches": computation.searches,
            }
            for computation in map(compute_core, hash_seed_sample())
        ]
        payload = {
            "domains": sorted(projection.items()),
            "core_size": len(result.core),
            "core_universe": sorted(repr(x) for x in result.core.universe),
            "computations": computations,
        }
        sys.stdout.write(json.dumps(payload, sort_keys=True))
        """
    )

    def test_projection_identical_across_hash_seeds(self, tmp_path):
        script = tmp_path / "probe.py"
        script.write_text(self._SCRIPT)
        outputs = []
        for seed in ("0", "4242"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            tests = Path(__file__).resolve().parent
            env["PYTHONPATH"] = os.pathsep.join([str(tests.parent / "src"), str(tests)])
            proc = subprocess.run(
                [sys.executable, str(script)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert len(json.loads(outputs[0])["computations"]) >= 20
