"""The static-analysis self-test corpus.

Every rule gets a paired fixture: a *bad* snippet it must fire on and a
*good* snippet (the sanctioned spelling of the same intent) it must stay
quiet on.  On top of the per-rule corpus: suppression comments, the
baseline workflow, CLI exit codes, and the self-scan — ``src/`` must be
clean, because CI gates on exactly that.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import Baseline, Finding, analyze_paths
from repro.analysis.cli import main as cli_main
from repro.analysis.registry import rule_catalogue
from repro.exceptions import AnalysisError

REPO_ROOT = Path(__file__).resolve().parent.parent
REPO_SRC = REPO_ROOT / "src"

ALL_RULES = (
    "API001", "API002", "API004",
    "DET001", "DET002", "DET003", "DET004",
    "FRK001", "FRK002", "FRK003",
    "LCK001",
    "PRX001", "PRX002",
)


def scan_snippet(tmp_path, rel_path, code, rules=None):
    """Write one fixture module and scan it; return fired rule ids."""
    target = tmp_path / rel_path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(code))
    report = analyze_paths([str(tmp_path)], rules=rules)
    assert report.parse_errors == [], report.parse_errors
    return [finding.rule for finding in report.findings], report


# ---------------------------------------------------------------------------
# the rule catalogue itself
# ---------------------------------------------------------------------------

class TestCatalogue:
    def test_all_rules_registered(self):
        assert tuple(row["rule"] for row in rule_catalogue()) == ALL_RULES

    def test_unknown_rule_rejected(self):
        with pytest.raises(AnalysisError):
            analyze_paths([str(REPO_SRC / "repro" / "exceptions.py")], rules=["NOPE"])


# ---------------------------------------------------------------------------
# determinism rules
# ---------------------------------------------------------------------------

class TestDET001:
    def test_fires_on_global_rng_and_unseeded_random(self, tmp_path):
        fired, _ = scan_snippet(
            tmp_path, "mod.py",
            """
            import random

            def pick(xs):
                r = random.Random()
                return random.choice(xs), r.random()
            """,
        )
        assert fired == ["DET001", "DET001"]

    def test_quiet_on_seeded_instance(self, tmp_path):
        fired, _ = scan_snippet(
            tmp_path, "mod.py",
            """
            import random

            def pick(xs, seed):
                rng = random.Random(seed)
                return rng.choice(xs)
            """,
        )
        assert fired == []


class TestDET002:
    def test_fires_on_set_iteration_into_ordered_output(self, tmp_path):
        fired, _ = scan_snippet(
            tmp_path, "structures/mod.py",
            """
            def encode(xs, ys):
                first = list(set(xs))
                second = [x for x in set(ys)]
                out = []
                for x in set(xs) | set():
                    pass
                for x in frozenset(ys):
                    out.append(x)
                return first, second, out
            """,
        )
        assert fired == ["DET002", "DET002", "DET002"]

    def test_quiet_when_sorted_or_outside_scope(self, tmp_path):
        fired, _ = scan_snippet(
            tmp_path, "structures/mod.py",
            """
            def encode(xs, ys):
                first = sorted(set(xs), key=repr)
                total = sum(set(ys))
                return first, total
            """,
        )
        assert fired == []
        fired, _ = scan_snippet(
            tmp_path, "service/mod.py",
            """
            def encode(xs):
                return list(set(xs))
            """,
        )
        assert fired == []


class TestDET003:
    def test_fires_on_id_sort_key(self, tmp_path):
        fired, _ = scan_snippet(
            tmp_path, "mod.py",
            """
            def order(xs):
                xs.sort(key=id)
                return sorted(xs, key=lambda v: (id(v), v))
            """,
        )
        assert fired == ["DET003", "DET003"]

    def test_quiet_on_structural_key(self, tmp_path):
        fired, _ = scan_snippet(
            tmp_path, "mod.py",
            """
            def order(xs):
                return sorted(xs, key=repr)
            """,
        )
        assert fired == []


class TestDET004:
    def test_fires_on_wall_clock_in_solver_dir(self, tmp_path):
        fired, _ = scan_snippet(
            tmp_path, "decomposition/mod.py",
            """
            import time

            def solve(g):
                return time.time()
            """,
        )
        assert fired == ["DET004"]

    def test_quiet_on_monotonic_and_outside_solver_dirs(self, tmp_path):
        fired, _ = scan_snippet(
            tmp_path, "decomposition/mod.py",
            """
            import time

            def solve(g):
                return time.monotonic() + time.perf_counter()
            """,
        )
        assert fired == []
        fired, _ = scan_snippet(
            tmp_path, "service/mod.py",
            """
            import time

            def stamp():
                return time.time()
            """,
        )
        assert fired == []


# ---------------------------------------------------------------------------
# fork/spawn-safety rules
# ---------------------------------------------------------------------------

class TestFRK001:
    def test_fires_on_lambda_bound_method_and_closure(self, tmp_path):
        fired, _ = scan_snippet(
            tmp_path, "mod.py",
            """
            class Service:
                def go(self, pool, chunk):
                    pool.submit(lambda: chunk)
                    pool.submit(self.work, chunk)

                def run(self, pool):
                    def inner():
                        return 1
                    return pool.submit(inner)
            """,
        )
        assert fired == ["FRK001", "FRK001", "FRK001"]

    def test_quiet_on_module_level_function(self, tmp_path):
        fired, _ = scan_snippet(
            tmp_path, "mod.py",
            """
            def _work(chunk):
                return chunk

            def run(pool, chunks):
                return [pool.submit(_work, c) for c in chunks]
            """,
        )
        assert fired == []


class TestFRK002:
    def test_fires_when_no_initializer_populates_the_global(self, tmp_path):
        fired, _ = scan_snippet(
            tmp_path, "mod.py",
            """
            _CONTEXT = None

            def _work(chunk):
                return _CONTEXT.solve(chunk)

            def run(pool, chunks):
                return [pool.submit(_work, c) for c in chunks]
            """,
        )
        assert fired == ["FRK002"]

    def test_quiet_with_initialize_worker_rebinding(self, tmp_path):
        fired, _ = scan_snippet(
            tmp_path, "mod.py",
            """
            _CONTEXT = None

            def _initialize_worker(context):
                global _CONTEXT
                _CONTEXT = context

            def _work(chunk):
                return _CONTEXT.solve(chunk)

            def run(pool, chunks):
                return [pool.submit(_work, c) for c in chunks]
            """,
        )
        assert fired == []


class TestFRK003:
    def test_fires_on_pid_captured_in_init(self, tmp_path):
        fired, _ = scan_snippet(
            tmp_path, "mod.py",
            """
            import os

            class Claimer:
                def __init__(self):
                    self._token = os.getpid()
            """,
        )
        assert fired == ["FRK003"]

    def test_quiet_on_per_call_pid(self, tmp_path):
        fired, _ = scan_snippet(
            tmp_path, "mod.py",
            """
            import os

            class Claimer:
                def token(self):
                    return os.getpid()
            """,
        )
        assert fired == []


# ---------------------------------------------------------------------------
# manager-proxy race rules
# ---------------------------------------------------------------------------

class TestPRX001:
    def test_fires_on_unlocked_rmw_and_check_then_mutate(self, tmp_path):
        fired, _ = scan_snippet(
            tmp_path, "mod.py",
            """
            class Store:
                def __init__(self, manager):
                    self._data = manager.dict()
                    self._rows = manager.list()

                def bump(self, key):
                    self._data[key] = self._data.get(key, 0) + 1

                def inc(self, key):
                    self._data[key] += 1

                def trim(self, bound):
                    while len(self._rows) > bound:
                        self._rows.pop(0)
            """,
        )
        assert fired == ["PRX001", "PRX001", "PRX001"]

    def test_fires_on_mutating_the_fetched_copy_even_under_lock(self, tmp_path):
        fired, _ = scan_snippet(
            tmp_path, "mod.py",
            """
            class Store:
                def __init__(self, manager):
                    self._data = manager.dict()
                    self._lock = manager.Lock()

                def push(self, key, item):
                    with self._lock:
                        self._data[key].append(item)
            """,
        )
        assert fired == ["PRX001"]

    def test_quiet_under_lock_or_single_assignment(self, tmp_path):
        fired, _ = scan_snippet(
            tmp_path, "mod.py",
            """
            class Store:
                def __init__(self, manager):
                    self._data = manager.dict()
                    self._rows = manager.list()
                    self._lock = manager.Lock()

                def bump(self, key):
                    with self._lock:
                        self._data[key] = self._data.get(key, 0) + 1

                def publish(self, key, value):
                    self._data[key] = value

                def trim(self, bound):
                    with self._lock:
                        while len(self._rows) > bound:
                            self._rows.pop(0)
            """,
        )
        assert fired == []

    def test_taint_flows_through_classmethod_constructor(self, tmp_path):
        fired, _ = scan_snippet(
            tmp_path, "mod.py",
            """
            class Sink:
                def __init__(self, batches, bound):
                    self._batches = batches
                    self._bound = bound

                @classmethod
                def managed(cls, manager):
                    return cls(manager.list(), 16)

                def record(self, batch):
                    self._batches.append(batch)
                    while len(self._batches) > self._bound:
                        self._batches.pop(0)
            """,
        )
        assert fired == ["PRX001"]


class TestPRX002:
    def test_fires_on_claim_released_outside_finally(self, tmp_path):
        fired, _ = scan_snippet(
            tmp_path, "mod.py",
            """
            class Store:
                def __init__(self, manager):
                    self._data = manager.dict()

                def get_or_compute(self, key, claim, compute):
                    entry = self._data.setdefault(key, claim)
                    try:
                        value = compute()
                    except Exception:
                        del self._data[key]
                        raise
                    self._data[key] = value
                    return value
            """,
        )
        assert fired == ["PRX002"]

    def test_quiet_with_finally_release(self, tmp_path):
        fired, _ = scan_snippet(
            tmp_path, "mod.py",
            """
            class Store:
                def __init__(self, manager):
                    self._data = manager.dict()

                def get_or_compute(self, key, claim, compute):
                    entry = self._data.setdefault(key, claim)
                    published = False
                    try:
                        value = compute()
                        self._data[key] = value
                        published = True
                    finally:
                        if not published:
                            del self._data[key]
                    return value
            """,
        )
        assert fired == []


# ---------------------------------------------------------------------------
# lock-discipline rule
# ---------------------------------------------------------------------------

class TestLCK001:
    def test_fires_on_lock_free_access_elsewhere(self, tmp_path):
        fired, _ = scan_snippet(
            tmp_path, "mod.py",
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._total = 0

                def add(self, n):
                    with self._lock:
                        self._total += n

                def read(self):
                    return self._total
            """,
        )
        assert fired == ["LCK001"]

    def test_quiet_when_every_access_is_locked(self, tmp_path):
        fired, _ = scan_snippet(
            tmp_path, "mod.py",
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._total = 0

                def add(self, n):
                    with self._lock:
                        self._total += n

                def read(self):
                    with self._lock:
                        return self._total
            """,
        )
        assert fired == []


# ---------------------------------------------------------------------------
# API contract rules
# ---------------------------------------------------------------------------

class TestAPI001:
    def test_fires_on_direct_metric_constructor(self, tmp_path):
        fired, _ = scan_snippet(
            tmp_path, "service/frontend.py",
            """
            from repro.service.metrics import Counter

            def build():
                return Counter("queries_total", "Queries served")
            """,
        )
        assert fired == ["API001"]

    def test_quiet_in_metrics_module_and_through_registry(self, tmp_path):
        fired, _ = scan_snippet(
            tmp_path, "service/metrics.py",
            """
            class Counter:
                pass

            def build():
                return Counter()
            """,
        )
        assert fired == []
        fired, _ = scan_snippet(
            tmp_path, "service/frontend.py",
            """
            def build(registry):
                return registry.counter("queries_total", "Queries served")
            """,
        )
        assert fired == []


class TestAPI002:
    def test_fires_outside_the_dispatch_allowlist(self, tmp_path):
        fired, _ = scan_snippet(
            tmp_path, "eval/planner.py",
            """
            from repro.classification.solver_dispatch import solve_with_degree

            def shortcut(pattern, target, degree, profile):
                return solve_with_degree(pattern, target, degree, profile)
            """,
        )
        assert fired == ["API002"]

    def test_quiet_in_allowlisted_modules(self, tmp_path):
        fired, _ = scan_snippet(
            tmp_path, "eval/executor.py",
            """
            from repro.classification.solver_dispatch import solve_with_degree

            def solve(pattern, target, degree, profile):
                return solve_with_degree(pattern, target, degree, profile)
            """,
        )
        assert fired == []


class TestAPI004:
    def test_fires_on_bare_proxy_ops_in_service_code(self, tmp_path):
        fired, report = scan_snippet(
            tmp_path, "service/mod.py",
            """
            class Monitor:
                def __init__(self, heartbeat_board):
                    self._heartbeat_board = heartbeat_board

                def snapshot(self):
                    return dict(self._heartbeat_board)

                def forget(self, worker):
                    self._heartbeat_board.pop(worker, None)
            """,
        )
        assert fired == ["API004", "API004"]
        assert "bypasses the fault policy" in report.findings[0].message

    def test_quiet_when_quarantined_in_a_raw_function(self, tmp_path):
        fired, _ = scan_snippet(
            tmp_path, "service/mod.py",
            """
            class Monitor:
                def __init__(self, heartbeat_board, policy):
                    self._heartbeat_board = heartbeat_board
                    self._policy = policy

                def snapshot(self):
                    def _snapshot_raw():
                        return dict(self._heartbeat_board)
                    return self._policy.run(_snapshot_raw, op_name="snapshot")

                def forget(self, worker):
                    self._guard(
                        lambda: self._heartbeat_board.pop(worker, None)
                    )
            """,
        )
        assert fired == []

    def test_quiet_outside_the_service_layer(self, tmp_path):
        fired, _ = scan_snippet(
            tmp_path, "eval/mod.py",
            """
            class Context:
                def __init__(self, heartbeat_board):
                    self._heartbeat_board = heartbeat_board

                def snapshot(self):
                    return dict(self._heartbeat_board)
            """,
        )
        assert fired == []

    def test_quiet_on_untainted_mappings(self, tmp_path):
        fired, _ = scan_snippet(
            tmp_path, "service/mod.py",
            """
            def summarise(plain_counts):
                plain_counts.pop("stale", None)
                return dict(plain_counts)
            """,
        )
        assert fired == []


# ---------------------------------------------------------------------------
# suppressions and baseline
# ---------------------------------------------------------------------------

class TestSuppression:
    def test_inline_ignore_suppresses_matching_rule(self, tmp_path):
        fired, report = scan_snippet(
            tmp_path, "mod.py",
            """
            def order(xs):
                return sorted(xs, key=id)  # repro: ignore[DET003] — test fixture
            """,
        )
        assert fired == []
        assert report.suppressed == 1

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        fired, _ = scan_snippet(
            tmp_path, "mod.py",
            """
            def order(xs):
                return sorted(xs, key=id)  # repro: ignore[DET001]
            """,
        )
        assert fired == ["DET003"]

    def test_star_suppresses_everything_on_the_line(self, tmp_path):
        fired, report = scan_snippet(
            tmp_path, "mod.py",
            """
            def order(xs):
                return sorted(xs, key=id)  # repro: ignore[*]
            """,
        )
        assert fired == []
        assert report.suppressed == 1


class TestBaseline:
    def _finding_file(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "def order(xs):\n    return sorted(xs, key=id)\n"
        )
        return tmp_path

    def test_baseline_absorbs_documented_false_positive(self, tmp_path):
        root = self._finding_file(tmp_path)
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps({
            "findings": [
                {"path": "mod.py", "rule": "DET003", "line": 2,
                 "note": "documented: fixture"},
            ]
        }))
        report = analyze_paths([str(root)], baseline=Baseline.load(str(baseline_path)))
        findings = [f for f in report.findings if f.path.endswith(".py")]
        assert findings == []
        assert report.baselined == 1

    def test_stale_entries_are_reported(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps({
            "findings": [
                {"path": "gone.py", "rule": "DET003", "note": "was fixed"},
            ]
        }))
        (tmp_path / "clean.py").write_text("X = 1\n")
        report = analyze_paths([str(tmp_path)], baseline=Baseline.load(str(baseline_path)))
        assert report.stale_baseline == [
            {"path": "gone.py", "rule": "DET003", "unmatched": 1}
        ]

    def test_baseline_entry_without_note_rejected(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps({
            "findings": [{"path": "mod.py", "rule": "DET003"}]
        }))
        with pytest.raises(AnalysisError):
            Baseline.load(str(baseline_path))

    def test_missing_baseline_file_rejected(self, tmp_path):
        with pytest.raises(AnalysisError):
            Baseline.load(str(tmp_path / "nope.json"))


# ---------------------------------------------------------------------------
# CLI behaviour
# ---------------------------------------------------------------------------

class TestCli:
    def test_clean_scan_exits_zero(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("X = 1\n")
        assert cli_main([str(tmp_path)]) == 0
        assert "OK:" in capsys.readouterr().out

    def test_findings_exit_one_with_text_and_json(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(
            "def order(xs):\n    return sorted(xs, key=id)\n"
        )
        assert cli_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "DET003" in out and "FAIL:" in out
        assert cli_main([str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["findings"][0]["rule"] == "DET003"

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        assert cli_main([str(tmp_path / "missing"), "--format", "text"]) == 2
        assert cli_main([str(tmp_path), "--rules", "NOPE"]) == 2
        capsys.readouterr()

    def test_rule_selection_and_list_rules(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(
            "def order(xs):\n    return sorted(xs, key=id)\n"
        )
        assert cli_main([str(tmp_path), "--rules", "DET001"]) == 0
        assert cli_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule in out

    def test_write_baseline_roundtrip(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(
            "def order(xs):\n    return sorted(xs, key=id)\n"
        )
        baseline_path = tmp_path / "baseline.json"
        assert cli_main([str(tmp_path), "--write-baseline", str(baseline_path)]) == 0
        capsys.readouterr()
        skeleton = json.loads(baseline_path.read_text())
        assert skeleton["findings"][0]["rule"] == "DET003"
        # The skeleton's TODO notes satisfy the note requirement once edited;
        # un-edited they still parse (the note is non-empty).
        assert cli_main([str(tmp_path), "--baseline", str(baseline_path)]) == 0

    def test_parse_errors_fail_the_scan(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def nope(:\n")
        assert cli_main([str(tmp_path)]) == 1
        assert "PARSE" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# the self-scan: the repo's own source must be clean
# ---------------------------------------------------------------------------

class TestSelfScan:
    def test_repo_source_is_clean(self):
        report = analyze_paths([str(REPO_SRC)])
        assert report.parse_errors == []
        assert [finding.render() for finding in report.findings] == []

    def test_module_entry_point_is_clean(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "src/", "--format", "json"],
            cwd=str(REPO_ROOT),
            env={
                **__import__("os").environ,
                "PYTHONPATH": str(REPO_SRC),
            },
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        assert payload["clean"] is True
        assert payload["files_scanned"] > 100
