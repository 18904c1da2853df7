"""Run one benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs one untraced timed run in a fresh process and prints
the end-to-end metrics (:func:`end_to_end` says how a run's rounds
become one figure).  ``--trace 1`` runs an untraced timed run, then a
traced run of the workload's first few rounds, and prints the per-layer
split, the wall time no span covers and the tracing overhead.  Every answer is
checked against the reference evaluator and an independent oracle
(:mod:`perfbench.checks`).  A human-readable report goes first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Full reports and spans are
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from perfbench.workloads import Workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

#: Set order changes search order, so every benchmark process runs with
#: this hash seed; it is recorded in each report.
HASH_SEED = "0"

#: p90 of fewer batches than this is reported but flagged as unreliable.
MIN_BATCHES_FOR_P90 = 100

#: A batch's host speed is the mean yardstick slice over this many
#: batches on either side of it.
SPEED_WINDOW = 5

Metrics = Dict[str, Tuple[float, str]]


class BenchmarkError(Exception):
    """A run that cannot produce a result."""


def run_timed(workload: str, seed: int, seconds: float, spans: Optional[str] = None) -> Dict[str, Any]:
    """One set-up + timed rounds in a fresh process (:mod:`perfbench.timed`)."""
    command = [
        sys.executable, "-m", "perfbench.timed",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]
    if spans is not None:
        command += ["--trace", spans]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=os.pathsep.join([SRC, ROOT]))
    # The manager's socket lives under the temporary directory; keep it in
    # the checkout unless its path would pass the ~107-byte socket limit.
    tmp = os.path.join(OUT, "tmp")
    if len(tmp) <= 64:
        os.makedirs(tmp, exist_ok=True)
        env["TMPDIR"] = tmp
    # Its own process group, so a timeout can stop the manager and pool with it.
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = process.communicate(timeout=3 * seconds + 60)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        # Whatever of the group outlived the run (a stuck manager or
        # pool worker) is stopped with it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if stdout is None:
        raise BenchmarkError(f"timed run of {workload} did not finish in time")
    if process.returncode != 0:
        raise BenchmarkError(f"timed run of {workload} exited with {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def quantile(values: List[float], percent: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def percentile_ms(latencies: List[float], percent: int) -> float:
    return quantile(latencies, percent) * 1e3


def scaled_latencies(timing: Dict[str, Any]) -> List[float]:
    """A round's batch latencies, scaled to the reference host."""
    from perfbench.timed import reference_time

    return reference_time(timing["latencies_s"], timing["yardstick_s"], SPEED_WINDOW)


def end_to_end(run: Dict[str, Any], verdict: Dict[str, Any], workload: Workload) -> Metrics:
    """The user-visible figures, one per run, in reference-host time.

    Every time is first scaled by the yardstick slices timed around it
    (see :mod:`perfbench.timed`): a set-up by the slice after it, a batch
    by the mean of the ``SPEED_WINDOW`` slices on either side of the one
    after it — a local speed that follows the host's short spells
    without resting on one ~50 µs sample.  Every round replays the same
    batches, so each batch's median over the run's fixed number of rounds
    is its time; the latency percentiles are taken over those, and
    ``queries_per_s`` is one round's completed queries over their sum.
    ``setup_s`` is the median of the run's set-ups.
    """
    from perfbench.timed import reference_time

    rounds = [scaled_latencies(timing) for timing in run["rounds"]]
    latencies = [statistics.median(times) for times in zip(*rounds)]
    completed = min(len(answers) - answers.count("x") for answers in run["answers"])
    setups = [
        seconds
        for timing in run["rounds"]
        for seconds in reference_time(timing["setup_s"], timing["setup_yardstick_s"])
    ]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "queries_per_s": (completed / sum(latencies), "1/s"),
        "batch_p50_ms": (percentile_ms(latencies, 50), "ms"),
        "batch_p90_ms": (percentile_ms(latencies, 90), "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "correct_frac": (verdict["correct"] / verdict["attempted"], "ratio"),
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(untraced: Dict[str, Any], traced: Dict[str, Any], workload: Workload) -> Metrics:
    from perfbench import checks
    from perfbench.tracing import LAYERS

    metrics: Metrics = {}
    for layer in LAYERS:
        entry = traced["layers"][layer]
        metrics[f"{layer}.calls"] = (entry["calls"], "count")
        metrics[f"{layer}.self_s"] = (entry["self_s"], "s")
    counters, layers = traced["counters"], traced["layers"]
    rounds = len(traced["rounds"])
    queries = sum(len(answers) for answers in traced["answers"])
    keys = checks.round_keys(workload, rounds)
    # Pool workers are not traced: their classifications and solves come
    # from the service's counters, which cover every process.
    if counters.get("queries_served"):
        solves = counters["solves"]
        classifications = counters["classification_calls"]
    else:
        solves = sum(entry["calls"] for name, entry in layers.items() if name.startswith("solve."))
        classifications = layers["classification.core"]["calls"]
    index_lookups = counters["index_hits"] + counters["index_misses"]
    profile_lookups = counters.get("profile_hits", 0) + counters.get("profile_misses", 0)
    # Both in reference-host time, so that the host's speed in each run cancels.
    untraced_round = statistics.median(sum(scaled_latencies(timing)) for timing in untraced["rounds"])
    traced_rounds = sum(sum(scaled_latencies(timing)) for timing in traced["rounds"])
    metrics.update(
        {
            "structures.index.hit_ratio": (_ratio(counters["index_hits"], index_lookups), "ratio"),
            "service.store.hit_ratio": (
                _ratio(counters.get("profile_hits", 0), profile_lookups), "ratio"
            ),
            "service.store.waits": (counters.get("profile_waits", 0), "count"),
            "eval.memo_hit_ratio": (1.0 - _ratio(solves, queries), "ratio"),
            "solve.calls": (solves, "count"),
            "classification.calls": (classifications, "count"),
            "classification.per_distinct": (
                _ratio(classifications, checks.distinct_per_service(workload, keys)), "ratio"
            ),
            "workload.queries": (queries, "count"),
            "workload.distinct_patterns": (len({key for round_ in keys for key in round_}), "count"),
            "workload.repeat_share": (checks.repeat_share(workload, keys), "ratio"),
            "trace.wall_s": (traced["trace_wall_s"], "s"),
            "trace.unattributed_s": (traced["trace_wall_s"] - traced["top_level_s"], "s"),
            "trace.overhead_s": (traced_rounds - rounds * untraced_round, "s"),
        }
    )
    return metrics


def commit() -> str:
    """The checked-out commit, or ``unknown`` outside a git repository."""
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def host_fingerprint(seed: int) -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(),
        "hash_seed": HASH_SEED,
        "workload_seed": seed,
    }


def describe(run: Dict[str, Any], verdict: Dict[str, Any], workload: Workload) -> Dict[str, Any]:
    """What the run actually sent: the workload's self-description."""
    from perfbench.timed import REFERENCE_SLICE_S

    return {
        "clock": "client CPU time" if workload.in_process else "wall time",
        "rounds": len(run["rounds"]),
        "queries_per_round": len(run["answers"][0]),
        "batches_per_round": len(run["rounds"][0]["latencies_s"]),
        "queries": verdict["attempted"],
        "batches": sum(len(timing["latencies_s"]) for timing in run["rounds"]),
        "distinct_patterns": verdict["distinct"],
        "repeat_share": verdict["repeat_share"],
        "queries_per_route": run["routes"],
        "failed_frac": _ratio(verdict["failed"], verdict["attempted"]),
        "errors": run["errors"],
        "oracle_disagreements": verdict["oracle_disagreements"],
        "setups": sum(len(timing["setup_s"]) for timing in run["rounds"]),
        "slowdown": [
            round(statistics.median(timing["yardstick_s"]) / REFERENCE_SLICE_S, 3)
            for timing in run["rounds"]
        ],
    }


def print_report(
    workload: str, host: Dict[str, Any], shape: Dict[str, Any], metrics: Metrics, traced: bool
) -> None:
    print(f"perfbench {workload} ({'traced' if traced else 'untraced'})")
    print("  host: " + ", ".join(f"{key}={value}" for key, value in host.items()))
    print(
        f"  workload: {shape['rounds']} rounds of {shape['queries_per_round']} queries in "
        f"{shape['batches_per_round']} batches ({shape['batches']} batches in all), "
        f"{shape['distinct_patterns']} distinct patterns, "
        f"repeat share {shape['repeat_share']:.3f}, routes {shape['queries_per_route']}"
    )
    print(
        f"  figures: {shape['clock']} scaled to the reference host, each batch's median over "
        f"{shape['rounds']} rounds; setup_s: median of {shape['setups']} set-ups"
    )
    print(f"  median yardstick slice per round, reference host = 1: {shape['slowdown']}")
    if shape["batches_per_round"] < MIN_BATCHES_FOR_P90:
        print(f"  warning: each round's p90 rests on only {shape['batches_per_round']} batches")
    if shape["errors"]:
        print(f"  errors: {shape['errors']}")
    width = max(len(name) for name in metrics)
    if traced:
        wall = metrics["trace.wall_s"][0]
        for name, (value, unit) in metrics.items():
            share = f"  {value / wall:6.1%} of traced wall" if name.endswith(".self_s") else ""
            print(f"  {name:{width}s} {value:14.6g} {unit}{share}")
        return
    for name, (value, unit) in [*metrics.items(), ("failed_frac", (shape["failed_frac"], "ratio"))]:
        print(f"  {name:{width}s} {value:14.6g} {unit}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    sys.path[:0] = [SRC, ROOT]
    from perfbench import checks, workloads

    if args.workload not in workloads.WORKLOAD_NAMES:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        untraced = run_timed(args.workload, args.seed, args.seconds)
        traced = None
        if args.trace:
            traced = run_timed(args.workload, args.seed, args.seconds, spans=stem + "-spans.jsonl")
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    workload = workloads.build(args.workload, args.seed)
    verdict = checks.check(workload, untraced)
    correct = (
        verdict["correct"] == verdict["attempted"] - verdict["failed"]
        and verdict["oracle_disagreements"] == 0
        and not untraced["wrappers_left"]
    )
    if traced is None:
        metrics = end_to_end(untraced, verdict, workload)
    else:
        correct = (
            correct and checks.same_answers(workload, untraced, traced) and not traced["wrappers_left"]
        )
        metrics = per_layer(untraced, traced, workload)
    host = host_fingerprint(args.seed)
    shape = describe(untraced, verdict, workload)
    print_report(args.workload, host, shape, metrics, traced is not None)
    result = {
        "correct": correct,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(stem + ".json", "w") as handle:
        json.dump({**result, "host": host, "workload": shape, "rounds": untraced["rounds"]}, handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
