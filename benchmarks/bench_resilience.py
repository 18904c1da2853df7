"""Benchmark: what the resilience layer costs, and how fast it recovers.

Two questions, one per section of ``BENCH_resilience.json``:

* **overhead** — every manager-proxy operation now routes through
  ``FaultPolicy.run`` (deadline check, breaker check, retry loop).  Two
  identically-shaped manager-backed stores serve the same op mix — one
  wrapped (the default policy), one with ``policy=None`` (the raw
  pre-resilience path) — and the gate requires the wrapped arm to stay
  within **5%** of the unwrapped arm.  Against a real manager the IPC
  round trip dominates, which is exactly the regime the wrapper was
  designed for.  Both managers start once, the arms alternate for
  ``PASSES`` passes each (the order flips every pass), and the gate
  reads the median, over the pairs, of a wrapped pass's time over its
  unwrapped neighbour's: each pair shares the host's state of the
  moment, so a slow stretch cancels.  A pass takes a few hundredths of
  a second, and a best-of-three over freshly started managers read the
  host's noise (−16% to +17% at the same code), not the wrapper.  The
  store is sized so that no pass evicts.
* **recovery** — SIGKILL the manager mid-service, then time the full
  recovery arc: a store op fails over onto the corpse (breaker opens,
  answer served from degraded local mode), ``StoreManager.failover``
  replaces the process, and the next op closes the breaker again.
  Reported as seconds from kill to closed breaker, plus the reconciled
  count proving the degraded window was republished.

::

    PYTHONPATH=src python benchmarks/bench_resilience.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time
from typing import Dict

from repro.service import DEFAULT_FAULT_POLICY
from repro.service.resilience import BREAKER_CLOSED, BREAKER_OPEN
from repro.service.store import StoreManager

FULL_OPS = 600
QUICK_OPS = 150
PASSES = 25
OVERHEAD_GATE_PCT = 5.0


def _serve_ops(store, ops: int, tag: str) -> float:
    """One timed pass: compute / L1-read / shared-read / publish mix.

    Distinct keys per pass keep every ``get_or_compute`` on the shared
    claim path (the wrapped code), then each key is peeked twice — once
    warm from L1 (wrapper bypassed, the common case) and once for a
    fresh store-level read via ``put`` + ``peek`` of a sibling key.
    """
    start = time.perf_counter()
    for index in range(ops):
        key = (tag, index)
        store.get_or_compute(key, lambda index=index: [index, index + 1])
        store.peek(key)
        store.put((tag, index, "sibling"), index)
    return time.perf_counter() - start


def run_overhead(ops: int) -> Dict:
    # Each pass publishes two keys per op; no pass may evict.
    capacity = 2 * ops * PASSES
    times: Dict[str, list] = {"w": [], "u": []}
    with StoreManager(
        shared=True, profile_capacity=capacity, policy=DEFAULT_FAULT_POLICY
    ) as wrapped, StoreManager(
        shared=True, profile_capacity=capacity, policy=None
    ) as unwrapped:
        stores = {"w": wrapped.stores.profiles, "u": unwrapped.stores.profiles}
        for index in range(PASSES):
            for arm in ("wu" if index % 2 == 0 else "uw"):
                times[arm].append(_serve_ops(stores[arm], ops, f"{arm}{index}"))
    ratio = statistics.median(
        wrapped / unwrapped for wrapped, unwrapped in zip(times["w"], times["u"])
    )
    overhead_pct = 100.0 * (ratio - 1.0)
    return {
        "ops_per_pass": ops,
        "passes": PASSES,
        "wrapped_seconds": round(statistics.median(times["w"]), 4),
        "unwrapped_seconds": round(statistics.median(times["u"]), 4),
        "overhead_pct": round(overhead_pct, 2),
        "gate_pct": OVERHEAD_GATE_PCT,
        "overhead_ok": overhead_pct <= OVERHEAD_GATE_PCT,
    }


def run_recovery(ops: int) -> Dict:
    import signal

    with StoreManager(shared=True) as manager:
        store = manager.stores.profiles
        for index in range(ops):
            store.get_or_compute(("warm", index), lambda index=index: index)

        pid = manager.manager_pid()
        os.kill(pid, signal.SIGKILL)
        killed_at = time.perf_counter()
        while manager.manager_alive():
            time.sleep(0.001)

        # First op after the kill: retries burn out, the breaker opens,
        # the answer is still served (degraded local mode).
        degraded_value = store.get_or_compute(("post-kill", 0), lambda: "local")
        breaker_opened = store.breaker.state == BREAKER_OPEN

        manager.failover()
        # failover() rebinds + resets the breaker; the next op proves
        # the replacement manager is answering.
        store.get_or_compute(("post-failover", 0), lambda: "shared")
        closed_at = time.perf_counter()
        # One more op gives _maybe_reconcile its turn.
        store.get_or_compute(("post-failover", 1), lambda: "shared")

        resilience = store.resilience_info()
        return {
            "warm_ops": ops,
            "degraded_answered": degraded_value == "local",
            "breaker_opened_on_outage": breaker_opened,
            "breaker_closed_after_failover": (
                store.breaker.state == BREAKER_CLOSED
            ),
            "generation": manager.generation,
            "degraded_computes": resilience["degraded_computes"],
            "reconciled": resilience["reconciled"],
            "pending_reconcile": resilience["pending_reconcile"],
            "kill_to_closed_seconds": round(closed_at - killed_at, 4),
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke mode")
    parser.add_argument("--output", default="BENCH_resilience.json")
    args = parser.parse_args()

    ops = QUICK_OPS if args.quick else FULL_OPS
    print(
        f"resilience benchmark ({os.cpu_count() or 1} CPUs, "
        f"{'quick' if args.quick else 'full'} mode, {ops} ops/pass)"
    )

    overhead = run_overhead(ops)
    print(
        f"  overhead: median pass wrapped {overhead['wrapped_seconds']}s vs "
        f"unwrapped {overhead['unwrapped_seconds']}s "
        f"(median pair {overhead['overhead_pct']:+.2f}%, "
        f"gate {OVERHEAD_GATE_PCT:.0f}%) "
        f"[{'ok' if overhead['overhead_ok'] else 'FAIL'}]"
    )

    recovery = run_recovery(ops)
    print(
        f"  recovery: kill → closed breaker in "
        f"{recovery['kill_to_closed_seconds']}s "
        f"(degraded answers: {recovery['degraded_computes']}, "
        f"reconciled back: {recovery['reconciled']}) "
        f"[{'ok' if recovery['breaker_closed_after_failover'] else 'FAIL'}]"
    )

    report = {
        "benchmark": "resilience",
        "quick": args.quick,
        "cpu_count": os.cpu_count() or 1,
        "overhead": overhead,
        "recovery": recovery,
    }
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"wrote {args.output}")
    return 0 if overhead["overhead_ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
