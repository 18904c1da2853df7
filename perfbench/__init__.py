"""End-to-end and per-layer benchmark of the EVAL(Φ) service stack.

One command drives one workload::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split of a separate traced run.  The benchmark calls the program only
through its public entry points (``EvalService``, ``QueryService`` and the
``repro.workloads`` generators) and times layers by rebinding public
callables from its own files; it changes no program code.  One client
drives the load in a closed loop: the next batch goes out only when the
previous one has returned.  Times are scaled to a reference host's speed
by a yardstick timed between the batches (:mod:`perfbench.timed`), since
the host's own speed drifts by up to 2x.

Modules:

* :mod:`perfbench.workloads` — the four seeded workloads;
* :mod:`perfbench.timed` — set-ups and timed rounds, in a fresh process;
* :mod:`perfbench.tracing` — span recording and the layer wrappers;
* :mod:`perfbench.checks` — the reference and oracle answer checks;
* :mod:`perfbench.run` — the command: runs, metrics and the report;
* :mod:`perfbench.spread` — run-to-run spread over many seeds.

The benchmark's own tests: ``PYTHONPATH=src python -m pytest perfbench -q``.
"""
