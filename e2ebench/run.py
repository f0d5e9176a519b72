#!/usr/bin/env python3
"""End-to-end benchmark of the RTED reproduction.

Run from the repository root::

    python3 e2ebench/run.py --workload pair-shapes --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload query-live --seed 1 --seconds 30 --trace 1
    python3 e2ebench/run.py --steadiness 5 --workload serve-mixed --seconds 30

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``pair-shapes`` — ``repro.api.compute`` on Fig. 9 shapes and small pairs;
* ``query-live``  — kNN and range queries on a live ``TreeCorpus`` with
  ``add_trees``/``remove_trees`` batches interleaved;
* ``serve-mixed`` — a closed loop of two connections against ``rted serve``.

Each run executes a fixed operation sequence built from ``--seed``; its
length follows from ``--seconds`` through nominal per-operation costs, so a
run lasts about that long on the reference host and every count repeats
exactly.  Every answer is checked.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the same sequence untraced and then traced and
prints the per-layer metrics, including the tracing overhead.  Timings are
host-normalized (see ``harness.py``).

The last line of standard output is the result object; the line before it
is a ``{"detail": ...}`` object with the environment, tail percentiles and
sample counts, raw values and any error messages.  The library is imported
from ``src/``; the benchmark writes only below ``.bench_build/`` (its
``TMPDIR``, which holds the native compile cache, and the served corpus
files and server logs).

``--steadiness N`` runs each chosen workload ``N`` times with consecutive
seeds and reports, per end-to-end metric, the median, the spread
(interquartile range over median) and the bound from ``BENCHMARK.json``,
flagging any spread above its bound; ``--count-check K`` adds ``K`` traced
runs of one seed under ``PYTHONHASHSEED`` 0..K-1 and reports any count
that differs between them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("pair-shapes", "query-live", "serve-mixed")


@dataclass
class Context:
    """What a workload needs to know about its run."""

    seed: int
    seconds: int
    trace: bool
    root: str
    build: str
    script: str
    guard: object


def _workload_module(name: str):
    if name == "pair-shapes":
        import pair_shapes as module
    elif name == "query-live":
        import query_live as module
    else:
        import serve_mixed as module
    return module


def _prepare() -> None:
    """Point the library (and every child) at ``src/`` and a checkout-local TMPDIR."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else "")
    sys.path.insert(0, SRC)


def environment() -> dict:
    """Facts that decide what a result means, recorded in every result."""
    import numpy

    from repro.algorithms.native import native_provider

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        # Also warms the native compile cache below TMPDIR, untimed.
        "native_provider": native_provider(),
        "nproc": len(os.sched_getaffinity(0)),
        "rted_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("RTED_")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N")
    parser.add_argument("--count-check", type=int, default=0, metavar="K")
    parser.add_argument("--setup-child", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"e2ebench: no library sources at {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    _prepare()

    if args.setup_child:
        payload = json.loads(sys.stdin.read())
        print(json.dumps(_workload_module(args.setup_child).setup_child(payload)))
        return 0
    if args.steadiness or args.count_check:
        import steadiness

        names = WORKLOADS if args.workload == "all" else (args.workload,)
        return steadiness.main(
            __file__, spec, names, args.seed, seconds, args.steadiness, args.count_check
        )
    if args.workload == "all":
        parser.error("--workload is required for a single run")

    import harness

    ctx = Context(
        seed=args.seed, seconds=seconds, trace=bool(args.trace), root=ROOT,
        build=BUILD, script=os.path.abspath(__file__), guard=harness.ProbeGuard(),
    )
    env = environment()
    started = time.perf_counter()
    try:
        report = _workload_module(args.workload).run(ctx)
    except harness.BenchError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1
    outcome = report["outcome"]
    values = report["values"]
    # Every traced run prints every per-layer metric; a layer this workload
    # does not exercise reads 0 and is listed as such in the detail line.
    idle = [m["name"] for m in spec["per_layer"] if ctx.trace and m["name"] not in values]
    values.update({name: 0 for name in idle})
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "nominal_probe_ms": harness.NOMINAL_PROBE_MS,
        "environment": env,
        **report["detail"],
        "not_exercised": idle,
        "run_wall_s": time.perf_counter() - started,
        "errors": outcome.errors,
    }
    line = harness.result_line(
        outcome.correct, outcome.attempted, outcome.failed, values, spec, ctx.trace
    )
    print(json.dumps({"detail": detail}))
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
