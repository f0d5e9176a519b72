"""Workload ``pair-shapes``: the library pair path, ``repro.api.compute``.

Heavy operations are identical pairs of 300-node trees in the paper's five
Fig. 9 shapes (LB, RB, FB, ZZ, RND), cycled; there the ``spf`` distance
kernel does nearly all the work.  Light operations are pairs of two
distinct random 24-node trees, where per-call overhead (dispatch,
Algorithm 2, context set-up) dominates instead.  Every operation passes
bracket strings, so parsing is part of it.

The sequence is fixed by the seed and the run length: ``cycles`` rounds,
each the five shapes in a seeded order with ``LIGHT_PER_HEAVY`` light
pairs after each heavy one.  The heavy trees are the same in every run
(see ``RND_SEED``); the seed draws the light pairs and the order.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import subprocess
import sys
import time
from typing import Dict, List, Tuple

import harness
import inputs
from harness import BenchError, Meter, Outcome, Sample, Tracer, interposed, median

HEAVY_NODES = 300
LIGHT_NODES = 24
LIGHT_PER_HEAVY = 12
#: Seconds one cycle (five heavy pairs and their light pairs, plus the
#: untimed checks) takes on the reference host; sets the cycle count.
CYCLE_NOMINAL_S = 6.0
SETUP_REPEATS = 5
#: The RND tree comes from this fixed seed, not the run's, and is the same
#: in every cycle.  LB, RB, FB and ZZ are fixed by definition; random
#: 300-node trees differ in cost by half, and one that lands next to
#: another shape's cost would make the heavy median a draw between the two
#: shapes instead of a measurement.  This one costs about 1.6x FB and 0.8x
#: ZZ on the reference host.
RND_SEED = 1203
WARMUP_NODES = 60


def plan(seed: int, seconds: int) -> List[Tuple[str, str, str, str]]:
    """``(kind, tag, tree_a, tree_b)`` operations; ``tag`` is the shape or ``""``."""
    rng = random.Random(seed)
    heavy = {
        shape: inputs.shape_tree(shape, HEAVY_NODES, random.Random(RND_SEED)).to_bracket()
        for shape in inputs.SHAPES
    }
    ops: List[Tuple[str, str, str, str]] = []
    # The first operation is a light pair, so set-up ends with a cheap distance.
    ops.append(("light", "", *_light_pair(rng)))
    for _ in range(max(3, round(seconds / CYCLE_NOMINAL_S))):
        shapes = list(inputs.SHAPES)
        rng.shuffle(shapes)
        for shape in shapes:
            ops.append(("heavy", shape, heavy[shape], heavy[shape]))
            for _ in range(LIGHT_PER_HEAVY):
                ops.append(("light", "", *_light_pair(rng)))
    return ops


def _light_pair(rng: random.Random) -> Tuple[str, str]:
    return (
        inputs.random_tree(rng, LIGHT_NODES).to_bracket(),
        inputs.random_tree(rng, LIGHT_NODES).to_bracket(),
    )


def _check(outcome: Outcome, kind: str, a: str, b: str, result) -> None:
    from repro import api

    if kind == "heavy":
        cost = result.extra.get("optimal_strategy_cost")
        outcome.check(
            "heavy pair",
            result.distance == 0.0 and result.subproblems == cost,
            f"distance={result.distance} subproblems={result.subproblems} strategy cost={cost}",
        )
    else:
        expected = api.compute(a, b, algorithm="zhang-l").distance
        outcome.check(
            "light pair", result.distance == expected,
            f"rted={result.distance} zhang-l={expected}",
        )


def _run_pass(ops, meter: Meter, outcome: Outcome, tracer: Tracer = None) -> None:
    from repro import api

    for kind, shape, a, b in ops:
        meter.before(heavy=kind == "heavy")
        first_span = len(tracer.spans) if tracer is not None else 0
        outcome.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                result = api.compute(a, b)
            else:
                with tracer.span("api.compute"):
                    result = api.compute(a, b)
        except Exception as exc:  # a raising operation is a failed one
            outcome.fail(f"{kind} pair {shape}", exc)
            continue
        elapsed = time.perf_counter() - start
        meter.add(kind, elapsed, shape=shape, span=first_span)
        _check(outcome, kind, a, b, result)
        if tracer is not None:
            _check_trace(outcome, tracer, first_span, result)


def _check_trace(outcome: Outcome, tracer: Tracer, top: int, result) -> None:
    kids = {s.name: s for s in tracer.children(top)}
    distance, subproblems, bound = kids["distance"].attrs["result"]
    outcome.check(
        "traced layers",
        bound is None and distance == result.distance and subproblems == result.subproblems
        and kids["strategy"].attrs["result"].cost == result.extra["optimal_strategy_cost"],
        "run_engine/optimal_strategy disagree with api.compute",
    )


# --------------------------------------------------------------------------- #
# Set-up: bracket strings in memory -> first correct distance, in a fresh
# interpreter (imports excluded), so first-call costs count.
# --------------------------------------------------------------------------- #
def setup_child(payload: dict) -> dict:
    """Body of one set-up measurement, run inside a fresh interpreter."""
    from repro import api

    guard = harness.ProbeGuard()
    for _ in range(3):  # warm the probe itself, not the library
        harness.probe_ms()
    meter = Meter(guard)
    meter.probe()
    start = time.perf_counter()
    result = api.compute(payload["a"], payload["b"])
    elapsed = time.perf_counter() - start
    meter.add("setup", elapsed)
    meter.close()
    expected = api.compute(payload["a"], payload["b"], algorithm="zhang-l").distance
    sample = meter.samples[0]
    return {
        "raw_ms": sample.raw_ms,
        "norm_ms": sample.norm_ms,
        "probes": meter.probes,
        "ok": result.distance == expected,
    }


def measure_setup(ctx, op, outcome: Outcome) -> Tuple[List[Sample], List[float]]:
    """Set-up samples from fresh interpreters, and the probes they took."""
    samples, probes = [], []
    payload = json.dumps({"a": op[2], "b": op[3]})
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, ctx.script, "--setup-child", "pair-shapes"],
            input=payload, capture_output=True, text=True, timeout=120,
            cwd=ctx.root, env=os.environ.copy(),
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()[-400:]}")
        run = json.loads(proc.stdout.strip().splitlines()[-1])
        outcome.attempted += 1
        outcome.check("set-up distance", run["ok"])
        sample = Sample("setup", run["raw_ms"], 0, {})
        sample.norm_ms = run["norm_ms"]
        samples.append(sample)
        probes.extend(run["probes"])
    return samples, probes


# --------------------------------------------------------------------------- #
def run(ctx) -> Dict[str, object]:
    from repro import api

    ops = plan(ctx.seed, ctx.seconds)
    outcome = Outcome()
    setups, setup_probes = measure_setup(ctx, ops[0], outcome)
    # Warm-up, untimed: a light pair and each shape at a small size take
    # every code path the timed pairs take.
    api.compute(ops[0][2], ops[0][3])
    for shape in inputs.SHAPES:
        tree = inputs.shape_tree(shape, WARMUP_NODES, random.Random(0)).to_bracket()
        api.compute(tree, tree)

    meter = Meter(ctx.guard)
    _run_pass(ops, meter, outcome)
    meter.close()
    values, detail = harness.summarize(
        meter.of("heavy"), meter.of("light"), setups, meter.probes + setup_probes,
        len(meter.samples), meter.samples,
    )
    detail["operations"] = {"heavy": len(meter.of("heavy")), "light": len(meter.of("light"))}
    if not ctx.trace:
        values["peak_rss_mb"] = harness.peak_rss_mb()
        return {"values": values, "detail": detail, "outcome": outcome}

    tracer = Tracer()
    traced = Meter(ctx.guard)
    with interposed(tracer, api, "parse_tree", "parse"), \
            interposed(tracer, _rted_module(), "optimal_strategy", "strategy"), \
            interposed(tracer, _rted_module(), "run_engine", "distance"):
        _run_pass(ops, traced, outcome, tracer)
    traced.close()
    values = _per_layer(meter, traced, tracer, detail["raw"])
    return {"values": values, "detail": detail, "outcome": outcome}


def _rted_module():
    # ``repro.algorithms`` exports a function named ``rted`` that shadows
    # the submodule as an attribute, so import the module by name.
    return importlib.import_module("repro.algorithms.rted")


def _per_layer(meter: Meter, traced: Meter, tracer: Tracer, raw: Dict[str, float]) -> Dict[str, float]:
    values = dict(raw)
    plain_total = sum(s.norm_ms for s in meter.samples)
    traced_total = sum(s.norm_ms for s in traced.samples)
    values["trace.overhead_pct"] = 100.0 * (traced_total - plain_total) / plain_total

    layers: Dict[str, Dict[str, List[float]]] = {"heavy": {}, "light": {}}
    strategy_cost = subproblems = 0
    for sample in traced.samples:
        factor = sample.norm_ms / sample.raw_ms
        top = sample.tags["span"]
        per = layers[sample.kind]
        sums = {"parse": 0.0, "strategy": 0.0, "distance": 0.0}
        for child in tracer.children(top):
            sums[child.name] += child.duration * 1000.0 * factor
        for name, ms in sums.items():
            per.setdefault(name, []).append(ms)
        per.setdefault("self", []).append(tracer.self_time(top) * 1000.0 * factor)
        if sample.kind == "heavy":
            kids = {c.name: c for c in tracer.children(top)}
            strategy_cost += kids["strategy"].attrs["result"].cost
            subproblems += kids["distance"].attrs["result"][1]
    heavy, light = layers["heavy"], layers["light"]
    values.update({
        "parse.ms": median(light["parse"]),
        "api.self_ms": median(light["self"]),
        "strategy.ms": median(heavy["strategy"]),
        "strategy.share": sum(heavy["strategy"]) / (sum(heavy["strategy"]) + sum(heavy["distance"])),
        "strategy.light_share": sum(light["strategy"]) / (sum(light["strategy"]) + sum(light["distance"])),
        "distance.ms": median(heavy["distance"]),
        "distance.ns_per_subproblem": sum(heavy["distance"]) * 1e6 / subproblems,
        "strategy.cost": strategy_cost,
        "distance.subproblems": subproblems,
    })
    for shape in inputs.SHAPES:
        values[f"shape.{shape}.ms"] = median([s.norm_ms for s in meter.of("heavy", shape=shape)])
    return values
