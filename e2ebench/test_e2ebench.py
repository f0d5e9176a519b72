"""Tests of the end-to-end benchmark's own machinery (no timing involved).

Run with ``python -m pytest e2ebench -q`` from the repository root.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import inputs  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        return json.load(handle)


# --------------------------------------------------------------------------- #
# Tail percentile
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("n, percentile", [(11, 100 / 11), (20, 50.0), (200, 95.0), (1000, 99.0)])
def test_tail_is_highest_percentile_with_ten_samples_above(n, percentile):
    values = list(range(1, n + 1))
    random.Random(n).shuffle(values)
    value, pct, above = harness.tail(values)
    assert above == 10
    assert value == n - 10
    assert pct == pytest.approx(percentile)


def test_tail_steps_below_ties():
    # 15 samples; the five largest tie, so only 4 values exceed the 11th.
    values = list(range(1, 11)) + [50.0] * 5
    value, pct, above = harness.tail(values)
    assert sum(v > value for v in values) == above >= 10
    assert value == 5 and above == 10 and pct == pytest.approx(100 * 5 / 15)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(harness.BenchError):
        harness.tail(list(range(10)))
    with pytest.raises(harness.BenchError):
        harness.tail([1.0] * 30)  # no value has anything above it


# --------------------------------------------------------------------------- #
# Self time = span minus the union of its children's intervals
# --------------------------------------------------------------------------- #
def _span(name, start, end, parent=None):
    span = harness.Span(name, start, parent)
    span.end = end
    return span


def test_self_time_subtracts_covered_union_once():
    parent = _span("top", 0.0, 10.0)
    children = [_span("a", 1.0, 3.0), _span("b", 2.0, 5.0), _span("c", 8.0, 12.0)]
    # covered: [1, 5] and [8, 10] (clipped to the parent) = 6
    assert harness.self_time(parent, children) == pytest.approx(4.0)


def test_self_time_without_children_is_duration():
    assert harness.self_time(_span("top", 2.0, 7.5), []) == pytest.approx(5.5)


def test_tracer_nests_and_interposes():
    tracer = harness.Tracer()
    module = types.SimpleNamespace(work=lambda x: x * 2)

    class Factory:
        @classmethod
        def build(cls, x):
            return (cls, x)

    with harness.interposed(tracer, module, "work", "work", lambda a, k: {"arg": a[0]}), \
            harness.interposed(tracer, Factory, "build", "build"):
        with tracer.span("top"):
            assert module.work(21) == 42
            assert Factory.build(1) == (Factory, 1)
    assert [s.name for s in tracer.children(0)] == ["work", "build"]
    assert tracer.spans[1].attrs == {"arg": 21, "result": 42}
    assert 0.0 <= tracer.self_time(0) <= tracer.spans[0].duration
    # Both targets are restored.
    assert module.work(1) == 2 and "build" in vars(Factory)
    assert isinstance(vars(Factory)["build"], classmethod)


# --------------------------------------------------------------------------- #
# Probe scaling
# --------------------------------------------------------------------------- #
def test_scale_uses_mean_of_surrounding_probes():
    nominal = harness.NOMINAL_PROBE_MS
    assert harness.scale(10.0, 2 * nominal, 2 * nominal) == pytest.approx(5.0)
    assert harness.scale(10.0, nominal, 3 * nominal) == pytest.approx(5.0)


def test_meter_scales_each_sample_by_its_own_probes(monkeypatch):
    probes = iter([1.0, 2.0, 4.0])
    monkeypatch.setattr(harness, "probe_ms", lambda: next(probes) * harness.NOMINAL_PROBE_MS)
    meter = harness.Meter(harness.ProbeGuard())
    meter.probe()
    meter.add("a", 0.003)
    meter.probe()
    meter.add("b", 0.006)
    meter.close()
    a, b = meter.samples
    assert a.raw_ms == pytest.approx(3.0) and a.norm_ms == pytest.approx(3.0 / 1.5)
    assert b.raw_ms == pytest.approx(6.0) and b.norm_ms == pytest.approx(6.0 / 3.0)


def test_probe_does_its_fixed_work():
    data = harness._ProbeData.get()
    distance, walked, _, array_sum = data.expected
    assert distance == 16 and walked == sum(range(0, 50_000, 2))
    assert array_sum == sum(min(i, 199_999 - i) for i in range(200_000))
    assert data._run() == data.expected
    assert harness.probe_ms() > 0.0


def test_probe_guard_rejects_foreign_threads():
    import threading

    guard = harness.ProbeGuard()
    release = threading.Event()
    worker = threading.Thread(target=release.wait, name="library-worker")
    worker.start()
    try:
        with pytest.raises(harness.BenchError):
            with guard.quiet():
                pass
    finally:
        release.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    with guard.quiet():
        pass


# --------------------------------------------------------------------------- #
# Result schema and BENCHMARK.json
# --------------------------------------------------------------------------- #
def _values(spec, trace):
    return {m["name"]: 1.5 for m in spec["per_layer" if trace else "end_to_end"]}


@pytest.mark.parametrize("trace", [False, True])
def test_result_line_round_trips(trace):
    spec = _spec()
    line = json.loads(harness.result_line(True, 12, 0, _values(spec, trace), spec, trace))
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    harness.validate_result(line, spec, trace)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r.pop("failed"),
        lambda r: r.update(extra=1),
        lambda r: r.update(attempted=0),
        lambda r: r.update(failed=True),
        lambda r: r["metrics"].pop("setup_s"),
        lambda r: r["metrics"].update(bogus={"value": 1.0, "unit": "s"}),
        lambda r: r["metrics"]["setup_s"].update(unit="ms"),
        lambda r: r["metrics"]["setup_s"].update(value=math.nan),
        lambda r: r["metrics"]["setup_s"].update(note="x"),
    ],
)
def test_validate_result_rejects_malformed(mutate):
    spec = _spec()
    result = json.loads(harness.result_line(True, 3, 0, _values(spec, False), spec, False))
    mutate(result)
    with pytest.raises(harness.BenchError):
        harness.validate_result(result, spec, False)


def test_benchmark_json_meets_its_contract():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(name.match(n) for n in names) and len(names) == len(set(names))
    assert 2 <= len(spec["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert unit.match(metric["unit"]) and 0 < metric["bound"] <= 0.25
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and unit.match(metric["unit"])
    assert 1 <= spec["run_seconds"] <= 60
    assert all(os.path.isdir(os.path.join(os.path.dirname(HERE), p)) for p in spec["paths"])
    # 4 + 22 runs per workload must fit the 3420 s budget with room for the
    # set-up, checks and interpreter start-up that come on top of run_seconds.
    assert (4 + 22 * len(spec["workloads"])) * (spec["run_seconds"] + 15) <= 3420


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #
def _count_nodes(bracket: str) -> int:
    return bracket.count("{")


@pytest.mark.parametrize("shape", inputs.SHAPES)
@pytest.mark.parametrize("n", [1, 2, 7, 24, 300])
def test_shapes_have_exact_size(shape, n):
    bracket = inputs.shape_tree(shape, n, random.Random(n)).to_bracket()
    assert _count_nodes(bracket) == n and bracket.count("}") == n


def test_inputs_repeat_per_seed():
    def draw(seed):
        rng = random.Random(seed)
        tree = inputs.treebank_tree(rng, 15)
        return tree.to_bracket(), inputs.perturb(tree, rng, 2).to_bracket()

    assert draw(3) == draw(3)
    assert draw(3) != draw(4)


def test_summarize_keeps_raw_beside_scaled():
    def sample(kind, raw_ms):
        s = harness.Sample(kind, raw_ms, 0, {})
        s.norm_ms = raw_ms / 2
        return s

    heavy = [sample("heavy", 100.0 + i) for i in range(20)]
    light = [sample("light", 10.0 + i) for i in range(40)]
    setup = [sample("setup", v) for v in (400.0, 600.0, 500.0)]
    values, detail = harness.summarize(heavy, light, setup, [3.0, 5.0, 4.0], 60, heavy + light)
    assert values["heavy_p50_ms"] == pytest.approx(54.75) and detail["raw"]["heavy.wall_ms"] == pytest.approx(109.5)
    assert values["setup_s"] == pytest.approx(0.25) and detail["raw"]["setup.wall_ms"] == 500.0
    assert values["light_tail_ms"] == pytest.approx(19.5) and detail["light_tail"]["percentile"] == 75.0
    busy_ms = sum(s.raw_ms for s in heavy + light)
    assert detail["raw"]["ops.wall_per_s"] == pytest.approx(60 / busy_ms * 1000)
    assert values["ops_per_s"] == pytest.approx(2 * detail["raw"]["ops.wall_per_s"])
    assert detail["raw"]["host.probe_ms"] == 4.0
