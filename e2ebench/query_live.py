"""Workload ``query-live``: queries on a live ``TreeCorpus`` while it mutates.

A 1000-tree treebank-like corpus (6-20 nodes) answers near-duplicate kNN
queries (``repro.api.knn``, k=10, the heavy operation) and range queries at
a small threshold (``repro.api.range_query``, the light one), interleaved
with ``add_trees``/``remove_trees`` batches of six trees.  Mutations are
cheap because ``TreeCorpus`` defers index maintenance to the next read, so
their cost shows up in read latency and ``ops_per_s``.  The stream drifts
past the query engine's 25% staleness budget once per run, so one query
re-pins the corpus and rebuilds the VP-tree, at the same point every run.

The starting corpus is the same in every run (see ``CORPUS_SEED``); the
seed draws the queries, the added trees and which trees are removed.

Every answer is checked against brute force over the corpus's *current*
trees, kept in a mirror list the benchmark maintains itself and evaluated
on separate ``Tree`` objects with the compiled batch kernel, untimed.
"""

from __future__ import annotations

import math
import random
import time
from typing import Dict, List, Tuple

import harness
import inputs
from harness import Meter, Outcome, Tracer, interposed, median, span_factors

CORPUS_TREES = 1000
MIN_SIZE, MAX_SIZE = 6, 20
K = 10
RANGE_TAU = 3.0
BATCH = 6
#: kNN queries are near duplicates of trees of this size, the middle of the
#: range: kNN cost grows steeply with query size, and a fixed size keeps
#: the median from being a draw over sizes.
KNN_QUERY_SIZE = 13
#: Each block: three kNN and six range queries, six mutation batches.  A
#: read after a mutation pays the deferred index maintenance; every range
#: query comes right after one and no kNN does, so neither median falls
#: between a cheaper and a dearer mode.
BLOCK = ("knn", "add", "range", "remove", "range") * 3
#: Seconds one block takes on the reference host, checks included.
BLOCK_NOMINAL_S = 3.4
#: At least 8 blocks (48 batches, 288 trees of drift), so the stream
#: crosses the 25% staleness budget of a 1000-tree pin.
MIN_BLOCKS = 8
SETUP_REPEATS = 3
#: The starting corpus comes from this fixed seed, not the run's; the run
#: seed draws the queries and the mutation stream.  Index build and query
#: costs depend on the corpus as a whole (its VP-tree), so per-seed corpora
#: would make set-up and kNN latency differ by 20-30% between seeds.
CORPUS_SEED = 1201


class Plan:
    def __init__(self, seed: int, seconds: int) -> None:
        base = random.Random(CORPUS_SEED)
        self.corpus = [
            inputs.treebank_tree(base, base.randint(MIN_SIZE, MAX_SIZE))
            for _ in range(CORPUS_TREES)
        ]
        rng = random.Random(seed)
        current = list(self.corpus)
        self.first_query = self._near_duplicate(rng, current, KNN_QUERY_SIZE)
        self.ops: List[Tuple[str, object]] = []
        blocks = max(MIN_BLOCKS, round(seconds / BLOCK_NOMINAL_S))
        for _ in range(blocks):
            for kind in BLOCK:
                if kind == "knn":
                    self.ops.append((kind, self._near_duplicate(rng, current, KNN_QUERY_SIZE)))
                elif kind == "range":
                    self.ops.append((kind, self._near_duplicate(rng, current, None)))
                elif kind == "add":
                    trees = [
                        inputs.treebank_tree(rng, rng.randint(MIN_SIZE, MAX_SIZE))
                        for _ in range(BATCH)
                    ]
                    current.extend(trees)
                    self.ops.append((kind, [t.to_bracket() for t in trees]))
                else:
                    doomed = sorted(rng.sample(range(len(current)), BATCH))
                    for index in reversed(doomed):
                        del current[index]
                    self.ops.append((kind, doomed))

    @staticmethod
    def _near_duplicate(rng, current, size):
        pool = [t for t in current if len(t) == size] if size else current
        base = pool[rng.randrange(len(pool))]
        return inputs.perturb(base, rng, rng.randint(0, 2)).to_bracket()


class Mirror:
    """The current trees as the benchmark expects them, for brute force."""

    def __init__(self, brackets: List[str]) -> None:
        self.brackets = list(brackets)
        self._corpus = None

    def add(self, brackets: List[str]) -> None:
        self.brackets.extend(brackets)
        self._corpus = None

    def remove(self, indices: List[int]) -> None:
        for index in sorted(indices, reverse=True):
            del self.brackets[index]
        self._corpus = None

    def ranking(self, query: str) -> List[Tuple[float, int]]:
        """Exact ``(distance, index)`` to every current tree, sorted."""
        from repro import api
        from repro.join import TreeCorpus

        if self._corpus is None:
            self._corpus = TreeCorpus([api.parse_tree(b) for b in self.brackets])
        return brute_force(query, self._corpus)


def brute_force(query: str, corpus) -> List[Tuple[float, int]]:
    """Exact ``(distance, index)`` from ``query`` to every tree of ``corpus``,
    sorted: every pair through the compiled batch kernel, no index, no
    cascade, no cutoff."""
    from repro import api
    from repro.join import TreeCorpus, batch_distances

    probe = TreeCorpus([api.parse_tree(query)], interner=corpus.interner())
    entries = batch_distances(probe, corpus, [(0, j) for j in range(len(corpus))], engine="native")
    return sorted((entry[2], entry[1]) for entry in entries)


def _check_knn(outcome: Outcome, mirror: Mirror, query: str, result) -> None:
    expected = [(j, d) for d, j in mirror.ranking(query)[:K]]
    outcome.check("knn", result.matches == expected, f"{result.matches} != {expected}")


def _check_range(outcome: Outcome, mirror: Mirror, query: str, result) -> None:
    expected = [(j, d) for d, j in mirror.ranking(query) if d < RANGE_TAU]
    outcome.check("range", result.matches == expected, f"{result.matches} != {expected}")


# --------------------------------------------------------------------------- #
def _setup_once(plan: Plan, meter: Meter, outcome: Outcome, mirror: Mirror, tracer=None):
    """Bracket strings -> TreeCorpus -> engine + VP-tree -> first correct kNN."""
    from repro import api
    from repro.join import TreeCorpus

    brackets = [t.to_bracket() for t in plan.corpus]
    meter.before(heavy=True)
    outcome.attempted += 1
    top = len(tracer.spans) if tracer is not None else None
    start = time.perf_counter()
    if tracer is None:
        corpus = TreeCorpus([api.parse_tree(b) for b in brackets])
        result = api.knn(plan.first_query, corpus, K)
    else:
        with tracer.span("setup"):
            with tracer.span("corpus.build"):
                # Build eagerly what the first query would build lazily, so
                # the corpus's share of set-up gets a span of its own.
                corpus = TreeCorpus([api.parse_tree(b) for b in brackets])
                corpus.profiles()
                corpus.branch_index()
                corpus.pack()
            result = api.knn(plan.first_query, corpus, K)
    meter.add("setup", time.perf_counter() - start, span=top)
    _check_knn(outcome, mirror, plan.first_query, result)
    return corpus


def _operation(kind: str, arg, corpus):
    from repro import api

    if kind == "knn":
        return api.knn(arg, corpus, K)
    if kind == "range":
        return api.range_query(arg, corpus, RANGE_TAU)
    if kind == "add":
        return corpus.add_trees([api.parse_tree(b) for b in arg])
    return corpus.remove_trees(arg)


def _run_pass(plan: Plan, corpus, meter: Meter, outcome: Outcome, mirror: Mirror,
              tracer: Tracer = None, stats: dict = None) -> None:
    last_pin = None
    for kind, arg in plan.ops:
        meter.before(heavy=kind == "knn")
        outcome.attempted += 1
        top = len(tracer.spans) if tracer is not None else None
        start = time.perf_counter()
        try:
            if tracer is None:
                result = _operation(kind, arg, corpus)
            else:
                with tracer.span(kind):
                    result = _operation(kind, arg, corpus)
        except Exception as exc:  # a raising operation is a failed one
            outcome.fail(kind, exc)
            continue
        sample = meter.add(kind, time.perf_counter() - start, span=top)
        if kind == "add":
            mirror.add(arg)
        elif kind == "remove":
            mirror.remove(arg)
        else:
            (_check_knn if kind == "knn" else _check_range)(outcome, mirror, arg, result)
            if stats is not None:
                tally(stats, result.stats.as_dict())
                if last_pin is not None and result.stats.snapshot_epoch != last_pin:
                    stats["query.repins"] = stats.get("query.repins", 0) + 1
                last_pin = result.stats.snapshot_epoch
        if tracer is None:
            continue
        # Untimed extras of the traced pass, in the same probe interval as
        # the operation before them.
        if kind in ("add", "remove"):
            with tracer.span("corpus.refresh") as span:
                corpus.trees
                corpus.branch_index()
                corpus.pack()
            sample.tags["refresh"] = span
        elif kind == "range":
            sample.tags["candidates"] = _replay_candidates(tracer, corpus, arg)


def _replay_candidates(tracer: Tracer, corpus, query: str):
    """Time ``TreeCorpus.query_candidates`` for a range query's profile:
    the branch-index candidate source, replayed beside the query (with the
    metric index on, the query itself draws candidates from the VP-tree)."""
    from repro import api
    from repro.join import TreeCorpus

    profile = TreeCorpus([api.parse_tree(query)]).profile(0)
    with tracer.span("candidates") as span:
        corpus.query_candidates(profile, RANGE_TAU)
    return span


#: Per-layer count name -> ``QueryStats.as_dict()`` field, summed over queries.
QUERY_COUNTS = (
    ("query.examined", "exact_computed"),
    ("query.index_pruned", "index_pruned"),
    ("query.aborted_early", "aborted_early"),
    ("query.vp_nodes_visited", "vp_nodes_visited"),
    ("query.side_evaluated", "side_evaluated"),
)


def tally(stats: dict, query_stats: dict) -> None:
    """Add one query's ``QueryStats.as_dict()`` to the summed counts."""
    for name, field in QUERY_COUNTS:
        stats[name] = stats.get(name, 0) + query_stats[field]
    stats["query.stage_pruned"] = (
        stats.get("query.stage_pruned", 0) + sum(query_stats["stage_pruned"].values())
    )


# --------------------------------------------------------------------------- #
def run(ctx) -> Dict[str, object]:
    plan = Plan(ctx.seed, ctx.seconds)
    outcome = Outcome()
    brackets = [t.to_bracket() for t in plan.corpus]

    setup_meter = Meter(ctx.guard)
    corpus = None
    for _ in range(SETUP_REPEATS):
        mirror = Mirror(brackets)
        corpus = _setup_once(plan, setup_meter, outcome, mirror)
    setup_meter.close()

    meter = Meter(ctx.guard)
    stats: dict = {}
    _run_pass(plan, corpus, meter, outcome, mirror, stats=stats)
    meter.close()
    values, detail = harness.summarize(
        meter.of("knn"), meter.of("range"), setup_meter.samples,
        meter.probes + setup_meter.probes, len(meter.samples), meter.samples,
    )
    detail["operations"] = {k: len(meter.of(k)) for k in ("knn", "range", "add", "remove")}
    detail["counts"] = stats
    if not ctx.trace:
        values["peak_rss_mb"] = harness.peak_rss_mb()
        return {"values": values, "detail": detail, "outcome": outcome}

    from repro import api
    from repro.join import batch as batch_module
    from repro.join.metric_index import VPTree

    tracer = Tracer()
    traced_setup = Meter(ctx.guard)
    traced = Meter(ctx.guard)
    mirror = Mirror(brackets)
    with interposed(tracer, VPTree, "build", "index.build"), \
            interposed(tracer, batch_module, "batch_distances", "verify", _pair_count), \
            interposed(tracer, api, "parse_tree", "parse"):
        corpus = _setup_once(plan, traced_setup, outcome, mirror, tracer)
        _run_pass(plan, corpus, traced, outcome, mirror, tracer)
    traced_setup.close()
    traced.close()
    values = _per_layer(meter, traced_setup, traced, tracer, stats, detail["raw"])
    return {"values": values, "detail": detail, "outcome": outcome}


def _pair_count(args, kwargs) -> dict:
    pairs = args[2] if len(args) > 2 else kwargs["pairs"]
    return {"pairs": len(pairs)}


def _per_layer(meter, traced_setup, traced, tracer: Tracer, stats, raw) -> Dict[str, float]:
    values = dict(raw)
    factors = span_factors(tracer, traced.samples + traced_setup.samples)

    def scaled(span, sample) -> float:
        """A span's duration in normalized ms, scaled like ``sample``."""
        return span.duration * 1000.0 * sample.norm_ms / sample.raw_ms

    refreshes = [(s.tags["refresh"], s) for s in traced.samples if "refresh" in s.tags]
    plain = sum(s.norm_ms for s in meter.samples)
    # Refresh work runs inside the next read untraced and in its own span traced.
    traced_total = sum(s.norm_ms for s in traced.samples) + sum(scaled(*r) for r in refreshes)
    values["trace.overhead_pct"] = 100.0 * (traced_total - plain) / plain

    spans = {}
    for index, span in enumerate(tracer.spans):
        spans.setdefault(span.name, []).append(index)

    def durations(name: str) -> List[float]:
        """Normalized ms of every span ``name`` inside a timed operation."""
        return [tracer.spans[i].duration * 1000.0 * factors[i] for i in spans.get(name, [])
                if not math.isnan(factors[i])]

    values["corpus.build_ms"] = median(durations("corpus.build"))
    values["index.build_ms"] = median(durations("index.build"))
    values["corpus.mutate_us"] = median(
        [s.norm_ms * 1000.0 for s in traced.samples if s.kind in ("add", "remove")]
    )
    values["corpus.refresh_ms"] = median([scaled(*r) for r in refreshes])
    values["candidates.ms"] = median(
        [scaled(s.tags["candidates"], s) for s in traced.samples if s.kind == "range"]
    )
    verify_ms = pairs = 0.0
    parse = []
    for sample in traced.samples:
        if sample.kind not in ("knn", "range"):
            continue
        for child in tracer.children(sample.tags["span"]):
            if child.name == "verify":
                verify_ms += scaled(child, sample)
                pairs += child.attrs["pairs"]
            elif child.name == "parse" and sample.kind == "range":
                parse.append(scaled(child, sample))
    values["verify.us_per_pair"] = verify_ms * 1000.0 / pairs
    values["parse.ms"] = median(parse)
    for name in [n for n, _ in QUERY_COUNTS] + ["query.stage_pruned", "query.repins"]:
        values[name] = stats.get(name, 0)
    return values
