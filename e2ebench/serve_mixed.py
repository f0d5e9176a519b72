"""Workload ``serve-mixed``: a closed loop against an ``rted serve`` process.

One client process drives two connections (the host has two cores), in a
closed loop: each connection sends its next request only after the
previous reply, because today's callers wait for each reply.  An open loop
near capacity on a host whose speed drifts would flip between a growing
backlog and none.  The server holds 500 treebank-like trees, the same in
every run; the seed draws the requests.  The loop
advances in segments drawn from the seed, alternating two kinds:

* heavy segment: one connection sends ``POST /knn`` (k=5) for a near
  duplicate of a 13-node corpus tree, while the other sends six ``POST
  /distance {corpus, i, j}`` requests (``pair``), half of them repeating an
  earlier pair (pair-cache hits), the rest asking a pair no request has
  asked;
* light segment: each connection sends four ``POST /distance`` requests
  with two random 24-node bracket bodies (``light``).

So a /knn always runs beside the same cheap load and never beside another
/knn, and a light request always beside another light request: neither
latency is a mix of a loaded and an unloaded mode.  A probe runs before
every segment, while both connections are idle.

Every request carries a deadline far above any response time, so none
fires.  Every response is checked bit for bit against the library: the
``/distance`` bodies against ``repro.api.compute`` run in-process, the
``/knn`` matches against brute force over the same trees.  All expected
answers are computed before the loop starts, so the client never competes
with the server for a core while requests are timed.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import signal
import socket
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

import harness
import inputs
import query_live
from harness import BenchError, Meter, Outcome, Tracer, interposed, median

CORPUS_TREES = 500
MIN_SIZE, MAX_SIZE = 6, 20
LIGHT_NODES = 24
K = 5
#: /knn queries are near duplicates of trees of this size (see query_live).
KNN_QUERY_SIZE = 13
DEADLINE_S = 60.0
REPEAT_SHARE = 0.5
#: A heavy segment: one /knn on the first connection beside this many
#: ``pair`` requests on the second, which end well before the /knn.
PAIRS_PER_KNN = 6
#: A light segment: this many ``light`` requests on each connection.
LIGHTS_PER_CONNECTION = 4
#: Seconds a heavy plus a light segment take on the reference host,
#: probes and bookkeeping included.
ROUND_NOMINAL_S = 0.5
MIN_ROUNDS = 20
SETUP_REPEATS = 3
#: The served corpus comes from this fixed seed, not the run's (as in
#: ``query_live``): /knn cost depends on the corpus as a whole.
CORPUS_SEED = 1201
SERVER_START_TIMEOUT_S = 60.0
#: The pair of the untimed warm-up request, never planned.
WARMUP_PAIR = (0, 1)
CLIENT_THREAD = "e2e-client"


class Plan:
    def __init__(self, seed: int, seconds: int) -> None:
        base = random.Random(CORPUS_SEED)
        trees = [
            inputs.treebank_tree(base, base.randint(MIN_SIZE, MAX_SIZE))
            for _ in range(CORPUS_TREES)
        ]
        rng = random.Random(seed)
        self.corpus = [t.to_bracket() for t in trees]
        self.first = self._light(rng)
        self.warmup_query = inputs.perturb(trees[0], rng, 1).to_bracket()
        sized = [t for t in trees if len(t) == KNN_QUERY_SIZE]
        asked = {WARMUP_PAIR}
        earlier: List[Tuple[int, int]] = []
        Requests = List[Tuple[str, dict]]
        self.segments: List[Tuple[Requests, Requests]] = []
        for _ in range(max(MIN_ROUNDS, round(seconds / ROUND_NOMINAL_S))):
            base = sized[rng.randrange(len(sized))]
            query = inputs.perturb(base, rng, rng.randint(0, 2)).to_bracket()
            pairs: Requests = []
            for _ in range(PAIRS_PER_KNN):
                if earlier and rng.random() < REPEAT_SHARE:
                    i, j = earlier[rng.randrange(len(earlier))]
                else:
                    i, j = WARMUP_PAIR
                    while (i, j) in asked:
                        i, j = rng.sample(range(CORPUS_TREES), 2)
                    asked.add((i, j))
                    earlier.append((i, j))
                pairs.append(("pair", {"corpus": "default", "i": i, "j": j}))
            self.segments.append(([("heavy", {"corpus": "default", "query": query, "k": K})], pairs))
            self.segments.append(tuple(
                [("light", self._light(rng)) for _ in range(LIGHTS_PER_CONNECTION)]
                for _ in range(2)
            ))

    @staticmethod
    def _light(rng) -> dict:
        return {
            "tree_a": inputs.random_tree(rng, LIGHT_NODES).to_bracket(),
            "tree_b": inputs.random_tree(rng, LIGHT_NODES).to_bracket(),
        }


# --------------------------------------------------------------------------- #
# HTTP over a raw socket, so connect, wait and read can be timed apart
# --------------------------------------------------------------------------- #
def http(port: int, method: str, path: str, body: Optional[dict] = None, phases: bool = False):
    """One request on a fresh connection (the server closes after each reply).

    Returns ``(status, json_body, phase_seconds)``; ``phase_seconds`` is
    ``(connect, wait, read)`` when ``phases`` is set.
    """
    payload = json.dumps(body).encode() if body is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n\r\n"
    ).encode()
    t0 = time.perf_counter()
    with socket.create_connection(("127.0.0.1", port), timeout=DEADLINE_S + 30) as sock:
        t1 = time.perf_counter() if phases else 0.0
        sock.sendall(head + payload)
        chunks = [sock.recv(65536)]
        t2 = time.perf_counter() if phases else 0.0
        while chunks[-1]:
            chunks.append(sock.recv(65536))
    t3 = time.perf_counter()
    raw = b"".join(chunks)
    header, _, content = raw.partition(b"\r\n\r\n")
    status = int(header.split(b" ", 2)[1])
    timing = (t1 - t0, t2 - t1, t3 - t2) if phases else None
    return status, json.loads(content), timing


class Server:
    """An ``rted serve`` subprocess over a corpus file below the build folder."""

    def __init__(self, ctx, corpus: List[str]) -> None:
        folder = os.path.join(ctx.build, "serve")
        os.makedirs(folder, exist_ok=True)
        self.corpus_path = os.path.join(folder, f"corpus-{os.getpid()}.txt")
        self.log_path = os.path.join(folder, f"server-{os.getpid()}.log")
        with open(self.corpus_path, "w") as handle:
            handle.write("\n".join(corpus) + "\n")
        self.root = ctx.root
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> None:
        """Spawn the server and wait until it listens (the port it prints)."""
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "@" + self.corpus_path, "--port", "0"],
                cwd=self.root, stdout=subprocess.DEVNULL, stderr=log, env=os.environ.copy(),
            )
        deadline = time.perf_counter() + SERVER_START_TIMEOUT_S
        while time.perf_counter() < deadline:
            with open(self.log_path) as log:
                text = log.read()
            if "listening on" in text:
                self.port = int(text.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        self.stop()
        raise BenchError(f"rted serve did not start: {text.strip()[-400:]}")

    def peak_rss_mb(self) -> float:
        return harness.peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None

    def remove_files(self) -> None:
        for path in (self.corpus_path, self.log_path):
            if os.path.exists(path):
                os.remove(path)


# --------------------------------------------------------------------------- #
# Expected answers, computed in-process before any request is timed
# --------------------------------------------------------------------------- #
def _body(result) -> dict:
    return {"algorithm": result.algorithm, "subproblems": result.subproblems, "distance": result.distance}


def expected_answers(plan: Plan, meter: Meter, tracer: Optional[Tracer]) -> Dict[str, object]:
    """Library answers for every planned request, and the in-process timing
    of each light request (``serve.inproc_ms``), traced when ``tracer`` is set."""
    from repro import api
    from repro.join import TreeCorpus

    trees = [api.parse_tree(b) for b in plan.corpus]
    light: Dict[Tuple[str, str], dict] = {}
    pairs: Dict[Tuple[int, int], dict] = {}
    knn: Dict[str, list] = {}
    corpus = TreeCorpus([api.parse_tree(b) for b in plan.corpus])
    for first, second in plan.segments:
        for kind, body in first + second:
            if kind == "light":
                key = (body["tree_a"], body["tree_b"])
                meter.before()
                top = len(tracer.spans) if tracer is not None else None
                start = time.perf_counter()
                if tracer is None:
                    result = api.compute(*key)
                else:
                    with tracer.span("api.compute"):
                        result = api.compute(*key)
                meter.add("inproc", time.perf_counter() - start, span=top)
                light[key] = _body(result)
            elif kind == "pair":
                key = (body["i"], body["j"])
                if key not in pairs:
                    pairs[key] = _body(api.compute(trees[key[0]], trees[key[1]]))
            else:
                ranking = query_live.brute_force(body["query"], corpus)[:K]
                knn[body["query"]] = [[j, d] for d, j in ranking]
    first = _body(api.compute(plan.first["tree_a"], plan.first["tree_b"]))
    return {"light": light, "pair": pairs, "knn": knn, "first": first}


def _check(outcome: Outcome, kind: str, body: dict, status: int, reply: dict, expected, seen) -> None:
    if status != 200:
        outcome.fail(kind, f"HTTP {status} {reply}")
        return
    if kind == "light":
        want = expected["light"][(body["tree_a"], body["tree_b"])]
        got = {k: reply.get(k) for k in want}
    elif kind == "pair":
        key = (body["i"], body["j"])
        want = dict(expected["pair"][key], cached=key in seen)
        seen.add(key)
        got = {k: reply.get(k) for k in want}
    else:
        want = {"matches": expected["knn"][body["query"]], "partial": False}
        got = {k: reply.get(k) for k in want}
    outcome.check(kind, got == want, f"{got} != {want}")


# --------------------------------------------------------------------------- #
# Set-up: spawn -> /readyz -> first correct /distance
# --------------------------------------------------------------------------- #
def _setup_once(ctx, plan: Plan, server: Server, meter: Meter, outcome: Outcome, expected) -> None:
    meter.before(heavy=True)
    outcome.attempted += 1
    start = time.perf_counter()
    server.start()
    while http(server.port, "GET", "/readyz")[0] != 200:
        time.sleep(0.002)
    status, reply, _ = http(server.port, "POST", "/distance", dict(plan.first, deadline=DEADLINE_S))
    meter.add("setup", time.perf_counter() - start)
    ctx.guard.idle_child(server.proc.pid, "rted serve")
    if status != 200:
        outcome.fail("first /distance", f"HTTP {status} {reply}")
    else:
        want = expected["first"]
        outcome.check("first distance", {k: reply.get(k) for k in want} == want)


def _warm(server: Server, plan: Plan) -> None:
    """Untimed: build the served VP-tree and take every request path once."""
    i, j = WARMUP_PAIR
    for path, body in (
        ("/knn", {"corpus": "default", "query": plan.warmup_query, "k": K}),
        ("/distance", {"corpus": "default", "i": i, "j": j}),
        ("/distance", plan.first),
    ):
        status, reply, _ = http(server.port, "POST", path, dict(body, deadline=DEADLINE_S))
        if status != 200:
            raise BenchError(f"warm-up {path}: HTTP {status} {reply}")


def _send(port: int, requests: List[Tuple[str, dict]], phases: bool) -> List[tuple]:
    """One connection's closed loop: each request right after the last reply."""
    done = []
    for kind, body in requests:
        path = "/knn" if kind == "heavy" else "/distance"
        start = time.perf_counter()
        try:
            status, reply, timing = http(port, "POST", path, dict(body, deadline=DEADLINE_S), phases)
        except OSError as exc:
            done.append((kind, body, None, exc, None, 0.0))
            continue
        done.append((kind, body, status, reply, timing, time.perf_counter() - start))
    return done


def _run_pass(ctx, plan: Plan, server: Server, meter: Meter, outcome: Outcome, expected,
              phases: bool, knn_stats: dict) -> None:
    seen: set = set()
    with ThreadPoolExecutor(2, thread_name_prefix=CLIENT_THREAD) as pool:
        ctx.guard.own_thread_prefix(CLIENT_THREAD)
        for first, second in plan.segments:
            meter.probe()
            started = time.perf_counter()
            futures = [
                pool.submit(_send, server.port, first, phases),
                pool.submit(_send, server.port, second, phases),
            ]
            results = [f.result() for f in futures]
            meter.add("segment", time.perf_counter() - started)
            for done in results:
                for kind, body, status, reply, timing, elapsed in done:
                    outcome.attempted += 1
                    if status is None:
                        outcome.fail(kind, reply)
                        continue
                    if status == 200:
                        meter.add(kind, elapsed, phases=timing)
                        if kind == "heavy":
                            query_live.tally(knn_stats, reply["stats"])
                    _check(outcome, kind, body, status, reply, expected, seen)


def _stats(server: Server) -> dict:
    status, reply, _ = http(server.port, "GET", "/stats")
    if status != 200:
        raise BenchError(f"/stats: HTTP {status}")
    flat = dict(reply["counters"])
    flat.update(reply["corpora"]["default"])
    return flat


def _serve_pass(ctx, plan, server, meter, outcome, expected, phases, knn_stats) -> dict:
    """Warm the fresh server, run the loop, return the /stats deltas."""
    _warm(server, plan)
    before = _stats(server)
    _run_pass(ctx, plan, server, meter, outcome, expected, phases, knn_stats)
    meter.close()
    after = _stats(server)
    return {k: after[k] - before[k] for k in after if isinstance(after[k], int) and k in before}


# --------------------------------------------------------------------------- #
def run(ctx) -> Dict[str, object]:
    plan = Plan(ctx.seed, ctx.seconds)
    outcome = Outcome()
    inproc = Meter(ctx.guard)
    expected = expected_answers(plan, inproc, None)
    inproc.close()

    server = Server(ctx, plan.corpus)
    try:
        setup_meter = Meter(ctx.guard)
        for repeat in range(SETUP_REPEATS):
            _setup_once(ctx, plan, server, setup_meter, outcome, expected)
            if repeat < SETUP_REPEATS - 1:
                ctx.guard.forget_child(server.proc.pid)
                server.stop()
        setup_meter.close()

        meter = Meter(ctx.guard)
        knn_stats: dict = {}
        deltas = _serve_pass(ctx, plan, server, meter, outcome, expected, False, knn_stats)
        rss = server.peak_rss_mb()
        values, detail = harness.summarize(
            meter.of("heavy"), meter.of("light"), setup_meter.samples,
            meter.probes + setup_meter.probes,
            len(meter.samples) - len(meter.of("segment")), meter.of("segment"),
        )
        detail["operations"] = {k: len(meter.of(k)) for k in ("heavy", "light", "pair")}
        detail["server"] = deltas
        if not ctx.trace:
            values["peak_rss_mb"] = rss
            return {"values": values, "detail": detail, "outcome": outcome}

        ctx.guard.forget_child(server.proc.pid)
        server.stop()
        _setup_once(ctx, plan, server, Meter(ctx.guard), outcome, expected)
        traced = Meter(ctx.guard)
        traced_deltas = _serve_pass(ctx, plan, server, traced, outcome, expected, True, {})
    finally:
        if server.proc is not None:
            ctx.guard.forget_child(server.proc.pid)
        server.stop()
        server.remove_files()

    tracer = Tracer()
    traced_inproc = Meter(ctx.guard)
    from repro import api

    rted_module = importlib.import_module("repro.algorithms.rted")
    with interposed(tracer, api, "parse_tree", "parse"), \
            interposed(tracer, rted_module, "optimal_strategy", "strategy"), \
            interposed(tracer, rted_module, "run_engine", "distance"):
        expected_answers(plan, traced_inproc, tracer)
    traced_inproc.close()
    values = _per_layer(meter, traced, traced_inproc, inproc, tracer, traced_deltas, knn_stats, detail["raw"])
    return {"values": values, "detail": detail, "outcome": outcome}


def _per_layer(meter, traced, traced_inproc, inproc, tracer, deltas, knn_stats, raw):
    values = dict(raw)
    plain = sum(s.norm_ms for s in meter.of("segment"))
    values["trace.overhead_pct"] = 100.0 * (sum(s.norm_ms for s in traced.of("segment")) - plain) / plain

    light = traced.of("light")
    phase = {
        name: median([s.tags["phases"][index] * 1000.0 * s.norm_ms / s.raw_ms for s in light])
        for index, name in enumerate(("http.connect_ms", "http.wait_ms", "http.read_ms"))
    }
    values.update(phase)
    values["serve.inproc_ms"] = median([s.norm_ms for s in inproc.samples if s.kind == "inproc"])
    values["serve.overhead_ms"] = phase["http.wait_ms"] - values["serve.inproc_ms"]
    values["serve.served"] = deltas["served"]
    values["serve.shed"] = deltas["shed"]
    values["serve.timeouts"] = deltas["timeouts"]
    values["serve.server_errors"] = deltas["server_errors"]
    lookups = deltas["pair_cache_hits"] + deltas["pair_cache_misses"]
    values["serve.pair_cache_hit_rate"] = deltas["pair_cache_hits"] / lookups

    parse, self_ms, strategy, distance = [], [], 0.0, 0.0
    for sample in traced_inproc.samples:
        if sample.kind != "inproc":
            continue
        factor = sample.norm_ms / sample.raw_ms
        top = sample.tags["span"]
        kids = tracer.children(top)
        parse.append(sum(k.duration for k in kids if k.name == "parse") * 1000.0 * factor)
        self_ms.append(tracer.self_time(top) * 1000.0 * factor)
        strategy += sum(k.duration for k in kids if k.name == "strategy")
        distance += sum(k.duration for k in kids if k.name == "distance")
    values["parse.ms"] = median(parse)
    values["api.self_ms"] = median(self_ms)
    values["strategy.light_share"] = strategy / (strategy + distance)
    values.update(knn_stats)
    return values
