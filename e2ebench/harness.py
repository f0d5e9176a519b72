"""Measurement core of the end-to-end benchmark.

Host normalization
    The benchmark runs on small shared VMs whose speed drifts by tens of
    percent between (and within) runs while CPU time equals wall time.  A
    fixed probe (:func:`probe_ms`) is timed between operations —
    at least once a second and before every heavy operation — and each
    sample is scaled to a constant nominal probe time using the probes on
    either side of it.  The raw value and the probe time are reported too,
    so the scaling can be undone.

Probe guard
    While the probe runs, no library thread and no child process other than
    an explicitly allowed, idle one (the served subprocess) may be alive, so
    a change cannot slow the probe, and with it every normalized number,
    down to flatter itself.

Spans
    The traced run records spans from the benchmark's own files around
    calls into each layer (:class:`Tracer`); a layer's self time is its
    span minus the part of it that child spans cover.
"""

from __future__ import annotations

import bisect
import inspect
import json
import math
import os
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: The probe time every sample is scaled to.  It is the median probe time
#: measured on the reference host (2-core x86-64 VM, CPython 3.11, NumPy
#: 2.4), so normalized numbers read close to wall-clock numbers there.
NOMINAL_PROBE_MS = 3.3

#: Longest stretch of operations between two probes.
PROBE_INTERVAL_S = 1.0

_PROBE_A = "the quick brown fox jumps over the lazy dog 0123"
_PROBE_B = "a quick brown dog leaps over the lazy fox 4567 x"
_PROBE_CELLS = 50_000
_PROBE_ARRAY = 200_000
_PROBE_PASSES = 5


class BenchError(RuntimeError):
    """The benchmark itself cannot produce trustworthy numbers."""


class _ProbeData:
    """The probe's fixed inputs, built once per process."""

    _instance: Optional["_ProbeData"] = None

    def __init__(self) -> None:
        import numpy

        self.cells = list(range(_PROBE_CELLS))
        self.table = {k: [k + i for i in range(8)] for k in range(_PROBE_CELLS // 4)}
        self.left = numpy.arange(_PROBE_ARRAY, dtype=numpy.float64)
        self.right = self.left[::-1].copy()
        self.out = numpy.empty_like(self.left)
        self.expected = self._run()

    @classmethod
    def get(cls) -> "_ProbeData":
        if cls._instance is None:
            cls._instance = cls()
        return cls._instance

    def _run(self) -> tuple:
        """Four parts, each a fraction of a millisecond to a millisecond.

        The library's kernels mix interpreted loops over small lists (the
        row DP), walks over lists and dicts too large for the first-level
        caches (trees, profiles, postings) and NumPy array passes (batch
        and region kernels).  Host slowdowns hit these differently, so the
        probe times all four together.
        """
        import numpy

        prev = list(range(len(_PROBE_B) + 1))
        for i, ca in enumerate(_PROBE_A, 1):
            cur = [i]
            for j, cb in enumerate(_PROBE_B, 1):
                cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
            prev = cur
        walked = 0
        for value in self.cells[::2]:
            walked += value
        looked = 0
        for key in range(0, len(self.table), 2):
            looked += self.table[key][key % 8]
        numpy.minimum(self.left, self.right, out=self.out)
        return prev[-1], walked, looked, float(self.out.sum())


def probe_ms() -> float:
    """Median wall time of a few passes of the probe, in ms.

    The median keeps a pass hit by a one-off interruption from setting the
    scale of every sample beside it.
    """
    data = _ProbeData.get()
    times = []
    for _ in range(_PROBE_PASSES):
        start = time.perf_counter()
        value = data._run()
        times.append(time.perf_counter() - start)
        if value != data.expected:
            raise BenchError(f"probe returned {value}, expected {data.expected}")
    return statistics.median(times) * 1000.0


# --------------------------------------------------------------------------- #
# Probe guard
# --------------------------------------------------------------------------- #
def _child_pids() -> List[int]:
    pids: List[int] = []
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/children") as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        except FileNotFoundError:  # thread ended while listing
            continue
    return pids


def _cpu_ticks(pid: int) -> int:
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # utime and stime are fields 14 and 15 of proc(5); fields[0] is field 3.
    return int(fields[11]) + int(fields[12])


class ProbeGuard:
    """Asserts that nothing but the probe runs while the probe runs."""

    #: Clock ticks an allowed child may spend during one probe (one tick
    #: absorbs a tick that was already accruing when the probe started).
    IDLE_TICKS = 1

    def __init__(self) -> None:
        self._own_threads = {threading.main_thread().ident}
        self._own_prefixes: List[str] = []
        self._idle_children: Dict[int, str] = {}

    def own_thread_prefix(self, prefix: str) -> None:
        """Count threads named ``prefix...`` as the benchmark's own (clients)."""
        self._own_prefixes.append(prefix)

    def idle_child(self, pid: int, name: str) -> None:
        """Allow child ``pid``, provided it uses no CPU during probes."""
        self._idle_children[pid] = name

    def forget_child(self, pid: int) -> None:
        self._idle_children.pop(pid, None)

    @contextmanager
    def quiet(self) -> Iterator[None]:
        threads = [
            t.name for t in threading.enumerate()
            if t.ident not in self._own_threads and t.is_alive()
            and not t.name.startswith(tuple(self._own_prefixes))
        ]
        if threads:
            raise BenchError(f"library threads alive during the probe: {threads}")
        children = _child_pids()
        strangers = [pid for pid in children if pid not in self._idle_children]
        if strangers:
            raise BenchError(f"child processes alive during the probe: {strangers}")
        ticks = {pid: _cpu_ticks(pid) for pid in children}
        yield
        for pid, before in ticks.items():
            used = _cpu_ticks(pid) - before
            if used > self.IDLE_TICKS:
                raise BenchError(
                    f"{self._idle_children[pid]} (pid {pid}) used {used} CPU ticks "
                    "during the probe"
                )


# --------------------------------------------------------------------------- #
# Timeline of probes and samples
# --------------------------------------------------------------------------- #
class Sample:
    __slots__ = ("kind", "raw_ms", "probe", "tags", "norm_ms")

    def __init__(self, kind: str, raw_ms: float, probe: int, tags: dict) -> None:
        self.kind = kind
        self.raw_ms = raw_ms
        self.probe = probe
        self.tags = tags
        self.norm_ms = math.nan


def scale(raw_ms: float, probe_before: float, probe_after: float) -> float:
    """``raw_ms`` at the nominal probe time, from the probes around it."""
    return raw_ms * NOMINAL_PROBE_MS / ((probe_before + probe_after) / 2.0)


class Meter:
    """Records samples between probes and normalizes them when closed.

    Call :meth:`before` ahead of each operation (it probes when one is
    due), time the operation, then :meth:`add` the sample.  :meth:`close`
    runs the final probe, so every sample has a probe on either side.
    """

    def __init__(self, guard: ProbeGuard) -> None:
        self.guard = guard
        self.probes: List[float] = []
        self.samples: List[Sample] = []
        self._last_probe = -math.inf

    def probe(self) -> None:
        with self.guard.quiet():
            self.probes.append(probe_ms())
        self._last_probe = time.perf_counter()

    def before(self, heavy: bool = False) -> None:
        if heavy or time.perf_counter() - self._last_probe >= PROBE_INTERVAL_S:
            self.probe()

    def add(self, kind: str, raw_s: float, **tags) -> Sample:
        if not self.probes:
            raise BenchError("a sample was recorded before the first probe")
        sample = Sample(kind, raw_s * 1000.0, len(self.probes) - 1, tags)
        self.samples.append(sample)
        return sample

    def close(self) -> List[Sample]:
        self.probe()
        for sample in self.samples:
            sample.norm_ms = scale(
                sample.raw_ms, self.probes[sample.probe], self.probes[sample.probe + 1]
            )
        return self.samples

    def of(self, kind: str, **tags) -> List[Sample]:
        return [
            s for s in self.samples
            if s.kind == kind and all(s.tags.get(k) == v for k, v in tags.items())
        ]


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
def tail(values: Sequence[float], above: int = 10) -> Tuple[float, float, int]:
    """The highest percentile that still has at least ``above`` samples above it.

    Returns ``(value, percentile, samples_above)``: ``value`` is the
    ``k``-th smallest sample for the largest ``k`` with at least ``above``
    samples strictly greater, and ``percentile`` is ``100 k / n``.
    """
    ordered = sorted(values)
    n = len(ordered)
    for k in range(n - above, 0, -1):
        greater = n - bisect.bisect_right(ordered, ordered[k - 1])
        if greater >= above:
            return ordered[k - 1], 100.0 * k / n, greater
    raise BenchError(f"a tail needs more than {above} samples above it, got {n} samples")


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("median of no samples")
    return statistics.median(values)


def summarize(
    heavy: Sequence[Sample],
    light: Sequence[Sample],
    setup: Sequence[Sample],
    probes: Sequence[float],
    operations: int,
    busy: Sequence[Sample],
) -> Tuple[Dict[str, float], dict]:
    """A run's end-to-end values (all but ``peak_rss_mb``) and its detail.

    ``ops_per_s`` is ``operations`` over the time of the ``busy`` samples.
    The detail holds each tail's percentile and sample count, and under
    ``"raw"`` the unscaled counterpart of every value plus the median probe.
    """
    values: Dict[str, float] = {}
    raw: Dict[str, float] = {}
    detail: dict = {}
    for name, samples in (("heavy", heavy), ("light", light)):
        scaled = [s.norm_ms for s in samples]
        wall = [s.raw_ms for s in samples]
        value, percentile, above = tail(scaled)
        values[f"{name}_p50_ms"] = median(scaled)
        values[f"{name}_tail_ms"] = value
        raw[f"{name}.wall_ms"] = median(wall)
        raw[f"{name}_tail.wall_ms"] = tail(wall)[0]
        detail[f"{name}_tail"] = {"percentile": percentile, "samples_above": above, "samples": len(scaled)}
    values["setup_s"] = median([s.norm_ms for s in setup]) / 1000.0
    raw["setup.wall_ms"] = median([s.raw_ms for s in setup])
    values["ops_per_s"] = operations / (sum(s.norm_ms for s in busy) / 1000.0)
    raw["ops.wall_per_s"] = operations / (sum(s.raw_ms for s in busy) / 1000.0)
    raw["host.probe_ms"] = median(probes)
    detail["raw"] = raw
    return values, detail


# --------------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------------- #
class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, parent: Optional[int]) -> None:
        self.name = name
        self.start = start
        self.end = math.nan
        self.parent = parent
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans with parent links (single-threaded use)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._children: Dict[Optional[int], List[int]] = {}

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), parent)
        self.spans.append(record)
        self._children.setdefault(parent, []).append(len(self.spans) - 1)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def children(self, index: int) -> List[Span]:
        return [self.spans[i] for i in self._children.get(index, [])]

    def self_time(self, index: int) -> float:
        """The span's duration minus the union of its children's intervals."""
        parent = self.spans[index]
        return self_time(parent, self.children(index))



def self_time(parent: Span, children: Sequence[Span]) -> float:
    intervals = sorted(
        (max(c.start, parent.start), min(c.end, parent.end)) for c in children
    )
    covered, reach = 0.0, parent.start
    for start, end in intervals:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return parent.duration - covered


def span_factors(tracer: Tracer, samples: Sequence[Sample]) -> List[float]:
    """Per span, the normalization factor of the sample its root span timed.

    Samples name their root span in ``tags["span"]``; spans outside every
    sample (for example those of untimed checks) get ``nan``.
    """
    roots = {
        s.tags["span"]: s.norm_ms / s.raw_ms for s in samples if s.tags.get("span") is not None
    }
    factors = []
    for index, span in enumerate(tracer.spans):
        while index is not None and index not in roots:
            index = tracer.spans[index].parent
        factors.append(roots.get(index, math.nan))
    return factors


@contextmanager
def interposed(
    tracer: Tracer,
    target: object,
    attr: str,
    name: str,
    describe: Optional[Callable[[tuple, dict], dict]] = None,
) -> Iterator[None]:
    """Wrap ``target.attr`` in a span named ``name`` for the block's duration.

    The span keeps the call's return value in ``attrs["result"]`` and
    whatever ``describe(args, kwargs)`` returns, so callers can check and
    count what the layer did.  Works for module functions and for class-
    or static methods looked up on their class.
    """
    raw = inspect.getattr_static(target, attr)
    original = getattr(target, attr)

    def wrapper(*args, **kwargs):
        with tracer.span(name) as record:
            if describe is not None:
                record.attrs.update(describe(args, kwargs))
            result = original(*args, **kwargs)
            record.attrs["result"] = result
            return result

    static = isinstance(raw, (classmethod, staticmethod))
    setattr(target, attr, staticmethod(wrapper) if static else wrapper)
    try:
        yield
    finally:
        setattr(target, attr, raw)


# --------------------------------------------------------------------------- #
# Process facts and the result line
# --------------------------------------------------------------------------- #
def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` (peak resident set) of ``pid`` (default: this process) in MB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM in {path}")


def validate_result(result: dict, spec: dict, trace: bool) -> None:
    """Raise :class:`BenchError` unless ``result`` is a well-formed result line."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise BenchError("'correct' must be a boolean")
    for key in ("attempted", "failed"):
        if isinstance(result[key], bool) or not isinstance(result[key], int):
            raise BenchError(f"{key!r} must be a whole number")
    if result["attempted"] < 1 or not 0 <= result["failed"] <= result["attempted"]:
        raise BenchError(f"attempted={result['attempted']} failed={result['failed']}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        raise BenchError(f"metrics missing {missing}, undeclared {extra}")
    for name, entry in metrics.items():
        if set(entry) != {"value", "unit"} or entry["unit"] != declared[name]:
            raise BenchError(f"metric {name!r} is malformed: {entry}")
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"metric {name!r} has a non-finite value {value!r}")


def result_line(
    correct: bool, attempted: int, failed: int, values: Dict[str, float], spec: dict, trace: bool
) -> str:
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units if name in values},
    }
    validate_result(result, spec, trace)
    return json.dumps(result)


class Outcome:
    """Attempted/failed tallies of one run; a wrong answer marks it incorrect.

    Callers count each operation in ``attempted`` before running it.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: List[str] = []

    def fail(self, label: str, reason: object) -> None:
        """Count an operation that raised (or was refused) as failed."""
        self.failed += 1
        if isinstance(reason, BaseException):
            reason = f"{type(reason).__name__}: {reason}"
        self._note(f"{label}: {reason}")

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        """Count a completed operation whose answer was wrong as failed."""
        if not ok:
            self.failed += 1
            self.wrong += 1
            self._note(f"{label}: wrong answer {detail}")
        return ok

    def _note(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    @property
    def correct(self) -> bool:
        return self.wrong == 0
