"""Measurement core: spans, ops, passes and the metrics derived from them.

A pass runs a workload's fixed list of ops once.  Each op is timed from
outside the library with ``time.perf_counter``; its result is checked
after the clock has stopped.  In a traced pass every library call made
through a :class:`Probe` also becomes an in-memory :class:`Span`, and the
per-layer metrics are read off those spans.

The host's speed drifts: on a shared 2-CPU machine the same pass took
from 5.1 to 7.7 s within one run, in phases lasting from about a second
to a minute, and every op slowed alike.  So after every library call the
probe also times a fixed pure-Python loop (:func:`reference_time`) that
calls no library code.  Each call's time is scaled by ``REFERENCE_S``
over the mean of the loop times just before and just after it: the time
the call would take on a host where the loop takes ``REFERENCE_S``.  An
op's own code between its calls is scaled by the loop times around the
op.  The loop runs outside every clock.  Over 21 passes of
construct-verify, scaling by the loop times around each op cut the
coefficient of variation of the pass time from 0.118 unscaled to 0.031.
Over ten 40-second runs per workload, the quartile spread of the median
pass time, over its median, was 0.028 to 0.060 scaled and 0.084 to
0.177 unscaled.  The unscaled times are kept too.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

# a run measures at least this many passes, so work counts can be compared
MIN_PASSES = 2

# iterations of the reference loop, and its nominal time: scaled times
# are seconds on a host where the loop takes REFERENCE_S
REFERENCE_LOOPS = 30_000
REFERENCE_S = 0.005


def reference_time() -> float:
    """Time one run of a fixed pure-Python loop, with the collector off."""
    gc.disable()
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        pair = (i, i ^ 5)
        acc += pair[0] * pair[1] & 255
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


class Incorrect(Exception):
    """An op returned a wrong result; the run fails."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Incorrect(message)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    counts: dict = field(default_factory=dict)
    error: Optional[str] = None


class Probe:
    """Makes calls into the library and times each one alone, followed by
    a run of the reference loop; when tracing, records one span per call.

    ``count(result, *args)`` returns the work sizes of a call (nodes,
    bytes, rows, ...); it runs after the span has ended.
    """

    def __init__(self, tracing: bool = False):
        self.spans: Optional[list[Span]] = [] if tracing else None
        self.op = -1
        self._open: list[int] = []
        self._next_id = 0
        self.reference = reference_time()  # the latest reference loop time
        self.start_op(-1)

    def start_op(self, op: int) -> None:
        self.op = op
        self.calls: list[tuple[float, float]] = []  # (seconds, reference) per call
        self.sampling = 0.0  # seconds spent in the reference loop

    def call(self, name: str, fn: Callable, *args, count: Optional[Callable] = None):
        """A library call, timed alone and traced when tracing."""
        before = self.reference
        start = time.perf_counter()
        try:
            return self.span(name, fn, *args, count=count)
        finally:
            seconds = time.perf_counter() - start
            self.reference = reference_time()
            self.sampling += time.perf_counter() - start - seconds
            self.calls.append((seconds, (before + self.reference) / 2))

    def span(self, name: str, fn: Callable, *args, count: Optional[Callable] = None):
        """``fn(*args)``, recorded as a span when tracing."""
        if self.spans is None:
            return fn(*args)
        sid = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        error = None
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._open.pop()
            span = Span(sid, name, start, end, parent, self.op, error=error)
            self.spans.append(span)
        if count is not None:
            span.counts = count(result, *args)
        return result


@dataclass
class Tally:
    """What a checked op did.

    ``work`` holds what must repeat exactly in every pass: statuses, node,
    move and prune counts, witness digests.  ``goals`` counts calls aimed
    at an attainable target that ended with the engine's own verdict (or
    raised), ``solved`` those that delivered it.  ``failed`` marks an op
    that refused or gave up on an attainable target.
    """

    work: tuple = ()
    goals: int = 0
    solved: int = 0
    failed: bool = False


@dataclass
class Op:
    name: str
    run: Callable[[Probe, dict], Any]  # timed; the dict carries results between ops
    check: Callable[[Any], Tally]  # untimed; raises Incorrect on a wrong result
    goal: bool = False  # if run raises, an attainable target was missed


@dataclass
class Record:
    op: Op
    seconds: float  # unscaled, without the reference loop runs inside the op
    scaled: float
    value: Any = None
    error: Optional[str] = None  # exception type, when the op raised

    def tally(self) -> Tally:
        if self.error is not None:
            return Tally(("raised", self.error), goals=int(self.op.goal), failed=True)
        return self.op.check(self.value)


@dataclass
class Pass:
    traced: bool
    seconds: list[float]  # per op
    scaled: list[float]  # per op
    errors: list[Optional[str]]
    tallies: list[Tally]
    spans: list[Span]

    @property
    def wall(self) -> float:
        return sum(self.seconds)

    @property
    def scaled_wall(self) -> float:
        return sum(self.scaled)


def run_pass(ops: list[Op], probe: Probe) -> Iterator[Record]:
    """Run the ops in order, yielding each one's record as its clock stops.

    The generator keeps no record, so a result the caller has checked and
    dropped is freed before the next op starts.
    """
    gc.collect()
    state: dict = {}
    for i, op in enumerate(ops):
        probe.start_op(i)
        before = probe.reference
        value = error = None
        start = time.perf_counter()
        try:
            value = probe.span("op:" + op.name, op.run, probe, state)
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            error = type(exc).__name__
        seconds = time.perf_counter() - start - probe.sampling
        between_calls = seconds - sum(t for t, _ in probe.calls)
        scaled = sum(t / r for t, r in probe.calls) + between_calls * 2 / (
            before + probe.reference
        )
        yield Record(op, seconds, scaled * REFERENCE_S, value, error)


def measure(ops: list[Op], seconds: float, trace: bool) -> list[Pass]:
    """Run passes until the time measured is as close to ``seconds`` as
    whole passes allow: the last pass starts only if it is predicted to
    end less than half a pass after ``seconds``.

    With ``trace`` every second pass is traced, so the traced and plain
    pass times come from the same process.  Raises Incorrect when a
    check fails or work counts differ between passes.
    """
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        probe = Probe(tracing=trace and len(passes) % 2 == 1)
        times, scaled, errors, tallies = [], [], [], []
        for record in run_pass(ops, probe):
            times.append(record.seconds)
            scaled.append(record.scaled)
            errors.append(record.error)
            tallies.append(record.tally())
            del record  # free the result before the next op runs
        if passes:
            for op, a, b in zip(ops, passes[0].tallies, tallies):
                expect(
                    a.work == b.work,
                    f"{op.name}: work differs between passes: {a.work} vs {b.work}",
                )
        passes.append(
            Pass(
                traced=probe.spans is not None,
                seconds=times,
                scaled=scaled,
                errors=errors,
                tallies=tallies,
                spans=probe.spans or [],
            )
        )
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) / 2 > seconds:
            return passes


# ---------------------------------------------------------------------------
# metrics

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
    ("solved_frac", "fraction"),
]

# span names whose summed time per pass is reported as "<name>.s"
TIMED_LAYERS = [
    "core.verify_steiner",
    "core.nested_design",
    "core.pair_census",
    "fileio.parse_design",
    "fileio.serialize_design",
    "constructions.doubling_a",
    "constructions.doubling_b",
    "constructions.rotational_expand",
    "analysis.classify",
    "analysis.feasibility_table",
    "cli.main",
    "search.search_rotational",
    "search.search_nesting",
    "search.local_balance",
]

PER_LAYER = (
    [(f"{layer}.s", "s") for layer in TIMED_LAYERS]
    + [
        ("core.verify_steiner.blocks_per_s", "blocks/s"),
        ("fileio.parse_design.mb_per_s", "MB/s"),
        ("fileio.serialize_design.mb_per_s", "MB/s"),
        ("analysis.feasibility_table.rows_per_s", "rows/s"),
        ("catalog.catalog_get.s", "s"),
        ("search.search_rotational.nodes", "count"),
        ("search.search_rotational.us_per_node", "us"),
        ("search.search_rotational.prune_ratio", "ratio"),
        ("search.search_nesting.nodes", "count"),
        ("search.search_nesting.us_per_node", "us"),
        ("search.search_nesting.prune_ratio", "ratio"),
        ("search.search_nesting.errors", "count"),
        ("search.local_balance.moves", "count"),
        ("search.local_balance.ms_per_move", "ms"),
        ("search.local_balance.evals_per_move", "count"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(passes: list[Pass], setup_s: list[float], peak_rss_mb: float) -> dict:
    walls = [p.scaled_wall for p in passes if not p.traced]
    tallies = [t for p in passes for t in p.tallies]
    failed = sum(t.failed for t in tallies)
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1 - failed / len(tallies),
        "solved_frac": _ratio(sum(t.solved for t in tallies), sum(t.goals for t in tallies)),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


def _layer_values(spans: list[Span]) -> dict:
    """Per-layer metrics of one traced pass.

    Rates divide counts by the time of the calls that returned them; a
    call that raised has no counts, so its time enters only "<name>.s".
    """
    secs: dict = defaultdict(float)
    counted: dict = defaultdict(float)
    counts: dict = defaultdict(Counter)
    errors: Counter = Counter()
    for s in spans:
        secs[s.name] += s.end - s.start
        if s.error:
            errors[s.name] += 1
        else:
            counted[s.name] += s.end - s.start
            counts[s.name].update(s.counts)
    out = {f"{layer}.s": secs[layer] for layer in TIMED_LAYERS}
    out["core.verify_steiner.blocks_per_s"] = _ratio(
        counts["core.verify_steiner"]["blocks"], counted["core.verify_steiner"]
    )
    for layer in ("fileio.parse_design", "fileio.serialize_design"):
        out[f"{layer}.mb_per_s"] = _ratio(counts[layer]["bytes"] / 1e6, counted[layer])
    out["analysis.feasibility_table.rows_per_s"] = _ratio(
        counts["analysis.feasibility_table"]["rows"], counted["analysis.feasibility_table"]
    )
    for layer in ("search.search_rotational", "search.search_nesting"):
        nodes = counts[layer]["nodes"]
        out[f"{layer}.nodes"] = nodes
        out[f"{layer}.us_per_node"] = _ratio(counted[layer] * 1e6, nodes)
        out[f"{layer}.prune_ratio"] = _ratio(counts[layer]["prunes"], nodes)
    out["search.search_nesting.errors"] = errors["search.search_nesting"]
    moves = counts["search.local_balance"]["moves"]
    out["search.local_balance.moves"] = moves
    out["search.local_balance.ms_per_move"] = _ratio(
        counted["search.local_balance"] * 1e3, moves
    )
    out["search.local_balance.evals_per_move"] = _ratio(
        counts["search.local_balance"]["nodes"], moves
    )
    return out


def per_layer(passes: list[Pass], catalog_s: list[float]) -> dict:
    """Medians over the traced passes; catalog_get is timed in set-up."""
    traced = [p for p in passes if p.traced]
    rows = [_layer_values(p.spans) for p in traced]
    values = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    values["catalog.catalog_get.s"] = statistics.median(catalog_s)
    traced_wall = statistics.median(p.scaled_wall for p in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.median(
        p.scaled_wall for p in passes if not p.traced
    )
    return {name: (values[name], unit) for name, unit in PER_LAYER}
