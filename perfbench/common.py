"""Shared pieces of the benchmark: the speed-normalised CPU clock, the timed
phase, summary statistics, and operation accounting.

Times are CPU seconds of this single-threaded process
(``time.thread_time``), scaled to a reference speed.  The engine is single-threaded and works in memory, so CPU
time leaves out time the process waits for a busy neighbour.  It does not
leave out a neighbour slowing the CPU itself: on the 2-vCPU machine these
figures come from, the same pure-Python loop takes 0.28 ms in one second
and 0.53 ms the next, and a run sees both.  ``Meter`` therefore times a
short fixed probe every ``PROBE_EVERY`` seconds of CPU time and scales the
CPU time in between by ``REFERENCE_PROBE / probe time``.  A measured time
reads as the CPU seconds the work would take on a CPU that runs the probe
in ``REFERENCE_PROBE`` seconds.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import signal
import statistics
from dataclasses import dataclass, field

from lakat import branch, lignify, ops, trie

from tracer import Tracer, clock

SETUP_REPEATS = 3  # set-ups per run; the median is reported
VERIFY_REPEATS = 9  # fixed-work verifications per run; the median is reported
RSS_ROUNDS = 10  # timed-phase rounds every run makes before peak RSS is read
REFERENCE_PROBE = 0.0005  # CPU seconds of one probe at reference speed
PROBE_EVERY = 0.01  # CPU seconds between probes


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n * q / 100)
    return ordered[int(rank) - 1]


def interquartile_mean(values):
    """Mean of the middle half of a non-empty sample.  Merge costs climb as
    history grows, so a median rests on the few merges near mid-phase; this
    averages the middle half of them instead."""
    ordered = sorted(values)
    quarter = len(ordered) // 4
    middle = ordered[quarter:len(ordered) - quarter]
    return sum(middle) / len(middle)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


class CheckFailed(Exception):
    """A workload output disagrees with the benchmark's own computation."""


@dataclass
class Outcome:
    """Operation accounting and correctness of one run."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, ok: bool, message: str):
        if not ok:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems


def _probe_work():
    """Fixed pure-Python work of the engine's kind: dict updates, small
    formatting, and SHA-256 of short buffers."""
    table = {}
    digest = hashlib.sha256
    for i in range(400):
        key = i % 61
        table[key] = table.get(key, 0) + len(digest(b"probe-%d" % i).digest())
    return table


class Meter:
    """Speed-normalised CPU clock.

    ``start`` arms a CPU-time interval timer: every ``PROBE_EVERY`` seconds
    of CPU time, the ``SIGPROF`` handler times one probe and sets the speed
    factor ``REFERENCE_PROBE / probe time`` for the next interval.  The
    normalised clock advances by raw CPU time times the factor of the
    interval it falls in, and stands still during probes, so probe time is
    never charged to a measurement, however long the measured call.  Without
    ``start`` the factor stays 1 and the clock is plain CPU time.

    Every measured call goes through ``time``, which is also where the
    tracer, once armed, records spans.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.factor = 1.0
        self.base = 0.0  # normalised seconds up to ``mark``
        self.mark = clock()  # raw CPU time the current interval began
        self.probes = 0
        self.factors: list[float] = []

    def start(self):
        signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY, PROBE_EVERY)
        self._probe()

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def _probe(self, *_):
        begin = clock()
        base = self.base + (begin - self.mark) * self.factor
        _probe_work()
        end = clock()
        self.base, self.mark, self.factor = base, end, REFERENCE_PROBE / (end - begin)
        self.factors.append(self.factor)
        self.probes += 1

    def now(self) -> float:
        """Normalised CPU seconds so far; retried if a probe lands mid-read."""
        while True:
            probes = self.probes
            value = self.base + (clock() - self.mark) * self.factor
            if probes == self.probes:
                return value

    def time(self, fn, *args, **kwargs):
        """(result, normalised CPU seconds) of one call."""
        with self.tracer.measured():
            start = self.now()
            result = fn(*args, **kwargs)
            elapsed = self.now() - start
        return result, elapsed


class TimedPhase:
    """Whole rounds of operations until ``seconds`` of normalised time are
    spent in them.  Only measured operations count; the benchmark's own
    checks run between operations and are not timed.

    Records one (cumulative time, cumulative units) point per operation so
    the rate over the last quarter of the phase can be read off afterwards.
    """

    def __init__(self, seconds: float, meter: Meter):
        gc.collect()  # start from a heap without the set-up's garbage
        meter.tracer.arm()
        self.seconds = seconds
        self.elapsed = 0.0
        self.units = 0
        self.latencies: list[float] = []
        self.points: list[tuple[float, int]] = [(0.0, 0)]

    def expired(self, rounds: int) -> bool:
        """True once the time is spent and at least ``RSS_ROUNDS`` rounds
        are done, so that ``peak_rss_mb`` is always read."""
        return self.elapsed >= self.seconds and rounds >= RSS_ROUNDS

    def record(self, duration: float, units: int):
        self.elapsed += duration
        self.units += units
        self.latencies.append(duration)
        self.points.append((self.elapsed, self.units))

    def rate(self) -> float:
        return self.units / self.elapsed

    def late_rate(self) -> float:
        """Units per second over the last quarter of the phase."""
        cut = 0.75 * self.elapsed
        start_time, start_units = next((t, u) for t, u in self.points if t >= cut)
        if start_time >= self.elapsed:  # one operation spans the whole last quarter
            start_time, start_units = self.points[-2]
        return (self.units - start_units) / (self.elapsed - start_time)


def branch_config(branch_type: str, stale_after_merge: bool, lignification: int,
                  engagement: int, buffer: int) -> branch.BranchConfig:
    """One reviewer, no rejections, conflicts accepted; the given windows."""
    return branch.BranchConfig(
        branch_type=branch_type,
        accept_conflicts=True,
        min_reviewers=1,
        acceptance_rule=branch.AcceptanceRule("no_rejections"),
        min_review_rounds=1,
        twig_merge_fraction=branch.Rational(1, 2),
        lignification_time=lignification,
        engagement_time=engagement,
        broadcasting_buffer=buffer,
        stale_after_merge=stale_after_merge,
    )


def core_buckets(state, core_id) -> set:
    """Bucket ids in the head trie of the core."""
    head = branch.get_submit(state.store, state.branches[core_id].stable_head)
    return trie.bucket_ids(trie.Trie(head.trie_root, state.store))


def store_per_bucket(state, core_id) -> tuple[float, float]:
    """(store records, store bytes) per bucket on the core."""
    store = state.store
    buckets = len(core_buckets(state, core_id))
    return len(store) / buckets, sum(len(store.get(cid)) for cid in store.ids()) / buckets


def end_to_end(setup_s, rss, phase: "TimedPhase", merge_times, verify_s, per_bucket) -> dict:
    records, nbytes = per_bucket
    return {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss, "MB"),
        "ops_per_s": metric(phase.rate(), "1/s"),
        "late_ops_per_s": metric(phase.late_rate(), "1/s"),
        "op_p50_ms": metric(1000 * percentile(phase.latencies, 50), "ms"),
        "op_p95_ms": metric(1000 * percentile(phase.latencies, 95), "ms"),
        "merge_ms": metric(1000 * interquartile_mean(merge_times), "ms"),
        "verify_s": metric(verify_s, "s"),
        "store_records_per_bucket": metric(records, "count"),
        "store_bytes_per_bucket": metric(nbytes, "B"),
    }


def land_merge(state, core_id, belt_id, pr, root_at, author, now):
    """Plan and execute a merge of the belt into the proper core, wrap it in
    a sprout rooted at ``root_at``, and run the finality walk.  Returns
    (sprout id, merge submit id, the walk's decisions)."""
    plan = ops.plan_merge(state, core_id, belt_id, pr, root_at)
    cid = branch.submit_id(ops.execute_merge(state, plan, author, now))
    wrap = lignify.wrap_merge_in_sprout(state, cid, author.public_key, belt_id, root_at, now)
    lines = lignify.lignify(state, core_id, cid, now=now)
    return wrap.sprout, cid, lines


def set_up(meter: Meter, build, *args):
    """Build the starting state SETUP_REPEATS times and keep the last build;
    returns (state, median normalised seconds of a build)."""
    seconds, built = [], None
    for _ in range(SETUP_REPEATS):
        built = None
        gc.collect()
        built, elapsed = meter.time(build, *args)
        seconds.append(elapsed)
    return built, statistics.median(seconds)


def repeated(meter: Meter, fn, *args):
    """(last result, median normalised seconds) of VERIFY_REPEATS calls, each
    after a full collection so that garbage left by earlier work is not
    charged."""
    seconds = []
    for _ in range(VERIFY_REPEATS):
        gc.collect()
        result, elapsed = meter.time(fn, *args)
        seconds.append(elapsed)
    return result, statistics.median(seconds)
