"""The load generator: one caller, closed and open loops, and the exactly-once audit.

All load comes from this process.  Requests are numbered here, and
answers are matched back to them per ``(user, category)`` in submission
order — a front end answers one key's requests in the order they were
submitted, so the oldest unanswered request of a key owns the next answer.
Missing and duplicated answers are counted separately and never netted.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.serving import TIER_FULL

clock = time.perf_counter

#: Longest a phase waits for its last answers before force-flushing.
DRAIN_TIMEOUT_S = 5.0


def rss_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def percentile(values, q: float) -> float:
    """Linearly interpolated percentile (numpy's default), 0 if empty."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


class Audit:
    """Numbers every submission and matches every answer to one of them."""

    def __init__(self, keep: int = 0) -> None:
        self.submitted = 0
        self._open: Dict[Tuple[int, int], Deque[int]] = defaultdict(deque)
        self.due: List[float] = []
        self.keys: List[Tuple[int, int]] = []
        self.answered: List[int] = []
        self.degraded = 0
        self.duplicates = 0
        #: Rankings of requests ``keep_from`` .. ``keep_from + keep - 1``,
        #: kept for the correctness checks.
        self.keep = int(keep)
        self.keep_from = 0
        self.kept: Dict[int, object] = {}
        #: Called with each request id as it is submitted (span tagging).
        self.on_submit = None

    def submit(self, user: int, category: int, due: float) -> int:
        rid = self.submitted
        self.submitted += 1
        key = (int(user), int(category))
        self._open[key].append(rid)
        self.due.append(due)
        self.keys.append(key)
        self.answered.append(0)
        if self.on_submit is not None:
            self.on_submit(rid)
        return rid

    def answer(self, ranking) -> Optional[int]:
        """Match one answer; returns its request id, or ``None`` for an
        answer no open request is waiting for (a duplicate)."""
        queue = self._open.get((int(ranking.user), int(ranking.query_category)))
        if not queue:
            self.duplicates += 1
            return None
        rid = queue.popleft()
        self.answered[rid] += 1
        if ranking.tier != TIER_FULL:
            self.degraded += 1
        if self.keep_from <= rid < self.keep_from + self.keep:
            self.kept[rid] = ranking
        return rid

    @property
    def outstanding(self) -> int:
        return sum(len(queue) for queue in self._open.values())

    @property
    def answered_total(self) -> int:
        return self.submitted - self.outstanding

    def summary(self) -> Dict[str, int]:
        missing = sum(1 for count in self.answered if count == 0)
        return {
            "attempted": self.submitted,
            "missing": missing,
            "duplicates": self.duplicates,
            "degraded_or_shed": self.degraded,
            "failed": min(self.submitted, missing + self.duplicates + self.degraded),
        }


@dataclass
class Phase:
    """Latencies (from each request's due time) of one measured phase."""

    rate: float = 0.0
    seconds: float = 0.0
    latencies_ms: Dict[int, float] = field(default_factory=dict)
    #: The part of each latency the front end spent working: time inside
    #: its calls while the request was outstanding, plus the caller's
    #: lateness in submitting it (see :meth:`at_speed`).
    service_ms: Dict[int, float] = field(default_factory=dict)
    #: Machine speed over the phase (see ``speed``); 1.0 when not read.
    speed: float = 1.0
    lags_ms: List[float] = field(default_factory=list)
    first_due: float = 0.0
    last_done: float = 0.0
    answered: int = 0
    #: Set when the window stopped early because more than 1% of its
    #: requests were already later than the latency limit when submitted —
    #: its p99 cannot meet the limit, and an overloaded window would
    #: otherwise spend seconds draining its backlog.
    aborted: bool = False

    def values(self) -> List[float]:
        return list(self.latencies_ms.values())

    def at_speed(self) -> List[float]:
        """Latencies with their service part scaled to nominal machine
        speed; the rest, time the caller spun with nothing to call (the
        flush deadline, gaps between arrivals), is kept as measured."""
        return [
            latency + self.service_ms[rid] * (self.speed - 1.0)
            for rid, latency in self.latencies_ms.items()
        ]


class Caller:
    """Sends a seeded request stream to one front end (cluster or fleet)."""

    def __init__(self, system, events: Iterator, audit: Audit) -> None:
        self.system = system
        self.events = events
        self.audit = audit
        self._phase: Optional[Phase] = None
        self._phase_start_rid = 0
        #: Seconds spent inside front-end calls so far, and its value when
        #: each outstanding phase request fell due.
        self._busy_s = 0.0
        self._busy_at_due: Dict[int, float] = {}
        #: Resident set size after every slice and window.
        self.rss_samples: List[float] = []

    def _call(self, method, *args, work: bool = False) -> None:
        """Call the front end and collect the answers it returns.  A call
        that answers something, or submits a request (``work``), is time
        the front end spent working; an empty poll is the caller spinning."""
        start = clock()
        results = method(*args)
        if results or work:
            self._busy_s += clock() - start
        self._collect(results)

    def _collect(self, results) -> None:
        if not results:
            return
        now = clock()
        phase = self._phase
        for ranking in results:
            rid = self.audit.answer(ranking)
            if rid is None or phase is None:
                continue
            if rid >= self._phase_start_rid:
                latency_s = now - self.audit.due[rid]
                busy_s = self._busy_s - self._busy_at_due.pop(rid)
                phase.latencies_ms[rid] = latency_s * 1000.0
                phase.service_ms[rid] = min(latency_s, busy_s) * 1000.0
                phase.answered += 1
                phase.last_done = now

    def _next(self) -> Tuple[int, int]:
        event = next(self.events)
        return event.user, event.query_category

    def _submit(self, due: float) -> None:
        user, category = self._next()
        rid = self.audit.submit(user, category, due)
        if self._phase is not None:
            # A caller running late was inside an earlier call at the due
            # time: its lateness counts as the front end's work.
            self._busy_at_due[rid] = self._busy_s - (clock() - due)
        self._call(self.system.submit, user, category, work=True)

    def _poll(self) -> None:
        self._call(self.system.poll)

    def _drain(self, phase_rids: int) -> None:
        """Poll until the phase's outstanding answers arrive, then flush."""
        deadline = clock() + DRAIN_TIMEOUT_S
        while self.audit.outstanding and clock() < deadline:
            self._poll()
            if self._phase is not None and self._phase.answered >= phase_rids:
                break
        self._call(self.system.flush)

    # ------------------------------------------------------------------
    def warmup(self, requests: int) -> None:
        """Back-to-back requests whose timings are discarded."""
        for _ in range(requests):
            self._poll()
            self._submit(clock())
        self._call(self.system.flush)

    def closed_loop(self, seconds: float) -> float:
        """Back-to-back submissions from one caller for ``seconds``; returns
        answered requests per second."""
        before = self.audit.answered_total
        start = clock()
        stop = start + seconds
        while clock() < stop:
            self._poll()
            self._submit(clock())
        self._call(self.system.flush)
        rate = (self.audit.answered_total - before) / (clock() - start)
        self.rss_samples.append(rss_mb())
        return rate

    def open_loop(
        self, rate: float, seconds: float, rng: np.random.Generator, limit_ms: float
    ) -> Phase:
        """Poisson arrivals at ``rate`` for ``seconds``, each request timed
        from its due time.  The arrival count is fixed at ``rate * seconds``
        and the arrival instants are uniform order statistics — a Poisson
        process conditioned on its count."""
        count = max(1, int(round(rate * seconds)))
        late_allowed = count // 100 + 1
        late = 0
        offsets = np.sort(rng.uniform(0.0, seconds, size=count))
        phase = Phase(rate=rate, seconds=seconds)
        self._phase = phase
        self._phase_start_rid = self.audit.submitted
        self._busy_at_due = {}
        start = clock() + 0.001
        phase.first_due = start
        for offset in offsets:
            due = start + float(offset)
            # Poll before every submission, late or not: the deadline trigger
            # then fires as it does in the closed loop, and a caller running
            # behind cannot grow batches past it.  Spin rather than sleep
            # until the due time: on a shared virtual machine an idle vCPU
            # can take milliseconds to wake, which would charge the host's
            # wake-up latency to the service.
            self._poll()
            while clock() < due:
                self._poll()
            lag_ms = (clock() - due) * 1000.0
            phase.lags_ms.append(lag_ms)
            self._submit(due)
            if lag_ms > limit_ms:
                late += 1
                if late > late_allowed:
                    phase.aborted = True
                    break
        self._drain(count)
        self._phase = None
        self.rss_samples.append(rss_mb())
        return phase


def phase_passes(phase: Phase, limit_ms: float) -> bool:
    """A window passes when every request was answered, its p99 meets the
    limit, and no backlog grew: the median latency of its last quarter of
    requests (in submission order) exceeds that of its first quarter by at
    most a quarter of the limit.  The growth test catches an overload that
    is too short-lived to push p99 over the limit within one window."""
    expected = max(1, int(round(phase.rate * phase.seconds)))
    if phase.aborted or len(phase.latencies_ms) < expected:
        return False
    values = [phase.latencies_ms[rid] for rid in sorted(phase.latencies_ms)]
    quarter = max(1, len(values) // 4)
    growth = float(np.median(values[-quarter:]) - np.median(values[:quarter]))
    return percentile(values, 99) <= limit_ms and growth <= limit_ms / 4


def achieved_qps(phase: Phase) -> float:
    """Answered requests per second from the rung's start to its last answer."""
    span = phase.last_done - phase.first_due
    return phase.answered / span if span > 0 else 0.0
