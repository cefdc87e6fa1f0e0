"""The workloads: definitions, serving passes and correctness checks.

Every workload drives a real front end built by ``build_fleet`` from one
caller, for fixed shares of ``--seconds``:

* **closed loop** — requests back to back, in short chunks between
  machine-speed readings; ``qps_max`` is the median of the chunks'
  answered-per-second, each scaled to nominal machine speed (see
  :mod:`speed`, which also scales ``setup_s`` and ``cycle_s``);
* **open loop at ``rate_qps``** — Poisson arrivals timed from each
  request's due time; ``p50_ms`` / ``p90_ms`` are percentiles over all the
  windows' requests, each latency's service part (time the front end
  spent working while the request was outstanding) scaled to nominal
  machine speed.  p99 is the per-layer metric ``loadgen.p99_ms``, not a
  gated one: on a shared 2-vCPU machine stalls of the host put its
  run-to-run spread above any bound the benchmark may set;
* **rate ladder** — rungs at fixed fractions of the run's measured
  closed-loop rate, bisected for the highest one whose p99 meets
  ``latency_limit_ms`` with no growing backlog; ``sustained_qps`` is that
  rung's rate, so it follows the program's capacity.  It is in every run's
  details and is the per-layer metric ``loadgen.sustained_qps``, not a
  gated one: on a shared 2-vCPU machine its run-to-run spread exceeds any
  bound the benchmark may set.

Closed-loop slices and ``rate_qps`` windows alternate across the run, so a
slow spell of the machine lands on a few windows of each kind and the
medians step over it.  ``refresh-drift`` runs its slices and windows
after each refresh cycle of ``OnlineLoop``, on the freshly swapped model
once set-up garbage is released and its cache is warm again.

``peak_rss_mb`` is the largest resident set sampled after each slice and
window while serving, once set-up garbage has been collected and trimmed:
the lifetime peak (in the details) is set by transient cascade-build
allocations the allocator keeps or returns unpredictably.

``search-zipf`` also runs a *process-fleet leg*: the same traffic through
``build_fleet(backend="process")``, checked for identity with the
in-process backend in every run and timed in traced runs.  The fleet's
end-to-end numbers are per-layer metrics here, not a gated workload: with
unpinned BLAS threads on two cores its workers oversubscribe the CPU and
its throughput and tails flip between modes for seconds at a time.
"""

from __future__ import annotations

import copy
import ctypes
import gc
import os
import resource
import tempfile
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

import speed
from caller import Audit, Caller, achieved_qps, clock, percentile, phase_passes
from fixtures import BENCH_DIR
from probes import Probes, Spans, mean, span
from repro.retrieval import CascadeConfig
from repro.serving import FleetConfig, FleetSupervisor, SearchEngine, ZipfLoadGenerator, build_fleet

NUM_SHARDS = 2
FLUSH_DEADLINE_MS = 5.0
CACHE_CAPACITY = 2048
WORK_DIR = BENCH_DIR / ".work"

CASCADE = CascadeConfig(
    retrieve_n=3072, prune=1280, nprobe=48, calibration_queries=256, calibration_items=512
)


@dataclass(frozen=True)
class Workload:
    name: str
    fixture: str
    zipf: float
    max_batch: int
    rate_qps: float
    latency_limit_ms: float
    #: Shares of ``--seconds`` for the closed loop, the ``rate_qps`` rung
    #: and the ladder search.
    shares: Tuple[float, float, float]
    #: Closed-loop slices and ``rate_qps`` windows (alternating).
    parts: int
    #: Untimed requests before measuring (refresh-drift: after every cycle).
    warmup: int
    #: Set-ups (and model swaps) per pass; the medians are reported.
    reps: int
    #: Responses re-ranked by the exhaustive oracle (recall@10).
    recall_checks: int
    holdout_sessions: int
    #: Prefixes of the per-layer metrics of layers this workload leaves
    #: idle.  They report 0; any other metric the traced pass did not
    #: produce is a broken probe and fails the run.
    idle: Tuple[str, ...]
    cascade: Optional[CascadeConfig] = None

    def fleet_config(self) -> FleetConfig:
        return FleetConfig(
            num_workers=NUM_SHARDS,
            seed=0,
            max_batch_size=self.max_batch,
            flush_deadline_ms=FLUSH_DEADLINE_MS,
            cache_capacity=CACHE_CAPACITY,
            cascade=self.cascade,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="search-zipf", fixture="small", zipf=1.1, max_batch=16,
            rate_qps=600.0, latency_limit_ms=100.0,
            shares=(0.3, 0.4, 0.3), parts=9, warmup=1000, reps=9, recall_checks=1000,
            holdout_sessions=1500, idle=("retrieval.", "trainer.", "online."),
        ),
        Workload(
            name="catalog-cascade", fixture="catalog", zipf=0.0, max_batch=8,
            rate_qps=40.0, latency_limit_ms=250.0,
            shares=(0.2, 0.6, 0.2), parts=8, warmup=40, reps=3, recall_checks=300,
            holdout_sessions=2000, idle=("fleet.", "slabs.", "trainer.", "online."),
            cascade=CASCADE,
        ),
        Workload(
            name="refresh-drift", fixture="refresh", zipf=1.1, max_batch=16,
            rate_qps=600.0, latency_limit_ms=100.0,
            shares=(0.3, 0.3, 0.2), parts=10, warmup=1000, reps=7, recall_checks=1000,
            holdout_sessions=1500, idle=("retrieval.", "fleet.", "slabs."),
        ),
    )
}

#: Ladder rungs as fractions of the run's ``qps_max``, 0.25 to 1.75 in steps
#: of 0.05.  Bisection over 2**5 - 1 rungs probes exactly five of them.
LADDER_FRACTIONS = tuple(round(0.25 + 0.05 * k, 2) for k in range(31))
LADDER_PROBES = 5

#: Closed-loop chunk between two machine-speed readings (see :mod:`speed`):
#: short enough that the machine's speed barely moves within one.
CHUNK_S = 0.25

#: refresh-drift: cycles per run, queries per serving window, drift knobs.
REFRESH_CYCLES = 5
REFRESH_WINDOW = 2000
REFRESH_DRIFT = {"interest_drift": 0.1, "trend_drift": 0.3}

#: search-zipf's process-fleet leg: set-ups, identity sample, open-loop
#: rate and the shares of ``--seconds`` its traced closed loop and rate
#: rung take.
FLEET_REPS = 3
FLEET_IDENTITY_REQUESTS = 600
FLEET_RATE_QPS = 200.0
FLEET_SHARES = (0.15, 0.2)


def rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def probe_request(world) -> Tuple[int, int]:
    """The fixed request a set-up must answer before it counts as servable."""
    return 0, int(np.argmax(world.user_interests[0]))


def answer_probe(system, probe) -> None:
    results = system.submit(*probe) + system.flush()
    if len(results) != 1:
        raise RuntimeError(f"probe request answered {len(results)} times")


def stop(system) -> None:
    if isinstance(system, FleetSupervisor):
        system.stop()


def cpu_seconds(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def cpu_mark() -> Tuple[float, float, float]:
    return cpu_seconds(resource.RUSAGE_SELF), cpu_seconds(resource.RUSAGE_CHILDREN), clock()


def cpu_since(mark, requests: int) -> Dict[str, float]:
    """CPU of this process and of reaped children since ``mark``."""
    self_cpu = cpu_seconds(resource.RUSAGE_SELF) - mark[0]
    child_cpu = cpu_seconds(resource.RUSAGE_CHILDREN) - mark[1]
    requests = max(1, requests)
    return {
        "parent_ms_per_req": self_cpu * 1000.0 / requests,
        "worker_ms_per_req": child_cpu * 1000.0 / requests,
        "util": (self_cpu + child_cpu) / max(1e-9, clock() - mark[2]),
    }


def worker_peak_rss_mb(system) -> float:
    """Sum of the fleet workers' peak RSS (``VmHWM``), 0 in-process."""
    if not isinstance(system, FleetSupervisor):
        return 0.0
    total = 0.0
    for row in system.worker_status():
        try:
            with open(f"/proc/{row['pid']}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += float(line.split()[1]) / 1024.0
        except (OSError, TypeError):
            pass
    return total


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def release_set_up_garbage() -> None:
    """Collect set-up garbage and hand freed heap pages back to the OS, so
    the serving-time RSS does not depend on what the allocator kept from
    building and discarding earlier front ends."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


# ----------------------------------------------------------------------
# set-up and load phases shared by every workload
# ----------------------------------------------------------------------
def set_up(wl: Workload, world, model, backend: str, spans: Spans, reps: int):
    """Build the front end ``reps`` times, each until the probe request is
    answered; keeps the last one.  Returns ``(system, timings)``, one
    ``(seconds, machine speed)`` pair per build."""
    probe = probe_request(world)
    name = "fleet.build" if backend == "process" else "cluster.build"
    system, setups = None, []
    for _ in range(reps):
        if system is not None:
            stop(system)
            # Free the discarded front end now, outside the timed region,
            # so its garbage neither lands in a later timing nor in the
            # peak RSS at a moment that depends on when GC happens to run.
            system = None
            gc.collect()
        before = speed.reading()
        start = clock()
        with span(spans, name):
            system = build_fleet(world, model, wl.fleet_config(), backend=backend)
        answer_probe(system, probe)
        setups.append((clock() - start, (before + speed.reading()) / 2.0))
    return system, setups


def swap_cycles(system, model, probe, reps: int) -> List[Tuple[float, float]]:
    """Hot-swap a refreshed model in ``reps`` times, each until the probe
    request is answered by the new version; one ``(seconds, machine speed)``
    pair per swap."""
    cycles = []
    for rep in range(reps):
        def swap():
            system.swap_model(model, f"refresh-{rep}")
            answer_probe(system, probe)

        _, seconds, at_speed = speed.timed(swap)
        cycles.append((seconds, at_speed))
        gc.collect()
    return cycles


def at_nominal_s(timings: List[Tuple[float, float]]) -> float:
    """Median duration scaled to the reference's nominal speed
    (see :mod:`speed`)."""
    return float(np.median([seconds * at_speed for seconds, at_speed in timings]))


def raw_s(timings: List[Tuple[float, float]]) -> List[float]:
    return [seconds for seconds, _ in timings]


def summarize_rung(rate: float, windows: List, limit_ms: float) -> Dict:
    """Verdict and latency percentiles of one rate.  ``p50_ms`` and
    ``p90_ms`` pool every window's requests, at nominal machine speed
    (``Phase.at_speed``) where the windows' speed was read: a
    ``catalog-cascade`` window holds only about 36 requests, too few for a
    steady p90 of its own."""
    verdicts = [phase_passes(window, limit_ms) for window in windows]
    at_speed = [v for w in windows for v in w.at_speed()]
    measured = [v for w in windows for v in w.values()]
    return {
        "rate_qps": rate,
        "passed": sum(verdicts) * 2 > len(verdicts),
        "p50_ms": percentile(at_speed, 50),
        "p90_ms": percentile(at_speed, 90),
        "p50_ms_measured": percentile(measured, 50),
        "p90_ms_measured": percentile(measured, 90),
        "window_speeds": [w.speed for w in windows],
        "p99_ms": float(np.median([percentile(w.values(), 99) for w in windows])),
        "achieved_qps": float(np.median([achieved_qps(w) for w in windows])),
        "samples": sum(len(w.values()) for w in windows),
        "lag_p99_ms": float(np.median([percentile(w.lags_ms, 99) for w in windows])),
        "p90_windows_ms": [percentile(w.values(), 90) for w in windows],
        "p99_windows_ms": [percentile(w.values(), 99) for w in windows],
        "p99_pooled_ms": percentile([v for w in windows for v in w.values()], 99),
    }


def alternate(caller: Caller, wl: Workload, seconds: float, arrivals, parts: int):
    """``parts`` closed-loop slices alternating with ``rate_qps`` windows.
    Each slice is cut into chunks of about ``CHUNK_S``, and a machine-speed
    reading sits between any two consecutive chunks or windows; a chunk's or
    window's speed is the mean of the readings on either side of it.
    Returns ``(chunks, windows)``, one ``(answered per second, machine
    speed)`` pair per chunk."""
    slice_s = seconds * wl.shares[0] / wl.parts
    count = max(1, int(round(slice_s / CHUNK_S)))
    slices, windows, before = [], [], speed.reading()
    for _ in range(parts):
        for _ in range(count):
            rate = caller.closed_loop(slice_s / count)
            after = speed.reading()
            slices.append((rate, (before + after) / 2.0))
            before = after
        window = caller.open_loop(
            wl.rate_qps, seconds * wl.shares[1] / wl.parts, arrivals, wl.latency_limit_ms
        )
        after = speed.reading()
        window.speed = (before + after) / 2.0
        windows.append(window)
        before = after
    return slices, windows


def summarize_load(
    caller: Caller,
    wl: Workload,
    slices: List[Tuple[float, float]],
    windows: List,
    seconds: float,
    arrivals,
) -> Dict:
    """Summarize the alternating phases, then bisect ``LADDER_FRACTIONS`` of
    the measured closed-loop rate for the highest rung that passes:
    ``sustained_qps`` is that rung's rate, so it follows the program's
    capacity rather than a fixed constant.  ``qps_max`` is the slices'
    median rate scaled to the reference's nominal speed (see :mod:`speed`);
    the ladder is built on the rate as measured."""
    qps_max = float(np.median([rate / at_speed for rate, at_speed in slices]))
    measured_qps = float(np.median([rate for rate, _ in slices]))
    at_rate = summarize_rung(wl.rate_qps, windows, wl.latency_limit_ms)
    rung_seconds = seconds * wl.shares[2] / LADDER_PROBES
    low, high, rungs = -1, len(LADDER_FRACTIONS), []
    while high - low > 1:
        mid = (low + high) // 2
        rate = LADDER_FRACTIONS[mid] * measured_qps
        # One long window per rung, so the backlog test of ``phase_passes``
        # sees an overload of a few percent.
        windows = [caller.open_loop(rate, rung_seconds, arrivals, wl.latency_limit_ms)]
        if not phase_passes(windows[0], wl.latency_limit_ms):
            # A stall of a shared machine can fail one window far below
            # capacity and send the bisection into the wrong half, so a rung
            # fails only when a second window fails too.
            windows.append(caller.open_loop(rate, rung_seconds, arrivals, wl.latency_limit_ms))
        rungs.append(summarize_rung(rate, windows, wl.latency_limit_ms))
        passed = phase_passes(windows[-1], wl.latency_limit_ms)
        rungs[-1].update(fraction=LADDER_FRACTIONS[mid], passed=passed)
        if rungs[-1]["passed"]:
            low = mid
        else:
            high = mid
    return {
        "qps_max": qps_max,
        "p50_ms": at_rate["p50_ms"],
        "p90_ms": at_rate["p90_ms"],
        "p99_ms": at_rate["p99_ms"],
        "measured_qps": measured_qps,
        "sustained_qps": LADDER_FRACTIONS[low] * measured_qps if low >= 0 else 0.0,
        "latency_samples": at_rate["samples"],
        "lag_p99_ms": at_rate["lag_p99_ms"],
        "at_rate": at_rate,
        "ladder": rungs,
    }


def cache_stats(system) -> Dict[str, float]:
    """Gate / behaviour cache hits and lookups since the last reset."""
    out = {"gate_hits": 0, "gate_lookups": 0, "behavior_hits": 0, "behavior_lookups": 0}
    for worker in system.workers:
        gates, behaviors = worker.cache.gates.stats, worker.cache.behaviors.stats
        out["gate_hits"] += gates.hits
        out["gate_lookups"] += gates.hits + gates.misses
        out["behavior_hits"] += behaviors.hits
        out["behavior_lookups"] += behaviors.hits + behaviors.misses
    return out


def reset_serving_stats(system) -> None:
    for worker in system.workers:
        worker.cache.reset_stats()
        worker.engine.reset_stats()


# ----------------------------------------------------------------------
# serving passes: search-zipf and catalog-cascade
# ----------------------------------------------------------------------
def start_serving(
    wl: Workload, fx: Dict, seed: int, backend: str, spans: Spans, reps: int, keep: int
):
    """Set a front end up and hot-swap it ``reps`` times each, release the
    set-up garbage, and attach a caller with the seeded traffic.  Returns
    ``(system, caller, set-up seconds, swap seconds, CPU mark)``."""
    world, model = fx["world"], fx["model"]
    system, setups = set_up(wl, world, model, backend, spans, reps)
    mark = cpu_mark()
    swaps = swap_cycles(system, model, probe_request(world), reps)
    release_set_up_garbage()
    events = ZipfLoadGenerator(rng(seed, 1), world=world, zipf_exponent=wl.zipf).events(10**9)
    audit = Audit(keep=keep)
    audit.on_submit = lambda rid: setattr(spans, "current_rid", rid)
    return system, Caller(system, events, audit), setups, swaps, mark


def serving_pass(wl: Workload, fx: Dict, seed: int, seconds: float, spans: Spans) -> Dict:
    """One measured pass over the in-process cluster."""
    system, caller, setups, cycles, mark = start_serving(
        wl, fx, seed, "inprocess", spans, wl.reps, wl.recall_checks
    )
    caller.warmup(wl.warmup)
    reset_serving_stats(system)
    arrivals = rng(seed, 2)
    slices, windows = alternate(caller, wl, seconds, arrivals, wl.parts)
    load = summarize_load(caller, wl, slices, windows, seconds, arrivals)
    spans.current_rid = -1
    return finish_pass(
        wl,
        system,
        caller,
        mark,
        holdout=(fx["world"], seed),
        e2e={"setup_s": at_nominal_s(setups), "cycle_s": at_nominal_s(cycles)},
        load=load,
        details=speed_details(setups, cycles, slices),
    )


def speed_details(setups, cycles, slices) -> Dict:
    """The raw timings behind the speed-scaled end-to-end metrics."""
    speeds = [s for _, s in setups] + [s for _, s in cycles] + [s for _, s in slices]
    return {
        "setup_s_measured": raw_s(setups),
        "cycle_s_measured": raw_s(cycles),
        "qps_slices_measured": [rate for rate, _ in slices],
        "machine_speed": {
            "setup": [s for _, s in setups],
            "cycle": [s for _, s in cycles],
            "slices": [s for _, s in slices],
            "median": float(np.median(speeds)),
        },
    }


def finish_pass(
    wl: Workload, system, caller: Caller, mark, holdout, e2e: Dict, load: Dict, details: Dict
) -> Dict:
    """Read a pass's caches, shards, memory and CPU, score the held-out
    sessions through the served model (``holdout`` is ``(world, seed)``),
    and stop the front end."""
    audit = caller.audit
    cache = cache_stats(system)
    shard_queries = [worker.engine.queries_served for worker in system.workers]
    cpu = cpu_since(mark, audit.submitted)
    e2e.update(
        qps_max=load["qps_max"],
        sustained_qps=load["sustained_qps"],
        p50_ms=load["p50_ms"],
        p90_ms=load["p90_ms"],
        peak_rss_mb=max(caller.rss_samples),
        holdout_auc=holdout_auc(system, *holdout, wl.holdout_sessions),
    )
    stop(system)
    details.update(
        lifetime_peak_rss_mb=self_peak_rss_mb(),
        rss_samples_mb=caller.rss_samples,
        latency_samples=load["latency_samples"],
        p99_ms=load["p99_ms"],
        at_rate=load["at_rate"],
        ladder=load["ladder"],
        lag_p99_ms=load["lag_p99_ms"],
        qps_max_measured=load["measured_qps"],
    )
    return {
        "audit": audit,
        "e2e": e2e,
        "details": details,
        "cache": cache,
        "shard_queries": shard_queries,
        "cpu": cpu,
    }


# ----------------------------------------------------------------------
# correctness checks and quality metrics
# ----------------------------------------------------------------------
def recall_at_10(world, model, rankings) -> float:
    """Mean recall of each served top-10 against the full model's top-10
    over every item of the query category (the exhaustive oracle)."""
    oracle = SearchEngine(
        world, model, np.random.default_rng(0), candidates_per_query=world.num_items + 1
    )
    recalls = []
    for ranking in rankings:
        best = oracle.search(int(ranking.user), int(ranking.query_category)).items[:10]
        served = set(int(item) for item in ranking.items[:10])
        recalls.append(sum(1 for item in best.tolist() if item in served) / best.size)
    return float(np.mean(recalls))


def holdout_auc(system, world, seed: int, sessions: int) -> float:
    """Session AUC of the served model on held-out sessions drawn from
    ``seed``, scored through the serving engine's compiled plan.  A traced
    pass's kernel profiler is detached meanwhile: held-out scoring is not
    serving."""
    from repro.data.synthetic import build_test_dataset, simulate_search_log
    from repro.eval import evaluate_ranking

    compiled = system.workers[0].engine.compiled_model
    if compiled is None:
        raise RuntimeError("the serving engine has no compiled plan")
    log = simulate_search_log(world, sessions, rng(seed, 3), start_session_id=10**7)
    profiler = compiled.profiler
    compiled.attach_profiler(None)
    try:
        return float(evaluate_ranking(compiled, build_test_dataset(log))["auc"])
    finally:
        compiled.attach_profiler(profiler)


def check_float64_twin(world, model, rankings) -> Dict:
    """Re-score served responses through the float64 eager twin: scores
    within 1e-4, and the served order sorted by twin score."""
    from repro.data.features import assemble_candidate_batch
    from repro.infer import float64_twin

    twin = float64_twin(model)
    twin.eval()
    worst, misordered = 0.0, 0
    for ranking in rankings:
        batch = assemble_candidate_batch(
            world, int(ranking.user), int(ranking.query_category), ranking.items
        )
        scores = np.asarray(twin.predict_proba(batch), dtype=np.float64)
        worst = max(worst, float(np.max(np.abs(scores - ranking.scores))))
        # The served order must be non-increasing in twin score.
        if np.any(np.diff(scores) > 0):
            misordered += 1
    return {
        "checked": len(rankings),
        "max_abs_diff": worst,
        "misordered": misordered,
        "ok": len(rankings) > 0 and worst <= 1e-4 and misordered == 0,
    }


def serve_in_order(system, keys, keep: int) -> Audit:
    """Submit ``keys`` back to back and collect every answer."""
    audit = Audit(keep=keep)
    for user, category in keys:
        audit.submit(user, category, 0.0)
        for ranking in system.submit(user, category):
            audit.answer(ranking)
    for ranking in system.flush():
        audit.answer(ranking)
    return audit


def check_fleet_identity(wl: Workload, fx: Dict, served: Audit, count: int) -> Dict:
    """The in-process backend, set up and swapped like the fleet, must rank
    the fleet's first ``count`` requests identically, scores within 1e-6."""
    world, model = fx["world"], fx["model"]
    reference = build_fleet(world, model, wl.fleet_config(), backend="inprocess")
    answer_probe(reference, probe_request(world))
    swap_cycles(reference, model, probe_request(world), FLEET_REPS)
    expected = serve_in_order(reference, served.keys[:count], keep=count)
    mismatched, worst = 0, 0.0
    for rid in range(count):
        got, want = served.kept.get(rid), expected.kept.get(rid)
        if got is None or want is None or not np.array_equal(got.items, want.items):
            mismatched += 1
            continue
        diff = np.abs(got.scores.astype(np.float64) - want.scores)
        worst = max(worst, float(np.max(diff / np.maximum(np.abs(want.scores), 1e-12))))
    return {
        "checked": count,
        "mismatched_rankings": mismatched,
        "max_rel_score_diff": worst,
        "ok": count > 0 and mismatched == 0 and worst <= 1e-6,
    }


def fleet_leg(wl: Workload, fx: Dict, seed: int, seconds: float, spans: Spans, timed: bool):
    """search-zipf's traffic through the process fleet.  Untimed runs check
    identity with the in-process backend; timed (traced) runs also measure
    the fleet's throughput, latency, round trips and CPU."""
    system, caller, setups, swaps, mark = start_serving(
        wl, fx, seed, "process", spans, FLEET_REPS, FLEET_IDENTITY_REQUESTS
    )
    audit = caller.audit
    caller.warmup(FLEET_IDENTITY_REQUESTS)
    out: Dict = {"audit": audit, "setup_s": setups, "swap_s": swaps}
    if timed:
        leg = replace(
            wl, rate_qps=FLEET_RATE_QPS, shares=FLEET_SHARES + (0.0,),
            latency_limit_ms=float("inf"),
        )
        slices, windows = alternate(caller, leg, seconds, rng(seed, 2), leg.parts)
        out.update(qps_slices=slices, rung=summarize_rung(FLEET_RATE_QPS, windows, float("inf")))
    spans.current_rid = -1
    system.refresh_reports()
    out["worker_latency_p50_ms"] = system.merged_metrics().percentile(50)
    out["restarts"] = system.restarts_total
    out["peak_rss_mb"] = self_peak_rss_mb() + worker_peak_rss_mb(system)
    stop(system)
    out["cpu"] = cpu_since(mark, audit.submitted)
    if not timed:
        out["identity"] = check_fleet_identity(wl, fx, audit, FLEET_IDENTITY_REQUESTS)
    return out


# ----------------------------------------------------------------------
# runners
# ----------------------------------------------------------------------
def traced_pass(pass_fn, *args):
    """Run ``pass_fn`` again with every probe installed and recording."""
    spans = Spans()
    probes = Probes(spans)
    probes.install()
    spans.active = True
    try:
        result = pass_fn(*args, spans)
    finally:
        spans.active = False
        probes.uninstall()
    return result, spans, probes


def run_serving(wl: Workload, fx: Dict, seed: int, seconds: float, traced: bool) -> Dict:
    """Untraced pass plus checks; with ``traced`` a second, traced pass
    supplies the per-layer metrics."""
    world, model = fx["world"], fx["model"]
    timings = {}
    start = clock()
    first = serving_pass(wl, fx, seed, seconds, Spans())
    timings["pass_s"] = clock() - start
    audit = first["audit"]
    kept = [audit.kept[rid] for rid in sorted(audit.kept)]
    checks = {}
    start = clock()
    first["e2e"]["recall_at_10"] = recall_at_10(world, model, kept)
    timings["recall_s"] = clock() - start
    if wl.name == "search-zipf":
        start = clock()
        checks["float64_twin"] = check_float64_twin(world, model, kept[:64])
        leg = fleet_leg(wl, fx, seed, seconds, Spans(), timed=False)
        checks["fleet_identity"] = leg["identity"]
        first["fleet_audit"] = leg["audit"]
        timings["twin_and_fleet_s"] = clock() - start
    first["details"]["timings"] = timings
    if wl.cascade is not None:
        checks["recall_floor"] = {
            "recall_at_10": first["e2e"]["recall_at_10"],
            "queries": len(kept),
            "ok": first["e2e"]["recall_at_10"] >= 0.95,
        }
    result = {"first": first, "checks": checks}
    if traced:
        def both(wl_, fx_, seed_, seconds_, spans):
            second = serving_pass(wl_, fx_, seed_, seconds_, spans)
            if wl_.name == "search-zipf":
                second["fleet"] = fleet_leg(wl_, fx_, seed_, seconds_, spans, timed=True)
            return second

        second, spans, probes = traced_pass(both, wl, fx, seed, seconds)
        second["e2e"]["recall_at_10"] = first["e2e"]["recall_at_10"]
        result.update(second=second, spans=spans, probes=probes)
    return result


def split_cycle(drift_s: float, start: float, end: float, mid, before: float, after: float):
    """One refresh cycle's ``(seconds, machine speed)``.  ``mid`` is the
    ``(start, speed, seconds)`` of the reading taken inside the cycle after
    serving: drift and serving run at the mean of the readings before and
    in the middle, learning and swapping at the mean of those in the middle
    and after, and the cycle's speed is their time-weighted mean."""
    mid_start, mid_speed, mid_s = mid
    first = drift_s + mid_start - start
    second = end - mid_start - mid_s
    seconds = first + second
    weighted = first * (before + mid_speed) / 2.0 + second * (mid_speed + after) / 2.0
    return seconds, weighted / seconds


def refresh_pass(wl: Workload, fx: Dict, seed: int, seconds: float, spans: Spans) -> Dict:
    """Set-up (cluster, loop, bootstrap), refresh cycles on a drifting
    world, then the open-loop phases on the refreshed cluster.  The on-disk
    registries live in a temporary directory inside the checkout."""
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="refresh-", dir=str(WORK_DIR)) as work:
        return _refresh_pass(wl, fx, seed, seconds, spans, work)


def _refresh_pass(
    wl: Workload, fx: Dict, seed: int, seconds: float, spans: Spans, work: str
) -> Dict:
    from repro.core import ModelConfig, TrainConfig, build_model
    from repro.data import drift_world
    from repro.online import (
        CanaryGate, IncrementalTrainer, ModelRegistry, OnlineLoop, PositionBiasedClickModel,
    )

    world = copy.deepcopy(fx["world"])
    meta, seed_model = fx["meta"], fx["model"]
    probe = probe_request(world)
    refresh_config = TrainConfig(epochs=2, batch_size=128, learning_rate=1.5e-3)
    factory_rng = rng(seed, 5)

    def factory():
        return build_model("aw_moe", ModelConfig.small(), meta, factory_rng)

    setups, loop = [], None
    for rep in range(wl.reps):
        serving_copy, training_copy = copy.deepcopy(seed_model), copy.deepcopy(seed_model)
        registry_dir = os.path.join(work, f"registry-{rep}")
        loop = cluster = None
        gc.collect()
        before = speed.reading()
        start = clock()
        with span(spans, "cluster.build"):
            cluster = build_fleet(world, serving_copy, wl.fleet_config(), backend="inprocess")
        loop = OnlineLoop(
            world=world,
            cluster=cluster,
            trainer=IncrementalTrainer(training_copy, refresh_config, seed=seed),
            model_factory=factory,
            registry=ModelRegistry(registry_dir),
            canary=CanaryGate(tolerance=0.02),
            click_model=PositionBiasedClickModel(world, rng(seed, 6)),
            seed=seed,
        )
        loop.bootstrap()
        answer_probe(cluster, probe)
        setups.append((clock() - start, (before + speed.reading()) / 2.0))

    release_set_up_garbage()
    mark = cpu_mark()
    audit = Audit()
    audit.on_submit = lambda rid: setattr(spans, "current_rid", rid)
    serve_rates: List[float] = []
    mid_readings: List[Tuple[float, float, float]] = []
    serve = loop.serve_and_log

    def audited_serve(events):
        for event in events:
            audit.submit(event.user, event.query_category, clock())
        start = clock()
        results = serve(events)
        serve_rates.append(len(results) / (clock() - start))
        for ranking in results:
            audit.answer(ranking)
        # A machine-speed reading between serving and learning splits the
        # cycle in two; its own time is taken out of the cycle's.
        reading_start = clock()
        at_speed = speed.reading()
        mid_readings.append((reading_start, at_speed, clock() - reading_start))
        return results

    loop.serve_and_log = audited_serve
    cluster = loop.cluster
    events = ZipfLoadGenerator(rng(seed, 1), world=world, zipf_exponent=wl.zipf).events(10**9)
    caller = Caller(cluster, events, audit)
    arrivals, drift_rng = rng(seed, 2), rng(seed, 4)
    cycles, registered, slices, windows = [], [], [], []
    for cycle in range(REFRESH_CYCLES):
        before = speed.reading()
        start = clock()
        drift_world(world, drift_rng, **REFRESH_DRIFT)
        drift_s = clock() - start
        window_events = ZipfLoadGenerator(
            rng(seed, 10 + cycle), world=world, zipf_exponent=wl.zipf
        ).generate(REFRESH_WINDOW)
        start = clock()
        report = loop.run_cycle(window_events)
        end = clock()
        after = speed.reading()
        cycles.append(split_cycle(drift_s, start, end, mid_readings[-1], before, after))
        registered.append(report.candidate_version is not None)
        # Measure every cycle's model from the same state, whether the cycle
        # swapped in a new model (cold cache) or kept the old one: training
        # garbage released, cache warm.
        release_set_up_garbage()
        caller.warmup(wl.warmup)
        if cycle == REFRESH_CYCLES - 1:
            # Responses of the final production model feed the recall check.
            audit.keep, audit.keep_from = wl.recall_checks, audit.submitted
            reset_serving_stats(cluster)
        more_slices, more_windows = alternate(
            caller, wl, seconds, arrivals, wl.parts // REFRESH_CYCLES
        )
        slices += more_slices
        windows += more_windows
    load = summarize_load(caller, wl, slices, windows, seconds, arrivals)
    spans.current_rid = -1
    result = finish_pass(
        wl,
        cluster,
        caller,
        mark,
        holdout=(world, seed),
        e2e={"setup_s": at_nominal_s(setups), "cycle_s": at_nominal_s(cycles)},
        load=load,
        details={
            **speed_details(setups, cycles, slices),
            "serve_window_qps": serve_rates,
            "cycles": [report.summary() for report in loop.reports],
        },
    )
    result.update(world=world, model=loop.production_model, registered=registered)
    return result


def run_refresh(wl: Workload, fx: Dict, seed: int, seconds: float, traced: bool) -> Dict:
    start = clock()
    first = refresh_pass(wl, fx, seed, seconds, Spans())
    timings = {"pass_s": clock() - start}
    audit, world, model = first["audit"], first["world"], first["model"]
    kept = [audit.kept[rid] for rid in sorted(audit.kept)]
    start = clock()
    first["e2e"]["recall_at_10"] = recall_at_10(world, model, kept)
    timings["recall_s"] = clock() - start
    first["details"]["timings"] = timings
    checks = {
        "every_cycle_registers": {
            "cycles": len(first["registered"]),
            "registered": sum(first["registered"]),
            "ok": len(first["registered"]) == REFRESH_CYCLES and all(first["registered"]),
        }
    }
    result = {"first": first, "checks": checks}
    if traced:
        second, spans, probes = traced_pass(refresh_pass, wl, fx, seed, seconds)
        second["e2e"]["recall_at_10"] = first["e2e"]["recall_at_10"]
        result.update(second=second, spans=spans, probes=probes)
    return result


def run(name: str, fx: Dict, seed: int, seconds: float, traced: bool) -> Dict:
    wl = WORKLOADS[name]
    if wl.name == "refresh-drift":
        return run_refresh(wl, fx, seed, seconds, traced)
    return run_serving(wl, fx, seed, seconds, traced)


def cleanup_work_dir() -> None:
    if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
        os.rmdir(WORK_DIR)


# ----------------------------------------------------------------------
# per-layer metrics of a traced pass
# ----------------------------------------------------------------------
def layer_metrics(result: Dict) -> Dict[str, float]:
    """Every per-layer value the traced pass measured.  A value whose spans,
    counters or samples were never recorded is left out rather than read as
    0, and so is every metric of a layer that did no work;
    :func:`missing_layer_metrics` tells an idle layer from a broken probe."""
    spans: Spans = result["spans"]
    probes: Probes = result["probes"]
    second = result["second"]
    table = spans.layer_table()
    counters, samples = spans.counters, spans.samples

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def total_s(name):
        return table.get(name, {}).get("total_s", 0.0)

    def per_call_ms(name, key="total_s"):
        row = table.get(name)
        return row[key] * 1000.0 / row["calls"] if row and row["calls"] else None

    def median_s(values):
        return float(np.median(values)) if len(values) else None

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else None

    def pct(values, q):
        return percentile(values, q) if len(values) else None

    out: Dict[str, float] = {}
    # repro.data.features
    assembles = calls("features.assemble")
    out["features.assemble_ms"] = per_call_ms("features.assemble")
    out["features.assemble_calls"] = assembles or None
    out["features.encode_ms"] = per_call_ms("features.encode")
    out["features.rows_per_query"] = ratio(counters["features.rows"], assembles)
    out["features.bytes_per_query"] = ratio(counters["features.bytes"], assembles)
    # repro.infer
    out["infer.compile_s"] = median_s(spans.durations("infer.compile"))
    out["infer.score_ms"] = per_call_ms("infer.score")
    out["infer.score_rows"] = ratio(counters["infer.score_rows"], calls("infer.score"))
    out["infer.score_us_per_row"] = ratio(total_s("infer.score") * 1e6, counters["infer.score_rows"])
    out["infer.gate_ms"] = per_call_ms("infer.gate")
    out["infer.gate_rows"] = ratio(counters["infer.gate_rows"], calls("infer.gate"))
    out["infer.flops_per_row"] = counters.get("infer.flops_per_row")
    for row in probes.profiler.report():
        out[f"infer.kernel.{row['step']}_ms"] = ratio(row["total_ms"], row["calls"])
    # repro.retrieval
    builds = spans.durations("retrieval.build")
    if builds or calls("retrieval.stage1"):
        out["retrieval.gate_ms"] = per_call_ms("retrieval.gate")
        out["retrieval.stage1_ms"] = per_call_ms("retrieval.stage1")
        out["retrieval.prefilter_ms"] = per_call_ms("retrieval.prefilter")
        out["retrieval.survivors_per_query"] = ratio(
            counters["retrieval.survivors"], calls("retrieval.prefilter")
        )
        out["retrieval.build_s"] = median_s(builds)
        if calls("retrieval.kmeans"):
            out["retrieval.kmeans_s"] = ratio(total_s("retrieval.kmeans"), len(builds))
    # repro.serving.cache
    cache = second["cache"]
    out["cache.gate_hit_rate"] = ratio(cache["gate_hits"], cache["gate_lookups"])
    out["cache.gate_lookups"] = cache["gate_lookups"] or None
    out["cache.behavior_hit_rate"] = ratio(cache["behavior_hits"], cache["behavior_lookups"])
    out["cache.behavior_lookups"] = cache["behavior_lookups"] or None
    # repro.serving.batcher / cluster
    waits, sizes = samples["batcher.queue_wait"], samples["batcher.batch_size"]
    out["batcher.submit_self_ms"] = per_call_ms("batcher.submit", "self_s")
    out["batcher.flush_self_ms"] = per_call_ms("batcher.flush", "self_s")
    out["batcher.queue_wait_p50_ms"] = pct(waits, 50)
    out["batcher.queue_wait_p99_ms"] = pct(waits, 99)
    out["batcher.batch_size_mean"] = mean(sizes) if sizes else None
    out["batcher.flushes"] = len(sizes) or None
    shard_counts = second["shard_queries"]
    out["cluster.busiest_shard_share"] = ratio(max(shard_counts), sum(shard_counts))
    # repro.serving.fleet / repro.infer.slabs (search-zipf's fleet leg)
    fleet = second.get("fleet")
    if fleet is not None:
        round_trips = [d * 1000.0 for d in spans.durations("fleet.submit")]
        rung = fleet["rung"]
        out["fleet.qps_max"] = median_s([rate for rate, _ in fleet["qps_slices"]])
        out["fleet.p50_ms"] = rung["p50_ms_measured"]
        out["fleet.p99_ms"] = rung["p99_ms"]
        out["fleet.latency_samples"] = rung["samples"]
        out["fleet.submit_p50_ms"] = pct(round_trips, 50)
        out["fleet.submit_p99_ms"] = pct(round_trips, 99)
        out["fleet.worker_cpu_ms_per_req"] = fleet["cpu"]["worker_ms_per_req"]
        out["fleet.parent_cpu_ms_per_req"] = fleet["cpu"]["parent_ms_per_req"]
        out["fleet.cpu_util"] = fleet["cpu"]["util"]
        out["fleet.worker_latency_p50_ms"] = fleet["worker_latency_p50_ms"]
        out["fleet.restarts"] = fleet["restarts"]
        out["fleet.duplicates"] = fleet["audit"].duplicates
        out["fleet.peak_rss_mb"] = fleet["peak_rss_mb"]
        out["fleet.swap_s"] = median_s(raw_s(fleet["swap_s"]))
        spawn = [
            spans.end[i] - spans.start[i] - spans.child_seconds(i)
            for i, name in enumerate(spans.name)
            if name == "fleet.build"
        ]
        out["fleet.spawn_s"] = median_s(spawn)
        out["slabs.publish_s"] = median_s(spans.durations("slabs.publish"))
        out["slabs.bytes"] = median_s(samples["slabs.bytes"])
    # repro.core.trainer / repro.online
    if calls("online.cycle"):
        out["trainer.step_ms"] = per_call_ms("trainer.step")
        out["trainer.rows_per_s"] = ratio(counters["trainer.rows"], total_s("online.update"))
        for name in ("update", "serve_log", "read_new", "canary", "register"):
            ms = per_call_ms(f"online.{name}")
            out[f"online.{name}_s"] = ms / 1000.0 if ms is not None else None
        out["online.swap_s"] = mean(
            [
                spans.end[i] - spans.start[i]
                for i, name in enumerate(spans.name)
                if name == "cluster.swap" and spans.under(i, "online.cycle")
            ]
        )
    # load generator and process
    out["loadgen.lag_p99_ms"] = second["details"]["lag_p99_ms"]
    out["loadgen.latency_samples"] = second["details"]["latency_samples"]
    out["loadgen.p99_ms"] = second["details"]["p99_ms"]
    out["loadgen.sustained_qps"] = second["e2e"]["sustained_qps"]
    out["proc.cpu_util"] = second["cpu"]["util"]
    out["machine.speed"] = second["details"]["machine_speed"]["median"]
    out["loadgen.qps_max_measured"] = second["details"]["qps_max_measured"]
    return {name: value for name, value in out.items() if value is not None}


def missing_layer_metrics(wl: Workload, declared, measured: Dict[str, float]):
    """Split the declared per-layer metrics the traced pass did not produce
    into ``(idle, missing)``: idle ones belong to a layer the workload
    leaves idle; missing ones point at a broken probe (a renamed target, a
    plan step that no longer runs) and fail the run."""
    absent = [name for name in declared if name not in measured]
    idle = [name for name in absent if name.startswith(wl.idle)]
    return idle, [name for name in absent if name not in idle]


def self_time_table(spans: Spans) -> List[Dict]:
    """Per-layer self time, largest first (printed with the traced run)."""
    rows = [
        {
            "span": name,
            "calls": int(row["calls"]),
            "self_ms": round(row["self_s"] * 1000.0, 3),
            "total_ms": round(row["total_s"] * 1000.0, 3),
        }
        for name, row in spans.layer_table().items()
    ]
    return sorted(rows, key=lambda row: -row["self_ms"])
