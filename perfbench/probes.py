"""Traced run: spans around calls into each layer's public functions.

Nothing in ``src/`` changes.  :func:`install` wraps public methods and
module functions of the serving stack with timing shims recorded by a
:class:`Spans` store; the store keeps every span in memory (name, start,
end, parent, request id) and writes them out once, at the end of the run.
A layer's self time is its span's duration minus the time its child spans
cover.

Per-kernel times come from the stack's own :class:`repro.infer.PlanProfiler`,
attached to every compiled model through ``CompiledModel.attach_profiler``.
"""

from __future__ import annotations

import inspect
import json
import os
from collections import defaultdict, deque
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from caller import clock


class Spans:
    """In-memory span store (columnar lists: cheap to append)."""

    def __init__(self) -> None:
        self.name: List[str] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.rid: List[int] = []
        self._stack: List[int] = []
        #: Request id stamped on spans opened from now on (-1: none).
        self.current_rid = -1
        #: Spans are only recorded while active (fixtures and correctness
        #: checks run with probes installed but inactive), and only in this
        #: process: forked fleet workers inherit the shims but not the store.
        self.active = False
        self.pid = os.getpid()
        self._child_time: Optional[List[float]] = None
        self.counters: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)

    def begin(self, name: str) -> int:
        index = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.rid.append(self.current_rid)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(clock())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = clock()
        self._stack.pop()

    # ------------------------------------------------------------------
    def durations(self, name: str) -> List[float]:
        return [e - s for n, s, e in zip(self.name, self.start, self.end) if n == name]

    def recording(self) -> bool:
        return self.active and os.getpid() == self.pid

    def child_seconds(self, index: int) -> float:
        """Time the direct children of span ``index`` cover."""
        if self._child_time is None or len(self._child_time) != len(self.name):
            child_time = [0.0] * len(self.name)
            for child, parent in enumerate(self.parent):
                if parent >= 0:
                    child_time[parent] += self.end[child] - self.start[child]
            self._child_time = child_time
        return self._child_time[index]

    def under(self, index: int, ancestor: str) -> bool:
        """Whether span ``index`` runs inside a span named ``ancestor``."""
        parent = self.parent[index]
        while parent >= 0:
            if self.name[parent] == ancestor:
                return True
            parent = self.parent[parent]
        return False

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds, self seconds."""
        table: Dict[str, Dict[str, float]] = {}
        for index, name in enumerate(self.name):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = self.end[index] - self.start[index]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - self.child_seconds(index)
        return table

    def write_jsonl(self, path: Path) -> None:
        """One ``[name, start_us, end_us, parent, request_id]`` row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.start[0] if self.start else 0.0
        with path.open("w") as handle:
            for row in zip(self.name, self.start, self.end, self.parent, self.rid):
                name, start, end, parent, rid = row
                handle.write(
                    json.dumps(
                        [name, round((start - base) * 1e6, 1), round((end - base) * 1e6, 1),
                         parent, rid]
                    )
                )
                handle.write("\n")


class Probes:
    """Installs and removes the timing shims."""

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        self._restore: List[tuple] = []
        #: Per-batcher submit-end times of queued requests (queue wait).
        self._queued: Dict[int, deque] = defaultdict(deque)
        self._in_submit: Dict[int, bool] = {}
        self.profiler = None

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a shim recording span ``name``.

        ``before(args, kwargs)`` runs before the call and ``after(args,
        kwargs, result, token)`` after it, with ``token`` what ``before``
        returned.  Class- and static methods keep their descriptor kind.
        """
        static = inspect.getattr_static(owner, attr)
        kind = type(static) if isinstance(static, (classmethod, staticmethod)) else None
        original = static.__func__ if kind is not None else static
        spans = self.spans

        def shim(*args, **kwargs):
            if not spans.recording():
                return original(*args, **kwargs)
            token = before(args, kwargs) if before is not None else None
            index = spans.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                spans.finish(index)
            if after is not None:
                after(args, kwargs, result, token)
            return result

        shim.__wrapped__ = original
        setattr(owner, attr, kind(shim) if kind is not None else shim)
        self._restore.append((owner, attr, static))

    def uninstall(self) -> None:
        for owner, attr, static in reversed(self._restore):
            setattr(owner, attr, static)
        self._restore.clear()

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        import repro.online.incremental as incremental
        import repro.retrieval.index as index_module
        import repro.serving.engine as engine_module
        from repro.infer import CompiledModel, PlanProfiler, SnapshotSlab
        from repro.online import CanaryGate, ClickLog, IncrementalTrainer, ModelRegistry
        from repro.online import OnlineLoop
        from repro.retrieval import ItemIndex, Prefilter, RetrievalCascade
        from repro.serving import FleetSupervisor, MicroBatcher, SearchEngine, ShardedCluster

        spans = self.spans
        counters = spans.counters
        self.profiler = PlanProfiler()

        def batch_rows(batch) -> int:
            return int(batch["label"].shape[0])

        # -- repro.data.features (through the engine's public assembly) ----
        def on_assemble(args, kwargs, batch, token):
            counters["features.rows"] += batch_rows(batch)
            counters["features.bytes"] += sum(array.nbytes for array in batch.values())

        self.wrap(SearchEngine, "build_batch", "features.assemble", after=on_assemble)
        self.wrap(SearchEngine, "encode_user_behavior", "features.encode")

        # -- repro.infer ---------------------------------------------------
        def on_score(args, kwargs, scores, token):
            counters["infer.score_rows"] += batch_rows(args[1])

        def on_gate(args, kwargs, gates, token):
            counters["infer.gate_rows"] += int(gates.shape[0])

        self.wrap(SearchEngine, "score_candidates", "infer.score", after=on_score)
        self.wrap(CompiledModel, "serving_gate", "infer.gate", after=on_gate)
        self.wrap(engine_module, "compile_model", "infer.compile", after=self._on_compile)

        # -- repro.retrieval -----------------------------------------------
        def on_prune(args, kwargs, survivors, token):
            counters["retrieval.survivors"] += int(len(survivors))

        self.wrap(RetrievalCascade, "resolve_gate", "retrieval.gate")
        self.wrap(ItemIndex, "search", "retrieval.stage1")
        self.wrap(Prefilter, "prune", "retrieval.prefilter", after=on_prune)
        self.wrap(RetrievalCascade, "from_model", "retrieval.build")
        self.wrap(index_module, "kmeans", "retrieval.kmeans")

        # -- repro.serving.batcher / cluster -------------------------------
        def before_submit(args, kwargs):
            batcher = args[0]
            self._in_submit[id(batcher)] = True
            return batcher.pending

        def after_submit(args, kwargs, results, pending_before):
            batcher = args[0]
            flushed = not self._in_submit.pop(id(batcher), True)
            if not flushed and batcher.pending == pending_before + 1:
                self._queued[id(batcher)].append(clock())

        def before_flush(args, kwargs):
            batcher = args[0]
            now = clock()
            pending = batcher.pending
            queued = self._queued[id(batcher)]
            waits = spans.samples["batcher.queue_wait"]
            if self._in_submit.get(id(batcher)):
                # A size-triggered flush inside submit: the request that
                # triggered it never waited.
                self._in_submit[id(batcher)] = False
                waits.append(0.0)
                pending -= 1
            for _ in range(min(pending, len(queued))):
                waits.append((now - queued.popleft()) * 1000.0)
            if batcher.pending:
                spans.samples["batcher.batch_size"].append(batcher.pending)

        self.wrap(MicroBatcher, "submit", "batcher.submit", before=before_submit, after=after_submit)
        self.wrap(MicroBatcher, "flush", "batcher.flush", before=before_flush)
        self.wrap(ShardedCluster, "submit", "cluster.submit")
        self.wrap(ShardedCluster, "swap_model", "cluster.swap")

        # -- repro.serving.fleet / repro.infer.slabs -----------------------
        def on_publish(args, kwargs, slab, token):
            spans.samples["slabs.bytes"].append(float(slab.nbytes))

        self.wrap(FleetSupervisor, "submit", "fleet.submit")
        self.wrap(FleetSupervisor, "poll", "fleet.poll")
        self.wrap(FleetSupervisor, "flush", "fleet.flush")
        self.wrap(FleetSupervisor, "swap_model", "fleet.swap")
        self.wrap(SnapshotSlab, "publish", "slabs.publish", after=on_publish)

        # -- repro.core.trainer / repro.online -----------------------------
        def on_update(args, kwargs, log, token):
            trainer, dataset = args[0], args[1]
            counters["trainer.rows"] += len(dataset) * trainer.config.epochs

        self.wrap(incremental, "train_step", "trainer.step")
        self.wrap(IncrementalTrainer, "update", "online.update", after=on_update)
        self.wrap(OnlineLoop, "run_cycle", "online.cycle")
        self.wrap(OnlineLoop, "serve_and_log", "online.serve_log")
        self.wrap(ClickLog, "read_new", "online.read_new")
        self.wrap(CanaryGate, "judge", "online.canary")
        self.wrap(ModelRegistry, "register", "online.register")

    def _on_compile(self, args, kwargs, compiled, token) -> None:
        compiled.attach_profiler(self.profiler)
        if not self.spans.counters.get("infer.flops_per_row"):
            self.spans.counters["infer.flops_per_row"] = float(
                sum(step.flops for step in compiled.score_plan.steps)
            )


@contextmanager
def span(spans: Spans, name: str):
    """Record one benchmark-side span (set-up steps)."""
    index = spans.begin(name) if spans.recording() else None
    try:
        yield
    finally:
        if index is not None:
            spans.finish(index)


def mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0
