"""Outside-in tracing: spans around calls into each ``repro`` layer.

Tracing patches the public functions the benchmark's workloads reach
(module attributes and class methods) with thin wrappers that record a
span — name, start, end, parent span and an optional submission or
point reference — into an in-memory list.  No program file changes:
the wrappers are installed from here, in the benchmark process and in
the traced worker entry point (``perfbench/worker.py``).

Spans use ``time.perf_counter_ns`` (``CLOCK_MONOTONIC`` on Linux), so
spans from the worker subprocess line up with the parent's.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.common import median

#: Span fields, in list order.
NAME, START, END, PARENT, REF, COUNT = range(6)


class Tracer:
    """An in-memory span recorder.

    Parents come from a per-thread stack.  A thread with an empty stack
    (an HTTP handler thread) adopts :attr:`adopt`, which the client sets
    to its request span while the request is in flight, so handler
    spans nest under the round trip that caused them.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.adopt: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, ref: Any = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self.adopt
        span = [name, time.perf_counter_ns(), 0, parent, ref, None]
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int, count: Any = None) -> None:
        self.spans[index][END] = time.perf_counter_ns()
        if count is not None:
            self.spans[index][COUNT] = count
        self._stack().pop()

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        ref: Optional[Callable[..., Any]] = None,
        count: Optional[Callable[..., Any]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``ref(args, kwargs)`` names the submission or point the call
        serves; ``count(args, kwargs, result)`` attaches a count (jobs
        finished, shards written, points finalized) to the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = tracer.begin(name, ref(args, kwargs) if ref else None)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                tracer.end(
                    index,
                    count(args, kwargs, result) if count else None,
                )

        setattr(owner, attr, traced)

    def dump(self, path: Path, extra: Optional[Dict[str, Any]] = None) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"spans": self.spans, **(extra or {})}
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _kw(args: Tuple, kwargs: Dict, position: int, key: str) -> Any:
    return args[position] if len(args) > position else kwargs.get(key)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads reach, in this process."""
    # By module path: ``repro.scenarios`` re-exports a function
    # named ``build`` that shadows the submodule attribute.
    sweep = importlib.import_module("repro.experiments.sweep")
    scenario_build = importlib.import_module("repro.scenarios.build")
    scenario_sweeps = importlib.import_module("repro.scenarios.sweeps")
    from repro.service.http import CampaignService
    from repro.sim.kernel import Kernel
    from repro.store.api import ResultStore

    import perfbench.runner as bench_runner

    # -- scenarios and sim --------------------------------------------------
    tracer.wrap(
        scenario_sweeps, "run_scenario", "scenarios.run_scenario",
        ref=lambda a, k: _kw(a, k, 0, "spec").name,
        count=lambda a, k, r: r["finished_jobs"] if r else 0,
    )
    for attr in ("build", "install_background", "install_trace"):
        tracer.wrap(scenario_build, attr, f"scenarios.{attr}")
    tracer.wrap(Kernel, "run", "sim.Kernel.run")

    # -- experiments (the sweep engine) and the runners it calls -------------
    def _points(a: Tuple, k: Dict, r: Any) -> int:
        return len(_kw(a, k, 0, "spec"))

    tracer.wrap(sweep, "run_sweep", "experiments.run_sweep", count=_points)
    tracer.wrap(
        scenario_sweeps, "run_scenario_point", "experiments.runner",
        ref=lambda a, k: _kw(a, k, 1, "seed"),
    )
    tracer.wrap(
        bench_runner, "closed_form", "experiments.runner",
        ref=lambda a, k: _kw(a, k, 0, "params").get("x"),
    )

    # -- store ---------------------------------------------------------------
    tracer.wrap(
        ResultStore, "submit", "store.submit",
        ref=lambda a, k: _kw(a, k, 1, "name"),
    )
    submission_ref = lambda a, k: _kw(a, k, 1, "submission_id")  # noqa: E731
    tracer.wrap(
        ResultStore, "run_submission", "store.run_submission",
        ref=submission_ref,
    )
    tracer.wrap(ResultStore, "store_point", "store.store_point")
    tracer.wrap(ResultStore, "record_outcome", "store.record_outcome")
    tracer.wrap(ResultStore, "load_point", "store.load_point")
    tracer.wrap(
        ResultStore, "finalize_sweep", "store.finalize_sweep",
        ref=lambda a, k: _kw(a, k, 1, "spec").experiment_id,
        count=lambda a, k, r: [
            len(_kw(a, k, 1, "spec")), r if isinstance(r, int) else 0
        ],
    )
    tracer.wrap(ResultStore, "read_column", "store.read_column")
    tracer.wrap(
        ResultStore, "results_rows", "store.results_rows",
        ref=submission_ref,
    )

    # -- service (server side here; worker side in the worker process) ------
    tracer.wrap(CampaignService, "submit_payload", "service.submit_payload")
    tracer.wrap(
        CampaignService, "results_payload", "service.results_payload",
        ref=submission_ref,
    )
    tracer.wrap(
        ResultStore, "claim_next_submission", "service.claim",
        count=lambda a, k, r: 1 if r is not None else 0,
    )
    tracer.wrap(
        ResultStore, "run_claimed_submission", "service.execute",
        ref=submission_ref,
    )
    tracer.wrap(
        ResultStore, "release_submission", "service.release",
        ref=submission_ref,
    )


def load_spans(paths: List[Path]) -> List[list]:
    """Spans of several dumps, with parents re-based into one list."""
    merged: List[list] = []
    for path in paths:
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            spans = json.load(handle)["spans"]
        offset = len(merged)
        for span in spans:
            span = list(span)
            if span[PARENT] is not None:
                span[PARENT] += offset
            merged.append(span)
    return merged


def _ms(ns: float) -> float:
    return ns / 1e6


class SpanIndex:
    """Spans restricted to a window, with children and self times."""

    def __init__(self, spans: List[list], window: Tuple[int, int]) -> None:
        self.all = spans
        lo, hi = window
        finished = [
            i for i, s in enumerate(spans) if s[END] and lo <= s[START] <= hi
        ]
        self.by_name: Dict[str, List[int]] = defaultdict(list)
        self.children: Dict[int, List[int]] = defaultdict(list)
        for i in finished:
            self.by_name[spans[i][NAME]].append(i)
        for i, span in enumerate(spans):
            if span[END] and span[PARENT] is not None:
                self.children[span[PARENT]].append(i)

    def dur(self, i: int) -> int:
        return self.all[i][END] - self.all[i][START]

    def self_time(self, i: int) -> int:
        return self.dur(i) - sum(self.dur(c) for c in self.children[i])

    def durations_ms(self, name: str) -> List[float]:
        return [_ms(self.dur(i)) for i in self.by_name.get(name, [])]

    def total_ns(self, name: str) -> int:
        return sum(self.dur(i) for i in self.by_name.get(name, []))

    def descendants(self, i: int, names: Tuple[str, ...]) -> int:
        """Summed duration of the outermost descendants named ``names``."""
        total = 0
        for child in self.children[i]:
            if self.all[child][NAME] in names:
                total += self.dur(child)
            else:
                total += self.descendants(child, names)
        return total

    def table(self) -> List[List[object]]:
        rows = []
        for name in sorted(self.by_name):
            ids = self.by_name[name]
            rows.append([
                name,
                len(ids),
                _ms(sum(self.dur(i) for i in ids)),
                _ms(sum(self.self_time(i) for i in ids)),
                median([_ms(self.dur(i)) for i in ids]),
            ])
        return rows


SCENARIO_BUILD = (
    "scenarios.build", "scenarios.install_background",
    "scenarios.install_trace",
)
COMMITS = ("store.store_point", "store.record_outcome")


def per_layer(
    index: SpanIndex, window: Tuple[int, int], extra: Dict[str, float]
) -> Dict[str, float]:
    """Every per-layer metric, from the spans of the timed window.

    A layer the workload never reaches reads 0 (no calls, no time).
    """
    spans = index.all
    m: Dict[str, float] = dict(extra)

    # scenarios and sim, per scenario point
    scen = index.by_name.get("scenarios.run_scenario", [])
    m["scenarios.build_ms"] = median(
        [_ms(index.descendants(i, SCENARIO_BUILD)) for i in scen]
    )
    m["scenarios.collect_ms"] = median(
        [_ms(index.self_time(i)) for i in scen]
    )
    m["sim.run_ms"] = median(index.durations_ms("sim.Kernel.run"))
    jobs = sum(spans[i][COUNT] or 0 for i in scen)
    m["sim.jobs_finished"] = jobs
    m["sim.us_per_job"] = (
        index.total_ns("sim.Kernel.run") / 1e3 / jobs if jobs else 0.0
    )

    # experiments: run_sweep minus runner and commit time, per point
    dispatch_ns = 0
    points = 0
    for i in index.by_name.get("experiments.run_sweep", []):
        dispatch_ns += index.dur(i) - index.descendants(
            i, ("experiments.runner",) + COMMITS
        )
        points += spans[i][COUNT] or 0
    m["experiments.dispatch_us_per_point"] = (
        dispatch_ns / 1e3 / points if points else 0.0
    )

    # store
    m["store.submit_ms"] = median(index.durations_ms("store.submit"))
    committed = len(index.by_name.get("store.store_point", []))
    commit_ns = sum(index.total_ns(name) for name in COMMITS)
    m["store.commit_us_per_point"] = (
        commit_ns / 1e3 / committed if committed else 0.0
    )
    finals = index.by_name.get("store.finalize_sweep", [])
    m["store.finalize_ms"] = median(index.durations_ms("store.finalize_sweep"))
    finalized = sum((spans[i][COUNT] or [0, 0])[0] for i in finals)
    m["store.finalize_us_per_point"] = (
        index.total_ns("store.finalize_sweep") / 1e3 / finalized
        if finalized else 0.0
    )
    m["store.read_column_ms"] = median(index.durations_ms("store.read_column"))
    m["store.results_rows_ms"] = median(
        index.durations_ms("store.results_rows")
    )
    m["store.points_committed"] = committed
    m["store.shards_written"] = sum(
        (spans[i][COUNT] or [0, 0])[1] for i in finals
    )

    # service: handlers, transport (round trip minus handler), worker
    for route, handler, key in (
        ("http.POST /submissions", "service.submit_payload", "post"),
        ("http.GET /submissions/<id>/results", "service.results_payload",
         "results"),
    ):
        trips = index.by_name.get(route, [])
        m[f"service.{key}_handler_ms"] = median(index.durations_ms(handler))
        m[f"service.{key}_transport_ms"] = median([
            _ms(index.dur(i) - index.descendants(i, (handler,)))
            for i in trips
        ])
    claims = index.by_name.get("service.claim", [])
    m["service.claim_ms"] = median(index.durations_ms("service.claim"))
    m["service.execute_ms"] = median(index.durations_ms("service.execute"))
    m["service.release_ms"] = median(index.durations_ms("service.release"))
    hits = sum(spans[i][COUNT] or 0 for i in claims)
    m["service.claim_hit_ratio"] = hits / len(claims) if claims else 0.0
    if claims:
        lo, hi = window
        busy = 0
        for name in ("service.claim", "service.execute", "service.release"):
            for i in index.by_name.get(name, []):
                busy += max(0, min(spans[i][END], hi) - max(spans[i][START], lo))
        m["service.idle_s"] = max(0, (hi - lo) - busy) / 1e9
    else:
        m["service.idle_s"] = 0.0
    return m
