"""``service-backlog``: a live campaign service and one leased worker.

The benchmark process runs ``make_server`` on an ephemeral port and a
``WorkerSupervisor`` with one worker subprocess.  One client, on one
persistent HTTP/1.1 connection (as ``requests.Session``, urllib3 and
curl keep theirs), posts a round of small submissions back to back,
polls ``/queue`` until it drains, then fetches every result.

Per-submission control-plane costs dominate: the HTTP round trip, the
lease claim and release, the small-sweep finalize.  Per-point and
simulator work are small.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from perfbench.common import (
    CODE_VERSION,
    CODE_VERSION_ENV,
    ROOT,
    BenchError,
    Checks,
    Ops,
    median,
    now,
    round_rate,
    work_dir,
)
from perfbench.durable import METRICS, expected_row, make_params

#: Points per submission; a round posts each size once, seeded order.
SIZES = (2, 3, 4, 6, 8, 12, 16, 24, 32)
#: Seconds the idle worker sleeps between claim attempts.
POLL_SECONDS = 0.05
#: Seconds between ``/queue`` polls while waiting for the drain.
QUEUE_POLL_SECONDS = 0.01
RUNNER = "perfbench.runner:closed_form"
DRAIN_TIMEOUT_S = 60.0


class Client:
    """One persistent connection; every request is a timed operation."""

    def __init__(self, port: int, ops: Ops, tracer: Any = None) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        self.ops = ops
        self.tracer = tracer
        self.trips: Dict[str, List[float]] = {}

    def request(
        self, method: str, path: str, route: str, body: Any = None,
        count: bool = True,
    ) -> Tuple[int, Any]:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        span = None
        if self.tracer is not None:
            span = self.tracer.begin(f"http.{method} {route}", path)
            self.tracer.adopt = span
        start = now()
        try:
            self.conn.request(method, path, body=payload, headers=headers)
            response = self.conn.getresponse()
            data = json.loads(response.read().decode())
        finally:
            if span is not None:
                self.tracer.adopt = None
                self.tracer.end(span)
        elapsed = (now() - start) * 1e3
        if count:
            self.trips.setdefault(route, []).append(elapsed)
            self.ops.add(f"http.{method} {route}", 200 <= response.status < 300)
        return response.status, data

    def close(self) -> None:
        self.conn.close()


def supervisor_class(traced: bool):
    """``WorkerSupervisor``, or for a traced run a subclass whose
    workers start from ``perfbench/worker.py`` (the same worker verb,
    with spans) and whose spawn times are recorded."""
    from repro.service import WorkerSupervisor
    from repro.service.workers import default_worker_id

    if not traced:
        return WorkerSupervisor

    class TracedSupervisor(WorkerSupervisor):
        spawned: List[int] = []

        def _spawn(self, index: int):
            import subprocess

            env = dict(os.environ)
            env.update(self.extra_env)
            self.spawned.append(time.perf_counter_ns())
            return subprocess.Popen(
                [
                    sys.executable, str(ROOT / "perfbench" / "worker.py"),
                    "--store", str(self.directory),
                    "--lease-seconds", str(self.lease_seconds),
                    "--poll-interval", str(self.poll_seconds),
                    "--worker-id", f"{default_worker_id()}#w{index}",
                ],
                env=env,
            )

    return TracedSupervisor


class ServiceBacklog:
    name = "service-backlog"
    #: The program modules the workload imports (``setup.import_s``).
    MODULES = ("repro.experiments.sweep", "repro.service")

    def __init__(self, seed: int, tracer: Any = None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.ops = Ops()
        self.checks = Checks()
        self.rng = random.Random(seed)
        self.points = 0
        self.busy_s = 0.0
        self.round_s: List[float] = []
        self.serial = 0
        self.rounds = 0
        self.expected: Dict[int, Tuple[int, int]] = {}
        self.directory = None
        self.server = None
        self.thread: Optional[threading.Thread] = None
        self.supervisor = None
        self.client: Optional[Client] = None
        self.spans_dump = None

    def setup(self) -> None:
        from repro.experiments.sweep import SweepSpec
        from repro.service import make_server
        self.SweepSpec = SweepSpec
        self.directory = work_dir("backlog")
        store = self.directory / "store"
        self.server = make_server(store, code_version=CODE_VERSION)
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.1},
            daemon=True,
        )
        self.thread.start()
        extra_env = {CODE_VERSION_ENV: CODE_VERSION}
        if self.tracer is not None:
            self.spans_dump = self.directory / "worker-spans.json.gz"
            extra_env["PERFBENCH_SPANS"] = str(self.spans_dump)
        self.supervisor = supervisor_class(self.tracer is not None)(
            store, workers=1, poll_seconds=POLL_SECONDS,
            restart_limit=0, extra_env=extra_env,
        )
        # The worker inherits standard output; its log lines go to
        # standard error so the result stays the last stdout line.
        sys.stdout.flush()
        saved = os.dup(1)
        os.dup2(2, 1)
        try:
            self.supervisor.start()
        finally:
            os.dup2(saved, 1)
            os.close(saved)
        self.client = Client(
            self.server.server_address[1], self.ops, self.tracer
        )
        # Warm-up: one submission through post, drain and fetch, so
        # the worker has booted before the first timed operation.
        for submission_id, table in self.submit_round([2], count=False):
            self.check_table(submission_id, table)

    def submit_round(self, sizes, count: bool = True) -> List[tuple]:
        """Post, drain, fetch; returns ``(id, results)`` per submission."""
        ids = []
        for size in sizes:
            self.serial += 1
            k = self.rng.randrange(1000)
            spec = self.SweepSpec(
                f"perfbench-backlog-{self.seed}-{self.serial}",
                axes=make_params(self.rng, size),
                constants={"k": k},
                base_seed=self.seed,
            )
            status, record = self.client.request(
                "POST", "/submissions", "/submissions",
                {"name": spec.experiment_id, "spec": spec.to_dict(),
                 "runner": RUNNER},
                count=count,
            )
            if status == 201:
                ids.append(record["id"])
                self.expected[record["id"]] = (size, k)
        self.wait_drained(count)
        tables = []
        for submission_id in ids:
            status, table = self.client.request(
                "GET", f"/submissions/{submission_id}/results",
                "/submissions/<id>/results", count=count,
            )
            if status == 200:
                tables.append((submission_id, table))
        return tables

    def wait_drained(self, count: bool) -> None:
        deadline = now() + DRAIN_TIMEOUT_S
        while True:
            status, queue = self.client.request(
                "GET", "/queue", "/queue", count=count
            )
            if status == 200 and queue["pending"] == queue["running"] == 0:
                return
            if now() > deadline or self.supervisor.poll() == 0:
                raise BenchError(f"queue did not drain: {queue}")
            time.sleep(QUEUE_POLL_SECONDS)

    def check_table(self, submission_id: int, table: Dict[str, Any]) -> None:
        size, k = self.expected[submission_id]
        rows = table["rows"]
        ok = table["headers"] == ["index", "params", *METRICS] and (
            len(rows) == size
        )
        for index, row in enumerate(rows):
            params = json.loads(row[1])
            ok = ok and row[0] == index and params["k"] == k and (
                row[2:] == expected_row(params)
            )
        self.checks.expect(ok, f"submission {submission_id}: results differ")

    def round(self) -> None:
        sizes = self.rng.sample(SIZES, len(SIZES))
        start = now()
        tables = self.submit_round(sizes)
        self.round_s.append(now() - start)
        self.busy_s += self.round_s[-1]
        self.rounds += 1
        for submission_id, table in tables:
            self.points += self.expected[submission_id][0]
            self.check_table(submission_id, table)

    def finish(self) -> None:
        _, rows = self.client.request(
            "GET", "/submissions", "/submissions", count=False
        )
        for row in rows:
            size, _ = self.expected.get(row["id"], (None, None))
            ok = (
                row["state"] == "done" and row["ok_points"] == size
                and not row["failed_points"]
            )
            self.ops.add("service.submission", ok)
            self.checks.expect(
                ok, f"submission {row['id']}: {row['state']}, "
                f"{row['ok_points']} of {size} points ok",
            )
        _, queue = self.client.request("GET", "/queue", "/queue", count=False)
        for key in ("pending", "running", "failed", "stale_leases"):
            self.checks.expect(queue[key] == 0, f"/queue ends with {queue}")
        from repro.store import ResultStore

        with ResultStore(
            self.directory / "store", code_version=CODE_VERSION,
            shared_writer=True,
        ) as store:
            report = store.verify()
        self.checks.expect(report["ok"], f"store verify: {report['issues']}")

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.supervisor is not None:
            self.supervisor.drain(timeout=30)
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.server.service.close()
        if self.thread is not None:
            self.thread.join(timeout=10)

    def worker_boot_s(self, spans: List[list]) -> float:
        """Spawn of the worker to its first claim attempt."""
        from perfbench.tracing import NAME, START

        claims = [s[START] for s in spans if s[NAME] == "service.claim"]
        spawned = self.supervisor.spawned
        return (min(claims) - spawned[0]) / 1e9 if claims and spawned else 0.0

    def metrics(self) -> Dict[str, float]:
        return {
            "points_per_s": round_rate(self.points, self.round_s),
            "op_p50_ms": median(self.client.trips.get("/submissions", [])),
            "read_p50_ms": median(
                self.client.trips.get("/submissions/<id>/results", [])
            ),
        }
