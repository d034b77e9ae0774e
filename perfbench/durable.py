"""``durable-sweep``: store-backed sweeps, one after another, in process.

Each operation is the local ``store run`` path: ``ResultStore.submit``
then a serial ``run_submission`` (per-point commits into the store's
cache and journal, then ``finalize_sweep`` into columnar shards), then
the results are read back with ``results_rows`` and one metric with
``read_column``.  The runner is the closed form in
:mod:`perfbench.runner`, so the simulator does nothing here.
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, List

from perfbench import runner as bench_runner
from perfbench.common import (
    CODE_VERSION, Checks, Ops, median, now, round_rate, work_dir,
)

#: Points per submission; one round submits each size once, in a
#: seeded order.  An odd count of sizes puts every median inside one
#: size class instead of between two.
SIZES = (10, 40, 160, 640, 2560)
METRICS = ("w", "y", "z")


def expected_row(params: Dict[str, Any]) -> List[Any]:
    """The closed form, recomputed here from the params that were sent."""
    x, k = params["x"], params["k"]
    return [x / 8.0, 3 * x + k, (x * x) % 1009]


def make_params(rng: random.Random, size: int) -> Dict[str, Any]:
    return {"x": rng.sample(range(1, 1_000_000), size)}


class DurableSweep:
    name = "durable-sweep"
    #: The program modules the workload imports (``setup.import_s``).
    MODULES = ("repro.experiments.sweep", "repro.store")

    def __init__(self, seed: int, tracer: Any = None) -> None:
        self.seed = seed
        self.ops = Ops()
        self.checks = Checks()
        self.rng = random.Random(seed)
        self.op_ms: List[float] = []
        self.read_ms: List[float] = []
        self.points = 0
        self.busy_s = 0.0
        self.round_s: List[float] = []
        self.serial = 0
        self.rounds = 0
        self.directory = None
        self.store = None

    def setup(self) -> None:
        from repro.experiments import sweep
        from repro.store import ResultStore
        self.sweep = sweep
        self.directory = work_dir("durable")
        self.store = ResultStore(
            self.directory / "store", code_version=CODE_VERSION
        ).open()
        self.runner_name = sweep.runner_name(bench_runner.closed_form)

    def round(self) -> None:
        busy = self.busy_s
        for size in self.rng.sample(SIZES, len(SIZES)):
            self.one_submission(size)
        self.round_s.append(self.busy_s - busy)
        self.rounds += 1

    def one_submission(self, size: int) -> None:
        self.serial += 1
        k = self.rng.randrange(1000)
        spec = self.sweep.SweepSpec(
            f"perfbench-durable-{self.seed}-{self.serial}",
            axes=make_params(self.rng, size),
            constants={"k": k},
            base_seed=self.seed,
        )
        store = self.store
        start = now()
        submission_id = store.submit(spec.experiment_id, spec, self.runner_name)
        # Looked up at call time, so a traced run sees the wrapper.
        store.run_submission(submission_id, bench_runner.closed_form, workers=1)
        record = store.submission(submission_id)
        done = now()
        ok = record["state"] == "done" and record["ok_points"] == size
        self.ops.add("durable.submission", ok)
        self.checks.expect(
            ok and not record["failed_points"],
            f"submission {submission_id}: state {record['state']}, "
            f"{record['ok_points']} of {size} points ok",
        )
        headers, rows = store.results_rows(submission_id)
        read = now()
        column = store.read_column(spec, self.runner_name, "y").tolist()
        self.busy_s += now() - start
        self.op_ms.append((done - start) * 1e3)
        self.read_ms.append((read - done) * 1e3)
        if not ok:
            return
        self.points += size
        rows_ok = headers == ["index", "params", *METRICS] and len(rows) == size
        for index, row in enumerate(rows):
            params = json.loads(row[1])
            rows_ok = rows_ok and row[0] == index and (
                row[2:] == expected_row(params)
            )
        self.ops.add("durable.results_rows", rows_ok)
        self.checks.expect(rows_ok, f"submission {submission_id}: rows differ")
        want_y = [3 * x + k for x in spec.axes["x"]]
        self.ops.add("durable.read_column", column == want_y)
        self.checks.expect(
            column == want_y, f"submission {submission_id}: column y differs"
        )

    def finish(self) -> None:
        report = self.store.verify()
        self.checks.expect(report["ok"], f"store verify: {report['issues']}")

    def teardown(self) -> None:
        if self.store is not None:
            self.store.close()

    def metrics(self) -> Dict[str, float]:
        return {
            "points_per_s": round_rate(self.points, self.round_s),
            "op_p50_ms": median(self.op_ms),
            "read_p50_ms": median(self.read_ms),
        }
