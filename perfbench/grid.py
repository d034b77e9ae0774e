"""``scenario-grid``: every registered preset x a band of seeds.

One caller drives a serial, in-process ``run_sweep`` (``workers=1``,
no cache, no journal) of ``run_scenario_point`` in a closed loop: the
next round starts when the previous one returns.  ``failure-storm``
runs in a second sweep at fixed seeds (see ``FAULTY_PRESET``).  The
time goes to
``sim``, ``scheduler``/``cluster``/``quantum`` (through ``scenarios``)
and none to ``store`` or ``service``.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, List

from perfbench.common import SRC, Checks, Ops, median, now, round_rate

#: Seeds per preset per round; each round draws a fresh band.
SEED_BAND = 2
#: Points re-executed after the timed phase to check that the same
#: (params, seed) gives identical ``canonical_bytes``; drawn from the
#: first round by the run's seed.
RECHECKED_POINTS = 3
#: The preset whose busy-node accounting drifts under node failures:
#: on some seeds its classical utilisation reads above 1.  It runs at
#: a fixed band of seeds, the same in every run whatever ``--seed``,
#: one of which reads 1.117, so the fault fails the same operations
#: every time and shows in ``failed`` rather than in ``correct``.
FAULTY_PRESET = "failure-storm"
FAULTY_BASE_SEED = 2
TRACE_FILE = SRC / "repro" / "workloads" / "data" / "sample-32n.swf"


def swf_job_count(path) -> int:
    """Data lines of an SWF file: not blank, not a ``;``/``#`` comment,
    at least 12 fields and a non-negative run time (field 4)."""
    count = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            fields = line.lstrip("\ufeff").split()
            if not fields or fields[0][0] in ";#" or len(fields) < 12:
                continue
            if float(fields[3]) >= 0:
                count += 1
    return count


def expected_nodes(preset: Dict[str, Any]) -> int:
    """Classical nodes plus one front-end node per ``qpus_per_node``
    gres units (each virtual QPU is one unit), from the preset's dict."""
    topology, fleet = preset["topology"], preset["fleet"]
    groups = fleet["devices"] or [
        {"count": fleet["qpu_count"], "vqpus_per_qpu": fleet["vqpus_per_qpu"]}
    ]
    units = sum(g["count"] * g["vqpus_per_qpu"] for g in groups)
    return topology["classical_nodes"] + math.ceil(
        max(units, 1) / topology["qpus_per_node"]
    )


class ScenarioGrid:
    name = "scenario-grid"
    #: The program modules the workload imports (``setup.import_s``).
    MODULES = ("repro.experiments.sweep", "repro.scenarios")

    def __init__(self, seed: int, tracer: Any = None) -> None:
        self.seed = seed
        self.ops = Ops()
        self.checks = Checks()
        self.op_ms: List[float] = []
        self.read_ms: List[float] = []
        self.points = 0
        self.busy_s = 0.0
        self.round_s: List[float] = []
        self.rounds = 0
        #: (params, seed, canonical bytes) of the points to re-run.
        self.recheck: List[tuple] = []

    def setup(self) -> None:
        from repro.experiments import sweep
        from repro.scenarios import get_scenario, list_scenarios
        from repro.scenarios import sweeps as scenario_sweeps
        self.sweep = sweep
        self.scenario_sweeps = scenario_sweeps
        presets = list_scenarios()
        self.presets = [p for p in presets if p != FAULTY_PRESET]
        self.preset_dicts = {p: get_scenario(p).to_dict() for p in presets}
        self.faulty_spec = self.sweep.SweepSpec(
            "perfbench-grid-faulty", axes={"preset": [FAULTY_PRESET]},
            base_seed=FAULTY_BASE_SEED, replications=SEED_BAND,
        )
        self.trace_jobs = swf_job_count(TRACE_FILE)

    def round(self) -> None:
        spec = self.sweep.SweepSpec(
            f"perfbench-grid-{self.seed}",
            axes={"preset": self.presets},
            base_seed=self.seed * 100_003 + self.rounds,
            replications=SEED_BAND,
        )
        marks: List[float] = []

        def on_result(point: Any, value: Any) -> None:
            marks.append(now())

        start = now()
        # Looked up at call time, so a traced run sees the wrappers.
        results = [
            self.sweep.run_sweep(
                s, self.scenario_sweeps.run_scenario_point,
                workers=1, on_result=on_result,
            )
            for s in (spec, self.faulty_spec)
        ]
        # Reading finished points back: each value in the canonical
        # form that sweep caches and the byte-identity oracle compare.
        canonical = self.sweep.canonical_bytes
        for result in results:
            for value in result.values:
                read = now()
                blob = canonical(value)
                self.read_ms.append((now() - read) * 1e3)
                self.ops.add("scenario.read", bool(blob))
        self.round_s.append(now() - start)
        self.busy_s += self.round_s[-1]
        previous = start
        for mark in marks:
            self.op_ms.append((mark - previous) * 1e3)
            previous = mark
        done = [
            (point, value)
            for result in results
            for point, value, outcome in zip(
                result.points, result.values, result.outcomes
            )
            if outcome.ok and value is not None
        ]
        self.ops.add("scenario.point", False,
                     sum(len(r.points) for r in results) - len(done))
        self.points += len(done)
        for point, value in done:
            ok = self.check_point(point.params["preset"], value)
            self.ops.add("scenario.point", ok)
        if self.rounds == 0:
            picked = random.Random(self.seed).sample(
                done, min(RECHECKED_POINTS, len(done))
            )
            self.recheck = [
                (dict(p.params), p.seed, canonical(v)) for p, v in picked
            ]
        self.rounds += 1

    def check_point(self, preset: str, v: Dict[str, Any]) -> bool:
        """Check one point; False when it shows the known fault."""
        c = self.checks
        where = f"{preset} seed {v['seed']}"
        faulty = False
        nodes = sum(v["node_states"].values())
        want = expected_nodes(self.preset_dicts[preset])
        c.expect(nodes == want, f"{where}: {nodes} node states, want {want}")
        for key, value in v.items():
            if "utilisation" not in key:
                continue
            in_range = 0.0 <= value <= 1.0
            if preset == FAULTY_PRESET and not in_range:
                faulty = True
            else:
                c.expect(in_range, f"{where}: {key}={value}")
        c.expect(
            v["background_completed"] <= v["background_jobs"],
            f"{where}: background completed > submitted",
        )
        c.expect(
            v["trace_completed"] <= v["trace_jobs"],
            f"{where}: trace completed > submitted",
        )
        routed = sum(
            value for key, value in v.items()
            if key.startswith("device_") and key.endswith("_routed")
        )
        c.expect(
            routed == v["fleet_routed_total"],
            f"{where}: device routed {routed} != {v['fleet_routed_total']}",
        )
        trace = self.preset_dicts[preset]["workload"]["trace"]
        if trace is not None:
            c.expect(
                v["trace_jobs"] == self.trace_jobs,
                f"{where}: trace_jobs {v['trace_jobs']} != "
                f"{self.trace_jobs} SWF data lines",
            )
        return not faulty

    def finish(self) -> None:
        """Re-run sampled points; outputs must be byte-identical."""
        canonical = self.sweep.canonical_bytes
        for params, seed, blob in self.recheck:
            again = self.scenario_sweeps.run_scenario_point(dict(params), seed)
            self.checks.expect(
                canonical(again) == blob,
                f"{params['preset']} seed {seed}: re-run differs",
            )

    def teardown(self) -> None:
        pass

    def metrics(self) -> Dict[str, float]:
        return {
            "points_per_s": round_rate(self.points, self.round_s),
            "op_p50_ms": median(self.op_ms),
            "read_p50_ms": median(self.read_ms),
        }
