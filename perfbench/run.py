"""The repository's benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload scenario-grid --seed 1 \\
        --seconds 25 --trace 0

Workloads: ``scenario-grid``, ``durable-sweep``, ``service-backlog``
(see ``perfbench/README.md``).  A run sets the workload up, runs whole
rounds of its operations until ``--seconds`` of timed work have
passed, checks every output, tears down, then times ``SETUP_PROBES``
fresh-interpreter set-ups.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``
(the traced run also prints its per-layer span table and writes its
spans to ``.perfbench-out/``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench.common import (  # noqa: E402
    OUT,
    ROOT,
    SETUP_PROBES,
    bootstrap,
    median,
    now,
    peak_rss_mb,
    probe_setup,
    remove_work_dir,
    render,
)

#: Metric names and units, as declared in ``BENCHMARK.json``.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}


def workload_class(name: str):
    if name == "scenario-grid":
        from perfbench.grid import ScenarioGrid
        return ScenarioGrid
    if name == "durable-sweep":
        from perfbench.durable import DurableSweep
        return DurableSweep
    if name == "service-backlog":
        from perfbench.backlog import ServiceBacklog
        return ServiceBacklog
    raise SystemExit(f"unknown workload {name!r}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, default=DECLARED["run_seconds"]
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--report", type=Path,
        help="also write the run's full report (both metric sets) here",
    )
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="internal: set up, print READY, wait for stdin to close",
    )
    return parser.parse_args(argv)


def setup_probe(workload, import_s: float) -> int:
    try:
        workload.setup()
        print(f"READY {import_s!r}", flush=True)
        sys.stdin.read()
    finally:
        workload.teardown()
        remove_work_dir(getattr(workload, "directory", None))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    cls = workload_class(args.workload)
    started = now()
    bootstrap()
    for module in cls.MODULES:
        importlib.import_module(module)
    import_s = now() - started
    tracer = None
    if args.trace:
        from perfbench.tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    workload = cls(args.seed, tracer)
    if args.setup_probe:
        return setup_probe(workload, import_s)

    try:
        workload.setup()
        start_ns = time.perf_counter_ns()
        started = now()
        while True:
            workload.round()
            if workload.busy_s >= args.seconds:
                break
        wall_s = now() - started
        end_ns = time.perf_counter_ns()
        workload.finish()
    finally:
        workload.teardown()
        keep_worker_spans(workload)
        remove_work_dir(getattr(workload, "directory", None))
    e2e = workload.metrics()
    e2e["peak_rss_mb"] = peak_rss_mb()
    probes = [
        probe_setup(args.workload, args.seed, args.trace)
        for _ in range(SETUP_PROBES)
    ]
    e2e["setup_s"] = median([p["setup_s"] for p in probes])
    e2e = {name: e2e[name] for name in UNITS}

    ops, checks = workload.ops, workload.checks
    print(f"{args.workload} seed {args.seed}: {workload.rounds} rounds, "
          f"{workload.busy_s:.2f} s timed work in {wall_s:.2f} s, "
          f"{checks.passed} checks passed")
    print(render(["operation", "attempted", "failed"], ops.table()))
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}")

    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "end_to_end": e2e}
    if tracer is not None:
        metrics = traced_metrics(workload, tracer, (start_ns, end_ns), probes)
        report["per_layer"] = metrics
        units = PER_LAYER_UNITS
        print(render(["end-to-end metric (traced)", "value"],
                     [[k, v] for k, v in e2e.items()]))
    else:
        metrics, units = e2e, UNITS
    if args.report:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(json.dumps(report, indent=1))
    totals = ops.totals()
    print(json.dumps({
        "correct": checks.ok,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


def keep_worker_spans(workload) -> None:
    """Move a traced worker's span dump out of the work directory."""
    dump = getattr(workload, "spans_dump", None)
    if dump is not None and dump.exists():
        OUT.mkdir(parents=True, exist_ok=True)
        target = OUT / f"spans-{workload.name}-seed{workload.seed}-worker.json.gz"
        dump.replace(target)
        workload.spans_dump = target


def traced_metrics(workload, tracer, window, probes):
    """Per-layer metrics from this process's spans and the worker's."""
    from perfbench.tracing import SpanIndex, load_spans, per_layer

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"spans-{workload.name}-seed{workload.seed}"
    paths = [OUT / f"{stem}.json.gz"]
    tracer.dump(paths[0], {"window": list(window)})
    extra = {
        "setup.import_s": median([p["import_s"] for p in probes]),
        "service.worker_boot_s": 0.0,
    }
    if getattr(workload, "spans_dump", None) is not None:
        paths.append(workload.spans_dump)
    spans = load_spans(paths)
    index = SpanIndex(spans, window)
    metrics = per_layer(index, window, extra)
    boot = getattr(workload, "worker_boot_s", None)
    if boot is not None:
        metrics["service.worker_boot_s"] = boot(spans)
    print(render(["span", "calls", "total_ms", "self_ms", "median_ms"],
                 index.table()))
    return {name: metrics[name] for name in PER_LAYER_UNITS}


if __name__ == "__main__":
    sys.exit(main())
