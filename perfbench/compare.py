"""Run sets of benchmark runs of the same code and compare them.

    python3 perfbench/compare.py                     # 2 sets x 10 runs
    python3 perfbench/compare.py --workloads durable-sweep --runs 5
    python3 perfbench/compare.py --overhead --runs 5 # traced - untraced

Every run lasts ``run_seconds`` of ``BENCHMARK.json`` and gets its own
seed (set ``s``, run ``i``: ``1 + s * runs + i``).  Per workload and
end-to-end metric it prints each set's median and quartiles, the
spread (Q3 - Q1) / median, and whether the two sets agree within the
bounds in ``BENCHMARK.json``: every spread within its bound, the
second median within the bound of the first in either direction, and
the same share of failed operations in both sets.  ``setup_s``'s
spread is reported but not gated: a fresh interpreter's set-up follows
the host's load from one minute to the next (its spread over ten runs
reached 0.31 on a 2-core host while every other metric held), so only
its median is compared.  Exits 1 when the sets do not agree.

``--overhead`` instead runs each seed untraced and traced and prints
the tracing overhead, traced minus untraced, per end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench.common import OUT, ROOT, median, quartiles, render  # noqa: E402


#: Sets of runs compared, and the seed of the first run.
SETS = 2
FIRST_SEED = 1


def one_run(workload, seed, trace, report=None):
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
    ]
    if report is not None:
        command += ["--report", str(report)]
    proc = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    OUT.mkdir(parents=True, exist_ok=True)
    log = OUT / f"run-{workload}-seed{seed}-trace{trace}.log"
    log.write_text(proc.stdout + proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect")
    return result


def worse(metric, first, other):
    """How much worse ``other`` is than ``first``, as a share of it
    (negative when it is better)."""
    change = (other - first) / first
    return -change if metric["better"] == "higher" else change


def compare(bench, args) -> bool:
    agree = True
    for workload in args.workloads:
        sets = []
        for s in range(SETS):
            runs = []
            for i in range(args.runs):
                seed = FIRST_SEED + s * args.runs + i
                runs.append(one_run(workload, seed, 0))
                print(f"  {workload} set {s + 1} seed {seed}: "
                      + json.dumps({k: round(v["value"], 4) for k, v
                                    in runs[-1]["metrics"].items()}),
                      flush=True)
            sets.append(runs)
        rows = []
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = None
            for s, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, mid, q3 = quartiles(values)
                spread = (q3 - q1) / mid
                ok = name == "setup_s" or spread <= bound
                drift = 0.0 if first is None else worse(metric, first, mid)
                ok = ok and abs(drift) <= bound
                first = mid if first is None else first
                agree = agree and ok
                rows.append([name, s + 1, mid, q1, q3, spread, drift, bound,
                             "ok" if ok else "DISAGREE"])
        shares = {
            Fraction(sum(r["failed"] for r in runs),
                     sum(r["attempted"] for r in runs))
            for runs in sets
        }
        agree = agree and len(shares) == 1
        print(f"\n{workload}: failed share per set "
              f"{sorted(str(x) for x in shares)}")
        print(render(["metric", "set", "median", "q1", "q3", "spread",
                      "worse_by", "bound", "verdict"], rows))
    return agree


def overhead(bench, args) -> None:
    names = [m["name"] for m in bench["end_to_end"]]
    for workload in args.workloads:
        plain = {n: [] for n in names}
        traced = {n: [] for n in names}
        for i in range(args.runs):
            seed = FIRST_SEED + i
            base = one_run(workload, seed, 0)
            report = OUT / f"report-{workload}-seed{seed}-trace1.json"
            one_run(workload, seed, 1, report)
            e2e = json.loads(report.read_text())["end_to_end"]
            for n in names:
                plain[n].append(base["metrics"][n]["value"])
                traced[n].append(e2e[n])
        rows = [
            [n, median(plain[n]), median(traced[n]),
             median(traced[n]) - median(plain[n]),
             (median(traced[n]) - median(plain[n])) / median(plain[n])]
            for n in names
        ]
        print(f"\n{workload}: tracing overhead over {args.runs} seeds")
        print(render(["metric", "untraced", "traced", "traced-untraced",
                      "share"], rows))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args(argv)
    args.workloads = args.workloads.split(",")
    if args.overhead:
        overhead(bench, args)
        return 0
    agree = compare(bench, args)
    print("\nsets agree within bounds" if agree else "\nsets DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
