"""Shared plumbing for the benchmark: paths, bootstrap, statistics,
operation accounting, set-up probes and peak memory.

Nothing here imports ``repro``: :func:`bootstrap` must run first, so a
checkout without ``src/repro`` fails before any work is attempted.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: The checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores; removed when a run ends.
WORK = ROOT / ".perfbench-work"
#: Span dumps and reports written by traced and compared runs.
OUT = ROOT / ".perfbench-out"

#: Every store and worker runs under this code version, so git state
#: (or its absence in an exported checkout) never enters a timing and
#: never splits cache keys.
CODE_VERSION = "perfbench-pinned"
CODE_VERSION_ENV = "REPRO_SWEEP_CODE_VERSION"

#: Fresh-interpreter set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 5


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def bootstrap() -> None:
    """Put the checkout's ``src`` (and root, for ``perfbench.*``) first
    on ``sys.path`` and in ``PYTHONPATH`` for child processes.

    Refuses to run when the checkout holds no ``src/repro``, rather
    than silently picking up some other installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {SRC}")
    # The script's own directory would shadow stdlib names; the root
    # makes the benchmark importable as the ``perfbench`` package.
    sys.path[:] = [str(SRC), str(ROOT)] + [
        p for p in sys.path
        if p and Path(p).resolve() != Path(__file__).resolve().parent
    ]
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    os.environ[CODE_VERSION_ENV] = CODE_VERSION
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")


def now() -> float:
    """Monotonic seconds; the same clock in every process on the host."""
    return time.perf_counter()


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def round_rate(points: int, round_s: Sequence[float]) -> float:
    """Points per second of the median round.

    Every round of a run does the same amount of work, so this is the
    run's throughput with slow stretches of a shared host outvoted.
    """
    return points / len(round_s) / median(round_s)


def quartiles(values: Sequence[float]) -> List[float]:
    """Q1, median, Q3 as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0]) if values else 0.0
        return [v, v, v]
    return [float(q) for q in statistics.quantiles(values, n=4)]


class Ops:
    """Operations attempted and failed, by kind."""

    def __init__(self) -> None:
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()

    def add(self, kind: str, ok: bool = True, count: int = 1) -> None:
        self.attempted[kind] += count
        if not ok:
            self.failed[kind] += count

    def totals(self) -> Dict[str, int]:
        return {
            "attempted": sum(self.attempted.values()),
            "failed": sum(self.failed.values()),
        }

    def table(self) -> List[List[object]]:
        return [
            [kind, self.attempted[kind], self.failed[kind]]
            for kind in sorted(self.attempted)
        ]


class Checks:
    """Correctness checks of one run; the first few failures are kept."""

    def __init__(self) -> None:
        self.passed = 0
        self.failures: List[str] = []

    def expect(self, condition: bool, message: str) -> bool:
        if condition:
            self.passed += 1
        elif len(self.failures) < 20:
            self.failures.append(message)
        else:
            self.failures[-1] = "... more failures"
        return condition

    @property
    def ok(self) -> bool:
        return not self.failures


def work_dir(tag: str) -> Path:
    path = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_work_dir(path: Optional[Path]) -> None:
    if path is not None:
        shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Largest resident set of this process and its waited-for children."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def probe_setup(workload: str, seed: int, trace: int) -> Dict[str, float]:
    """Time one set-up from a fresh interpreter to ready.

    The child runs the workload's own set-up (traced when the run is),
    prints ``READY`` and
    waits for its stdin to close before tearing down; the time runs
    from just before the spawn to the moment the line arrives.
    """
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--setup-probe",
    ]
    start = now()
    proc = subprocess.Popen(
        command, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = now() - start
        proc.stdin.close()
        proc.stdout.read()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    fields = line.split()
    if code != 0 or len(fields) != 2 or fields[0] != "READY":
        raise BenchError(f"set-up probe failed (exit {code}): {line!r}")
    return {"setup_s": elapsed, "import_s": float(fields[1])}


def render(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    cells = [[str(h) for h in headers]] + [
        [f"{c:.4f}" if isinstance(c, float) else str(c) for c in row]
        for row in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        for row in cells
    ]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return "\n".join(lines)
