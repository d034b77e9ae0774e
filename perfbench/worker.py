"""Traced queue worker: the ``repro-hpcqc worker`` verb with spans.

A traced ``service-backlog`` run starts its worker subprocess from
here instead of ``python -m repro.cli worker``.  The arguments are the
same; the worker runs the same CLI code path after the layer wrappers
of :mod:`perfbench.tracing` are installed, and writes its spans to
``$PERFBENCH_SPANS`` when it exits (on SIGTERM it drains first).
"""

import os
import sys
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench.common import bootstrap  # noqa: E402


def main() -> int:
    bootstrap()
    from perfbench.tracing import Tracer, install
    from repro.cli import main as cli_main

    tracer = Tracer()
    install(tracer)
    try:
        return cli_main(["worker", *sys.argv[1:]])
    finally:
        tracer.dump(Path(os.environ["PERFBENCH_SPANS"]))


if __name__ == "__main__":
    sys.exit(main())
