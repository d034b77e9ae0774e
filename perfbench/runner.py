"""The closed-form sweep runner of the store and service workloads.

It costs almost nothing, so those workloads measure the store, the
sweep engine and the service around it, not a simulator.  Worker
subprocesses import it as ``perfbench.runner:closed_form``.
"""

from __future__ import annotations

from typing import Any, Dict


def closed_form(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Metrics that depend on the point's parameters alone, so the
    benchmark can recompute every stored cell from the params it sent."""
    x = params["x"]
    k = params["k"]
    return {"y": 3 * x + k, "z": (x * x) % 1009, "w": x / 8.0}
