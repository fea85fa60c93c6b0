"""Small shared helpers of the ledger (paths, quantiles, host facts)."""

from __future__ import annotations

import os
import statistics
from pathlib import Path
from typing import Dict, List, Sequence

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
SRC_DIR = str(ROOT / "src")


#: The cores this process may run on, as found at start-up (affinity-aware).
ALL_CORES = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]


def pin(cores) -> None:
    """Restrict this process, and the children it starts later, to *cores*.

    Every run is confined to one core.  Where the scheduler happens to
    place a GIL-bound server and its clients on two cores makes read
    latency bimodal (0.54 or 0.66 ms for the same work), and even with the
    two sides pinned to a core each, cross-core wake-ups come in a fast and
    a slow flavour from run to run (hot reads: 4 300 or 4 800 req/s).  On
    one core the server, its clients and an evaluation take turns in a
    fixed order, at no loss of throughput: the server is one GIL.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, set(cores))


def percentile(samples: Sequence[float], q: float) -> float:
    """The *q*-quantile (0..1) by nearest rank; 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))]


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and the interquartile spread as a share of the median."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return {"n": len(values), "q1": value, "median": value, "q3": value, "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values),
        "q1": q1,
        "median": median,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }
