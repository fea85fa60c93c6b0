"""Depth-concurrent stratum scheduling for the bottom-up engines.

The paper's SCC stratification (Section 2.1 via :mod:`repro.datalog.engine.planner`)
orders strata bottom-up, but the order is a *linearisation* of a partial
order: two strata at the same topological depth in the condensation DAG
cannot reference each other's predicates — an edge between them would have
ordered them — so their fixpoints read disjoint head relations over a
common, already-closed lower layer.  This module exploits exactly that
freedom:

* :func:`depth_groups` partitions ``ProgramPlan.strata`` by the planner's
  ``Stratum.depth`` annotation (depth order is itself a valid topological
  order, including across negation and aggregate edges, which are ordinary
  dependency edges);
* :func:`evaluate_strata` drives the groups — serially when ``workers <= 1``
  (the byte-for-byte historical path, in the planner's original stratum
  order), and with a thread per same-depth stratum otherwise.

Each concurrent stratum runs over a copy-on-write
:meth:`~repro.datalog.database.Database.overlay` of the shared working set
with a private :class:`~repro.datalog.engine.stats.EvaluationStatistics`;
after the group joins, derived facts and statistics are folded back in
stratum-index order.  Because a stratum's firing counts depend only on its
body predicates — all in strictly lower depths or the stratum itself,
never in a sibling — the folded counters are *identical* to the serial
run's, which is the parity contract the differential tests enforce.

Guards stay cooperative: every thread checkpoints the shared deadline and
cancellation token at its round boundaries, and the driver checkpoints the
merged statistics (the exact global fact/round budget) at every group
boundary.  One aborting stratum flips a group-local event that its
siblings observe at their next checkpoint, so the whole group unwinds
promptly and the first failure (in stratum-index order) is re-raised.

CPython's GIL means same-depth threading is a structural win (latency
overlap for kernels that release the GIL, free-threaded builds) rather
than a throughput one for pure-Python kernels; the throughput story is the
process-sharded delta lane in :mod:`repro.datalog.columnar.shard`.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence

from repro.datalog.engine.stats import EvaluationStatistics
from repro.errors import EvaluationError


class _SiblingAborted(Exception):
    """Internal: a sibling stratum failed; unwind quietly, it carries the error."""


def depth_groups(strata: Sequence) -> List[List]:
    """Strata partitioned by topological depth, shallowest group first.

    Within a group, strata keep their original (plan) index order — the
    order results are folded back in.  Depth order is a valid topological
    order of the condensation DAG, so replacing the planner's
    linearisation with it never runs a stratum before a dependency.
    """
    groups: Dict[int, List] = {}
    for stratum in strata:
        groups.setdefault(stratum.depth, []).append(stratum)
    return [groups[depth] for depth in sorted(groups)]


def evaluate_strata(
    plan,
    lane,
    run_stratum: Callable,
    check_budget: Callable[[], None],
    *,
    max_iterations: Optional[int] = None,
    workers: int = 1,
    error_label: str = "semi-naive",
) -> None:
    """Run every stratum of *plan* on *lane*, threading same-depth groups.

    *run_stratum* is the driver's serial stratum loop,
    ``run_stratum(lane, stratum, check_budget)``.  With ``workers > 1``
    each stratum of a same-depth group gets ``lane.overlay(statistics)`` —
    a private lane over a copy-on-write view of the working set — and the
    group's results are folded back with ``lane.absorb(child)``; only the
    tuple lane offers the pair, so only it may be given ``workers > 1``.
    """
    if workers <= 1:
        for stratum in plan.strata:
            run_stratum(lane, stratum, check_budget)
        return

    statistics, guard = lane.statistics, lane.guard
    executor: Optional[ThreadPoolExecutor] = None
    try:
        for group in depth_groups(plan.strata):
            if len(group) == 1:
                run_stratum(lane, group[0], check_budget)
                continue
            if executor is None:
                executor = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="repro-stratum"
                )
            abort = threading.Event()
            base_iterations = statistics.iterations

            def job(stratum):
                local = EvaluationStatistics()

                def check() -> None:
                    if abort.is_set():
                        raise _SiblingAborted()
                    if guard is not None:
                        # Deadline + cancellation see the shared state; the
                        # fact/round budget is enforced exactly against the
                        # merged totals at the group boundary below.
                        guard.checkpoint(local)
                    if (
                        max_iterations is not None
                        and base_iterations + local.iterations > max_iterations
                    ):
                        raise EvaluationError(
                            f"{error_label} evaluation exceeded "
                            f"{max_iterations} iterations"
                        )

                child = lane.overlay(local)
                run_stratum(child, stratum, check)
                return child

            futures = [executor.submit(job, stratum) for stratum in group]
            results: List = []
            error: Optional[BaseException] = None
            for future in futures:
                try:
                    results.append(future.result())
                except _SiblingAborted:
                    results.append(None)
                except BaseException as exc:
                    abort.set()
                    if error is None:
                        error = exc
                    results.append(None)
            if error is not None:
                raise error
            # Fold back in stratum-index order (futures follow group order):
            # counters are sums and the per-label maps compare
            # order-insensitively, so the merged statistics are identical
            # to the serial pass's.
            for child in results:
                statistics.absorb(child.statistics)
                lane.absorb(child)
            check_budget()
    finally:
        if executor is not None:
            executor.shutdown(wait=True)
