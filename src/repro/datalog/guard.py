"""Cooperative query guardrails: deadlines, resource budgets, cancellation.

``max_iterations`` was the stack's only evaluation bound; production Datalog
engines govern every query with wall-clock deadlines and derivation budgets
so a mis-planned cross product or a deep recursive fixpoint cannot hold a
worker forever.  This module is that governance layer:

* :class:`ResourceBudget` — declarative limits (wall-clock ``timeout``,
  ``max_facts`` derived, ``max_rounds`` of fixpoint iteration);
* :class:`CancellationToken` — a thread-safe flag an *external* party (the
  HTTP layer on client disconnect, an operator) flips to stop a run;
* :class:`ExecutionGuard` — one armed instance per evaluation run, whose
  :meth:`~ExecutionGuard.checkpoint` every evaluation loop calls at safe
  points: naive/semi-naive round boundaries, compiled kernel batch
  boundaries in both columnar lanes, top-down resolution steps, and the
  initial build of a materialized view.

A tripped checkpoint raises a typed :class:`~repro.errors.QueryAborted`
subclass (:class:`~repro.errors.QueryTimeout`,
:class:`~repro.errors.BudgetExceeded`,
:class:`~repro.errors.QueryCancelled`).  Because every engine evaluates over
a copy or copy-on-write overlay of the input database — never the database
itself — an abort at any checkpoint leaves the service's database snapshot,
its materialized views, and the WAL byte-identical to the pre-request
state; the guard property tests assert exactly that.

Checkpoints never mutate :class:`~repro.datalog.engine.stats.EvaluationStatistics`,
so guarded and unguarded runs of the same query produce identical counters
(the statistics-parity contract the differential harnesses enforce).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.errors import BudgetExceeded, QueryCancelled, QueryTimeout

__all__ = [
    "BudgetExceeded",
    "CancellationToken",
    "ExecutionGuard",
    "QueryCancelled",
    "QueryTimeout",
    "ResourceBudget",
    "build_guard",
]


class CancellationToken:
    """A thread-safe one-way flag: once cancelled, forever cancelled.

    The party running the query hands the token to the evaluation (via
    ``cancellation=``); any other thread may call :meth:`cancel` — the run
    stops at its next checkpoint with :class:`~repro.errors.QueryCancelled`.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation (idempotent, callable from any thread)."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def __repr__(self) -> str:
        return f"CancellationToken(cancelled={self.cancelled})"


@dataclass(frozen=True)
class ResourceBudget:
    """Declarative per-query resource limits (``None`` = unlimited).

    ``timeout`` is wall-clock seconds from :meth:`start`; ``max_facts``
    bounds the facts an evaluation may derive; ``max_rounds`` bounds total
    fixpoint rounds (like ``max_iterations``, but raising the typed
    :class:`~repro.errors.BudgetExceeded` instead of a generic error).
    """

    timeout: Optional[float] = None
    max_facts: Optional[int] = None
    max_rounds: Optional[int] = None

    def __post_init__(self) -> None:
        if self.timeout is not None:
            if isinstance(self.timeout, bool) or not isinstance(self.timeout, (int, float)):
                raise ValueError(f"timeout must be a number of seconds, got {self.timeout!r}")
            if self.timeout < 0:
                raise ValueError(f"timeout must be non-negative, got {self.timeout}")
        if self.max_facts is not None and self.max_facts < 0:
            raise ValueError(f"max_facts must be non-negative, got {self.max_facts}")
        if self.max_rounds is not None and self.max_rounds < 0:
            raise ValueError(f"max_rounds must be non-negative, got {self.max_rounds}")

    @property
    def unlimited(self) -> bool:
        return self.timeout is None and self.max_facts is None and self.max_rounds is None

    def start(
        self, cancellation: Optional[CancellationToken] = None
    ) -> "ExecutionGuard":
        """Arm the budget for one run: the deadline clock starts *now*."""
        return ExecutionGuard(self, cancellation)


class ExecutionGuard:
    """One armed run of a :class:`ResourceBudget` (plus optional cancellation).

    Engines call :meth:`checkpoint` at every safe point.  A guard is cheap
    to check — one monotonic clock read and a couple of integer compares —
    so checkpoints can sit on kernel batch boundaries without measurable
    overhead.  Guards are single-run: arm a fresh one per evaluation.
    """

    __slots__ = ("budget", "cancellation", "_deadline", "checkpoints")

    def __init__(
        self,
        budget: Optional[ResourceBudget] = None,
        cancellation: Optional[CancellationToken] = None,
    ):
        self.budget = budget if budget is not None else ResourceBudget()
        self.cancellation = cancellation
        self._deadline = (
            time.monotonic() + self.budget.timeout
            if self.budget.timeout is not None
            else None
        )
        #: How many times :meth:`checkpoint` ran — observability for tests
        #: asserting that every loop family actually reaches its checkpoints.
        self.checkpoints = 0

    @property
    def deadline(self) -> Optional[float]:
        """The absolute ``time.monotonic()`` deadline, if a timeout is set."""
        return self._deadline

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (``None`` without one; never negative)."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - time.monotonic())

    def checkpoint(self, statistics=None) -> None:
        """Abort the run if cancelled, past deadline, or over budget.

        *statistics* (an :class:`~repro.datalog.engine.stats.EvaluationStatistics`)
        supplies the ``facts_derived`` / ``iterations`` counters the fact and
        round budgets compare against; loops without statistics at hand may
        call with ``None`` and still get deadline + cancellation checks.
        """
        self.checkpoints += 1
        if self.cancellation is not None and self.cancellation.cancelled:
            raise QueryCancelled("query cancelled at an evaluation checkpoint")
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise QueryTimeout(
                f"query exceeded its {self.budget.timeout}s wall-clock deadline"
            )
        if statistics is not None:
            max_rounds = self.budget.max_rounds
            if max_rounds is not None and statistics.iterations > max_rounds:
                raise BudgetExceeded(
                    f"query exceeded its budget of {max_rounds} fixpoint round(s)"
                )
            max_facts = self.budget.max_facts
            if max_facts is not None and statistics.facts_derived > max_facts:
                raise BudgetExceeded(
                    f"query exceeded its budget of {max_facts} derived fact(s)"
                )

    def __repr__(self) -> str:
        return (
            f"ExecutionGuard(budget={self.budget!r}, "
            f"cancelled={self.cancellation.cancelled if self.cancellation else False}, "
            f"checkpoints={self.checkpoints})"
        )


def build_guard(
    timeout: Optional[float] = None,
    budget: Optional[ResourceBudget] = None,
    cancellation: Optional[CancellationToken] = None,
) -> Optional[ExecutionGuard]:
    """The armed guard for one request, or ``None`` when nothing is bounded.

    The common calling convention on every evaluating surface (folded into
    ``guard`` by :meth:`~repro.datalog.engine.options.EvalOptions.capture`):
    ``timeout=`` is shorthand for a deadline-only budget and combines with
    an explicit ``budget=`` (the tighter wall-clock bound wins).
    """
    if timeout is None and budget is None and cancellation is None:
        return None
    if budget is None:
        budget = ResourceBudget(timeout=timeout)
    elif timeout is not None:
        timeout = ResourceBudget(timeout=timeout).timeout  # validated before the merge
        merged = (
            timeout if budget.timeout is None else min(timeout, budget.timeout)
        )
        budget = ResourceBudget(
            timeout=merged, max_facts=budget.max_facts, max_rounds=budget.max_rounds
        )
    return budget.start(cancellation)
