"""Evaluation statistics: the hardware-independent cost model used by all benchmarks.

The paper's motivation (and the performance study it cites) is about the
*amount of work* evaluation performs — how many rule instantiations fire and
how many facts are derived — not about wall-clock time on particular
hardware.  Every engine in :mod:`repro.datalog.engine` therefore reports an
:class:`EvaluationStatistics` object with those counts; benchmarks compare
the counts (shape) in addition to timing the runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class EvaluationStatistics:
    """Counters accumulated during one evaluation run."""

    iterations: int = 0
    rule_firings: int = 0
    facts_derived: int = 0
    duplicate_derivations: int = 0
    facts_per_predicate: Dict[str, int] = field(default_factory=dict)
    # stratified evaluation: how many SCC strata ran, and the fixpoint
    # rounds each needed (key = stratum label, i.e. its sorted predicates)
    strata: int = 0
    iterations_per_stratum: Dict[str, int] = field(default_factory=dict)
    # join planning: compiled fresh vs served from a Planner's cache
    plans_compiled: int = 0
    plan_cache_hits: int = 0

    def record_firing(self) -> None:
        """Count one successful body instantiation."""
        self.rule_firings += 1

    def record_iteration(self, stratum: str) -> None:
        """Count one fixpoint round, attributed to *stratum*."""
        self.iterations += 1
        self.iterations_per_stratum[stratum] = self.iterations_per_stratum.get(stratum, 0) + 1

    def record_stratum(self) -> None:
        """Count one SCC stratum whose fixpoint ran to completion."""
        self.strata += 1

    def record_plan(self, cache_hit: bool) -> None:
        """Count one program plan: compiled fresh, or reused from a cache."""
        if cache_hit:
            self.plan_cache_hits += 1
        else:
            self.plans_compiled += 1

    def record_batch(self, predicate: str, firings: int, new: int) -> None:
        """Count a whole kernel run at once: *firings* head productions, *new* fresh.

        Equivalent to ``record_firing()`` + ``record_fact(predicate, ...)``
        per production — the compiled engines accumulate plain integers in
        their inner loop and settle the counters here, once per rule run.
        """
        self.rule_firings += firings
        self.duplicate_derivations += firings - new
        if new:
            self.facts_derived += new
            self.facts_per_predicate[predicate] = (
                self.facts_per_predicate.get(predicate, 0) + new
            )

    def record_fact(self, predicate: str, is_new: bool) -> None:
        """Count one produced head fact; duplicates are tracked separately."""
        if is_new:
            self.facts_derived += 1
            self.facts_per_predicate[predicate] = self.facts_per_predicate.get(predicate, 0) + 1
        else:
            self.duplicate_derivations += 1

    def absorb(self, other: "EvaluationStatistics") -> None:
        """Fold *other* into this object in place.

        The parallel evaluators give each concurrent stratum its own
        statistics object and absorb them back in stratum-index order;
        because every counter is a sum and the per-predicate / per-stratum
        maps compare order-insensitively, the absorbed totals are identical
        to what the serial pass would have recorded.
        """
        self.iterations += other.iterations
        self.rule_firings += other.rule_firings
        self.facts_derived += other.facts_derived
        self.duplicate_derivations += other.duplicate_derivations
        self.strata += other.strata
        self.plans_compiled += other.plans_compiled
        self.plan_cache_hits += other.plan_cache_hits
        for predicate, count in other.facts_per_predicate.items():
            self.facts_per_predicate[predicate] = (
                self.facts_per_predicate.get(predicate, 0) + count
            )
        for stratum, count in other.iterations_per_stratum.items():
            self.iterations_per_stratum[stratum] = (
                self.iterations_per_stratum.get(stratum, 0) + count
            )

    def as_dict(self) -> Dict[str, int]:
        """Flat summary used by benchmark reports."""
        return {
            "iterations": self.iterations,
            "rule_firings": self.rule_firings,
            "facts_derived": self.facts_derived,
            "duplicate_derivations": self.duplicate_derivations,
            "strata": self.strata,
            "plans_compiled": self.plans_compiled,
            "plan_cache_hits": self.plan_cache_hits,
        }

    def __str__(self) -> str:
        return (
            f"iterations={self.iterations} rule_firings={self.rule_firings} "
            f"facts_derived={self.facts_derived} duplicates={self.duplicate_derivations}"
        )
