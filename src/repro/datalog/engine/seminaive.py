"""Semi-naive bottom-up evaluation: stratified, planned, with per-iteration deltas.

The standard differential fixpoint: a rule instantiation is only recomputed
in iteration ``i`` if at least one of its recursive body atoms matches a
fact that was new in iteration ``i - 1``.  This engine is the reference
evaluator used throughout the benchmarks; the naive engine exists to expose
the cost of not doing this, and the magic-set / monadic rewrites then
reduce the work further by not deriving irrelevant facts at all.

Two evaluation-level optimisations come from
:mod:`repro.datalog.engine.planner`:

* the fixpoint is **stratified** by strongly connected components of the
  predicate dependency graph — each stratum runs to its own fixpoint with
  all lower strata complete, so non-recursive strata take exactly one pass
  and long dependency chains never rescan rules that cannot fire again;
* each rule body is joined in the **planned order** — probeable atoms
  first, smallest relations next — and each recursive body atom has a
  delta-specialised variant that reads the (small) delta first.

The loop itself is :mod:`repro.datalog.engine.fixpoint` — one driver for
both bottom-up engines and every execution lane; this module is the
semi-naive engine's entry point into it.
"""

import functools

from repro.datalog.engine import fixpoint

# Re-exported only because the ledger's tracer wraps the name here.
from repro.datalog.engine.planner import compile_program_plan  # noqa: F401

#: The semi-naive engine: ``_evaluate(program, database, options)``.
_evaluate = functools.partial(fixpoint.evaluate, naive=False)
