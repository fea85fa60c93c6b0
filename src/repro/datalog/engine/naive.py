"""Naive bottom-up evaluation: iterate a stratum's rules over the full model.

This is the textbook fixpoint computation of the minimum model ``M(B, H)``
of Section 2.1, kept deliberately wasteful *within* a recursive stratum: it
recomputes every rule over the whole model at every iteration, so it
derives the same facts over and over — the
:class:`~repro.datalog.engine.stats.EvaluationStatistics` duplicate counter
makes that waste visible, which is exactly the waste the paper's selection
propagation and the magic-set transformation are designed to avoid.

It does share the planner's structural optimisations with the semi-naive
engine (see :mod:`repro.datalog.engine.planner`): bodies are joined in the
planned order, and evaluation proceeds stratum by stratum so non-recursive
strata run in a single pass.  What stays naive is the differential part —
inside a recursive stratum there are no deltas, every round redoes all the
work.  That difference is one flag on the shared loop in
:mod:`repro.datalog.engine.fixpoint`; this module is the naive engine's
entry point into it.
"""

import functools

from repro.datalog.engine import fixpoint

# Re-exported only because the ledger's tracer wraps the name here.
from repro.datalog.engine.planner import compile_program_plan  # noqa: F401

#: The naive engine: ``_evaluate(program, database, options)``.
_evaluate = functools.partial(fixpoint.evaluate, naive=True)
