"""EvalOptions: the evaluation knobs, spelled once.

The paper's claim is that propagating a selection changes the *cost* of an
evaluation and never its answers; the repo keeps that honest by running one
program through four engines under the same knobs.  Those knobs live here
and nowhere else: every public edge — ``Engine.evaluate``, the session,
prepared queries, the service, the HTTP handlers, the CLI — takes
``**keywords``, hands them to :meth:`EvalOptions.capture` once, and passes
the resulting object down *unchanged* until a consumer reads a field::

    session.evaluate("seminaive", workers=2, timeout=5.0)
    prepared.execute(who="john", max_iterations=50)
    service.execute("reach", {"src": 0}, budget=ResourceBudget(max_facts=10_000))

Adding a knob is one field here, one entry in the ``accepts`` of each
engine that honours it (:mod:`repro.datalog.engine.registry`), and one
consumer; no surface in between changes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Collection, Dict, FrozenSet, Mapping, Optional

from repro.datalog.guard import ExecutionGuard, build_guard
from repro.errors import EvaluationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.datalog.engine.planner import Planner, ProgramPlan

__all__ = ["EvalOptions", "resolve", "split_bindings"]


def _check_count(name: str, value, least: int) -> None:
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, int):
        raise EvaluationError(f"{name} must be an int >= {least}, got {value!r}")
    if value < least:
        raise EvaluationError(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class EvalOptions:
    """One evaluation's knobs; ``None`` means "not set" for every field.

    Construction validates, so a bad value raises before any work runs.
    """

    #: Which registered engine runs.  Read by the edge that resolves the
    #: engine (session, prepared query, service, CLI) and by nobody below.
    engine: Optional[str] = None
    #: Bound on total fixpoint rounds; exceeding it raises ``EvaluationError``.
    max_iterations: Optional[int] = None
    #: A shared join-plan cache.  A performance hint, never semantics: an
    #: engine that plans nothing drops it silently.
    planner: Optional["Planner"] = None
    #: A precompiled plan to execute as-is (the prepared-query path).
    plan: Optional["ProgramPlan"] = None
    #: ``False`` runs the interpreted ``match_body`` reference instead of
    #: the compiled kernels — the baseline tests and E11/E14 diff against.
    compiled: Optional[bool] = None
    #: The armed deadline / budget / cancellation guard for this run.
    guard: Optional[ExecutionGuard] = None
    #: Parallel evaluation workers (> 1 enables the parallel layer).
    workers: Optional[int] = None
    #: Bookkeeping, not a knob: the set fields that are hints — a consumer
    #: that does not honour one drops it instead of raising.  ``planner``
    #: always is (plan caching is never semantics); :meth:`capture` adds
    #: the fields only an owner's defaults set.
    hints: FrozenSet[str] = frozenset({"planner"})

    def __post_init__(self) -> None:
        if self.engine is not None and not isinstance(self.engine, str):
            raise EvaluationError(
                f"engine must be a registered engine's name, got {self.engine!r}"
            )
        _check_count("max_iterations", self.max_iterations, 0)
        _check_count("workers", self.workers, 1)

    @classmethod
    def capture(
        cls, keywords: Mapping[str, object], defaults: Optional[Mapping[str, object]] = None
    ) -> "EvalOptions":
        """The options a public edge was called with — the one capture point.

        *keywords* are the edge's ``**keywords``: the fields above plus
        ``timeout`` / ``budget`` / ``cancellation``, which are folded into
        an armed ``guard`` here (the deadline clock starts now).  A keyword
        left ``None`` is unset; an unknown one is a ``TypeError``, as for
        any function.

        *defaults* (an owner's standing keywords, e.g. a service's
        ``default_timeout`` and ``workers``) fill what the call left unset.
        A per-call value is strict; a field set by nothing but a default is
        recorded in :attr:`hints`, so one default can front a registry of
        mixed engines.
        """
        if not KEYWORDS.issuperset(keywords):
            unknown = ", ".join(sorted(keywords.keys() - KEYWORDS))
            raise TypeError(f"unexpected keyword argument(s): {unknown}")
        values = {key: value for key, value in keywords.items() if value is not None}
        hints = ALWAYS_HINTS
        if defaults:
            strict = {_field(key) for key in values}
            for key, value in defaults.items():
                if key not in values and _field(key) not in values:
                    values[key] = value
            hints = hints.union({_field(key) for key in values} - strict)
        pop = values.pop
        guard = build_guard(pop("timeout", None), pop("budget", None), pop("cancellation", None))
        if guard is not None:
            if "guard" in values:
                raise TypeError("pass guard= or timeout=/budget=/cancellation=, not both")
            values["guard"] = guard
        return cls(**values, hints=hints)

    def checked(self, who: str, accepts: Collection[str]) -> "EvalOptions":
        """These options as *who* will honour them — the one capability check.

        *accepts* names the fields *who* reads.  A set field it does not
        read is dropped when it is a hint and raises otherwise — silently
        ignoring a ``guard`` or ``max_iterations`` would run unbounded,
        ignoring ``workers`` or ``compiled`` would time the wrong thing, and
        a ``plan`` *is* the strata to execute.
        """
        for name in CHECKED_FIELDS:
            if name not in accepts and getattr(self, name) is not None:
                if name not in self.hints:
                    raise EvaluationError(f"{who} does not support the {name} option")
                self = self.replace(**{name: None})
        return self

    def replace(self, **changes) -> "EvalOptions":
        """A validated copy with *changes* applied: ``dataclasses.replace``
        minus its per-call field introspection, which showed on the
        prepared-query path (one copy per execution, to hand over the plan)."""
        clone = object.__new__(EvalOptions)
        vars(clone).update(vars(self), **changes)
        clone.__post_init__()
        return clone


def _field(keyword: str) -> str:
    return "guard" if keyword in GUARD_KEYWORDS else keyword


def split_bindings(keywords: Dict[str, object], bindings: Dict[str, object]) -> None:
    """Move every keyword that is not an option keyword into *bindings*.

    The prepared-query and service edges take parameter bindings and option
    keywords in one ``**keywords``; whatever is not an option is a binding.
    """
    if not KEYWORDS.issuperset(keywords):
        for key in [key for key in keywords if key not in KEYWORDS]:
            bindings[key] = keywords.pop(key)


def resolve(options: Optional[EvalOptions], keywords: Mapping[str, object]) -> EvalOptions:
    """An edge's options: the object handed down, or its keywords captured."""
    if options is None:
        return EvalOptions.capture(keywords)
    if keywords:
        raise TypeError("pass an EvalOptions or option keywords, not both")
    return options


#: ``hints``' default: what is a hint on every call.
ALWAYS_HINTS = EvalOptions.hints
#: Keywords folded into ``guard`` by :meth:`EvalOptions.capture`.
GUARD_KEYWORDS = ("timeout", "budget", "cancellation")
#: The fields a consumer must declare to be handed (``engine`` is consumed
#: by whoever resolved the engine).
CHECKED_FIELDS = tuple(
    field.name for field in dataclasses.fields(EvalOptions) if field.name not in ("engine", "hints")
)
#: Every keyword :meth:`EvalOptions.capture` understands.
KEYWORDS = frozenset(CHECKED_FIELDS + GUARD_KEYWORDS + ("engine",))
