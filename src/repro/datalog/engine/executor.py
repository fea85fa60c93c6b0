"""Compiled slot-based join kernels for the bottom-up engines.

A :class:`~repro.datalog.engine.planner.JoinPlan` fixes *what order* a
rule's body is joined in.  Interpreting that order through
:func:`~repro.datalog.engine.base.match_body` pays real overhead per
candidate tuple: a fresh substitution dict (even for failing candidates),
a :class:`~repro.datalog.terms.Constant` wrapper per binding, and an
``isinstance`` scan over the atom's terms to rediscover the probe column.

This module lowers each plan into a :class:`RuleKernel` in two stages:

* **steps** — the rule's variables are numbered into **slots**
  ``0..k-1`` once, and every join step becomes a :class:`StepKernel`:
  its **probe source** (a constant value, a slot to read, or a full
  scan), its **equality checks** as ``(tuple position, expected)`` pairs,
  its **bind list** of ``(tuple position, slot)`` writes, or — for a
  negated literal — the operands of a membership test.  The static order
  and every :class:`~repro.datalog.engine.planner.DeltaVariant` get a
  step sequence under the same slot numbering.  The steps are the IR:
  ``describe()`` prints them and the columnar lanes lower them further
  (:meth:`RuleKernel.batch_kernel`);
* **generated source** — to run on the tuple lane a step sequence is
  emitted as *one Python function of plain nested* ``for`` *loops*
  (:func:`_generate`): slots are locals, every check is an inlined
  ``continue``, the head tuple is built inline, and the innermost
  statement counts the firing and emits the head unless the caller's
  ``existing`` container holds it.  The text is turned into a function
  the way :mod:`dataclasses` and ``namedtuple`` do it (``exec``), with
  predicate names and constants **bound as values, never printed** — so
  the text depends on the sequence's shape alone, structurally identical
  sequences share one code object (:func:`_factory`'s memo: re-preparing
  after a write compiles nothing), and no value needs escaping.
  Generation is lazy per sequence: a variant that never fires is never
  generated.  :meth:`RuleKernel.source` returns the text.

:meth:`RuleKernel.execute_static` and :meth:`RuleKernel.execute_delta`
are the only two functions that run kernel code, for the fixpoint and
for view maintenance alike.

Compilation is conservative: a rule whose terms are not all variables and
constants (e.g. an un-compiled :class:`~repro.datalog.terms.Parameter`)
yields no kernel and the engines fall back to the ``match_body`` reference
path, which also remains the evaluator for the top-down engine and any
custom transform that produces such rules.  An aggregate rule yields no
*rule* kernel either, but its body gets one of the same kind
(:func:`compile_aggregate_kernel`).
:func:`~repro.datalog.engine.planner.compile_program_plan` attaches
kernels to the :class:`~repro.datalog.engine.planner.ProgramPlan`, so the
:class:`~repro.datalog.engine.planner.Planner` memo cache (and a
:class:`~repro.datalog.prepared.PreparedQuery`'s cached plan) amortises
lowering exactly like join planning: once per binding pattern.
"""

from __future__ import annotations

import functools
import hashlib
import linecache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.datalog.atoms import NegatedAtom
from repro.datalog.database import Database
from repro.datalog.rules import Rule
from repro.datalog.terms import Aggregate, Constant, Variable

# Probe kinds a compiled step can use to fetch its candidate tuples.
PROBE_CONST = 0  # index probe with a constant baked in at compile time
PROBE_SLOT = 1  # index probe with the value read from a slot
PROBE_SCAN = 2  # full relation scan


class StepKernel:
    """One compiled join step: where to fetch tuples and how to filter them.

    Everything the generated loop needs is precomputed into plain tuples
    of integers and raw values; the atom itself is kept only for
    :meth:`describe`.
    """

    __slots__ = (
        "atom",
        "predicate",
        "arity",
        "use_delta",
        "probe_kind",
        "probe_position",
        "probe_value",
        "probe_slot",
        "const_checks",
        "slot_checks",
        "self_checks",
        "binds",
        "anti",
        "anti_ops",
    )

    def __init__(
        self,
        atom,
        use_delta: bool,
        probe_kind: int,
        probe_position: int,
        probe_value,
        probe_slot: int,
        const_checks: Tuple[Tuple[int, object], ...],
        slot_checks: Tuple[Tuple[int, int], ...],
        self_checks: Tuple[Tuple[int, int], ...],
        binds: Tuple[Tuple[int, int], ...],
        anti: bool = False,
        anti_ops: Tuple[Tuple[bool, object], ...] = (),
    ):
        self.atom = atom
        self.predicate = atom.predicate
        self.arity = atom.arity
        self.use_delta = use_delta
        self.probe_kind = probe_kind
        self.probe_position = probe_position
        self.probe_value = probe_value
        self.probe_slot = probe_slot
        self.const_checks = const_checks
        self.slot_checks = slot_checks
        self.self_checks = self_checks
        self.binds = binds
        # Anti steps (negated literals) run fully bound: ``anti_ops`` builds
        # the ground value tuple — one (is_slot, payload) pair per argument —
        # and the step passes iff the tuple is absent from the relation.
        self.anti = anti
        self.anti_ops = anti_ops

    def describe(self) -> str:
        """One EXPLAIN line: source, probe, checks, and slot writes."""
        if self.anti:
            args = ", ".join(
                f"s{payload}" if is_slot else repr(payload)
                for is_slot, payload in self.anti_ops
            )
            return f"anti-join {self.predicate}({args})"
        source = "delta " if self.use_delta else ""
        if self.probe_kind == PROBE_CONST:
            access = f"probe {source}{self.predicate}[{self.probe_position}]=={self.probe_value!r}"
        elif self.probe_kind == PROBE_SLOT:
            access = f"probe {source}{self.predicate}[{self.probe_position}]==s{self.probe_slot}"
        else:
            access = f"scan {source}{self.predicate}"
        parts = [access]
        checks = [f"[{pos}]=={value!r}" for pos, value in self.const_checks]
        checks += [f"[{pos}]==s{slot}" for pos, slot in self.slot_checks]
        checks += [f"[{pos}]==[{other}]" for pos, other in self.self_checks]
        if checks:
            parts.append("check " + ",".join(checks))
        if self.binds:
            parts.append("bind " + ",".join(f"s{slot}<-[{pos}]" for pos, slot in self.binds))
        return "; ".join(parts)


#: CPython refuses more than 20 statically nested blocks; a longer step
#: sequence continues in a chained function every this many loops.
MAX_NESTED_LOOPS = 16


def _tuple_text(items: Sequence[str]) -> str:
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def _generate(
    steps: Sequence[StepKernel], head_ops: Tuple[Tuple[bool, object], ...]
) -> Tuple[str, Tuple]:
    """Source text of one step sequence, and the values it binds.

    The text defines ``bind(c0, c1, …)`` returning the kernel function
    ``kernel(database, delta, emit, existing)``: the steps as plain nested
    ``for`` loops over slot locals (``s0``, ``s1``, …), every check an
    inlined ``continue``, the head tuple built inline at the innermost
    level and counted in ``n``, which the kernel returns.  Predicate names
    and constants appear only as the parameters ``c0``, ``c1``, … — never
    as literals — so the text depends on the *shape* of the sequence alone
    and structurally identical sequences share one code object.

    A probe against a plain :class:`Database` reads the ``(predicate,
    position)`` index fetched once in the prologue; any other source (an
    overlay, the incremental state views) is asked through its bound
    ``probe`` per lookup.  The prologue therefore builds a missing index
    even when the loops around its step turn out empty.
    """
    values: List[object] = []

    def bound(value) -> str:
        values.append(value)
        return f"c{len(values) - 1}"

    def operands(ops) -> str:
        return _tuple_text(
            [f"s{payload}" if is_slot else bound(payload) for is_slot, payload in ops]
        )

    prologue: List[str] = []
    # One list of body lines per function: the kernel's own loops first,
    # then each chained ``part`` (parameters: every slot bound before it).
    functions: List[Tuple[str, List[str]]] = [("", ["n = 0"])]
    lines = functions[0][1]
    depth = 0
    slots_bound: List[int] = []
    for number, step in enumerate(steps):
        pad = "    " * depth
        skip = "continue" if depth else "return n"
        source = "delta" if step.use_delta else "database"
        plain = f"type({source}) is Database"
        predicate = bound(step.predicate)
        if step.anti:
            prologue += [
                f"view{number} = {source}.relation_view({predicate}) if {plain} else None",
                f"has{number} = {source}.contains",
            ]
            row = operands(step.anti_ops)
            lines += [
                f"{pad}if (has{number}({predicate}, {row}) if view{number} is None "
                f"else {row} in view{number}):",
                f"{pad}    {skip}",
            ]
            continue
        if depth == MAX_NESTED_LOOPS:
            arguments = ", ".join(f"s{slot}" for slot in sorted(slots_bound))
            name = f"part{len(functions)}"
            lines.append(f"{pad}n += {name}({arguments})")
            functions.append((f"def {name}({arguments}):", ["n = 0"]))
            lines = functions[-1][1]
            depth, pad = 0, ""
        row = f"t{number}"
        if step.probe_kind == PROBE_SCAN:
            candidates = f"{source}.relation({predicate})"
        else:
            position = step.probe_position
            key = (
                bound(step.probe_value)
                if step.probe_kind == PROBE_CONST
                else f"s{step.probe_slot}"
            )
            prologue += [
                f"get{number} = {source}.index({predicate}, {position}).get if {plain} else None",
                f"probe{number} = {source}.probe",
            ]
            candidates = (
                f"(probe{number}({predicate}, {position}, {key}) if get{number} is None "
                f"else get{number}({key}, ()))"
            )
        lines.append(f"{pad}for {row} in {candidates}:")
        # Unpacking binds this step's slots and rejects a row of another
        # arity (a relation may mix arities) in one instruction; columns
        # that bind nothing land in throwaway names the checks read.
        columns = [f"{row}_{at}" for at in range(step.arity)]
        for at, slot in step.binds:
            columns[at] = f"s{slot}"
            slots_bound.append(slot)
        lines += [
            f"{pad}    try:",
            f"{pad}        {_tuple_text(columns)} = {row}",
            f"{pad}    except ValueError:",
            f"{pad}        continue",
        ]
        checks = [f"{columns[at]} != {bound(value)}" for at, value in step.const_checks]
        checks += [f"{columns[at]} != s{slot}" for at, slot in step.slot_checks]
        checks += [f"{columns[at]} != {columns[other]}" for at, other in step.self_checks]
        if checks:
            lines += [f"{pad}    if {' or '.join(checks)}:", f"{pad}        continue"]
        depth += 1
    pad = "    " * depth
    lines += [
        f"{pad}n += 1",
        f"{pad}h = {operands(head_ops)}",
        f"{pad}if h not in existing:",
        f"{pad}    emit(h)",
    ]
    text = [f"def bind({', '.join(f'c{index}' for index in range(len(values)))}):"]
    text.append("    def kernel(database, delta, emit, existing):")
    text += ["        " + line for line in prologue]
    # Chained parts are closures of the kernel (they read its handles),
    # defined before the loops that call them.
    for header, body in functions[:0:-1]:
        text.append("        " + header)
        text += ["            " + line for line in body]
        text.append("            return n")
    text += ["        " + line for line in functions[0][1]]
    text += ["        return n", "    return kernel", ""]
    return "\n".join(text), tuple(values)


@functools.lru_cache(maxsize=4096)
def _factory(source: str) -> Callable:
    """``bind`` of one generated source — compiled once per distinct text.

    The text is registered with :mod:`linecache` under its own
    ``<repro-kernel …>`` filename, so a traceback or profile row from
    inside a kernel shows the generated line.
    """
    digest = hashlib.sha1(source.encode(), usedforsecurity=False).hexdigest()[:12]
    filename = f"<repro-kernel {digest}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"Database": Database}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["bind"]


class RuleKernel:
    """The fully compiled evaluator for one rule.

    One slot numbering (``register_count`` raw values) is shared by the
    static step sequence and every delta variant.  Each sequence runs as
    one generated function (:func:`_generate`), built on first use — a
    variant that never fires is never generated.
    """

    __slots__ = (
        "rule",
        "register_count",
        "slot_names",
        "head_ops",
        "static_steps",
        "delta_steps",
        "_functions",
        "_batch",
    )

    def __init__(
        self,
        rule: Rule,
        register_count: int,
        slot_names: Tuple[str, ...],
        head_ops: Tuple[Tuple[bool, object], ...],
        static_steps: Tuple[StepKernel, ...],
        delta_steps: Dict[int, Tuple[StepKernel, ...]],
    ):
        self.rule = rule
        self.register_count = register_count
        self.slot_names = slot_names
        self.head_ops = head_ops
        self.static_steps = static_steps
        self.delta_steps = dict(delta_steps)
        # position (None = the static order) -> generated kernel function
        self._functions: Dict[Optional[int], Callable] = {}
        self._batch = None

    @property
    def delta_positions(self) -> Tuple[int, ...]:
        """Original body positions that have a compiled delta variant."""
        return tuple(self.delta_steps)

    def batch_kernel(self):
        """The columnar lowering of this kernel's step programs.

        Same steps, same slot numbering, same delta variants — but each
        step runs over a whole batch of intern-code columns instead of one
        tuple at a time (see :mod:`repro.datalog.columnar.batch`).  Built
        lazily so tuple-layout evaluations never pay for it.
        """
        if self._batch is None:
            from repro.datalog.columnar.batch import BatchKernel

            self._batch = BatchKernel(self)
        return self._batch

    def _steps(self, position: Optional[int]) -> Tuple[StepKernel, ...]:
        return self.static_steps if position is None else self.delta_steps[position]

    def _function(self, position: Optional[int]) -> Callable:
        function = self._functions.get(position)
        if function is None:
            source, values = _generate(self._steps(position), self.head_ops)
            function = self._functions[position] = _factory(source)(*values)
        return function

    def source(self, position: Optional[int] = None) -> str:
        """The generated source of the static order, or of one delta variant."""
        return _generate(self._steps(position), self.head_ops)[0]

    def execute_static(self, database, emit: Callable[[Tuple], None], existing=()) -> int:
        """Stream the static order's head tuples into *emit*; returns the firing count.

        Every firing is counted; a head tuple found in *existing* (any
        container answering ``in``) is not emitted.  The fixpoint passes
        the head relation's live view and a bucket's ``set.add``, so the
        count and the bucket's growth are all the statistics need; with
        the default nothing is filtered and duplicates stream through.
        """
        return self._function(None)(database, None, emit, existing)

    def execute_delta(
        self, position: int, database, delta, emit: Callable[[Tuple], None], existing=()
    ) -> int:
        """Like :meth:`execute_static`, the body atom at *position* reading the delta."""
        return self._function(position)(database, delta, emit, existing)

    def run_static(self, database) -> List[Tuple]:
        """All head-value firings of the static order, materialised (for tests)."""
        out: List[Tuple] = []
        self.execute_static(database, out.append)
        return out

    def run_delta(self, position: int, database, delta) -> List[Tuple]:
        """All firings of one delta variant, materialised (for tests)."""
        out: List[Tuple] = []
        self.execute_delta(position, database, delta, out.append)
        return out

    def head(self, slots: Sequence[object]) -> Tuple:
        """The head-value tuple for a fully populated slot list (for tests)."""
        return tuple(slots[payload] if is_slot else payload for is_slot, payload in self.head_ops)

    def describe(self) -> str:
        """EXPLAIN surface: slot numbering, head extraction, per-step detail."""
        slots = ", ".join(f"{name}=s{index}" for index, name in enumerate(self.slot_names))
        head = ", ".join(
            f"s{payload}" if is_slot else repr(payload) for is_slot, payload in self.head_ops
        )
        lines = [f"kernel: {self.register_count} slots ({slots or 'none'}); head <{head}>"]
        for number, step in enumerate(self.static_steps, start=1):
            lines.append(f"  {number}. {step.describe()}")
        for position in sorted(self.delta_steps):
            chain = " -> ".join(step.describe() for step in self.delta_steps[position])
            lines.append(f"  delta@{position}: {chain}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"RuleKernel(rule={self.rule}, slots={self.register_count}, "
            f"steps={len(self.static_steps)}, variants={len(self.delta_steps)})"
        )


def _compile_sequence(
    rule: Rule,
    order: Sequence[int],
    registers: Dict[Variable, int],
    delta_position: Optional[int],
) -> Optional[Tuple[StepKernel, ...]]:
    """Lower one execution order into compiled steps under the shared slots.

    The probe column mirrors :func:`~repro.datalog.engine.base.candidate_tuples`
    exactly — the first argument (in term order) that is a constant or an
    already-bound variable — so the compiled access path is the one the
    planner's ``probe``/``scan`` annotations promised.

    A negated literal compiles to an *anti step* (fully-bound membership
    test against the complement) — unless it is the delta position, in
    which case it is matched positively against the signed delta (the
    incremental maintenance pass enumerates negated-position deltas that
    way).  Returns ``None`` if an anti step would run with an unbound
    variable (planned orders never do this; a hand-built order might).
    """
    bound: set = set()
    steps: List[StepKernel] = []
    for position in order:
        atom = rule.body[position]
        if isinstance(atom, NegatedAtom) and position != delta_position:
            anti_ops: List[Tuple[bool, object]] = []
            for term in atom.terms:
                if isinstance(term, Constant):
                    anti_ops.append((False, term.value))
                elif term in bound:
                    anti_ops.append((True, registers[term]))
                else:
                    return None
            steps.append(
                StepKernel(
                    atom, False, PROBE_SCAN, -1, None, -1, (), (), (), (),
                    anti=True, anti_ops=tuple(anti_ops),
                )
            )
            continue
        probe_kind = PROBE_SCAN
        probe_position = -1
        probe_value = None
        probe_slot = -1
        for index, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                probe_kind, probe_position, probe_value = PROBE_CONST, index, term.value
                break
            if term in bound:
                probe_kind, probe_position, probe_slot = PROBE_SLOT, index, registers[term]
                break
        const_checks: List[Tuple[int, object]] = []
        slot_checks: List[Tuple[int, int]] = []
        self_checks: List[Tuple[int, int]] = []
        binds: List[Tuple[int, int]] = []
        first_here: Dict[Variable, int] = {}
        for index, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                if probe_kind == PROBE_CONST and index == probe_position:
                    continue  # the probe already guarantees equality here
                const_checks.append((index, term.value))
            elif term in bound:
                if probe_kind == PROBE_SLOT and index == probe_position:
                    continue  # ditto: probed by this slot's value
                slot_checks.append((index, registers[term]))
            elif term in first_here:
                # Repeated variable within this atom, still unbound: compare
                # the two tuple positions directly.
                self_checks.append((index, first_here[term]))
            else:
                first_here[term] = index
                binds.append((index, registers[term]))
        bound.update(first_here)
        steps.append(
            StepKernel(
                atom,
                position == delta_position,
                probe_kind,
                probe_position,
                probe_value,
                probe_slot,
                tuple(const_checks),
                tuple(slot_checks),
                tuple(self_checks),
                tuple(binds),
            )
        )
    return tuple(steps)


def compile_rule_kernel(plan) -> Optional[RuleKernel]:
    """Compile a :class:`~repro.datalog.engine.planner.JoinPlan` to a kernel.

    Returns ``None`` when the rule cannot be lowered — any term that is not
    a plain variable or constant (an un-compiled parameter, an aggregate,
    or a term kind a future transform might invent) keeps the rule on the
    interpreted ``match_body`` path instead of miscompiling it.
    """
    return _lower(plan, plan.rule.head.terms)


def compile_aggregate_kernel(plan) -> Optional[RuleKernel]:
    """The body kernel of an aggregate rule, or ``None`` for any other rule.

    Its head is ``(group key…, aggregated value)``: the rule's
    non-aggregate head terms in order, then the aggregated variable —
    what :func:`~repro.datalog.engine.base.fire_aggregate_rule` groups.
    It is kept apart from the rule kernels (``plan.kernels[rule]`` stays
    ``None``): the columnar lanes have no grouping step to lower it to.
    """
    terms = plan.rule.head.terms
    aggregates = [term for term in terms if isinstance(term, Aggregate)]
    if len(aggregates) != 1:
        return None
    key = tuple(term for term in terms if not isinstance(term, Aggregate))
    return _lower(plan, key + (aggregates[0].variable,))


def _lower(plan, head_terms) -> Optional[RuleKernel]:
    rule: Rule = plan.rule
    for terms in (head_terms, *(atom.terms for atom in rule.body)):
        for term in terms:
            if not isinstance(term, (Variable, Constant)):
                return None
    registers: Dict[Variable, int] = {}
    for atom in rule.body:
        for term in atom.terms:
            if isinstance(term, Variable) and term not in registers:
                registers[term] = len(registers)
    head_ops: List[Tuple[bool, object]] = []
    for term in head_terms:
        if isinstance(term, Variable):
            if term not in registers:
                return None  # unsafe head variable; leave it to validation
            head_ops.append((True, registers[term]))
        else:
            head_ops.append((False, term.value))
    static_steps = _compile_sequence(rule, plan.order, registers, None)
    if static_steps is None:
        return None
    delta_steps = {}
    for variant in plan.variants:
        steps = _compile_sequence(rule, variant.order, registers, variant.position)
        if steps is None:
            return None
        delta_steps[variant.position] = steps
    slot_names = tuple(
        name for name, _ in sorted(
            ((variable.name, index) for variable, index in registers.items()),
            key=lambda pair: pair[1],
        )
    )
    return RuleKernel(
        rule, len(registers), slot_names, tuple(head_ops), static_steps, delta_steps
    )
