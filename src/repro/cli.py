"""Command-line interface: analyse, transform, and evaluate chain programs.

Usage (after ``pip install -e .``)::

    python -m repro.cli analyze  program.dl          # Theorem 3.3 verdict + certificate
    python -m repro.cli grammar  program.dl          # G(H), language class, sample words
    python -m repro.cli rewrite  program.dl          # the equivalent monadic program, if constructible
    python -m repro.cli magic    program.dl          # Section 7 quotient-based magic transformation
    python -m repro.cli evaluate program.dl facts.dl # run the program on a database of facts
    python -m repro.cli evaluate q.dl facts.dl --param who=john   # prepared parameterized query
    python -m repro.cli serve /var/lib/datalog       # durable HTTP server (WAL + snapshots)
    python -m repro.cli load-bench --port 8080 --processes 4      # multi-process load driver
    python -m repro.cli engines                      # list the registered evaluation engines
    python -m repro.cli bounded  program.dl          # Proposition 8.2 report

``evaluate`` is a thin wrapper over the unified evaluation API: it builds a
:class:`repro.datalog.QuerySession` and dispatches to any engine registered
in :mod:`repro.datalog.engine.registry` — pick one with ``--engine``
(``naive``, ``seminaive``, ``topdown``, ``magic``, or anything a plugin has
registered; see ``engines``).

A program file contains a goal line ``?p(c, Y)`` followed by chain rules; a
facts file contains ground facts, one per clause.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Dict, Iterable, Optional

from repro.core.boundedness import analyze_boundedness
from repro.core.chain import ChainProgram
from repro.core.grammar_map import to_grammar
from repro.core.magic_chain import magic_transform_chain
from repro.core.propagation import propagate_selection
from repro.datalog import (
    Database,
    QuerySession,
    format_program,
    parse_facts,
    parse_program,
)
from repro.datalog.engine import compile_program_plan, engine_descriptions, get_engine
from repro.errors import ReproError, ValidationError
from repro.languages.cfg import format_grammar
from repro.languages.cfg_analysis import enumerate_language
from repro.languages.cfg_properties import regularity_evidence


def _load_chain(path: str) -> ChainProgram:
    with open(path, "r", encoding="utf-8") as handle:
        return ChainProgram(parse_program(handle.read()))


def _load_database(path: str) -> Database:
    with open(path, "r", encoding="utf-8") as handle:
        return Database.from_facts(parse_facts(handle.read()))


def _print(text: str = "") -> None:
    sys.stdout.write(text + "\n")


def _parse_param_value(text: str):
    """``--param`` values: integers stay integers, quotes strip, rest is a string."""
    if re.fullmatch(r"-?\d+", text):
        return int(text)
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "\"'":
        return text[1:-1]
    return text


def _parse_params(pairs: Iterable[str]) -> Dict[str, object]:
    """Parse repeated ``--param name=value`` options into a bindings dict."""
    params: Dict[str, object] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        name = name.lstrip("$").strip()
        if not sep or not name:
            raise ValidationError(
                f"--param expects name=value, got {pair!r}"
            )
        params[name] = _parse_param_value(value.strip())
    return params


def _print_view_result(view) -> None:
    """Answers + maintenance account of a materialized view (--incremental)."""
    answers = sorted(view.answers(), key=repr)
    for answer in answers:
        _print("(" + ", ".join(str(value) for value in answer) + ")")
    _print(
        f"-- {len(answers)} answers; materialized view "
        f"(maintainable via apply); {view.statistics}"
    )
    _print(view.describe())


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def command_analyze(arguments: argparse.Namespace) -> int:
    chain = _load_chain(arguments.program)
    result = propagate_selection(chain)
    _print(f"goal form : {result.goal_form.value}")
    _print(f"verdict   : {result.verdict.value}")
    _print(f"reason    : {result.reason}")
    if result.witness is not None:
        _print(f"proof     : {result.witness.proof}")
    if result.monadic_program is not None and arguments.show_program:
        _print()
        _print("equivalent monadic program:")
        _print(format_program(result.monadic_program))
    return 0


def command_grammar(arguments: argparse.Namespace) -> int:
    chain = _load_chain(arguments.program)
    grammar = to_grammar(chain)
    _print("G(H):")
    _print(format_grammar(grammar))
    evidence = regularity_evidence(grammar)
    _print()
    _print(f"regularity certificate : {evidence.reason}")
    words = enumerate_language(grammar, arguments.max_length)
    rendered = ", ".join(" ".join(word) for word in words) if words else "(none)"
    _print(f"words up to length {arguments.max_length}: {rendered}")
    return 0


def command_rewrite(arguments: argparse.Namespace) -> int:
    chain = _load_chain(arguments.program)
    result = propagate_selection(chain)
    if result.monadic_program is None:
        _print(f"no monadic program constructed: {result.reason}")
        return 1
    _print(format_program(result.monadic_program))
    return 0


def command_magic(arguments: argparse.Namespace) -> int:
    chain = _load_chain(arguments.program)
    transformed = magic_transform_chain(chain)
    _print(format_program(transformed))
    return 0


def command_evaluate(arguments: argparse.Namespace) -> int:
    with open(arguments.program, "r", encoding="utf-8") as handle:
        program = parse_program(handle.read())
    database = _load_database(arguments.facts)
    session = QuerySession(program, database)
    params = _parse_params(arguments.param)
    # The evaluation knobs, spelled once; every surface below takes them.
    options = {"max_iterations": arguments.max_iterations, "timeout": arguments.timeout}
    declared = {parameter.name for parameter in program.parameters()}
    if declared:
        # Parameterized template: compile once, execute with the bindings.
        if set(params) != declared:
            wanted = ", ".join(f"${name}" for name in sorted(declared))
            raise ValidationError(
                f"program declares parameters {wanted}; bind each with --param name=value"
            )
        prepared = session.prepare(engine=arguments.engine)
        if arguments.explain:
            _print(prepared.describe())
            _print()
        if arguments.incremental:
            _print_view_result(prepared.materialize(params, **options))
            return 0
        result = prepared.execute(params, **options)
        answers = sorted(result.answers(), key=repr)
        for answer in answers:
            _print("(" + ", ".join(str(value) for value in answer) + ")")
        _print(
            f"-- {len(answers)} answers; engine={arguments.engine} "
            f"(prepared, executed as {prepared.default_engine}); {result.statistics}"
        )
        return 0
    if params:
        raise ValidationError(
            "--param given but the program declares no $parameters in its goal"
        )
    if arguments.incremental:
        if arguments.explain:
            _print(session.explain())
            _print()
        _print_view_result(session.materialize(**options))
        return 0
    if arguments.explain:
        # Explain the plan for what the engine actually evaluates: engines
        # that rewrite the program internally (e.g. ``magic``) run a
        # different plan than the session's program would, and non-planning
        # engines (``topdown``) use no bottom-up join plan at all.
        engine_object = get_engine(arguments.engine)
        engine_transform = getattr(engine_object, "transform", None)
        if engine_transform is not None:
            _print(session.explain())
            _print(f"engine {arguments.engine!r} rewrites the program before evaluating:")
            rewritten = engine_transform(session.transformed_program)
            _print(compile_program_plan(rewritten, database).describe())
        elif "planner" in engine_object.accepts:
            _print(session.explain(plans=True))
        else:
            _print(session.explain())
            _print(
                f"engine {arguments.engine!r} does not use the bottom-up join planner; "
                "no join plan to show"
            )
        _print()
    result = session.evaluate(arguments.engine, **options)
    answers = sorted(result.answers(), key=repr)
    for answer in answers:
        _print("(" + ", ".join(str(value) for value in answer) + ")")
    _print(f"-- {len(answers)} answers; engine={arguments.engine}; {result.statistics}")
    return 0


def command_serve(arguments: argparse.Namespace) -> int:
    """Run the durable HTTP Datalog server until SIGTERM/SIGINT."""
    # Imported lazily: the server stack (asyncio, WAL, snapshots) is not
    # needed by any other subcommand.
    from repro.datalog.server.http import run_server

    run_server(
        arguments.data_dir,
        host=arguments.host,
        port=arguments.port,
        fsync=arguments.fsync,
        snapshot_every=arguments.snapshot_every,
        max_pending_writes=arguments.max_pending_writes,
        executor_workers=arguments.workers,
        engine_workers=arguments.engine_workers,
        sync_interval=arguments.sync_interval,
        cache_size=arguments.cache_size,
        default_engine=arguments.engine,
        request_timeout=arguments.request_timeout,
        slow_query_threshold=arguments.slow_query_threshold,
    )
    return 0


def command_load_bench(arguments: argparse.Namespace) -> int:
    """Drive a running `repro serve` instance with multi-process load."""
    from repro.datalog.server.runner import run_load

    report = run_load(
        arguments.host,
        arguments.port,
        processes=arguments.processes,
        requests_per_process=arguments.requests,
        read_ratio=arguments.read_ratio,
        materialized_ratio=arguments.materialized_ratio,
        nodes=arguments.nodes,
        seed=arguments.seed,
        setup=not arguments.no_setup,
    )
    if arguments.json:
        import json as _json

        _print(_json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        _print(str(report))
    if report.errors:
        return 1
    return 0


def command_engines(arguments: argparse.Namespace) -> int:
    descriptions = engine_descriptions()
    width = max((len(name) for name in descriptions), default=0)
    for name, description in descriptions.items():
        _print(f"{name.ljust(width)}  {description}")
    return 0


def command_bounded(arguments: argparse.Namespace) -> int:
    chain = _load_chain(arguments.program)
    report = analyze_boundedness(chain)
    _print(f"bounded / first-order expressible : {report.bounded}")
    if report.bounded:
        words = ", ".join(" ".join(word) for word in report.language_words)
        _print(f"L(H) = {{ {words} }}")
        _print(f"derivation-size bound : {report.derivation_size_bound}")
        _print(f"first-order form      : {report.first_order_formula}")
    return 0


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Selection propagation analysis for chain Datalog programs "
        "(Beeri-Kanellakis-Bancilhon-Ramakrishnan).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze = subparsers.add_parser("analyze", help="Theorem 3.3 verdict for the program's goal")
    analyze.add_argument("program", help="path to the chain program")
    analyze.add_argument(
        "--show-program", action="store_true", help="also print the constructed monadic program"
    )
    analyze.set_defaults(handler=command_analyze)

    grammar = subparsers.add_parser("grammar", help="print G(H) and its language class")
    grammar.add_argument("program")
    grammar.add_argument("--max-length", type=int, default=5, help="word enumeration bound")
    grammar.set_defaults(handler=command_grammar)

    rewrite = subparsers.add_parser("rewrite", help="print the equivalent monadic program")
    rewrite.add_argument("program")
    rewrite.set_defaults(handler=command_rewrite)

    magic = subparsers.add_parser("magic", help="print the Section 7 magic transformation")
    magic.add_argument("program")
    magic.set_defaults(handler=command_magic)

    evaluate = subparsers.add_parser("evaluate", help="evaluate a program on a facts file")
    evaluate.add_argument("program")
    evaluate.add_argument("facts")
    evaluate.add_argument(
        "--engine",
        default=QuerySession.DEFAULT_ENGINE,
        help="evaluation strategy from the engine registry; resolved at run time so "
        "programmatically registered engines work too (default: %(default)s; "
        "see the `engines` subcommand for the registered set)",
    )
    evaluate.add_argument(
        "--max-iterations",
        type=int,
        default=None,
        help="abort fixpoint iteration after this many rounds",
    )
    evaluate.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline for the evaluation; past it the engine "
        "aborts at its next cooperative checkpoint with a timeout error",
    )
    evaluate.add_argument(
        "--explain",
        action="store_true",
        help="before evaluating, print the transform pipeline provenance and the "
        "join plan: SCC strata plus the chosen join order per rule",
    )
    evaluate.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="bind a goal parameter (repeatable); required once per $parameter "
        "declared by the program, e.g. --param who=john",
    )
    evaluate.add_argument(
        "--incremental",
        action="store_true",
        help="evaluate into a materialized view (counting + DRed maintenance) "
        "and report its per-stratum maintenance strategy",
    )
    evaluate.set_defaults(handler=command_evaluate)

    serve = subparsers.add_parser(
        "serve",
        help="run the durable HTTP Datalog server (WAL + snapshots) until "
        "SIGTERM; restart recovers the full state from the data directory",
    )
    serve.add_argument("data_dir", help="directory for the WAL and snapshots")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=0,
        help="bind port; 0 picks a free one (printed as a READY line)",
    )
    serve.add_argument(
        "--fsync", default="always", choices=("always", "batch", "never"),
        help="WAL durability policy (default: %(default)s)",
    )
    serve.add_argument(
        "--snapshot-every", type=int, default=1024,
        help="snapshot + truncate the WAL after this many records",
    )
    serve.add_argument(
        "--max-pending-writes", type=int, default=64,
        help="admission-control bound; beyond it writes get 429 + Retry-After",
    )
    serve.add_argument(
        "--workers", type=int, default=4,
        help="thread-pool size for engine work (the event loop never blocks)",
    )
    serve.add_argument(
        "--engine-workers", type=int, default=None, metavar="N",
        help="parallel evaluation workers *inside* each engine run "
        "(depth-concurrent strata + sharded columnar deltas); distinct "
        "from --workers, which sizes the request-handler thread pool. "
        "Only engines with the parallel layer use it; others run serial",
    )
    serve.add_argument(
        "--sync-interval", type=float, default=None,
        help="periodic WAL fsync in seconds (for --fsync batch)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=256, help="LRU result-cache entries"
    )
    serve.add_argument(
        "--engine", default=QuerySession.DEFAULT_ENGINE,
        help="default execution engine for registered programs",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=None, metavar="SECONDS",
        help="deadline for engine-running requests; past it the evaluation "
        "aborts cooperatively and the client gets 408 (a request body's "
        "\"timeout\" field can tighten but never loosen this)",
    )
    serve.add_argument(
        "--slow-query-threshold", type=float, default=1.0, metavar="SECONDS",
        help="log + count requests slower than this (default: %(default)s)",
    )
    serve.set_defaults(handler=command_serve)

    load_bench = subparsers.add_parser(
        "load-bench",
        help="drive a running `repro serve` instance with N client processes "
        "over real sockets and report p50/p95/p99 + req/s (start the server "
        "with --engine-workers to measure parallel evaluation under load)",
    )
    load_bench.add_argument("--host", default="127.0.0.1", help="server address")
    load_bench.add_argument("--port", type=int, required=True, help="server port")
    load_bench.add_argument(
        "--processes", type=int, default=2, help="client processes (default: 2)"
    )
    load_bench.add_argument(
        "--requests", type=int, default=200, help="requests per process"
    )
    load_bench.add_argument(
        "--read-ratio", type=float, default=0.9,
        help="fraction of requests that are reads (default: 0.9)",
    )
    load_bench.add_argument(
        "--materialized-ratio", type=float, default=0.5,
        help="fraction of reads that hit the materialized binding",
    )
    load_bench.add_argument(
        "--nodes", type=int, default=24, help="graph size of the fixture workload"
    )
    load_bench.add_argument("--seed", type=int, default=1987, help="workload RNG seed")
    load_bench.add_argument(
        "--no-setup", action="store_true",
        help="skip installing the fixture workload (server already prepared)",
    )
    load_bench.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    load_bench.set_defaults(handler=command_load_bench)

    engines = subparsers.add_parser("engines", help="list the registered evaluation engines")
    engines.set_defaults(handler=command_engines)

    bounded = subparsers.add_parser("bounded", help="Proposition 8.2 boundedness report")
    bounded.add_argument("program")
    bounded.set_defaults(handler=command_bounded)

    return parser


def main(argv: Optional[Iterable[str]] = None) -> int:
    parser = build_parser()
    arguments = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return arguments.handler(arguments)
    except ReproError as error:
        sys.stderr.write(f"error: {error}\n")
        return 2
    except FileNotFoundError as error:
        sys.stderr.write(f"error: {error}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
