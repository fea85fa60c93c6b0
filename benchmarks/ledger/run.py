"""The ledger's one command.

Single run (the form the driver uses)::

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

generates the workload's inputs from the seed, measures for ``S`` seconds,
checks every output against :mod:`reference`, prints every metric by name
with unit, sample count and bound, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
with ``--trace 0`` (tracing off), the per-layer metrics with ``--trace 1``.

Whole ledger (what a person runs)::

    python3 benchmarks/ledger/run.py [--workload NAME]... [--seed N] [--seconds S]
                                     [--repeat K] [--out DIR] [--smoke]

runs every (workload, trace) pair as a child process of the form above,
one after the other, prints the table and writes ``DIR/ledger.json``.
With ``--repeat K`` (even) it runs ``K/2`` rounds with seeds ``N, N+1, ...``
and then the same seeds again, and compares the first set of rounds with
the second (:mod:`compare`): an A/A check in which the exact counters must
repeat, and whose rows are resolved from two rounds a side (``K`` >= 4) on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
if __name__ == "__main__":
    # Run as a script: import the package, and keep this directory itself off
    # the path so that trace.py cannot shadow the standard library's module.
    sys.path[0] = str(LEDGER_DIR.parent)

from ledger import spec  # noqa: E402
from ledger.common import ALL_CORES, ROOT, SRC_DIR, pin, quartiles  # noqa: E402

WORKLOAD_NAMES = tuple(name for name, _ in spec.WORKLOADS)
DEFAULT_SECONDS = 8
SMOKE_SECONDS = 0.1


def parse_arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", default=None)
    parser.add_argument("--smoke", action="store_true")
    arguments = parser.parse_args(argv)
    if arguments.repeat < 1 or (arguments.repeat > 1 and arguments.repeat % 2):
        parser.error("--repeat is 1, or even: two sets of rounds over the same seeds")
    if arguments.seconds is None:
        arguments.seconds = SMOKE_SECONDS if arguments.smoke else DEFAULT_SECONDS
    return arguments


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
def run_one(workload: str, seed: int, seconds: float, trace: int, smoke: bool, out) -> dict:
    if not Path(SRC_DIR, "repro").is_dir():
        raise SystemExit(f"error: {SRC_DIR}/repro not found; run from a full checkout")
    sys.path.insert(0, SRC_DIR)
    from ledger import graph, serve

    pin(ALL_CORES[-1:])
    work = LEDGER_DIR / ".work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if out is not None:
        Path(out).mkdir(parents=True, exist_ok=True)
    try:
        if workload in serve.CONFIGS:
            config = serve.CONFIGS[workload]
            config = config.smoke() if smoke else config
            if trace:
                return serve.run_traced(config, seed, seconds, work, out)
            return serve.run_untraced(config, seed, seconds, work)
        config = graph.CONFIGS[workload]
        config = config.smoke() if smoke else config
        if trace:
            return graph.run_traced(config, seed, seconds, out)
        return graph.run_untraced(config, seed, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def units(trace: int):
    if trace:
        return {layer.name: (layer.unit, None) for layer in spec.PER_LAYER}
    return {metric.name: (metric.unit, metric.bound) for metric in spec.END_TO_END}


COLD_METRICS = {layer.name for layer in spec.PER_LAYER if layer.phase == "cold"} | {
    "trace.cold_unlisted_ms"
}


def sample_count(samples: dict, name: str) -> int:
    """How many samples stand behind metric *name* of one run."""
    if name in samples:
        return samples[name]
    return samples["cold_events" if name in COLD_METRICS else "steady_ops"]


def single(arguments) -> int:
    workload, trace = arguments.workload[0], arguments.trace
    result = run_one(
        workload, arguments.seed, arguments.seconds, trace, arguments.smoke, arguments.out
    )
    table = units(trace)
    if set(result["metrics"]) != set(table):
        raise SystemExit(f"error: metrics {sorted(set(result['metrics']) ^ set(table))} off spec")
    samples = result["samples"]
    print(f"# {workload} seed={arguments.seed} seconds={arguments.seconds} trace={trace}")
    for name, (unit, bound) in table.items():
        gate = f"bound {bound:.0%}" if bound is not None else "no bound"
        print(
            f"{name:36s} {result['metrics'][name]:16.6f} {unit:6s} "
            f"n={sample_count(samples, name):<7d} {gate}"
        )
    print("#detail " + json.dumps({"samples": samples, "detail": result["detail"]}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": result["metrics"][name], "unit": unit}
                    for name, (unit, _) in table.items()
                },
            }
        )
    )
    return 0


# ----------------------------------------------------------------------
# The whole ledger: every (workload, trace) pair as a child process
# ----------------------------------------------------------------------
def child(workload: str, seed: int, arguments, trace: int) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(arguments.seconds), "--trace", str(trace),
    ]
    if arguments.smoke:
        command.append("--smoke")
    if arguments.out:
        command += ["--out", arguments.out]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(command)} failed:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    record = json.loads(lines[-1])
    extra = next(json.loads(l[len("#detail "):]) for l in lines if l.startswith("#detail "))
    record.update(extra)
    return record


def host_facts(arguments, seeds) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return {
        "usable_cores": len(ALL_CORES),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "fsync": "always",
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "seeds": seeds,
        "seconds": arguments.seconds,
        "smoke": arguments.smoke,
        "commit": commit.stdout.strip() if commit.returncode == 0 else "unknown",
        "date": time.strftime("%Y-%m-%d"),
    }


def summarize(rounds) -> dict:
    """Per (workload, trace, metric): the values of every round and their quartiles."""
    summary = {}
    for workload in rounds[0]:
        summary[workload] = {}
        for trace, record in rounds[0][workload].items():
            for name in record["metrics"]:
                values = [r[workload][trace]["metrics"][name]["value"] for r in rounds]
                summary[workload][name] = {"values": values, **quartiles(values)}
    return summary


def whole_ledger(arguments) -> int:
    from ledger import compare

    workloads = arguments.workload or list(WORKLOAD_NAMES)
    traces = (0, 1) if arguments.trace is None else (arguments.trace,)
    pairs = [(workload, trace) for workload in workloads for trace in traces]
    half = max(arguments.repeat // 2, 1)
    seeds = [arguments.seed + index % half for index in range(arguments.repeat)]
    rounds = []
    for index, seed in enumerate(seeds):
        rounds.append({workload: {} for workload in workloads})
        for workload, trace in pairs:
            rounds[-1][workload][f"trace{trace}"] = child(workload, seed, arguments, trace)
        print(f"# round {index + 1}/{arguments.repeat} (seed {seed}) done", file=sys.stderr)
    document = {
        "meta": host_facts(arguments, seeds), "summary": summarize(rounds), "rounds": rounds
    }

    bounds = {metric.name: metric.bound for metric in spec.END_TO_END}
    failed = 0
    for workload in workloads:
        print(f"\n== {workload}")
        for trace in traces:
            record = rounds[-1][workload][f"trace{trace}"]
            failed += sum(r[workload][f"trace{trace}"]["failed"] for r in rounds)
            print(
                f"-- {'per-layer (traced)' if trace else 'end-to-end (untraced)'}: "
                f"attempted={record['attempted']} failed={record['failed']}"
            )
            idle = []
            for name, entry in record["metrics"].items():
                stats = document["summary"][workload][name]
                if not any(stats["values"]):
                    idle.append(name)
                    continue
                gate = f"bound {bounds[name]:.0%}" if name in bounds else ""
                print(
                    f"{name:36s} {stats['median']:16.6f} {entry['unit']:6s} "
                    f"n={sample_count(record['samples'], name):<7d} rounds={stats['n']} "
                    f"spread={stats['spread']:.3f} {gate}"
                )
            if idle:
                print(f"zero on this workload: {', '.join(idle)}")
            ungated = {k: v for k, v in record["detail"].items() if isinstance(v, (int, float))}
            if ungated:
                print("un-gated, last round: " + ", ".join(f"{k}={v:.5g}" for k, v in ungated.items()))
    if arguments.out:
        Path(arguments.out).mkdir(parents=True, exist_ok=True)
        with open(Path(arguments.out) / "ledger.json", "w") as handle:
            json.dump(document, handle, indent=1)
    status = 1 if failed else 0
    if arguments.repeat >= 2:
        sides = [
            dict(document, rounds=part, meta=dict(document["meta"], seeds=seeds[:half]))
            for part in (rounds[:half], rounds[half:])
        ]
        print("\n== A/A: the first set of rounds against the second, same seeds")
        status = max(status, compare.report(*sides))
    return status


def main() -> int:
    arguments = parse_arguments(sys.argv[1:])
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order (and with it the order rules fire in) must not
        # vary from run to run; children inherit the setting.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])
    one_workload = arguments.workload is not None and len(arguments.workload) == 1
    if one_workload and arguments.trace is not None and arguments.repeat == 1:
        return single(arguments)
    return whole_ledger(arguments)


if __name__ == "__main__":
    sys.exit(main())
