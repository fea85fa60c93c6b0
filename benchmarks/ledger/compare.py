"""Compare two ledger files row by row: ``compare.py A.json B.json``.

Each (end-to-end metric, workload) pair is one row.  The row shows both
medians, the ratio B/A with its base, and how much worse B is against the
metric's bound:

* ``ok`` — B is not worse than A by more than the bound;
* ``REGRESSION`` — it is;
* ``unresolved`` — the A side's own run-to-run spread (distance between
  its quartiles over its median) is wider than the bound, or unknown
  because A holds a single round: the row can show neither a regression
  nor its absence.

Failed operations are compared as a ratio of those attempted and may not
rise.  The per-layer medians and ratios follow (they carry no bound).
When both files were made from the same seeds and run length, the counters
that must repeat exactly are compared round by round.  The exit status is
1 if a row regressed, the failure ratio rose or an exact counter changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path[0] = str(Path(__file__).resolve().parents[1])

from ledger import spec  # noqa: E402
from ledger.common import quartiles  # noqa: E402

#: Counters that repeat exactly for a given seed and run length (the traced
#: run issues a fixed number of operations over one connection), with the
#: workloads on which they are not idle.
EXACT = {
    "engine.iterations": spec.GRAPH + spec.SERVE,
    "engine.facts_derived": spec.GRAPH + spec.SERVE,
    "executor.firings": spec.GRAPH + spec.SERVE,
    "service.cache_hit_ratio": ("serve_read_miss", "serve_read_hot"),
    "service.view_hit_ratio": ("serve_write_mix",),
    "server.wal.records": spec.SERVE,
    "columnar.interning.codes": spec.GRAPH,
}


def values(document, workload: str, trace: str, name: str):
    return [
        r[workload][trace]["metrics"][name]["value"]
        for r in document["rounds"]
        if workload in r and trace in r[workload]
    ]


def failure_ratio(document, workload: str) -> float:
    attempted = failed = 0
    for r in document["rounds"]:
        for record in r.get(workload, {}).values():
            attempted += record["attempted"]
            failed += record["failed"]
    return failed / attempted if attempted else 0.0


def report(first, second) -> int:
    bad = unresolved = 0
    workloads = [w for w in first["rounds"][0] if w in second["rounds"][0]]
    print(f"{'workload':16s} {'metric':14s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>7s} {'worse by':>9s} {'bound':>6s} {'A spread':>9s}  verdict")
    for workload in workloads:
        for metric in spec.END_TO_END:
            a = values(first, workload, "trace0", metric.name)
            b = values(second, workload, "trace0", metric.name)
            if not a or not b:
                continue
            base, changed = statistics.median(a), statistics.median(b)
            worse = (changed - base) / base if metric.better == "lower" else (base - changed) / base
            # One round has no spread: nothing says how far A moves by itself.
            spread = quartiles(a)["spread"] if len(a) >= 2 else None
            if spread is None or spread > metric.bound:
                verdict = "unresolved"
                unresolved += 1
            elif worse > metric.bound:
                verdict = "REGRESSION"
                bad += 1
            else:
                verdict = "ok"
            shown = f"{spread:9.3f}" if spread is not None else "        -"
            print(f"{workload:16s} {metric.name:14s} {base:12.4f} {changed:12.4f} "
                  f"{changed / base:7.3f} {worse:+9.3f} {metric.bound:6.2f} {shown}  {verdict}")
        before, after = failure_ratio(first, workload), failure_ratio(second, workload)
        verdict = "ok" if after <= before else "REGRESSION"
        bad += after > before
        print(f"{workload:16s} {'failed/attempted':14s} {before:12.6f} {after:12.6f}"
              f"{'':34s}  {verdict}")
    if unresolved:
        print(f"{unresolved} rows unresolved: run more rounds (--repeat) or longer ones (--seconds)")

    print(f"\n{'workload':16s} {'layer metric':36s} {'A median':>14s} {'B median':>14s} {'B/A':>7s}")
    for workload in workloads:
        for layer in spec.PER_LAYER:
            a = values(first, workload, "trace1", layer.name)
            b = values(second, workload, "trace1", layer.name)
            if not a or not b or not (any(a) or any(b)):
                continue
            base, changed = statistics.median(a), statistics.median(b)
            ratio = f"{changed / base:7.3f}" if base else "      -"
            print(f"{workload:16s} {layer.name:36s} {base:14.4f} {changed:14.4f} {ratio}")

    if all(first["meta"][key] == second["meta"][key] for key in ("seeds", "seconds", "smoke")):
        moved = [
            (workload, name)
            for name, where in EXACT.items()
            for workload in workloads
            if workload in where
            and values(first, workload, "trace1", name) != values(second, workload, "trace1", name)
        ]
        print("\nexact counters: " + ("identical" if not moved else f"CHANGED {moved}"))
        bad += len(moved)
    else:
        print("\nexact counters: not compared (the two files differ in seeds or run length)")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first")
    parser.add_argument("second")
    arguments = parser.parse_args(argv)
    with open(arguments.first) as a, open(arguments.second) as b:
        return report(json.load(a), json.load(b))


if __name__ == "__main__":
    sys.exit(main())
