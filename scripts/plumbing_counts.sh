#!/bin/sh
# How often the evaluation knobs are re-spelled under src/ (run from the repo
# root).  PR 15 put them on one EvalOptions; CI prints these next to the net
# line delta so a reviewer sees the per-surface plumbing did not regrow.
surfaces="src/repro/datalog/engine/registry.py src/repro/datalog/prepared.py
src/repro/datalog/session.py src/repro/datalog/service.py"
count() { grep -rEo --include='*.py' "$@" | wc -l; }
echo "supports_* capability flags:            $(count 'supports_(planner|compiled|guard|workers|max_iterations)' src/)"
echo "kwargs[\"...\"] = conditional forwards:   $(count 'kwargs\["[a-z_]+"\] = ' src/)"
echo "max_iterations: Optional[int] = None:   $(count 'max_iterations: Optional\[int\] = None' $surfaces)"
echo "workers: Optional[int] = None:          $(count 'workers: Optional\[int\] = None' $surfaces)"
echo "build_guard( call sites:                $(grep -rE --include='*.py' 'build_guard\(' src/ | grep -vc 'def build_guard')"
