"""Smoke test of the benchmark: every workload once at its smallest size.

Usage, from the root of a checkout: python3 perfbench/smoke.py

For each workload, with tracing off and on, checks that the result line
names exactly the metrics BENCHMARK.json lists, each finite and in its
unit, and that every timed operation passed its output check.  It is kept
out of the test suite because it starts a few dozen interpreters.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(spec: dict, workload: str, trace: int) -> list:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    where = "%s trace=%d" % (workload, trace)
    if proc.returncode != 0:
        return ["%s: exit %d\n%s" % (where, proc.returncode, proc.stderr)]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("%s: result keys %s" % (where, sorted(result)))
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append("%s: correct=%s attempted=%s failed=%s" % (
            where, result.get("correct"), result.get("attempted"), result.get("failed")))
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(wanted):
        problems.append("%s: metrics differ from BENCHMARK.json: %s" % (
            where, sorted(set(metrics) ^ set(wanted))))
    for name, unit in wanted.items():
        m = metrics.get(name)
        if m is None:
            continue
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append("%s: %s = %r is not finite" % (where, name, m.get("value")))
        if m.get("unit") != unit:
            problems.append("%s: %s unit %r, expected %r" % (where, name, m.get("unit"), unit))
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check(spec, workload, trace)
            print("%-14s trace=%d %s" % (workload, trace, "ok" if not found else "FAIL"),
                  flush=True)
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
