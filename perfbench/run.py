"""Run one workload of the epops benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Load is a closed loop from this one process: one operation at a time, and
at most one child process at a time.  Whole passes over the workload's
operations repeat until ``--seconds`` have passed.  With ``--trace 0`` the
last line of standard output carries the end-to-end metrics; with
``--trace 1`` the per-layer ones, from passes that alternate untraced and
traced.  A workload's probes run once, before the passes and outside
``--seconds``, so what they cost moves no metric.  The line before the
result records provenance: versions, sha, seed, the sample count behind
each metric and the verdict of each probe.
``--smoke`` runs each workload at its smallest size.

Set-up (``setup_s``) is timed in fresh interpreters that import the
workload's epops modules and build its inputs.  Every other time takes
each timed operation at its fastest pass: other tenants of a shared
machine only ever add time, in bursts.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads as wl
from tracer import LAYER_METRICS, Tracer

SETUP_REPEATS = 7
IMPORT_REPEATS = 5
IMPORTTIME_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "peak_rss_mb": "MB",
    "passed_share": "share",
}

CLI_LAYERS = ("cli.interpreter_s", "cli.import_s", "cli.import.scipy_s", "cli.import.numpy_s")
PER_LAYER = CLI_LAYERS + LAYER_METRICS + ("bench.trace_overhead_s",)


def per_layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


SETUP_CODE = (
    "import pathlib, sys; sys.path.insert(0, sys.argv[1]); import workloads; "
    "workloads.make(sys.argv[2], int(sys.argv[3]), sys.argv[4] == '1', "
    "pathlib.Path.cwd()).prepare()"
)


def quantile(samples, q: float) -> float:
    """Quantile of a small population of operations, interpolated within its range."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[round(q * 100) - 1]


def time_setup(args, workdir: Path) -> list:
    samples = []
    argv = [sys.executable, "-c", SETUP_CODE, str(wl.BENCH_DIR), args.workload,
            str(args.seed), "1" if args.smoke else "0"]
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        child = wl.run_child(argv, workdir)
        if child.returncode != 0:
            raise RuntimeError("set-up failed:\n" + child.stderr)
        samples.append(child.seconds)
    return samples


def call(fn) -> str:
    """``fn()``, or the end of its traceback: one failed operation must not end the run."""
    try:
        return fn()
    except Exception:
        return traceback.format_exc(limit=-3)


def run_passes(workload, seconds: float, trace: bool) -> list:
    """Whole passes until ``seconds`` have passed; odd passes traced under ``trace``."""
    tracer = Tracer()
    passes = []
    start = time.perf_counter()
    index = 0
    while index < (2 if trace else 1) or time.perf_counter() - start < seconds:
        traced = trace and index % 2 == 1
        if traced:
            tracer.reset()
            if workload.in_process:
                tracer.install()
            else:
                workload.tracer = tracer
        record = {"traced": traced, "latencies": {}, "attempted": 0, "failed": 0,
                  "failures": []}
        try:
            for op in workload.pass_ops(index):
                t0 = time.perf_counter()
                rendered = call(op.call)
                elapsed = time.perf_counter() - t0
                record["attempted"] += 1
                record["latencies"][op.label] = elapsed
                if not op.passed(rendered):
                    record["failed"] += 1
                    record["failures"].append({"op": op.label, "output": rendered[-2000:]})
        finally:
            if traced:
                tracer.uninstall()
                workload.tracer = None
        if traced:
            record["layers"] = tracer.snapshot()
        passes.append(record)
        index += 1
    return passes


def fastest(passes) -> dict:
    """Each timed operation's lowest latency over the passes.

    Other tenants of a shared machine only ever add time, in bursts that
    last seconds, so the minimum over passes is the steady estimate.
    """
    best = {}
    for p in passes:
        for label, seconds in p["latencies"].items():
            best[label] = min(seconds, best.get(label, math.inf))
    return best


def importtime_totals(stderr: str) -> dict:
    """Cumulative seconds of the outermost numpy and scipy imports."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    totals = {"numpy": 0.0, "scipy": 0.0}
    for i, (depth, name, cumulative) in enumerate(rows):
        package = name.split(".")[0]
        if package not in totals:
            continue
        # Children are printed before their parent, deeper by one level.
        parent = next((r[1] for r in rows[i + 1:] if r[0] < depth), "")
        if parent.split(".")[0] != package:
            totals[package] += cumulative / 1e6
    return totals


def cli_layers(workdir: Path, smoke: bool) -> dict:
    def fastest_seconds(argv, repeats):
        return min(wl.run_child(argv, workdir).seconds for _ in range(1 if smoke else repeats))

    py = sys.executable
    out = {
        "cli.interpreter_s": fastest_seconds([py, "-c", "pass"], IMPORT_REPEATS),
        "cli.import_s": fastest_seconds([py, "-c", "import epops.cli"], IMPORT_REPEATS),
    }
    imports = [importtime_totals(
        wl.run_child([py, "-X", "importtime", "-c", "import epops.cli"], workdir).stderr)
        for _ in range(1 if smoke else IMPORTTIME_REPEATS)]
    for package in ("scipy", "numpy"):
        out["cli.import.%s_s" % package] = min(t[package] for t in imports)
    return out


def layer_metrics(passes, setup_layers: dict, workdir: Path, smoke: bool) -> dict:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    values = cli_layers(workdir, smoke)
    for name in LAYER_METRICS:
        values[name] = setup_layers["totals"].get(name, 0.0) + min(
            p["layers"]["totals"].get(name, 0.0) for p in traced)
    values["bench.trace_overhead_s"] = (math.fsum(fastest(traced).values())
                                        - math.fsum(fastest(untraced).values()))
    return {name: {"value": values[name], "unit": per_layer_unit(name)} for name in PER_LAYER}


def end_to_end_metrics(workload, passes, probes, setup_samples) -> tuple:
    best = sorted(fastest(passes).values())
    latencies = sum(len(p["latencies"]) for p in passes)
    if workload.in_process:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rss_samples = 1
    elif workload.child_rss_mb:
        rss, rss_samples = max(workload.child_rss_mb), len(workload.child_rss_mb)
    else:
        raise RuntimeError("no CLI child reported its peak RSS")
    # Probes ran once; their verdicts count in every pass, so the share
    # is that of one pass whatever the number of passes.
    probes_passed = sum(v == "pass" for v in probes.values())
    attempted = sum(p["attempted"] + len(probes) for p in passes)
    passed = sum(p["attempted"] - p["failed"] + probes_passed for p in passes)
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": math.fsum(best),
        "op_s_p50": quantile(best, 0.5),
        "op_s_p90": quantile(best, 0.9),
        "peak_rss_mb": rss,
        "passed_share": passed / attempted,
    }
    samples = {"setup_s": len(setup_samples), "wall_s": latencies,
               "op_s_p50": latencies, "op_s_p90": latencies,
               "peak_rss_mb": rss_samples,
               "passed_share": sum(p["attempted"] for p in passes) + len(probes)}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, samples


def git_sha():
    """HEAD of the checkout, or None when it is not a git repository of its own."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(wl.ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT, env=env,
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(wl.SRC_DIR.rglob("*.py")):
        h.update(str(path.relative_to(wl.SRC_DIR)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def version(package: str):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def measure(args, workdir: Path) -> tuple:
    workload = wl.make(args.workload, args.seed, args.smoke, workdir)
    setup_samples = [] if args.trace else time_setup(args, workdir)
    tracer = Tracer()
    if args.trace:
        tracer.install()
    try:
        workload.prepare()
    finally:
        tracer.uninstall()
    probes = {label: call(fn) for label, fn in workload.probes.items()}
    start = time.perf_counter()
    passes = run_passes(workload, args.seconds, bool(args.trace))
    measured = time.perf_counter() - start
    if args.trace:
        metrics = layer_metrics(passes, tracer.snapshot(), workdir, args.smoke)
        samples = {name: sum(p["traced"] for p in passes) for name in metrics}
    else:
        metrics, samples = end_to_end_metrics(workload, passes, probes, setup_samples)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "passes": len(passes),
        "measured_s": measured, "samples": samples,
        "probes": probes,
        "failures": [f for p in passes for f in p["failures"]][:5],
        "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "numpy": version("numpy"), "scipy": version("scipy"),
        "git_sha": git_sha(), "src_sha256": source_sha256(),
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the workload at its smallest size")
    args = parser.parse_args(argv)
    if not (wl.SRC_DIR / "epops" / "__init__.py").is_file():
        print("error: no epops sources under %s" % wl.SRC_DIR, file=sys.stderr)
        return 2
    sys.path.insert(0, str(wl.SRC_DIR))
    workdir = wl.ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        result, detail = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
