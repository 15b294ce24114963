"""The workloads of the epops benchmark.

A workload turns ``--seed`` into inputs with this module's own generators
and hands the program nothing else.  Seeded choices draw from fixed pools
whose outputs were captured as references (``refs/``, written by
``capture.py``), so every operation's output is checked exactly.  Pools are
stratified so that every seed gives the same amount of work: a seed
changes which instances run and in what order, not how many of each size.

``prepare`` is the set-up that ``setup_s`` times in a fresh interpreter:
it imports the epops modules the workload calls and builds its inputs.
Library functions are looked up on their module at call time, so a
:class:`tracer.Tracer` installed later still sees every call.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
REFS_DIR = BENCH_DIR / "refs"
RSS_HOOK_DIR = BENCH_DIR / "rsshook"
#: The file a child started with ``report_rss`` writes its peak RSS (kB) to.
RSS_ENV = "PERFBENCH_RSS_FILE"

#: Root of every pool; changing it invalidates the references.
POOL_SEED = 20150201

#: Exit codes that report a rejected input: 2 invalid input, 3 infeasible
#: parameters, 4 a failed internal consistency check.
REJECTION_EXIT_CODES = (2, 3, 4)

CHILD_TIMEOUT_S = 120.0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_refs(name: str) -> dict:
    return json.loads((REFS_DIR / f"{name}.json").read_text())


@dataclass
class Op:
    """One timed operation: ``call`` returns its rendered output.

    It passes when the rendered output (or, with ``hashed``, its sha256)
    equals ``expect``.
    """

    label: str
    call: Callable[[], str]
    expect: str
    hashed: bool = True

    def passed(self, rendered: str) -> bool:
        return (digest(rendered) if self.hashed else rendered) == self.expect


@dataclass
class Child:
    returncode: int
    seconds: float
    rss_mb: Optional[float]
    stdout: str
    stderr: str


def child_env(report_rss: bool, rss_path: Path) -> dict:
    env = dict(os.environ)
    path = [str(SRC_DIR)] + ([str(RSS_HOOK_DIR)] if report_rss else [])
    env["PYTHONPATH"] = os.pathsep.join(
        path + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop(RSS_ENV, None)
    if report_rss:
        env[RSS_ENV] = str(rss_path)
    return env


def run_child(argv: List[str], cwd: Path, report_rss: bool = False) -> Child:
    """Run one child to completion and time it.

    With ``report_rss``, the child's peak RSS is the ``VmHWM`` that
    ``rsshook/sitecustomize.py`` writes as it exits.  That figure belongs to
    the child's own memory map.  The ``wait4`` rusage would not do: exec
    carries the spawning process's high-water mark into the child's.
    """
    out_path, err_path = cwd / ".child.stdout", cwd / ".child.stderr"
    rss_path = cwd / ".child.rss"
    rss_path.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(report_rss, rss_path),
                                stdout=out, stderr=err)
        # A blocking wait wakes as the child exits; a polling loop would add
        # its period to every latency and take CPU from the child.
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        proc.wait()
        seconds = time.perf_counter() - start
        timer.cancel()
    rss_mb = int(rss_path.read_text()) / 1024.0 if rss_path.exists() else None
    return Child(
        returncode=proc.returncode,
        seconds=seconds,
        rss_mb=rss_mb,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


def profile_json(weights) -> str:
    """A profile on sectors 0..len(weights)-1 in the JSON format epops reads."""
    return json.dumps({"energies": [
        {"index": i, "value": float(i), "weight": float(w)} for i, w in enumerate(weights)
    ]})


def render_point(point) -> str:
    return "%.6g,%.6g\n" % (point.p_succ, point.fidelity)


def render_verdicts(lines) -> str:
    """The ``ok``/``FAIL`` prefix and name of each verification check."""
    return "".join(line.split(":")[0] + "\n" for line in lines)


class Workload:
    name = ""
    in_process = True

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.child_rss_mb: List[float] = []
        self.tracer = None  # a Tracer that child processes report into
        #: Untimed checks, run once outside the timed passes; each
        #: returns ``"pass"`` or why it failed.
        self.probes: Dict[str, Callable[[], str]] = {}

    def prepare(self) -> None:
        raise NotImplementedError

    def pass_ops(self, index: int) -> List[Op]:
        raise NotImplementedError

    def order(self, ops: List[Op], index: int) -> List[Op]:
        perm = np.random.default_rng([self.seed, index]).permutation(len(ops))
        return [ops[i] for i in perm]


# --------------------------------------------------------------- small-curves

SMALL_SIZES = range(2, 17)
SMALL_POOL_PER_SIZE = 40
SMALL_PICK_PER_SIZE = 20
SMALL_ROUNDS = 64


def small_instance(n: int, i: int):
    """Pool entry (n, i): two n-sector profiles as JSON and a p_succ in [p_max, 1]."""
    rng = np.random.default_rng([POOL_SEED, 1, n, i])
    pw = rng.dirichlet(np.ones(n))
    qw = rng.dirichlet(np.ones(n))
    p_max = float((pw / qw).min())  # both supports are 0..n-1, so F_max = 1
    p_succ = p_max + float(rng.uniform(0.05, 0.95)) * (1.0 - p_max)
    return profile_json(pw), profile_json(qw), p_succ


def small_key(n: int, i: int) -> str:
    return "%d/%d" % (n, i)


def small_call(coarse, optimal, p, q, p_succ) -> str:
    text = coarse.tradeoff_curve(p, q, SMALL_ROUNDS).to_csv()
    for mode in ("exhaustive", "ratio-family"):
        text += render_point(optimal.optimal_tradeoff_point(p, q, p_succ, mode))
    return text


class SmallCurves(Workload):
    """Many small engine calls: per-call overhead and the exhaustive search."""

    name = "small-curves"

    def prepare(self) -> None:
        spectra = importlib.import_module("epops.spectra")
        coarse = importlib.import_module("epops.coarse")
        optimal = importlib.import_module("epops.optimal")
        refs = load_refs("small")
        rng = np.random.default_rng(self.seed)
        pick = 1 if self.smoke else SMALL_PICK_PER_SIZE
        self.ops = []
        for n in SMALL_SIZES:
            for i in sorted(rng.choice(SMALL_POOL_PER_SIZE, size=pick, replace=False)):
                p_text, q_text, p_succ = small_instance(n, int(i))
                p = spectra.EnergyProfile.from_json(p_text)
                q = spectra.EnergyProfile.from_json(q_text)
                self.ops.append(Op(
                    "small " + small_key(n, int(i)),
                    lambda p=p, q=q, s=p_succ: small_call(coarse, optimal, p, q, s),
                    refs[small_key(n, int(i))],
                ))

    def pass_ops(self, index: int) -> List[Op]:
        return self.order(self.ops, index)


# -------------------------------------------------------------- verify-oracle

VERIFY_INSTANCES = 10
#: Instance sizes (input sectors) of every pooled batch, so each batch
#: searches the same number of grid points.
VERIFY_SIZES = (2, 2, 2, 3, 3, 3, 4, 4, 5, 5)


class VerifyOracle(Workload):
    """One ``run_verification`` batch per pass, its seed drawn from a screened pool."""

    name = "verify-oracle"

    def prepare(self) -> None:
        oracle = importlib.import_module("epops.oracle")
        refs = load_refs("oracle")
        seeds = sorted(refs, key=int)
        seed = seeds[int(np.random.default_rng(self.seed).integers(len(seeds)))]
        self.batch = Op(
            "run_verification(%s, %d)" % (seed, VERIFY_INSTANCES),
            lambda: render_verdicts(oracle.run_verification(int(seed), VERIFY_INSTANCES).lines()),
            refs[seed], hashed=False)

    def pass_ops(self, index: int) -> List[Op]:
        return [self.batch]


# ----------------------------------------------------------------- cli-readme

TRADEOFF_POOL = 16
TRADEOFF_SECTORS = 40
CLI_VERIFY_INSTANCES = 3
#: Instance sizes of every pooled ``verify`` seed of the CLI workload.
CLI_VERIFY_SIZES = (2, 2, 2)

#: The README data invocations other than ``tradeoff`` and ``verify``.
CLI_FIXED = {
    "estimate-maxcoh": ["estimate", "--mode", "maxcoh", "--n", "61", "--rounds", "30",
                        "--out", "est.csv"],
    "estimate-qubits": ["estimate", "--mode", "qubits", "--n", "8", "--out", "qubits.csv"],
    "clone": ["clone", "--n", "80", "--m", "400", "--rounds", "41", "--out", "clone.csv"],
    "amplify": ["amplify", "--r1", "1", "--r2", "1.5", "--cutoff", "80", "--rounds", "81",
                "--out", "amp.csv"],
    "correct": ["correct", "--d", "100", "--mu", "0.9", "--rounds", "100",
                "--out", "corr.csv"],
    "purify": ["purify", "--n", "5", "--beta", "0.8", "--out", "purify.csv"],
}

#: Files each data invocation writes, the manifest excepted (it holds a timestamp).
CLI_OUTPUTS = {"purify": ["purify.csv", "purify.sectors.json"]}

#: Inputs that crashed or were silently accepted when the benchmark was
#: defined; each passes only with a correct curve or a clean rejection.
PROBES = {
    "probe-amplify-cutoff-175": ["amplify", "--r1", "1", "--r2", "1.5", "--cutoff", "175",
                                 "--rounds", "176", "--out", "probe-a.csv"],
    "probe-amplify-r1-zero": ["amplify", "--r1", "0", "--r2", "1", "--cutoff", "10",
                              "--rounds", "11", "--out", "probe-b.csv"],
    "probe-tradeoff-nan": ["tradeoff", "--input", "p_nan.json", "--target", "q.json",
                           "--out", "probe-nan.csv"],
    "probe-tradeoff-infinity": ["tradeoff", "--input", "p_inf.json", "--target", "q.json",
                                "--out", "probe-inf.csv"],
}


def tradeoff_instance(i: int):
    """Pool entry i: an input on sectors 0..39 and a target on 0..41, as JSON."""
    rng = np.random.default_rng([POOL_SEED, 2, i])
    pw = rng.dirichlet(np.ones(TRADEOFF_SECTORS))
    qw = rng.dirichlet(np.ones(TRADEOFF_SECTORS + 2))
    return pw, qw


def cli_argv(key: str, verify_seed: Optional[int] = None) -> List[str]:
    if key == "tradeoff":
        return ["tradeoff", "--input", "p.json", "--target", "q.json", "--rounds", "32",
                "--out", "curve.csv"]
    if key == "verify":
        return ["verify", "--seed", str(verify_seed), "--instances",
                str(CLI_VERIFY_INSTANCES)]
    return CLI_FIXED[key] if key in CLI_FIXED else PROBES[key]


def cli_outputs(key: str, argv: List[str]) -> List[str]:
    if key == "verify":
        return []
    return CLI_OUTPUTS.get(key, [argv[argv.index("--out") + 1]])


def render_cli(key: str, argv: List[str], child: Child, workdir: Path) -> str:
    """Exit code, then the sha256 of each output file or the verify verdicts."""
    text = "rc=%d\n" % child.returncode
    if key == "verify":
        return text + render_verdicts(child.stdout.splitlines())
    for name in cli_outputs(key, argv):
        path = workdir / name
        sha = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"
        text += "%s %s\n" % (name, sha)
    return text


def probe_verdict(key: str, argv: List[str], child: Child, workdir: Path) -> str:
    """``pass`` for a sound curve or a clean documented rejection, else why not."""
    if child.returncode in REJECTION_EXIT_CODES:
        if "Traceback" in child.stderr:
            return "rejected with a traceback"
        if not any(line.startswith("error:") for line in child.stderr.splitlines()):
            return "rejected without an error: line"
        return "pass"
    if child.returncode != 0:
        return "exit code %d" % child.returncode
    if key.startswith("probe-tradeoff"):
        return "accepted a non-finite weight"
    rows = [[float(v) for v in line.split(",")]
            for line in (workdir / argv[argv.index("--out") + 1]).read_text().splitlines()[1:]]
    if not rows:
        return "empty curve"
    p_succ = [r[1] for r in rows]
    if any(b < a for a, b in zip(p_succ, p_succ[1:])):
        return "p_succ falls"
    if abs(p_succ[-1] - 1.0) > 1e-6:
        return "p_succ ends at %r" % p_succ[-1]
    if any(r[3] < r[2] for r in rows):
        return "F_coarse below F_recursive"
    return "pass"


class CliReadme(Workload):
    """The README invocations, each a cold ``python -m epops.cli`` child."""

    name = "cli-readme"
    in_process = False

    def prepare(self) -> None:
        importlib.import_module("epops.cli")
        refs = load_refs("cli")
        rng = np.random.default_rng(self.seed)
        self.tradeoff_index = int(rng.integers(TRADEOFF_POOL))
        verify_seeds = sorted(refs["verify"], key=int)
        self.verify_seed = int(verify_seeds[int(rng.integers(len(verify_seeds)))])
        pw, qw = tradeoff_instance(self.tradeoff_index)
        files = {"p.json": profile_json(pw), "q.json": profile_json(qw)}
        for name, bad in (("p_nan.json", math.nan), ("p_inf.json", math.inf)):
            spoiled = pw.copy()
            spoiled[TRADEOFF_SECTORS // 2] = bad
            files[name] = profile_json(spoiled)
        for name, text in files.items():
            (self.workdir / name).write_text(text)
        expected = dict(refs["fixed"])
        expected["tradeoff"] = refs["tradeoff"][self.tradeoff_index]
        expected["verify"] = refs["verify"][str(self.verify_seed)]
        keys = ["tradeoff", "verify"] + list(CLI_FIXED)
        if self.smoke:
            keys = ["tradeoff", "verify", "purify"]
        self.ops = [Op(key, self._caller(key), expected[key], hashed=False) for key in keys]
        self.probes = {key: self._caller(key) for key in PROBES}

    def _caller(self, key: str) -> Callable[[], str]:
        argv = cli_argv(key, self.verify_seed)
        probe = key in PROBES

        def call() -> str:
            for name in cli_outputs(key, argv):
                (self.workdir / name).unlink(missing_ok=True)
            traced = self.tracer is not None and not probe
            spans = self.workdir / ".spans.json"
            if traced:
                cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans)] + argv
            else:
                cmd = [sys.executable, "-m", "epops.cli"] + argv
            child = run_child(cmd, self.workdir, report_rss=not probe)
            if probe:
                return probe_verdict(key, argv, child, self.workdir)
            if child.rss_mb is not None:
                self.child_rss_mb.append(child.rss_mb)
            if traced and spans.exists():
                self.tracer.merge(json.loads(spans.read_text()))
                spans.unlink()
            return render_cli(key, argv, child, self.workdir)

        return call

    def pass_ops(self, index: int) -> List[Op]:
        return self.order(self.ops, index)


WORKLOADS = {w.name: w for w in (CliReadme, SmallCurves, VerifyOracle)}


def make(name: str, seed: int, smoke: bool, workdir: Path) -> Workload:
    return WORKLOADS[name](seed, smoke, workdir)
