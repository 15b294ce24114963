"""Capture the output references the benchmark checks every operation against.

Usage, from the root of a checkout: python3 perfbench/capture.py

Writes refs/small.json, refs/oracle.json and refs/cli.json from the
code in src/.  Run it only on a commit whose
outputs are known to be right: afterwards the benchmark fails any
operation whose output differs.  Verification seeds are screened so
that every pooled batch does the same grid-search work.
"""

from __future__ import annotations

import importlib
import json
import shutil
import sys

import numpy as np

import workloads as wl

ORACLE_POOL = 12
#: Points per chunk of ``oracle.grid_search_tradeoff``.
GRID_CHUNK = 1 << 20
CLI_VERIFY_POOL = 8


def write(name: str, refs) -> None:
    (wl.REFS_DIR / f"{name}.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print("wrote", name, len(refs), flush=True)


def full_grid_work(p, q, p_succ, resolution) -> bool:
    """Whether every chunk of ``oracle.grid_search_tradeoff`` holds a feasible point.

    That function skips the fidelity work of a chunk with no feasible
    point, so its cost depends on the instance.  This mirrors its grid,
    chunking and feasibility test; an instance passing it does the full
    work for its size.  Screening on sizes alone left batches whose work
    differed by up to 18% (see README.md); keep this in step with that
    function before capturing again.
    """
    steps = int(round(1.0 / resolution))
    axis = np.linspace(0.0, 1.0, steps + 1)
    n = len(p.support)
    pw = np.array([p.weight(i) for i in p.support])
    divisors = (steps + 1) ** np.arange(n, dtype=np.int64)
    total = (steps + 1) ** n
    for start in range(0, total, GRID_CHUNK):
        flat = np.arange(start, min(start + GRID_CHUNK, total), dtype=np.int64)
        achieved = axis[(flat[:, None] // divisors[None, :]) % (steps + 1)] @ pw
        if not ((np.abs(achieved - p_succ) <= resolution + 1e-12) & (achieved > 0.0)).any():
            return False
    return True


def screened_seeds(instances: int, sizes, count: int) -> list:
    """Verification seeds whose instances have ``sizes`` and do the full grid work.

    The grid search is replaced by a stub, which consumes no random
    numbers, so the instances seen are the ones a real run draws.
    """
    oracle = importlib.import_module("epops.oracle")
    real = oracle.grid_search_tradeoff
    seen = []

    def stub(p, q, p_succ, resolution):
        seen.append((p, q, p_succ, resolution))
        return 1.0, None

    oracle.grid_search_tradeoff = stub
    try:
        found = []
        seed = 0
        while len(found) < count:
            seen.clear()
            oracle.run_verification(seed, instances)
            if (tuple(sorted(len(args[0].support) for args in seen)) == tuple(sizes)
                    and all(full_grid_work(*args) for args in seen)):
                found.append(seed)
            seed += 1
    finally:
        oracle.grid_search_tradeoff = real
    return found


def capture_small() -> None:
    from epops.spectra import EnergyProfile

    coarse = importlib.import_module("epops.coarse")
    optimal = importlib.import_module("epops.optimal")
    refs = {}
    for n in wl.SMALL_SIZES:
        for i in range(wl.SMALL_POOL_PER_SIZE):
            p_text, q_text, p_succ = wl.small_instance(n, i)
            p, q = EnergyProfile.from_json(p_text), EnergyProfile.from_json(q_text)
            assert len(p) == len(q) == n, (n, i)
            refs[wl.small_key(n, i)] = wl.digest(wl.small_call(coarse, optimal, p, q, p_succ))
    write("small", refs)


def capture_oracle() -> None:
    oracle = importlib.import_module("epops.oracle")
    refs = {}
    for seed in screened_seeds(wl.VERIFY_INSTANCES, wl.VERIFY_SIZES, ORACLE_POOL):
        report = oracle.run_verification(seed, wl.VERIFY_INSTANCES)
        assert report.passed, seed
        refs[str(seed)] = wl.render_verdicts(report.lines())
    write("oracle", refs)


def capture_cli() -> None:
    workdir = wl.ROOT / ".bench_work" / "capture"
    workdir.mkdir(parents=True)

    def run(key, verify_seed=None):
        argv = wl.cli_argv(key, verify_seed)
        child = wl.run_child([sys.executable, "-m", "epops.cli"] + argv, workdir)
        assert child.returncode == 0, (key, child.stderr)
        return wl.render_cli(key, argv, child, workdir)

    try:
        refs = {"fixed": {key: run(key) for key in wl.CLI_FIXED}, "tradeoff": [], "verify": {}}
        for i in range(wl.TRADEOFF_POOL):
            pw, qw = wl.tradeoff_instance(i)
            (workdir / "p.json").write_text(wl.profile_json(pw))
            (workdir / "q.json").write_text(wl.profile_json(qw))
            refs["tradeoff"].append(run("tradeoff"))
        for seed in screened_seeds(wl.CLI_VERIFY_INSTANCES, wl.CLI_VERIFY_SIZES,
                                   CLI_VERIFY_POOL):
            refs["verify"][str(seed)] = run("verify", seed)
        write("cli", refs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def main() -> int:
    sys.path.insert(0, str(wl.SRC_DIR))
    wl.REFS_DIR.mkdir(exist_ok=True)
    capture_small()
    capture_oracle()
    capture_cli()
    return 0


if __name__ == "__main__":
    sys.exit(main())
