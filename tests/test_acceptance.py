"""Acceptance checks: one test per shipping criterion, one verdict line each.

Each test exercises a full scenario at its stated tolerance, collects
every violated clause instead of stopping at the first, prints a single
PASS or FAIL line (visible under ``pytest -s``), and only then asserts.
Criteria with a time budget also fail when they run over it.
"""

from __future__ import annotations

import hashlib
import math
import time

import numpy as np

from epops.apps.cloning import cloning_tradeoff
from epops.apps.correction import damped_profile, round_probability, uniform_levels
from epops.apps.estimation import asymptotic_gain, deterministic_gain, estimation_tradeoff
from epops.channels import filter_success_probability
from epops.cli import main
from epops.coarse import tradeoff_curve
from epops.mixedstate import (
    coherent_target_profile,
    det_fidelity_bound,
    mixed_alignment_fidelity,
    purification_report,
    spin_multiplicities,
    thermal_spin_block_density,
    ultimate_mixed_fidelity,
    ultimate_mixed_probability,
)
from epops.oracle import run_verification
from epops.recursive import cumulative, run_protocol
from epops.spectra import build_profile
from reference_routes import coarse_filter
from test_cli import VERIFY_SEED_42_SHA256


def _check(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _report(num: int, label: str, problems: list, elapsed: float,
            budget: float | None) -> None:
    if budget is not None and elapsed >= budget:
        problems.append(f"ran {elapsed:.2f}s, budget {budget:.0f}s")
    status = "FAIL" if problems else "PASS"
    clock = f"{elapsed:.2f}s" + (f", budget {budget:.0f}s" if budget else "")
    print(f"criterion {num} {status}: {label} ({clock})")
    assert not problems, "; ".join(problems)


def _contained_pair(rng, n):
    pw = rng.dirichlet(np.ones(n))
    qw = rng.dirichlet(np.ones(n + 1))
    p = build_profile([(i, float(i), float(w)) for i, w in enumerate(pw)])
    q = build_profile([(i, float(i), float(w)) for i, w in enumerate(qw)])
    return p, q


def test_criterion_1_amplification_anchors(tmp_path, capsys):
    problems: list = []
    start = time.monotonic()
    out = tmp_path / "amp.csv"
    rc = main(["amplify", "--r1", "1", "--r2", "1.5",
               "--cutoff", "80", "--rounds", "81", "--out", str(out)])
    _check(problems, rc == 0, f"exit code {rc}")
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    last = rows[-1]
    _check(problems, abs(float(last[1]) - 1.0) <= 1e-9,
           f"final success probability {last[1]}")
    _check(problems, abs(float(last[2]) - 0.499) <= 0.002,
           f"deterministic recursive fidelity {last[2]} not 0.499 +- 0.002")
    _check(problems, abs(float(last[3]) - math.exp(-0.25)) <= 5e-4,
           f"deterministic merged fidelity {last[3]} not exp(-1/4) +- 5e-4")
    near = min(rows, key=lambda r: abs(float(r[1]) - 0.796))
    _check(problems, abs(float(near[3]) - 0.839) <= 0.003,
           f"merged fidelity {near[3]} at p={near[1]} not 0.839 +- 0.003")
    with capsys.disabled():
        _report(1, "amplitude-growth anchors via the CLI", problems,
                time.monotonic() - start, 5.0)


def test_criterion_2_cloning_anchors(capsys):
    problems: list = []
    start = time.monotonic()
    curve = cloning_tradeoff(80, 400, 41)
    p1 = curve.points[0].p_succ
    _check(problems, abs(math.log(p1) - math.log(6e-20)) <= math.log(1.5),
           f"first-round probability {p1:.3e} not within x1.5 of 6e-20")
    p31 = curve.points[30].p_succ
    _check(problems, abs(p31 - 0.23) <= 0.02,
           f"cumulative probability {p31:.4f} at step 31 not 0.23 +- 0.02")
    with capsys.disabled():
        _report(2, "many-copy cloning anchors", problems,
                time.monotonic() - start, 10.0)


def test_criterion_3_estimation_anchors(capsys):
    problems: list = []
    start = time.monotonic()
    N = 61
    points = estimation_tradeoff("maxcoh", N, 5)
    g1 = points[0].gain_recursive
    _check(problems, abs(g1 - 0.999) <= 5e-4,
           f"first-round gain {g1:.6f} not 0.999 +- 5e-4")
    det = deterministic_gain("maxcoh", N)
    _check(problems, abs(det - 0.9918) <= 2e-4,
           f"deterministic gain {det:.6f} not 0.9918 +- 2e-4")
    _check(problems, abs(det - (1 - 1 / (2 * N))) <= 1e-12,
           f"deterministic gain {det!r} differs from 1 - 1/(2N)")
    for pt in points:
        asy_gain, asy_prob = asymptotic_gain(N, pt.T)
        window = 5.0 * (pt.T / N) ** 3
        _check(problems, abs(pt.gain_recursive - asy_gain) <= window,
               f"gain at T={pt.T} off the expansion by "
               f"{abs(pt.gain_recursive - asy_gain):.2e} (window {window:.2e})")
        _check(problems, abs(pt.p_succ - asy_prob) <= window,
               f"probability at T={pt.T} off the expansion by "
               f"{abs(pt.p_succ - asy_prob):.2e} (window {window:.2e})")
    with capsys.disabled():
        _report(3, "phase-estimation anchors and large-N expansion", problems,
                time.monotonic() - start, 2.0)


def test_criterion_4_correction_anchors(capsys):
    problems: list = []
    start = time.monotonic()
    d, mu = 100, 0.9
    run = run_protocol(damped_profile(d, mu), uniform_levels(d), d)
    worst_p = max(abs(r.probability - round_probability(d, mu, r.k))
                  for r in run.rounds)
    _check(problems, worst_p <= 1e-10,
           f"round probability deviates from closed form by {worst_p:.2e}")
    worst_f = max(abs(r.fidelity - (d + 1 - r.k) / d) for r in run.rounds)
    _check(problems, worst_f <= 1e-10,
           f"round fidelity deviates from closed form by {worst_f:.2e}")
    p1 = run.rounds[0].probability
    _check(problems, abs(p1 - 3e-4) <= 0.02 * 3e-4,
           f"first-round probability {p1:.4e} not 3e-4 +- 2%")
    p68, _ = cumulative(run, 68)
    _check(problems, abs(p68 - 0.14) <= 0.01,
           f"cumulative probability {p68:.4f} at step 68 not 0.14 +- 0.01")
    with capsys.disabled():
        _report(4, "damped-level correction anchors", problems,
                time.monotonic() - start, 2.0)


def test_criterion_5_matrix_oracle_agreement(capsys):
    problems: list = []
    start = time.monotonic()
    report = run_verification(seed=42, instances=100)
    for line in report.lines():
        _check(problems, line.startswith("ok"), line)
    stdout = "".join(line + "\n" for line in report.lines())
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    _check(problems, digest == VERIFY_SEED_42_SHA256, f"verify stdout sha256 is {digest}")
    with capsys.disabled():
        _report(5, "independent matrix-oracle suites, 100 instances", problems,
                time.monotonic() - start, 60.0)


def test_criterion_6_structural_invariants(capsys):
    problems: list = []
    start = time.monotonic()
    rng = np.random.default_rng(271)
    for _ in range(20):
        p, q = _contained_pair(rng, int(rng.integers(3, 8)))
        run = run_protocol(p, q, 100)
        fids = [r.fidelity for r in run.rounds]
        _check(problems, all(b < a for a, b in zip(fids, fids[1:])),
               "round fidelities not strictly decreasing")
        cums = [cumulative(run, T)[0] for T in range(1, len(run.rounds) + 1)]
        _check(problems, all(b > a for a, b in zip(cums, cums[1:])),
               "cumulative probabilities not strictly increasing")
        _check(problems, abs(cums[-1] - 1.0) <= 1e-10,
               f"probability at termination is {cums[-1]!r}, not 1")
        curve = tradeoff_curve(p, q, 100)
        _check(problems,
               all(pt.F_coarse >= pt.F_recursive - 1e-12 for pt in curve.points),
               "merged filter fell below the recursive average")
        for T in range(1, len(run.rounds) + 1):
            merged = coarse_filter(run, T)
            gap = abs(filter_success_probability(p, merged) - cums[T - 1])
            _check(problems, gap <= 1e-10,
                   f"merged filter success probability off by {gap:.2e}")
    for N in range(1, 22, 2):
        total = sum(int(round(2 * l + 1)) * mult
                    for l, mult in spin_multiplicities(N).items())
        _check(problems, total == 2 ** N,
               f"spin multiplicities for N={N} sum to {total}, not 2^N")
    with capsys.disabled():
        _report(6, "protocol and representation invariants", problems,
                time.monotonic() - start, None)


def test_criterion_7_purification_consistency(capsys):
    problems: list = []
    start = time.monotonic()
    for N in range(1, 12, 2):
        rep = purification_report(N, 0.0)
        _check(problems, rep.F_prob == 0.5,
               f"filtered fidelity at beta=0, N={N} is {rep.F_prob!r}, not 1/2")
    reports = [purification_report(N, 0.8) for N in range(1, 12, 2)]
    fps = [r.F_prob for r in reports]
    fds = [r.F_det for r in reports]
    _check(problems, all(b > a for a, b in zip(fps, fps[1:])),
           "filtered fidelity not increasing with N at beta=0.8")
    _check(problems, all(b < a for a, b in zip(fds, fds[1:])),
           "deterministic fidelity not decreasing with N at beta=0.8")
    q = coherent_target_profile()
    for N in (1, 3, 5, 7):
        rep = purification_report(N, 0.8)
        rho = thermal_spin_block_density(N, 0.8)
        pairs = [
            ("alignment fidelity", mixed_alignment_fidelity(rho, q), rep.F_det),
            ("deterministic bound", det_fidelity_bound(rho, q), rep.F_det),
            ("filtered fidelity", ultimate_mixed_fidelity(rho, q), rep.F_prob),
            ("success probability", ultimate_mixed_probability(rho, q).value,
             rep.p_max),
        ]
        for label, generic, closed in pairs:
            _check(problems, abs(generic - closed) <= 1e-8,
                   f"{label} for N={N}: generic {generic!r} vs closed {closed!r}")
    with capsys.disabled():
        _report(7, "thermal purification closed forms", problems,
                time.monotonic() - start, None)
