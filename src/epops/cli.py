"""Command-line drivers that emit tradeoff curves as CSV data files.

Every data subcommand writes the file named by ``--out`` plus a sibling
``<base>.manifest.json`` recording the command, its parameters, the
tolerances in force, and the library version, so a curve on disk can
always be traced back to the exact invocation that produced it.  The
``verify`` subcommand runs the independent matrix-oracle suites instead
and reports pass or fail per check.

Exit codes: 0 success, 1 verification failure, 2 invalid arguments or an
output file that cannot be written, 3 infeasible parameters (domain
errors such as disjoint spectra, a parity mismatch or a non-finite
weight, and a size above its cap), 4 an internal consistency check
failed (two routes to the same number disagreed beyond their tolerance).

Every call runs in a cold interpreter, so imports count: this module
imports at its top only what several subcommands run, and each ``_cmd_*``
function imports the modules only its own subcommand runs (its app, the
oracle, the mixed-state module).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

from . import __version__
from .coarse import tradeoff_curve
from .errors import ConsistencyError, EpopsError
from .spectra import RATIO_TOLERANCE, EnergyProfile

_TOLERANCES = {"ratio_grouping_rel": RATIO_TOLERANCE}
#: Parsed attributes that are not parameters of the computation.
_NOT_PARAMETERS = {"command", "func", "out", "raw_argv"}


def _write_output(args: argparse.Namespace, text: str, tolerances: dict,
                  sidecars: tuple = (), **extra) -> int:
    """Write ``text`` to ``--out``, then each sidecar, then the manifest.

    ``sidecars`` holds (file-name suffix, text) pairs of files written
    beside ``--out``.  The manifest's parameters are the subcommand's own
    arguments plus ``extra``, the derived values worth recording.  A file
    that cannot be written ends the command with exit code 2; ``--out``
    goes first, so a path that is a directory or lies in a missing one
    leaves no file behind.
    """
    out = Path(args.out)
    parameters = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
    doc = {
        "command": args.command,
        "argv": args.raw_argv,
        "parameters": {**parameters, **extra},
        "tolerances": tolerances,
        "seed": None,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    manifest = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    for suffix, body in (("", text), *sidecars, (".manifest.json", manifest)):
        path = out.with_name(out.stem + suffix) if suffix else out
        try:
            path.write_text(body)
        except OSError as exc:
            print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    return 0


def _cmd_tradeoff(args: argparse.Namespace) -> int:
    try:
        p = EnergyProfile.from_json(Path(args.input).read_text())
        q = EnergyProfile.from_json(Path(args.target).read_text())
    except (OSError, json.JSONDecodeError, KeyError, TypeError, RecursionError) as exc:
        print(f"error: cannot load profile: {exc}", file=sys.stderr)
        return 2
    return _write_output(args, tradeoff_curve(p, q, args.rounds).to_csv(), _TOLERANCES)


def _cmd_estimate(args: argparse.Namespace) -> int:
    from .apps.estimation import estimation_tradeoff

    lines = ["T,p_succ,F_recursive,F_coarse,G_recursive,G_coarse"]
    for gp in estimation_tradeoff(args.mode, args.n, args.rounds):
        lines.append(
            "%d,%.6g,%.6g,%.6g,%.6g,%.6g"
            % (gp.T, gp.p_succ, gp.F_recursive, gp.F_coarse,
               gp.gain_recursive, gp.gain_coarse)
        )
    return _write_output(args, "\n".join(lines) + "\n", _TOLERANCES)


def _cmd_clone(args: argparse.Namespace) -> int:
    from .apps.cloning import cloning_tradeoff

    curve = cloning_tradeoff(args.n, args.m, args.rounds)
    return _write_output(args, curve.to_csv(), _TOLERANCES)


def _cmd_amplify(args: argparse.Namespace) -> int:
    from .apps.amplification import _LOG_TOL, _REL_TOL, amplification_tradeoff

    result = amplification_tradeoff(args.r1, args.r2, args.cutoff, args.rounds)
    tolerances = {**_TOLERANCES, "closed_form_rel": _REL_TOL, "closed_form_log": _LOG_TOL}
    return _write_output(args, result.curve.to_csv(), tolerances,
                         tail_bound=result.tail_bound)


def _cmd_correct(args: argparse.Namespace) -> int:
    from .apps.correction import _CLOSED_TOL, correction_tradeoff

    result = correction_tradeoff(args.d, args.mu, args.rounds)
    tolerances = {**_TOLERANCES, "closed_form_abs": _CLOSED_TOL}
    return _write_output(args, result.average_curve.to_csv(), tolerances)


def _cmd_purify(args: argparse.Namespace) -> int:
    from .mixedstate import purification_report

    report = purification_report(args.n, args.beta)
    sectors = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    text = "N,beta,F_det,F_prob,p_max\n%d,%.6g,%.6g,%.6g,%.6g\n" % (
        report.N, report.beta, report.F_det, report.F_prob, report.p_max)
    return _write_output(args, text, {"fidelity_tie_rel": 1e-12},
                         sidecars=((".sectors.json", sectors),))


def _cmd_verify(args: argparse.Namespace) -> int:
    from .oracle import run_verification

    report = run_verification(args.seed, args.instances)
    for line in report.lines():
        print(line)
    if not report.passed:
        print("verification failed", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epops",
        description="Tradeoff curves for energy-preserving state conversion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("tradeoff", help="curve for two profiles given as JSON files")
    t.add_argument("--input", required=True, help="input profile JSON file")
    t.add_argument("--target", required=True, help="target profile JSON file")
    t.add_argument("--rounds", type=int, default=32)
    t.add_argument("--out", default="tradeoff.csv")
    t.set_defaults(func=_cmd_tradeoff)

    e = sub.add_parser("estimate", help="phase-estimation gain curve")
    e.add_argument("--mode", choices=["qubits", "maxcoh"], required=True)
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--rounds", type=int, default=32)
    e.add_argument("--out", default="estimate.csv")
    e.set_defaults(func=_cmd_estimate)

    c = sub.add_parser("clone", help="spin-ensemble cloning curve")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--rounds", type=int, default=32)
    c.add_argument("--out", default="clone.csv")
    c.set_defaults(func=_cmd_clone)

    a = sub.add_parser("amplify", help="coherent-amplitude amplification curve")
    a.add_argument("--r1", type=float, required=True)
    a.add_argument("--r2", type=float, required=True)
    a.add_argument("--cutoff", type=int, default=80)
    a.add_argument("--rounds", type=int, default=81)
    a.add_argument("--out", default="amplify.csv")
    a.set_defaults(func=_cmd_amplify)

    r = sub.add_parser("correct", help="damped-qudit correction curve")
    r.add_argument("--d", type=int, required=True)
    r.add_argument("--mu", type=float, required=True)
    r.add_argument("--rounds", type=int, default=32)
    r.add_argument("--out", default="correct.csv")
    r.set_defaults(func=_cmd_correct)

    p = sub.add_parser("purify", help="thermal-spin purification summary")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--out", default="purify.csv")
    p.set_defaults(func=_cmd_purify)

    v = sub.add_parser("verify", help="run the matrix-oracle differential suites")
    v.add_argument("--seed", type=int, default=42)
    v.add_argument("--instances", type=int, default=100)
    v.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[list] = None) -> int:
    raw = list(argv) if argv is not None else sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(raw)
    args.raw_argv = raw
    try:
        return args.func(args)
    except ConsistencyError as exc:
        print(f"error: consistency check failed: {exc}", file=sys.stderr)
        return 4
    except EpopsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
