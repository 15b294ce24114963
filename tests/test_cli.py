"""End-to-end checks for the command-line entry point."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import epops
import epops.recursive
import epops.spectra
from epops.apps import amplification, cloning, correction, estimation
from epops.apps import (
    amplification_tradeoff,
    cloning_tradeoff,
    correction_tradeoff,
    estimation_tradeoff,
)
from epops.cli import main
from epops.spectra import RATIO_TOLERANCE, sine_profile, uniform_profile

SRC_DIR = str(Path(epops.__file__).resolve().parent.parent)


def run_cli(tmp_path, *argv):
    """Invoke the CLI in-process from inside ``tmp_path``."""
    old = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(argv))
    finally:
        os.chdir(old)


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_amplify_curve_endpoints(tmp_path):
    rc = run_cli(
        tmp_path, "amplify", "--r1", "1", "--r2", "1.5",
        "--cutoff", "80", "--rounds", "81", "--out", "amp.csv",
    )
    assert rc == 0
    header, rows = read_rows(tmp_path / "amp.csv")
    assert header == ["T", "p_succ", "F_recursive", "F_coarse"]
    assert len(rows) == 81
    last = rows[-1]
    assert float(last[1]) == pytest.approx(1.0, abs=1e-9)
    assert float(last[3]) == pytest.approx(math.exp(-0.25), abs=5e-4)


def test_clone_parity_mismatch_exit_code(tmp_path, capsys):
    rc = run_cli(tmp_path, "clone", "--n", "3", "--m", "4", "--out", "bad.csv")
    assert rc == 3
    assert "parit" in capsys.readouterr().err
    assert not (tmp_path / "bad.csv").exists()


def test_clone_small_example_values(tmp_path):
    rc = run_cli(tmp_path, "clone", "--n", "2", "--m", "4", "--out", "c.csv")
    assert rc == 0
    _, rows = read_rows(tmp_path / "c.csv")
    assert float(rows[0][1]) == pytest.approx(14 / 16)
    assert float(rows[0][2]) == pytest.approx(14 / 16)
    assert float(rows[-1][1]) == pytest.approx(1.0)


@pytest.mark.parametrize("n, m", [("1100", "1100"), ("1100", "1102"), ("20000", "20002")])
def test_clone_with_underflowing_shared_sectors(tmp_path, n, m):
    # Past N = 1074 the outer shared sectors of the M-spin target underflow to 0.
    rc = run_cli(tmp_path, "clone", "--n", n, "--m", m, "--out", "c.csv")
    assert rc == 0
    _, rows = read_rows(tmp_path / "c.csv")
    assert rows and all(0.0 < float(x) <= 1.0 for row in rows for x in row[1:])


def test_estimate_joins_fidelity_and_gain_columns(tmp_path):
    rc = run_cli(
        tmp_path, "estimate", "--mode", "maxcoh", "--n", "21",
        "--rounds", "4", "--out", "e.csv",
    )
    assert rc == 0
    header, rows = read_rows(tmp_path / "e.csv")
    assert header == ["T", "p_succ", "F_recursive", "F_coarse",
                      "G_recursive", "G_coarse"]
    first = rows[0]
    assert float(first[4]) == pytest.approx(math.cos(math.pi / 42) ** 2, abs=1e-6)
    for row in rows:
        assert 0.5 <= float(row[4]) <= 1.0 + 1e-12
        assert 0.5 <= float(row[5]) <= 1.0 + 1e-12


def test_correct_writes_averaged_fidelities(tmp_path):
    rc = run_cli(
        tmp_path, "correct", "--d", "10", "--mu", "0.5",
        "--rounds", "10", "--out", "r.csv",
    )
    assert rc == 0
    _, rows = read_rows(tmp_path / "r.csv")
    assert float(rows[0][2]) == pytest.approx(1.0)
    assert float(rows[-1][1]) == pytest.approx(1.0, abs=1e-9)
    expected = correction_tradeoff(10, 0.5, 10).average_curve.points[-1]
    assert float(rows[-1][2]) == pytest.approx(expected.F_recursive, rel=1e-5)
    assert float(rows[-1][3]) == pytest.approx(expected.F_coarse, rel=1e-5)


def test_purify_writes_summary_and_sector_sidecar(tmp_path):
    rc = run_cli(tmp_path, "purify", "--n", "5", "--beta", "0.8", "--out", "p.csv")
    assert rc == 0
    header, rows = read_rows(tmp_path / "p.csv")
    assert header == ["N", "beta", "F_det", "F_prob", "p_max"]
    assert len(rows) == 1
    assert float(rows[0][3]) > float(rows[0][2])
    doc = json.loads((tmp_path / "p.sectors.json").read_text())
    assert doc["N"] == 5
    assert len(doc["sectors"]) > 0


@pytest.mark.parametrize("argv", [
    ["clone", "--n", "8", "--m", "40"],
    ["purify", "--n", "5", "--beta", "0.8"],
], ids=["clone", "purify"])
@pytest.mark.parametrize("out", ["missing/x.csv", "taken"])
def test_unwritable_out_exits_2(tmp_path, capsys, argv, out):
    # The CSV is written first, so its failure leaves no sidecar or
    # manifest behind.
    (tmp_path / "taken").mkdir()
    rc = run_cli(tmp_path, *argv, "--out", out)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_purify_even_count_is_infeasible(tmp_path):
    rc = run_cli(tmp_path, "purify", "--n", "4", "--beta", "0.5", "--out", "p.csv")
    assert rc == 3


def test_tradeoff_reads_profile_files(tmp_path):
    (tmp_path / "p.json").write_text(uniform_profile(5).to_json())
    (tmp_path / "q.json").write_text(sine_profile(4).to_json())
    rc = run_cli(
        tmp_path, "tradeoff", "--input", "p.json", "--target", "q.json",
        "--rounds", "8", "--out", "t.csv",
    )
    assert rc == 0
    _, rows = read_rows(tmp_path / "t.csv")
    # sector 0 carries input weight but no target weight, so the success
    # probability saturates at 4/5 rather than 1
    assert float(rows[-1][1]) == pytest.approx(0.8)


def test_tradeoff_missing_file_exits_2(tmp_path, capsys):
    rc = run_cli(
        tmp_path, "tradeoff", "--input", "nope.json", "--target", "nope.json",
        "--out", "t.csv",
    )
    assert rc == 2
    assert "cannot load" in capsys.readouterr().err


def test_tradeoff_malformed_json_exits_2(tmp_path):
    (tmp_path / "p.json").write_text("{not json")
    (tmp_path / "q.json").write_text("{}")
    rc = run_cli(
        tmp_path, "tradeoff", "--input", "p.json", "--target", "q.json",
        "--out", "t.csv",
    )
    assert rc == 2


def test_tradeoff_deeply_nested_json_exits_2(tmp_path, capsys):
    # The decoder gives up on deep nesting with a RecursionError.
    (tmp_path / "p.json").write_text("[" * 200_000)
    (tmp_path / "q.json").write_text("{}")
    rc = run_cli(
        tmp_path, "tradeoff", "--input", "p.json", "--target", "q.json",
        "--out", "t.csv",
    )
    assert rc == 2
    assert "error: cannot load profile" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize(
    "bad", ["NaN", "Infinity", "1" + "0" * 400], ids=["NaN", "Infinity", "1e400-integer"]
)
def test_tradeoff_non_finite_weight_exits_3(tmp_path, capsys, bad):
    (tmp_path / "p.json").write_text(
        '{"energies": [{"index": 0, "weight": 0.5}, {"index": 1, "weight": %s}]}' % bad
    )
    (tmp_path / "q.json").write_text(uniform_profile(2).to_json())
    rc = run_cli(
        tmp_path, "tradeoff", "--input", "p.json", "--target", "q.json",
        "--out", "t.csv",
    )
    assert rc == 3
    assert "not finite" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_tradeoff_weights_summing_past_double_range_exit_3(tmp_path, capsys):
    (tmp_path / "p.json").write_text(
        '{"energies": [{"index": 0, "weight": 1e308}, {"index": 1, "weight": 1e308}]}'
    )
    (tmp_path / "q.json").write_text(uniform_profile(2).to_json())
    rc = run_cli(
        tmp_path, "tradeoff", "--input", "p.json", "--target", "q.json",
        "--out", "t.csv",
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert "error:" in err and "not finite" in err and "Traceback" not in err
    assert not (tmp_path / "t.csv").exists()


def test_tradeoff_ratio_past_double_range_exits_3(tmp_path, capsys):
    # Normalized, the target's second weight is 1e-314, and 0.5 / 1e-314
    # is infinite; the curve used to print rows of inf and nan.
    (tmp_path / "p.json").write_text(uniform_profile(2).to_json())
    (tmp_path / "q.json").write_text(
        '{"energies": [{"index": 0, "weight": 1e300}, {"index": 1, "weight": 1e-14}]}'
    )
    rc = run_cli(
        tmp_path, "tradeoff", "--input", "p.json", "--target", "q.json",
        "--out", "t.csv",
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert "error:" in err and "at sector 1 is not finite" in err and "Traceback" not in err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize(
    "bad", ["NaN", "Infinity", "-Infinity", "-1" + "0" * 400],
    ids=["NaN", "Infinity", "-Infinity", "-1e400-integer"],
)
def test_tradeoff_non_finite_energy_value_exits_2(tmp_path, capsys, bad):
    (tmp_path / "p.json").write_text(
        '{"energies": [{"index": 0, "weight": 0.5}, {"index": 1, "value": %s, "weight": 0.5}]}'
        % bad
    )
    (tmp_path / "q.json").write_text(uniform_profile(2).to_json())
    rc = run_cli(
        tmp_path, "tradeoff", "--input", "p.json", "--target", "q.json",
        "--out", "t.csv",
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "at sector 1 is not finite" in err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("bad", ["1.5", "true"])
def test_tradeoff_non_integer_index_exits_2(tmp_path, capsys, bad):
    (tmp_path / "p.json").write_text(
        '{"energies": [{"index": 0, "weight": 0.5}, {"index": %s, "weight": 0.5}]}' % bad
    )
    (tmp_path / "q.json").write_text(uniform_profile(2).to_json())
    rc = run_cli(
        tmp_path, "tradeoff", "--input", "p.json", "--target", "q.json",
        "--out", "t.csv",
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not an integer" in err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("key, bad", [
    ("weight", "true"), ("weight", "\"0.5\""), ("weight", "null"),
    ("value", "false"), ("value", "\"1\""), ("value", "null"),
])
def test_tradeoff_non_number_weight_or_value_exits_2(tmp_path, capsys, key, bad):
    entry = '"index": 1, "weight": 0.5' if key == "value" else '"index": 1'
    (tmp_path / "p.json").write_text(
        '{"energies": [{"index": 0, "weight": 0.5}, {%s, "%s": %s}]}' % (entry, key, bad)
    )
    (tmp_path / "q.json").write_text(uniform_profile(2).to_json())
    rc = run_cli(
        tmp_path, "tradeoff", "--input", "p.json", "--target", "q.json",
        "--out", "t.csv",
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{key} in entry" in err and "not a number" in err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("n, beta, code, message", [
    ("-1", "1", 2, "positive odd integer"),
    ("0", "1", 2, "positive odd integer"),
    ("3", "nan", 2, "finite and nonnegative"),
    ("3", "inf", 2, "finite and nonnegative"),
    ("3", "400", 3, "outside the double range"),
    ("3", "1000", 3, "outside the double range"),
])
def test_purify_bad_parameters_exit_cleanly(tmp_path, capsys, n, beta, code, message):
    rc = run_cli(tmp_path, "purify", "--n", n, "--beta", beta, "--out", "p.csv")
    assert rc == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("r1, r2", [("nan", "1.5"), ("1", "nan"), ("1", "inf"), ("inf", "inf")])
def test_amplify_non_finite_amplitude_exits_2(tmp_path, capsys, r1, r2):
    rc = run_cli(tmp_path, "amplify", "--r1", r1, "--r2", r2, "--out", "a.csv")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must both be finite" in err
    assert not (tmp_path / "a.csv").exists()


def test_amplify_target_amplitude_whose_square_underflows_exits_0(tmp_path, capsys):
    # r2^2 underflows to 0.0; the tail bound used to take its log.
    rc = run_cli(tmp_path, "amplify", "--r1", "0", "--r2", "1e-200", "--cutoff", "3",
                 "--out", "a.csv")
    assert rc == 0, capsys.readouterr().err
    _, rows = read_rows(tmp_path / "a.csv")
    assert rows == [["1", "1", "1", "1"]]


def run_cli_process(tmp_path, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return subprocess.run(
        [sys.executable, *args], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )


def test_row_below_double_range_exits_3_even_under_optimize(tmp_path):
    # Row 1 of this curve has p_succ near 10^-2564; the refusal must still
    # fire under -O and end in one clean error line.
    proc = run_cli_process(
        tmp_path, "-O", "-m", "epops.cli", "amplify", "--r1", "1", "--r2", "30",
        "--cutoff", "1000", "--out", "a.csv",
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: row 1 has p_succ")


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    proc = run_cli_process(
        tmp_path, "-c",
        "import sys, epops.cli; "
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))",
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


def test_package_and_cli_import_leave_numpy_unloaded(tmp_path):
    # A bare package import loads no submodule; its exports resolve lazily.
    proc = run_cli_process(
        tmp_path, "-c",
        "import sys, epops; "
        "print(sorted(m for m in sys.modules if m.startswith('epops.'))); "
        "import epops.cli; "
        "print(sorted(m for m in ('numpy', 'epops.oracle', 'epops.mixedstate') "
        "if m in sys.modules))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "[]"]


@pytest.fixture
def pair_passes(monkeypatch):
    """Record every pass over a pair: each ratio sort (a keyed ``sorted``
    call in ``epops.spectra``; the profile loaders sort indices without a
    key) and each group stream, wherever a module bound ``_column_groups``,
    with the pair cache emptied.  Every engine curve streams its groups
    once, and the stream keeps no cache, so a curve built twice is counted
    twice."""
    passes = []
    original = epops.spectra._column_groups

    def sort(rows, **kwargs):
        if "key" in kwargs:
            passes.append("sort")
        return sorted(rows, **kwargs)

    def groups(*args):
        passes.append("groups")
        return original(*args)

    monkeypatch.setattr(epops.spectra, "_last", None)
    monkeypatch.setattr(epops.spectra, "sorted", sort, raising=False)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "epops" and getattr(module, "_column_groups", None) is original:
            monkeypatch.setattr(module, "_column_groups", groups)
    return passes


#: The apps whose curves come from closed forms: they run no protocol.
CLOSED_FORM_CALLS = (
    lambda: amplification_tradeoff(1.0, 1.5, 30, 31),
    lambda: correction_tradeoff(12, 0.7, 12),
)


#: One call of each app, the closed-form ones first.
APP_CALLS = [
    *CLOSED_FORM_CALLS,
    lambda: cloning_tradeoff(4, 10, 8),
    lambda: estimation_tradeoff("maxcoh", 11, 5),
    lambda: estimation_tradeoff("qubits", 6, 5),
]


@pytest.mark.parametrize("call", APP_CALLS)
def test_each_app_call_runs_the_protocol_once(pair_passes, call):
    # An engine app sorts its pair and streams its groups once, a
    # closed-form one never.
    call()
    assert pair_passes == ([] if call in CLOSED_FORM_CALLS else ["sort", "groups"])


def test_no_app_call_builds_a_protocol_record(monkeypatch):
    # run_protocol and ratio_table, counted wherever an epops module bound
    # them, are the round-level API: no app curve reads a round record.
    calls = []
    originals = {"run_protocol": epops.recursive.run_protocol,
                 "ratio_table": epops.spectra.ratio_table}

    def counted(name):
        def call(*args, **kwargs):
            calls.append(name)
            return originals[name](*args, **kwargs)
        return call

    for module_name, module in list(sys.modules.items()):
        for name, original in originals.items():
            if module_name.split(".")[0] == "epops" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name))
    for call in APP_CALLS:
        call()
    assert calls == []
    # The counters do count: the round-level API itself goes through them.
    epops.recursive.run_protocol(uniform_profile(3), sine_profile(3), 2)
    assert calls == ["run_protocol", "ratio_table"]


@pytest.mark.parametrize("argv", [
    ["tradeoff", "--input", "p.json", "--target", "q.json", "--rounds", "8"],
    ["estimate", "--mode", "maxcoh", "--n", "11", "--rounds", "5"],
    ["estimate", "--mode", "qubits", "--n", "6"],
    ["clone", "--n", "4", "--m", "10", "--rounds", "8"],
    ["amplify", "--r1", "1", "--r2", "1.5", "--cutoff", "30", "--rounds", "31"],
    ["correct", "--d", "12", "--mu", "0.7", "--rounds", "12"],
])
def test_each_curve_subcommand_runs_the_protocol_once(tmp_path, pair_passes, argv):
    # An engine subcommand sorts its pair and streams its groups once, a
    # closed-form one never.
    (tmp_path / "p.json").write_text(uniform_profile(5).to_json())
    (tmp_path / "q.json").write_text(sine_profile(4).to_json())
    assert run_cli(tmp_path, *argv, "--out", "out.csv") == 0
    engine = argv[0] not in ("amplify", "correct")
    assert pair_passes == (["sort", "groups"] if engine else [])


@pytest.mark.parametrize("argv, length", [
    (["tradeoff", "--input", "p.json", "--target", "q.json"], 2),
    (["estimate", "--mode", "maxcoh", "--n", "11"], 5),
    (["estimate", "--mode", "qubits", "--n", "6"], 6),
    (["clone", "--n", "4", "--m", "10"], 3),
    (["amplify", "--r1", "1", "--r2", "1.5", "--cutoff", "30"], 31),
    (["correct", "--d", "12", "--mu", "0.7"], 12),
], ids=["tradeoff", "estimate-maxcoh", "estimate-qubits", "clone", "amplify", "correct"])
def test_rounds_past_sys_maxsize_print_every_row(tmp_path, argv, length):
    # A round count past sys.maxsize, islice's limit, reads as sys.maxsize,
    # more rows than any curve has: the CSV is the one at K = L.
    (tmp_path / "p.json").write_text(uniform_profile(5).to_json())
    (tmp_path / "q.json").write_text(sine_profile(4).to_json())
    for rounds, out in ((str(10**20), "huge.csv"), (str(length), "all.csv")):
        assert run_cli(tmp_path, *argv, "--rounds", rounds, "--out", out) == 0
    huge = (tmp_path / "huge.csv").read_bytes()
    assert huge.count(b"\n") == length + 1
    assert huge == (tmp_path / "all.csv").read_bytes()


def test_missing_required_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "clone", "--n", "3", "--out", "c.csv")
    assert exc.value.code == 2


def test_unknown_mode_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "estimate", "--mode", "weird", "--n", "5", "--out", "e.csv")
    assert exc.value.code == 2


def test_amplify_small_cutoff_is_infeasible(tmp_path, capsys):
    rc = run_cli(
        tmp_path, "amplify", "--r1", "1", "--r2", "2",
        "--cutoff", "3", "--out", "a.csv",
    )
    assert rc == 3
    assert "cutoff" in capsys.readouterr().err


def _above_cap(module, cap):
    return str(getattr(module, cap) + 1)


#: sha256 of ``estimate --mode qubits --n 1060`` (32 rounds) as the route that
#: built every round's output profile and every merged filter wrote it.
QUBITS_1060_GOLDEN = "be65697eb7b05c4dff2d39401f720b0698a739b3427ca3d7e7c1b08ffbffea2b"


def test_estimate_qubits_1060_keeps_its_bytes(tmp_path):
    assert run_cli(tmp_path, "estimate", "--mode", "qubits", "--n", "1060",
                   "--out", "q.csv") == 0
    assert hashlib.sha256((tmp_path / "q.csv").read_bytes()).hexdigest() == QUBITS_1060_GOLDEN


@pytest.mark.parametrize("n", ["1200", "1500"])
def test_estimate_unnormalized_merged_filter_exits_3(tmp_path, capsys, n):
    # The binomial weights leave the normal range, and the merged filter's
    # success probability misses p_succ by more than 1e-10.
    rc = run_cli(tmp_path, "estimate", "--mode", "qubits", "--n", n, "--out", "q.csv")
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not (tmp_path / "q.csv").exists()


#: The N in 1060..1100 whose ``estimate --mode qubits`` curve the mass audit
#: admits; it refuses the rest with NotNormalized.  Past N = 1076 its verdict
#: depends on how the merged filter's probability is rounded, so a rephrased
#: audit shows here.
QUBITS_AUDIT_ADMITS = {*range(1060, 1077), 1081, 1082, 1086, 1087, 1088}


def test_estimate_qubits_audit_verdicts_are_pinned(tmp_path, capsys):
    for n in range(1060, 1101):
        rc = run_cli(tmp_path, "estimate", "--mode", "qubits", "--n", str(n),
                     "--out", "q.csv")
        err = capsys.readouterr().err
        if n in QUBITS_AUDIT_ADMITS:
            assert (rc, err) == (0, ""), n
        else:
            assert rc == 3 and err.startswith("error: the merged filter of rounds"), (n, err)


@pytest.mark.parametrize("argv", [
    ["amplify", "--r1", "1", "--r2", "1.5",
     "--cutoff", _above_cap(amplification, "_CUTOFF_CAP")],
    ["estimate", "--mode", "maxcoh", "--n", _above_cap(estimation, "_LEVEL_CAP")],
    ["estimate", "--mode", "qubits", "--n", _above_cap(estimation, "_LEVEL_CAP")],
    ["clone", "--n", _above_cap(cloning, "_SPIN_CAP"), "--m", _above_cap(cloning, "_SPIN_CAP")],
    ["clone", "--n", "1", "--m", _above_cap(cloning, "_SPIN_CAP")],
    ["correct", "--d", _above_cap(correction, "_LEVEL_CAP"), "--mu", "0.9"],
], ids=["amplify-cutoff", "estimate-maxcoh-n", "estimate-qubits-n", "clone-n", "clone-m",
        "correct-d"])
def test_size_above_its_cap_exits_3_at_once(tmp_path, capsys, argv):
    start = time.perf_counter()
    rc = run_cli(tmp_path, *argv, "--out", "big.csv")
    elapsed = time.perf_counter() - start
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "exceeds the cap" in err[0]
    assert elapsed < 0.5
    assert not (tmp_path / "big.csv").exists()


def test_verify_subcommand_passes(tmp_path, capsys):
    rc = run_cli(tmp_path, "verify", "--seed", "11", "--instances", "4")
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("ok ") >= 5
    assert "fail" not in out


def test_verify_failure_exits_1(tmp_path, capsys, monkeypatch):
    # No merged-filter gap is within a negative tolerance, so that check fails.
    import epops.oracle

    monkeypatch.setattr(epops.oracle, "MERGE_TOLERANCES",
                        dict.fromkeys(epops.oracle.MERGE_TOLERANCES, -1.0))
    assert run_cli(tmp_path, "verify", "--seed", "11", "--instances", "2") == 1
    captured = capsys.readouterr()
    assert "FAIL recursive-vs-simulation" in captured.out
    assert captured.err == "verification failed\n"


#: sha256 of ``epops verify --seed 4 --instances 6`` stdout, whose
#: instances have 2, 3, 4, 4, 5 and 5 input sectors; captured when the
#: optimum's KKT certificate replaced the coefficient grid and the
#: completeness line began to report energy preservation.
VERIFY_SEED_4_SHA256 = "5087c64940cc0b43f14f37198086b8d3b9b229cc04c8f0987bf22f3edb5a88b9"
#: sha256 of ``epops verify --seed 42 --instances 100`` stdout, the README
#: invocation; criterion 5 in ``test_acceptance.py`` checks it on its report.
VERIFY_SEED_42_SHA256 = "5db0f43d0d56ec3872000cb400679e7138ae0108012e545feb985a09dbc0de7b"


def test_verify_output_is_pinned(tmp_path, capsys):
    rc = run_cli(tmp_path, "verify", "--seed", "4", "--instances", "6")
    assert rc == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SEED_4_SHA256


@pytest.mark.parametrize("seed, instances, option", [
    pytest.param("11", "0", "instances", id="0"),
    pytest.param("11", "-3", "instances", id="-3"),
    pytest.param("-1", "4", "seed", id="seed-1"),
])
def test_verify_without_instances_exits_2(tmp_path, capsys, seed, instances, option):
    rc = run_cli(tmp_path, "verify", "--seed", seed, "--instances", instances)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and option in captured.err


def test_consistency_error_exits_4_with_one_error_line(tmp_path, capsys, monkeypatch):
    # No subcommand raises it on a correct engine, so a planted one stands in.
    import epops.oracle
    from epops.errors import ConsistencyError

    def disagree(seed, instances):
        raise ConsistencyError("planted quantity", 1.0, 2.0, 1e-12)

    monkeypatch.setattr(epops.oracle, "run_verification", disagree)
    assert run_cli(tmp_path, "verify", "--seed", "1", "--instances", "1") == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: consistency check failed: planted quantity: 1.0 vs 2.0, tolerance 1e-12\n"
    )


def test_app_manifests_record_the_grouping_tolerance_alone(tmp_path):
    # The closed-form apps hold no tolerance of their own: the comparison
    # with the engine lives in the tests.
    options = {
        "amplify": ["--r1", "1", "--r2", "1.5", "--cutoff", "20", "--rounds", "5"],
        "correct": ["--d", "6", "--mu", "0.4", "--rounds", "6"],
    }
    for command, argv in options.items():
        assert run_cli(tmp_path, command, *argv, "--out", f"{command}.csv") == 0
        doc = json.loads((tmp_path / f"{command}.manifest.json").read_text())
        assert doc["tolerances"] == {"ratio_grouping_rel": RATIO_TOLERANCE}


def test_identical_commands_write_identical_bytes(tmp_path):
    argv = ["clone", "--n", "6", "--m", "10", "--rounds", "12"]
    assert run_cli(tmp_path, *argv, "--out", "one.csv") == 0
    assert run_cli(tmp_path, *argv, "--out", "two.csv") == 0
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


def test_manifest_records_invocation(tmp_path):
    argv = ["correct", "--d", "6", "--mu", "0.4", "--rounds", "6", "--out", "r.csv"]
    assert run_cli(tmp_path, *argv) == 0
    doc = json.loads((tmp_path / "r.manifest.json").read_text())
    assert doc["command"] == "correct"
    assert doc["argv"] == argv
    assert doc["parameters"]["d"] == 6
    assert doc["parameters"]["mu"] == pytest.approx(0.4)
    assert doc["seed"] is None
    assert "ratio_grouping_rel" in doc["tolerances"]
    assert doc["version"]
    assert "T" in doc["timestamp"]


#: The README data invocations and the files each one writes (manifests
#: aside: they carry a timestamp).
README_INVOCATIONS = (
    (["tradeoff", "--input", "p.json", "--target", "q.json", "--rounds", "32",
      "--out", "curve.csv"], ["curve.csv"]),
    (["estimate", "--mode", "maxcoh", "--n", "61", "--rounds", "30",
      "--out", "est.csv"], ["est.csv"]),
    (["estimate", "--mode", "qubits", "--n", "8", "--out", "qubits.csv"],
     ["qubits.csv"]),
    (["clone", "--n", "80", "--m", "400", "--rounds", "41", "--out", "clone.csv"],
     ["clone.csv"]),
    (["amplify", "--r1", "1", "--r2", "1.5", "--cutoff", "80", "--rounds", "81",
      "--out", "amp.csv"], ["amp.csv"]),
    (["correct", "--d", "100", "--mu", "0.9", "--rounds", "100",
      "--out", "corr.csv"], ["corr.csv"]),
    (["purify", "--n", "5", "--beta", "0.8", "--out", "purify.csv"],
     ["purify.csv", "purify.sectors.json"]),
)

#: sha256 of every README output, captured from the per-sector dict engine
#: that preceded the prefix-sum engine.
README_GOLDEN = {
    "curve.csv": "816798f33d3b3b279ca7bb0956a9af3c3364ea72031caf037cb78ffd4df9816e",
    "est.csv": "3deecc6c2af40d680690faae5b1eccf4d6339cd1e76d563d4d0c31ec26c2a7f6",
    "qubits.csv": "adb8eaeff361c5d6e5f07892c3758fa51280b4669429b3736240ab6d475caa2a",
    "clone.csv": "98ad089e36147e1978f84cb16366ecc072ea43dd9028669da3f3b983008a882d",
    "amp.csv": "c86a997d98e812302ceecf91145303e88e6ab9ff1ad5564c8da65b401d204a60",
    "corr.csv": "e16086671f4759e51817a6745c92e4afe727dc0ea5e44007734bb954588c38c1",
    "purify.csv": "f5b0150592b75777745b27228bc2f5ede2a2e05a6f500084d848564651bbab4f",
    "purify.sectors.json": "1252255bece6c0c957ad15dbbfcf28f9ef547c5d0cf9fe0c52c3e596094fc0c0",
}


def write_readme_profiles(tmp_path):
    """Write the ``p.json`` and ``q.json`` read by the README ``tradeoff``."""
    rng = np.random.default_rng(2015)
    for name, n in (("p.json", 40), ("q.json", 42)):
        weights = rng.dirichlet(np.ones(n))
        doc = {"energies": [{"index": i, "value": float(i), "weight": float(w)}
                            for i, w in enumerate(weights)]}
        (tmp_path / name).write_text(json.dumps(doc))


def readme_output_digests(tmp_path):
    """Run every README data invocation; map each output file to its sha256."""
    write_readme_profiles(tmp_path)
    digests = {}
    for argv, outputs in README_INVOCATIONS:
        assert run_cli(tmp_path, *argv) == 0, argv
        for name in outputs:
            digests[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    return digests


def test_readme_invocations_write_golden_bytes(tmp_path):
    assert readme_output_digests(tmp_path) == README_GOLDEN


#: The six README data invocations that use no matrix (all but purify).
README_CURVE_INVOCATIONS = [case for case in README_INVOCATIONS if case[0][0] != "purify"]


#: The app module each curve subcommand runs (``tradeoff`` runs none).
APP_MODULES = {
    "estimate": "epops.apps.estimation",
    "clone": "epops.apps.cloning",
    "amplify": "epops.apps.amplification",
    "correct": "epops.apps.correction",
}

#: Prints the modules a CLI call loaded (beyond what the interpreter had
#: at start) as a JSON list, then exits with the call's exit code.
LOADED_BY_CLI = (
    "import json, sys; before = set(sys.modules); {setup}"
    "from epops.cli import main; rc = main(sys.argv[1:]); "
    "print(json.dumps(sorted(set(sys.modules) - before))); sys.exit(rc)"
)


@pytest.mark.parametrize(
    "argv, outputs", README_CURVE_INVOCATIONS,
    ids=[outputs[0] for _, outputs in README_CURVE_INVOCATIONS],
)
def test_readme_curve_invocations_run_without_numpy(tmp_path, argv, outputs):
    # numpy set to None in sys.modules makes any import of it fail, so a
    # golden output proves the curve subcommands never touch it.  Each
    # subcommand also loads only its own modules.
    write_readme_profiles(tmp_path)
    proc = run_cli_process(
        tmp_path, "-c", LOADED_BY_CLI.format(setup="sys.modules['numpy'] = None; "), *argv,
    )
    assert proc.returncode == 0, proc.stderr
    others = set(APP_MODULES.values()) - {APP_MODULES.get(argv[0])}
    budget = {"dataclasses", "inspect", "epops.optimal", "epops.oracle",
              "epops.mixedstate"} | others
    assert not budget.intersection(json.loads(proc.stdout))
    for name in outputs:
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == README_GOLDEN[name]


@pytest.mark.parametrize("argv", [
    ["purify", "--n", "5", "--beta", "0.8", "--out", "p.csv"],
    ["verify", "--seed", "3", "--instances", "1"],
], ids=["purify", "verify"])
def test_matrix_subcommands_load_no_dataclasses(tmp_path, argv):
    proc = run_cli_process(tmp_path, "-c", LOADED_BY_CLI.format(setup=""), *argv)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert "numpy" in loaded and "dataclasses" not in loaded


def sound_curve_problem(path):
    """The benchmark probe's checks of a printed curve, or None if it holds."""
    rows = [[float(v) for v in line.split(",")] for line in path.read_text().splitlines()[1:]]
    if not rows:
        return "empty curve"
    p_succ = [r[1] for r in rows]
    if any(b < a for a, b in zip(p_succ, p_succ[1:])):
        return "p_succ falls"
    if abs(p_succ[-1] - 1.0) > 1e-9:
        return f"p_succ ends at {p_succ[-1]!r}"
    if any(r[3] < r[2] for r in rows):
        return "F_coarse below F_recursive"
    return None


@pytest.mark.parametrize("argv, code", [
    (["amplify", "--r1", "1", "--r2", "1.5", "--cutoff", "175", "--rounds", "176"], 0),
    (["amplify", "--r1", "1", "--r2", "1.5", "--cutoff", "320", "--rounds", "321"], 0),
    (["amplify", "--r1", "1", "--r2", "1.0000000001", "--cutoff", "10"], 0),
    (["amplify", "--r1", "1", "--r2", "30", "--cutoff", "1000"], 3),
    (["correct", "--d", "25600", "--mu", "0.9"], 3),
    (["correct", "--d", "2000", "--mu", "0.5"], 3),
    (["correct", "--d", "2000", "--mu", "1e-300"], 3),
    (["correct", "--d", "3", "--mu", "1e-200"], 3),
    (["correct", "--d", "100", "--mu", "5e-324"], 3),
], ids=["amplify-175", "amplify-320", "amplify-near-tie", "amplify-r2-30", "correct-25600",
        "correct-2000-0.5", "correct-2000-1e-300", "correct-3", "correct-100"])
def test_closed_form_app_invocations(tmp_path, capsys, argv, code):
    # Each exited 4 (or 2, at r2 = 30) while the apps audited the engine.
    assert run_cli(tmp_path, *argv, "--out", "a.csv") == code
    err = capsys.readouterr().err.splitlines()
    if code == 0:
        assert err == []
        assert sound_curve_problem(tmp_path / "a.csv") is None
    else:
        assert len(err) == 1 and err[0].startswith("error: row 1 has p_succ"), err
        assert not (tmp_path / "a.csv").exists()


def test_closed_form_apps_use_no_engine(tmp_path, monkeypatch):
    # The README amplify and correct curves come out byte for byte with
    # the engine's sort, grouping table, protocol and Poisson builder broken.
    import epops.coarse

    def broken(*args, **kwargs):
        raise AssertionError("engine route called")

    for module, name in [(epops.recursive, "run_protocol"), (epops.coarse, "_ratio_columns"),
                         (epops.coarse, "_column_groups"), (epops.recursive, "ratio_table"),
                         (epops.spectra, "ratio_table"), (epops.spectra, "_ratio_columns"),
                         (epops.spectra, "poisson_profile")]:
        monkeypatch.setattr(module, name, broken)
    for argv, outputs in README_INVOCATIONS:
        if argv[0] in ("amplify", "correct"):
            assert run_cli(tmp_path, *argv) == 0
            digest = hashlib.sha256((tmp_path / outputs[0]).read_bytes()).hexdigest()
            assert digest == README_GOLDEN[outputs[0]]
