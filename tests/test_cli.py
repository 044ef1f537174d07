"""Command-line surface: output formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from markedgroups.cli import (
    CAP_SEPARATOR_LEN,
    CAP_TREE_RADIUS,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- wp -----------------------------------------------------------------------

def test_wp_grig(capsys):
    code, out, _ = run(capsys, "wp", "--family", "grig", "--omega", "(012)", "--word", "adadadad")
    assert code == EXIT_OK
    assert out.strip() == "trivial"
    code, out, _ = run(capsys, "wp", "--family", "grig", "--omega", "(012)", "--word", "ad")
    assert code == EXIT_OK
    assert out.strip() == "nontrivial"


def test_wp_lamp(capsys):
    code, out, _ = run(capsys, "wp", "--family", "lamp", "--word", "ss")
    assert code == EXIT_OK and out.strip() == "trivial"
    code, out, _ = run(capsys, "wp", "--family", "lamp", "--word", "st")
    assert code == EXIT_OK and out.strip() == "nontrivial"


def test_wp_limit(capsys):
    # the limit family speaks the 4-generator alphabet
    code, out, _ = run(capsys, "wp", "--family", "limit", "--word", "dd")
    assert code == EXIT_OK and out.strip() == "trivial"
    code, out, _ = run(capsys, "wp", "--family", "limit", "--word", "d")
    assert code == EXIT_OK and out.strip() == "nontrivial"


def test_wp_constant_routes_to_model(capsys):
    code, out, err = run(capsys, "wp", "--family", "grig", "--omega", "(0)", "--word", "dd")
    assert code == EXIT_OK
    assert out.strip() == "trivial"
    assert "model" in err  # routing notice goes to stderr, not stdout


def test_wp_eventually_constant_rejected(capsys):
    code, _, err = run(capsys, "wp", "--family", "grig", "--omega", "1(0)", "--word", "ab")
    assert code == EXIT_DOMAIN
    assert "error" in err


def test_wp_word_length_cap(capsys):
    code, _, err = run(capsys, "wp", "--family", "grig", "--omega", "(012)", "--word", "ab" * 13)
    assert code == EXIT_USAGE
    assert "cap" in err


def test_wp_bad_omega_is_usage_error(capsys):
    code, _, _ = run(capsys, "wp", "--family", "grig", "--omega", "(013)", "--word", "a")
    assert code == EXIT_USAGE


# -- growth -------------------------------------------------------------------

def test_growth_csv_output(capsys):
    code, out, _ = run(capsys, "growth", "--family", "lamp", "--nmax", "2")
    assert code == EXIT_OK
    assert out == "n,gamma\n0,1\n1,4\n2,10\n"


def test_growth_grig(capsys):
    code, out, _ = run(capsys, "growth", "--family", "grig", "--omega", "(012)", "--nmax", "2")
    assert code == EXIT_OK
    assert out == "n,gamma\n0,1\n1,5\n2,11\n"


def test_growth_radius_cap(capsys):
    code, _, err = run(
        capsys, "growth", "--family", "grig", "--omega", "(012)",
        "--nmax", str(CAP_TREE_RADIUS + 1),
    )
    assert code == EXIT_USAGE and "cap" in err


def test_growth_writes_file(tmp_path, capsys):
    out_file = tmp_path / "g.csv"
    code, out, _ = run(
        capsys, "growth", "--family", "lamp", "--nmax", "1", "--out", str(out_file)
    )
    assert code == EXIT_OK and out == ""
    assert out_file.read_text() == "n,gamma\n0,1\n1,4\n"


# -- converge -----------------------------------------------------------------

def test_converge_header_and_monotone(capsys):
    code, out, _ = run(capsys, "converge", "--jmin", "1", "--jmax", "3", "--nmax", "3")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "j,agree_N,exact"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["1", "2", "3"]
    radii = [int(r[1]) for r in rows]
    assert radii == sorted(radii)


# -- separate -----------------------------------------------------------------

def test_separate_json(capsys):
    code, out, _ = run(capsys, "separate", "--omega1", "(012)", "--omega2", "(021)", "--lmax", "16")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["schema"] == 1
    assert rep["omega1"] == "(012)" and rep["omega2"] == "(021)"
    four = rep["four_generator"]
    assert four["word"] == "abababababababab"
    assert four["length"] == 16
    assert four["square"] is True
    assert four["trivial_in"].endswith("(021)")
    assert out.endswith("\n")
    assert out == json.dumps(rep, indent=2, sort_keys=True) + "\n"


def test_separate_below_threshold_is_null(capsys):
    code, out, _ = run(capsys, "separate", "--omega1", "(012)", "--omega2", "(021)", "--lmax", "8")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["four_generator"] is None
    assert "two_generator" in rep


def test_separate_cap(capsys):
    code, _, err = run(
        capsys, "separate", "--omega1", "(012)", "--omega2", "(021)",
        "--lmax", str(CAP_SEPARATOR_LEN + 1),
    )
    assert code == EXIT_USAGE and "cap" in err


def test_separate_lmax_zero(capsys):
    # only the empty word has length 0, and it is trivial in every group
    code, out, _ = run(
        capsys, "separate", "--omega1", "(012)", "--omega2", "(021)", "--lmax", "0"
    )
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["four_generator"] is None and rep["two_generator"] is None


def test_separate_deterministic(capsys):
    args = ("separate", "--omega1", "(012)", "--omega2", "(021)", "--lmax", "12")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    code, out3, _ = run(capsys, *args[:-2], "--lmax", "12", "--threads", "2")
    assert out1 == out2 == out3 and code == EXIT_OK


# -- crosscheck ---------------------------------------------------------------

def test_crosscheck_small_run(capsys):
    code, out, _ = run(
        capsys, "crosscheck", "--samples", "60", "--max-len", "10", "--seed", "11"
    )
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["verdict"] == "pass"
    assert rep["disagreements"] == 0
    assert rep["samples"] == 60
    probes = {p["word"]: p for p in rep["probes"]}
    assert probes["bcd"]["model_trivial"] and probes["bcd"]["limit_trivial"]
    assert not probes["d"]["model_trivial"] and not probes["d"]["limit_trivial"]


def test_crosscheck_deterministic(capsys):
    args = ("crosscheck", "--samples", "40", "--max-len", "8", "--seed", "3")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_crosscheck_sample_cap(capsys):
    code, _, err = run(capsys, "crosscheck", "--samples", "20001")
    assert code == EXIT_USAGE and "cap" in err


# -- minimality ---------------------------------------------------------------

def test_minimality_pass_and_fail_exit_codes(capsys):
    code, out, _ = run(capsys, "minimality", "--n", "2", "--m", "2", "--window", "10")
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == "pass"
    code, out, _ = run(
        capsys, "minimality", "--n", "2", "--m", "2", "--window", "10",
        "--variant", "original",
    )
    assert code == EXIT_VIOLATION
    assert json.loads(out)["verdict"] == "fail"


# -- structure ----------------------------------------------------------------

def test_structure_pass(capsys):
    code, out, _ = run(capsys, "structure", "--window", "4")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["verdict"] == "pass"


def test_structure_negative_control(capsys):
    code, out, _ = run(capsys, "structure", "--window", "4", "--negative-control")
    assert code == EXIT_OK  # control succeeds exactly when the corrupted run fails
    rep = json.loads(out)
    assert rep["negative_control"] is True
    assert rep["verdict"] == "fail"
    assert any(not c["pass"] for c in rep["checks"].values())


# -- generic ------------------------------------------------------------------

def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_thread_cap(capsys):
    for threads in ("17", "0"):
        code, _, err = run(
            capsys, "growth", "--family", "lamp", "--nmax", "2", "--threads", threads
        )
        assert code == EXIT_USAGE and "cap" in err and "1..16" in err


def test_cli_import_does_not_load_numpy():
    # numpy is most of the import time and no CLI path needs it; only the
    # level-permutation and matrix oracles import it, on first use
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import markedgroups.cli, sys; assert 'numpy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
