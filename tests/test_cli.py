"""Command-line surface: output formats, exit codes, determinism."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

import markedgroups.cli as cli_module
import markedgroups.handles as handles_module
import markedgroups.lamplighter as lamplighter_module
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


@pytest.mark.parametrize("spelled, plain", [("a b", "ab"), ("aBa", "aba"), ("b C\td", "bcd")])
def test_wp_limit_parses_like_grig(capsys, spelled, plain):
    # whitespace is skipped and upper case is the (same) involution
    code, want, _ = run(capsys, "wp", "--family", "limit", "--word", plain)
    assert code == EXIT_OK
    assert run(capsys, "wp", "--family", "limit", "--word", spelled) == (EXIT_OK, want, "")


def test_wp_limit_rejects_foreign_letters(capsys):
    code, out, err = run(capsys, "wp", "--family", "limit", "--word", "a_b")
    assert code == EXIT_USAGE and out == ""
    assert "'_'" in err


def test_wp_constant_routes_to_model(capsys):
    code, out, err = run(capsys, "wp", "--family", "grig", "--omega", "(0)", "--word", "dd")
    assert code == EXIT_OK
    assert out.strip() == "trivial"
    assert "model" in err  # routing notice goes to stderr, not stdout


def test_wp_eventually_constant_rejected(capsys):
    code, _, err = run(capsys, "wp", "--family", "grig", "--omega", "1(0)", "--word", "ab")
    assert code == EXIT_DOMAIN
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("growth", "--family", "grig", "--omega", "1(0)", "--nmax", "2"),
        ("growth", "--family", "l", "--omega", "1(0)", "--nmax", "2"),
        ("separate", "--omega1", "(012)", "--omega2", "1(0)", "--lmax", "4"),
    ],
    ids=["growth-grig", "growth-l", "separate"],
)
def test_eventually_constant_is_a_domain_error(capsys, argv):
    # the tree handles refuse the sequence before any output is written
    code, out, err = run(capsys, *argv)
    assert code == EXIT_DOMAIN and out == ""
    assert "eventually constant" in err


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


def test_crosscheck_builds_no_model_element(capsys, monkeypatch):
    # the model verdict compares states, so no lamp or extension element is
    # built for a sampled word
    argv = ("crosscheck", "--max-len", "24", "--samples", "500", "--seed", "0")
    want = run(capsys, *argv)[:2]

    def broken(*args, **kwargs):
        raise AssertionError("an extension-model element was built")

    for name in ("LampElement", "lamp_multiply", "_from_dict", "alpha"):
        monkeypatch.setattr(lamplighter_module, name, broken)
    assert run(capsys, *argv)[:2] == want


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


def test_structure_rejects_zero_samples(capsys):
    # with no samples the sampled checks would pass vacuously
    code, out, err = run(capsys, "structure", "--window", "4", "--samples", "0")
    assert code == EXIT_USAGE and "--samples must be >= 1" in err
    assert out == ""


# -- generic ------------------------------------------------------------------

def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "usage:" in capsys.readouterr().out


def test_thread_cap(capsys):
    for threads in ("17", "0"):
        code, _, err = run(
            capsys, "growth", "--family", "lamp", "--nmax", "2", "--threads", threads
        )
        assert code == EXIT_USAGE and "cap" in err and "1..16" in err



def test_internal_check_failure_exits_1_without_traceback(capsys, monkeypatch):
    def failing_check(*args):
        raise AssertionError("lockstep tables disagree")

    monkeypatch.setattr(cli_module, "agree_radius", failing_check)
    code, out, err = run(capsys, "converge", "--jmin", "1", "--jmax", "1", "--nmax", "2")
    assert code == EXIT_VIOLATION and out == ""
    assert err == "error: internal check failed: lockstep tables disagree\n"


def test_handle_with_a_wrong_inverse_letter_exits_1_without_traceback(capsys, monkeypatch):
    # t^-1 built as t: make_handle refuses the handle before any search runs
    monkeypatch.setattr(handles_module, "lamp_inverse", lambda u: u)
    code, out, err = run(capsys, "growth", "--family", "lamp", "--nmax", "2")
    assert code == EXIT_VIOLATION and out == ""
    assert err == "error: internal check failed: element protocol: g1^1 g1^-1 is not the identity\n"


# -- fuzzing ------------------------------------------------------------------

OMEGAS = st.one_of(
    st.sampled_from(("(012)", "(021)", "0(12)", "2(01)", "(0)", "1(0)")),
    st.text(alphabet="0123()x ", max_size=6),
)
WORDS = st.text(alphabet="abcdstxyABS ?", max_size=8)
FLAGS = {
    "wp": {"--family": st.sampled_from(("grig", "lamp", "limit", "tree")), "--omega": OMEGAS,
           "--word": WORDS, "--modulus": st.integers(-1, 4)},
    "growth": {"--family": st.sampled_from(("grig", "l", "lamp")), "--omega": OMEGAS,
               "--modulus": st.integers(-1, 4), "--nmax": st.integers(-1, 3), "--threads": st.integers(-1, 3)},
    "converge": {"--jmin": st.integers(-1, 2), "--jmax": st.integers(-1, 2), "--nmax": st.integers(-1, 3)},
    "separate": {"--omega1": OMEGAS, "--omega2": OMEGAS, "--lmax": st.integers(-1, 6)},
    "crosscheck": {"--max-len": st.integers(-1, 6), "--samples": st.integers(-1, 20), "--seed": st.integers(-1, 3),
                   "--kmin": st.integers(-1, 6), "--kmax": st.integers(-1, 6)},
    "minimality": {"--n": st.integers(-1, 4), "--m": st.integers(-1, 4), "--window": st.integers(-1, 6),
                   "--variant": st.sampled_from(("original", "corrected", "other"))},
    "structure": {"--window": st.integers(-1, 3), "--samples": st.integers(-1, 20), "--seed": st.integers(-1, 3)},
}
REQUIRED = {"--family", "--word", "--nmax", "--omega1", "--omega2", "--n", "--m"}


@st.composite
def cli_argv(draw):
    """A subcommand with its required options and some others, small values."""
    sub = draw(st.sampled_from(sorted(FLAGS)))
    argv = [sub]
    for flag, values in FLAGS[sub].items():
        value = draw(values if flag in REQUIRED else st.none() | values)
        if value is not None:
            argv += [flag, str(value)]
    if sub == "structure" and draw(st.booleans()):
        argv.append("--negative-control")
    return argv


@settings(max_examples=150)
@given(argv=cli_argv())
def test_fuzzed_arguments_exit_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_VIOLATION, EXIT_USAGE, EXIT_DOMAIN), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
