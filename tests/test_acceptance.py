"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints one
"ACCEPTANCE n: PASS|FAIL" line (also echoed in the terminal summary).
Budgets are asserted in wall-clock seconds. Brute-force oracles come from
tests/oracles.py and are computed before the implementation results they
judge.
"""

import json
import time
from contextlib import contextmanager

import conftest
import oracles
from markedgroups.circle_product import (
    SSpec,
    gp_reduce,
    ts_adjacent,
    verify_minimality,
)
from markedgroups.cli import main
from markedgroups.grigorchuk import (
    OmegaWord,
    is_trivial,
    order_of,
    parse_omega,
)
from markedgroups.handles import (
    ext_model_handle,
    grig_handle,
    l_subgroup_handle,
    lamplighter_handle,
)
from markedgroups.lamplighter import EXT_STATE_IDENTITY, eval_abcd_state, structure_report
from markedgroups.marked_space import build_ball, growth_sequence
from markedgroups.sampling import DEFAULT_SEED, Lcg, sample_alternating_word
from markedgroups.words import gen_word_from_free, word_from_str

OM012 = parse_omega("(012)")
RELATORS = ("aa", "bb", "cc", "dd", "bcd")


@contextmanager
def criterion(n: int, budget_s: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        line = f"ACCEPTANCE {n}: FAIL"
        print(line)
        conftest.record_acceptance(line)
        raise
    elapsed = time.monotonic() - start
    assert budget_s is None or elapsed < budget_s, f"criterion {n} took {elapsed:.1f}s"
    line = f"ACCEPTANCE {n}: PASS"
    print(line)
    conftest.record_acceptance(f"{line}  ({elapsed:.1f}s)")


def _oracle_omega(om):
    return (tuple(om.preperiod), tuple(om.period))


def _sample_omega(rng):
    """Random eventually periodic sequence: preperiod 0..4, period 1..4."""
    pre = tuple(rng.randrange(3) for _ in range(rng.randrange(5)))
    period = tuple(rng.randrange(3) for _ in range(1 + rng.randrange(4)))
    return OmegaWord(pre, period)


def test_criterion_01_defining_relations():
    with criterion(1, 60):
        # (i) the tree action, 20 sampled sequences, all depths <= 10, by the
        # independent leaf-permutation oracle
        rng = Lcg(DEFAULT_SEED)
        for _ in range(20):
            om = _sample_omega(rng)
            for rel in RELATORS:
                assert oracles.oracle_acts_trivially(rel, _oracle_omega(om), 10), (str(om), rel)
        # (ii) the wreath model of every constant sequence
        for symbol in range(3):
            for rel in RELATORS:
                assert eval_abcd_state(rel, symbol) == EXT_STATE_IDENTITY, (symbol, rel)
        # (iii) every marked handle honors its involutions (and bcd where 4-gen)
        handles = [
            grig_handle("(012)"),
            grig_handle("(021)"),
            grig_handle("0(012)"),
            ext_model_handle(0),
            ext_model_handle(1),
            ext_model_handle(2),
            lamplighter_handle(2),
            l_subgroup_handle("(012)"),
        ]
        for h in handles:
            for i, invol in enumerate(h.involutive):
                if invol:
                    square = word_from_str(
                        h.gen_names[i] + h.gen_names[i], h.gen_names
                    )
                    assert h.trivial(square), (h.label, h.gen_names[i])
            if h.k == 4:
                for rel in RELATORS:
                    assert h.trivial(word_from_str(rel, h.gen_names)), (h.label, rel)


def test_criterion_02_word_problem_oracle_equivalence():
    with criterion(2, 300):
        oom = _oracle_omega(OM012)
        checked = 0
        for w in oracles.alternating_words(8):
            assert is_trivial(w, OM012) == oracles.oracle_acts_trivially(w, oom, 12), w
            checked += 1
        assert checked == 400  # every alternating word of length 1..8
        assert is_trivial("", OM012)
        rng = Lcg(DEFAULT_SEED)
        for _ in range(10_000):
            w = sample_alternating_word(rng, 20)
            assert is_trivial(w, OM012) == oracles.oracle_acts_trivially(w, oom, 12), w


def _run_cli_to_file(tmp_path, name, *argv):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    return code, out.read_bytes()


def test_criterion_03_limit_crosscheck(tmp_path):
    with criterion(3, 600):
        code, blob = _run_cli_to_file(
            tmp_path, "cc.json", "crosscheck",
            "--max-len", "14", "--samples", "1000",
            "--kmin", "8", "--kmax", "12", "--seed", str(DEFAULT_SEED),
        )
        assert code == 0
        rep = json.loads(blob)
        assert rep["verdict"] == "pass"
        assert rep["disagreements"] == 0
        assert rep["unstable"] < 0.05 * rep["samples"]
        assert rep["unstable_unresolved"] == []
        assert rep["unstable_resolved_consistent"] == rep["unstable"]
        for p in rep["probes"]:
            assert p["model_trivial"] == p["limit_trivial"]


def test_criterion_04_structure_report():
    with criterion(4, 60):
        rep = structure_report(20)
        assert rep["verdict"] == "pass"
        for name in (
            "t_distinct",
            "t_commute",
            "conjugation_steps_index",
            "shift_separates_ab_powers",
            "defining_relations",
            "metabelian_commutators",
            "unique_factorization",
        ):
            assert rep["checks"][name]["pass"], name


def test_criterion_05_convergence_to_the_model(tmp_path):
    with criterion(5, 900):
        code, blob = _run_cli_to_file(tmp_path, "converge.csv", "converge", "--jmin", "1", "--jmax", "6", "--nmax", "4")
        assert code == 0
        header, *rows = blob.decode().splitlines()
        assert header == "j,agree_N,exact"
        assert [int(row.split(",")[0]) for row in rows] == list(range(1, 7))
        radii = [int(row.split(",")[1]) for row in rows]
        assert radii == sorted(radii), radii  # the hard requirement
        assert radii[-1] >= 2, radii


def test_criterion_06_growth_tables():
    with criterion(6, 900):
        # independent enumerations first, then the BFS they vouch for
        brute_tree = oracles.brute_gamma_tree(oracles.OMEGA_012, 2, 10)
        brute_lamp = oracles.brute_gamma_lamp(3)
        assert brute_tree == list(oracles.GAMMA_G012)
        assert brute_lamp[:3] == list(oracles.GAMMA_LAMP)

        tree = growth_sequence(grig_handle("(012)"), 6)
        lamp = growth_sequence(lamplighter_handle(2), 8)
        assert tree[:3] == brute_tree
        assert lamp[:4] == brute_lamp
        assert tree == sorted(tree) and lamp == sorted(lamp)
        free4, free2 = oracles.brute_free_counts(4, 6), oracles.brute_free_counts(2, 8)
        for n in range(2, 7):
            assert tree[n] < free4[n], n
        for n in range(2, 9):
            assert lamp[n] < free2[n], n


def test_criterion_07_torsion_ball():
    with criterion(7, 600):
        ball = build_ball(grig_handle("(012)"), 5)
        for w in ball.elements:
            order = order_of(gen_word_from_free(w), OM012, max_exp=5)
            assert order is not None, w
            assert order & (order - 1) == 0 and order <= 32, (w, order)


SEPARATE_PAIRS = [
    ("(012)", "(021)"),
    ("(012)", "(0)"),
    ("(021)", "(0)"),
    ("(012)", "(1)"),
    ("(012)", "(2)"),
]


def _model_handle_for(omega_text):
    om = parse_omega(omega_text)
    return ext_model_handle(om.first) if om.constant else None


def test_criterion_08_separating_words(tmp_path):
    with criterion(8, 600):
        for om1, om2 in SEPARATE_PAIRS:
            code, blob = _run_cli_to_file(
                tmp_path, f"sep-{om1}-{om2}.json", "separate",
                "--omega1", om1, "--omega2", om2, "--lmax", "16",
            )
            assert code == 0
            rep = json.loads(blob)
            four = rep["four_generator"]
            assert four is not None, (om1, om2)
            word = four["word"]
            # verify the separation through direct oracle evaluation,
            # independent of the key-guided search that found it
            verdicts = []
            for text in (om1, om2):
                om = parse_omega(text)
                if om.constant:
                    handle = ext_model_handle(om.first)
                    verdicts.append(
                        handle.trivial(word_from_str(word, ("a", "b", "c", "d")))
                    )
                else:
                    verdicts.append(is_trivial(word, om))
                    # second, fully external route: the recursive leaf oracle
                    assert verdicts[-1] == oracles.oracle_acts_trivially(
                        word, _oracle_omega(om), 12
                    )
            assert verdicts[0] != verdicts[1], (om1, om2, word)
            expected_label = rep["omega1"] if verdicts[0] else rep["omega2"]
            assert four["trivial_in"].count(expected_label) == 1


def test_criterion_09_minimality_grid():
    with criterion(9, 300):
        for n in (2, 3):
            for m in (1, 2, 3):
                rep = verify_minimality(n, m, 12)
                assert rep["verdict"] == "pass", (n, m)
        # the uncorrected sequences must fail the difference window for m >= 2
        for n in (2, 3):
            for m in (2, 3):
                rep = verify_minimality(n, m, 12, variant="original")
                assert rep["verdict"] == "fail", (n, m)
                clause = rep["difference_check"]["clause_i_m_absent"]
                assert not clause["pass"]
                hi, lo = clause["witness"]
                assert hi - lo == m
                if m == 2:
                    assert (hi, lo) == oracles.DIFFERENCE_WITNESS_ORIGINAL[2]


def _matrix_comparison_report(seed):
    spec = SSpec(2, "corrected")
    rng = Lcg(seed)
    rows = []
    for _ in range(1000):
        count = rng.randrange(13)
        syllables = tuple(
            (rng.randrange(9) - 4, 1) for _ in range(count)
        )
        reduced_empty = gp_reduce(syllables, 2, spec) == ()
        matrix_empty = oracles.racg_matrix_oracle(syllables, lambda u, v: ts_adjacent(u, v, spec), (-4, 4))
        rows.append(
            {"syllables": list(map(list, syllables)), "reduced": reduced_empty, "matrix": matrix_empty}
        )
    return rows


def test_criterion_10_graph_product_vs_reflections():
    with criterion(10, 120):
        rows = _matrix_comparison_report(DEFAULT_SEED)
        assert len(rows) == 1000
        for row in rows:
            assert row["reduced"] == row["matrix"], row
        assert any(row["reduced"] for row in rows)
        assert any(not row["reduced"] for row in rows)


def test_criterion_11_determinism(tmp_path):
    with criterion(11):
        cc_args = (
            "crosscheck", "--max-len", "14", "--samples", "1000",
            "--kmin", "8", "--kmax", "12", "--seed", str(DEFAULT_SEED),
        )
        _, cc1 = _run_cli_to_file(tmp_path, "cc1.json", *cc_args)
        _, cc2 = _run_cli_to_file(tmp_path, "cc2.json", *cc_args)
        assert cc1 == cc2

        sep_args = ("separate", "--omega1", "(012)", "--omega2", "(021)", "--lmax", "16")
        _, s1 = _run_cli_to_file(tmp_path, "s1.json", *sep_args, "--threads", "1")
        _, s2 = _run_cli_to_file(tmp_path, "s2.json", *sep_args, "--threads", "2")
        _, s3 = _run_cli_to_file(tmp_path, "s3.json", *sep_args, "--threads", "4")
        assert s1 == s2 == s3

        r1 = json.dumps(_matrix_comparison_report(DEFAULT_SEED), sort_keys=True)
        r2 = json.dumps(_matrix_comparison_report(DEFAULT_SEED), sort_keys=True)
        assert r1.encode() == r2.encode()

        # nor does --threads change minimality reports
        min_args = ("minimality", "--n", "2", "--m", "2", "--window", "12")
        _, m1 = _run_cli_to_file(tmp_path, "m1.json", *min_args, "--threads", "1")
        _, m4 = _run_cli_to_file(tmp_path, "m4.json", *min_args, "--threads", "4")
        assert m1 == m4
