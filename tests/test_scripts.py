"""`scripts/experiments.py` reproduces what the docs claim of its files.

The script is started in its own interpreter, as a user would run it, and
its files are read back: the convergence table, the lamplighter growth
against the closed form, the minimality verdicts of both variants, and the
crosscheck verdict.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import lamp_gamma_closed_form

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "experiments.py"

PAIRS = ["(012)_(021)", "(012)_(0)", "(021)_(0)", "(012)_(1)", "(012)_(2)"]
MINIMALITY = [
    f"minimality_{variant}_n{n}_m{m}.json"
    for variant in ("corrected", "original")
    for n in (2, 3)
    for m in (1, 2, 3)
]
FILES = {
    "growth_tree_(012).csv",
    "growth_subgroup_(012).csv",
    "growth_lamp.csv",
    "convergence.csv",
    "crosscheck.json",
    *(f"separate_{pair}.json" for pair in PAIRS),
    *MINIMALITY,
}


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    # one run of the whole table, shared by the checks below
    out = tmp_path_factory.mktemp("experiments")
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--outdir", str(out)],
        cwd=out,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return out


def test_experiments_reproduce_the_documented_results(outdir):
    assert len(FILES) == 22
    assert {p.name for p in outdir.iterdir()} == FILES


def test_convergence_table(outdir):
    # j = 0 is resolved at radius 5; every longer zero prefix agrees with
    # the model up to the horizon
    rows = (outdir / "convergence.csv").read_text().splitlines()
    assert rows == ["j,agree_N,exact", "0,5,true", *(f"{j},8,false" for j in range(1, 7))]


def test_lamplighter_growth_matches_closed_form(outdir):
    growth = (outdir / "growth_lamp.csv").read_text().splitlines()
    assert growth[0] == "n,gamma"
    assert [int(row.split(",")[1]) for row in growth[1:]] == lamp_gamma_closed_form(8)


def test_minimality_verdicts(outdir):
    for name in MINIMALITY:
        report = json.loads((outdir / name).read_text())
        assert report["verdict"] == ("pass" if "corrected" in name else "fail"), name


def test_crosscheck_verdict(outdir):
    crosscheck = json.loads((outdir / "crosscheck.json").read_text())
    assert crosscheck["verdict"] == "pass"
    assert crosscheck["disagreements"] == 0
