"""The experiment scripts run end to end on tiny arguments.

Each script is started in its own interpreter, as a user would run it, so an
API change that breaks one fails here.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# script -> (tiny arguments after the output location, files it must write)
CASES = {
    "growth_tables.py": (
        ["--tree-nmax", "2", "--model-nmax", "3"],
        ["growth_tree_(012).csv", "growth_subgroup_(012).csv", "growth_lamp.csv"],
    ),
    "convergence_experiment.py": (["--jmin", "0", "--jmax", "1", "--nmax", "2"], ["convergence.csv"]),
    "crossvalidation.py": (
        ["--samples", "20", "--max-len", "8", "--lmax", "8"],
        ["crosscheck.json", "separate_(012)_(021).json"],
    ),
    "minimality_report.py": (
        ["--nmax", "2", "--mmax", "1", "--window", "8"],
        ["minimality_corrected_n2_m1.json", "minimality_original_n2_m1.json"],
    ),
}


@pytest.mark.parametrize("script", sorted(CASES))
def test_script_runs(script, tmp_path):
    args, outputs = CASES[script]
    where = ["--out", str(tmp_path / "convergence.csv")] if script == "convergence_experiment.py" else ["--outdir", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *where, *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        assert (tmp_path / name).stat().st_size > 0, name
