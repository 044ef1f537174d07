"""Byte-identical CLI outputs: the benchmark's fixed commands against their
recorded exit codes and stdout digests in perfbench/reference.json.

Runs every converge, ball and certify command in-process, and the crosscheck
command for seeds 0 and 1729 and for seed 5, the seed the benchmark runs at
(about a second each); the benchmark checks the crosscheck digests of the other
seeds on every pass.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from markedgroups import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())
COMMANDS = [argv for workload in ("converge", "ball", "certify") for argv in WORKLOADS.commands(workload, 0)]
COMMANDS += [argv for seed in (0, 1729, 5) for argv in WORKLOADS.commands("crosscheck", seed)]


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv) for argv in COMMANDS])
def test_command_matches_reference(argv):
    want = REFERENCE[" ".join(argv)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    assert code == want["exit"]
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == want["sha256"]
