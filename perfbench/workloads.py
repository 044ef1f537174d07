"""The benchmark's workloads: fixed lists of ``markedgroups.cli.main`` argv.

Every command that accepts ``--threads`` gets ``--threads 1``: passes run
serially in one interpreter, and the tracer keeps a single call stack.
Only ``crosscheck`` takes its input from the benchmark seed; the other
workloads are fixed experiments, so every seed runs the same commands.
"""

from __future__ import annotations

# the omega pairs of scripts/crossvalidation.py
SEPARATE_PAIRS = (
    ("(012)", "(021)"),
    ("(012)", "(0)"),
    ("(021)", "(0)"),
    ("(012)", "(1)"),
    ("(012)", "(2)"),
)

WORKLOADS = ("converge", "ball", "crosscheck", "certify")

# the calibration kernel (calibrate.py) whose work is like the workload's:
# about 85% of converge is level_permutation on large int32 arrays, the
# others spend their time in the interpreter
CALIBRATION = {"converge": "gather", "ball": "interpreter", "crosscheck": "interpreter", "certify": "interpreter"}


def commands(workload: str, seed: int) -> list[list[str]]:
    """The argv list one pass of ``workload`` runs, in order."""
    if workload == "converge":
        return [["converge", "--jmin", "1", "--jmax", "8", "--nmax", "8", "--threads", "1"]]
    if workload == "ball":
        return [
            ["growth", "--family", "lamp", "--nmax", "12", "--threads", "1"],
            ["growth", "--family", "lamp", "--modulus", "3", "--nmax", "10", "--threads", "1"],
        ]
    if workload == "crosscheck":
        return [["crosscheck", "--max-len", "24", "--samples", "20000", "--seed", str(seed)]]
    if workload == "certify":
        cmds = [
            ["separate", "--omega1", om1, "--omega2", om2, "--lmax", "16", "--threads", "1"]
            for om1, om2 in SEPARATE_PAIRS
        ]
        cmds += [
            ["minimality", "--n", str(n), "--m", str(m), "--window", "64", "--variant", variant, "--threads", "1"]
            for variant in ("original", "corrected")
            for n in (2, 3)
            for m in range(1, 9)
        ]
        cmds += [
            ["structure", "--window", "64"],
            ["structure", "--window", "64", "--negative-control"],
        ]
        return cmds
    raise ValueError(f"unknown workload {workload!r}")
