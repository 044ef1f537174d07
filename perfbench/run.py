#!/usr/bin/env python3
"""End-to-end benchmark of the markedgroups CLI.

    python3 perfbench/run.py --workload converge --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and uses the package in ``src/``
as it is; nothing is installed. Each pass runs the workload's fixed list of
``markedgroups.cli.main`` calls (see workloads.py) in a fresh interpreter,
one pass at a time, because the package keeps process-global memo tables
that a CLI user pays for cold on every run. A run starts another pass
only while the median pass so far still fits in ``--seconds``, and makes
at least two (traced: one untraced and one traced).

Every command's exit code and payload sha256 are checked against
reference.json, recorded at the commit that introduced the benchmark. A
crosscheck seed without a stored reference must exit 0 with verdict
"pass". In every workload each command's payload must be identical across
all passes of the run, traced or not.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (fresh
interpreter until ``markedgroups.cli`` is imported), ``wall_s`` (one pass
over the command list) and ``peak_rss_mb`` (max RSS of the pass's
interpreter), each the median over the run. ``wall_s`` is given in seconds
of a reference host: the speed a shared host gives a process changes by a
third within seconds, so each pass times a small fixed kernel every 0.25 s
(calibrate.py) and its time is scaled by the host's mean speed during it.
``setup_s`` is scaled by the kernel timed right after the import. The
unscaled times are printed as ``wall_s raw`` and ``setup_s raw``. ``--trace 1`` alternates
untraced and traced passes and reports per-layer call counts, self times
and memo counters (see tracer.py), plus ``trace.overhead_s``. Spans of the
traced passes are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, median_low

import calibrate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# fresh interpreters that only import the package and time the interpreter
# kernel, run before each pass so that setup_s samples are spread over the run
PROBES_PER_PASS = 3
END_TO_END = ("wall_s", "peak_rss_mb", "setup_s")
PASS_TIMEOUT_S = 150

LAYER_FUNCTIONS = (
    "grigorchuk.level_permutation",
    "grigorchuk.is_trivial",
    "grigorchuk.limit_trivial",
    "grigorchuk.translate_L_word",
    "words.klein_reduce",
    "lamplighter.lamp_multiply",
    "lamplighter.eval_st_word",
    "lamplighter.ext_multiply",
    "lamplighter.eval_abcd_word",
    "sampling.sample_alternating_word",
    "marked_space.build_ball",
    "marked_space.agree_radius",
    "marked_space.find_separating_word",
    "words.gen_word_from_free",
    "circle_product.verify_minimality",
    "circle_product.gp_reduce",
    "circle_product.in_difference_set",
    "lamplighter.structure_report",
    "cli.main",
)
LAYER_COUNTERS = (
    "grigorchuk.letter_perm_cache.entries",
    "grigorchuk.memo.hits",
    "grigorchuk.memo.misses",
    "grigorchuk.memo.size",
    "circle_product.diffset_memo.hits",
    "circle_product.diffset_memo.misses",
)


def zero_call_violations(workload: str, calls: dict[str, int]) -> list[str]:
    """Layers a workload is predicted never to reach, that it did reach.

    ball and crosscheck never build a tree fingerprint; crosscheck does no
    marked-space work. make_handle only assembles a handle record, which
    crosscheck's extension-model oracle needs, so it is not counted.
    """
    banned = []
    if workload in ("ball", "crosscheck"):
        banned.append("grigorchuk.level_permutation")
    if workload == "crosscheck":
        banned += [n for n in calls if n.startswith("marked_space.") and n != "marked_space.make_handle"]
    return [f"{name} called {calls[name]} times" for name in banned if calls.get(name, 0)]


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def spawn(args: list[str]) -> dict:
    """Run one_pass.py in a fresh interpreter and return its JSON report."""
    # a fixed hash seed keeps set and dict layouts, and so timings, the same
    # from pass to pass; payloads do not depend on it
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--src", str(SRC), *args, "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {args} exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass {args} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_outputs(argvs: list[list[str]], passes: list[dict], reference: dict) -> tuple[int, int, list[str]]:
    """Count attempted and failed commands over all passes of a run."""
    attempted = failed = 0
    problems: list[str] = []
    first = passes[0]["commands"]
    for p in passes:
        for argv, got, anchor in zip(argvs, p["commands"], first):
            attempted += 1
            key = " ".join(argv)
            want = reference.get(key)
            if got["error"] is not None:
                problem = f"raised:\n{got['error']}"
            elif want is not None and (got["exit"], got["sha256"]) != (want["exit"], want["sha256"]):
                problem = f"exit {got['exit']} sha256 {got['sha256']}, expected exit {want['exit']} sha256 {want['sha256']}"
            elif want is None and argv[0] != "crosscheck":
                problem = "no reference recorded"
            elif want is None and (got["exit"], got["verdict"]) != (0, "pass"):
                problem = f"exit {got['exit']} verdict {got['verdict']}, expected exit 0 verdict pass"
            elif got["sha256"] != anchor["sha256"]:
                problem = "payload differs from the run's first pass"
            else:
                continue
            failed += 1
            problems.append(f"{key}: {problem}")
    return attempted, failed, problems


def another_pass(start: float, seconds: float, pass_times: list[float], minimum: int) -> bool:
    if len(pass_times) < minimum:
        return True
    return time.monotonic() - start + median(pass_times) <= seconds


def describe(name: str, values: list[float], unit: str) -> str:
    return f"{name:<40} {median(values):>12.6g} {unit:<5} median of {len(values)} (min {min(values):.6g}, max {max(values):.6g})"


def run_plain(workload: str, seed: int, seconds: float) -> tuple[list[dict], dict]:
    kind = workloads.CALIBRATION[workload]
    start = time.monotonic()
    spawn(["--probe"])  # compiles the bytecode cache; not measured
    probes: list[dict] = []
    passes: list[dict] = []
    round_times: list[float] = []
    while another_pass(start, seconds, round_times, 2):
        t0 = time.monotonic()
        probes += [spawn(["--probe"]) for _ in range(PROBES_PER_PASS)]
        passes.append(spawn(["--workload", workload, "--seed", str(seed), "--calibrate", kind]))
        round_times.append(time.monotonic() - t0)
    if not all(p["ticks_s"] for p in passes):
        raise BenchError(f"a pass ended before the first calibration tick at {calibrate.INTERVAL_S} s")
    walls = [p["wall_s"] for p in passes]
    scales = [calibrate.scale(kind, p["ticks_s"]) for p in passes]
    setups = [p["setup_s"] for p in probes]
    setup_scales = [calibrate.scale("interpreter", p["ticks_s"]) for p in probes]
    samples = {
        f"calibration kernel ({kind})": ([t for p in passes for t in p["ticks_s"]], "s"),
        "host speed scale": (scales, "x"),
        "wall_s raw": (walls, "s"),
        "wall_s": ([wall * scale for wall, scale in zip(walls, scales)], "s"),
        "peak_rss_mb": ([p["peak_rss_mb"] for p in passes], "MB"),
        "setup_s raw": (setups, "s"),
        "setup_s": ([setup * scale for setup, scale in zip(setups, setup_scales)], "s"),
    }
    for name, (values, unit) in samples.items():
        print(describe(name, values, unit))
    metrics = {name: {"value": median(samples[name][0]), "unit": samples[name][1]} for name in END_TO_END}
    return passes, metrics


def run_traced(workload: str, seed: int, seconds: float) -> tuple[list[dict], dict, list[str]]:
    start = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    pair_times: list[float] = []
    while another_pass(start, seconds, pair_times, 1):
        t0 = time.monotonic()
        plain.append(spawn(["--workload", workload, "--seed", str(seed)]))
        traced.append(spawn(["--workload", workload, "--seed", str(seed), "--trace"]))
        pair_times.append(time.monotonic() - t0)

    problems: list[str] = []
    absent = sorted({name for p in traced for name in p["absent"]})
    for p in traced:
        problems += [f"{name} still wrapped after the traced pass" for name in p["unrestored"]]
        problems += zero_call_violations(workload, p["calls"])

    samples: dict[str, tuple[list[float], str]] = {}
    for name in LAYER_FUNCTIONS:
        samples[f"{name}.calls"] = ([p["calls"].get(name, 0) for p in traced], "count")
        samples[f"{name}.self_s"] = ([p["self_s"].get(name, 0.0) for p in traced], "s")
    for name in LAYER_COUNTERS:
        samples[name] = ([p["counters"].get(name, 0) for p in traced], "count")
    overhead = median([p["wall_s"] for p in traced]) - median([p["wall_s"] for p in plain])
    samples["trace.overhead_s"] = ([overhead], "s")
    for name, (values, unit) in samples.items():
        print(describe(name, values, unit))
    if absent:
        print("absent (reported as 0): " + ", ".join(absent))

    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"{workload}-seed{seed}-spans.json"
    with open(spans_file, "w") as fh:
        json.dump([{"pass": i, "spans": p["spans"]} for i, p in enumerate(traced)], fh)
    print(f"spans written to {spans_file.relative_to(ROOT)}")

    # counts repeat exactly across passes; median_low keeps them whole numbers
    metrics = {
        name: {"value": median_low(values) if unit == "count" else median(values), "unit": unit}
        for name, (values, unit) in samples.items()
    }
    return plain + traced, metrics, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 <= args.seed < 2**64:
        print("error: --seed must fit in 64 bits", file=sys.stderr)
        return 2
    if not (SRC / "markedgroups" / "cli.py").is_file():
        print(f"error: no markedgroups package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)

    try:
        if args.trace:
            passes, metrics, problems = run_traced(args.workload, args.seed, args.seconds)
        else:
            passes, metrics = run_plain(args.workload, args.seed, args.seconds)
            problems = []
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    argvs = workloads.commands(args.workload, args.seed)
    attempted, failed, failures = check_outputs(argvs, passes, reference)
    print(f"{'failed_ops':<40} {failed:>12} of ops {attempted} ({len(passes)} passes of {len(argvs)} commands)")
    for line in failures + problems:
        print(f"FAILED {line}", file=sys.stderr)
    result = {"correct": not failures and not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
