"""One pass of a workload in a fresh interpreter; prints one JSON line.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``. The
package keeps process-global memo tables, and a CLI user pays for them cold
on every run, so every pass gets its own interpreter.

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process (CLOCK_MONOTONIC is system-wide on Linux), so ``setup_s``
covers interpreter start-up plus the import of ``markedgroups.cli``.
"""

import sys
import time

import markedgroups.cli as cli

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import calibrate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# interpreter kernel calls timed after the import, to scale setup_s
PROBE_KERNELS = 4


def run_command(argv: list[str]) -> dict:
    """Run one CLI call with stdout captured; never raises."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # counted as a failed operation by the parent
        code = None
        error = traceback.format_exc(limit=5)
    payload = out.getvalue()
    verdict = None
    if payload.startswith("{"):
        try:
            verdict = json.loads(payload).get("verdict")
        except ValueError:
            pass
    return {
        "exit": code,
        "sha256": hashlib.sha256(payload.encode()).hexdigest(),
        "verdict": verdict,
        "error": error,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--src", required=True, help="the src directory the package must come from")
    ap.add_argument("--probe", action="store_true", help="report set-up time only")
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--calibrate", choices=calibrate.KERNELS, help="time this calibration kernel during the pass")
    args = ap.parse_args()

    src = os.path.realpath(args.src)
    origin = os.path.realpath(cli.__file__)
    if os.path.commonpath([src, origin]) != src:
        print(f"markedgroups was imported from {origin}, not from {src}", file=sys.stderr)
        return 2
    result = {"setup_s": IMPORTED_AT - args.spawned_at}
    if args.probe:
        result["ticks_s"] = calibrate.timed("interpreter", PROBE_KERNELS)
        print(json.dumps(result))
        return 0

    argvs = workloads.commands(args.workload, args.seed)
    trace = tracer.Tracer() if args.trace else None
    if trace is not None:
        trace.install()
    ticker = calibrate.Ticker(args.calibrate) if args.calibrate else None
    if ticker is not None:
        ticker.start()
    t0 = time.perf_counter()
    results = [run_command(argv) for argv in argvs]
    if ticker is not None:
        ticker.stop()
    result["wall_s"] = time.perf_counter() - t0
    if ticker is not None:
        # the pass's own time: the kernel calls inside it are taken out
        result["wall_s"] -= sum(ticker.times)
        result["ticks_s"] = ticker.times
    if trace is not None:
        result["unrestored"] = trace.uninstall()
        counters, absent = tracer.cache_counters()
        result.update(
            calls=dict(trace.calls),
            self_s=dict(trace.self_s),
            absent=trace.absent + absent,
            counters=counters,
            spans=trace.spans,
        )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["commands"] = results
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
