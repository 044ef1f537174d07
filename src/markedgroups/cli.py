"""Batch command line for the word-problem and marked-space experiments.

Exit codes: 0 success, 1 a verified property failed, 2 usage/parse/cap
error, 3 unsupported input domain (eventually constant but non-constant
sequences have no faithful handle here). An internal consistency check that
fails (an ``AssertionError`` inside the package) also exits 1, with
"error: internal check failed: ..." on stderr instead of a traceback. Results go to --out or stdout;
notices and errors go to stderr. Identical configurations produce
byte-identical outputs regardless of --threads.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable

from .circle_product import VARIANTS, verify_minimality
from .grigorchuk import EventuallyConstantError, OmegaWord, limit_trivial, parse_omega
from .handles import (
    ext_model_handle,
    grig_handle,
    l_subgroup_handle,
    lamplighter_handle,
)
from .lamplighter import EXT_STATE_IDENTITY, eval_abcd_state, structure_report
from .marked_space import (
    MarkedGroupHandle,
    SeparatorReport,
    agree_radius,
    find_separating_word,
    growth_sequence,
)
from .sampling import DEFAULT_SEED, Lcg, sample_alternating_word
from .words import gen_word_from_free, is_square, word_from_str, word_to_str

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

# Safety caps: each bound keeps the worst case at desk scale (minutes, not
# memory exhaustion). Requests beyond a cap exit 2 before any work starts.
CAP_TREE_RADIUS = 16
CAP_MODEL_RADIUS = 12
CAP_SEPARATOR_LEN = 16
CAP_SAMPLES = 20000
CAP_WORD_LEN = 24
CAP_PREFIX = 8
CAP_WINDOW = 64
CAP_THREADS = 16

SCHEMA = 1


def _check_caps(bounds: dict[str, tuple[int, int]], threads: int = 1, seed: int = DEFAULT_SEED) -> None:
    """Reject a run before any work starts when a bound is negative or past
    its safety cap, or the thread count or seed is out of range."""
    for name, (value, cap) in bounds.items():
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
        if value > cap:
            raise ValueError(f"{name}={value} exceeds the safety cap {cap}")
    if not 1 <= threads <= CAP_THREADS:
        raise ValueError(f"threads={threads} is outside 1..{CAP_THREADS} (the safety cap is {CAP_THREADS})")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _emit_csv(header: str, rows: Iterable[Iterable[object]], out: str | None) -> None:
    lines = [header, *(",".join(map(str, row)) for row in rows)]
    _emit("\n".join(lines) + "\n", out)


def _emit_json(obj: dict, out: str | None) -> None:
    _emit(json.dumps({"schema": SCHEMA, **obj}, sort_keys=True, indent=2) + "\n", out)


def _notice(msg: str) -> None:
    print(msg, file=sys.stderr)


def _tree_handle(omega: OmegaWord, generators: int) -> MarkedGroupHandle:
    """Faithful handle for the sequence, routing constants to the models.

    Any other eventually constant sequence has no faithful handle: the tree
    handles raise EventuallyConstantError for it (exit 3). The two-generator
    handle of every constant is still lamp2, which is <d, ab> only for symbol
    0, because ``perfbench/reference.json`` pins the ``separate`` payloads of
    (012)/(1) and (012)/(2) that a ``subgroup_handle`` over the model would
    change.
    """
    if omega.constant:
        symbol = omega.first
        _notice(f"omega {omega} is constant: using the wreath-product model")
        return ext_model_handle(symbol) if generators == 4 else lamplighter_handle(2)
    return grig_handle(omega) if generators == 4 else l_subgroup_handle(omega)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_wp(args: argparse.Namespace) -> int:
    word_len = sum(1 for ch in args.word if not ch.isspace())
    _check_caps({"word_len": (word_len, CAP_WORD_LEN)})
    if args.family == "grig":
        if args.omega is None:
            raise ValueError("--omega is required for the grig family")
        omega = parse_omega(args.omega)
        handle = _tree_handle(omega, 4)
        w = word_from_str(args.word, ("a", "b", "c", "d"))
        verdict = "trivial" if handle.trivial(w) else "nontrivial"
    elif args.family == "lamp":
        handle = lamplighter_handle(args.modulus)
        w = word_from_str(args.word, ("s", "t"))
        verdict = "trivial" if handle.trivial(w) else "nontrivial"
    else:  # limit
        result = limit_trivial(gen_word_from_free(word_from_str(args.word, ("a", "b", "c", "d"))))
        verdict = "unstable" if result is None else ("trivial" if result else "nontrivial")
    _emit(verdict + "\n", args.out)
    return EXIT_OK


def cmd_growth(args: argparse.Namespace) -> int:
    cap = CAP_TREE_RADIUS if args.family == "grig" else CAP_MODEL_RADIUS
    _check_caps({"n_max": (args.n_max, cap)}, threads=args.threads)
    if args.family == "lamp":
        handle = lamplighter_handle(args.modulus)
    else:
        if args.omega is None:
            raise ValueError("--omega is required for tree families")
        handle = _tree_handle(parse_omega(args.omega), 4 if args.family == "grig" else 2)
    _emit_csv("n,gamma", enumerate(growth_sequence(handle, args.n_max)), args.out)
    return EXIT_OK


def cmd_converge(args: argparse.Namespace) -> int:
    _check_caps(
        {"j_min": (args.j_min, CAP_PREFIX), "j_max": (args.j_max, CAP_PREFIX), "n_max": (args.n_max, CAP_MODEL_RADIUS)},
        threads=args.threads,
    )
    if args.j_min > args.j_max:
        raise ValueError("--jmin must not exceed --jmax")
    target = lamplighter_handle(2)
    rows = []
    for j in range(args.j_min, args.j_max + 1):
        r = agree_radius(l_subgroup_handle("0" * j + "(012)"), target, args.n_max)
        rows.append((j, r.n, str(r.exact).lower()))
    _emit_csv("j,agree_N,exact", rows, args.out)
    return EXIT_OK


def _separator_json(report: SeparatorReport, names: tuple[str, ...]) -> dict | None:
    if report.word is None:
        return None
    return {
        "word": word_to_str(report.word, names),
        "length": len(report.word),
        "square": is_square(report.word),
        "trivial_in": report.trivial_in,
    }


def cmd_separate(args: argparse.Namespace) -> int:
    _check_caps({"l_max": (args.l_max, CAP_SEPARATOR_LEN)}, threads=args.threads)
    om1, om2 = parse_omega(args.omega1), parse_omega(args.omega2)
    four = find_separating_word(_tree_handle(om1, 4), _tree_handle(om2, 4), args.l_max)
    two = find_separating_word(_tree_handle(om1, 2), _tree_handle(om2, 2), args.l_max)
    _emit_json(
        {
            "omega1": str(om1),
            "omega2": str(om2),
            "l_max": args.l_max,
            "four_generator": _separator_json(four, ("a", "b", "c", "d")),
            "two_generator": _separator_json(two, ("x", "y")),
        },
        args.out,
    )
    return EXIT_OK


def cmd_crosscheck(args: argparse.Namespace) -> int:
    _check_caps(
        {
            "max_len": (args.max_len, CAP_WORD_LEN),
            "samples": (args.samples, CAP_SAMPLES),
            "k_min": (args.k_min, CAP_WINDOW),
            "k_max": (args.k_max, CAP_WINDOW),
        },
        seed=args.seed,
    )
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    if args.k_max - args.k_min < 2:
        raise ValueError("k window needs at least 3 values")
    window = range(args.k_min, args.k_max + 1)
    wider = range(args.k_max + 2, args.k_max + 10)

    def model_verdict(word: str) -> bool:
        # the constant-0 extension model, folded over the a..d string itself
        return eval_abcd_state(word) == EXT_STATE_IDENTITY

    rng = Lcg(args.seed)
    agreements = 0
    unstable = 0
    resolved_consistent = 0
    unresolved: list[str] = []
    disagreements: list[str] = []
    for _ in range(args.samples):
        word = sample_alternating_word(rng, args.max_len)
        mv = model_verdict(word)
        lv = limit_trivial(word, window)
        if lv is None:
            unstable += 1
            rv = limit_trivial(word, wider)
            if rv is None:
                unresolved.append(word)
            elif rv == mv:
                resolved_consistent += 1
            else:
                disagreements.append(word)
        elif lv == mv:
            agreements += 1
        else:
            disagreements.append(word)

    probes = []
    for word in ("bcd", "d"):
        probes.append(
            {
                "word": word,
                "model_trivial": model_verdict(word),
                "limit_trivial": limit_trivial(word, window),
            }
        )
    probes_ok = all(p["model_trivial"] == p["limit_trivial"] for p in probes)

    verdict = "pass" if not disagreements and not unresolved and probes_ok else "fail"
    _emit_json(
        {
            "max_len": args.max_len,
            "samples": args.samples,
            "seed": args.seed,
            "k_window": [args.k_min, args.k_max],
            "agreements": agreements,
            "disagreements": len(disagreements),
            "disagreement_words": disagreements,
            "unstable": unstable,
            "unstable_resolved_consistent": resolved_consistent,
            "unstable_unresolved": unresolved,
            "probes": probes,
            "verdict": verdict,
        },
        args.out,
    )
    return EXIT_OK if verdict == "pass" else EXIT_VIOLATION


def cmd_minimality(args: argparse.Namespace) -> int:
    _check_caps(
        {"window": (args.window, CAP_WINDOW), "m": (args.m, CAP_WINDOW), "n": (args.n, CAP_WINDOW)},
        threads=args.threads,
    )
    report = verify_minimality(args.n, args.m, args.window, variant=args.variant)
    _emit_json(report, args.out)
    return EXIT_OK if report["verdict"] == "pass" else EXIT_VIOLATION


def cmd_structure(args: argparse.Namespace) -> int:
    _check_caps({"window": (args.window, CAP_WINDOW), "samples": (args.samples, CAP_SAMPLES)}, seed=args.seed)
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    report = structure_report(args.window, corrupt_alpha=args.negative_control, sample_count=args.samples, seed=args.seed)
    _emit_json(report, args.out)
    if args.negative_control:
        # the corrupted model must be caught, otherwise the harness is blind
        return EXIT_OK if report["verdict"] == "fail" else EXIT_VIOLATION
    return EXIT_OK if report["verdict"] == "pass" else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markedgroups",
        description="Word problems, Cayley balls and convergence experiments for a family of tree groups and their wreath-product models.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("wp", help="decide one word")
    p.add_argument("--family", choices=("grig", "lamp", "limit"), required=True)
    p.add_argument("--omega", help='sequence as "pre(period)" over 0,1,2')
    p.add_argument("--word", required=True)
    p.add_argument("--modulus", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_wp)

    p = sub.add_parser("growth", help="ball growth sequence as CSV")
    p.add_argument("--family", choices=("grig", "l", "lamp"), required=True)
    p.add_argument("--omega")
    p.add_argument("--modulus", type=int, default=2)
    p.add_argument("--nmax", dest="n_max", type=int, required=True)
    p.add_argument("--threads", type=int, default=1, help="validated but unused: the search is serial")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_growth)

    p = sub.add_parser("converge", help="agreement radii of the prefix subfamily against the model")
    p.add_argument("--jmin", dest="j_min", type=int, default=1)
    p.add_argument("--jmax", dest="j_max", type=int, default=6)
    p.add_argument("--nmax", dest="n_max", type=int, default=4)
    p.add_argument("--threads", type=int, default=1, help="validated but unused: the search is serial")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_converge)

    p = sub.add_parser("separate", help="shortest word with differing verdicts")
    p.add_argument("--omega1", required=True)
    p.add_argument("--omega2", required=True)
    p.add_argument("--lmax", dest="l_max", type=int, default=16)
    p.add_argument("--threads", type=int, default=1, help="validated but unused: the search is serial")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_separate)

    p = sub.add_parser("crosscheck", help="limit-group verdicts against the extension model")
    p.add_argument("--max-len", dest="max_len", type=int, default=14)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--kmin", dest="k_min", type=int, default=8)
    p.add_argument("--kmax", dest="k_max", type=int, default=12)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_crosscheck)

    p = sub.add_parser("minimality", help="presentation minimality pipeline")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--window", type=int, default=12)
    p.add_argument("--variant", choices=VARIANTS, default="corrected")
    p.add_argument("--threads", type=int, default=1, help="validated but unused: the pipeline is serial")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_minimality)

    p = sub.add_parser("structure", help="wreath-model structure report")
    p.add_argument("--window", type=int, default=20)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--negative-control", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_structure)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 2 for a rejected list, 0 after --help
        return exc.code
    try:
        return args.fn(args)
    except EventuallyConstantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
