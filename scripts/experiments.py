#!/usr/bin/env python3
"""Run the experiments behind the numbers quoted in the docs, and write
their files under --outdir (default results/).

EXPERIMENTS is the whole set: one `markedgroups` command per row, with the
file it writes and the exit code it must return. The growth tables of
G_(012), L_(012) and the lamplighter; the agreement radii of G_{0^j (012)}
with the model (the convergence to Z_2 wr Z); the crosscheck; the separator
sweep; and the minimality grid, whose `original` rows must fail. Each file
is byte for byte the one the subcommand writes with --out; to vary a
parameter, run the subcommand itself. Exits 0 iff every command exits as
its row expects."""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from markedgroups.circle_product import VARIANTS
from markedgroups.cli import main as cli_main

SEPARATE_PAIRS = [("(012)", "(021)"), ("(012)", "(0)"), ("(021)", "(0)"), ("(012)", "(1)"), ("(012)", "(2)")]

# (file under --outdir, command without --out, expected exit code)
EXPERIMENTS = [
    ("growth_tree_(012).csv", ["growth", "--family", "grig", "--omega", "(012)", "--nmax", "6"], 0),
    ("growth_subgroup_(012).csv", ["growth", "--family", "l", "--omega", "(012)", "--nmax", "6"], 0),
    ("growth_lamp.csv", ["growth", "--family", "lamp", "--nmax", "8"], 0),
    # the horizon resolves j = 0 alone (radius 5); every later j saturates at 8
    ("convergence.csv", ["converge", "--jmin", "0", "--jmax", "6", "--nmax", "8"], 0),
    ("crosscheck.json", ["crosscheck", "--samples", "1000", "--max-len", "14", "--seed", "1729"], 0),
    *(
        (f"separate_{om1}_{om2}.json", ["separate", "--omega1", om1, "--omega2", om2, "--lmax", "16"], 0)
        for om1, om2 in SEPARATE_PAIRS
    ),
    # the original sequence realizes a forbidden gap, so its verdict is fail (exit 1)
    *(
        (
            f"minimality_{variant}_n{n}_m{m}.json",
            ["minimality", "--n", str(n), "--m", str(m), "--window", "12", "--variant", variant],
            0 if variant == "corrected" else 1,
        )
        for variant in VARIANTS
        for n in (2, 3)
        for m in (1, 2, 3)
    ),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--outdir", default="results")
    outdir = pathlib.Path(ap.parse_args().outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    unexpected = 0
    for name, argv, expected in EXPERIMENTS:
        path = outdir / name
        code = cli_main([*argv, "--out", str(path)])
        note = "" if code == expected else f" (expected {expected})"
        print(f"{' '.join(argv)}: exit {code}{note} -> {path}")
        unexpected += code != expected
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
