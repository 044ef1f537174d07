#!/usr/bin/env python3
"""Run the presentation-minimality pipeline over a small (n, m) grid in both
sequence variants and summarize the verdicts. The original recurrence is
expected to fail its difference-window clause for every m >= 2 (and m = 1);
the corrected one should pass everywhere. Thin wrapper over
`markedgroups minimality`, so each JSON report is the one the command line
writes; exit 0 there means the verdict is pass."""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from markedgroups.cli import VARIANTS, main as cli_main


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nmax", type=int, default=3)
    ap.add_argument("--mmax", type=int, default=3)
    ap.add_argument("--window", type=int, default=12)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    failed_corrected = False
    for variant in VARIANTS:
        for n in range(2, args.nmax + 1):
            for m in range(1, args.mmax + 1):
                path = outdir / f"minimality_{variant}_n{n}_m{m}.json"
                code = cli_main([
                    "minimality", "--n", str(n), "--m", str(m), "--window", str(args.window),
                    "--variant", variant, "--out", str(path),
                ])
                print(f"{variant} n={n} m={m}: exit {code} -> {path}")
                failed_corrected |= variant == "corrected" and code != 0

    sys.exit(1 if failed_corrected else 0)


if __name__ == "__main__":
    main()
