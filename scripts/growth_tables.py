#!/usr/bin/env python3
"""Write ball-growth CSV tables for the tree group, its index-2 subgroup,
and the wreath model. Defaults match the depths used in the test suite.
Thin wrapper over `markedgroups growth`, so each CSV is the one the command
line writes."""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from markedgroups.cli import main as cli_main


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--omega", default="(012)")
    ap.add_argument("--tree-nmax", type=int, default=6)
    ap.add_argument("--model-nmax", type=int, default=8)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    jobs = [
        (f"growth_tree_{args.omega}.csv", ["--family", "grig", "--omega", args.omega], args.tree_nmax),
        (f"growth_subgroup_{args.omega}.csv", ["--family", "l", "--omega", args.omega], args.tree_nmax),
        ("growth_lamp.csv", ["--family", "lamp"], args.model_nmax),
    ]
    worst = 0
    for name, family, nmax in jobs:
        path = outdir / name
        code = cli_main(["growth", *family, "--nmax", str(nmax), "--out", str(path)])
        print(f"growth {' '.join(family)}: exit {code} -> {path}")
        worst = max(worst, code)
    sys.exit(worst)


if __name__ == "__main__":
    main()
