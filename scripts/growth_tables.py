#!/usr/bin/env python3
"""Write ball-growth CSV tables for the tree group, its index-2 subgroup,
and the wreath model. Defaults match the depths used in the test suite."""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from markedgroups.handles import grig_handle, l_subgroup_handle, lamplighter_handle
from markedgroups.marked_space import growth_sequence, write_growth_csv


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
        (f"growth_tree_{args.omega}.csv", grig_handle(args.omega), args.tree_nmax),
        (f"growth_subgroup_{args.omega}.csv", l_subgroup_handle(args.omega), args.tree_nmax),
        ("growth_lamp.csv", lamplighter_handle(2), args.model_nmax),
    ]
    for name, handle, nmax in jobs:
        gamma = growth_sequence(handle, nmax)
        path = outdir / name
        with open(path, "w", newline="") as fh:
            write_growth_csv(gamma, fh)
        print(f"{handle.label}: gamma = {gamma} -> {path}")


if __name__ == "__main__":
    main()
