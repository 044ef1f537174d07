#!/usr/bin/env python3
"""Agreement radii of the zero-prefix subgroup family against the wreath
model, at a deeper horizon than the quick CLI defaults. At nmax 8 the j = 0
column is the only one the horizon resolves exactly; everything past it
saturates, which is the convergence statement in table form. Thin wrapper
over `markedgroups converge`, so the CSV (`j,agree_N,exact`) is the one the
command line writes."""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from markedgroups.cli import main as cli_main


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--jmin", type=int, default=0)
    ap.add_argument("--jmax", type=int, default=6)
    ap.add_argument("--nmax", type=int, default=8)
    ap.add_argument("--out", default="results/convergence.csv")
    args = ap.parse_args()

    path = pathlib.Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    code = cli_main([
        "converge", "--jmin", str(args.jmin), "--jmax", str(args.jmax),
        "--nmax", str(args.nmax), "--out", str(path),
    ])
    if code == 0:
        print(path.read_text(), end="")
    print(f"converge: exit {code} -> {path}")
    sys.exit(code)


if __name__ == "__main__":
    main()
