#!/usr/bin/env python3
"""Agreement radii of the zero-prefix subgroup family against the wreath
model, at a deeper horizon than the quick CLI defaults. At nmax 8 the j = 0
column is the only one the horizon resolves exactly; everything past it
saturates, which is the convergence statement in table form."""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from markedgroups.handles import l_subgroup_handle, lamplighter_handle
from markedgroups.marked_space import convergence_table, write_convergence_csv


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--jmin", type=int, default=0)
    ap.add_argument("--jmax", type=int, default=6)
    ap.add_argument("--nmax", type=int, default=8)
    ap.add_argument("--out", default="results/convergence.csv")
    args = ap.parse_args()

    limit = lamplighter_handle(2)
    targets = [
        (j, l_subgroup_handle("0" * j + "(012)"))
        for j in range(args.jmin, args.jmax + 1)
    ]
    rows = convergence_table(targets, limit, args.nmax)

    path = pathlib.Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        write_convergence_csv(rows, fh)
    for row in rows:
        marker = "" if row["exact"] else " (horizon)"
        print(f"j={row['prefix_len']}: agree_N={row['agree_N']}{marker}")
    print(f"-> {path}")


if __name__ == "__main__":
    main()
