#!/usr/bin/env python3
"""Recompute the refined constituent table for n <= 6, print it, and
diff it against the embedded reference data.  Exits nonzero on mismatch."""

import sys
import time

from symdet.combinat import partitions_of
from symdet.golden import load_golden, verify_refined
from symdet.refined import refined_decomposition


def main() -> int:
    t0 = time.time()
    for n in range(2, 7):
        for shape in partitions_of(n):
            result = refined_decomposition(shape)
            cons = ", ".join(
                f"{c.gamma}: m={c.multiplicity} c={c.c_reduced.render_text()}"
                for c in result.constituents
            )
            print(f"{str(shape):14s} [{cons}]")
    report = verify_refined(load_golden())
    for m in report.mismatches:
        print("MISMATCH:", m)
    print(f"{report.checked} checks, {len(report.mismatches)} mismatches "
          f"in {time.time() - t0:.1f}s")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
