#!/usr/bin/env python3
"""Stretch check: the two weight-9 rows with known determinant classes.
Takes under a second on a 2-vCPU host; exits nonzero on mismatch."""

import sys
import time

from symdet.golden import load_golden
from symdet.gram import determinant_classes


def main() -> int:
    golden = load_golden()
    ok = True
    for row in golden.stretch_rows:
        t0 = time.time()
        [result] = determinant_classes([row.partition])
        dim_ok = result.dimension == row.dimension
        cls_ok = result.c_reduced.reduced_key() == row.reduced_key()
        ok = ok and dim_ok and cls_ok
        print(
            f"{row.partition}: dimension {'ok' if dim_ok else 'MISMATCH'}, "
            f"class {'ok' if cls_ok else 'MISMATCH'} "
            f"({result.c_reduced.render_text()}) in {time.time() - t0:.1f}s"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
