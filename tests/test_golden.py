import dataclasses
import math

from symdet.golden import load_golden
from symdet.gram import symmetrization_determinant


def _flip_one_k(row):
    """The row with one C(N,k) dropped from a factor whose base is not a square."""
    i = next(i for i, (base, _) in enumerate(row.det_class) if math.isqrt(base) ** 2 != base)
    base, ks = row.det_class[i]
    det_class = row.det_class[:i] + ((base, ks[1:]),) + row.det_class[i + 1:]
    return dataclasses.replace(row, det_class=det_class)


def test_sym_row_keys_match_engine_and_detect_a_flipped_k():
    golden = load_golden()
    rows = golden.sym_rows + golden.stretch_rows
    for row in rows:
        engine = symmetrization_determinant(row.partition).c_formula.reduced_key()
        assert row.reduced_key() == engine, row.partition
        assert _flip_one_k(row).reduced_key() != engine, row.partition
