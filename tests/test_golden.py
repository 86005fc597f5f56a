import json
import math
from importlib import resources

from symdet.combinat import Partition
from symdet.golden import _matrix_matches_up_to_order, load_golden
from symdet.gram import gram_block, symmetrization_determinant


def _drop_one_k(row):
    """Drop one C(N,k) from the first factor whose base is not a square."""
    factor = next(f for f in row["det_class"] if math.isqrt(f[0]) ** 2 != f[0])
    factor[1] = factor[1][1:]


def test_sym_row_classes_match_engine_and_detect_a_dropped_k(tmp_path):
    doc = json.loads(resources.files("symdet.data").joinpath("golden.json").read_text())
    golden = load_golden()
    for row in doc["symmetrizations"] + doc["symmetrizations_stretch"]:
        _drop_one_k(row)
    edited = tmp_path / "golden.json"
    edited.write_text(json.dumps(doc))
    dropped = load_golden(edited)
    rows = golden.sym_rows + golden.stretch_rows
    dropped_rows = dropped.sym_rows + dropped.stretch_rows
    assert len(dropped_rows) == len(rows) == 45
    for row, dropped_row in zip(rows, dropped_rows):
        engine = symmetrization_determinant(row.shape).c_formula.reduced()
        assert row.c_reduced == engine, row.shape
        assert dropped_row.shape == row.shape
        assert dropped_row.c_reduced != engine, row.shape


def test_basis_order_is_free_up_to_the_reorder_size():
    # a golden block of 4 tableaux may list them in any order, one of 5 only in the engine's
    for shape, pattern, size, matches in (((5, 1), (1, 2, 1, 1, 1), 4, True), ((3, 2), (1,) * 5, 5, False)):
        got = gram_block(Partition(shape), pattern).matrix
        reversed_order = tuple(row[::-1] for row in got[::-1])
        assert len(got) == size and reversed_order != got
        assert _matrix_matches_up_to_order(got, reversed_order) is matches, shape
