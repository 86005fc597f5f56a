"""Embedded reference tables and the verification pass.

The data file carries the known determinant tables in a documented
JSON schema (see README); verification recomputes everything in scope
with the engine and diffs against it.  Every number in the file is a
JSON integer, and each row's ``det_class`` and each refined row's
coupling class are parsed into the reduced :class:`SquareClassFormula`
that the engine returns, so a class is checked with ``==`` and a
mismatch prints in the notation of ``sym``.
"""

from __future__ import annotations

import itertools
import json
import math
import pkgutil
from fractions import Fraction
from pathlib import Path

from .combinat import Partition, partitions_of, patterns_of
from .exact import Binomials, Poly, SquareClassFormula, Value
from .gram import MAX_REFINED_N, MAX_SYM_N, MAX_TABLE_N, DetClass, determinant_class, gram_block
from .refined import refined_decomposition

# A golden matrix of at most this many tableaux may list them in any
# order; a larger one must use the lexicographic row-major order.
MAX_REORDER_SIZE = 4


class RefinedRow(Value):
    """One golden constituent row.

    Fields: partition: Partition, gamma: Partition, multiplicity: int, c_reduced:
    SquareClassFormula (the coupling determinant's class, reduced modulo squares).
    """

    __slots__ = ("partition", "gamma", "multiplicity", "c_reduced")


class GoldenTables(Value):
    """The parsed reference tables.

    Fields: sym_rows: list[DetClass], stretch_rows: list[DetClass], refined_rows:
    list[RefinedRow], matrices: dict[tuple[Partition, tuple[int, ...]], tuple[tuple[int, ...], ...]],
    coupling_42_2: tuple[tuple[Poly, ...], ...].
    """

    __slots__ = ("sym_rows", "stretch_rows", "refined_rows", "matrices", "coupling_42_2")


def _integer(x, least: float = -math.inf, most: float = math.inf) -> int:
    """``x`` if it is a JSON integer (a bool is not one) from ``least`` to ``most``."""
    if type(x) is not int or not least <= x <= most:
        raise ValueError(f"{x!r} is not an integer from {least} to {most}")
    return x


def _partition(parts: list) -> Partition:
    """A partition whose parts are JSON integers of at least 1."""
    return Partition([_integer(p, 1) for p in parts])


def _row_partition(parts: list) -> Partition:
    """A row's partition: like a gamma, but never empty."""
    shape = _partition(parts)
    if not shape.parts:
        raise ValueError("a row's partition is empty")
    return shape


def _poly_from_roots(scale: Fraction | int, roots: list[int], most: int) -> Poly:
    """scale * prod(N - r) over the integer roots r, of which the row allows at most ``most``.

    Each root multiplies in one linear factor, at a cost that grows faster than quadratically.
    """
    if len(roots) > most:
        raise ValueError(f"{len(roots)} roots where the row allows at most {most}")
    out = Poly.const(scale)
    for r in roots:
        out = out * Poly((-_integer(r), 1))
    return out


def _key_numbers(text: str) -> tuple[int, ...]:
    """The comma-separated numbers of one half of a matrix key, each in ASCII decimal digits."""
    numbers = text.split(",")
    if not all(x.isascii() and x.isdigit() for x in numbers):
        raise ValueError(f"{text!r} is not a comma-separated list of decimal numbers")
    return tuple(map(int, numbers))


def _class_formula(det_class: list, n: int) -> SquareClassFormula:
    """prod base^(sum of its C(N,k)) over the [base, [k, ...]] factors, reduced modulo squares.

    Each k is at most the row's weight ``n``, which bounds the length of ``Binomials.unit(k)``.
    """
    return SquareClassFormula.product(
        (_integer(base, 1), sum((Binomials.unit(_integer(k, 0, n)) for k in ks), Binomials()))
        for base, ks in det_class
    ).reduced()


def load_golden(path: str | Path | None = None) -> GoldenTables:
    if path is None:
        # pkgutil rather than importlib.resources, which loads inspect from Python 3.12 on
        text = pkgutil.get_data(__package__, "data/golden.json").decode("utf-8")
    else:
        text = Path(path).read_text()
    try:
        return _parse_golden(json.loads(text, object_pairs_hook=_unique_keys))
    except (ArithmeticError, AttributeError, IndexError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed golden data: {type(exc).__name__}: {exc}") from exc


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object whose keys are distinct; ``json.loads`` alone keeps the last of two equal keys."""
    out = dict(pairs)
    if len(out) != len(pairs):
        raise ValueError("a JSON object names one key twice")
    return out


def _parse_golden(doc: dict) -> GoldenTables:
    version = doc.get("version")
    if type(version) is not int or version != 1:
        raise ValueError("unsupported golden table version")

    def sym_rows(key: str) -> list[DetClass]:
        rows = []
        for row in doc[key]:
            shape = _row_partition(row["partition"])
            if shape.n > MAX_TABLE_N:
                raise ValueError(f"{key} row {shape} is beyond the limit n <= {MAX_TABLE_N}")
            spec = row["dimension"]
            # the dimension has degree n
            dim = _poly_from_roots(Fraction(1, _integer(spec["den"], 1)), spec["roots"], shape.n)
            rows.append(DetClass(shape, _class_formula(row["det_class"], shape.n), dim))
        return rows

    refined_rows = []
    for r in doc["refined"]:
        shape = _row_partition(r["partition"])
        if shape.n > MAX_REFINED_N:
            raise ValueError(f"refined row {shape} is beyond the limit n <= {MAX_REFINED_N}")
        gamma = _partition(r["gamma"])
        j, odd = divmod(shape.n - gamma.n, 2)
        if odd or j < 1:
            raise ValueError(f"refined row {shape}/{gamma}: the gamma's weight is not n - 2j for a j >= 1")
        # every coupling with n <= 8 has multiplicity 1 or 2; an m x m determinant of
        # entries of degree <= j has degree <= m * j
        multiplicity = _integer(r["multiplicity"], 1, shape.n)
        c_det = _poly_from_roots(_integer(r["class_constant"], 1), r["class_roots"], multiplicity * j)
        c_reduced = SquareClassFormula.product([(c_det, Binomials.unit(0))]).reduced()
        refined_rows.append(RefinedRow(shape, gamma, multiplicity, c_reduced))
    matrices = {}
    for key, mat in doc["matrices"].items():
        shape_s, pat_s = key.split("|")
        shape = Partition(_key_numbers(shape_s))
        pattern = _key_numbers(pat_s)
        if shape.n > MAX_SYM_N:
            raise ValueError(f"matrix key {key!r} is beyond the limit n <= {MAX_SYM_N}")
        if pattern not in patterns_of(shape):
            raise ValueError(f"matrix key {key!r} names a pattern with no tableau of its shape")
        if (shape, pattern) in matrices:
            raise ValueError(f"matrix key {key!r} names the block of another key")
        if any(len(row) != len(mat) or any(type(x) is not int for x in row) for row in mat):
            raise ValueError(f"matrix {key!r} is not a square list of integer rows")
        matrices[(shape, pattern)] = tuple(tuple(row) for row in mat)
    coupling = tuple(
        tuple(Poly(map(_integer, entry)) for entry in row) for row in doc["coupling_42_2"]["matrix"]
    )
    if any(len(row) != len(coupling) for row in coupling):
        raise ValueError("coupling_42_2 is not a square matrix")
    return GoldenTables(
        sym_rows("symmetrizations"), sym_rows("symmetrizations_stretch"), refined_rows, matrices, coupling
    )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


class VerifyReport(Value):
    """Outcome of one verification pass.

    Fields: checked: int, mismatches: list[str].
    """

    __slots__ = ("checked", "mismatches")

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_sym(golden: GoldenTables) -> VerifyReport:
    """Recompute every table row, stretch row and worked matrix; diff against golden."""
    mismatches = []
    checked = 0
    for row in golden.sym_rows + golden.stretch_rows:
        checked += 1
        result = determinant_class(row.shape)
        if result.dimension != row.dimension:
            mismatches.append(
                f"sym {row.shape}: dimension expected {row.dimension.factored_str()}, "
                f"got {result.dimension.factored_str()}"
            )
        if result.c_reduced != row.c_reduced:
            mismatches.append(
                f"sym {row.shape}: class expected {row.c_reduced.render_text()}, "
                f"got {result.c_reduced.render_text()}"
            )
    for (shape, pattern), mat in sorted(golden.matrices.items()):
        checked += 1
        block = gram_block(shape, pattern)
        # the source tables do not pin down the order of a small block's
        # tableaux, so congruence by a basis permutation is accepted there
        if not _matrix_matches_up_to_order(block.matrix, mat):
            mismatches.append(
                f"matrix {shape} pattern {pattern}: expected {mat}, got {block.matrix}"
            )
    return VerifyReport(checked, mismatches)


def verify_refined(golden: GoldenTables) -> VerifyReport:
    """Recompute the constituent table of every shape with n <= 6 or a golden row; diff."""
    mismatches = []
    checked = 0
    expected_by_shape: dict[Partition, dict[Partition, RefinedRow]] = {}
    for row in golden.refined_rows:
        expected_by_shape.setdefault(row.partition, {})[row.gamma] = row
    shapes = [shape for n in range(2, 7) for shape in partitions_of(n)]
    shapes += [shape for shape in expected_by_shape if shape not in shapes]
    for shape in shapes:
        expected = expected_by_shape.get(shape, {})
        got = {c.gamma: c for c in refined_decomposition(shape).constituents}
        checked += max(len(expected), 1)
        for gamma in sorted(set(expected) | set(got)):
            if gamma not in got:
                mismatches.append(f"refined {shape}/{gamma}: missing constituent")
                continue
            if gamma not in expected:
                mismatches.append(f"refined {shape}/{gamma}: unexpected constituent")
                continue
            e, g = expected[gamma], got[gamma]
            if e.multiplicity != g.multiplicity:
                mismatches.append(
                    f"refined {shape}/{gamma}: multiplicity expected "
                    f"{e.multiplicity}, got {g.multiplicity}"
                )
            if e.c_reduced != g.c_reduced:
                mismatches.append(
                    f"refined {shape}/{gamma}: class expected "
                    f"{e.c_reduced.render_text()}, got {g.c_reduced.render_text()}"
                )
    # the explicitly known multiplicity-two coupling matrix
    checked += 1
    c42 = refined_decomposition(Partition((4, 2)))
    coupling = {c.gamma: c for c in c42.constituents}[Partition((2,))]
    if not _matrix_matches_up_to_order(coupling.c_matrix, golden.coupling_42_2):
        mismatches.append("refined (4,2)/(2): coupling matrix differs from the known one")
    return VerifyReport(checked, mismatches)


def _matrix_matches_up_to_order(got, expected) -> bool:
    """Whether got equals expected, under any basis order if size <= MAX_REORDER_SIZE."""
    size = len(expected)
    if len(got) != size:
        return False
    orders = itertools.permutations(range(size)) if size <= MAX_REORDER_SIZE else [range(size)]
    return any(
        all(got[perm[a]][perm[b]] == expected[a][b] for a in range(size) for b in range(size))
        for perm in orders
    )

