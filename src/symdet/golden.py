"""Embedded reference tables and the verification pass.

The data file carries the known determinant tables in a documented
JSON schema (see README); verification recomputes everything in scope
with the engine and diffs against it.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .combinat import Partition, dominates, partitions_of
from .exact import Binomials, Poly, SquareClassFormula, squarefree_part
from .gram import determinant_classes, gram_block
from .refined import refined_decomposition

# A golden matrix of at most this many tableaux may list them in any
# order; a larger one must use the lexicographic row-major order.
MAX_REORDER_SIZE = 4


@dataclass(frozen=True)
class SymRow:
    partition: Partition
    dimension: Poly
    det_class: tuple[tuple[int, tuple[int, ...]], ...]  # (base, (k,...)) factors

    def reduced_key(self) -> tuple:
        """Key of the class, as :meth:`SquareClassFormula.reduced_key`."""
        formula = SquareClassFormula.one()
        for base, ks in self.det_class:
            exponent = sum((Binomials.unit(k) for k in ks), Binomials())
            formula = formula.times(SquareClassFormula.from_integer(base, exponent))
        return formula.reduced_key()


@dataclass(frozen=True)
class RefinedRow:
    partition: Partition
    gamma: Partition
    multiplicity: int
    reduced_class: Poly  # squarefree constant times distinct linear factors


@dataclass
class GoldenTables:
    sym_rows: list[SymRow]
    stretch_rows: list[SymRow]
    refined_rows: list[RefinedRow]
    matrices: dict[tuple[Partition, tuple[int, ...]], tuple[tuple[int, ...], ...]]
    coupling_42_2: tuple[tuple[Poly, ...], ...]


def _poly_from_roots(roots: list[int], den: int) -> Poly:
    out = Poly.const(Fraction(1, den))
    for r in roots:
        out = out * Poly((-r, 1))
    return out


def _class_poly(constant: int, roots: list[int]) -> Poly:
    out = Poly.const(squarefree_part(constant)[0])
    for r in roots:
        out = out * Poly((-r, 1))
    return out


def load_golden(path: str | Path | None = None) -> GoldenTables:
    if path is None:
        text = resources.files("symdet.data").joinpath("golden.json").read_text()
    else:
        text = Path(path).read_text()
    try:
        return _parse_golden(json.loads(text))
    except (ArithmeticError, AttributeError, IndexError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed golden data: {type(exc).__name__}: {exc}") from exc


def _parse_golden(doc: dict) -> GoldenTables:
    if doc.get("version") != 1:
        raise ValueError("unsupported golden table version")

    def sym_rows(key: str) -> list[SymRow]:
        rows = []
        for row in doc[key]:
            dim = _poly_from_roots(row["dimension"]["roots"], row["dimension"]["den"])
            det = tuple((base, tuple(ks)) for base, ks in row["det_class"])
            rows.append(SymRow(Partition(row["partition"]), dim, det))
            rows[-1].reduced_key()  # factor every base now: one that fails is malformed data
        return rows

    refined_rows = [
        RefinedRow(
            Partition(r["partition"]),
            Partition(r["gamma"]),
            r["multiplicity"],
            _class_poly(r["class_constant"], r["class_roots"]),
        )
        for r in doc["refined"]
    ]
    matrices = {}
    for key, mat in doc["matrices"].items():
        shape_s, pat_s = key.split("|")
        shape = Partition(tuple(int(x) for x in shape_s.split(",")))
        pattern = tuple(int(x) for x in pat_s.split(","))
        if min(pattern) < 1 or sum(pattern) != shape.n or not dominates(shape, pattern):
            raise ValueError(f"matrix key {key!r} names a pattern with no tableau of its shape")
        if any(len(row) != len(mat) or any(type(x) is not int for x in row) for row in mat):
            raise ValueError(f"matrix {key!r} is not a square list of integer rows")
        matrices[(shape, pattern)] = tuple(tuple(row) for row in mat)
    coupling = tuple(
        tuple(Poly(entry) for entry in row) for row in doc["coupling_42_2"]["matrix"]
    )
    if any(len(row) != len(coupling) for row in coupling):
        raise ValueError("coupling_42_2 is not a square matrix")
    return GoldenTables(
        sym_rows=sym_rows("symmetrizations"),
        stretch_rows=sym_rows("symmetrizations_stretch"),
        refined_rows=refined_rows,
        matrices=matrices,
        coupling_42_2=coupling,
    )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass
class VerifyReport:
    checked: int
    mismatches: list[str]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_sym(golden: GoldenTables) -> VerifyReport:
    """Recompute every table row, stretch row and worked matrix; diff against golden."""
    mismatches = []
    checked = 0
    rows = golden.sym_rows + golden.stretch_rows
    for row, result in zip(rows, determinant_classes([row.partition for row in rows])):
        checked += 1
        if result.dimension != row.dimension:
            mismatches.append(
                f"sym {row.partition}: dimension expected {row.dimension.factored_str()}, "
                f"got {result.dimension.factored_str()}"
            )
        expected = row.reduced_key()
        got = result.c_reduced.reduced_key()
        if expected != got:
            mismatches.append(
                f"sym {row.partition}: class expected {_key_str(expected)}, got {_key_str(got)}"
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
    """Recompute the constituent table for n <= 6 and diff against golden."""
    mismatches = []
    checked = 0
    expected_by_shape: dict[Partition, dict[Partition, RefinedRow]] = {}
    for row in golden.refined_rows:
        expected_by_shape.setdefault(row.partition, {})[row.gamma] = row
    for n in range(2, 7):
        for shape in partitions_of(n):
            expected = expected_by_shape.get(shape, {})
            result = refined_decomposition(shape)
            got = {c.gamma: c for c in result.constituents}
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
                if e.reduced_class != g.c_reduced:
                    mismatches.append(
                        f"refined {shape}/{gamma}: class expected "
                        f"{e.reduced_class.factored_str()}, got {g.c_reduced.factored_str()}"
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


def _key_str(key) -> str:
    primes, _ = key
    return " * ".join(
        f"{p}^C(N,{{{','.join(map(str, ks))}}})" if len(ks) > 1 else f"{p}^C(N,{ks[0]})"
        for p, ks in primes
    ) or "1"
