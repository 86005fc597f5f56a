"""Gram blocks of symmetrized forms and their exact determinants.

For a shape of weight n the symmetrized form splits orthogonally by the
content of the tableau basis.  Contents sharing one multiplicity
pattern give the same integer block, and a pattern with k distinct
letters occurs once per k-subset of {1..N}, i.e. with multiplicity
C(N,k).  The determinant class of the whole form is therefore the
product over patterns of det(block)^C(N,k), times det(B) raised to the
exact exponent dim * n / N.

Rearranging a pattern changes its block determinant only by a rational
square: a permutation sigma of the orthonormal basis letters is an
isometry of V^(x)n that commutes with the symmetrizer e and maps the mu
weight space of e V^(x)n onto the sigma(mu) one, and both weight spaces
have the tableau images as rational bases.  The class modulo squares
therefore needs one block per content orbit (:func:`determinant_classes`);
:func:`symmetrization_determinants` builds every block for the exact
product.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

from .combinat import (
    Partition,
    Pattern,
    compositions_of,
    dimension_poly,
    dominates,
    frame_of,
    partitions_of,
    ssyt_with_pattern,
)
from .exact import POLY_N, Binomials, Poly, SquareClassFormula, bareiss_det
from .symmetrizer import column_classes, row_sum, word_of_tableau


class NoTableauxError(ValueError):
    """Requested a Gram block for a pattern admitting no tableaux."""


@dataclass(frozen=True)
class GramBlock:
    shape: Partition
    pattern: Pattern
    matrix: tuple[tuple[int, ...], ...]
    det: int

    @property
    def size(self) -> int:
        return len(self.matrix)

    @property
    def k(self) -> int:
        """Number of distinct letters; the block multiplicity is C(N,k)."""
        return len(self.pattern)


@lru_cache(maxsize=None)
def gram_block(shape: Partition, pattern: Pattern) -> GramBlock:
    """Exact Gram block of the symmetrized tableau basis for one pattern.

    Entry (s,t) is <e u_s, e u_t> = |C| * <R u_s, C R u_t> for tableau
    words u, since e = C*R with R* = R, C* = C and C^2 = |C|*C.  With
    a = column_classes(R u) that is |C| * sum_key a_s[key] * a_t[key], so
    no entry expands the column group; the determinant comes from
    fraction-free elimination over the integers.
    """
    tableaux = ssyt_with_pattern(shape, pattern)
    if not tableaux:
        raise NoTableauxError(f"no tableaux for shape {shape} pattern {pattern}")
    frame = frame_of(shape)
    classes = [
        column_classes(shape, row_sum(shape, {word_of_tableau(frame, t): 1}))
        for t in tableaux
    ]
    col_order = math.prod(math.factorial(len(col)) for col in frame.cols)
    size = len(classes)
    matrix = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            a, b = classes[i], classes[j]
            if len(b) < len(a):
                a, b = b, a
            v = col_order * sum(c * b.get(key, 0) for key, c in a.items())
            matrix[i][j] = v
            matrix[j][i] = v
    det = bareiss_det(matrix)
    return GramBlock(shape, pattern, tuple(tuple(row) for row in matrix), det)


@dataclass
class SymDetResult:
    shape: Partition
    blocks: dict[Pattern, GramBlock]
    c_formula: SquareClassFormula  # exact exponents, before square reduction
    dimension: Poly
    detB_exponent: Poly

    def c_reduced(self) -> SquareClassFormula:
        return self.c_formula.reduced()


@dataclass(frozen=True)
class DetClass:
    """Determinant class modulo squares and dimension of one shape."""

    shape: Partition
    c_reduced: SquareClassFormula
    dimension: Poly


def patterns_of(shape: Partition) -> list[Pattern]:
    """Patterns with at least one tableau, in the deterministic order."""
    return [p for p in compositions_of(shape.n) if dominates(shape, p)]


def content_orbits(shape: Partition) -> dict[Pattern, int]:
    """Non-increasing patterns with a tableau, each with its number of rearrangements."""
    return {
        mu.parts: math.factorial(len(mu))
        // math.prod(math.factorial(m) for m in Counter(mu.parts).values())
        for mu in partitions_of(shape.n)
        if dominates(shape, mu.parts)
    }


def _blocks_by_shape(
    shapes: list[Partition], patterns: Callable[[Partition], Iterable[Pattern]], jobs: int
) -> dict[Partition, list[GramBlock]]:
    """``gram_block`` of each distinct shape with each of ``patterns(shape)``.

    All blocks go to one pool of min(jobs, cores, blocks) workers, or run
    serially when that is 1; each shape keeps its patterns' order.
    """
    if any(shape.n < 1 for shape in shapes):
        raise ValueError("need a partition of n >= 1")
    tasks = [(s, p) for s in dict.fromkeys(shapes) for p in patterns(s)]
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        chunksize = max(1, len(tasks) // (16 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(gram_block, *zip(*tasks), chunksize=chunksize))
    else:
        blocks = [gram_block(s, p) for s, p in tasks]
    return {shape: list(own) for shape, own in groupby(blocks, key=lambda b: b.shape)}


def _det_product(
    blocks: list[GramBlock], times: Callable[[Pattern], int] = lambda pattern: 1
) -> SquareClassFormula:
    """Product of det(block)^(times(pattern) * C(N,k)) over the blocks."""
    out = SquareClassFormula.one()
    for b in blocks:
        exponent = Binomials.unit(b.k) * times(b.pattern)
        out = out.times(SquareClassFormula.from_integer(b.det, exponent))
    return out


def symmetrization_determinants(shapes: list[Partition], jobs: int = 1) -> list[SymDetResult]:
    """Every Gram block and the exact determinant formula of each shape, in input order."""
    results = {}
    for shape, blocks in _blocks_by_shape(shapes, patterns_of, jobs).items():
        dim = dimension_poly(shape)
        detb = (dim * shape.n).divexact(POLY_N)
        block_map = {b.pattern: b for b in blocks}
        results[shape] = SymDetResult(shape, block_map, _det_product(blocks), dim, detb)
    return [results[shape] for shape in shapes]


def symmetrization_determinant(shape: Partition, jobs: int = 1) -> SymDetResult:
    """One shape through :func:`symmetrization_determinants`."""
    return symmetrization_determinants([shape], jobs)[0]


def determinant_classes(shapes: list[Partition], jobs: int = 1) -> list[DetClass]:
    """Reduced determinant class and dimension of each shape, in input order.

    Builds one Gram block per content orbit.  A permutation sigma of the
    basis letters is an isometry that commutes with e and maps the mu
    weight space of the image onto the sigma(mu) one; both have the
    tableau images as rational bases.  So every rearrangement of mu has
    the block determinant of mu up to a nonzero rational square, and the
    same C(N, len mu).  The class is therefore the reduction of
    prod det(block_mu)^(r(mu) * C(N, len mu)) over the non-increasing
    patterns mu with a tableau, where r(mu) counts their rearrangements.
    """
    results = {}
    for shape, blocks in _blocks_by_shape(shapes, content_orbits, jobs).items():
        c_reduced = _det_product(blocks, content_orbits(shape).__getitem__).reduced()
        results[shape] = DetClass(shape, c_reduced, dimension_poly(shape))
    return [results[shape] for shape in shapes]


# ---------------------------------------------------------------------------
# closed forms for the four infinite families
# ---------------------------------------------------------------------------


def closed_form_c(shape: Partition) -> SquareClassFormula | None:
    """Unreduced closed form of the determinant class, when one is known.

    Covers the single row, the single column, and the two near-column
    hooks (2,1,..,1) and (3,1,..,1); returns None for other shapes.
    """
    parts = shape.parts
    n = shape.n
    if len(parts) == 1:
        return _closed_row(n)
    if all(p == 1 for p in parts):
        return SquareClassFormula.from_integer(math.factorial(n), Binomials.unit(n))
    if parts[0] == 2 and all(p == 1 for p in parts[1:]):
        return _closed_two_hook(n)
    if parts[0] == 3 and all(p == 1 for p in parts[1:]):
        return _closed_three_hook(n)
    return None


def _closed_row(n: int) -> SquareClassFormula:
    # product over compositions of the multinomial, per k-block
    out = SquareClassFormula.one()
    for comp in compositions_of(n):
        coeff = math.factorial(n)
        for x in comp:
            coeff //= math.factorial(x)
        out = out.times(
            SquareClassFormula.from_integer(coeff, Binomials.unit(len(comp)))
        )
    return out


def _closed_two_hook(n: int) -> SquareClassFormula:
    # n^C(N,n) * ((n-1)!)^((n-1) * C(N+1,n))
    cn = Binomials.unit(n)
    cn1 = Binomials.unit(n - 1)
    out = SquareClassFormula.from_integer(n, cn)
    return out.times(
        SquareClassFormula.from_integer(math.factorial(n - 1), (cn + cn1) * (n - 1))
    )


def _closed_three_hook(n: int) -> SquareClassFormula:
    # (n-2)!^x * 2^y * n^z assembled from the per-pattern contributions:
    #   one letter tripled              -> (n-2)!            size 1
    #   two letters doubled             -> 2*(n-2)!          size 1
    #   one of n-1 letters doubled      -> det (n-2)!^(n-2) * 2^(n-3) * n
    #   all letters distinct            -> det (2(n-2)!)^C(n-1,2) * n^(n-2)
    cn = Binomials.unit(n)
    cn1 = Binomials.unit(n - 1)
    cn2 = Binomials.unit(n - 2)
    half = math.comb(n - 1, 2)
    x = (cn2 + cn) * half + cn1 * ((n - 1) * (n - 2))
    y = cn2 * math.comb(n - 2, 2) + cn1 * ((n - 1) * (n - 3)) + cn * half
    z = cn1 * (n - 1) + cn * (n - 2)
    out = SquareClassFormula.from_integer(math.factorial(n - 2), x)
    out = out.times(SquareClassFormula.from_integer(2, y))
    return out.times(SquareClassFormula.from_integer(n, z))


def hook_block_det(n: int, ell: int) -> int:
    """Determinant of the multiplicity-free block of the hook (ell, 1^(n-ell)).

    The block is the Gram matrix of the C(n-1, ell-1) tableaux on a
    content of n distinct letters; rescaling by the off-diagonal value
    identifies it with an exterior power of the I+J lattice of rank n-1,
    whose determinant is n^C(n-2, ell-2).
    """
    if not 1 <= ell <= n:
        raise ValueError("need 1 <= ell <= n")
    base = math.factorial(ell - 1) * math.factorial(n - ell + 1)
    size_exp = math.comb(n - 1, ell - 1)
    n_exp = math.comb(n - 2, ell - 2) if ell >= 2 else 0
    return base**size_exp * n**n_exp
