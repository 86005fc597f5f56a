"""Partitions, compositions, Young diagrams and semistandard tableaux.

The boxes of a shape are labeled 0..n-1 row by row, so a tableau's
word is its rows concatenated, ``sum(tableau, ())``; the symmetrizer
module builds its row and column groups on that labeling.

The semistandard tableaux of a shape are enumerated once, for every
pattern together, by filling each letter as a horizontal strip
(:func:`_tableaux_by_pattern`); :func:`ssyt_with_pattern` looks one
pattern up in that table, and :func:`patterns_of` lists the patterns
it holds.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from fractions import Fraction
from functools import lru_cache, total_ordering
from types import MappingProxyType
from typing import Mapping

from .exact import Poly, Value, factored_display

Pattern = tuple[int, ...]  # letter multiplicities in increasing letter order


def read_decimal(text: str) -> int:
    """The number ``text`` writes in ASCII decimal digits only: no sign, underscore or space."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{text!r} is not a number in decimal digits")
    return int(text)


@total_ordering
class Partition(Value):
    """Non-increasing positive parts; the empty partition is allowed.

    Partitions compare and order as their ``parts`` tuples.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(map(operator.index, parts))
        if any(p <= 0 for p in parts):
            raise ValueError("partition parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("partition parts must be non-increasing")
        object.__setattr__(self, "parts", parts)

    def __lt__(self, other):
        return self.parts < other.parts if other.__class__ is self.__class__ else NotImplemented

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        return Partition(
            tuple(sum(1 for p in self.parts if p > i) for i in range(self.parts[0]))
        )

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in lexicographically decreasing order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return (Partition(),)

    def gen(remaining: int, maxpart: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for p in range(min(remaining, maxpart), 0, -1):
            yield from gen(remaining - p, p, prefix + (p,))

    return tuple(Partition(p) for p in gen(n, n, ()))


def compositions_of(n: int) -> tuple[Pattern, ...]:
    """All compositions of n, grouped by length k = 1..n.

    A composition of length k is read off its k - 1 cut points in
    1..n-1.  Within a length the cut points are taken in decreasing
    order, so the compositions are lexicographically decreasing and the
    whole listing is deterministic.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ((),)
    return tuple(
        tuple(b - a for a, b in zip((0,) + cuts, cuts + (n,)))
        for k in range(1, n + 1)
        for cuts in reversed(list(itertools.combinations(range(1, n), k - 1)))
    )


@lru_cache(maxsize=None)
def _tableaux_by_pattern(shape: Partition) -> Mapping[Pattern, tuple[tuple[tuple[int, ...], ...], ...]]:
    """Every semistandard tableau of ``shape`` on the letters 1..k for some k, by pattern.

    Letter j+1 fills a nonempty horizontal strip (no two boxes in one
    column) of the boxes that letters 1..j leave free: row i grows to
    at most min(lambda_i, mu_{i-1}) for the filled lengths mu.  Every
    branch ends in a tableau, since the first unfilled row can always
    take one more box.  Each pattern's tableaux are sorted by their
    row-major reading, which fixes the basis order of every Gram block.
    """
    parts = shape.parts
    groups: dict[Pattern, list[tuple[tuple[int, ...], ...]]] = {}
    rows: list[list[int]] = [[] for _ in parts]

    def fill(filled: tuple[int, ...], pattern: Pattern) -> None:
        if filled == parts:
            groups.setdefault(pattern, []).append(tuple(map(tuple, rows)))
            return
        letter = len(pattern) + 1
        tops = [min(p, filled[i - 1]) if i else p for i, p in enumerate(parts)]
        for grown in itertools.product(*map(range, filled, [t + 1 for t in tops])):
            added = sum(grown) - sum(filled)
            if added:
                for row, a, b in zip(rows, filled, grown):
                    row.extend([letter] * (b - a))
                fill(grown, pattern + (added,))
                for row, a in zip(rows, filled):
                    del row[a:]

    fill((0,) * len(parts), ())
    # rows of one shape have fixed lengths, so tuple order is reading-word order
    return MappingProxyType({p: tuple(sorted(tabs)) for p, tabs in groups.items()})


def ssyt_with_pattern(shape: Partition, pattern: Pattern) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All semistandard fillings of ``shape`` with letter i+1 used pattern[i] times.

    Rows weakly increase, columns strictly increase.  Tableaux are
    sorted by the lexicographic order of their row-major reading.
    """
    if sum(pattern) != shape.n:
        raise ValueError("pattern must sum to the partition weight")
    if any(m <= 0 for m in pattern):
        raise ValueError("pattern entries must be positive")
    return _tableaux_by_pattern(shape).get(tuple(pattern), ())


def patterns_of(shape: Partition) -> list[Pattern]:
    """The keys of :func:`_tableaux_by_pattern`, in the order of :func:`compositions_of`."""
    return sorted(_tableaux_by_pattern(shape), key=lambda p: (len(p), [-x for x in p]))


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient c^lam_{mu nu}.

    Counts the semistandard fillings of the skew shape lam/mu with
    content nu whose reverse reading word (rows top to bottom, each
    right to left) is a lattice word.  Cells are filled in that order.
    """
    inner = mu.parts + (0,) * (len(lam) - len(mu))
    if lam.n != mu.n + nu.n or len(mu) > len(lam) or any(m > p for m, p in zip(inner, lam)):
        return 0
    cells = [(r, c) for r, (p, m) in enumerate(zip(lam, inner)) for c in range(p - 1, m - 1, -1)]
    filled: dict[tuple[int, int], int] = {}
    used = [0] * len(nu)

    def count(idx: int) -> int:
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        right, above = filled.get((r, c + 1)), filled.get((r - 1, c))
        total = 0
        for letter in range(len(nu)):
            if used[letter] == nu[letter] or (letter and used[letter] == used[letter - 1]):
                continue
            if (right is not None and letter > right) or (above is not None and letter <= above):
                continue
            filled[r, c] = letter
            used[letter] += 1
            total += count(idx + 1)
            used[letter] -= 1
        filled.pop((r, c), None)
        return total

    return count(0)


def littlewood_multiplicity(lam: Partition, gamma: Partition) -> int:
    """Multiplicity of the O(N) irreducible gamma in the GL(N) one lam.

    Littlewood's branching rule in the stable range (Koike-Terada):
    the sum of c^lam_{delta gamma} over the partitions delta with
    every part even.
    """
    rest = lam.n - gamma.n
    if rest < 0 or rest % 2:
        return 0
    return sum(
        lr_coefficient(lam, Partition(2 * p for p in half), gamma)
        for half in partitions_of(rest // 2)
    )


def _content_and_hook(shape: Partition):
    """(column - row, hook length) of every box, row by row."""
    conj = shape.conjugate()
    for r, p in enumerate(shape.parts):
        for c in range(p):
            yield c - r, (p - c) + (conj[c] - r) - 1


@lru_cache(maxsize=None)
def dimension_poly(shape: Partition) -> Poly:
    """Number of semistandard tableaux with entries <= N, as a polynomial.

    Hook-content formula: the product over boxes of (N + content) / hook.
    The (N + content) are multiplied on integer coefficients, and the
    product is divided by the hook product once at the end.
    """
    coeffs = [1]  # ascending by degree
    hooks = 1
    for content, hook in _content_and_hook(shape):
        coeffs = [content * a + b for a, b in zip(coeffs + [0], [0] + coeffs)]
        hooks *= hook
    return Poly(Fraction(c, hooks) for c in coeffs)


def dimension_str(shape: Partition) -> str:
    """``dimension_poly(shape).factored_str()``, read off the contents and the hook product.

    Each content c of the boxes gives the factor (N + c), raised to the
    number of boxes with that content, and the constant is 1/(hook
    product); no root is searched for.
    """
    boxes = list(_content_and_hook(shape))
    counts = Counter(content for content, _ in boxes)
    linear = [(Poly((c, 1)), m) for c, m in counts.items()]
    hooks = math.prod(hook for _, hook in boxes)
    return factored_display(Fraction(1, hooks), linear, Poly.const(1))


def detb_exponent(shape: Partition) -> Poly:
    """n * dim / N, the exponent of det(B); N divides dim as box (1,1) has content 0."""
    return Poly(shape.n * c for c in dimension_poly(shape).coeffs[1:])

