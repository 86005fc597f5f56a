"""Partitions, compositions, Young diagrams and semistandard tableaux.

The tableau frame fixes the row-major labeling of diagram boxes by
1..n; its row and column label sets generate the two permutation
groups that the symmetrizer module materializes.

The semistandard tableaux of a shape are enumerated once, for every
pattern together, by filling each letter as a horizontal strip
(:func:`_tableaux_by_pattern`); :func:`ssyt_with_pattern` looks one
pattern up in that table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .exact import Poly

Pattern = tuple[int, ...]  # letter multiplicities in increasing letter order


@dataclass(frozen=True, order=True)
class Partition:
    """Non-increasing positive parts; the empty partition is allowed."""

    parts: tuple[int, ...] = ()

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        if any(p <= 0 for p in parts):
            raise ValueError("partition parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("partition parts must be non-increasing")
        object.__setattr__(self, "parts", parts)

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


@lru_cache(maxsize=None)
def compositions_of(n: int) -> tuple[Pattern, ...]:
    """All compositions of n, grouped by length k = 1..n.

    Within a length the order is lexicographically decreasing, so the
    whole listing is deterministic.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ((),)
    out: list[Pattern] = []
    for k in range(1, n + 1):
        out.extend(_compositions_length(n, k))
    return tuple(out)


def _compositions_length(n: int, k: int) -> list[Pattern]:
    if k == 1:
        return [(n,)]
    out = []
    for first in range(n - k + 1, 0, -1):
        for rest in _compositions_length(n - first, k - 1):
            out.append((first,) + rest)
    return out


@dataclass(frozen=True)
class TableauFrame:
    """Row-major labeling of the boxes of a shape by positions 0..n-1.

    ``rows``/``cols`` are the label sets of the horizontal and vertical
    partitions of {0,..,n-1}; the symmetrizer is built from them.
    """

    shape: Partition
    rows: tuple[tuple[int, ...], ...]
    cols: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def frame_of(shape: Partition) -> TableauFrame:
    rows = []
    label = 0
    for p in shape:
        rows.append(tuple(range(label, label + p)))
        label += p
    ncols = shape[0] if len(shape) else 0
    cols = []
    for c in range(ncols):
        col = []
        for r, p in enumerate(shape):
            if c < p:
                col.append(rows[r][c])
        cols.append(tuple(col))
    return TableauFrame(shape, tuple(rows), tuple(cols))


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


def kostka(shape: Partition, pattern: Pattern) -> int:
    return len(ssyt_with_pattern(shape, pattern))


def dominates(shape: Partition, pattern: Pattern) -> bool:
    """Whether ``shape`` dominates the sorted ``pattern`` of the same weight.

    That holds exactly when some semistandard tableau of ``shape`` has
    content ``pattern``, i.e. when the Kostka number is positive.
    """
    parts = sorted(pattern, reverse=True)
    top = bottom = 0
    for i, part in enumerate(parts):
        top += shape[i] if i < len(shape) else 0
        bottom += part
        if top < bottom:
            return False
    return True


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
    """
    out = Poly.const(1)
    hooks = 1
    for content, hook in _content_and_hook(shape):
        out = out * Poly((content, 1))
        hooks *= hook
    return out * Fraction(1, hooks)


def detb_exponent(shape: Partition) -> Poly:
    """n * dim / N, the exponent of det(B); N divides dim as box (1,1) has content 0."""
    return Poly(shape.n * c for c in dimension_poly(shape).coeffs[1:])


@lru_cache(maxsize=None)
def standard_tableau_count(shape: Partition) -> int:
    """Number of standard fillings, by the hook length formula."""
    hooks = math.prod(hook for _, hook in _content_and_hook(shape))
    return math.factorial(shape.n) // hooks


def enumerate_ssyt(shape: Partition, max_letter: int) -> list[tuple[tuple[int, ...], ...]]:
    """Direct enumeration of all SSYT with entries in 1..max_letter."""
    out = []
    for pattern in compositions_of(shape.n):
        k = len(pattern)
        if k > max_letter:
            continue
        for tab in ssyt_with_pattern(shape, pattern):
            for letters in _increasing_tuples(k, max_letter):
                relabel = {i + 1: letters[i] for i in range(k)}
                out.append(tuple(tuple(relabel[x] for x in row) for row in tab))
    return out


def _increasing_tuples(k: int, max_letter: int):
    return itertools.combinations(range(1, max_letter + 1), k)
