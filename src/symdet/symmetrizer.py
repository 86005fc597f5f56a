"""Row/column symmetrizer acting on formal sums of words.

A word is the letter sequence of a pure tensor (letter i at tensor
position i).  The symmetrizer of a shape is e = C*R, the signed sum C
over its column group after the sum R over its row group; applying it
to a word yields a signed integer combination of words with the same
letter multiset.  One kernel, ``symmetrize``, implements it for every
caller over plain ``dict[word, coeff]`` combinations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

from .combinat import Partition, TableauFrame, frame_of

Word = tuple[int, ...]
Coeff = int | Fraction


@dataclass
class SignedWordSum:
    """Sparse integer combination of equal-length words."""

    shape: Partition
    terms: dict[Word, int] = field(default_factory=dict)

    def add(self, word: Word, coeff: int) -> None:
        c = self.terms.get(word, 0) + coeff
        if c:
            self.terms[word] = c
        else:
            self.terms.pop(word, None)

    def scaled(self, c: int) -> "SignedWordSum":
        if c == 0:
            return SignedWordSum(self.shape)
        return SignedWordSum(self.shape, {w: c * v for w, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SignedWordSum)
            and self.shape == other.shape
            and self.terms == other.terms
        )


def _perm_sign(perm: tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _block_permutations(blocks: tuple[tuple[int, ...], ...], n: int):
    """All permutations fixing each block setwise, as inverse index tuples.

    Yields (inverse, sign) pairs; applying g to a word w is
    tuple(w[inverse[i]] for i) since position i of g*w receives the
    letter from position g^{-1}(i).
    """
    per_block = []
    for block in blocks:
        if len(block) < 2:
            continue
        per_block.append([(block, perm) for perm in itertools.permutations(block)])
    if not per_block:
        yield tuple(range(n)), 1
        return
    for combo in itertools.product(*per_block):
        perm = list(range(n))
        for block, images in combo:
            for src, dst in zip(block, images):
                perm[src] = dst
        perm_t = tuple(perm)
        sign = _perm_sign(perm_t)
        inverse = [0] * n
        for i, p in enumerate(perm_t):
            inverse[p] = i
        yield tuple(inverse), sign


@lru_cache(maxsize=None)
def _symmetrizer_tables(shape: Partition):
    """Compiled permutation appliers for the row-major frame.

    Returns (row segments, row getters, signed column getters, column
    readers); a getter maps a word tuple to its image under one group
    element, a reader returns the letters of one column of length >= 2.
    Below n = 2 both groups are trivial and ``tuple`` is the identity.
    """
    frame = frame_of(shape)
    n = shape.n
    if n < 2:
        return ((0, n),), (tuple,), ((tuple, 1),), ()
    segs = tuple((row[0], row[-1] + 1) for row in frame.rows)
    rows = tuple(
        itemgetter(*inv) for inv, _ in _block_permutations(frame.rows, n)
    )
    cols = tuple(
        (itemgetter(*inv), sign) for inv, sign in _block_permutations(frame.cols, n)
    )
    readers = tuple((itemgetter(*c), len(c)) for c in frame.cols if len(c) > 1)
    return segs, rows, cols, readers


def row_sum(shape: Partition, terms: dict[Word, Coeff]) -> dict[Word, Coeff]:
    """R*x, the row-group orbit sum.

    Words in one row orbit have the same orbit sum, so terms are merged
    by their row-sorted form first and each orbit is expanded once.
    """
    segs, rows, _, _ = _symmetrizer_tables(shape)
    classes: dict[Word, Coeff] = {}
    for word, coeff in terms.items():
        key = tuple(x for a, b in segs for x in sorted(word[a:b]))
        classes[key] = classes.get(key, 0) + coeff
    out: dict[Word, Coeff] = {}
    for word, coeff in classes.items():
        if not coeff:
            continue
        for get in rows:
            u = get(word)
            out[u] = out.get(u, 0) + coeff
    return out


def column_sum(shape: Partition, terms: dict[Word, Coeff]) -> dict[Word, Coeff]:
    """C*x, the signed column-group sum.

    A word with a repeated letter inside one column is fixed by an odd
    transposition, so its signed sum is exactly 0 and it is skipped.
    """
    _, _, cols, readers = _symmetrizer_tables(shape)
    out: dict[Word, Coeff] = {}
    for word, coeff in terms.items():
        for read, k in readers:
            if len(set(read(word))) < k:
                break
        else:
            for get, sign in cols:
                v = get(word)
                c = out.get(v, 0) + sign * coeff
                if c:
                    out[v] = c
                else:
                    out.pop(v, None)
    return out


def symmetrize(shape: Partition, terms: dict[Word, Coeff]) -> dict[Word, Coeff]:
    """e*x = C*(R*x) for a combination of words of length shape.n.

    Letters may be any ints and coefficients int or Fraction.
    """
    return column_sum(shape, row_sum(shape, terms))


def word_of_tableau(frame: TableauFrame, tableau: tuple[tuple[int, ...], ...]) -> Word:
    """Letter at position i = entry of the box labeled i (row-major)."""
    if tuple(len(r) for r in tableau) != frame.shape.parts:
        raise ValueError("tableau shape does not match the frame")
    return tuple(x for row in tableau for x in row)


def apply_symmetrizer(frame: TableauFrame, word: Word) -> SignedWordSum:
    """Signed double orbit sum of the word under the frame's groups.

    The row group acts first, the signed column group second; the
    coefficient of each image word is accumulated exactly.
    """
    if len(word) != frame.shape.n:
        raise ValueError("word length must equal the shape weight")
    return SignedWordSum(frame.shape, symmetrize(frame.shape, {word: 1}))


def inner_product_reduced(u: SignedWordSum, v: SignedWordSum) -> int:
    """Coefficientwise dot product (orthonormal model, q-factor removed)."""
    if u.shape != v.shape:
        raise ValueError("mismatched shapes")
    a, b = u.terms, v.terms
    if len(b) < len(a):
        a, b = b, a
    return sum(c * b.get(w, 0) for w, c in a.items())


def apply_symmetrizer_to_sum(shape: Partition, s: SignedWordSum) -> SignedWordSum:
    return SignedWordSum(shape, symmetrize(shape, s.terms))


def idempotent_scale(shape: Partition) -> int:
    """e^2 = scale * e; equals n! / (number of standard fillings)."""
    from .combinat import standard_tableau_count

    return math.factorial(shape.n) // standard_tableau_count(shape)
