"""Row/column symmetrizer acting on formal sums of words.

A word is the letter sequence of a pure tensor (letter i at tensor
position i).  The symmetrizer of a shape is e = C*R, the signed sum C
over its column group after the sum R over its row group; applying it
to a word yields a signed integer combination of words with the same
letter multiset.  One kernel, ``symmetrize``, implements it for every
caller.  A plain ``dict[word, coeff]`` is the only word-sum type, and
every sign here is one rule: the parity of the inversions of a column's
letters or positions.

Neither half walks a whole group per word.  ``row_sum`` merges words by
row-sorted form and lists each orbit as its distinct words, weighted by
the order of the stabilizer.  ``column_classes`` merges words by
column-sorted form, each times the sign of its sort, and drops a word
with a repeated letter inside a column (C x = 0 for it).  C acts freely
on the other words, so <x, C y> = sgn(x) sgn(y) when x and y share a
column-sorted form and 0 otherwise; hence <R u, C R v> is the plain dot
product of the class coefficients of R u and R v, which is how the Gram
layer uses it.  ``column_sum`` expands each class once through C.

The free tail of a shape is row 1's last f = lambda_1 - lambda_2 boxes,
the boxes in columns of length 1 (the whole row for a one-row shape).
No element of C moves them, so two words of R u that differ only in
the order of their tail letters have equal class coefficients.  Hence

    sum_key a[key] * b[key] = sum_{key with sorted tail} a[key] * b[key] * w(key)

for a, b the classes of R u and R v, with w(key) = f! / prod m_x! the
number of distinct orderings of the key's tail multiset.
``row_sum(shape, terms, f)`` lists only the sorted-tail words of R u: in
row 1 the distinct orderings of the first lambda_2 letters, the tail
sorted.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

from .combinat import Partition

Word = tuple[int, ...]
Coeff = int | Fraction


@lru_cache(maxsize=None)
def _symmetrizer_tables(shape: Partition):
    """Row segments, column readers and the class-key placer of the row-major box labels.

    The boxes are labeled 0..n-1 row by row, so box (r, c), counted from
    0, is position lambda_1 + .. + lambda_r + c.  A segment (a, b) spans the positions
    of one row; a reader (positions, getter) returns the letters of one
    column of length >= 2, top to bottom.  The placer (None without such
    a column) maps the sorted letters of those columns, in reader order,
    followed by the whole word, to the word with each such column sorted
    in place.
    """
    starts = list(itertools.accumulate(shape.parts, initial=0))
    segs = tuple(zip(starts, starts[1:]))
    cols = [tuple(starts[r] + c for r in range(h)) for c, h in enumerate(shape.conjugate().parts) if h > 1]
    readers = tuple((col, itemgetter(*col)) for col in cols)
    sorted_at = {p: i for i, p in enumerate(p for col in cols for p in col)}
    place = itemgetter(*(sorted_at.get(p, len(sorted_at) + p) for p in range(shape.n))) if cols else None
    return segs, readers, place


@lru_cache(maxsize=None)
def _column_group(shape: Partition):
    """Signed getters of the column group; a getter maps a word to its image.

    Only :func:`column_sum` builds these.  An element sends the positions
    of each column to one of their orderings, and its sign is the
    inversion parity of those images, read off :func:`_column_sort` as
    :func:`column_classes` reads the sign of a sort.  With no column of
    length >= 2 the group is trivial and ``tuple`` is the identity.
    """
    _, readers, _ = _symmetrizer_tables(shape)
    if not readers:
        return ((tuple, 1),)
    cols = [col for col, _ in readers]
    group = []
    for images in itertools.product(*map(itertools.permutations, cols)):
        source = list(range(shape.n))
        odd = 0
        for col, image in zip(cols, images):
            odd ^= _column_sort(image)[1]
            for src, dst in zip(col, image):
                source[dst] = src
        group.append((itemgetter(*source), -1 if odd else 1))
    return tuple(group)


@lru_cache(maxsize=None)
def _orderings(row: Word, k: int) -> tuple[Word, ...]:
    """Distinct orderings of the sorted letters ``row`` whose places past k stay sorted.

    Each word is an ordered choice of k of the letters followed by the
    rest in sorted order; k = len(row) gives every distinct ordering.
    """
    if not k:
        return (row,)
    return tuple(
        (x,) + tail
        for i, x in enumerate(row)
        if not i or x != row[i - 1]
        for tail in _orderings(row[:i] + row[i + 1:], k - 1)
    )


@lru_cache(maxsize=None)
def stabilizer_order(row: Word) -> int:
    """Order of the stabilizer of the sorted letters ``row``: prod m! over their multiplicities m."""
    return math.prod(math.factorial(len(list(run))) for _, run in itertools.groupby(row))


def free_tail(shape: Partition) -> int:
    """f = lambda_1 - lambda_2, the number of boxes in columns of length 1.

    They are row 1's last f boxes: no column element moves them.
    """
    return shape.parts[0] - (shape.parts[1] if len(shape.parts) > 1 else 0)


def row_sum(shape: Partition, terms: dict[Word, Coeff], free: int = 0) -> dict[Word, Coeff]:
    """R*x, the row-group orbit sum, restricted to the words whose last ``free`` letters of row 1 are sorted.

    Words in one row orbit have the same orbit sum, so terms are merged
    by their row-sorted form w first.  R*w is |Stab(w)| times the sum of
    the distinct words of its orbit (one distinct ordering of each row, in
    every combination), where |Stab(w)| is the product of m! over the
    letter multiplicities m of each row.  Distinct orbits share no word.

    R*x and its column classes do not change when the free tail (see
    :func:`free_tail`) is reordered, so with free = f, R*x is the
    returned sum expanded over the distinct orderings of each word's
    tail.  free = 0 and free = 1 give all of R*x.
    """
    segs, _, _ = _symmetrizer_tables(shape)
    classes: dict[Word, Coeff] = {}
    for word, coeff in terms.items():
        key = tuple(x for a, b in segs for x in sorted(word[a:b]))
        classes[key] = classes.get(key, 0) + coeff
    out: dict[Word, Coeff] = {}
    for key, coeff in classes.items():
        if not coeff:
            continue
        words: list[Word] = [()]
        for i, (a, b) in enumerate(segs):
            row = key[a:b]
            coeff *= stabilizer_order(row)
            orders = _orderings(row, b - a - free if i == 0 else b - a)
            words = [w + o for w in words for o in orders]
        for w in words:
            out[w] = coeff
    return out


@lru_cache(maxsize=None)
def _column_sort(letters: Word) -> tuple[Word, int] | None:
    """A column's sorted letters and the inversion parity of the sort; None if a letter repeats."""
    if len(set(letters)) < len(letters):
        return None
    return tuple(sorted(letters)), sum(a > b for a, b in itertools.combinations(letters, 2)) & 1


def column_classes(shape: Partition, terms: dict[Word, Coeff]) -> dict[Word, Coeff]:
    """Terms merged by column-sorted form, each times the sign of its sort.

    C acts freely on a word y with no repeated letter inside a column, so
    <x, C y> = sgn(x) sgn(y) when x and y have the same column-sorted form
    and 0 otherwise; C x = sgn(x) C key for the sorted form key of x.  A
    word with a repeated letter inside a column has C x = 0 and no class.
    Each column's sort is looked up by its letters (:func:`_column_sort`).
    """
    _, readers, place = _symmetrizer_tables(shape)
    if not readers:  # C is trivial: each word is its own class
        return {w: c for w, c in terms.items() if c}
    classes: dict[Word, Coeff] = {}
    for word, coeff in terms.items():
        images: Word = ()
        odd = 0
        for _, read in readers:
            sort = _column_sort(read(word))
            if sort is None:
                break
            images += sort[0]
            odd ^= sort[1]
        else:
            key = place(images + word)
            classes[key] = classes.get(key, 0) + (-coeff if odd else coeff)
    return {k: c for k, c in classes.items() if c}


def column_sum(shape: Partition, terms: dict[Word, Coeff]) -> dict[Word, Coeff]:
    """C*x, the signed column-group sum: each class expanded once through C.

    Distinct classes have disjoint free orbits, so no image repeats.
    """
    classes = column_classes(shape, terms)
    out: dict[Word, Coeff] = {}
    for get, sign in _column_group(shape):
        for key, coeff in classes.items():
            out[get(key)] = sign * coeff
    return out


def symmetrize(shape: Partition, terms: dict[Word, Coeff]) -> dict[Word, Coeff]:
    """e*x = C*(R*x) for a combination of words of length shape.n.

    Letters may be any ints and coefficients int or Fraction.
    """
    return column_sum(shape, row_sum(shape, terms))
