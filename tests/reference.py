"""Test-side oracles: the paper's closed forms, tableau counters and a rational determinant.

No command runs any of these.  Each is checked against the engine by the
tests that import it:

- :func:`closed_form_c` and :func:`hook_block_det` are the paper's
  explicit results for the single row, the single column and the hooks
  (2,1^(n-2)) and (3,1^(n-3)), an oracle independent of the
  Gelfand-Tsetlin norms and of Jantzen's sum;
- :func:`enumerate_ssyt` lists the tableaux with entries up to N for the
  dense oracles, and :func:`standard_tableau_count` is the hook length
  formula;
- :func:`_fraction_det` eliminates over the rationals with row pivoting.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from symdet.combinat import Partition, _content_and_hook, compositions_of, patterns_of, ssyt_with_pattern
from symdet.exact import Binomials, SquareClassFormula

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
        return SquareClassFormula.product([(math.factorial(n), Binomials.unit(n))])
    if parts[0] == 2 and all(p == 1 for p in parts[1:]):
        return _closed_two_hook(n)
    if parts[0] == 3 and all(p == 1 for p in parts[1:]):
        return _closed_three_hook(n)
    return None


def _closed_row(n: int) -> SquareClassFormula:
    # product over compositions of the multinomial, per k-block
    return SquareClassFormula.product(
        (math.factorial(n) // math.prod(map(math.factorial, comp)), Binomials.unit(len(comp)))
        for comp in compositions_of(n)
    )


def _closed_two_hook(n: int) -> SquareClassFormula:
    # n^C(N,n) * ((n-1)!)^((n-1) * C(N+1,n))
    cn = Binomials.unit(n)
    cn1 = Binomials.unit(n - 1)
    return SquareClassFormula.product([(n, cn), (math.factorial(n - 1), (cn + cn1) * (n - 1))])


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
    return SquareClassFormula.product([(math.factorial(n - 2), x), (2, y), (n, z)])


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


# ---------------------------------------------------------------------------
# tableau counters
# ---------------------------------------------------------------------------


def standard_tableau_count(shape: Partition) -> int:
    """Number of standard fillings, by the hook length formula."""
    hooks = math.prod(hook for _, hook in _content_and_hook(shape))
    return math.factorial(shape.n) // hooks


def enumerate_ssyt(shape: Partition, max_letter: int) -> list[tuple[tuple[int, ...], ...]]:
    """Direct enumeration of all SSYT with entries in 1..max_letter."""
    out = []
    for pattern in patterns_of(shape):
        k = len(pattern)
        if k > max_letter:
            continue
        for tab in ssyt_with_pattern(shape, pattern):
            for letters in itertools.combinations(range(1, max_letter + 1), k):
                relabel = {i + 1: letters[i] for i in range(k)}
                out.append(tuple(tuple(relabel[x] for x in row) for row in tab))
    return out


# ---------------------------------------------------------------------------
# rational determinant
# ---------------------------------------------------------------------------


def _fraction_det(matrix) -> Fraction:
    """Determinant of a square matrix of rationals, by elimination with row pivoting."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            if m[i][k] == 0:
                continue
            f = m[i][k] * inv
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det
