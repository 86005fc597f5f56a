"""Gram blocks of symmetrized forms and their exact determinants.

For a shape of weight n the symmetrized form splits orthogonally by the
content of the tableau basis.  Contents sharing one multiplicity
pattern give the same integer block, and a pattern with k distinct
letters occurs once per k-subset of {1..N}, i.e. with multiplicity
C(N,k).  The determinant class of the whole form is therefore the
product over patterns of det(block)^C(N,k), times det(B) raised to the
exact exponent dim * n / N.

:func:`symmetrization_determinant` builds every block of one shape for
the exact product, serially unless more than one job is asked for, and
:func:`gram_block` accumulates each block key by key over the column
classes of its tableau images.  :func:`determinant_classes` needs the
class modulo rational squares only, and builds no block.  Take B
orthonormal: the tensor form is then contravariant for gl_N
(E_ij* = E_ji), and the image e V^(x)n is the irreducible module
S_lambda(V), so the form is c_lambda times the contravariant form under
which the Gelfand-Tsetlin basis is orthogonal, with the closed-form
norms of Molev, "Gelfand-Tsetlin bases for classical Lie algebras"
(Handbook of Algebra 4, 2006, arXiv:math/0211289), Thm 2.7.  The
tableau images and the GT vectors are both rational bases, so at a
concrete N = m the class of the whole form is c_lambda^dim times the
product of every GT norm with top row lambda padded to m.  Its values
at m = 0..n fix the C(N,k) exponents.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache, reduce
from itertools import product
from operator import xor

from .combinat import (
    Partition,
    Pattern,
    compositions_of,
    detb_exponent,
    dimension_poly,
    dominates,
    frame_of,
    ssyt_with_pattern,
)
from .exact import Binomials, Poly, SquareClassFormula, Value, bareiss_det

# the largest weight of a ``table`` or ``sym`` shape and of a golden sym row or matrix
MAX_TABLE_N = 9


class NoTableauxError(ValueError):
    """Requested a Gram block for a pattern admitting no tableaux."""


class GramBlock(Value):
    """Integer Gram block of one pattern and its exact determinant.

    Fields: shape: Partition, pattern: Pattern, matrix: tuple[tuple[int, ...], ...], det: int.
    """

    __slots__ = ("shape", "pattern", "matrix", "det")

    @property
    def size(self) -> int:
        return len(self.matrix)

    @property
    def k(self) -> int:
        """Number of distinct letters; the block multiplicity is C(N,k)."""
        return len(self.pattern)


def gram_block(shape: Partition, pattern: Pattern) -> GramBlock:
    """Exact Gram block of the symmetrized tableau basis for one pattern.

    Entry (s,t) is <e u_s, e u_t> = |C| * <R u_s, C R u_t> for tableau
    words u, since e = C*R with R* = R, C* = C and C^2 = |C|*C.  With
    a = column_classes(R u) that is |C| * sum_key a_s[key] * a_t[key], so
    no entry expands the column group.

    Row 1's last f = lambda_1 - lambda_2 boxes lie in columns of length 1,
    which no element of C moves, so a_s[key] does not change when the
    letters of that free tail are reordered.  Only the keys with a sorted
    tail are built (``row_sum_sorted_tail``), and each counts
    w(key) = f! / prod m_x! times, the number of orderings of its tail
    multiset:

        entry(s,t) = |C| * sum_key a_s[key] * a_t[key] * w(key).

    The block is the sparse product A W A^T of the class coefficients
    A[s][key] = a_s[key] and the diagonal weights W: it is accumulated
    key by key, over the pairs of tableaux that hold each key, and only
    the upper triangle is summed.

    Every entry is a multiple of |C|, so the determinant is
    |C|^size times the determinant of the |C|-free matrix.  That matrix
    is the Gram matrix of linearly independent vectors under a
    positive-definite form, so ``bareiss_det`` eliminates it with no
    pivot search; a pivot <= 0 raises ArithmeticError naming the shape
    and the pattern.
    """
    # imported here, on the sym-only path: determinant_classes needs no symmetrizer
    from .symmetrizer import column_classes, free_tail, row_sum_sorted_tail, stabilizer_order, word_of_tableau

    tableaux = ssyt_with_pattern(shape, pattern)
    if not tableaux:
        raise NoTableauxError(f"no tableaux for shape {shape} pattern {pattern}")
    frame = frame_of(shape)
    holders: dict[tuple[int, ...], list[tuple[int, int]]] = {}  # key -> [(s, a_s[key])], s ascending
    for s, t in enumerate(tableaux):
        classes = column_classes(shape, row_sum_sorted_tail(shape, {word_of_tableau(frame, t): 1}))
        for key, c in classes.items():
            holders.setdefault(key, []).append((s, c))
    free = free_tail(shape)
    tail = slice(shape.parts[0] - free, shape.parts[0])
    weights = {
        letters: math.factorial(free) // stabilizer_order(letters)
        for letters in {key[tail] for key in holders}
    }
    size = len(tableaux)
    reduced = [[0] * size for _ in range(size)]
    for key, held in holders.items():
        w = weights[key[tail]]
        for x, (s, c) in enumerate(held):
            row, wc = reduced[s], w * c
            for t, d in held[x:]:
                row[t] += wc * d
    for i in range(size):
        for j in range(i):
            reduced[i][j] = reduced[j][i]
    col_order = math.prod(math.factorial(len(col)) for col in frame.cols)
    matrix = tuple(tuple(col_order * v for v in row) for row in reduced)
    try:
        det = col_order**size * bareiss_det(reduced)
    except ArithmeticError as e:
        raise ArithmeticError(f"Gram block of shape {shape} pattern {pattern}: {e}") from e
    return GramBlock(shape, pattern, matrix, det)


class SymDetResult(Value):
    """Every Gram block of one shape and the exact determinant formula.

    Fields: shape: Partition, blocks: dict[Pattern, GramBlock], c_formula: SquareClassFormula
    (exact exponents, before square reduction), dimension: Poly, detB_exponent: Poly.
    """

    __slots__ = ("shape", "blocks", "c_formula", "dimension", "detB_exponent")


class DetClass(Value):
    """Determinant class modulo squares and dimension of one shape.

    Fields: shape: Partition, c_reduced: SquareClassFormula (reduced), dimension: Poly.
    """

    __slots__ = ("shape", "c_reduced", "dimension")


def patterns_of(shape: Partition) -> list[Pattern]:
    """Patterns with at least one tableau, in the deterministic order."""
    return [p for p in compositions_of(shape.n) if dominates(shape, p)]


def symmetrization_determinant(shape: Partition, jobs: int = 1) -> SymDetResult:
    """Every Gram block of one shape and the exact determinant formula.

    The blocks are built serially when min(jobs, cores, patterns) is 1,
    as it is at the default jobs = 1, and otherwise go to one pool of
    that many workers; either way they keep the order of
    ``patterns_of``, and det(block)^C(N,k) is multiplied in it.
    """
    if shape.n < 1:
        raise ValueError("need a partition of n >= 1")
    patterns = patterns_of(shape)
    workers = min(jobs, os.cpu_count() or 1, len(patterns))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunksize = max(1, len(patterns) // (16 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(gram_block, [shape] * len(patterns), patterns, chunksize=chunksize))
    else:
        blocks = [gram_block(shape, p) for p in patterns]
    c_formula = SquareClassFormula.product((b.det, Binomials.unit(b.k)) for b in blocks)
    dim = dimension_poly(shape)
    return SymDetResult(shape, {b.pattern: b for b in blocks}, c_formula, dim, detb_exponent(shape))


def determinant_classes(shapes: list[Partition]) -> list[DetClass]:
    """Reduced determinant class and dimension of each shape, in input order.

    Reads the class from Gelfand-Tsetlin norms (Molev, Thm 2.7) instead
    of building a block.  With B orthonormal the form on
    e V^(x)n ~ S_lambda(V) is gl_N-contravariant, hence c_lambda times
    the form in which the GT basis is orthogonal, and both bases are
    rational.  So at N = m

        class(m) = c_lambda^dim * prod_Lambda <xi_Lambda, xi_Lambda>

    modulo rational squares, over the dim GT patterns Lambda with top row
    lambda padded to m, where c_lambda = |C| * (prod lambda_i!)^2.  One
    memoized recursion over GT rows, shared by every shape, gives for
    each row the parity of the number of patterns below it and the XOR of
    their norm parities; a row's patterns are those of each interlacing
    row b below it, each times the step norm of (row, b).

    class(m) is the product of det(block_mu)^C(m,k) over the patterns
    mu with k distinct letters, so its exponents are e(m) = sum_k
    C(m,k) a_k and binomial inversion gives a_k = sum_{i<=k} C(k,i) e(i)
    modulo 2.  Only exponent parities are tracked, as bitmasks over the
    primes up to 2n + 2.
    """
    if any(shape.n < 1 for shape in shapes):
        raise ValueError("need a partition of n >= 1")
    primes, fact = _factorial_parities(2 * max((shape.n for shape in shapes), default=0) + 2)

    @lru_cache(maxsize=None)  # lives for this call, shared by every shape in it
    def below(row: tuple[int, ...]) -> tuple[int, int]:
        """Parity of the GT pattern count under ``row`` and the XOR of their norm masks."""
        if len(row) == 1:
            return 1, 0
        count = mask = 0
        for b in product(*(range(low, high + 1) for high, low in zip(row, row[1:]))):
            b_count, b_mask = below(b)
            count ^= b_count
            mask ^= b_mask ^ (_norm_step(row, b, fact) if b_count else 0)
        return count, mask

    results = {}
    for shape in dict.fromkeys(shapes):
        c_mask = reduce(xor, (fact[col] for col in shape.conjugate().parts))  # c_lambda ~ |C|
        e = [0] * len(shape)  # S_lambda(Q^m) = 0 for m < len(lambda)
        for m in range(len(shape), shape.n + 1):
            count, mask = below(shape.parts + (0,) * (m - len(shape)))
            e.append(mask ^ (c_mask if count else 0))
        a = [reduce(xor, (e[i] for i in range(k + 1) if math.comb(k, i) % 2)) for k in range(len(e))]
        c_reduced = SquareClassFormula({
            p: exps for j, p in enumerate(primes) if (exps := Binomials(a_k >> j & 1 for a_k in a))
        })
        results[shape] = DetClass(shape, c_reduced, dimension_poly(shape))
    return [results[shape] for shape in shapes]


def _factorial_parities(top: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The primes up to ``top`` and, for x = 0..top, the odd-exponent primes of x! as a bitmask.

    Bit i stands for the i-th prime; the exponents come from Legendre's
    formula v_p(x!) = sum_j floor(x / p^j).
    """
    primes = tuple(p for p in range(2, top + 1) if all(p % d for d in range(2, p)))
    masks = []
    for x in range(top + 1):
        mask = 0
        for i, p in enumerate(primes):
            v, q = 0, p
            while q <= x:
                v += x // q
                q *= p
            mask |= (v & 1) << i
        masks.append(mask)
    return primes, tuple(masks)


def _norm_step(row: tuple[int, ...], below: tuple[int, ...], fact: tuple[int, ...]) -> int:
    """Parity mask of the level-m factor of Molev's norm, row m over row m - 1.

    With l_i = row[i] - i and k_i = below[i] - i (0-based), the factor is
    prod_{i<=j<m-1} (l_i - k_j)! / (k_i - k_j)!  *  prod_{i<j<=m-1} (l_i - l_j - 1)! / (k_i - l_j - 1)!.
    """
    ls = [v - i for i, v in enumerate(row)]
    ks = [v - i for i, v in enumerate(below)]
    mask = 0
    for i, k_i in enumerate(ks):
        for j in range(i, len(ks)):
            mask ^= fact[ls[i] - ks[j]] ^ fact[k_i - ks[j]]
        for j in range(i + 1, len(ls)):
            mask ^= fact[ls[i] - ls[j] - 1] ^ fact[k_i - ls[j] - 1]
    return mask


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
