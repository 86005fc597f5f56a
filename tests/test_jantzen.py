"""Determinant classes against Jantzen's sum formula.

Jantzen, *Representations of Algebraic Groups* (2nd ed., 2003), II.8.19:
the contravariant form on the Weyl module of highest weight lambda for
GL_m has, for every prime p,

    v_p(det) = sum_{a<b} sum_{t=1}^{h-1} v_p(t) * D(lambda - (h - t)(e_a - e_b)),

h = lambda_a - lambda_b + b - a, with D the alternating Weyl dimension.
The symmetrized form is c_lambda = |C| * (prod lambda_i!)^2 times it, and
the class is basis-independent modulo squares.  The class at N = m has
exponents sum_k C(m,k) a_k, so binomial inversion gives the C(N,k)
coefficients.  Nothing here reads golden data, a GT norm or a Gram block.

The weight-mu part of the same sum gives each Gram block exactly:

    det(block_mu) = |C|^size * prod_T stab(T)^2 * prod_p p^J_p,

over the size tableaux T of pattern mu, with stab(T) the product of
(multiplicity)! over the rows of T and their letters, lambda padded to
GL_k for k = len(mu), and J_p the sum above with D replaced by the
weight-mu multiplicity of the straightened character.  It shares no code
with the elimination that ``gram_block`` runs.
"""

import math
from fractions import Fraction
from itertools import groupby

import pytest

from symdet.combinat import Partition, partitions_of, patterns_of, ssyt_with_pattern
from symdet.exact import Binomials, SquareClassFormula
from symdet.gram import determinant_class, gram_block, symmetrization_determinant


def _valuation(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _weyl_dim(nu: list[int]) -> int:
    """prod_{i<j} (nu_i - nu_j + j - i) / (j - i), signed and possibly 0."""
    num = den = 1
    for i in range(len(nu)):
        for j in range(i + 1, len(nu)):
            num *= nu[i] - nu[j] + j - i
            den *= j - i
    return num // den


def _jantzen_parities(parts: tuple[int, ...], m: int, primes: list[int]) -> dict[int, int]:
    """v_p of the class at N = m, modulo 2, for each prime p."""
    lam = list(parts) + [0] * (m - len(parts))
    cols = [sum(1 for r in parts if r > j) for j in range(parts[0])]
    c_lambda = math.prod(math.factorial(c) for c in cols)
    c_lambda *= math.prod(math.factorial(r) for r in parts) ** 2
    out = {p: _weyl_dim(lam) * _valuation(c_lambda, p) for p in primes}
    for a in range(m):
        for b in range(a + 1, m):
            h = lam[a] - lam[b] + b - a
            for t in range(1, h):
                nu = list(lam)
                nu[a] -= h - t
                nu[b] += h - t
                if _weyl_dim(nu) % 2:
                    for p in primes:
                        out[p] += _valuation(t, p)
    return {p: v % 2 for p, v in out.items()}


def _jantzen_class(parts: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
    """Prime -> C(N,k) exponent parities for k = 0..n, zero primes left out."""
    n = sum(parts)
    primes = [p for p in range(2, 2 * n + 1) if all(p % d for d in range(2, p))]
    at = [{p: 0 for p in primes}] * len(parts)
    at += [_jantzen_parities(parts, m, primes) for m in range(len(parts), n + 1)]
    out = {}
    for p in primes:
        coeffs = [sum(math.comb(k, i) * at[i][p] for i in range(k + 1)) % 2 for k in range(n + 1)]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        if coeffs:
            out[p] = tuple(coeffs)
    return out


def _assert_classes_match_jantzen(shapes):
    for shape in shapes:
        factors = determinant_class(shape).c_reduced.factors
        got = {p: tuple(c % 2 for c in e.coeffs) for p, e in factors.items()}
        assert got == _jantzen_class(shape.parts), shape


def test_determinant_class_matches_jantzen_to_weight_twelve():
    shapes = [s for n in range(2, 13) for s in partitions_of(n)]
    assert len(shapes) == 270
    _assert_classes_match_jantzen(shapes)


@pytest.mark.slow
@pytest.mark.parametrize("n", range(13, 17))
def test_determinant_class_matches_jantzen_at_table_weights_above_twelve(n):
    # table accepts n <= 16, so every weight it prints has this guard
    _assert_classes_match_jantzen(partitions_of(n))


def _weight_multiplicity(nu: list[int], pattern: tuple[int, ...]) -> int:
    """Multiplicity of weight ``pattern`` in the Weyl character chi(nu) of GL_k, signed and possibly 0.

    nu + rho is sorted into decreasing order by some w: chi(nu) is 0 when
    two entries coincide, and otherwise sign(w) times the character of
    kappa = w(nu + rho) - rho, whose weight multiplicities are Kostka numbers.
    """
    k = len(nu)
    shifted = [v + k - 1 - i for i, v in enumerate(nu)]
    if len(set(shifted)) < k:
        return 0
    inversions = sum(shifted[i] < shifted[j] for i in range(k) for j in range(i + 1, k))
    kappa = [v - (k - 1 - i) for i, v in enumerate(sorted(shifted, reverse=True))]
    kostka = len(ssyt_with_pattern(Partition(v for v in kappa if v), pattern))
    return -kostka if inversions % 2 else kostka


def _jantzen_block_det(shape: Partition, pattern: tuple[int, ...]) -> int:
    """|C|^size * prod_T stab(T)^2 * prod_p p^J_p for the block of ``pattern``.

    prod_p p^J_p is prod t^m(nu) over the terms (a, b, t) of the sum, with
    m(nu) the weight-mu multiplicity of chi(nu).
    """
    k = len(pattern)
    lam = list(shape.parts) + [0] * (k - len(shape.parts))
    tableaux = ssyt_with_pattern(shape, pattern)
    col_order = math.prod(math.factorial(c) for c in shape.conjugate().parts)
    stab = math.prod(math.factorial(len(list(run))) for t in tableaux for row in t for _, run in groupby(row))
    det = Fraction(col_order ** len(tableaux) * stab**2)
    for a in range(k):
        for b in range(a + 1, k):
            h = lam[a] - lam[b] + b - a
            for t in range(1, h):
                nu = list(lam)
                nu[a] -= h - t
                nu[b] += h - t
                det *= Fraction(t) ** _weight_multiplicity(nu, pattern)
    assert det.denominator == 1, (shape, pattern, det)
    return det.numerator


def test_block_determinants_match_jantzen_to_weight_eight():
    blocks = 0
    for n in range(1, 9):
        for shape in partitions_of(n):
            if n <= 7:
                result = symmetrization_determinant(shape)
                dets = {p: _jantzen_block_det(shape, p) for p in result.blocks}
                for p, block in result.blocks.items():
                    assert block.det == dets[p], (shape, p)
                expect = SquareClassFormula.product((det, Binomials.unit(len(p))) for p, det in dets.items())
                assert result.c_formula == expect, shape
            else:
                for p in patterns_of(shape):
                    assert gram_block(shape, p).det == _jantzen_block_det(shape, p), (shape, p)
            blocks += len(patterns_of(shape))
    assert blocks == 907 + 1729


@pytest.mark.slow
@pytest.mark.parametrize("shape", partitions_of(9), ids=str)
def test_block_determinants_match_jantzen_at_weight_nine(shape):
    for p in patterns_of(shape):
        assert gram_block(shape, p).det == _jantzen_block_det(shape, p), (shape, p)
