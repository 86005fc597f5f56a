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
"""

import math

from symdet.combinat import partitions_of
from symdet.gram import determinant_classes


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


def test_determinant_classes_match_jantzen_to_weight_twelve():
    shapes = [s for n in range(2, 13) for s in partitions_of(n)]
    assert len(shapes) == 270
    for shape, result in zip(shapes, determinant_classes(shapes)):
        factors = result.c_reduced.factors
        got = {p: tuple(c % 2 for c in e.coeffs) for p, e in factors.items()}
        assert got == _jantzen_class(shape.parts), shape
