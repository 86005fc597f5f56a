"""Exact scalar and polynomial arithmetic.

Everything downstream works over plain Python integers and
:class:`fractions.Fraction` (both are arbitrary precision), univariate
polynomials in the formal dimension variable ``N``, and multiplicative
formulas taken modulo nonzero rational squares, whose exponents are
integer combinations of C(N,k).  Nothing in this module is ever
approximate: integers are factored by trial division alone, and a
cofactor too large to certify that way raises instead of being passed
by a probabilistic test.

Polynomials, exponent combinations and formulas are immutable values.
A square class has one form, the reduced :class:`SquareClassFormula`,
and two classes are compared with ``==``; the class of one polynomial
value reads back as one through :meth:`SquareClassFormula.value`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Union

Rat = Union[int, Fraction]


class DegreeBoundError(ValueError):
    """Sampled data is not polynomial of the assumed degree."""


# ---------------------------------------------------------------------------
# integer factorization
# ---------------------------------------------------------------------------

_TRIAL_BOUND = 100_000


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer as {prime: exponent}.

    Trial division by 2 and the odd numbers p while p^2 <= n.  What is
    left is 1 or a prime: it has no factor below p and is less than
    p^2.  A cofactor that would need a trial divisor above
    ``_TRIAL_BOUND`` raises ArithmeticError instead of being guessed.
    """
    if n <= 0:
        raise ValueError("factorint needs a positive integer")
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        if p > _TRIAL_BOUND:
            raise ArithmeticError(f"cannot factor {n}: no prime factor up to {_TRIAL_BOUND}")
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def squarefree_part(x: Rat) -> tuple[int, dict[int, int]]:
    """Square class of a nonzero rational.

    Returns the squarefree integer representing ``x`` modulo nonzero
    rational squares together with the prime factorization of
    ``|numerator * denominator|`` (after normalization).  The sign of
    ``x`` is preserved on the squarefree representative.
    """
    x = Fraction(x)
    if x == 0:
        raise ValueError("zero has no square class")
    fact = factorint(abs(x.numerator) * x.denominator)
    sf = 1
    for p, e in fact.items():
        if e % 2:
            sf *= p
    return (sf if x > 0 else -sf), fact


# ---------------------------------------------------------------------------
# polynomials in N
# ---------------------------------------------------------------------------


def _as_fraction_tuple(coeffs: Iterable[Rat]) -> tuple[Fraction, ...]:
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class Poly:
    """Univariate polynomial in N with exact rational coefficients.

    Coefficients are stored ascending by degree; the zero polynomial has
    an empty coefficient tuple.
    """

    coeffs: tuple[Fraction, ...] = ()

    def __init__(self, coeffs: Iterable[Rat] = ()):
        object.__setattr__(self, "coeffs", _as_fraction_tuple(coeffs))

    # -- basics ------------------------------------------------------------

    @staticmethod
    def const(c: Rat) -> "Poly":
        return Poly((c,))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __call__(self, value: Rat) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Poly | Rat") -> "Poly":
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly | Rat") -> "Poly":
        return self + (-_coerce(other))

    def __mul__(self, other: "Poly | Rat") -> "Poly":
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        out = Poly.const(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- structure ----------------------------------------------------------

    def content(self) -> Fraction:
        """gcd of the coefficients, signed by the leading coefficient."""
        if self.is_zero():
            return Fraction(0)
        num = 0
        den = 1
        for c in self.coeffs:
            num = math.gcd(num, abs(c.numerator))
            den = den * c.denominator // math.gcd(den, c.denominator)
        g = Fraction(num, den)
        return g if self.leading() > 0 else -g

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = _frac_str(abs(c))
            else:
                mono = "N" if i == 1 else f"N^{i}"
                term = mono if abs(c) == 1 else f"{_frac_str(abs(c))}*{mono}"
            parts.append(("- " if c < 0 else "+ " if parts else "") + term)
        return " ".join(parts).lstrip("+ ")

    def factored_str(self) -> str:
        """Product-of-linear-factors display, e.g. ``N*(N-1)/2``."""
        if self.is_zero():
            return "0"
        content, linear, residual = poly_factor_rational(self)
        pieces = []
        if abs(content.numerator) != 1:
            pieces.append(str(content.numerator))

        def root_order(fm):
            root = -fm[0].coeffs[0] / fm[0].coeffs[1]
            if root == 0:
                return (0, Fraction(0))
            return (1, root) if root > 0 else (2, -root)

        for fac, mult in sorted(linear, key=root_order):
            if fac.leading() != 1:
                s = f"({fac})"
            else:
                root = -fac.coeffs[0]
                if root == 0:
                    s = "N"
                elif root > 0:
                    s = f"(N-{root})"
                else:
                    s = f"(N+{-root})"
            pieces.append(s if mult == 1 else f"{s}^{mult}")
        if residual.degree > 0:
            pieces.append(f"({residual})")
        body = "*".join(pieces) if pieces else "1"
        if content.numerator < 0:
            body = "-" + body
        if content.denominator != 1:
            body += f"/{content.denominator}"
        return body


def _coerce(v: "Poly | Rat") -> Poly:
    if isinstance(v, Poly):
        return v
    return Poly.const(v)


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


POLY_N = Poly((0, 1))


def poly_factor_rational(p: Poly) -> tuple[Fraction, list[tuple[Poly, int]], Poly]:
    """Split off the rational content and all rational linear factors.

    Returns ``(content, [(factor, multiplicity), ...], residual)`` with
    ``p == content * prod(factor**mult) * residual``, each factor an
    integer polynomial ``q*N - r`` with q > 0 and gcd(q, r) = 1, and the
    residual an integer polynomial with coprime coefficients, positive
    leading coefficient and no rational root.

    Works on the coprime integer coefficients of p / content throughout.
    A root r/q has q dividing the leading and r the constant coefficient
    of that polynomial, and every quotient's coefficients divide them
    too, so one pass over those candidates finds every root; each is
    tested as sum a_i r^i q^(d-i) == 0 and divided out exactly (Gauss's
    lemma keeps the quotient integral with coprime coefficients).
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    content = p.content()
    ints = [int(c / content) for c in p.coeffs]
    factors: list[tuple[Poly, int]] = []
    zeros = next(i for i, a in enumerate(ints) if a)
    if zeros:
        ints = ints[zeros:]
        factors.append((POLY_N, zeros))
    numerators = sorted(_divisors(abs(ints[0])))
    candidates = [
        (r, q) for q in sorted(_divisors(ints[-1])) for r in numerators if math.gcd(r, q) == 1
    ]
    for r, q in candidates:
        for root in (r, -r):
            mult = 0
            while len(ints) > 1 and _homogeneous_value(ints, root, q) == 0:
                ints = _deflate(ints, root, q)
                mult += 1
            if mult:
                factors.append((Poly((-root, q)), mult))
    factors.sort(key=lambda t: (t[0].degree, tuple(t[0].coeffs)))
    return content, factors, Poly(ints)


def _homogeneous_value(ints: list[int], r: int, q: int) -> int:
    """q^d * p(r/q) for p with ascending integer coefficients ``ints`` of degree d."""
    acc = ints[-1]
    q_power = 1
    for a in reversed(ints[:-1]):
        q_power *= q
        acc = acc * r + a * q_power
    return acc


def _deflate(ints: list[int], r: int, q: int) -> list[int]:
    """Quotient of p by q*N - r for a root r/q of p, exact by Gauss's lemma."""
    out = [0] * (len(ints) - 1)
    carry = 0
    for i in range(len(ints) - 1, 0, -1):
        carry = (ints[i] + r * carry) // q
        out[i - 1] = carry
    return out


def _divisors(n: int) -> list[int]:
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return out


def interpolate(points: list[tuple[int, Rat]], degree_bound: int) -> Poly:
    """Exact polynomial through ``points`` with checked degree bound.

    Fits the unique polynomial of degree <= ``degree_bound`` through the
    first ``degree_bound + 1`` points (Newton divided differences) and
    verifies it against every remaining point.  At least
    ``degree_bound + 2`` points with distinct abscissae are required, so
    the fit is always cross-checked.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    if len(points) < degree_bound + 2:
        raise ValueError("need at least degree_bound + 2 sample points")
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("sample abscissae must be distinct")
    fit = points[: degree_bound + 1]
    # divided difference table
    coefs = [Fraction(v) for _, v in fit]
    for j in range(1, len(fit)):
        for i in range(len(fit) - 1, j - 1, -1):
            coefs[i] = (coefs[i] - coefs[i - 1]) / (fit[i][0] - fit[i - j][0])
    poly = Poly()
    base = Poly.const(1)
    for i, c in enumerate(coefs):
        poly = poly + base * c
        base = base * Poly((-fit[i][0], 1))
    for x, v in points[degree_bound + 1:]:
        if poly(x) != Fraction(v):
            raise DegreeBoundError("degree bound violated")
    return poly


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------


def bareiss_det(matrix: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination.

    Each row's content (the gcd of its entries) is taken out first, which
    keeps the intermediate entries small, and multiplied back at the end.
    """
    contents = [math.gcd(*row) for row in matrix]
    if not all(contents):
        return 0
    scale = math.prod(contents)
    rows = [[x // g for x in row] for row, g in zip(matrix, contents)]
    prev = 1
    while len(rows) > 1:  # rows hold the columns not yet eliminated
        if not rows[0][0]:
            i = next((i for i, row in enumerate(rows) if row[0]), None)
            if i is None:
                return 0
            rows[0], rows[i] = rows[i], rows[0]
            scale = -scale
        (p, *top), *rest = rows
        rows = [[(x * p - row[0] * y) // prev for x, y in zip(row[1:], top)] for row in rest]
        prev = p
    return scale * rows[0][0] if rows else scale


def poly_matrix_det(matrix: list[list[Poly]]) -> Poly:
    """Determinant of a small polynomial matrix (cofactor expansion)."""
    n = len(matrix)
    if n == 0:
        return Poly.const(1)
    if n == 1:
        return matrix[0][0]
    if n == 2:
        return matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
    out = Poly()
    for j in range(n):
        if matrix[0][j].is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = matrix[0][j] * poly_matrix_det(minor)
        out = out + (term if j % 2 == 0 else -term)
    return out


# ---------------------------------------------------------------------------
# square-class formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Binomials:
    """Integer combination ``sum_k a_k * C(N,k)``, the exponent of a class factor.

    Coefficients are stored ascending by k with trailing zeros stripped,
    so equal combinations compare equal and the zero combination is
    falsy.  Reduction modulo squares is ``mod2`` on every coefficient.
    """

    coeffs: tuple[int, ...] = ()

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @staticmethod
    def unit(k: int) -> "Binomials":
        """C(N,k) itself."""
        return Binomials((0,) * k + (1,))

    @staticmethod
    def of(p: Poly) -> "Binomials":
        """An integer-valued polynomial in the binomial basis (forward differences at 0)."""
        vals = [p(i) for i in range(len(p.coeffs))]
        out = []
        while vals:
            out.append(vals[0])
            vals = [b - a for a, b in zip(vals, vals[1:])]
        if any(a.denominator != 1 for a in out):
            raise ValueError(f"exponent {p} is not integer-valued")
        return Binomials(a.numerator for a in out)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "Binomials") -> "Binomials":
        return Binomials(a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0))

    def __mul__(self, c: int) -> "Binomials":
        return Binomials(a * c for a in self.coeffs)

    def __call__(self, n: int) -> int:
        return sum(a * math.comb(n, k) for k, a in enumerate(self.coeffs))

    def mod2(self) -> "Binomials":
        return Binomials(a % 2 for a in self.coeffs)


def _add_exponents(table: Mapping, terms: Iterable[tuple]) -> dict:
    """A copy of ``table`` with each (base, exponent) of ``terms`` added; zero exponents drop out."""
    out = dict(table)
    for key, e in terms:
        out[key] = out.get(key, Binomials()) + e
        if not out[key]:
            del out[key]
    return out


def _rational_primes(value: Fraction, exponent: Binomials) -> Iterator[tuple[int, Binomials]]:
    """(p, exponent * v_p(value)) for each prime p of a positive rational."""
    for p, e in factorint(value.numerator).items():
        yield p, exponent * e
    for p, e in factorint(value.denominator).items():
        yield p, exponent * (-e)


@dataclass(frozen=True)
class SquareClassFormula:
    """A product ``prod base^exponent(N) * det(B)^detB_exponent(N)``.

    Integer bases are primes; polynomial bases are coprime-coefficient
    integer polynomials without rational roots beyond themselves (linear
    in everything this engine produces), keyed by their coefficient tuple.
    Factor exponents are integer combinations of C(N,k)
    (:class:`Binomials`); the det(B) exponent is a polynomial in N.  The
    ``unreduced`` flag marks formulas whose polynomial part could not be
    split into linear factors, in which case no square-class reduction
    was attempted on it.  A formula is immutable (its tables are
    read-only copies), and two classes are equal when their
    :meth:`reduced` forms compare ``==``.
    """

    prime_factors: Mapping[int, Binomials] = field(default_factory=dict)
    poly_factors: Mapping[tuple[Fraction, ...], Binomials] = field(default_factory=dict)
    detB_exponent: Poly = field(default_factory=Poly)
    unreduced: bool = False

    def __post_init__(self):
        object.__setattr__(self, "prime_factors", MappingProxyType(dict(self.prime_factors)))
        object.__setattr__(self, "poly_factors", MappingProxyType(dict(self.poly_factors)))

    # -- construction -------------------------------------------------------

    @staticmethod
    def one() -> "SquareClassFormula":
        return SquareClassFormula()

    @staticmethod
    def from_integer(value: Rat, exponent: Binomials) -> "SquareClassFormula":
        """value^exponent as a formula (value factored into primes)."""
        value = Fraction(value)
        if value <= 0:
            raise ValueError("only positive bases occur in these formulas")
        return SquareClassFormula(_add_exponents({}, _rational_primes(value, exponent)))

    def times(self, other: "SquareClassFormula", power: int = 1) -> "SquareClassFormula":
        """Product with other^power (power may be negative)."""
        primes = ((p, e * power) for p, e in other.prime_factors.items())
        polys = ((key, e * power) for key, e in other.poly_factors.items())
        return SquareClassFormula(
            _add_exponents(self.prime_factors, primes),
            _add_exponents(self.poly_factors, polys),
            self.detB_exponent + other.detB_exponent * power,
            self.unreduced or other.unreduced,
        )

    def with_poly_value(self, value: Poly, exponent: Binomials) -> "SquareClassFormula":
        """Product with value(N)^exponent, splitting value into factors.

        The content goes in through the prime table; linear factors
        become polynomial bases.  A nonsplitting residual sets the
        ``unreduced`` flag and is carried as an opaque polynomial base.
        """
        content, linear, residual = poly_factor_rational(value)
        if content < 0:
            raise ValueError("negative content in a Gram determinant")
        bases = [(fac.coeffs, exponent * mult) for fac, mult in linear]
        if residual.degree > 0:
            bases.append((residual.coeffs, exponent))
        return SquareClassFormula(
            _add_exponents(self.prime_factors, _rational_primes(content, exponent)),
            _add_exponents(self.poly_factors, bases),
            self.detB_exponent,
            self.unreduced or residual.degree > 0,
        )

    # -- reduction -----------------------------------------------------------

    def reduced(self) -> "SquareClassFormula":
        """Canonical square-class form.

        Every binomial coefficient of every factor exponent is reduced
        mod 2 to {0,1}.  The det(B) exponent is exact bookkeeping and is
        left untouched.
        """
        return SquareClassFormula(
            {p: r for p, e in self.prime_factors.items() if (r := e.mod2())},
            {key: r for key, e in self.poly_factors.items() if (r := e.mod2())},
            self.detB_exponent,
            self.unreduced,
        )

    def value(self) -> Poly:
        """The product as a polynomial, e.g. a reduced class of one polynomial value.

        Raises ValueError unless every exponent is a constant >= 0 and
        there is no det(B) factor.
        """
        if self.detB_exponent:
            raise ValueError("a det(B) factor has no polynomial value")
        out = Poly.const(1)
        polys = ((Poly(key), e) for key, e in self.poly_factors.items())
        for base, e in [*self.prime_factors.items(), *polys]:
            if len(e.coeffs) > 1 or e.coeffs[0] < 0:
                raise ValueError(f"exponent {_exponent_str(e)} is not a constant >= 0")
            out = out * base ** e.coeffs[0]
        return out

    def evaluate_class(self, n_value: int) -> int:
        """Squarefree representative at a concrete N (det(B) excluded)."""
        acc = Fraction(1)
        for p, e in self.prime_factors.items():
            if e(n_value) % 2:
                acc *= p
        for key, e in self.poly_factors.items():
            if e(n_value) % 2:
                v = Poly(key)(n_value)
                if v == 0:
                    raise ZeroDivisionError("formula degenerates at this N")
                acc *= v
        return squarefree_part(acc)[0]

    # -- display ------------------------------------------------------------

    def render_text(self, detb_name: str = "det(B)") -> str:
        parts = []
        for p in sorted(self.prime_factors):
            parts.append(_render_power(str(p), self.prime_factors[p]))
        for key in sorted(self.poly_factors):
            base = Poly(key)
            parts.append(_render_power(f"({base})", self.poly_factors[key]))
        if not self.detB_exponent.is_zero():
            es = str(self.detB_exponent)
            parts.append(detb_name if es == "1" else f"{detb_name}^({es})")
        return " * ".join(parts) if parts else "1"

    def render_latex(self) -> str:
        parts = []
        for p in sorted(self.prime_factors):
            parts.append(f"{p}^{{{_exponent_str(self.prime_factors[p], _LATEX_BINOM, '')}}}")
        for key in sorted(self.poly_factors):
            es = _exponent_str(self.poly_factors[key], _LATEX_BINOM, "")
            parts.append(f"({Poly(key)})^{{{es}}}")
        if not self.detB_exponent.is_zero():
            parts.append(f"\\det(B)^{{{self.detB_exponent}}}")
        return " ".join(parts) if parts else "1"

    def to_json(self) -> dict:
        factors = []
        for p in sorted(self.prime_factors):
            factors.append({
                "base": str(p),
                "exponent_binomials": _binomial_combo_json(self.prime_factors[p]),
            })
        for key in sorted(self.poly_factors):
            factors.append({
                "base": str(Poly(key)),
                "exponent_binomials": _binomial_combo_json(self.poly_factors[key]),
            })
        return {
            "factors": factors,
            "detB_exponent": str(self.detB_exponent),
            "display": self.render_text(),
            "unreduced": self.unreduced,
        }


_LATEX_BINOM = "\\binom{{N}}{{{}}}"


def _exponent_str(e: Binomials, binom: str = "C(N,{})", sep: str = "*") -> str:
    """``sum a_k * C(N,k)`` with C(N,1) written N; ``binom`` formats C(N,k) for k >= 2."""
    terms = []
    for k, a in enumerate(e.coeffs):
        if a == 0:
            continue
        if k == 0:
            terms.append(str(a))
            continue
        symbol = "N" if k == 1 else binom.format(k)
        terms.append(symbol if a == 1 else f"{a}{sep}{symbol}")
    return "+".join(terms) if terms else "0"


def _render_power(base: str, e: Binomials) -> str:
    es = _exponent_str(e)
    if es == "1":
        return base
    if "+" in es or "-" in es or "*" in es:
        es = f"({es})"
    return f"{base}^{es}"


def _binomial_combo_json(e: Binomials) -> dict[str, str]:
    return {str(k): str(a) for k, a in enumerate(e.coeffs) if a}
