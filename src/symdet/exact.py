"""Exact scalar and polynomial arithmetic.

Everything downstream works over plain Python integers and
:class:`fractions.Fraction` (both are arbitrary precision), univariate
polynomials in the formal dimension variable ``N``, and multiplicative
formulas taken modulo nonzero rational squares, whose exponents are
integer combinations of C(N,k).  Nothing in this module is ever
approximate: integers are factored by trial division alone, and a
cofactor too large to certify that way raises instead of being passed
by a probabilistic test.

Polynomials, exponent combinations and formulas are immutable values
(:class:`Value`, the slotted base of every value class in the package).
A square class has one form, the reduced :class:`SquareClassFormula`
with one factor table of primes and rational linear factors, and two
classes are compared with ``==``.  :meth:`SquareClassFormula.product` is
the one way a class is built, from rational, polynomial and formula
values raised to their exponents; a polynomial value that does not split
into rational linear factors has no such class and raises.  The class of
one polynomial value reads back as one through
:meth:`SquareClassFormula.value`, and every factored polynomial is
written out by :func:`factored_display`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

Rat = Union[int, Fraction]


class Value:
    """Immutable value whose fields are its ``__slots__``, set once by ``__init__``.

    ``__init__`` is the one constructor of every record class: it takes
    the fields positionally in slot order, and a wrong count raises
    TypeError naming the class and its fields.  Only a class that
    normalizes its fields defines a constructor of its own.  Two values
    are equal when they have the same class and equal field tuples, and
    the hash is the hash of the field tuple.  The repr reads
    ``Name(field=value, ...)``, assigning or deleting a field raises
    AttributeError, and a pickle rebuilds the value through its
    constructor from the field tuple.
    """

    __slots__ = ()

    def __init__(self, *fields):
        if len(fields) != len(self.__slots__):
            raise TypeError(
                f"{type(self).__name__} takes the fields ({', '.join(self.__slots__)}), "
                f"got {len(fields)} values"
            )
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


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


class Poly(Value):
    """Univariate polynomial in N with exact rational coefficients.

    Coefficients are stored ascending by degree; the zero polynomial has
    an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

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
        if not self.coeffs or not other.coeffs:
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
        if not self:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.coeffs:
            num = math.gcd(num, abs(c.numerator))
            den = den * c.denominator // math.gcd(den, c.denominator)
        g = Fraction(num, den)
        return g if self.coeffs[-1] > 0 else -g

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        if not self:
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
            sign = ("- " if c < 0 else "+ ") if parts else "-" if c < 0 else ""
            parts.append(sign + term)
        return " ".join(parts)

    def factored_str(self) -> str:
        """Product-of-linear-factors display, e.g. ``N*(N-1)/2``."""
        return factored_display(*poly_factor_rational(self)) if self else "0"


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
    lemma keeps the quotient integral with coprime coefficients).  The
    divisors come from ``factorint``, so a coefficient it cannot factor
    raises ArithmeticError.
    """
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    content = p.content()
    ints = [int(c / content) for c in p.coeffs]
    factors: list[tuple[Poly, int]] = []
    zeros = next(i for i, a in enumerate(ints) if a)
    if zeros:
        ints = ints[zeros:]
        factors.append((POLY_N, zeros))
    numerators = _divisors(abs(ints[0]))
    candidates = [(r, q) for q in _divisors(ints[-1]) for r in numerators if math.gcd(r, q) == 1]
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
    """The divisors of n > 0 in ascending order: the products of ``factorint(n)``'s prime powers."""
    out = [1]
    for p, e in factorint(n).items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def factored_display(content: Fraction, linear: Iterable[tuple[Poly, int]], residual: Poly) -> str:
    """``content * prod(factor**mult) * residual`` written as a product, e.g. ``N*(N-1)/2``.

    The arguments take the form :func:`poly_factor_rational` returns.
    The linear factors go in the order of their roots: N, then each
    positive root ascending, then each negative root by its size.  A
    monic factor prints as N, (N-r) or (N+r), any other as its
    polynomial.  The content's numerator leads unless it is 1 or -1, its
    sign heads the product and its denominator divides it.
    """

    def root_order(item: tuple[Poly, int]) -> tuple:
        root = -item[0].coeffs[0] / item[0].coeffs[1]
        return root != 0, root < 0, abs(root)

    pieces = [] if abs(content.numerator) == 1 else [str(abs(content.numerator))]
    for fac, mult in sorted(linear, key=root_order):
        shift = fac.coeffs[0]
        if fac.coeffs[1] != 1:
            s = f"({fac})"
        else:
            s = "N" if shift == 0 else f"(N-{-shift})" if shift < 0 else f"(N+{shift})"
        pieces.append(s if mult == 1 else f"{s}^{mult}")
    if residual.degree > 0:
        pieces.append(f"({residual})")
    body = ("-" if content < 0 else "") + ("*".join(pieces) or "1")
    return body if content.denominator == 1 else f"{body}/{content.denominator}"


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------


def bareiss_det(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a symmetric positive-definite integer matrix.

    Fraction-free (Bareiss) elimination with no pivot search.  The
    content of the whole matrix (the gcd of all its entries) is taken out
    first, which keeps the intermediate entries small, and its size-th
    power is multiplied back at the end; a row's own content would break
    the symmetry.  Every intermediate matrix is symmetric, so only its
    upper triangle is kept and eliminated.  The k-th pivot is the k-th
    leading principal minor of the scaled matrix, and the last one is its
    determinant, so by Sylvester's criterion the matrix is positive
    definite exactly when every pivot is > 0.  The first pivot <= 0
    raises ArithmeticError.
    """
    g = math.gcd(*(x for row in matrix for x in row)) or 1
    rows = [[x // g for x in row[i:]] for i, row in enumerate(matrix)]  # rows[i][j] is entry (i, i + j)
    prev = 1
    for k in range(1, len(rows) + 1):
        (p, *top), *rest = rows
        if p <= 0:
            raise ArithmeticError(f"leading principal minor {k} is {p * g**k}: not positive definite")
        rows = [
            [(x * p - a * y) // prev for x, y in zip(row, top[i:])]  # a: row k + i's entry in the pivot column
            for i, (row, a) in enumerate(zip(rest, top))
        ]
        prev = p
    return g ** len(matrix) * prev


def poly_matrix_det(matrix: list[list[Poly]]) -> Poly:
    """Determinant of a small polynomial matrix (cofactor expansion)."""
    n = len(matrix)
    if n == 0:
        return Poly.const(1)
    out = Poly()
    for j in range(n):
        if not matrix[0][j]:
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = matrix[0][j] * poly_matrix_det(minor)
        out = out + (term if j % 2 == 0 else -term)
    return out


# ---------------------------------------------------------------------------
# square-class formulas
# ---------------------------------------------------------------------------


class Binomials(Value):
    """Integer combination ``sum_k a_k * C(N,k)``, the exponent of a class factor.

    Coefficients are stored ascending by k with trailing zeros stripped,
    so equal combinations compare equal and the zero combination is
    falsy.  Reduction modulo squares is ``mod2`` on every coefficient.
    """

    __slots__ = ("coeffs",)

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


def _base_str(base: "int | Poly") -> str:
    return f"({base})" if isinstance(base, Poly) else str(base)


class SquareClassFormula(Value):
    """A product ``prod base^exponent(N) * det(B)^detB_exponent(N)``.

    One table, ``factors``, holds every base with its exponent: primes
    ascending, then the linear :class:`Poly` bases q*N - r (q > 0,
    gcd(q, r) = 1) by their coefficients.  Exponents are integer
    combinations of C(N,k) (:class:`Binomials`); the det(B) exponent is a
    polynomial in N.  A formula is immutable (its table is a read-only
    copy), and two classes are equal when their :meth:`reduced` forms
    compare ``==``.
    """

    __slots__ = ("factors", "detB_exponent")

    def __init__(
        self,
        factors: Mapping[int | Poly, Binomials] = MappingProxyType({}),
        detB_exponent: Poly = Poly(),
    ):
        order = sorted(factors, key=lambda b: (1, b.coeffs) if isinstance(b, Poly) else (0, b))
        super().__init__(MappingProxyType({b: factors[b] for b in order}), detB_exponent)

    def __reduce__(self):
        return SquareClassFormula, (dict(self.factors), self.detB_exponent)

    # -- construction -------------------------------------------------------

    @staticmethod
    def product(
        terms: Iterable[tuple["Rat | Poly | SquareClassFormula", "Binomials | int"]],
        detB_exponent: Poly = Poly(),
    ) -> "SquareClassFormula":
        """prod value^exponent over ``terms``, times det(B)^detB_exponent.

        A value is a positive rational, whose primes go in; a :class:`Poly`,
        whose content goes in as primes and whose rational linear factors
        become polynomial bases; or a formula, whose factors and det(B)
        exponent go in times an integer power.  A rational or polynomial
        value takes a :class:`Binomials` exponent, and so does a formula
        whose every exponent is a constant and which has no det(B) factor;
        any other formula with a :class:`Binomials` exponent raises
        ValueError.  Every exponent is added into one table, and zero
        exponents drop out at the end.  A polynomial that does not split
        into rational linear factors raises ArithmeticError: its class
        would need a square-free decomposition this engine does not make.
        """
        table: dict[int | Poly, Binomials] = {}

        def add(base: "int | Poly", e: Binomials) -> None:
            table[base] = table.get(base, Binomials()) + e

        for value, exponent in terms:
            if isinstance(value, SquareClassFormula):
                if not isinstance(exponent, Binomials):
                    for base, e in value.factors.items():
                        add(base, e * exponent)
                    detB_exponent = detB_exponent + value.detB_exponent * exponent
                elif value.detB_exponent or any(len(e.coeffs) > 1 for e in value.factors.values()):
                    raise ValueError(f"{value.render_text()} has no power {_exponent_str(exponent)}")
                else:
                    for base, e in value.factors.items():
                        add(base, exponent * e(0))
                continue
            if isinstance(value, Poly):
                content, linear, residual = poly_factor_rational(value)
                if residual.degree > 0:
                    raise ArithmeticError(f"{value} does not split into rational linear factors")
                if content < 0:
                    raise ValueError("negative content in a Gram determinant")
                for base, m in linear:
                    add(base, exponent * m)
            else:
                content = Fraction(value)
                if content <= 0:
                    raise ValueError("only positive bases occur in these formulas")
            for p, e in factorint(content.numerator).items():
                add(p, exponent * e)
            for p, e in factorint(content.denominator).items():
                add(p, exponent * -e)
        return SquareClassFormula({b: e for b, e in table.items() if e}, detB_exponent)

    # -- reduction -----------------------------------------------------------

    def reduced(self) -> "SquareClassFormula":
        """Canonical square-class form.

        Every binomial coefficient of every factor exponent is reduced
        mod 2 to {0,1}.  The det(B) exponent is exact bookkeeping and is
        left untouched.
        """
        return SquareClassFormula(
            {b: r for b, e in self.factors.items() if (r := e.mod2())},
            self.detB_exponent,
        )

    def value(self) -> Poly:
        """The product as a polynomial, e.g. a reduced class of one polynomial value.

        Raises ValueError unless every exponent is a constant >= 0 and
        there is no det(B) factor.
        """
        if self.detB_exponent:
            raise ValueError("a det(B) factor has no polynomial value")
        out = Poly.const(1)
        for base, e in self.factors.items():
            if len(e.coeffs) > 1 or e.coeffs[0] < 0:
                raise ValueError(f"exponent {_exponent_str(e)} is not a constant >= 0")
            out = out * base ** e.coeffs[0]
        return out

    def evaluate_class(self, n_value: int) -> int:
        """Squarefree representative at a concrete N (det(B) excluded)."""
        acc = Fraction(1)
        for base, e in self.factors.items():
            if e(n_value) % 2:
                v = base(n_value) if isinstance(base, Poly) else base
                if v == 0:
                    raise ZeroDivisionError("formula degenerates at this N")
                acc *= v
        return squarefree_part(acc)[0]

    # -- display ------------------------------------------------------------

    def render_text(self) -> str:
        parts = [_render_power(_base_str(b), e) for b, e in self.factors.items()]
        if self.detB_exponent:
            es = str(self.detB_exponent)
            parts.append("det(B)" if es == "1" else f"det(B)^({es})")
        return " * ".join(parts) if parts else "1"

    def render_latex(self) -> str:
        parts = [
            f"{_base_str(b)}^{{{_exponent_str(e, _LATEX_BINOM, '')}}}"
            for b, e in self.factors.items()
        ]
        if self.detB_exponent:
            parts.append(f"\\det(B)^{{{self.detB_exponent}}}")
        return " ".join(parts) if parts else "1"


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
