import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from symdet.cli import _class_json
from symdet.exact import (
    _divisors,
    Binomials,
    Poly,
    SquareClassFormula,
    bareiss_det,
    factored_display,
    factorint,
    poly_factor_rational,
    poly_matrix_det,
    squarefree_part,
)

from reference import _fraction_det


class TestSquarefreePart:
    def test_perfect_square(self):
        assert squarefree_part(16) == (1, {2: 4})

    def test_twelve(self):
        assert squarefree_part(12) == (3, {2: 2, 3: 1})

    def test_fraction_normalizes_first(self):
        assert squarefree_part(Fraction(8, 2)) == (1, {2: 2})

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="zero has no square class"):
            squarefree_part(0)

    def test_fraction_class(self):
        # 3/4 ~ 3 modulo squares
        assert squarefree_part(Fraction(3, 4))[0] == 3

    def test_sign_preserved(self):
        assert squarefree_part(-12)[0] == -3

    @given(
        st.fractions(
            min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=60
        ).filter(lambda x: x != 0),
        st.integers(min_value=1, max_value=40),
    )
    def test_invariant_under_squares(self, x, y):
        assert squarefree_part(x * y * y)[0] == squarefree_part(x)[0]

    @given(st.integers(min_value=1, max_value=10**6))
    def test_factorization_reassembles(self, n):
        fact = factorint(n)
        prod = 1
        for p, e in fact.items():
            prod *= p**e
        assert prod == n

    def test_large_smooth(self):
        n = 10080**28 * 9**7
        fact = factorint(n)
        assert set(fact) == {2, 3, 5, 7}

    @pytest.mark.parametrize(
        "n",
        [318665857834031151167461, 100003 * 100019],
        ids=["psi_12", "100003*100019"],
    )
    def test_cofactor_beyond_trial_division_raises(self, n):
        # psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to
        # every base 2..37; trial division must refuse it, not guess
        with pytest.raises(ArithmeticError, match=str(n)):
            factorint(n)
        with pytest.raises(ArithmeticError, match=str(n)):
            squarefree_part(n * 7)

    def test_square_of_the_largest_trial_prime(self):
        assert factorint(99991**2 * 6) == {2: 1, 3: 1, 99991: 2}

    def test_prime_beyond_the_deterministic_bound_raises(self):
        with pytest.raises(ArithmeticError, match=str(2**89 - 1)):
            factorint(2**89 - 1)


class TestPoly:
    def test_evaluation_exact(self):
        p = Poly((Fraction(1, 3), 0, Fraction(2, 3)))
        assert p(3) == Fraction(1, 3) + 6

    def test_factored_str(self):
        assert Poly((0, Fraction(-1, 2), Fraction(1, 2))).factored_str() == "N*(N-1)/2"
        third = Fraction(1, 3)
        assert Poly((0, -third, 0, third)).factored_str() == "N*(N-1)*(N+1)/3"

    def test_factored_str_orders_factors_by_root(self):
        # roots 0, then 1/2 and 2 ascending, then -1/2 and -3 by size
        p = Poly((0, 1)) * Poly((-2, 1)) * Poly((-1, 2)) * Poly((3, 1)) * Poly((1, 2))
        assert p.factored_str() == "N*(2*N - 1)*(N-2)*(2*N + 1)*(N+3)"
        assert (Poly((1, 3, 2)) * Poly((1, 0, 1)) * 3).factored_str() == "3*(2*N + 1)*(N+1)*(N^2 + 1)"

    def test_factored_str_signs_and_constants(self):
        assert Poly().factored_str() == "0"
        assert Poly.const(Fraction(-1, 2)).factored_str() == "-1/2"
        assert Poly((0, -1)).factored_str() == "-N"
        # the sign is written once, ahead of the content's numerator
        assert Poly((0, -2)).factored_str() == "-2*N"
        p = Poly((-1, 1)) ** 2 * Poly((5, 1)) * Fraction(-3, 7)
        assert p.factored_str() == "-3*(N-1)^2*(N+5)/7"
        linear = [(Poly((5, 1)), 1), (Poly((-1, 1)), 2)]
        assert factored_display(Fraction(-3, 7), linear, Poly.const(1)) == "-3*(N-1)^2*(N+5)/7"

    def test_str_signs(self):
        # a negative leading coefficient is written as one signed term
        assert str(Poly((0, -2))) == "-2*N"
        assert str(Poly((-1,))) == "-1"
        assert str(Poly((1, 0, 0, 0, -1))) == "-N^4 + 1"
        assert str(Poly((-2, 3))) == "3*N - 2"
        assert str(Poly((Fraction(1, 2), -1, 1))) == "N^2 - N + 1/2"
        assert str(Poly()) == "0"


def _binomial_combo_poly(combo):
    """sum a_k * C(N,k) in the power basis, built without Binomials."""
    p = Poly()
    for k, a in enumerate(combo):
        term = Poly.const(Fraction(a, math.factorial(k)))
        for i in range(k):
            term = term * Poly((-i, 1))
        p = p + term
    return p


class TestBinomials:
    def test_unit_values(self):
        c3 = Binomials.unit(3)
        assert [c3(n) for n in range(6)] == [0, 0, 0, 1, 4, 10]

    def test_of_roundtrip(self):
        p = Poly((0, Fraction(-4, 3), 1, Fraction(1, 3)))  # 4*C(N,2) + 2*C(N,3)
        assert Binomials.of(p) == Binomials((0, 0, 4, 2))

    @given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6))
    def test_of_integer_valued(self, combo):
        p = _binomial_combo_poly(combo)
        b = Binomials.of(p)
        assert b == Binomials(combo)
        assert all(b(n) == p(n) for n in range(12))

    def test_of_rejects_non_integer_valued(self):
        with pytest.raises(ValueError, match=r"1/2\*N"):
            Binomials.of(Poly((0, Fraction(1, 2))))

    @given(st.lists(st.integers(min_value=-9, max_value=9), max_size=6))
    def test_mod2_parity(self, combo):
        b = Binomials(combo)
        r = b.mod2()
        assert set(r.coeffs) <= {0, 1}
        assert all((r(n) - b(n)) % 2 == 0 for n in range(12))
        assert not (b * 2).mod2()


class TestPolyFactorRational:
    def test_monic_difference_of_squares(self):
        content, linear, residual = poly_factor_rational(Poly((-1, 0, 1)))
        assert content == 1
        assert [(tuple(f.coeffs), m) for f, m in linear] == [((-1, 1), 1), ((1, 1), 1)]
        assert residual == Poly.const(1)

    def test_divisors_match_a_sieve(self):
        # the rational-root candidates; 5040 = 7! is the largest argument of any refined command with n <= 8
        top = 10_000
        sieve = [[] for _ in range(top + 1)]
        for d in range(1, top + 1):
            for multiple in range(d, top + 1, d):
                sieve[multiple].append(d)
        for n in range(1, top + 1):
            assert _divisors(n) == sieve[n], n

    def test_content_extraction(self):
        content, linear, residual = poly_factor_rational(Poly((-12, 0, 12)))
        assert content == 12
        assert len(linear) == 2 and residual == Poly.const(1)

    def test_known_quartic(self):
        # 2^20 * 5 * (N-2) N (N+1) (N+4)
        p = Poly.const(2**20 * 5)
        for r in (2, 0, -1, -4):
            p = p * Poly((-r, 1))
        content, linear, residual = poly_factor_rational(p)
        assert content == 2**20 * 5
        assert sorted(-f.coeffs[0] for f, _ in linear) == [-4, -1, 0, 2]
        assert residual == Poly.const(1)

    def test_irreducible_residual(self):
        content, linear, residual = poly_factor_rational(Poly((1, 0, 1)))
        assert not linear
        assert residual == Poly((1, 0, 1))

    @given(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=5),
        st.integers(min_value=-4, max_value=4),
    )
    def test_reassembly(self, coeffs, extra_root):
        p = Poly(coeffs)
        if not p:
            return
        p = p * Poly((-extra_root, 1))
        content, linear, residual = poly_factor_rational(p)
        prod = Poly.const(content)
        for fac, mult in linear:
            prod = prod * fac**mult
        assert prod * residual == p

    @given(
        st.integers(min_value=-99, max_value=99).filter(bool),
        st.integers(min_value=1, max_value=30),
        st.dictionaries(
            st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)),
            st.integers(min_value=1, max_value=3),
            max_size=4,
        ),
        st.integers(min_value=0, max_value=2),
    )
    def test_recovers_integer_factors(self, num, den, roots, e):
        # c * prod (q N - r)^m * (N^2 + N + 1)^e with r/q in lowest terms
        quadratic = Poly((1, 1, 1))
        p = Poly.const(Fraction(num, den)) * quadratic**e
        expected = []
        for root, m in roots.items():
            factor = Poly((-root.numerator, root.denominator))
            p = p * factor**m
            expected.append((factor, m))
        content, linear, residual = poly_factor_rational(p)
        assert content == Fraction(num, den)
        assert linear == sorted(expected, key=lambda t: tuple(t[0].coeffs))
        assert residual == quadratic**e


# (base, k, multiplier) of one factor base^(multiplier * C(N,k)), and whether
# it also multiplies in the linear polynomial N - base
_FACTORS = st.tuples(
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=-3, max_value=3),
    st.booleans(),
)


def _formula(factors) -> SquareClassFormula:
    terms = []
    for base, k, mult, linear in factors:
        exponent = Binomials.unit(k) * mult
        terms.append((base, exponent))
        if linear:
            terms.append((Poly((-base, 1)), exponent))
    return SquareClassFormula.product(terms)


def _snapshot(f: SquareClassFormula) -> tuple:
    return dict(f.factors), f.detB_exponent


class TestSquareClassFormula:
    def test_reduction_drops_even_exponents(self):
        f = SquareClassFormula.product([(16, Binomials.unit(2)), (12, Binomials.unit(3))])
        red = f.reduced()
        assert red.render_text() == "3^C(N,3)"

    def test_negative_exponents_reduce(self):
        f = SquareClassFormula.product([(8, Binomials.unit(1) * -3)])  # 8^(-3N) ~ 2^N
        assert f.reduced().render_text() == "2^N"

    def test_evaluate_class(self):
        f = SquareClassFormula.product([(3, Binomials.unit(3))])
        assert f.evaluate_class(3) == 3  # C(3,3) = 1
        assert f.evaluate_class(4) == 1  # C(4,3) = 4

    def test_poly_value_factors(self):
        f = SquareClassFormula.product([(Poly((-8, 8)), Binomials.unit(0))])  # 8(N-1)
        red = f.reduced()
        assert red.render_text() == "2 * (N - 1)"

    def test_value_of_a_reduced_poly_class(self):
        # 72 N^3 (N - 1)^2 (2N + 3) / 5 ~ 2 * 5 * N * (2N + 3)
        value = Poly((0, 0, 0, 72)) * Poly((-1, 1)) ** 2 * Poly((3, 2)) * Fraction(1, 5)
        f = SquareClassFormula.product([(value, Binomials.unit(0))]).reduced()
        assert f.value() == Poly((0, 1)) * Poly((3, 2)) * 10
        assert SquareClassFormula().value() == Poly.const(1)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_value_needs_constant_exponents(self, k):
        with pytest.raises(ValueError, match="not a constant"):
            SquareClassFormula.product([(3, Binomials.unit(k))]).value()
        poly = SquareClassFormula.product([(Poly((2, 1)), Binomials.unit(k))])
        with pytest.raises(ValueError, match="not a constant"):
            poly.value()

    def test_value_rejects_a_negative_exponent_and_det_b(self):
        with pytest.raises(ValueError, match="not a constant"):
            SquareClassFormula.product([(Fraction(1, 3), Binomials.unit(0))]).value()
        with pytest.raises(ValueError, match="det"):
            SquareClassFormula(detB_exponent=Poly.const(1)).value()

    def test_a_value_without_linear_split_raises(self):
        square = Poly((1, 0, 1)) ** 2  # (N^2 + 1)^2 is a square, yet has no linear split
        for value in (Poly((1, 0, 1)), square, square * Poly((-1, 1))):
            with pytest.raises(ArithmeticError, match="does not split into rational linear factors"):
                SquareClassFormula.product([(value, Binomials.unit(0))])

    @given(st.lists(_FACTORS, max_size=5), st.randoms(use_true_random=False))
    def test_product_ignores_the_order_of_its_terms(self, factors, rng):
        terms = []
        for base, k, mult, linear in factors:
            exponent = Binomials.unit(k) * mult
            terms.append((Fraction(base, k + 1), exponent))
            if linear:
                terms.append((Poly((-base, 1)) * 2, exponent))
        terms.append((_formula(factors[:2]), -1))
        shuffled = list(terms)
        rng.shuffle(shuffled)
        assert SquareClassFormula.product(shuffled) == SquareClassFormula.product(terms)

    @given(st.lists(_FACTORS, min_size=1, max_size=4), st.integers(min_value=1, max_value=3))
    def test_a_value_times_its_inverse_is_one(self, factors, power):
        formula = SquareClassFormula(_formula(factors).factors, Poly((-1, 1)))
        e = Binomials((1, 2, 0, 1))
        for value, exponent, inverse in (
            (Fraction(12, 35), e, e * -1),
            (Poly((-1, 2)) * Poly((0, 1)) * Fraction(9, 4), e, e * -1),
            (formula, power, -power),
        ):
            one = SquareClassFormula.product([(value, exponent), (value, inverse)])
            assert one == SquareClassFormula()
        det_b = SquareClassFormula.product([(formula, -1)], Poly((-1, 1)))
        assert det_b == SquareClassFormula({b: e * -1 for b, e in formula.factors.items()})

    def test_a_constant_formula_takes_a_binomials_power(self):
        e = Binomials((1, 2, 0, 1))
        constant = SquareClassFormula.product([(Poly((-1, 2)) * 12, Binomials.unit(0))])
        expect = SquareClassFormula.product([(Poly((-1, 2)) * 12, e)])
        assert SquareClassFormula.product([(constant, e)]) == expect
        for formula in (
            SquareClassFormula.product([(12, Binomials.unit(1))]),
            SquareClassFormula(constant.factors, Poly.const(1)),
        ):
            with pytest.raises(ValueError, match="has no power 1\\+2\\*N\\+C\\(N,3\\)"):
                SquareClassFormula.product([(formula, e)])

    def test_product_rejects_non_splitting_and_non_positive_values(self):
        with pytest.raises(ArithmeticError, match="-N\\^4 \\+ 1 does not split"):
            SquareClassFormula.product([(Poly((1, 0, 0, 0, -1)), Binomials.unit(0))])
        with pytest.raises(ValueError, match="negative content"):
            SquareClassFormula.product([(Poly((1, -1)), Binomials.unit(0))])
        for value in (0, -3, Fraction(-1, 2)):
            with pytest.raises(ValueError, match="only positive bases"):
                SquareClassFormula.product([(value, Binomials.unit(1))])

    def test_holds_only_factors_and_det_b(self):
        assert SquareClassFormula.__slots__ == ("factors", "detB_exponent")

    def test_tables_are_read_only_copies(self):
        factors = {2: Binomials.unit(2), Poly((-1, 1)): Binomials.unit(1)}
        f = SquareClassFormula(factors)
        factors[3] = Binomials.unit(1)
        assert dict(f.factors) == {2: Binomials.unit(2), Poly((-1, 1)): Binomials.unit(1)}
        with pytest.raises(TypeError):
            f.factors[5] = Binomials.unit(3)
        with pytest.raises(TypeError):
            f.factors[Poly((2, 1))] = Binomials.unit(3)
        with pytest.raises(AttributeError):
            f.factors.clear()

    @given(
        st.lists(_FACTORS, max_size=4),
        st.lists(_FACTORS, max_size=4),
        st.integers(min_value=-2, max_value=2),
    )
    def test_operations_leave_their_operands_unchanged(self, left, right, power):
        a, b = _formula(left), _formula(right)
        snapshots = [_snapshot(a), _snapshot(b)]
        SquareClassFormula.product([(a, 1), (b, power)])
        SquareClassFormula.product([(a, 1), (Poly((-3, 2)) * 6, Binomials.unit(2))])
        a.reduced()
        b.reduced()
        assert [_snapshot(a), _snapshot(b)] == snapshots

    def test_rendering_of_prime_and_polynomial_bases(self):
        terms = [
            (18, Binomials.unit(2)),
            (Poly((2, 1)), Binomials.unit(3) * 3),
            (Poly((-1, 1)), Binomials((1, 1))),
        ]
        f = SquareClassFormula.product(terms, Poly((-2, 0, 1)))
        text = "2^C(N,2) * 3^(2*C(N,2)) * (N - 1)^(1+N) * (N + 2)^(3*C(N,3)) * det(B)^(N^2 - 2)"
        assert f.render_text() == text
        assert f.render_latex() == (
            "2^{\\binom{N}{2}} 3^{2\\binom{N}{2}} (N - 1)^{1+N} (N + 2)^{3\\binom{N}{3}} "
            "\\det(B)^{N^2 - 2}"
        )
        assert _class_json(f) == {
            "factors": [
                {"base": "2", "exponent_binomials": {"2": "1"}},
                {"base": "3", "exponent_binomials": {"2": "2"}},
                {"base": "N - 1", "exponent_binomials": {"0": "1", "1": "1"}},
                {"base": "N + 2", "exponent_binomials": {"3": "3"}},
            ],
            "detB_exponent": "N^2 - 2",
            "display": text,
            "unreduced": False,
        }

    def test_json_roundtrip_stable(self):
        import json

        f = SquareClassFormula.product([(12, Binomials.unit(3))]).reduced()
        blob = json.dumps(_class_json(f))
        assert json.loads(blob) == _class_json(f)


@st.composite
def _symmetric_matrices(draw):
    """A random symmetric integer matrix, or A A^T + I, which is always positive definite."""
    n = draw(st.integers(min_value=1, max_value=4))
    a = [draw(st.lists(st.integers(min_value=-5, max_value=5), min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        return [[sum(x * y for x, y in zip(a[i], a[j])) + (i == j) for j in range(n)] for i in range(n)]
    return [[a[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


class TestLinearAlgebra:
    def test_bareiss_known(self):
        assert bareiss_det([[4, -2], [-2, 4]]) == 12
        assert bareiss_det([[12, -4, -4], [-4, 12, -4], [-4, -4, 12]]) == 1024
        assert bareiss_det([]) == 1

    def test_bareiss_singular(self):
        for rows in ([[1, 2], [2, 4]], [[0, 0], [0, 0]]):
            with pytest.raises(ArithmeticError, match="not positive definite"):
                bareiss_det(rows)

    def test_bareiss_needs_pivot(self):
        # pivoting would give -1; a Gram matrix never needs it, so a zero pivot raises
        with pytest.raises(ArithmeticError, match="leading principal minor 1 is 0"):
            bareiss_det([[0, 1], [1, 0]])

    @given(_symmetric_matrices())
    def test_bareiss_matches_fraction_elimination(self, rows):
        minors = [_fraction_det([row[:k] for row in rows[:k]]) for k in range(1, len(rows) + 1)]
        if all(m > 0 for m in minors):
            assert bareiss_det(rows) == minors[-1]
        else:
            with pytest.raises(ArithmeticError):
                bareiss_det(rows)

    def test_poly_det(self):
        n = Poly((0, 1))
        m = [[n, Poly.const(1)], [Poly.const(1), n]]
        assert poly_matrix_det(m) == n * n - 1
        assert poly_matrix_det([[n]]) == n
        assert poly_matrix_det([[Poly()]]) == Poly()
        assert poly_matrix_det([]) == Poly.const(1)
