import hashlib
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import symdet.combinat
import symdet.exact
import symdet.refined
from symdet.cli import _class_json
from symdet.combinat import Partition, partitions_of
from symdet.exact import Binomials, Poly, SquareClassFormula, poly_matrix_det
from symdet.refined import (
    ConcreteTensor,
    chain_pool,
    constituent_gram,
    constituent_poly,
    embed_chain,
    phi_insert,
    pi_contract,
    reference_vector,
    refined_decomposition,
    symmetrize_tensor,
)
from symdet.symmetrizer import symmetrize

P = Partition


def _tensor(degree, dim, terms):
    return ConcreteTensor(degree, dim, {w: Fraction(c) for w, c in terms.items()})


class TestPhiPi:
    def test_phi_on_scalar(self):
        t = _tensor(0, 3, {(): 1})
        out = phi_insert(t, 1, 2)
        assert out.terms == {(k, k): 1 for k in (1, 2, 3)}

    def test_phi_positions(self):
        t = _tensor(1, 2, {(9,): 1})
        out = phi_insert(t, 1, 3)
        assert out.terms == {(1, 9, 1): 1, (2, 9, 2): 1}

    def test_phi_range_check(self):
        with pytest.raises(ValueError):
            phi_insert(_tensor(1, 2, {(1,): 1}), 2, 5)

    def test_pi_matching_letters(self):
        t = _tensor(3, 4, {(1, 1, 2): 1})
        assert pi_contract(t, 1, 2).terms == {(2,): 1}

    def test_pi_orthogonal_letters_vanish(self):
        t = _tensor(3, 4, {(1, 2, 3): 1})
        assert pi_contract(t, 1, 2).terms == {}

    def test_pi_range_check(self):
        with pytest.raises(ValueError):
            pi_contract(_tensor(2, 3, {(1, 2): 1}), 1, 3)

    def test_phi_term_count(self):
        # inserting into a single letter at dimension 4 spreads into 4 terms
        t = _tensor(1, 4, {(1,): 1})
        assert len(phi_insert(t, 1, 2).terms) == 4


def _random_sparse(data, degree, dim):
    n_terms = data.draw(st.integers(min_value=1, max_value=4))
    terms = {}
    for _ in range(n_terms):
        w = tuple(
            data.draw(st.integers(min_value=1, max_value=dim)) for _ in range(degree)
        )
        terms[w] = terms.get(w, 0) + data.draw(
            st.integers(min_value=-5, max_value=5)
        )
    return ConcreteTensor(degree, dim, {w: Fraction(c) for w, c in terms.items() if c})


class TestRoundTripAndIsometry:
    @settings(max_examples=60)
    @given(st.data())
    def test_pi_phi_is_dimension_times_identity(self, data):
        dim = data.draw(st.integers(min_value=2, max_value=6))
        degree = data.draw(st.integers(min_value=0, max_value=3))
        t = _random_sparse(data, degree, dim)
        i = data.draw(st.integers(min_value=1, max_value=degree + 1))
        j = data.draw(st.integers(min_value=i + 1, max_value=degree + 2))
        back = pi_contract(phi_insert(t, i, j), i, j)
        assert back.terms == {w: dim * c for w, c in t.terms.items()}

    @settings(max_examples=60)
    @given(st.data())
    def test_insertion_is_isometric_up_to_dimension(self, data):
        dim = data.draw(st.integers(min_value=2, max_value=6))
        degree = data.draw(st.integers(min_value=0, max_value=3))
        t = _random_sparse(data, degree, dim)
        i = data.draw(st.integers(min_value=1, max_value=degree + 1))
        j = data.draw(st.integers(min_value=i + 1, max_value=degree + 2))
        image = phi_insert(t, i, j)
        assert image.norm() == dim * t.norm()


class TestEmbedChain:
    def test_single_pair_equals_phi(self):
        t = _tensor(2, 3, {(1, 2): 2, (2, 1): -1})
        front = {w: c for k in (1, 2, 3) for w, c in (((k, k, 1, 2), 2), ((k, k, 2, 1), -1))}
        spread = {w: c for k in (1, 2, 3) for w, c in (((1, k, 2, k), 2), ((2, k, 1, k), -1))}
        assert embed_chain(((1, 2),), t, 4).terms == phi_insert(t, 1, 2).terms == front
        assert embed_chain(((2, 4),), t, 4).terms == phi_insert(t, 2, 4).terms == spread

    def test_two_pairs(self):
        t = _tensor(0, 2, {(): 1})
        out = embed_chain(((1, 2), (3, 4)), t, 4)
        assert out.terms == {
            (k, k, l, l): 1 for k in (1, 2) for l in (1, 2)
        }

    def test_disjointness_enforced(self):
        t = _tensor(0, 2, {(): 1})
        with pytest.raises(ValueError):
            embed_chain(((1, 2), (2, 3)), t, 4)

    def test_degree_bridge_enforced(self):
        t = _tensor(1, 2, {(1,): 1})
        with pytest.raises(ValueError):
            embed_chain(((1, 2),), t, 4)


class TestChainPools:
    def test_structured_pool_starts_aligned(self):
        pool = chain_pool(6, 2)
        assert pool[0] == ((1, 2), (3, 4))
        assert ((1, 2), (5, 6)) in pool

    def test_pool_lists_each_pair_set_once(self):
        # C(n, 2j) choices of the paired positions times (2j-1)!! matchings of them
        for n in range(2, 10):
            for j in range(1, n // 2 + 1):
                pool = chain_pool(n, j)
                assert len(pool) == math.comb(n, 2 * j) * math.prod(range(1, 2 * j, 2)), (n, j)
                assert len(set(map(frozenset, pool))) == len(pool), (n, j)

    def test_structured_prefix_keeps_its_order(self):
        # the structured chains come first, unsorted ones included; the later
        # orderings of ((1,2),(7,8),(3,5),(4,6)) are gone, so the lexicographic tail follows
        assert chain_pool(7, 3)[:5] == [
            ((1, 2), (3, 4), (5, 6)),
            ((1, 2), (3, 4), (5, 7)),
            ((1, 2), (5, 6), (3, 7)),
            ((1, 2), (3, 5), (4, 6)),
            ((1, 2), (3, 4), (6, 7)),
        ]
        assert chain_pool(8, 4)[:5] == [
            ((1, 2), (3, 4), (5, 6), (7, 8)),
            ((1, 2), (3, 4), (5, 7), (6, 8)),
            ((1, 2), (5, 6), (3, 7), (4, 8)),
            ((1, 2), (7, 8), (3, 5), (4, 6)),
            ((1, 2), (3, 4), (5, 8), (6, 7)),
        ]

    def test_scan_order_is_pinned(self):
        # refined prints the chains it keeps, so every pool's whole order is fixed
        pools = [(n, j, chain_pool(n, j)) for n in range(2, 10) for j in range(1, n // 2 + 1)]
        assert hashlib.sha256(repr(pools).encode()).hexdigest() == (
            "7b6340a7e4702fc16f4496bc476fa650fea6dff7fce9d6c91e4293474c047606"
        )

    def test_pool_pairs_disjoint(self):
        for n, j in ((4, 2), (6, 2), (6, 3), (7, 3)):
            for chain in chain_pool(n, j):
                flat = [x for ij in chain for x in ij]
                assert len(set(flat)) == len(flat)


class TestReferenceVector:
    def test_traceless(self):
        for gamma in (P((2,)), P((1, 1)), P((2, 1)), P((3,))):
            v = reference_vector(gamma, 6)
            m = gamma.n
            for i in range(1, m + 1):
                for j in range(i + 1, m + 1):
                    assert pi_contract(v, i, j).is_zero(), (gamma, i, j)

    def test_nonzero(self):
        for gamma in (P(()), P((1,)), P((2, 2))):
            assert not reference_vector(gamma, 5).is_zero()


class TestConstituentGram:
    def test_smallest_two_row_case(self):
        g = constituent_gram(P((2, 1)), P((1,)), [((1, 2),)], 5)
        assert g == [[Fraction(32)]]  # 8(N-1) at N=5

    def test_ambient_too_small(self):
        with pytest.raises(ValueError, match="ambient too small"):
            constituent_gram(P((2, 1)), P((1,)), [((1, 2),)], 2)

    def test_exterior_power_images_vanish(self):
        g = constituent_gram(P((1, 1, 1)), P((1,)), [((1, 2),)], 4)
        assert g == [[Fraction(0)]]


class TestConstituentPoly:
    def test_known_couplings(self):
        c = constituent_poly(P((3, 1)), P((2,)))
        assert c.c_matrix == ((Poly((0, 16)),),)  # 16N, reduced N
        assert c.c_reduced.value() == Poly((0, 1))
        c = constituent_poly(P((3, 1)), P((1, 1)))
        assert c.c_matrix == ((Poly((64, 32)),),)  # 32(N+2)
        assert c.c_reduced.value() == Poly((4, 2))

    def test_reference_norm_is_the_product_of_the_group_orders(self):
        # the coupling's scale |C| / |C'| rests on <e' w0, e' w0> = |C'| |R'|
        for m in range(1, 8):
            for gamma in partitions_of(m):
                v = symmetrize(gamma, {tuple(range(1, m + 1)): 1})
                orders = math.prod(map(math.factorial, gamma.conjugate().parts + gamma.parts))
                assert sum(c * c for c in v.values()) == orders, gamma

    def test_absent_for_exterior_powers(self):
        assert constituent_poly(P((1, 1, 1)), P((1,))) is None
        assert constituent_poly(P((1, 1, 1, 1)), P((1, 1))) is None

    def test_row_shape_closed_forms_exact(self):
        # one insertion: 2 n! (n-2)! (N + 2(n-2))
        for n in (4, 5, 6):
            c = constituent_poly(P((n,)), P((n - 2,)))
            expect = Poly((2 * (n - 2), 1)) * (
                2 * math.factorial(n) * math.factorial(n - 2)
            )
            assert c.multiplicity == 1
            assert c.c_det == expect, n

    def test_row_shape_double_insertion_exact(self):
        # two insertions: 8 n! (n-4)! (N + 2(n-4)) (N + 2(n-3))
        for n in (4, 5, 6):
            gamma = P((n - 4,)) if n > 4 else P(())
            c = constituent_poly(P((n,)), gamma)
            expect = (
                Poly((2 * (n - 4), 1))
                * Poly((2 * (n - 3), 1))
                * (8 * math.factorial(n) * math.factorial(n - 4))
            )
            assert c.c_det == expect, n

    def test_near_column_hook_exact(self):
        # 4 (n-1)! (n-2)! (N - (n-2)), reduced (n-1)(N-(n-2))
        for n in (4, 5, 6):
            lam = P((2,) + (1,) * (n - 2))
            c = constituent_poly(lam, P((1,) * (n - 2)))
            expect = Poly((-(n - 2), 1)) * (
                4 * math.factorial(n - 1) * math.factorial(n - 2)
            )
            assert c.c_det == expect, n
            const = {4: 3, 5: 1, 6: 5}[n]
            assert c.c_reduced.value() == Poly((-(n - 2), 1)) * const

    def test_five_two_three_has_multiplicity_two(self):
        c = constituent_poly(P((5, 2)), P((3,)))
        assert c.multiplicity == 2
        roots = (2, -1, -2, -6)
        assert c.c_reduced.value() == math.prod((Poly((-r, 1)) for r in roots), start=Poly.const(10))

    def test_scan_cannot_pass_the_multiplicity(self, monkeypatch):
        # with the target raised by one, the candidate chains must run out
        def one_more(shape, gamma):
            return symdet.combinat.littlewood_multiplicity(shape, gamma) + 1

        monkeypatch.setattr(symdet.refined, "littlewood_multiplicity", one_more)
        pairs = [
            (shape, gamma)
            for n in range(2, 7)
            for shape in partitions_of(n)
            for j in range(1, n // 2 + 1)
            for gamma in partitions_of(n - 2 * j)
        ]
        assert len(pairs) == 136
        for shape, gamma in pairs:
            with pytest.raises(ArithmeticError, match="Littlewood multiplicity"):
                constituent_poly(shape, gamma)

    def test_gamma_weight_checked(self):
        with pytest.raises(ValueError):
            constituent_poly(P((3, 1)), P((3,)))
        with pytest.raises(ValueError):
            constituent_poly(P((3, 1)), P((4,)))


def _el_samra_king(shape):
    """O(N) dimension of the traceless part, El Samra-King (1979).

    Product over boxes (i,j) of (N + r)/hook with r = l_i + l_j - i - j
    on and above the diagonal and r = -l'_i - l'_j + i + j - 2 below it.
    """
    rows = list(shape.parts)
    cols = [sum(1 for p in rows if p > c) for c in range(rows[0])]
    row = lambda i: rows[i - 1] if i <= len(rows) else 0
    col = lambda i: cols[i - 1] if i <= len(cols) else 0
    out = Poly.const(1)
    for i in range(1, len(rows) + 1):
        for j in range(1, rows[i - 1] + 1):
            r = row(i) + row(j) - i - j if i <= j else -col(i) - col(j) + i + j - 2
            hook = (row(i) - j) + (col(j) - i) + 1
            out = out * Poly((Fraction(r, hook), Fraction(1, hook)))
    return out


class TestRefinedDecomposition:
    def test_two_one(self):
        r = refined_decomposition(P((2, 1)))
        assert [c.gamma for c in r.constituents] == [P((1,))]
        assert r.constituents[0].c_matrix == ((Poly((-8, 8)),),)
        assert r.refined_dimension.factored_str() == "N*(N-2)*(N+2)/3"
        reduced = r.refined_det.reduced()
        assert reduced.detB_exponent == Poly((-2, 0, 1))

    def test_three_one_dimension(self):
        r = refined_decomposition(P((3, 1)))
        assert r.refined_dimension.factored_str() == "(N-1)*(N-2)*(N+1)*(N+4)/8"

    def test_exterior_untouched(self):
        r = refined_decomposition(P((1, 1, 1)))
        assert r.constituents == ()
        sym_det = refined_decomposition(P((1, 1, 1))).refined_det
        from symdet.gram import symmetrization_determinant

        sym = symmetrization_determinant(P((1, 1, 1)))
        full = SquareClassFormula(sym.c_formula.factors, sym.detB_exponent)
        assert sym_det.reduced().render_text() == full.reduced().render_text()

    def test_cached_results_cannot_be_mutated(self):
        r = refined_decomposition(P((3, 1)))
        with pytest.raises(AttributeError):
            r.constituents.clear()
        with pytest.raises(AttributeError):
            refined_decomposition(P((2, 2))).refined_det.factors.clear()
        with pytest.raises(AttributeError):
            r.refined_dimension = Poly()
        with pytest.raises(AttributeError):
            r.constituents[0].multiplicity = 3
        assert len(refined_decomposition(P((3, 1))).constituents) == 2
        assert refined_decomposition(P((2, 2))).refined_det.factors

    @pytest.mark.parametrize(
        "shape", [p for n in range(2, 9) for p in partitions_of(n)], ids=str
    )
    def test_dimension_matches_el_samra_king(self, shape):
        assert refined_decomposition(shape).refined_dimension == _el_samra_king(shape)

    @pytest.mark.parametrize(
        "shape", [p for n in range(2, 9) for p in partitions_of(n)], ids=str
    )
    def test_coupling_det_is_the_last_accepted_trial(self, shape):
        for c in refined_decomposition(shape).constituents:
            assert c.c_det == poly_matrix_det([list(row) for row in c.c_matrix])
            assert c.c_det
            assert len(c.chains) == c.multiplicity

    @pytest.mark.parametrize(
        "shape", [p for n in range(2, 9) for p in partitions_of(n)], ids=str
    )
    def test_every_class_is_held_reduced(self, shape):
        result = refined_decomposition(shape)
        assert result.refined_det == result.refined_det.reduced()
        for c in result.constituents:
            exact = SquareClassFormula.product([(c.c_det, Binomials.unit(0))])
            assert c.c_reduced == exact.reduced()

    def test_degree_limit(self):
        with pytest.raises(ValueError):
            refined_decomposition(P((9,)))

    def test_base_cases(self):
        empty = refined_decomposition(P(()))
        assert empty.refined_dimension == Poly.const(1)
        single = refined_decomposition(P((1,)))
        assert single.refined_dimension == Poly((0, 1))
        assert single.refined_det.detB_exponent == Poly.const(1)

    def test_rendering_of_the_refined_two_one_determinant(self):
        f = refined_decomposition(P((2, 1))).refined_det
        text = "2^N * 3^C(N,3) * (N - 1)^N * det(B)^(N^2 - 2)"
        assert f.render_text() == text
        assert f.render_latex() == "2^{N} 3^{\\binom{N}{3}} (N - 1)^{N} \\det(B)^{N^2 - 2}"
        assert _class_json(f) == {
            "factors": [
                {"base": "2", "exponent_binomials": {"1": "1"}},
                {"base": "3", "exponent_binomials": {"3": "1"}},
                {"base": "N - 1", "exponent_binomials": {"1": "1"}},
            ],
            "detB_exponent": "N^2 - 2",
            "display": text,
            "unreduced": False,
        }

    @pytest.mark.parametrize("shape", [(4, 2), (5, 2)], ids=str)
    def test_each_coupling_determinant_is_factored_once(self, monkeypatch, shape):
        factored = []
        real = symdet.exact.poly_factor_rational

        def counting(p):
            factored.append(p)
            return real(p)

        monkeypatch.setattr(symdet.exact, "poly_factor_rational", counting)
        refined_decomposition.cache_clear()
        try:
            results, todo = {}, [P(shape)]
            while todo:  # every shape of the recursion, each decomposed once
                s = todo.pop()
                if s not in results:
                    results[s] = refined_decomposition(s)
                    todo += [c.gamma for c in results[s].constituents]
        finally:
            refined_decomposition.cache_clear()
        couplings = [c.c_det for r in results.values() for c in r.constituents]
        assert len(couplings) > 1
        assert Counter(factored) == Counter(couplings)

    def test_no_intermediate_formula_per_constituent(self, monkeypatch):
        # each coupling class is raised to its copy's dimension inside the one product
        built = Counter()
        real = SquareClassFormula.__init__

        def counting(self, *args, **kwargs):
            built["formulas"] += 1
            real(self, *args, **kwargs)

        monkeypatch.setattr(SquareClassFormula, "__init__", counting)
        refined_decomposition.cache_clear()
        try:
            refined_decomposition(P((4, 2)))
        finally:
            refined_decomposition.cache_clear()
        assert built["formulas"] == 43

    def test_an_unsplit_coupling_determinant_names_shape_and_gamma(self, monkeypatch):
        # N^2 + 1 has no rational linear factor, so it has no square class here
        monkeypatch.setattr(symdet.refined, "poly_matrix_det", lambda matrix: Poly((1, 0, 1)))
        refined_decomposition.cache_clear()
        try:
            with pytest.raises(ArithmeticError) as exc:
                refined_decomposition(P((2, 2)))
        finally:
            refined_decomposition.cache_clear()
        assert str(exc.value) == (
            "refined (2,2)/(2): coupling determinant N^2 + 1 "
            "does not split into rational linear factors"
        )


def _coupling_agrees_at_concrete_n(shape, c):
    """The chosen chains' Gram at N = n .. n + 2j + 1 equals the coupling's value there.

    Every entry has degree <= j, so agreement at these 2j + 2 points
    pins each entry as exactly as a fit of degree <= 2j through them.
    """
    j = len(c.chains[0])
    return all(
        constituent_gram(shape, c.gamma, list(c.chains), N)
        == [[e(N) for e in row] for row in c.c_matrix]
        for N in range(shape.n, shape.n + 2 * j + 2)
    )


class TestSymbolicAgainstConcrete:
    @pytest.mark.parametrize(
        "shape,gamma",
        [
            (P((4, 2)), P((2,))),  # multiplicity 2
            (P((4, 2)), P(())),
            (P((3, 3)), P((1, 1))),
            (P((2, 2, 1, 1)), P((1, 1))),
            pytest.param(P((7, 1)), P((5, 1)), marks=pytest.mark.slow),
            pytest.param(P((6, 2)), P((4,)), marks=pytest.mark.slow),  # multiplicity 2
        ],
        ids=str,
    )
    def test_named_couplings(self, shape, gamma):
        c = constituent_poly(shape, gamma)
        assert _coupling_agrees_at_concrete_n(shape, c)

    @pytest.mark.parametrize(
        "shape", [p for n in range(2, 6) for p in partitions_of(n)], ids=str
    )
    def test_every_coupling_up_to_weight_five(self, shape):
        for c in refined_decomposition(shape).constituents:
            assert _coupling_agrees_at_concrete_n(shape, c), c.gamma

    def test_absent_constituent_images_vanish_concretely(self):
        shape, gamma = P((4, 2)), P((1, 1))
        assert constituent_poly(shape, gamma) is None
        v = reference_vector(gamma, 7)
        for chain in chain_pool(shape.n, 2):
            image = symmetrize_tensor(shape, embed_chain(chain, v, shape.n))
            assert image.is_zero(), chain

    def test_no_concrete_dimension_is_evaluated(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("concrete-N evaluation on the symbolic path")

        for name in (
            "constituent_gram",
            "embed_chain",
            "symmetrize_tensor",
            "reference_vector",
        ):
            monkeypatch.setattr(symdet.refined, name, forbidden)
        refined_decomposition.cache_clear()
        try:
            for n in range(2, 6):
                for shape in partitions_of(n):
                    refined_decomposition(shape)
        finally:
            refined_decomposition.cache_clear()
