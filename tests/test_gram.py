import math

import pytest

from symdet.cli import _class_json
from symdet.combinat import (
    Partition,
    compositions_of,
    dimension_poly,
    partitions_of,
    patterns_of,
    ssyt_with_pattern,
)
from symdet.exact import POLY_N, Poly, SquareClassFormula, bareiss_det, squarefree_part
from symdet.gram import (
    MAX_SYM_N,
    MAX_TABLE_N,
    NoTableauxError,
    _below,
    determinant_class,
    gram_block,
    symmetrization_determinant,
)
from symdet.symmetrizer import _column_group, symmetrize

from reference import closed_form_c, enumerate_ssyt, hook_block_det

P = Partition


class TestWorkedBlocks:
    def test_two_one(self):
        assert gram_block(P((2, 1)), (2, 1)).matrix == ((8,),)
        assert gram_block(P((2, 1)), (1, 2)).matrix == ((2,),)
        block = gram_block(P((2, 1)), (1, 1, 1))
        assert block.matrix == ((4, -2), (-2, 4))
        assert block.det == 12

    def test_three_one(self):
        assert gram_block(P((3, 1)), (3, 1)).matrix == ((72,),)
        assert gram_block(P((3, 1)), (2, 2)).matrix == ((16,),)
        assert gram_block(P((3, 1)), (1, 3)).matrix == ((8,),)
        assert gram_block(P((3, 1)), (2, 1, 1)).matrix == ((24, -8), (-8, 24))
        assert gram_block(P((3, 1)), (1, 2, 1)).matrix == ((24, -8), (-8, 8))
        # under the row-major lexicographic tableau order the two diagonal
        # norms of the (1,1,2) block come out swapped relative to (1,2,1);
        # the matrices are congruent by the basis transposition
        assert gram_block(P((3, 1)), (1, 1, 2)).matrix == ((8, -8), (-8, 24))
        block = gram_block(P((3, 1)), (1, 1, 1, 1))
        assert block.matrix == ((12, -4, -4), (-4, 12, -4), (-4, -4, 12))
        assert block.det == 1024

    def test_two_two(self):
        assert gram_block(P((2, 2)), (2, 2)).matrix == ((64,),)
        assert gram_block(P((2, 2)), (2, 1, 1)).matrix == ((32,),)
        assert gram_block(P((2, 2)), (1, 2, 1)).matrix == ((8,),)
        assert gram_block(P((2, 2)), (1, 1, 2)).matrix == ((32,),)
        block = gram_block(P((2, 2)), (1, 1, 1, 1))
        assert block.matrix == ((16, -8), (-8, 16))
        assert block.det == 192

    def test_empty_pattern_rejected(self):
        with pytest.raises(NoTableauxError, match="no tableaux"):
            gram_block(P((1, 1, 1)), (2, 1))

    def test_a_rank_one_block_names_shape_and_pattern(self, monkeypatch):
        # every tableau image gets the same column class, so the block has rank 1
        monkeypatch.setattr("symdet.symmetrizer.column_classes", lambda shape, word_sum: {(1, 2, 3): 1})
        message = r"shape \(2,1\) pattern \(1, 1, 1\): leading principal minor 2 is 0"
        with pytest.raises(ArithmeticError, match=message):
            gram_block(P((2, 1)), (1, 1, 1))


def _symbolic_inner(u, v):
    """Full inner product with symbolic diagonal form values.

    Returns a dict mapping letter-multiplicity monomials to integers:
    the coefficient of prod a_i^e_i in the inner product.
    """
    out = {}
    for w, cu in u.items():
        cv = v.get(w)
        if cv is None:
            continue
        mono = tuple(sorted(w))
        out[mono] = out.get(mono, 0) + cu * cv
        if out[mono] == 0:
            del out[mono]
    return out


class TestBlockDiagonalStructure:
    def test_dense_oracle_small(self):
        # the full Gram matrix of the tableau basis at concrete N, with
        # symbolic diagonal values, is block diagonal by content and each
        # block is the shared pattern matrix times the content monomial
        for n in range(2, 5):
            for shape in partitions_of(n):
                for N in range(n, min(n + 2, 6)):
                    tabs = enumerate_ssyt(shape, N)
                    words = [sum(t, ()) for t in tabs]
                    images = [symmetrize(shape, {w: 1}) for w in words]
                    contents = [tuple(sorted(w)) for w in words]
                    by_content = {}
                    for i, c in enumerate(contents):
                        by_content.setdefault(c, []).append(i)
                    for i in range(len(tabs)):
                        for j in range(len(tabs)):
                            got = _symbolic_inner(images[i], images[j])
                            if contents[i] != contents[j]:
                                assert got == {}, (shape, N, i, j)
                    for content, idxs in by_content.items():
                        idxs.sort(key=lambda i: words[i])
                        pattern = _pattern_of(content)
                        block = gram_block(shape, pattern)
                        for a, ia in enumerate(idxs):
                            for b, ib in enumerate(idxs):
                                entry = _symbolic_inner(images[ia], images[ib])
                                expect = (
                                    {content: block.matrix[a][b]}
                                    if block.matrix[a][b]
                                    else {}
                                )
                                assert entry == expect, (shape, N, content)


def _assert_blocks_match_full_image_products(shape):
    for pattern in patterns_of(shape):
        images = [
            symmetrize(shape, {sum(t, ()): 1})
            for t in ssyt_with_pattern(shape, pattern)
        ]
        expected = tuple(
            tuple(sum(c * v.get(w, 0) for w, c in u.items()) for v in images) for u in images
        )
        block = gram_block(shape, pattern)
        assert block.matrix == expected, (shape, pattern)
        assert block.det == bareiss_det([list(row) for row in expected]), (shape, pattern)


class TestAdjointIdentity:
    def test_blocks_match_full_image_products(self):
        # gram_block computes |C| * <R u, e v> from the sorted-tail classes;
        # the reference is <e u, e v> over the full symmetrizer images
        for n in range(2, 8):
            for shape in partitions_of(n):
                _assert_blocks_match_full_image_products(shape)

    @pytest.mark.parametrize("parts", [(8,), (5, 1, 1, 1)])
    def test_blocks_match_full_image_products_at_weight_8(self, parts):
        # one row (the whole row is free tail) and a hook with a tail of 4
        _assert_blocks_match_full_image_products(P(parts))


class TestNoGroupExpansion:
    @pytest.mark.parametrize("parts", [(8,), (1,) * 8])
    def test_block_builds_no_group_getters(self, parts):
        # (1^8) has a column group of order 8!; no block builds its getters
        _column_group.cache_clear()
        block = gram_block(P(parts), (1,) * 8)
        assert _column_group.cache_info().currsize == 0
        assert block.det == hook_block_det(8, parts[0])


def _pattern_of(content):
    from collections import Counter

    counts = Counter(content)
    return tuple(counts[x] for x in sorted(counts))


class TestSymmetrizationDeterminant:
    def test_two_one(self):
        result = symmetrization_determinant(P((2, 1)))
        assert result.c_formula.reduced().render_text() == "3^C(N,3)"
        assert result.detB_exponent == Poly((-1, 0, 1))

    def test_three_one(self):
        result = symmetrization_determinant(P((3, 1)))
        assert result.c_formula.reduced().render_text() == "2^C(N,3)"

    def test_two_two(self):
        result = symmetrization_determinant(P((2, 2)))
        assert result.c_formula.reduced().render_text() == "2^C(N,3) * 3^C(N,4)"

    def test_detb_identity(self):
        for n in range(2, 7):
            for shape in partitions_of(n):
                result = symmetrization_determinant(shape)
                assert result.detB_exponent * POLY_N == result.dimension * n

    def test_block_dets_positive(self):
        for n in range(2, 7):
            for shape in partitions_of(n):
                for block in symmetrization_determinant(shape).blocks.values():
                    assert block.det > 0

    def test_size_consistency(self):
        # sum over compositions of Kostka number * C(N,k) equals the
        # hook-content dimension, and patterns_of keeps every nonzero term
        for n in range(2, 9):
            for shape in partitions_of(n):
                dim = dimension_poly(shape)
                nonzero = [pat for pat in compositions_of(n) if ssyt_with_pattern(shape, pat)]
                assert patterns_of(shape) == nonzero, shape
                for N in range(n, n + 4):
                    total = sum(len(ssyt_with_pattern(shape, pat)) * math.comb(N, len(pat)) for pat in nonzero)
                    assert total == dim(N), (shape, N)

    def test_multiplies_its_exact_class_once(self, monkeypatch):
        built = []
        init = SquareClassFormula.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SquareClassFormula, "__init__", counted)
        result = symmetrization_determinant(P((8,)))
        assert len(built) == 1
        assert result.c_formula.reduced() == closed_form_c(P((8,))).reduced()

    def test_weight_limit_is_exact(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a Gram block was built beyond the weight limit")

        with monkeypatch.context() as m:
            m.setattr("symdet.gram.gram_block", forbidden)
            with pytest.raises(ValueError, match=f"n <= {MAX_SYM_N}"):
                symmetrization_determinant(P((MAX_SYM_N + 1,)))
        assert len(symmetrization_determinant(P((MAX_SYM_N,))).blocks) == 2 ** (MAX_SYM_N - 1)

    def test_parallel_matches_serial(self):
        serial = symmetrization_determinant(P((3, 2)), jobs=1)
        parallel = symmetrization_determinant(P((3, 2)), jobs=2)
        assert serial.c_formula.reduced() == parallel.c_formula.reduced()
        assert serial.dimension == parallel.dimension
        assert {p: b.matrix for p, b in serial.blocks.items()} == {
            p: b.matrix for p, b in parallel.blocks.items()
        }


class TestDeterminantClasses:
    def test_matches_the_all_block_product(self):
        shapes = [s for n in range(2, 8) for s in partitions_of(n)]
        shapes += [P((4, 4)), P((3, 3, 2)), P((2,) + (1,) * 6)]
        results = [determinant_class(shape) for shape in shapes]
        assert [r.shape for r in results] == shapes
        for shape, result in zip(shapes, results):
            full = symmetrization_determinant(shape, jobs=1)
            assert result.c_reduced.reduced() == full.c_formula.reduced(), shape
            assert _class_json(result.c_reduced) == _class_json(full.c_formula.reduced()), shape
            assert result.dimension == full.dimension, shape

    def test_highest_weight_block_is_c_lambda(self):
        for n in range(1, 9):
            for shape in partitions_of(n):
                col_order = math.prod(math.factorial(c) for c in shape.conjugate().parts)
                row_order = math.prod(math.factorial(r) for r in shape.parts)
                assert gram_block(shape, shape.parts).det == col_order * row_order**2, shape

    def test_matches_closed_forms_to_weight_nine(self):
        shapes = []
        for n in range(2, 10):
            shapes += [P((n,)), P((1,) * n)]
            shapes += [P((ell,) + (1,) * (n - ell)) for ell in (2, 3) if ell < n]
        for shape in shapes:
            assert determinant_class(shape).c_reduced == closed_form_c(shape).reduced(), shape

    def test_builds_no_block(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the class path built a Gram block")

        monkeypatch.setattr("symdet.gram.gram_block", forbidden)
        monkeypatch.setattr("symdet.gram.bareiss_det", forbidden)
        assert len([determinant_class(s) for n in range(2, 8) for s in partitions_of(n)]) == 43

    def test_rearranged_patterns_agree_modulo_squares(self):
        for n in range(2, 7):
            for shape in partitions_of(n):
                members = {}
                for pattern in patterns_of(shape):
                    members.setdefault(tuple(sorted(pattern, reverse=True)), []).append(pattern)
                for mu, rearranged in members.items():
                    expected = squarefree_part(gram_block(shape, mu).det)[0]
                    for pattern in rearranged:
                        got = squarefree_part(gram_block(shape, pattern).det)[0]
                        assert got == expected, (shape, pattern)

    def test_empty_and_invalid(self):
        with pytest.raises(ValueError):
            determinant_class(P(()))

    def test_weight_limit_is_exact(self):
        # the factorial parity table reaches 2 * MAX_TABLE_N + 2, the largest a norm of weight MAX_TABLE_N reads
        with pytest.raises(ValueError, match=f"n <= {MAX_TABLE_N}"):
            determinant_class(P((MAX_TABLE_N + 1,)))
        top = P((MAX_TABLE_N,))
        assert determinant_class(top).c_reduced == closed_form_c(top).reduced()

    def test_second_call_reads_the_walk_from_its_memo(self):
        shape = P((4, 3, 1))
        first = determinant_class(shape)
        before = _below.cache_info()
        assert determinant_class(shape) == first
        after = _below.cache_info()
        assert after.misses == before.misses
        assert after.hits > before.hits


class TestClosedForms:
    def test_families_match_engine_small(self):
        shapes = []
        for n in range(2, 7):
            shapes += [P((n,)), P((1,) * n)]
        for n in range(3, 7):
            shapes.append(P((2,) + (1,) * (n - 2)))
        for n in range(4, 7):
            shapes.append(P((3,) + (1,) * (n - 3)))
        for shape in shapes:
            closed = closed_form_c(shape)
            assert closed is not None, shape
            engine = symmetrization_determinant(shape)
            assert closed.reduced() == engine.c_formula.reduced(), shape

    def test_unsupported_returns_none(self):
        assert closed_form_c(P((2, 2))) is None
        assert closed_form_c(P((3, 2))) is None
        assert closed_form_c(P((4, 2, 1))) is None

    def test_exterior_power_value(self):
        closed = closed_form_c(P((1, 1, 1, 1, 1)))
        assert closed.evaluate_class(5) == 30  # 5! = 120 ~ 30 modulo squares


class TestHookBlockDet:
    def test_matches_direct_gram(self):
        cases = [
            (3, 2, P((2, 1))),
            (4, 2, P((2, 1, 1))),
            (4, 3, P((3, 1))),
            (5, 2, P((2, 1, 1, 1))),
            (5, 3, P((3, 1, 1))),
            (5, 4, P((4, 1))),
        ]
        for n, ell, shape in cases:
            pattern = (1,) * n
            assert hook_block_det(n, ell) == gram_block(shape, pattern).det, (n, ell)

    def test_single_column(self):
        # the antisymmetrizer block is the scalar n!
        for n in range(2, 7):
            assert hook_block_det(n, 1) == math.factorial(n)
            assert gram_block(P((1,) * n), (1,) * n).det == math.factorial(n)

    def test_single_row(self):
        for n in range(2, 7):
            assert hook_block_det(n, n) == math.factorial(n)

    def test_known_values(self):
        assert hook_block_det(3, 2) == 12
        assert hook_block_det(4, 2) == 864
        assert hook_block_det(4, 3) == 1024

    def test_bounds(self):
        with pytest.raises(ValueError):
            hook_block_det(4, 0)
        with pytest.raises(ValueError):
            hook_block_det(4, 5)
