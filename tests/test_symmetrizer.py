import itertools
import math
import random

from hypothesis import given, settings, strategies as st

from symdet.combinat import (
    Partition,
    compositions_of,
    partitions_of,
    ssyt_with_pattern,
)
from symdet.symmetrizer import (
    _orderings,
    column_classes,
    column_sum,
    free_tail,
    row_sum,
    symmetrize,
)

from reference import standard_tableau_count


def _sym(shape_parts, word):
    return symmetrize(Partition(shape_parts), {word: 1})


def _dot(u, v):
    """Coefficientwise dot product (orthonormal model)."""
    return sum(c * v.get(w, 0) for w, c in u.items())


class TestWorkedExpansions:
    """The four expansions of the smallest two-row shape, coefficient-exact."""

    def test_aab(self):
        assert _sym((2, 1), (1, 1, 2)) == {(1, 1, 2): 2, (2, 1, 1): -2}

    def test_abb(self):
        assert _sym((2, 1), (1, 2, 2)) == {(1, 2, 2): 1, (2, 2, 1): -1}

    def test_abc(self):
        assert _sym((2, 1), (1, 2, 3)) == {
            (1, 2, 3): 1,
            (3, 2, 1): -1,
            (2, 1, 3): 1,
            (3, 1, 2): -1,
        }

    def test_acb(self):
        assert _sym((2, 1), (1, 3, 2)) == {
            (1, 3, 2): 1,
            (2, 3, 1): -1,
            (3, 1, 2): 1,
            (2, 1, 3): -1,
        }

    def test_antisymmetrizer(self):
        assert _sym((1, 1), (1, 2)) == {(1, 2): 1, (2, 1): -1}

    def test_column_repeat_vanishes(self):
        assert _sym((1, 1), (1, 1)) == {}


class TestInnerProduct:
    def test_norm_of_repeated_letter_image(self):
        e = _sym((2, 1), (1, 1, 2))
        assert _dot(e, e) == 8

    def test_cross_term(self):
        u = _sym((2, 1), (1, 2, 3))
        v = _sym((2, 1), (1, 3, 2))
        assert _dot(u, v) == -2

    def test_different_content_orthogonal(self):
        u = _sym((2, 1), (1, 1, 2))
        v = _sym((2, 1), (1, 2, 2))
        assert _dot(u, v) == 0

    def test_symmetric_and_bilinear(self):
        u = _sym((2, 2), (1, 2, 1, 2))
        v = _sym((2, 2), (1, 1, 2, 2))
        assert _dot(u, v) == _dot(v, u)
        assert _dot({w: 3 * c for w, c in u.items()}, v) == 3 * _dot(u, v)


def _random_word(rng, n):
    return tuple(rng.randint(1, 4) for _ in range(n))


class TestIdempotentLaw:
    def test_all_shapes_up_to_five(self):
        rng = random.Random(20240817)
        for n in range(2, 6):
            for shape in partitions_of(n):
                scale = math.factorial(n) // standard_tableau_count(shape)
                for _ in range(3):
                    word = _random_word(rng, n)
                    once = symmetrize(shape, {word: 1})
                    twice = symmetrize(shape, once)
                    assert twice == {w: scale * c for w, c in once.items()}, (shape, word)


class TestContentPreservation:
    @given(
        st.sampled_from([p for n in range(2, 6) for p in partitions_of(n)]),
        st.data(),
    )
    def test_letter_multiset_preserved(self, shape, data):
        word = tuple(
            data.draw(st.integers(min_value=1, max_value=4)) for _ in range(shape.n)
        )
        img = symmetrize(shape, {word: 1})
        for w in img:
            assert sorted(w) == sorted(word)


class TestContentOrthogonality:
    def test_exhaustive_different_patterns(self):
        for n in range(2, 6):
            for shape in partitions_of(n):
                images = {}
                for pattern in compositions_of(n):
                    for tab in ssyt_with_pattern(shape, pattern):
                        word = sum(tab, ())
                        images.setdefault(pattern, []).append(symmetrize(shape, {word: 1}))
                patterns = sorted(images)
                for i, p in enumerate(patterns):
                    for q in patterns[i + 1:]:
                        for u in images[p]:
                            for v in images[q]:
                                assert _dot(u, v) == 0


@settings(max_examples=30)
@given(
    st.sampled_from([p for n in range(2, 5) for p in partitions_of(n)]),
    st.data(),
)
def test_no_zero_coefficients_stored(shape, data):
    word = tuple(
        data.draw(st.integers(min_value=1, max_value=3)) for _ in range(shape.n)
    )
    img = symmetrize(shape, {word: 1})
    assert all(c != 0 for c in img.values())


def _rows_and_cols(shape):
    """The box labels 0..n-1, assigned row by row, grouped by row and by column."""
    boxes = [(r, c) for r, p in enumerate(shape.parts) for c in range(p)]
    rows = [tuple(i for i, (r, _) in enumerate(boxes) if r == k) for k in range(len(shape.parts))]
    cols = [tuple(i for i, (_, c) in enumerate(boxes) if c == k) for k in range(shape.parts[0])]
    return rows, cols


def _group(blocks, n):
    """Every permutation fixing each block setwise, as a position map."""
    for images in itertools.product(*(itertools.permutations(b) for b in blocks)):
        perm = list(range(n))
        for block, image in zip(blocks, images):
            for src, dst in zip(block, image):
                perm[src] = dst
        yield perm


def _act(perm, word):
    out = [None] * len(word)
    for i, letter in enumerate(word):
        out[perm[i]] = letter
    return tuple(out)


def _sign(perm):
    pairs = itertools.combinations(range(len(perm)), 2)
    inversions = sum(1 for i, j in pairs if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def _naive_sum(blocks, terms, n, signed=False):
    """Sum over every element g of the block group of (sign g) * g * terms."""
    out = {}
    for word, coeff in terms.items():
        for g in _group(blocks, n):
            v = _act(g, word)
            out[v] = out.get(v, 0) + (_sign(g) if signed else 1) * coeff
    return {w: c for w, c in out.items() if c}


def _naive_symmetrizer(shape, terms):
    """Signed double sum over explicitly enumerated row and column permutations."""
    rows, cols = _rows_and_cols(shape)
    return _naive_sum(cols, _naive_sum(rows, terms, shape.n), shape.n, signed=True)


SHAPES = [p for n in range(2, 6) for p in partitions_of(n)]
LETTERS = st.integers(min_value=-2, max_value=2).filter(bool)
COEFFS = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SHAPES), st.data())
def test_kernel_matches_naive_double_sum(shape, data):
    terms = data.draw(
        st.dictionaries(
            st.tuples(*[LETTERS] * shape.n).filter(lambda w: len(set(w)) < len(w)),
            COEFFS,
            min_size=1,
            max_size=3,
        )
    )
    assert symmetrize(shape, terms) == _naive_symmetrizer(shape, terms)


def _draw_terms(data, shape):
    return data.draw(
        st.dictionaries(st.tuples(*[LETTERS] * shape.n), COEFFS, min_size=1, max_size=3)
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SHAPES), st.data())
def test_row_sum_matches_sum_over_row_group(shape, data):
    terms = _draw_terms(data, shape)
    assert row_sum(shape, terms) == _naive_sum(_rows_and_cols(shape)[0], terms, shape.n)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SHAPES), st.data())
def test_column_classes_expand_to_signed_column_sum(shape, data):
    terms = _draw_terms(data, shape)
    _, cols = _rows_and_cols(shape)
    expected = _naive_sum(cols, terms, shape.n, signed=True)
    classes = column_classes(shape, terms)
    assert _naive_sum(cols, classes, shape.n, signed=True) == expected
    assert column_sum(shape, terms) == expected


TAILED = [p for n in range(2, 7) for p in partitions_of(n) if free_tail(p)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TAILED), st.data())
def test_sorted_tail_classes_expand_to_all_classes(shape, data):
    # no column element moves the free tail, so each class of R x is a
    # sorted-tail class with its tail letters reordered
    terms = _draw_terms(data, shape)
    end = shape.parts[0]
    start = end - free_tail(shape)
    expanded = {}
    count = 0
    for key, coeff in column_classes(shape, row_sum(shape, terms, free_tail(shape))).items():
        assert list(key[start:end]) == sorted(key[start:end])
        for tail in set(itertools.permutations(key[start:end])):
            expanded[key[:start] + tail + key[end:]] = coeff
            count += 1
    assert count == len(expanded)
    assert expanded == column_classes(shape, row_sum(shape, terms))


def test_orderings_are_the_distinct_permutations_with_a_sorted_tail():
    # every sorted row of up to 6 letters over {1,2,3,4}, with and without repeats
    for length in range(7):
        for row in itertools.combinations_with_replacement(range(1, 5), length):
            perms = list(itertools.permutations(row))
            for k in range(length + 1):
                expected = sorted({p[:k] + tuple(sorted(p[k:])) for p in perms})
                assert _orderings(row, k) == tuple(expected), (row, k)


TALL = [p for p in SHAPES if len(p.parts) > 1]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(TALL), st.data())
def test_column_repeat_has_no_class(shape, data):
    word = list(data.draw(st.tuples(*[LETTERS] * shape.n)))
    col = data.draw(st.sampled_from([c for c in _rows_and_cols(shape)[1] if len(c) > 1]))
    i, j = data.draw(st.lists(st.sampled_from(col), min_size=2, max_size=2, unique=True))
    word[j] = word[i]
    assert column_classes(shape, {tuple(word): data.draw(COEFFS)}) == {}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(TALL), st.data())
def test_class_carries_sign_of_sort(shape, data):
    _, cols = _rows_and_cols(shape)
    word = [None] * shape.n
    key = [None] * shape.n
    for col in cols:
        letters = data.draw(
            st.lists(st.integers(-3, 3), min_size=len(col), max_size=len(col), unique=True)
        )
        for p, x, y in zip(col, letters, sorted(letters)):
            word[p], key[p] = x, y
    word, key = tuple(word), tuple(key)
    (g,) = [g for g in _group(cols, shape.n) if _act(g, key) == word]
    coeff = data.draw(COEFFS.filter(bool))
    assert column_classes(shape, {word: coeff}) == {key: _sign(g) * coeff}
