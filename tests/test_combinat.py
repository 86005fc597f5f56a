import math
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from symdet.combinat import (
    Partition,
    compositions_of,
    dimension_poly,
    dominates,
    enumerate_ssyt,
    frame_of,
    kostka,
    littlewood_multiplicity,
    lr_coefficient,
    partitions_of,
    ssyt_with_pattern,
    standard_tableau_count,
)


class TestPartitions:
    def test_three(self):
        assert [p.parts for p in partitions_of(3)] == [(3,), (2, 1), (1, 1, 1)]

    def test_count_seven(self):
        assert len(partitions_of(7)) == 15

    def test_one(self):
        assert [p.parts for p in partitions_of(1)] == [(1,)]

    def test_lex_decreasing(self):
        for n in range(1, 9):
            parts = [p.parts for p in partitions_of(n)]
            assert parts == sorted(parts, reverse=True)
            assert all(sum(p) == n for p in parts)

    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))

    def test_conjugate(self):
        assert Partition((3, 1)).conjugate() == Partition((2, 1, 1))
        assert Partition((2, 2)).conjugate() == Partition((2, 2))


class TestCompositions:
    def test_three(self):
        assert compositions_of(3) == ((3,), (2, 1), (1, 2), (1, 1, 1))

    def test_count_is_power_of_two(self):
        assert len(compositions_of(4)) == 8
        assert len(compositions_of(7)) == 64

    def test_two(self):
        assert compositions_of(2) == ((2,), (1, 1))

    def test_grouped_by_length(self):
        lengths = [len(c) for c in compositions_of(5)]
        assert lengths == sorted(lengths)


class TestSSYT:
    def test_distinct_letters_two_tableaux(self):
        tabs = ssyt_with_pattern(Partition((2, 1)), (1, 1, 1))
        assert tabs == (((1, 2), (3,)), ((1, 3), (2,)))

    def test_repeated_letter_single(self):
        assert kostka(Partition((2, 1)), (2, 1)) == 1

    def test_column_strictness_blocks(self):
        assert kostka(Partition((1, 1, 1)), (2, 1)) == 0

    @pytest.mark.parametrize("pattern", [(2,), (2, 0, 1)])
    def test_pattern_must_be_a_composition_of_n(self, pattern):
        with pytest.raises(ValueError):
            ssyt_with_pattern(Partition((2, 1)), pattern)

    def test_rows_and_columns_valid(self):
        for shape in partitions_of(5):
            for pattern in compositions_of(5):
                for tab in ssyt_with_pattern(shape, pattern):
                    for row in tab:
                        assert all(row[i] <= row[i + 1] for i in range(len(row) - 1))
                    for c in range(len(tab[0])):
                        col = [row[c] for row in tab if c < len(row)]
                        assert all(col[i] < col[i + 1] for i in range(len(col) - 1))

    def test_dominance_decides_tableau_existence(self):
        for n in range(1, 9):
            for shape in partitions_of(n):
                for pattern in compositions_of(n):
                    has_tableau = kostka(shape, pattern) > 0
                    assert dominates(shape, pattern) == has_tableau, (shape, pattern)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_brute_force_in_order(self, n):
        # lay every distinct arrangement of the content out row by row, keep
        # the semistandard ones, sort by reading word; contents with no
        # tableau must come back empty
        for shape in partitions_of(n):
            for pattern in compositions_of(n):
                content = [letter for letter, m in enumerate(pattern, 1) for _ in range(m)]
                fillings = []
                for word in set(permutations(content)):
                    rows, start = [], 0
                    for p in shape.parts:
                        rows.append(word[start:start + p])
                        start += p
                    if all(r[i] <= r[i + 1] for r in rows for i in range(len(r) - 1)) and all(
                        upper[c] < lower[c] for upper, lower in zip(rows, rows[1:]) for c in range(len(lower))
                    ):
                        fillings.append(tuple(rows))
                fillings.sort(key=lambda t: tuple(x for row in t for x in row))
                assert ssyt_with_pattern(shape, pattern) == tuple(fillings), (shape, pattern)

    def test_kostka_reorder_invariance(self):
        for shape in partitions_of(4):
            counts = {
                kostka(shape, pat) for pat in ((2, 1, 1), (1, 2, 1), (1, 1, 2))
            }
            assert len(counts) == 1


class TestDimensionPoly:
    def test_worked_examples(self):
        assert dimension_poly(Partition((2, 1))).factored_str() == "N*(N-1)*(N+1)/3"
        assert (
            dimension_poly(Partition((3, 1))).factored_str() == "N*(N-1)*(N+1)*(N+2)/8"
        )
        assert dimension_poly(Partition((1, 1))).factored_str() == "N*(N-1)/2"

    def test_matches_direct_enumeration(self):
        for n in range(2, 7):
            for shape in partitions_of(n):
                poly = dimension_poly(shape)
                for N in range(0, 9):
                    assert poly(N) == len(enumerate_ssyt(shape, N)), (shape, N)

    def test_letter_multiplicity_balance(self):
        # each letter occurs dim * n / N times across all tableau contents
        for n in range(2, 6):
            for shape in partitions_of(n):
                for N in range(n, n + 3):
                    tabs = enumerate_ssyt(shape, N)
                    counts = {i: 0 for i in range(1, N + 1)}
                    for tab in tabs:
                        for row in tab:
                            for x in row:
                                counts[x] += 1
                    expected = len(tabs) * n // N
                    assert all(v == expected for v in counts.values()), (shape, N)


def _standard_fillings_brute(shape):
    """Independent oracle: count standard fillings by brute force."""
    n = shape.n
    cells = [(r, c) for r, p in enumerate(shape.parts) for c in range(p)]
    count = 0
    for perm in permutations(range(1, n + 1)):
        grid = {}
        for cell, v in zip(cells, perm):
            grid[cell] = v
        ok = True
        for r, c in cells:
            if c > 0 and grid[(r, c - 1)] > grid[(r, c)]:
                ok = False
                break
            if r > 0 and (r - 1, c) in grid and grid[(r - 1, c)] > grid[(r, c)]:
                ok = False
                break
        count += ok
    return count


class TestStandardTableaux:
    def test_small(self):
        assert standard_tableau_count(Partition((2, 1))) == 2
        assert standard_tableau_count(Partition((2, 2))) == 2

    def test_321_against_brute_force(self):
        shape = Partition((3, 2, 1))
        assert _standard_fillings_brute(shape) == 16
        assert standard_tableau_count(shape) == 16

    def test_brute_force_agreement(self):
        for n in range(2, 7):
            for shape in partitions_of(n):
                assert standard_tableau_count(shape) == _standard_fillings_brute(shape)

    def test_sum_of_squares_is_factorial(self):
        for n in range(2, 9):
            total = sum(standard_tableau_count(p) ** 2 for p in partitions_of(n))
            assert total == math.factorial(n)


def _horizontal_strip(lam, mu):
    """mu inside lam with at most one box of lam/mu in each column."""
    part = lambda p, i: p[i] if i < len(p) else 0
    return len(mu) <= len(lam) and all(
        part(lam, i + 1) <= part(mu, i) <= lam[i] for i in range(len(lam))
    )


def _vertical_strip(lam, mu):
    return _horizontal_strip(lam.conjugate(), mu.conjugate())


class TestLittlewoodRichardson:
    def test_pieri_rule(self):
        mismatches = []
        for n in range(0, 9):
            for lam in partitions_of(n):
                for k in range(n + 1):
                    row, column = Partition((k,) if k else ()), Partition((1,) * k)
                    for mu in partitions_of(n - k):
                        if lr_coefficient(lam, mu, row) != _horizontal_strip(lam, mu):
                            mismatches.append((lam, mu, row))
                        if lr_coefficient(lam, mu, column) != _vertical_strip(lam, mu):
                            mismatches.append((lam, mu, column))
        assert mismatches == []

    def test_symmetric_in_the_two_factors(self):
        for n in range(0, 8):
            for lam in partitions_of(n):
                for k in range(n + 1):
                    for mu in partitions_of(k):
                        for nu in partitions_of(n - k):
                            assert lr_coefficient(lam, mu, nu) == lr_coefficient(lam, nu, mu)

    def test_known_values(self):
        P = Partition
        assert lr_coefficient(P((3, 2, 1)), P((2, 1)), P((2, 1))) == 2
        assert lr_coefficient(P((2, 1)), P((2,)), P((2,))) == 0
        assert lr_coefficient(P((2,)), P((1, 1)), P(())) == 0

    def test_littlewood_multiplicities(self):
        P = Partition
        assert littlewood_multiplicity(P((5, 2)), P((3,))) == 2
        assert littlewood_multiplicity(P((4, 2)), P((2,))) == 2
        assert littlewood_multiplicity(P((4, 2)), P((1, 1))) == 0
        assert littlewood_multiplicity(P((3, 1)), P((3,))) == 0  # odd weight gap
        for n in range(2, 8):
            column = P((1,) * n)
            assert all(
                littlewood_multiplicity(column, gamma) == 0
                for k in range(n - 1, -1, -1)
                for gamma in partitions_of(k)
            )


class TestFrame:
    def test_row_major_labels(self):
        frame = frame_of(Partition((2, 1)))
        assert frame.rows == ((0, 1), (2,))
        assert frame.cols == ((0, 2), (1,))

    def test_labels_partition_positions(self):
        for shape in partitions_of(6):
            frame = frame_of(shape)
            row_labels = sorted(x for r in frame.rows for x in r)
            col_labels = sorted(x for c in frame.cols for x in c)
            assert row_labels == list(range(shape.n))
            assert col_labels == list(range(shape.n))


@given(st.integers(min_value=1, max_value=8))
def test_partition_and_composition_counts_consistent(n):
    # compositions refine partitions: sorting a composition gives a partition
    parts = {p.parts for p in partitions_of(n)}
    for comp in compositions_of(n):
        assert tuple(sorted(comp, reverse=True)) in parts
