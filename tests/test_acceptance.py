"""Acceptance gate: one test per criterion, exact tolerances throughout.

Every check is exact integer/rational arithmetic; there are no numeric
tolerances anywhere.  Criterion 6 adds a test of the range of N and one
``slow`` test per weight-5 shape.  Each test prints a single PASS line
on success (visible with ``pytest -s`` or in the captured output).
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction
from importlib import resources

import pytest

from symdet.cli import _class_json, main as cli_main
from symdet.combinat import (
    Partition,
    compositions_of,
    dimension_poly,
    partitions_of,
    ssyt_with_pattern,
)
from symdet.exact import Binomials, Poly, poly_factor_rational
from symdet.golden import load_golden, verify_refined
from symdet.gram import gram_block, symmetrization_determinant
from symdet.refined import (
    ConcreteTensor,
    constituent_poly,
    phi_insert,
    pi_contract,
    refined_decomposition,
)
from symdet.symmetrizer import column_sum, row_sum, symmetrize

from reference import _fraction_det, closed_form_c, enumerate_ssyt, standard_tableau_count

P = Partition
GOLDEN = load_golden()


def test_criterion_1_sym_tables():
    """Every shape of weight 2..7: dimension and reduced class, exactly."""
    t0 = time.time()
    assert len(GOLDEN.sym_rows) == 43
    shapes = {row.shape for row in GOLDEN.sym_rows}
    assert shapes == {p for n in range(2, 8) for p in partitions_of(n)}
    failures = []
    for row in GOLDEN.sym_rows:
        result = symmetrization_determinant(row.shape)
        if result.dimension != row.dimension:
            failures.append(f"{row.shape}: dimension")
        if result.c_formula.reduced() != row.c_reduced:
            failures.append(f"{row.shape}: class")
    assert not failures, failures
    print(f"\nACCEPTANCE 1: PASS - 43 table rows reproduced ({time.time()-t0:.0f}s)")


def test_criterion_2_worked_matrices():
    """The explicitly printed Gram blocks, entry-exact in the fixed order."""
    entry_exact = {
        (P((2, 1)), (2, 1)): ((8,),),
        (P((2, 1)), (1, 2)): ((2,),),
        (P((2, 1)), (1, 1, 1)): ((4, -2), (-2, 4)),
        (P((3, 1)), (3, 1)): ((72,),),
        (P((3, 1)), (2, 2)): ((16,),),
        (P((3, 1)), (1, 3)): ((8,),),
        (P((3, 1)), (2, 1, 1)): ((24, -8), (-8, 24)),
        (P((3, 1)), (1, 2, 1)): ((24, -8), (-8, 8)),
        (P((3, 1)), (1, 1, 1, 1)): ((12, -4, -4), (-4, 12, -4), (-4, -4, 12)),
        (P((2, 2)), (2, 2)): ((64,),),
        (P((2, 2)), (2, 1, 1)): ((32,),),
        (P((2, 2)), (1, 2, 1)): ((8,),),
        (P((2, 2)), (1, 1, 2)): ((32,),),
        (P((2, 2)), (1, 1, 1, 1)): ((16, -8), (-8, 16)),
    }
    for (shape, pattern), expected in entry_exact.items():
        assert gram_block(shape, pattern).matrix == expected, (shape, pattern)
    # the reference table records this block with its two tableaux in the
    # opposite order; entries agree after the simultaneous transposition
    block = gram_block(P((3, 1)), (1, 1, 2)).matrix
    assert block == ((8, -8), (-8, 24))
    assert (block[1][1], block[0][1], block[0][0]) == (24, -8, 8)
    print("\nACCEPTANCE 2: PASS - worked Gram blocks entry-exact")


def test_criterion_3_closed_form_families():
    """Single row/column up to n=8, near-column hooks up to n=7."""
    t0 = time.time()
    shapes = []
    for n in range(2, 9):
        shapes += [P((n,)), P((1,) * n)]
    for n in range(3, 8):
        shapes.append(P((2,) + (1,) * (n - 2)))
    for n in range(4, 8):
        shapes.append(P((3,) + (1,) * (n - 3)))
    for shape in shapes:
        closed = closed_form_c(shape)
        engine = symmetrization_determinant(shape)
        assert closed is not None and (
            closed.reduced() == engine.c_formula.reduced()
        ), shape
    print(
        f"\nACCEPTANCE 3: PASS - closed forms match the engine for "
        f"{len(shapes)} shapes ({time.time()-t0:.0f}s)"
    )


def test_criterion_3_stretch_weight_nine():
    """The two known weight-9 rows, within the long budget."""
    t0 = time.time()
    for row in GOLDEN.stretch_rows:
        result = symmetrization_determinant(row.shape)
        assert result.dimension == row.dimension, row.shape
        assert result.c_formula.reduced() == row.c_reduced, row.shape
    print(f"\nACCEPTANCE 3 (stretch): PASS - weight-9 pair ({time.time()-t0:.0f}s)")


def test_criterion_4_refined_table():
    """Full constituent table for n <= 6, coupling matrix included."""
    t0 = time.time()
    report = verify_refined(GOLDEN)
    assert report.ok, report.mismatches

    # the multiplicity-two coupling, entry-exact up to simultaneous
    # permutation, with the stated determinant class
    result = refined_decomposition(P((4, 2)))
    coupling = {c.gamma: c for c in result.constituents}[P((2,))]
    assert coupling.multiplicity == 2
    got = coupling.c_matrix
    expected = GOLDEN.coupling_42_2
    assert got == expected or (
        (got[1][1], got[0][1], got[0][0]) == (expected[0][0], expected[0][1], expected[1][1])
    )
    reduced_det = Poly.const(5)
    for r in (2, 0, -1, -4):
        reduced_det = reduced_det * Poly((-r, 1))
    assert coupling.c_reduced.value() == reduced_det
    print(
        f"\nACCEPTANCE 4: PASS - refined table reproduced, "
        f"{report.checked} checks ({time.time()-t0:.0f}s)"
    )


def test_criterion_5_property_suite():
    t0 = time.time()
    rng = random.Random(1729)

    # double application scales by n! / standard count (weights 2..5)
    for n in range(2, 6):
        for shape in partitions_of(n):
            scale = math.factorial(n) // standard_tableau_count(shape)
            for _ in range(2):
                word = tuple(rng.randint(1, 4) for _ in range(n))
                once = symmetrize(shape, {word: 1})
                assert symmetrize(shape, once) == {w: scale * c for w, c in once.items()}

    # images of tableaux with different letter patterns are orthogonal
    for n in range(2, 6):
        for shape in partitions_of(n):
            per_pattern = []
            for pattern in compositions_of(n):
                tabs = ssyt_with_pattern(shape, pattern)
                if tabs:
                    per_pattern.append(symmetrize(shape, {sum(tabs[0], ()): 1}))
            for i, u in enumerate(per_pattern):
                for v in per_pattern[i + 1:]:
                    assert sum(c * v.get(w, 0) for w, c in u.items()) == 0

    # contraction undoes insertion, with a dimension factor
    for _ in range(20):
        dim = rng.randint(2, 6)
        degree = rng.randint(0, 3)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            w = tuple(rng.randint(1, dim) for _ in range(degree))
            terms[w] = Fraction(rng.randint(-5, 5))
        t = ConcreteTensor(degree, dim, {w: c for w, c in terms.items() if c})
        i = rng.randint(1, degree + 1)
        j = rng.randint(i + 1, degree + 2)
        image = phi_insert(t, i, j)
        back = pi_contract(image, i, j)
        assert back.terms == {w: dim * c for w, c in t.terms.items()}
        # and the insertion scales the norm by the dimension
        assert image.norm() == dim * t.norm()

    # squares of standard counts sum to the factorial (weights 2..8)
    for n in range(2, 9):
        assert (
            sum(standard_tableau_count(p) ** 2 for p in partitions_of(n))
            == math.factorial(n)
        )

    # dimension bookkeeping across the refined decomposition (weights 2..6)
    for n in range(2, 7):
        for shape in partitions_of(n):
            result = refined_decomposition(shape)
            total = result.refined_dimension
            for c in result.constituents:
                sub = refined_decomposition(c.gamma)
                total = total + sub.refined_dimension * c.multiplicity
            assert total == dimension_poly(shape), shape
            for N in range(n, n + 3):
                assert result.refined_dimension(N) >= 0

    # the single multiplicity-two pair at these weights
    heavy = [
        (shape, c.gamma)
        for n in range(2, 7)
        for shape in partitions_of(n)
        for c in refined_decomposition(shape).constituents
        if c.multiplicity > 1
    ]
    assert heavy == [(P((4, 2)), P((2,)))]
    print(f"\nACCEPTANCE 5: PASS - property suite ({time.time()-t0:.0f}s)")


# ---------------------------------------------------------------------------
# criterion 6: refined determinants against a dense oracle at concrete N
# ---------------------------------------------------------------------------


def _fraction_rref_kernel(rows, ncols):
    """Kernel basis of a small rational matrix, by row reduction."""
    m = [row[:] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][fc]
        basis.append(vec)
    return basis


def _form(u, v, diag):
    """<u, v> under the form diag(diag) on every tensor factor."""
    return sum(c * v[w] * math.prod(diag[x - 1] for x in w) for w, c in u.items() if w in v)


def _dense_refined(shape, diag):
    """Dimension and Gram determinant of the refined part at N = len(diag), densely.

    The symmetrized space is spanned by b_T = e u_T over the SSYT T with
    entries up to N.  Its refined part W is the complement of the coupled
    copies e phi_ij(z): the x in that span with pi_ij(e* x) = 0 for all
    i < j, where e* = R C is the adjoint of e = C R.  Under B = diag(b),
    phi_ij inserts sum_k e_k (x) e_k / b_k, and its adjoint pi_ij sums
    b_k y[w with k at i and j].
    """
    N, n = len(diag), shape.n
    basis = [symmetrize(shape, {sum(t, ()): 1}) for t in enumerate_ssyt(shape, N)]
    d = len(basis)
    constraints = {}
    for col, x in enumerate(basis):
        for w, c in row_sum(shape, column_sum(shape, x)).items():
            for i, j in itertools.combinations(range(n), 2):
                if w[i] == w[j]:
                    rest = w[:i] + w[i + 1:j] + w[j + 1:]
                    row = constraints.setdefault((i, j, rest), [Fraction(0)] * d)
                    row[col] += diag[w[i] - 1] * c
    # scaling a basis vector of W by s scales det G_W by s^2, so an
    # integral basis keeps the class and the arithmetic on ints
    kernel = []
    for vec in _fraction_rref_kernel(list(constraints.values()), d):
        scale = math.lcm(*(x.denominator for x in vec))
        kernel.append([int(x * scale) for x in vec])
    gram = [[_form(u, v, diag) for v in basis] for u in basis]
    gk = [[sum(g * vec[t] for t, g in enumerate(row) if g) for vec in kernel] for row in gram]
    gram_w = [
        [sum(vec[s] * gk[s][b] for s in range(d)) for b in range(len(kernel))]
        for vec in kernel
    ]
    return len(kernel), _fraction_det(gram_w)


def _dense_agrees(shape, diag, detb_exponent=None):
    """The dense W has the engine's refined dimension and square class at N = len(diag).

    The class is ``refined_det`` at N times det(B) to the parity of the
    det(B) exponent, the engine's unless ``detb_exponent`` is given.
    """
    N = len(diag)
    result = refined_decomposition(shape)
    if detb_exponent is None:
        detb_exponent = result.detB_exponent(N)
    expected = result.refined_det.evaluate_class(N) * math.prod(diag) ** (int(detb_exponent) % 2)
    dim, det = _dense_refined(shape, diag)
    ratio = det / expected  # a nonzero rational square when the classes agree
    is_square = ratio > 0 and all(math.isqrt(x) ** 2 == x for x in (ratio.numerator, ratio.denominator))
    return dim == result.refined_dimension(N) and is_square


def _first_n(shape):
    """N0 = lambda'_1 + lambda'_2, the least N at which the O(N) module [lambda] is nonzero."""
    cols = shape.conjugate().parts + (0,)
    return cols[0] + cols[1]


def _stretched(N):
    return (1,) * (N - 1) + (2,)


def test_criterion_6_refined_determinant():
    t0 = time.time()
    result = refined_decomposition(P((2, 1)))
    reduced = result.refined_det.reduced()

    # the stated closed formula, factor by factor
    c3 = Binomials.unit(3)
    n_binomials = Binomials.unit(1)
    assert reduced.factors == {2: n_binomials, 3: c3, Poly((-1, 1)): n_binomials}
    assert result.detB_exponent == Poly((-2, 0, 1))
    display = _class_json(reduced, result.detB_exponent)["display"]
    assert display == "2^N * 3^C(N,3) * (N - 1)^N * det(B)^(N^2 - 2)"

    # dense oracle for (2,1), orthonormal model
    for N in (4, 5, 6):
        assert _dense_agrees(P((2, 1)), (1,) * N), N

    # dense oracle with one stretched direction: checks the det(B) exponent
    for N in (4, 5):
        assert _dense_agrees(P((2, 1)), _stretched(N)), N

    # every shape of weight 2..4, from the first N where [lambda] is nonzero
    mismatches, runs = [], 0
    for n in range(2, 5):
        for shape in partitions_of(n):
            for N in (_first_n(shape), _first_n(shape) + 1):
                for diag in ((1,) * N, _stretched(N)):
                    runs += 1
                    if not _dense_agrees(shape, diag):
                        mismatches.append((shape, diag))
    assert runs == 40
    assert not mismatches, mismatches
    print(
        f"\nACCEPTANCE 6: PASS - refined determinant formula and dense oracle, "
        f"{runs + 5} runs ({time.time()-t0:.0f}s)"
    )


@pytest.mark.slow
@pytest.mark.parametrize("shape", partitions_of(5), ids=str)
def test_criterion_6_weight_five(shape):
    for N in (_first_n(shape), _first_n(shape) + 1):
        assert _dense_agrees(shape, (1,) * N), N


def test_criterion_6_range_of_n():
    t0 = time.time()
    # Koike-Terada (1987): [lambda] is nonzero exactly for N >= N0, so no
    # coupling determinant or linear base of the refined class may vanish
    # there, and the refined dimension turns on at N0
    violations, couplings = [], 0
    for shape in (p for n in range(2, 9) for p in partitions_of(n)):
        n0 = _first_n(shape)
        result = refined_decomposition(shape)
        bases = [b for b in result.refined_det.factors if isinstance(b, Poly)]
        for c in result.constituents:
            couplings += 1
            _, linear, residual = poly_factor_rational(c.c_det)
            if residual.degree > 0:
                violations.append(f"{shape}/{c.gamma}: {residual} does not split")
            bases += [factor for factor, _ in linear]
        for base in bases:
            if -base.coeffs[0] / base.coeffs[1] > n0 - 2:
                violations.append(f"{shape}: root of {base} above N0 - 2 = {n0 - 2}")
        dims = [result.refined_dimension(N) for N in range(n0 - 1, n0 + 12)]
        if dims[0] != 0 or min(dims[1:]) <= 0:
            violations.append(f"{shape}: refined dimension {dims} from N0 - 1 = {n0 - 1}")
    assert couplings == 219
    assert not violations, violations
    print(
        f"\nACCEPTANCE 6 (range): PASS - 65 shapes, {couplings} couplings, "
        f"no root above N0 - 2, refined dimension on from N0 ({time.time()-t0:.0f}s)"
    )


def test_criterion_7_negative_controls(tmp_path, capsys):
    # corrupting one golden entry must be detected with a nonzero exit
    text = resources.files("symdet.data").joinpath("golden.json").read_text()
    doc = json.loads(text)
    doc["symmetrizations"][10]["det_class"] = [[11, [2]]]
    bad = tmp_path / "golden.json"
    bad.write_text(json.dumps(doc))
    code = cli_main(["--jobs", "1", "verify", "--scope", "sym", "--golden", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "mismatch" in out

    # exterior powers admit no contraction constituents
    assert constituent_poly(P((1, 1, 1, 1)), P((1, 1))) is None

    # the dense oracle tells the engine's det(B) exponent from n * dim / N,
    # which differs from it by N + 1 for (2,2)
    shape, diag = P((2, 2)), _stretched(4)
    result = refined_decomposition(shape)
    naive = shape.n * result.refined_dimension(4) / 4
    assert (result.detB_exponent(4), naive) == (15, 10)
    assert _dense_agrees(shape, diag)
    assert not _dense_agrees(shape, diag, naive)
    print("\nACCEPTANCE 7: PASS - negative controls behave")
