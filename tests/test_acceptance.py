"""Acceptance gate: one test per criterion, exact tolerances throughout.

Every check is exact integer/rational arithmetic; there are no numeric
tolerances anywhere.  Each test prints a single PASS line on success
(visible with ``pytest -s`` or in the captured output).
"""

import json
import math
import random
import time
from fractions import Fraction
from importlib import resources


from symdet.cli import main as cli_main
from symdet.combinat import (
    Partition,
    compositions_of,
    dimension_poly,
    enumerate_ssyt,
    frame_of,
    partitions_of,
    ssyt_with_pattern,
    standard_tableau_count,
)
from symdet.exact import Binomials, Poly, squarefree_part
from symdet.golden import load_golden, verify_refined
from symdet.gram import closed_form_c, gram_block, symmetrization_determinant
from symdet.refined import (
    ConcreteTensor,
    constituent_poly,
    phi_insert,
    pi_contract,
    refined_decomposition,
)
from symdet.symmetrizer import symmetrize, word_of_tableau

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
            frame = frame_of(shape)
            per_pattern = []
            for pattern in compositions_of(n):
                tabs = ssyt_with_pattern(shape, pattern)
                if tabs:
                    per_pattern.append(symmetrize(shape, {word_of_tableau(frame, tabs[0]): 1}))
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
# criterion 6: the refined determinant of the smallest two-row shape
# ---------------------------------------------------------------------------


def _weighted_inner(u, v, diag):
    total = Fraction(0)
    for w, cu in u.items():
        cv = v.get(w)
        if cv is None:
            continue
        q = Fraction(1)
        for x in w:
            q *= diag[x - 1]
        total += cu * cv * q
    return total


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


def _fraction_det(matrix):
    n = len(matrix)
    m = [row[:] for row in matrix]
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            if m[i][k] == 0:
                continue
            f = m[i][k] * inv
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def _orthocomplement_class(N, diag):
    """Dense oracle: Gram determinant class of the complement of the
    embedded copy of the base space inside the symmetrized space."""
    shape = P((2, 1))
    frame = frame_of(shape)
    tabs = enumerate_ssyt(shape, N)
    tabs.sort(key=lambda t: tuple(x for row in t for x in row))
    basis = [symmetrize(shape, {word_of_tableau(frame, t): 1}) for t in tabs]
    d = len(basis)
    # embedded vectors: dual-pair insertion of each base vector, symmetrized
    embedded = []
    for i in range(1, N + 1):
        vec = {}
        for k in range(1, N + 1):
            img = symmetrize(shape, {(k, k, i): 1})
            for w, c in img.items():
                vec[w] = vec.get(w, Fraction(0)) + Fraction(c, diag[k - 1])
        embedded.append({w: c for w, c in vec.items() if c})
    constraints = [
        [_weighted_inner(b, x, diag) for x in basis] for b in embedded
    ]
    kernel = _fraction_rref_kernel(constraints, d)
    assert len(kernel) == d - N
    gram_full = [[_weighted_inner(basis[i], basis[j], diag) for j in range(d)] for i in range(d)]
    gk = [
        [sum(gram_full[i][j] * vec[j] for j in range(d)) for vec in kernel]
        for i in range(d)
    ]
    gram_w = [
        [sum(vec[i] * gk[i][b] for i in range(d)) for b in range(len(kernel))]
        for vec in kernel
    ]
    det = _fraction_det(gram_w)
    assert det != 0
    return squarefree_part(det)[0]


def test_criterion_6_refined_determinant():
    t0 = time.time()
    result = refined_decomposition(P((2, 1)))
    reduced = result.refined_det.reduced()

    # the stated closed formula, factor by factor
    c3 = Binomials.unit(3)
    n_binomials = Binomials.unit(1)
    assert reduced.factors == {2: n_binomials, 3: c3, Poly((-1, 1)): n_binomials}
    assert reduced.detB_exponent == Poly((-2, 0, 1))
    assert reduced.render_text() == "2^N * 3^C(N,3) * (N - 1)^N * det(B)^(N^2 - 2)"

    # dense oracle, orthonormal model
    for N in (4, 5, 6):
        expected = reduced.evaluate_class(N)  # det(B) = 1 here
        assert _orthocomplement_class(N, (1,) * N) == expected, N

    # dense oracle with one stretched direction: checks the det(B) exponent
    for N in (4, 5):
        diag = (1,) * (N - 1) + (2,)
        det_b = 2
        parity = int(reduced.detB_exponent(N)) % 2
        expected = squarefree_part(reduced.evaluate_class(N) * det_b**parity)[0]
        assert _orthocomplement_class(N, diag) == expected, N
    print(f"\nACCEPTANCE 6: PASS - refined determinant formula and oracle ({time.time()-t0:.0f}s)")


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
    print("\nACCEPTANCE 7: PASS - negative controls behave")
