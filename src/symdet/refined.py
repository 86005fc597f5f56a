"""Refined symmetrizations for the orthogonal group.

The symmetrized space of a shape decomposes under the orthogonal group
of the form into a traceless core plus copies of smaller refined
pieces, reached by inserting paired basis vectors at chosen tensor
positions and re-symmetrizing.  For each smaller shape gamma the
coupling is a symmetric matrix of polynomials in N; its size is the
multiplicity and its determinant class feeds the refined determinant.
Both the coupling class and the refined determinant are held as the
reduced :class:`SquareClassFormula`, the one square-class value.
The multiplicity comes from Littlewood's branching rule, and the
coupling basis is the first that many independent chain embeddings
in one scan of the candidate chains.

Everything runs in the orthonormal model (every basis vector of norm
1): the couplings are polynomials in N alone, so no generality is lost.
Insertion and contraction are the Brauer-algebra action, so each
coupling entry is a strand count over words whose inserted pairs stay
dummy letters, evaluated once with N symbolic.  ``ConcreteTensor`` and
the functions on it evaluate the same objects at a concrete N; they are
kept as the independent oracle the symbolic path is tested against.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .combinat import Partition, detb_exponent, littlewood_multiplicity, partitions_of
from .exact import Binomials, Poly, SquareClassFormula, Value, poly_matrix_det
from .gram import MAX_REFINED_N, determinant_class
from .symmetrizer import column_sum, row_sum, symmetrize

Word = tuple[int, ...]
Chain = tuple[tuple[int, int], ...]


class ConcreteTensor(Value):
    """Sparse element of the n-th tensor power at concrete dimension.

    The fields are fixed; ``add`` updates the ``terms`` table in place.

    Fields: degree: int, dim: int, terms: dict[Word, Fraction].
    """

    __slots__ = ("degree", "dim", "terms")

    def add(self, word: Word, coeff) -> None:
        c = self.terms.get(word, 0) + coeff
        if c:
            self.terms[word] = c
        else:
            self.terms.pop(word, None)

    def norm(self) -> Fraction:
        """Inner product with itself in the orthonormal model."""
        return self.dot(self)

    def dot(self, other: "ConcreteTensor") -> Fraction:
        a, b = self.terms, other.terms
        if len(b) < len(a):
            a, b = b, a
        return sum((c * b[w] for w, c in a.items() if w in b), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms


def phi_insert(t: ConcreteTensor, i: int, j: int) -> ConcreteTensor:
    """Insert a summed dual pair at positions i < j of the result.

    Positions are 1-based and refer to the new degree t.degree + 2; the
    original factors keep their order in the remaining slots.
    """
    return embed_chain(((i, j),), t, t.degree + 2)


def pi_contract(t: ConcreteTensor, i: int, j: int) -> ConcreteTensor:
    """Evaluate the form at positions i < j and drop them (orthonormal)."""
    if t.degree < 2:
        raise ValueError("tensor degree must be at least 2")
    if not (1 <= i < j <= t.degree):
        raise ValueError("contraction positions out of range")
    out = ConcreteTensor(t.degree - 2, t.dim, {})
    for word, coeff in t.terms.items():
        if word[i - 1] != word[j - 1]:
            continue
        reduced = tuple(x for p, x in enumerate(word) if p not in (i - 1, j - 1))
        out.add(reduced, coeff)
    return out


def embed_chain(chain: Chain, src: ConcreteTensor, target_degree: int) -> ConcreteTensor:
    """Apply the insertions of a chain, pair positions in the final frame.

    Each pair receives its own summation letter; the source letters
    fill the remaining positions in order.  Equivalent to composing
    single insertions whose indices are written for the final degree.
    """
    pairs = list(chain)
    taken = [p for ij in pairs for p in ij]
    if len(set(taken)) != len(taken):
        raise ValueError("chain pairs must be disjoint")
    if any(not (1 <= i < j <= target_degree) for i, j in pairs):
        raise ValueError("chain positions out of range")
    if src.degree + 2 * len(pairs) != target_degree:
        raise ValueError("chain length does not bridge the degrees")
    slots = [p for p in range(target_degree) if p + 1 not in taken]
    out = ConcreteTensor(target_degree, src.dim, {})
    dim = src.dim
    for word, coeff in src.terms.items():
        template = [0] * target_degree
        for p, letter in zip(slots, word):
            template[p] = letter
        for ks in itertools.product(range(1, dim + 1), repeat=len(pairs)):
            for (i, j), k in zip(pairs, ks):
                template[i - 1] = k
                template[j - 1] = k
            out.add(tuple(template), coeff)
    return out


def symmetrize_tensor(shape: Partition, t: ConcreteTensor) -> ConcreteTensor:
    """Apply the shape's symmetrizer to every term."""
    if t.degree != shape.n:
        raise ValueError("degree must match the shape weight")
    return ConcreteTensor(t.degree, t.dim, symmetrize(shape, t.terms))


def reference_vector(gamma: Partition, dim: int) -> ConcreteTensor:
    """Symmetrizer image of the all-distinct word, a traceless element.

    Every contraction kills it because all letters differ, so it lies
    in the refined part of gamma's symmetrization.
    """
    m = gamma.n
    if dim < m:
        raise ValueError("ambient dimension too small for the reference vector")
    word = tuple(range(1, m + 1))
    terms = symmetrize(gamma, {word: 1})
    return ConcreteTensor(m, dim, {w: Fraction(c) for w, c in terms.items()})


def constituent_gram(
    shape: Partition, gamma: Partition, chains: list[Chain], N: int
) -> list[list[Fraction]]:
    """Coupling Gram matrix of the chain embeddings at concrete N.

    Entry (a,b) is the inner product of the symmetrized chain images of
    the reference vector, divided by the reference vector's own norm;
    with that normalization the matrix is the coupling in a basis of
    the multiplicity space, anchored to the restriction form on the
    refined gamma space.
    """
    n = shape.n
    if N < n:
        raise ValueError("ambient too small")
    v = reference_vector(gamma, N)
    nv = v.norm()
    images = [symmetrize_tensor(shape, embed_chain(ch, v, n)) for ch in chains]
    size = len(images)
    out = [[Fraction(0)] * size for _ in range(size)]
    for a in range(size):
        for b in range(a, size):
            val = images[a].dot(images[b]) / nv
            out[a][b] = val
            out[b][a] = val
    return out


# ---------------------------------------------------------------------------
# chain pools
# ---------------------------------------------------------------------------


def chain_pool(n: int, j: int) -> list[Chain]:
    """Candidate chains of j disjoint pairs, in scan order, one per pair set.

    First the structured pool: the first pair is (1,2), and each deeper
    level offers the remaining aligned pairs plus the smallest
    non-aligned disjoint pair.  Then every other chain: the disjoint
    j-subsets of the lexicographic pair list, in their own
    lexicographic order.  A chain whose pairs an earlier chain holds in
    another order only renumbers that chain's dummies, so it is left out.
    """
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    aligned = [(2 * i - 1, 2 * i) for i in range(1, n // 2 + 1)]

    def extend(prefix: list[tuple[int, int]], used: set[int]) -> list[Chain]:
        if len(prefix) == j:
            return [tuple(prefix)]
        options = [p for p in aligned if p > prefix[-1] and not used & set(p)]
        options += itertools.islice((p for p in pairs if p not in aligned and not used & set(p)), 1)
        return [c for p in options for c in extend(prefix + [p], used | set(p))]

    disjoint = (c for c in itertools.combinations(pairs, j) if len(set(sum(c, ()))) == 2 * j)
    pool: dict[frozenset[tuple[int, int]], Chain] = {}
    for c in itertools.chain(extend([(1, 2)], {1, 2}), disjoint):
        pool.setdefault(frozenset(c), c)
    return list(pool.values())


# ---------------------------------------------------------------------------
# constituents as polynomial matrices
# ---------------------------------------------------------------------------


class RefinedConstituent(Value):
    """Coupling of one smaller shape gamma inside a symmetrization.

    Fields: gamma: Partition, multiplicity: int, chains: tuple[Chain, ...], c_matrix:
    tuple[tuple[Poly, ...], ...], c_det: Poly, c_reduced: SquareClassFormula (class of c_det
    modulo squares, reduced).
    """

    __slots__ = ("gamma", "multiplicity", "chains", "c_matrix", "c_det", "c_reduced")


def _dummy_embed(chain: Chain, v: dict[Word, int], n: int, first: int) -> dict[Word, int]:
    """Chain embedding of v with pair k written as the dummy letter -(first + k)."""
    slots = [p for p in range(n) if all(p + 1 not in ij for ij in chain)]
    out = {}
    for word, coeff in v.items():
        w = [0] * n
        for p, letter in zip(slots, word):
            w[p] = letter
        for k, (i, jj) in enumerate(chain, 1):
            w[i - 1] = w[jj - 1] = -(first + k)
        out[tuple(w)] = coeff
    return out


def _pairing(x: Word, ys: dict[Word, int], j: int) -> list[int]:
    """<x, y> summed over every dummy value, as coefficients of N^0..N^j.

    The dummies of y must differ from those of x.  Position p ties x's
    letter to y's, and the ties join letters into strands: a closed
    strand of dummies is a free sum, a factor N, and a strand through
    two different letters gives 0.  Each tie that joins two strands is
    one entry of ``root``; when every letter keeps a strand of its own,
    the 2j dummies close 2j - len(root) strands.
    """
    counts = [0] * (j + 1)
    for y, cy in ys.items():
        root: dict[int, int] = {}
        for a, b in zip(x, y):
            while a in root:
                a = root[a]
            while b in root:
                b = root[b]
            if a == b:
                continue
            if a > 0 and b > 0:
                break
            if a < b:
                root[a] = b
            else:
                root[b] = a
        else:
            counts[2 * j - len(root)] += cy
    return counts


def constituent_poly(shape: Partition, gamma: Partition) -> RefinedConstituent | None:
    """Coupling of a smaller shape inside a symmetrization, or None.

    With w0 = (1..m), gamma's reference vector is v = e' w0 for gamma's
    symmetrizer e' = C' R', and X_c(u) embeds u along chain c, each
    inserted pair kept as one dummy letter.  Entry (a,b) is
    <e X_a(v), e X_b(v)> / <v,v>.  As e = C R with R* = R, C* = C and
    C^2 = |C| C, it is |C| <X_a(v), R C R X_b(v)> / <v,v>.  Each term of
    v relabels the letters of w0, and the pairing is unchanged when
    both sides relabel alike, so X_a(v) may be moved onto X_a(w0) with
    v replaced by e' e'* w0 = |R'| C' R' C' w0 on the other side: one
    word against one sum, paired by an exact strand count with N
    symbolic.  The scale |C| |R'| / <v,v> is |C| / |C'|, because the
    |C'| |R'| words c r w0 of v are distinct (C' and R' meet in {id}).

    The multiplicity m is known in advance from Littlewood's branching
    rule (``littlewood_multiplicity``); None means it is 0, and nothing
    is scanned.  Otherwise the scan walks ``chain_pool`` once and keeps
    a chain when the Gram of the kept chains with it has a nonzero
    determinant over the rational function field, so a chain whose
    image vanishes is never kept and the kept Gram stays nonsingular.
    That Gram is the kept one bordered by the candidate's column: its
    one RCR sum paired with the kept chains' words and its own.
    It stops at m chains, which span the multiplicity space as m is its
    dimension, and the last accepted determinant is the coupling's.
    Running out of chains first, or a coupling determinant that does not
    split into rational linear factors, raises ArithmeticError naming
    the shape and gamma.
    """
    n, m = shape.n, gamma.n
    if (n - m) % 2 or n == m:
        raise ValueError("gamma must have weight n - 2j for some j >= 1")
    target = littlewood_multiplicity(shape, gamma)
    if not target:
        return None
    j = (n - m) // 2
    w0 = {tuple(range(1, m + 1)): 1}
    v_adj = symmetrize(gamma, column_sum(gamma, w0))
    col_orders = (math.prod(map(math.factorial, p.conjugate().parts)) for p in (shape, gamma))
    scale = Fraction(*col_orders)
    chosen: list[Chain] = []
    words: list[Word] = []  # X_a(w0) of each kept chain a
    coupling: list[list[Poly]] = []  # the kept chains' coupling rows
    for ch in chain_pool(n, j):
        rcr = row_sum(shape, column_sum(shape, row_sum(shape, _dummy_embed(ch, v_adj, n, j))))
        [x] = _dummy_embed(ch, w0, n, 0)
        col = [Poly([scale * c for c in _pairing(y, rcr, j)]) for y in words + [x]]
        bordered = [row + [c] for row, c in zip(coupling, col)] + [col]
        trial_det = poly_matrix_det(bordered)
        if trial_det:
            chosen.append(ch)
            words.append(x)
            coupling = bordered
            det = trial_det
            if len(chosen) == target:
                break
    else:
        raise ArithmeticError(
            f"refined {shape}/{gamma}: {len(chosen)} independent chains, "
            f"Littlewood multiplicity {target}"
        )
    try:
        c_reduced = SquareClassFormula.product([(det, Binomials.unit(0))]).reduced()
    except ArithmeticError as exc:
        raise ArithmeticError(f"refined {shape}/{gamma}: coupling determinant {exc}") from exc
    return RefinedConstituent(gamma, target, tuple(chosen), tuple(map(tuple, coupling)), det, c_reduced)


# ---------------------------------------------------------------------------
# full decomposition
# ---------------------------------------------------------------------------


class RefinedResult(Value):
    """Constituents, refined dimension and refined determinant of one shape.

    Fields: shape: Partition, constituents: tuple[RefinedConstituent, ...], refined_dimension:
    Poly, refined_det: SquareClassFormula (class modulo squares, reduced).
    """

    __slots__ = ("shape", "constituents", "refined_dimension", "refined_det")


@lru_cache(maxsize=None)
def refined_decomposition(shape: Partition) -> RefinedResult:
    """Constituent list, refined dimension and refined determinant.

    The refined dimension subtracts every coupled copy recursively; the
    refined determinant divides the full determinant class by each
    coupling determinant (raised to the copy's dimension) and each
    copy's refined determinant (raised to the multiplicity).
    """
    n = shape.n
    if n > MAX_REFINED_N:
        raise ValueError(f"refined decomposition supported for n <= {MAX_REFINED_N}")
    if n == 0:
        return RefinedResult(shape, (), Poly.const(1), SquareClassFormula())

    constituents = tuple(
        c for j in range(1, n // 2 + 1) for gamma in partitions_of(n - 2 * j)
        if (c := constituent_poly(shape, gamma)) is not None
    )

    # mod 2 reduction of each binomial coefficient commutes with the
    # products below, so the reduced class stands in for the exact one;
    # c_det^(-d) is c_reduced^d, as every exponent of c_reduced is 1 and
    # -d = d mod 2
    sym = determinant_class(shape)
    dim = sym.dimension
    terms = [(sym.c_reduced, 1)]
    for c in constituents:
        sub = refined_decomposition(c.gamma)
        dim = dim - sub.refined_dimension * c.multiplicity
        d = Binomials.of(sub.refined_dimension)
        terms.append((c.c_reduced, d))
        terms.append((sub.refined_det, -c.multiplicity))
    det = SquareClassFormula.product(terms, detb_exponent(shape))
    return RefinedResult(shape, constituents, dim, det.reduced())
