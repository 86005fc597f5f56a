"""Exact determinants of tensor symmetrizations of bilinear forms.

The engine reports the determinant of the symmetrized form of a shape
as a closed formula in the ambient dimension N, modulo squares: from
Gelfand-Tsetlin norms for tables, and for one shape from its exact
content-blocked Gram matrices, none of them cached.  For the
orthogonal group it further splits each symmetrization into refined
constituents via paired-insertion embeddings and computes their
coupling matrices and determinants.

Main entry points
-----------------
- :func:`symdet.gram.symmetrization_determinant` (every Gram block of one shape)
- :func:`symdet.gram.determinant_classes` (reduced class and dimension only)
- :func:`symdet.gram.gram_block`
- :func:`symdet.gram.closed_form_c`
- :func:`symdet.refined.refined_decomposition`
- :func:`symdet.refined.constituent_poly`
- :func:`symdet.golden.load_golden` / verification helpers
- ``symdet`` CLI (see :mod:`symdet.cli`)
"""

from .combinat import Partition, compositions_of, dimension_poly, partitions_of
from .exact import Binomials, Poly, SquareClassFormula, interpolate, poly_factor_rational, squarefree_part
from .gram import closed_form_c, determinant_classes, gram_block, hook_block_det, symmetrization_determinant
from .refined import constituent_gram, constituent_poly, phi_insert, pi_contract, refined_decomposition

__all__ = [
    "Binomials",
    "Partition",
    "Poly",
    "SquareClassFormula",
    "closed_form_c",
    "compositions_of",
    "constituent_gram",
    "constituent_poly",
    "determinant_classes",
    "dimension_poly",
    "gram_block",
    "hook_block_det",
    "interpolate",
    "partitions_of",
    "phi_insert",
    "pi_contract",
    "poly_factor_rational",
    "refined_decomposition",
    "squarefree_part",
    "symmetrization_determinant",
]

__version__ = "0.1.0"
