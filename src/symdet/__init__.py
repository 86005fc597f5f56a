"""Exact determinants of tensor symmetrizations of bilinear forms.

The engine reports the determinant of the symmetrized form of a shape
as a closed formula in the ambient dimension N, modulo squares: from
Gelfand-Tsetlin norms for tables, and for one shape from its exact
content-blocked Gram matrices, none of them cached.  For the
orthogonal group it further splits each symmetrization into refined
constituents via paired-insertion embeddings and computes their
coupling matrices and determinants.

``import symdet`` loads no engine module.  Each name in ``__all__`` is
imported from its module on first access (a module ``__getattr__``), so
``from symdet import refined_decomposition`` loads the refined layer and
what it needs, and the CLI loads only the modules of the command it runs.

Main entry points
-----------------
- :func:`symdet.gram.symmetrization_determinant` (every Gram block of one shape)
- :func:`symdet.gram.determinant_class` (reduced class and dimension only)
- :func:`symdet.gram.gram_block`
- :func:`symdet.refined.refined_decomposition`
- :func:`symdet.refined.constituent_poly`
- :func:`symdet.golden.load_golden` / verification helpers
- ``symdet`` CLI (see :mod:`symdet.cli`)

The paper's closed forms for the single row, the single column and the
hooks (2,1^(n-2)) and (3,1^(n-3)) serve as test oracles only, and live
with the tableau counters in ``tests/reference.py``.
"""

_EXPORTS = {
    "Binomials": "exact",
    "Partition": "combinat",
    "Poly": "exact",
    "SquareClassFormula": "exact",
    "compositions_of": "combinat",
    "constituent_gram": "refined",
    "constituent_poly": "refined",
    "determinant_class": "gram",
    "dimension_poly": "combinat",
    "gram_block": "gram",
    "partitions_of": "combinat",
    "phi_insert": "refined",
    "pi_contract": "refined",
    "poly_factor_rational": "exact",
    "refined_decomposition": "refined",
    "squarefree_part": "exact",
    "symmetrization_determinant": "gram",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted([*globals(), *__all__])
