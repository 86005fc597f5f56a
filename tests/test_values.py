"""The value classes: slotted, immutable, hashed and pickled by their field tuples."""

import pickle
from fractions import Fraction

import pytest

from symdet.combinat import Partition
from symdet.exact import Binomials, Poly, SquareClassFormula, Value
from symdet.golden import VerifyReport, load_golden
from symdet.gram import GramBlock, determinant_class, gram_block, symmetrization_determinant
from symdet.refined import ConcreteTensor, refined_decomposition

P = Partition


def _instances():
    golden = load_golden()
    formula = SquareClassFormula.product(
        [(12, Binomials.unit(2)), (Poly((-1, 1)), Binomials.unit(1))]
    )
    refined = refined_decomposition(P((3, 1)))
    return [
        P((2, 1)),
        Poly((1, 2)),
        Binomials((1, 0, 1)),
        SquareClassFormula(formula.factors, Poly((0, 1))),
        gram_block(P((2, 1)), (1, 1, 1)),
        symmetrization_determinant(P((2, 1))),
        determinant_class(P((2, 1))),
        ConcreteTensor(2, 3, {(1, 2): Fraction(1, 2)}),
        refined.constituents[0],
        refined,
        golden.refined_rows[0],
        golden,
        VerifyReport(3, ["a mismatch"]),
    ]


VALUES = _instances()


def test_every_value_class_is_covered():
    classes = {type(x) for x in VALUES}
    assert len(classes) == len(VALUES) == 13
    assert all(isinstance(x, Value) and not hasattr(x, "__dict__") for x in VALUES)


def test_only_normalizing_classes_define_a_constructor():
    # every record is built by Value.__init__, from its fields in slot order
    own = {cls for cls in map(type, VALUES) if "__init__" in vars(cls)}
    assert own == {Partition, Poly, Binomials, SquareClassFormula}


def test_equality_and_hash_are_values_alone():
    # every class compares and hashes as Value does: same class, equal field tuples
    assert not [cls for cls in map(type, VALUES) if {"__eq__", "__hash__"} & set(vars(cls))]


def test_wrong_field_count_names_the_class_and_its_fields():
    with pytest.raises(TypeError, match=r"GramBlock .*\(shape, pattern, matrix, det\)"):
        GramBlock(P((2, 1)), (1, 1, 1), ())


@pytest.mark.parametrize("value", VALUES, ids=lambda x: type(x).__name__)
def test_value_contract(value):
    fields = tuple(getattr(value, name) for name in type(value).__slots__)
    assert pickle.loads(pickle.dumps(value)) == value
    try:
        expected = hash(fields)
    except TypeError:  # a list, dict or read-only mapping field
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == expected
    with pytest.raises(AttributeError):
        setattr(value, type(value).__slots__[0], None)
    with pytest.raises(AttributeError):
        delattr(value, type(value).__slots__[0])
    assert getattr(value, type(value).__slots__[0]) is fields[0]


def test_repr_and_order():
    assert repr(P((2, 1))) == "Partition(parts=(2, 1))"
    assert repr(Poly((1, 2))) == "Poly(coeffs=(Fraction(1, 1), Fraction(2, 1)))"
    assert sorted([P((3,)), P((1, 1, 1)), P((2, 1))]) == [P((1, 1, 1)), P((2, 1)), P((3,))]
    assert P((2, 1)) <= P((2, 1)) < P((3,)) and P((3,)) >= P((3,)) > P((2, 1))
    assert P((2, 1)) != (2, 1) and Poly((1,)) != Binomials((1,))
