"""The operand rule: every operation on functions, fields and forms refuses
operands over two algebras (AlgebraMismatch) and operands on two charts
(DimensionMismatch), whichever class the operands belong to."""

import operator

import pytest

from weilc import (
    AFunction,
    APoint,
    CoordForm,
    VectorField,
    canonical_structure,
    contract,
    dual_numbers,
    interior,
    jets,
    lie_bracket,
    omega_prolonged,
    parse,
    prolong_bracket,
    wedge,
)
from weilc.errors import AlgebraMismatch, DimensionMismatch
from weilc.expr import ConstA, Var, mul
from weilc.poisson import omega_at
from weilc.prolongation import AVectorField

DUAL = dual_numbers()
JET2 = jets(2)
PI = canonical_structure(1)  # on R^2


def function(algebra, dim):
    return AFunction(parse("x1^2", dim), dim, algebra)


def field(algebra, dim):
    """A prolonged field, or a base field when ``algebra`` is None."""
    comps = tuple(parse("x1", dim) for _ in range(dim))
    return VectorField(comps) if algebra is None else AVectorField(comps, algebra)


def form(algebra, dim):
    return CoordForm(1, dim, algebra, {(0,): parse("x1", dim)})


def expression(algebra, dim):
    """An Expr that uses the chart's last variable, with a constant over
    ``algebra`` unless it is None."""
    e = Var(dim - 1)
    return e if algebra is None else mul(ConstA(algebra.unit()), e)


def at_a_point(d, fn):
    return d.apply_at(fn, APoint.from_reals(d.algebra, [0.5] * d.dim))


PROLONGED = (DUAL, JET2)
BASE = (None, DUAL)  # a base operand against a prolonged one

# (name, left operand, right operand, operation, the two algebras)
CASES = [
    ("function +", function, function, operator.add, PROLONGED),
    ("function -", function, function, operator.sub, PROLONGED),
    ("function *", function, function, operator.mul, PROLONGED),
    ("field +", field, field, operator.add, PROLONGED),
    ("base field +", field, field, operator.add, BASE),
    ("form +", form, form, operator.add, PROLONGED),
    ("apply", field, function, lambda d, f: d.apply(f), PROLONGED),
    ("apply_at", field, function, at_a_point, PROLONGED),
    ("wedge", form, form, wedge, PROLONGED),
    ("interior", field, form, interior, PROLONGED),
    ("contract", field, form, contract, PROLONGED),
    ("lie_bracket", field, field, lie_bracket, BASE),
    ("prolong_bracket", function, function,
     lambda a, b: prolong_bracket(PI, a, b, force=True), PROLONGED),
    ("omega_prolonged", form, form,
     lambda x, y: omega_prolonged(PI, x, y, force=True), PROLONGED),
    ("omega_at", form, form,
     lambda x, y: omega_at(PI, x, y, APoint.from_reals(x.algebra, [0.5, 0.5]),
                           force=True), PROLONGED),
    ("field scale by function", field, function, lambda d, f: d.scale(f), PROLONGED),
    ("form scale by function", form, function, lambda w, f: w.scale(f), PROLONGED),
    ("field scale by expression", field, expression, lambda d, e: d.scale(e), PROLONGED),
    ("form scale by expression", form, expression, lambda w, e: w.scale(e), PROLONGED),
    ("base field scale by expression", field, expression,
     lambda d, e: d.scale(e), BASE),
]
IDS = [case[0] for case in CASES]


@pytest.mark.parametrize("name, left, right, op, algebras", CASES, ids=IDS)
def test_operands_over_two_algebras(name, left, right, op, algebras):
    first, second = algebras
    with pytest.raises(AlgebraMismatch):
        op(left(first, 2), right(second, 2))


@pytest.mark.parametrize("name, left, right, op, algebras", CASES, ids=IDS)
def test_operands_on_two_charts(name, left, right, op, algebras):
    # the right operand uses x2, which the left operand's chart lacks
    first, _ = algebras
    with pytest.raises(DimensionMismatch):
        op(left(first, 1), right(first, 2))


def test_base_field_scale_by_function_over_an_algebra():
    with pytest.raises(AlgebraMismatch):
        field(None, 1).scale(function(DUAL, 1))


@pytest.mark.parametrize("name, left, right, op, algebras", CASES, ids=IDS)
def test_operands_on_one_chart_over_one_algebra(name, left, right, op, algebras):
    # the same operation is defined once the operands agree
    first, _ = algebras
    op(left(first, 2), right(first, 2))
