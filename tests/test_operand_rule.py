"""The operand rule: every operation on functions, fields and forms refuses
operands over two algebras (AlgebraMismatch) and operands on two charts
(DimensionMismatch), whichever class the operands belong to.  So do the
coefficient rule, when a function, field, form or bivector is built, and
the point rule, when one is evaluated.  A base object of any class has
algebra None."""

import operator

import pytest

from weilc import (
    AFunction,
    APoint,
    CoordForm,
    PoissonStructure,
    VectorField,
    apply_field,
    canonical_structure,
    contract,
    dual_numbers,
    interior,
    jets,
    lie_bracket,
    lie_derivative,
    omega_prolonged,
    jacobi_check,
    parse,
    prolong_bracket,
    trivial_algebra,
    wedge,
)
from weilc.errors import AlgebraMismatch, DimensionMismatch
from weilc.expr import ConstA, Var, mul
from weilc.oracle import interior_eval
from weilc.poisson import omega_at

DUAL = dual_numbers()
JET2 = jets(2)
PI = canonical_structure(1)  # on R^2


def function(algebra, dim):
    return AFunction(parse("x1^2", dim), dim, algebra)


def field(algebra, dim):
    """A prolonged field, or a base field when ``algebra`` is None."""
    return VectorField(tuple(parse("x1", dim) for _ in range(dim)), algebra)


def form(algebra, dim):
    return CoordForm(1, dim, algebra, {(0,): parse("x1", dim)})


def expression(algebra, dim):
    """An Expr that uses the chart's last variable, with a constant over
    ``algebra`` unless it is None."""
    e = Var(dim - 1)
    return e if algebra is None else mul(ConstA(algebra.unit()), e)


def at_a_point(d, fn):
    return d.apply_at(fn, APoint.from_reals(d.algebra, [0.5] * d.dim))


def interior_at_a_point(d, w):
    # a base form is evaluated at a point over dual
    return interior_eval(d, w, APoint.from_reals(w.algebra or DUAL, [0.5] * d.dim))


PROLONGED = (DUAL, JET2)
BASE = (None, DUAL)  # a base operand against a prolonged one

# (name, left operand, right operand, operation, the two algebras)
CASES = [
    ("function +", function, function, operator.add, PROLONGED),
    ("function -", function, function, operator.sub, PROLONGED),
    ("function *", function, function, operator.mul, PROLONGED),
    ("field +", field, field, operator.add, PROLONGED),
    ("base field +", field, field, operator.add, BASE),
    ("base function *", function, function, operator.mul, BASE),
    ("form +", form, form, operator.add, PROLONGED),
    ("base form +", form, form, operator.add, BASE),
    ("apply", field, function, lambda d, f: d.apply(f), PROLONGED),
    ("apply_at", field, function, at_a_point, PROLONGED),
    ("wedge", form, form, wedge, PROLONGED),
    ("interior", field, form, interior, PROLONGED),
    ("interior_eval", field, form, interior_at_a_point, PROLONGED),
    ("base interior_eval", field, form, interior_at_a_point, BASE),
    ("contract", field, form, contract, PROLONGED),
    ("base contract", field, form, contract, BASE),
    ("lie_derivative", field, form, lie_derivative, PROLONGED),
    ("base lie_derivative", field, form, lie_derivative, BASE),
    ("base apply", field, function, lambda d, f: d.apply(f), BASE),
    ("lie_bracket", field, field, lie_bracket, BASE),
    ("prolonged lie_bracket", field, field, lie_bracket, PROLONGED),
    ("prolong_bracket", function, function,
     lambda a, b: prolong_bracket(PI, a, b), PROLONGED),
    ("omega_prolonged", form, form,
     lambda x, y: omega_prolonged(PI, x, y), PROLONGED),
    ("omega_at", form, form,
     lambda x, y: omega_at(PI, x, y, APoint.from_reals(x.algebra, [0.5, 0.5])),
     PROLONGED),
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


# (name, chart dimension, build from one coefficient)
BUILDERS = [
    ("function", 1, lambda e: AFunction(e, 1, DUAL)),
    ("base function", 1, lambda e: AFunction(e, 1, None)),
    ("form", 1, lambda e: CoordForm(1, 1, DUAL, {(0,): e})),
    ("base form", 1, lambda e: CoordForm(1, 1, None, {(0,): e})),
    ("prolonged field", 1, lambda e: VectorField((e,), DUAL)),
    ("base field", 1, lambda e: VectorField((e,))),
    ("bivector", 2, lambda e: PoissonStructure(2, {(0, 1): e})),
]
BUILDER_IDS = [case[0] for case in BUILDERS]


@pytest.mark.parametrize("name, dim, build", BUILDERS, ids=BUILDER_IDS)
def test_constructors_refuse_a_coefficient_off_the_chart(name, dim, build):
    with pytest.raises(DimensionMismatch, match=f"x{dim + 1}"):
        build(parse(f"x{dim + 1}", dim + 1))
    build(parse(f"x{dim}", dim))


@pytest.mark.parametrize("name, dim, build", BUILDERS, ids=BUILDER_IDS)
def test_constructors_refuse_foreign_constants(name, dim, build):
    # JET2 is foreign to the prolonged objects over DUAL, and any algebra
    # is foreign to the base objects
    with pytest.raises(AlgebraMismatch):
        build(expression(JET2, dim))


# A base function and a base form have algebra None, as a base field does,
# and a base field acts on them with no prolongation.


def test_a_base_function_evaluates_over_its_point():
    fn = AFunction(Var(0), 1, None)
    assert repr(fn) == "AFunction(x1)"
    point = APoint.from_reals(DUAL, [0.5])
    assert fn(point).algebra is DUAL and fn(point).coeffs == [0.5, 0.0]


def test_a_base_field_contracts_a_base_form():
    pairing = contract(field(None, 1), CoordForm(1, 1, None, {(0,): Var(0)}))
    assert pairing.algebra is None and pairing.expr == mul(Var(0), Var(0))


def test_a_base_field_applied_is_a_base_function():
    applied = field(None, 1).apply(Var(0))
    assert applied.algebra is None
    assert applied.expr == apply_field(field(None, 1), Var(0))


def test_a_form_over_the_trivial_algebra_is_no_base_form():
    # R is an algebra like any other: its forms are prolonged ones
    with pytest.raises(AlgebraMismatch):
        lie_derivative(field(None, 2), form(trivial_algebra(), 2))


def test_an_off_chart_bivector_raises_dimension_mismatch():
    # an entry in x3 has no place on a 2-dimensional chart
    with pytest.raises(DimensionMismatch):
        jacobi_check(PoissonStructure(2, {(0, 1): parse("x3", 3)}), 5, 1e-9)


# (name, chart dimension, evaluate at a point)
EVALUATIONS = [
    ("function", 2, lambda p: function(DUAL, 2)(p)),
    ("form evaluate", 2, lambda p: form(DUAL, 2).evaluate(p)),
    ("form evaluate, no coefficients", 1, lambda p: CoordForm(1, 1, DUAL).evaluate(p)),
    ("apply_at", 1, lambda p: field(DUAL, 1).apply_at(parse("x1^2", 1), p)),
    ("omega_at", 2,
     lambda p: omega_at(PI, form(DUAL, 2), form(DUAL, 2), p)),
]


@pytest.mark.parametrize("name, dim, evaluate", EVALUATIONS,
                         ids=[case[0] for case in EVALUATIONS])
def test_evaluation_refuses_a_point_off_the_chart(name, dim, evaluate):
    eps = DUAL.generator("eps")
    for n in (dim - 1, dim + 1, 3):
        if n == dim:
            continue
        point = APoint(DUAL, tuple(DUAL.from_real(0.5) + eps for _ in range(n)))
        with pytest.raises(DimensionMismatch, match=f"point has {n} coordinates"):
            evaluate(point)
    evaluate(APoint(DUAL, tuple(DUAL.from_real(0.5) + eps for _ in range(dim))))
