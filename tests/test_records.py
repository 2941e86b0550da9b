"""The records' contract: each compares and hashes by its fields, the
immutable ones refuse assignment and deletion, and copies, deep copies and
pickles load equal, except that a pickled algebra loads as a new one."""

import copy
import inspect
import pickle

import pytest

from weilc.algebra import (
    PRIMITIVES,
    AlgebraPresentation,
    PrimitiveFn,
    augmentation_morphism,
    dual_numbers,
    jets,
)
from weilc.config import ProjectConfig, SuiteSettings
from weilc.errors import Record
from weilc.expr import AFunction, APoint, parse
from weilc.forms import CoordForm
from weilc.poisson import CheckReport, Witness
from weilc.prolongation import VectorField

DUAL, JETS2 = dual_numbers(), jets(2)
EPS = DUAL.generator("eps")
X1, X2 = parse("x1", 2), parse("x2", 2)
SIN = PRIMITIVES["sin"].derivatives

# name: (build(v), its fields, frozen, hashes, a pickle loads equal); the
# two builds v = 0 and v = 1 differ in one field
RECORDS = {
    "AlgebraPresentation": (
        lambda v: AlgebraPresentation(("eps",), (((2,), (3,))[v],)),
        ("generators", "relations"), True, True, True),
    "PrimitiveFn": (
        lambda v: PrimitiveFn(("sin", "sine")[v], SIN),
        ("name", "derivatives"), True, True, True),
    "AlgebraMorphism": (
        lambda v: augmentation_morphism((DUAL, JETS2)[v]),
        ("source", "target", "matrix"), True, True, False),
    "APoint": (
        lambda v: APoint(DUAL, ((EPS, DUAL.unit())[v],)),
        ("algebra", "coords"), True, True, False),
    "AFunction": (
        lambda v: AFunction((X1, X2)[v], 2, None),
        ("expr", "dim", "algebra"), True, True, True),
    "SuiteSettings": (
        lambda v: SuiteSettings(seed=(42, 43)[v]),
        ("seed", "trials", "tol"), False, False, True),
    "ProjectConfig": (
        lambda v: ProjectConfig((2, 3)[v]),
        ("chart_dim", "algebras", "expressions", "vector_fields", "bivectors", "suites"),
        False, False, True),
    "Witness": (
        lambda v: Witness({"f": "x1"}, (0.5, 0.25)[v]),
        ("inputs", "residual"), True, False, True),
    "CheckReport": (
        lambda v: CheckReport("hom_laws", 42, 3, 1e-9, 0.0, (True, False)[v]),
        ("suite", "seed", "trials", "tol", "max_residual", "passed", "witnesses", "warning",
         "redrawn"), True, True, True),
    "VectorField": (
        lambda v: VectorField((X2, (-X1, X1)[v])),
        ("components", "algebra"), True, True, True),
    "CoordForm": (
        lambda v: CoordForm(1, 2, None, {(v,): X2}),
        ("degree", "dim", "algebra", "coeffs"), True, False, True),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_compare_and_hash_by_their_fields(name):
    build, _, _, hashes, _ = RECORDS[name]
    record, twin, other = build(0), build(0), build(1)
    assert record is not twin
    assert record == twin and not record != twin
    assert record != other and not record == other
    assert record != object()
    if hashes:
        assert hash(record) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(record)


def test_a_report_with_witnesses_does_not_hash():
    report = CheckReport("hom_laws", 42, 3, 1e-9, 0.5, False, (Witness({"f": "x1"}, 0.5),))
    assert report == CheckReport("hom_laws", 42, 3, 1e-9, 0.5, False,
                                 (Witness({"f": "x1"}, 0.5),))
    with pytest.raises(TypeError):
        hash(report)


@pytest.mark.parametrize("name", RECORDS)
def test_immutable_records_refuse_assignment_and_deletion(name):
    build, fields, frozen, _, _ = RECORDS[name]
    record = build(0)
    for field in fields:
        value = getattr(record, field)
        if frozen:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)
            assert getattr(record, field) is value
        else:
            setattr(record, field, None)
            assert getattr(record, field) is None
    assert (record == build(0)) is frozen


@pytest.mark.parametrize("name", RECORDS)
def test_copies_load_equal(name):
    build, _, _, _, loads_equal = RECORDS[name]
    record = build(0)
    for twin in (copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is type(record) and twin == record
    loaded = pickle.loads(pickle.dumps(record))
    assert type(loaded) is type(record) and repr(loaded) == repr(record)
    # an algebra pickles as its presentation and loads as a new algebra
    assert (loaded == record) is loads_equal


def test_each_record_lists_its_init_parameters_as_its_fields():
    # a parameter left out of __match_args__ would make two records that
    # differ in it compare equal
    records, todo = set(), [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            records.add(cls)
            todo.append(cls)
    assert {cls.__name__ for cls in records} == set(RECORDS) - {"PrimitiveFn"}
    for cls in records:
        params = tuple(inspect.signature(cls.__init__).parameters)[1:]
        assert cls.__match_args__ == params, cls.__name__


REPRS = {
    "AlgebraPresentation": "AlgebraPresentation(generators=('eps',), relations=((2,),))",
    "PrimitiveFn": "PrimitiveFn(sin)",
    "AlgebraMorphism": (
        "AlgebraMorphism(source=WeilAlgebra(R[eps]/(eps^2), dim=2, height=1), "
        "target=WeilAlgebra(R, dim=1, height=0), matrix=((1.0, 0.0),))"),
    "APoint": "APoint(algebra=WeilAlgebra(R[eps]/(eps^2), dim=2, height=1), coords=(eps,))",
    "AFunction": "AFunction(x1)",
    "SuiteSettings": "SuiteSettings(seed=42, trials=100, tol=1e-09)",
    "ProjectConfig": (
        "ProjectConfig(chart_dim=2, algebras={}, expressions={}, vector_fields={}, "
        "bivectors={}, suites=SuiteSettings(seed=42, trials=100, tol=1e-09))"),
    "Witness": "Witness(inputs={'f': 'x1'}, residual=0.5)",
    "CheckReport": (
        "CheckReport(suite='hom_laws', seed=42, trials=3, tol=1e-09, max_residual=0.0, "
        "passed=True, witnesses=(), warning=None, redrawn=0)"),
    "VectorField": "VectorField(components=(x2, -x1), algebra=None)",
    "CoordForm": "(x2) dx1",
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_print_their_fields(name):
    build = RECORDS[name][0]
    assert repr(build(0)) == REPRS[name]


def test_a_report_prints_its_witnesses_and_warning():
    report = CheckReport("hom_laws", 42, 3, 1e-9, 0.5, False, (Witness({"f": "x1"}, 0.5),),
                         "a warning", 2)
    assert repr(report) == (
        "CheckReport(suite='hom_laws', seed=42, trials=3, tol=1e-09, max_residual=0.5, "
        "passed=False, witnesses=(Witness(inputs={'f': 'x1'}, residual=0.5),), "
        "warning='a warning', redrawn=2)")
