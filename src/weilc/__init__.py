"""Weil algebras and the prolongation calculus on Weil bundles.

Build a truncated polynomial algebra, evaluate smooth expressions on
points with algebra coordinates (Taylor-mode lifting through nilpotents),
and work with the prolonged vector fields, Kähler forms, and Poisson
brackets that live on the enlarged chart.  Randomized check suites verify
the algebraic identities the calculus is built on.

The suites (``oracle``) and their random draws (``sampling``) load on first
use: ``run_suite``, ``taylor_coeffs`` and the two submodules resolve through
the module ``__getattr__`` below, so importing the package loads neither.
"""

__version__ = "0.1.0"

from .algebra import (
    AlgebraMorphism,
    AlgebraPresentation,
    PRIMITIVES,
    PrimitiveFn,
    WeilAlgebra,
    WeilElement,
    augmentation,
    augmentation_morphism,
    build_algebra,
    dual_numbers,
    jets,
    render_element,
    taylor_lift,
    trivial_algebra,
    validate_morphism,
)
from .errors import (
    AlgebraMismatch,
    ConfigError,
    DegreeError,
    DimensionMismatch,
    DomainError,
    EmptyRelation,
    NotFiniteDimensional,
    NotMorphism,
    ParseError,
    UnknownSuite,
    UnknownSymbol,
    WeilcError,
)
from .expr import (
    AFunction,
    Expr,
    diff,
    eval_real,
    eval_weil,
    parse,
    prolong_function,
    substitute,
    to_string,
)
from .forms import (
    CoordForm,
    contract,
    delta,
    dform,
    function_form,
    interior,
    lie_derivative,
    prolong_form,
    wedge,
    zero_form,
)
from .poisson import (
    CheckReport,
    PoissonStructure,
    Witness,
    ad_prolong,
    ad_tilde,
    bracket,
    canonical_structure,
    hamiltonian_field,
    jacobi_check,
    omega_prolonged,
    prolong_bracket,
    verify_a_poisson,
)
from .prolongation import (
    APoint,
    AVectorField,
    VectorField,
    apply_field,
    lie_bracket,
    prolong_field,
    prolong_map,
    pushforward_point,
)


# name -> the submodule that defines it, imported on the first access
_ON_FIRST_USE = {"oracle": "oracle", "sampling": "sampling",
                 "run_suite": "oracle", "taylor_coeffs": "oracle"}


def __getattr__(name: str):
    module = _ON_FIRST_USE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    # the import binds the submodule on the package: later reads of
    # ``oracle`` and ``sampling`` find it there and skip this function
    loaded = importlib.import_module(f"{__name__}.{module}")
    return loaded if name == module else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_ON_FIRST_USE})
