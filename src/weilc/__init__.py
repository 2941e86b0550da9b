"""Weil algebras and the prolongation calculus on Weil bundles.

Build a truncated polynomial algebra, evaluate smooth expressions on
points with algebra coordinates (Taylor-mode lifting through nilpotents),
and work with the prolonged vector fields, Kähler forms, and Poisson
brackets that live on the enlarged chart.  Randomized check suites verify
the algebraic identities the calculus is built on.
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
from .oracle import run_suite, taylor_coeffs
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
    so3_structure,
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
