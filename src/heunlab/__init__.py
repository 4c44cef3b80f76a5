"""Exact and numeric verification lab for Heun derivative equations and
Painleve isomonodromy systems."""

__version__ = "0.1.0"

from .algebra import (  # noqa: F401
    DegenerateSubstitution,
    DivisionByZero,
    MultiPoly,
    PoleAtPoint,
    RationalExpr,
    UnknownVariable,
    const,
    identity_test,
    substitute,
    var,
)
from .heun import (  # noqa: F401
    DegenerationCase,
    HeunFamily,
    HeunSpec,
    build_heun,
    build_heun_derivative,
    degeneration_case,
    fuchsian_epsilon,
)
from .matching import (  # noqa: F401
    MatchingCase,
    matching_case,
    verify_matching,
    verify_obstruction,
    verify_riccati,
)
from .ode import (  # noqa: F401
    GaugeSpec,
    LinearODE2,
    Mobius,
    derivative_equation,
    gauge_mobius_transform,
    ode_equal,
    singular_points,
)
from .painleve import (  # noqa: F401
    PainleveKind,
    PainleveLinearSpec,
    bridge,
    build_painleve_linear,
    hamiltonian,
    painleve_rhs,
    verify_elimination,
    verify_p3_substitution,
)
