"""Exact-arithmetic verification and mechanical derivation of binomial-sum
identities.

The package verifies a catalog of classical and recently derived summation
identities (Frisch, Klamkin, Simons, Dixon complements, MacMahon and Waring
consequences, moment extensions) entirely in rational arithmetic, and
re-derives whole families from two-sided polynomial identities through
weight, reciprocal, and moment transforms.
"""

from .affine import Affine, Bound
from .catalog import (
    CatalogEntry,
    entry_ids,
    entry_to_dsl,
    export_catalog,
    get_entry,
    verify_entry,
    verify_grid,
)
from .descriptors import (
    CheckResult,
    GridReport,
    IdentityDescriptor,
    KernelBlock,
    Side,
    ValidityPredicate,
    check_two_sided,
    eval_side,
    transpose_descriptor,
)
from .dsl import parse_identity, print_identity
from .errors import (
    DslArityError,
    DslSyntaxError,
    EmptyGridError,
    NonIntegerExponentError,
    PoleError,
    PreconditionError,
    ShapeError,
    SingularExponentError,
    UnboundParameterError,
    UnknownEntryError,
)
from .exact import (
    Rational,
    binom_int,
    binom_rational,
    inv_binom,
    r_stirling2,
    stirling2,
)
from .integrals import (
    BetaArgs,
    beta_integral_exact,
    beta_integral_quadrature,
)
from .poly import Polynomial
from .terms import TermExpr, evaluate, evaluate_sum
from .transforms import (
    DerivedIdentity,
    check_derived,
    frisch_transform,
    klamkin_transform,
    match_against_entry,
    moment_transform,
    rewrite_descriptor,
)

__version__ = "0.1.0"
