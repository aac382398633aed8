"""Exact computations with Z-graded Lie polynomial identities of the
Witt-type algebras (derivations of polynomial and Laurent-polynomial
rings) over fields of characteristic two."""

from .fields import GF2, Combination, Field, Scalar
from .freealg import (
    AssocPoly,
    LiePoly,
    MultilinearSpace,
    Pair,
    Var,
    apply_ad,
    expand_to_associative,
    is_regular,
    leftnormed_basis,
    leftnormed_coordinates,
    mono_to_tree,
    multilinearize,
    zdegree,
)
from .grammar import (
    PolynomialSyntaxError,
    format_monomial,
    format_polynomial,
    parse_monomial,
    parse_polynomial,
)
from .linalg import SubspaceBasis, linear_dependencies
from .models import (
    GradedModel,
    ModelElement,
    evaluate,
    onedim_model,
    parse_model,
    satisfies_multilinear,
    u1_model,
    ut3_model,
    w1_model,
)
from .tideal import (
    BasisFamily,
    SpanMemo,
    consequence_subspace,
    family_for,
    identity_subspace,
    monomial_is_identity,
    monomial_normal_form,
    subspace_contains,
    subspace_equal,
    u1_family,
    w1_family,
)
from .verify import (
    SweepConfig,
    VerificationReport,
    char_contrast,
    independence_check,
    minimality_sweep,
    no_finite_basis_demo,
    revalidate_entry,
    variable_independence_check,
    verify_basis_theorem,
)

__version__ = "0.1.0"
