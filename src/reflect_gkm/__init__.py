"""Exact coinvariant-ring and equivariant-cohomology toolkit for finite
pseudo-reflection groups.

Everything is computed over cyclotomic fields with rational coefficients;
there is no floating point anywhere, so every reported equality is an
actual identity of field elements.
"""

from __future__ import annotations

from .cyclotomic import ConductorMismatch, CycNum, parse_cyc, root_of_unity
from .equivariant import (
    GroupMap,
    MapFileError,
    MembershipCertificate,
    MembershipFailure,
    MembershipRuleViolated,
    NotAMember,
    coroot_map,
    divided_difference,
    dump_group_map,
    load_group_map,
    membership,
    membership_basis,
    orbit_decomposition,
    orbit_difference,
)
from .groups import (
    CapExceeded,
    GroupFileError,
    NotPolynomialInvariantRing,
    Orbit,
    PseudoReflection,
    ReflectionGroup,
    SingularGenerator,
    bundled_names,
    load_group,
    parse_group_dict,
)
from .hypergraph import (
    EdgeWitness,
    Hypergraph,
    build_hypergraph,
    edge_integral,
    edge_quotients,
    edge_witness,
    hypergraph_membership,
    integral_identity,
    pairwise_membership,
)
from .invariants import (
    CoinvariantBasis,
    coinvariant_basis,
    invariant_basis,
    reynolds,
)
from .localization import (
    TensorElement,
    commutes_with_difference,
    localize,
    localize_at,
)
from .polynomials import (
    LinearForm,
    MultiPoly,
    NotDivisible,
    divide_by_linear_power,
    parse_poly,
    poly_text,
)
from .suite import (
    NoPseudoReflections,
    NotReflectionGenerated,
    VerificationReport,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "CoinvariantBasis",
    "ConductorMismatch",
    "CycNum",
    "EdgeWitness",
    "GroupFileError",
    "GroupMap",
    "Hypergraph",
    "LinearForm",
    "MapFileError",
    "MembershipCertificate",
    "MembershipFailure",
    "MembershipRuleViolated",
    "MultiPoly",
    "NotAMember",
    "NoPseudoReflections",
    "NotDivisible",
    "NotPolynomialInvariantRing",
    "NotReflectionGenerated",
    "Orbit",
    "PseudoReflection",
    "ReflectionGroup",
    "SingularGenerator",
    "TensorElement",
    "VerificationReport",
    "build_hypergraph",
    "bundled_names",
    "coinvariant_basis",
    "commutes_with_difference",
    "coroot_map",
    "divide_by_linear_power",
    "divided_difference",
    "dump_group_map",
    "edge_integral",
    "edge_quotients",
    "edge_witness",
    "hypergraph_membership",
    "integral_identity",
    "invariant_basis",
    "load_group",
    "load_group_map",
    "localize",
    "localize_at",
    "membership",
    "membership_basis",
    "orbit_decomposition",
    "orbit_difference",
    "pairwise_membership",
    "parse_cyc",
    "parse_group_dict",
    "parse_poly",
    "poly_text",
    "reynolds",
    "root_of_unity",
    "run_suite",
]
