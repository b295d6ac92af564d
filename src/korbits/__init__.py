"""Exact equivariant classes of symmetric-subgroup orbit closures on
classical flag varieties: orbit parametrizations (clans, involutions),
weak-order graphs, closed-orbit class formulas, divided-difference
propagation, and localization-based verification."""

from .algebra import (
    Polynomial,
    VariableSpace,
    divided_difference,
    elementary_symmetric,
    parse_polynomial,
    poly_determinant,
    simple_root_action,
)
from .clans import Clan, clan_to_signed_involution, enumerate_clans, pair_validity
from .classes import (
    EquivariantClass,
    closed_orbit_class,
    equal_via_localization,
    first_disagreement,
    propagate,
    propagate_all,
    restrict_at,
    to_chern_basis,
    weight_product_oracle,
)
from .orbits import (
    InvolutionOrbit,
    build_weak_order_graph,
    classify_simple_root,
    closed_orbits,
    closure_compare,
    cross_action,
    enumerate_orbits,
    twisted_involution_action,
)
from .pairs import SymmetricPair, parse_pair_spec
from .weyl import SignedPermutation, enumerate_group, restriction_map

__all__ = [
    "Clan",
    "EquivariantClass",
    "InvolutionOrbit",
    "Polynomial",
    "SignedPermutation",
    "SymmetricPair",
    "VariableSpace",
    "build_weak_order_graph",
    "clan_to_signed_involution",
    "classify_simple_root",
    "closed_orbit_class",
    "closed_orbits",
    "closure_compare",
    "cross_action",
    "divided_difference",
    "elementary_symmetric",
    "enumerate_clans",
    "enumerate_group",
    "enumerate_orbits",
    "equal_via_localization",
    "first_disagreement",
    "pair_validity",
    "parse_pair_spec",
    "parse_polynomial",
    "poly_determinant",
    "propagate",
    "propagate_all",
    "restrict_at",
    "restriction_map",
    "simple_root_action",
    "to_chern_basis",
    "twisted_involution_action",
    "weight_product_oracle",
]

__version__ = "0.1.0"
