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
from .clans import Clan, enumerate_clans
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
    enumerate_orbits,
)
from .pairs import SymmetricPair, parse_pair_spec
from .weyl import SignedPermutation, restriction_map

__all__ = [
    "Clan",
    "EquivariantClass",
    "InvolutionOrbit",
    "Polynomial",
    "SignedPermutation",
    "SymmetricPair",
    "VariableSpace",
    "build_weak_order_graph",
    "classify_simple_root",
    "closed_orbit_class",
    "closed_orbits",
    "closure_compare",
    "divided_difference",
    "elementary_symmetric",
    "enumerate_clans",
    "enumerate_orbits",
    "equal_via_localization",
    "first_disagreement",
    "parse_pair_spec",
    "parse_polynomial",
    "poly_determinant",
    "propagate",
    "propagate_all",
    "restrict_at",
    "restriction_map",
    "simple_root_action",
    "to_chern_basis",
    "weight_product_oracle",
]

__version__ = "0.1.0"
