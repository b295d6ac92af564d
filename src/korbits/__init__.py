"""Exact equivariant classes of K-orbit closures on the flag variety G/B
of a classical symmetric pair (G, K): orbit parametrizations (clans,
involutions), weak-order graphs, closed-orbit class formulas,
divided-difference propagation, and localization-based verification.

``import korbits`` runs none of the seven layer modules.  Each is
registered in ``sys.modules`` through ``importlib.util.LazyLoader`` and runs
on its first attribute read, so a command runs only the layers it uses:
``korbits orbits`` never runs the polynomial layer ``algebra`` or the class
layer ``classes``.  The public names are read from their home modules on
access (PEP 562).
"""

import importlib.util
import sys

# the seven layer modules, each with the public names the package serves from it
_EXPORTS = {
    "algebra": ("Polynomial", "VariableSpace", "divided_difference", "elementary_symmetric",
                "parse_polynomial", "poly_determinant", "simple_root_action"),
    "clans": ("Clan", "enumerate_clans"),
    "classes": ("EquivariantClass", "closed_orbit_class", "closed_orbits",
                "equal_via_localization", "propagate", "propagate_all",
                "restrict_at", "to_chern_basis"),
    "counting": (),
    "orbits": ("InvolutionOrbit", "build_weak_order_graph", "classify_simple_root",
               "enumerate_orbits"),
    "pairs": ("SymmetricPair", "parse_pair_spec"),
    "weyl": ("SignedPermutation", "restriction_map"),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def _register_lazily(layer: str):
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update({layer: _register_lazily(layer) for layer in _EXPORTS})


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
