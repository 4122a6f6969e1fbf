"""Fold-cobordism invariants of Morse functions on surfaces.

Universal (co)chain complexes of singular fibers over Z, Z2, and mixed
coefficients; Reeb-graph normal forms and cobordism decisions; circle
fiber diagrams and the algebraic-number-of-cusps invariant.

The package imports a submodule on the first access of one of its names
(PEP 562), so ``import foldcob`` loads no layer, and a process loads only
the layers it reads.
"""

import importlib as _importlib
import sys as _sys
import types as _types

__version__ = "0.1.0"

# every public name, with the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("CatalogId", "Category"), "choices"),
    **dict.fromkeys(("CountingIdentity", "FiberClass", "catalog",
                     "counting_identities", "cusp_cocycle_check",
                     "fiber_classes", "free_approximation", "hypercohomology",
                     "suspension_map"), "catalog"),
    **dict.fromkeys(("AbelianGroupPresentation", "ChainMap", "ComplexError",
                     "Direction", "Generator", "MixedComplex",
                     "NotACycleError", "RingTag", "express_class", "hom_dual",
                     "homology", "induced_is_isomorphism", "induced_map",
                     "make_complex", "validate_chain_map", "validate_complex",
                     "zero_complex"), "complexes"),
    **dict.fromkeys(("BoundaryMode", "CircleFiberDiagram", "CuspCount",
                     "DiagramError", "DiagramEvent", "RegularArc",
                     "algebraic_counts", "cusp_count_boundary",
                     "cusp_count_closed", "diagram_from_json",
                     "diagram_to_json", "disjoint_union_diagrams",
                     "from_reeb", "reverse", "validate_diagram"), "diagrams"),
    **dict.fromkeys(("IntMatrix", "snf_with_inverses"), "intmat"),
    **dict.fromkeys(("CategoryError", "FiberProfile", "InvariantVector",
                     "PieceMultiset", "ReebError", "ReebGraph", "Vertex",
                     "VertexKind", "canonical_graph", "cobordant", "decompose",
                     "disjoint_union", "euler_characteristic",
                     "fiber_profile", "graph_from_json", "graph_to_json",
                     "invariants", "klein_bottle_graph", "make_graph",
                     "negate", "projective_plane_graph", "random_reeb",
                     "reduce_to_normal_form", "sphere_graph", "torus_graph",
                     "validate_reeb"), "reeb"),
}
__all__ = list(_EXPORTS)


def __getattr__(name):
    """A public name or a layer submodule, imported on first access and
    kept as a plain global after it."""
    if name in _EXPORTS:
        module = _importlib.import_module(f".{_EXPORTS[name]}", __name__)
        value = getattr(module, name)
    elif name in _EXPORTS.values():
        value = _importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(_types.ModuleType):
    """Importing a submodule binds it on the package under its own name.
    Where a public name is that same name (``catalog``, the function in
    ``foldcob.catalog``), the package keeps the public object instead."""

    def __setattr__(self, name, value):
        if name in _EXPORTS and isinstance(value, _types.ModuleType):
            value = getattr(value, name)
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
