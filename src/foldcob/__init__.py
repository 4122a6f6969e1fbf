"""Fold-cobordism invariants of Morse functions on surfaces.

Universal (co)chain complexes of singular fibers over Z, Z2, and mixed
coefficients; Reeb-graph normal forms and cobordism decisions; circle
fiber diagrams and the algebraic-number-of-cusps invariant.
"""

from .catalog import (CatalogId, CountingIdentity, FiberClass, catalog,
                      counting_identities, cusp_cocycle_check, fiber_classes,
                      free_approximation, hypercohomology, suspension_map)
from .complexes import (AbelianGroupPresentation, ChainMap, ComplexError,
                        Direction, Generator, MixedComplex, NotACycleError,
                        RingTag, express_class, hom_dual, homology,
                        induced_is_isomorphism, induced_map, make_complex,
                        validate_chain_map, validate_complex, zero_complex)
from .diagrams import (BoundaryMode, CircleFiberDiagram, CuspCount,
                       DiagramError, DiagramEvent, RegularArc,
                       algebraic_counts, cusp_count_boundary,
                       cusp_count_closed, diagram_from_json, diagram_to_json,
                       disjoint_union_diagrams, from_reeb, reverse,
                       validate_diagram)
from .intmat import IntMatrix, snf_with_inverses
from .reeb import (Category, CategoryError, FiberProfile, InvariantVector,
                   PieceMultiset, ReebError, ReebGraph, Vertex, VertexKind,
                   canonical_graph, cobordant, decompose, disjoint_union,
                   euler_characteristic, fiber_profile, graph_from_json,
                   graph_to_json, invariants, klein_bottle_graph, make_graph,
                   negate, projective_plane_graph, random_reeb,
                   reduce_to_normal_form, sphere_graph, torus_graph,
                   validate_reeb)

__version__ = "0.1.0"
