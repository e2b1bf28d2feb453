"""Routing tables and local greedy routing on triangulated convex polytopes.

Preprocess a mesh once (patch partition, sketch, grid sampling, Theta-graph
spanner, compact routing tables), then route packets between vertices with
purely local forwarding decisions; every hop traverses one polytope edge.
"""
from .geometry import Plane
from .polytope import (
    TriangulatedPolytope,
    PolytopeMetrics,
    load_off,
    save_off,
    dual_graph,
    compute_theta_m,
)
from .patching import compute_patches, build_sketch, project_patch
from .sampling import build_grid, select_representatives
from .spanner import build_theta_graph, build_spanner
from .compact_routing import tz_preprocess, tz_route_nodes
from .tables import (
    RoutingSystem,
    preprocess_mesh,
    serialize,
    deserialize,
    to_json,
)
from .router import route, make_packet, step, RouteTrace
from .oracle import (
    build_subdivision_graph,
    estimate_D,
    stretch_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "Plane",
    "TriangulatedPolytope",
    "PolytopeMetrics",
    "load_off",
    "save_off",
    "dual_graph",
    "compute_theta_m",
    "compute_patches",
    "build_sketch",
    "project_patch",
    "build_grid",
    "select_representatives",
    "build_theta_graph",
    "build_spanner",
    "tz_preprocess",
    "tz_route_nodes",
    "RoutingSystem",
    "preprocess_mesh",
    "serialize",
    "deserialize",
    "to_json",
    "route",
    "make_packet",
    "step",
    "RouteTrace",
    "build_subdivision_graph",
    "estimate_D",
    "stretch_sweep",
    "__version__",
]
