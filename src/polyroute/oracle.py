"""Brute-force distance oracles used to verify stretch claims.

edge_dijkstra restricts paths to the vertex-edge graph (an upper bound on
the geodesic). subdivided_geodesic refines it: every mesh edge gains m
evenly spaced extra nodes and every face contributes the complete visibility
graph on its boundary nodes, so the value is non-increasing in m and
converges to the true surface geodesic from above. estimate_D is a
deterministic surrogate for the equal-area geodesic-cell diagonal bound.
"""
from __future__ import annotations

import io
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .compact_routing import spanner_csr
from .polytope import TriangulatedPolytope
from .tables import RoutingSystem

__all__ = [
    "SubdivisionGraph",
    "StretchReport",
    "build_edge_graph",
    "edge_dijkstra",
    "build_subdivision_graph",
    "subdivided_geodesic",
    "estimate_D",
    "stretch_sweep",
]


def build_edge_graph(P: TriangulatedPolytope) -> csr_matrix:
    """The symmetric adjacency matrix of the mesh edges, weighted by their
    lengths."""
    ends = np.array(list(P.edge_lengths), dtype=np.int64).reshape(-1, 2)
    return spanner_csr(P.n, ends[:, 0], ends[:, 1], np.array(list(P.edge_lengths.values())))


def edge_dijkstra(P: TriangulatedPolytope, s: int, t: int) -> float:
    """Length of the shortest s-t path restricted to mesh edges."""
    if s == t:
        return 0.0
    # the matrix is symmetric, so the directed search finds the same
    # distances, faster
    d = _csgraph_dijkstra(build_edge_graph(P), directed=True, indices=[s])[0]
    return float(d[t])


@dataclass
class SubdivisionGraph:
    """Polytope vertices plus m extra nodes per edge, joined by complete
    per-face visibility edges."""

    P: TriangulatedPolytope
    m: int
    points: np.ndarray
    matrix: csr_matrix
    _dist_cache: dict = field(default_factory=dict, repr=False)

    def distances_from(self, s: int) -> np.ndarray:
        # `matrix` is symmetric, so the directed search finds the same
        # distances, faster
        if s not in self._dist_cache:
            self._dist_cache[s] = _csgraph_dijkstra(self.matrix, directed=True, indices=[s])[0]
        return self._dist_cache[s]

    def distance(self, s: int, t: int) -> float:
        return float(self.distances_from(s)[t])


def build_subdivision_graph(P: TriangulatedPolytope, m: int) -> SubdivisionGraph:
    """Node n + i*m + j is the j-th of the m nodes on edge i, in sorted edge
    order. Each face's ids are its corners, then the m nodes of each edge k
    (corner k to k + 1), and every pair of them is an edge of the graph."""
    if m < 0:
        raise ValueError("m must be >= 0")
    edges = np.array(sorted(P.edges()), dtype=np.int64).reshape(-1, 2)
    fracs = (np.arange(1, m + 1) / (m + 1.0))[None, :, None]
    a, b = P.vertices[edges[:, 0]][:, None, :], P.vertices[edges[:, 1]][:, None, :]
    pts = np.concatenate([P.vertices, (a + fracs * (b - a)).reshape(-1, 3)])
    tail, head = P.faces, P.faces[:, [1, 2, 0]]
    k = np.searchsorted(edges[:, 0] * P.n + edges[:, 1],
                        np.minimum(tail, head) * P.n + np.maximum(tail, head))
    ids = np.concatenate([tail, (P.n + (k * m)[:, :, None] + np.arange(m)).reshape(len(k), -1)],
                         axis=1)
    iu, ju = np.triu_indices(ids.shape[1], k=1)
    r, c = ids[:, iu].ravel(), ids[:, ju].ravel()
    # pairs on a shared mesh edge appear in both incident faces; csr would
    # sum duplicates, so keep each undirected pair once
    _uniq, first = np.unique(np.minimum(r, c) * len(pts) + np.maximum(r, c), return_index=True)
    r, c = r[first], c[first]
    matrix = spanner_csr(len(pts), r, c, np.linalg.norm(pts[r] - pts[c], axis=1))
    return SubdivisionGraph(P=P, m=m, points=pts, matrix=matrix)


def subdivided_geodesic(P: TriangulatedPolytope, s: int, t: int, m: int) -> float:
    """Approximate geodesic distance from above; non-increasing in m."""
    if s == t:
        return 0.0
    return build_subdivision_graph(P, m).distance(s, t)


def estimate_D(P: TriangulatedPolytope, eps: float) -> float:
    """Deterministic surrogate for the maximum diagonal of an equal-area
    partition of the surface into 1/eps^3 geodesic cells: the diagonal of a
    square of the cell area, inflated by the patch-flattening factor."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    area = P.surface_area()
    return math.sqrt(2.0 * area * eps ** 3) * (1.0 + 2.0 * eps)


@dataclass
class StretchRow:
    pair_id: int
    s: int
    t: int
    route_len: float
    oracle_len: float
    euclid: float
    bound: float
    hops: int
    route_s: float  # wall time of the route call alone

    @property
    def ratio(self) -> float:
        return self.route_len / self.oracle_len if self.oracle_len > 0 else math.inf


@dataclass
class StretchReport:
    rows: list[StretchRow]
    eps: float
    theta_m: float
    D_hat: float
    m: int

    @property
    def violations(self) -> list[StretchRow]:
        return [r for r in self.rows if r.route_len > r.bound]

    @property
    def max_ratio(self) -> float:
        return max((r.ratio for r in self.rows), default=0.0)

    @property
    def mean_ratio(self) -> float:
        return float(np.mean([r.ratio for r in self.rows])) if self.rows else 0.0

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("pair_id,s,t,route_len,oracle_len,euclid,bound,ratio\n")
        for r in self.rows:
            out.write(
                f"{r.pair_id},{r.s},{r.t},{r.route_len:.9g},{r.oracle_len:.9g},"
                f"{r.euclid:.9g},{r.bound:.9g},{r.ratio:.9g}\n"
            )
        return out.getvalue()


def stretch_sweep(system: RoutingSystem, pairs: list[tuple[int, int]],
                  m: int = 16) -> StretchReport:
    """Route every pair on the system's polytope, check the analytic bound
    (8+eps)/sin(theta_m) * (D_hat + |st|), and compare against the
    subdivided geodesic. Since |st| <= d(s, t), a route within this bound is
    certainly within the paper's (8+eps)/sin(theta_m) * (D + d(s, t)),
    taking D_hat for D. The ratio route/oracle_len is a lower bound on the
    true stretch, since oracle_len >= d(s, t). Each row times its route
    call alone, not the oracle."""
    from .router import route as _route

    P = system.P
    graph = build_subdivision_graph(P, m)
    eps = system.eps
    theta_m = system.metrics.theta_m
    d_hat = estimate_D(P, eps)
    factor = (8.0 + eps) / math.sin(theta_m)
    P.snap  # the routes read it; a loaded mesh computes it, and its diameter, once
    rows = []
    for i, (s, t) in enumerate(pairs):
        start = time.perf_counter()
        trace = _route(s, t, system)
        route_s = time.perf_counter() - start
        oracle_len = graph.distance(s, t)
        euclid = float(np.linalg.norm(P.vertices[s] - P.vertices[t]))
        bound = factor * (d_hat + euclid)
        rows.append(StretchRow(i, s, t, trace.total_length, oracle_len, euclid, bound,
                               trace.hops, route_s))
    return StretchReport(rows=rows, eps=eps, theta_m=theta_m, D_hat=d_hat, m=m)
