"""Brute-force distance oracles used to verify stretch claims.

A `SubdivisionGraph` gives surface distances from above: every mesh edge
gains m evenly spaced extra nodes and every face contributes the complete
visibility graph on its boundary nodes, so a distance is non-increasing in
m and converges to the true surface geodesic. At m = 0 it is the mesh's
edge graph, whose distances are paths restricted to mesh edges. Build one
graph per mesh and read many distances from it. estimate_D is a
deterministic surrogate for the equal-area geodesic-cell diagonal bound.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .compact_routing import spanner_csr
from .spanner import _THETA_PAIRS, _runs
from .polytope import TriangulatedPolytope
from .tables import RoutingSystem

__all__ = [
    "SubdivisionGraph",
    "StretchReport",
    "build_subdivision_graph",
    "estimate_D",
    "stretch_sweep",
]


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
    (corner k to k + 1), and every pair of them is an edge of the graph. The
    pairs on one mesh edge, which both its faces hold, are taken once per
    edge and the rest per face, in capped blocks (`spanner._runs`); the
    matrix is the same in any order of its pairs."""
    if m < 0:
        raise ValueError("m must be >= 0")
    edges = np.array(sorted(P.edges()), dtype=np.int64).reshape(-1, 2)
    fracs = (np.arange(1, m + 1) / (m + 1.0))[None, :, None]
    a, b = P.vertices[edges[:, 0]][:, None, :], P.vertices[edges[:, 1]][:, None, :]
    pts = np.concatenate([P.vertices, (a + fracs * (b - a)).reshape(-1, 3)])
    inner = P.n + (np.arange(len(edges)) * m)[:, None] + np.arange(m)
    tail, head = P.faces, P.faces[:, [1, 2, 0]]
    k = np.searchsorted(edges[:, 0] * P.n + edges[:, 1],
                        np.minimum(tail, head) * P.n + np.maximum(tail, head))
    ids = np.concatenate([tail, inner[k].reshape(len(k), -1)], axis=1)
    # bit k of an id position: it lies on the face's edge k (corner j on
    # edges j and j - 1); a face keeps the pairs that share no edge
    on = np.r_[0b101, 0b011, 0b110, np.repeat([0b001, 0b010, 0b100], m)]
    iu, ju = np.triu_indices(ids.shape[1], k=1)
    apart = (on[iu] & on[ju]) == 0
    r, c, w = [], [], []  # int32 ids, the matrix's index type
    for rows, iu, ju in ((np.concatenate([edges, inner], axis=1), *np.triu_indices(m + 2, k=1)),
                         (ids, iu[apart], ju[apart])):
        for lo, hi in _runs(np.full(len(rows), len(iu)), _THETA_PAIRS):
            r.append(rows[lo:hi, iu].ravel().astype(np.int32))
            c.append(rows[lo:hi, ju].ravel().astype(np.int32))
            w.append(np.linalg.norm(pts[r[-1]] - pts[c[-1]], axis=1))
    r, c, w = np.concatenate(r), np.concatenate(c), np.concatenate(w)
    return SubdivisionGraph(P=P, m=m, points=pts, matrix=spanner_csr(len(pts), r, c, w))


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
        return "pair_id,s,t,route_len,oracle_len,euclid,bound,ratio\n" + "".join(
            f"{r.pair_id},{r.s},{r.t},{r.route_len:.9g},{r.oracle_len:.9g},"
            f"{r.euclid:.9g},{r.bound:.9g},{r.ratio:.9g}\n" for r in self.rows)


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
