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
    rows, cols, data = [], [], []
    for (u, v) in P.edges():
        w = P.edge_length(u, v)
        rows += [u, v]
        cols += [v, u]
        data += [w, w]
    return csr_matrix((data, (rows, cols)), shape=(P.n, P.n))


def edge_dijkstra(P: TriangulatedPolytope, s: int, t: int) -> float:
    """Length of the shortest s-t path restricted to mesh edges."""
    if s == t:
        return 0.0
    g = build_edge_graph(P)
    d = _csgraph_dijkstra(g, directed=False, indices=[s])[0]
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
        if s not in self._dist_cache:
            self._dist_cache[s] = _csgraph_dijkstra(
                self.matrix, directed=False, indices=[s]
            )[0]
        return self._dist_cache[s]

    def distance(self, s: int, t: int) -> float:
        return float(self.distances_from(s)[t])


def build_subdivision_graph(P: TriangulatedPolytope, m: int) -> SubdivisionGraph:
    if m < 0:
        raise ValueError("m must be >= 0")
    edge_list = sorted(P.edges())
    edge_index = {e: i for i, e in enumerate(edge_list)}
    n = P.n
    points = [P.vertices]
    if m > 0:
        fracs = (np.arange(1, m + 1) / (m + 1.0))[None, :, None]
        a = P.vertices[[e[0] for e in edge_list]][:, None, :]
        b = P.vertices[[e[1] for e in edge_list]][:, None, :]
        points.append((a + fracs * (b - a)).reshape(-1, 3))
    pts = np.concatenate(points, axis=0)

    def edge_nodes(u: int, v: int) -> list[int]:
        key = (min(u, v), max(u, v))
        base = n + edge_index[key] * m
        return list(range(base, base + m))

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    for f in P.faces:
        ids = [int(f[0]), int(f[1]), int(f[2])]
        if m > 0:
            for k in range(3):
                ids += edge_nodes(int(f[k]), int(f[(k + 1) % 3]))
        ids_arr = np.asarray(ids, dtype=np.int64)
        iu, ju = np.triu_indices(len(ids_arr), k=1)
        rows.append(ids_arr[iu])
        cols.append(ids_arr[ju])
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    # pairs on a shared mesh edge appear in both incident faces; csr would
    # sum duplicates, so keep each undirected pair once
    key = np.minimum(r, c) * np.int64(len(pts)) + np.maximum(r, c)
    _uniq, first = np.unique(key, return_index=True)
    r = r[first]
    c = c[first]
    w = np.linalg.norm(pts[r] - pts[c], axis=1)
    r2 = np.concatenate([r, c])
    c2 = np.concatenate([c, r])
    w2 = np.concatenate([w, w])
    matrix = csr_matrix((w2, (r2, c2)), shape=(len(pts), len(pts)))
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
    mu: float
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


def oracle_slack(P: TriangulatedPolytope, pairs: list[tuple[int, int]], m: int,
                 base_graph: SubdivisionGraph | None = None,
                 sample: int = 32) -> float:
    """Convergence slack mu = max over sampled pairs of
    (value(m) - value(4m)) / value(4m), clamped at zero."""
    if not pairs:
        return 0.0
    chosen = pairs[: min(sample, len(pairs))]
    g1 = base_graph if base_graph is not None and base_graph.m == m else \
        build_subdivision_graph(P, m)
    g4 = build_subdivision_graph(P, 4 * m)
    worst = 0.0
    for s, t in chosen:
        v1 = g1.distance(s, t)
        v4 = g4.distance(s, t)
        if v4 > 0:
            worst = max(worst, (v1 - v4) / v4)
    return max(worst, 0.0)


def stretch_sweep(system: RoutingSystem, pairs: list[tuple[int, int]],
                  m: int = 16) -> StretchReport:
    """Route every pair on the system's polytope, compare against the
    subdivided geodesic, and check the analytic bound
    (8+eps)/sin(theta_m) * (D_hat + d) * (1 + mu). Each row times its route
    call alone, not the oracle."""
    from .router import route as _route

    P = system.P
    graph = build_subdivision_graph(P, m)
    mu = oracle_slack(P, pairs, m, base_graph=graph)
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
        bound = factor * (d_hat + oracle_len) * (1.0 + mu)
        rows.append(StretchRow(i, s, t, trace.total_length, oracle_len, euclid, bound,
                               trace.hops, route_s))
    return StretchReport(rows=rows, eps=eps, theta_m=theta_m, D_hat=d_hat, mu=mu, m=m)
