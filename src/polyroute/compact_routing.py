"""Compact routing tables over the spanner graph: sqrt(N) landmarks, per-node
exact entries for targets closer than their own landmark distance, and full
next-hop maps at landmarks.

A packet for target t moves by three rules evaluated at the current node x:
exact entry for t if x is inside t's ball, full-map lookup if x is a
landmark, otherwise one hop toward t's home landmark. Ball membership is
closed under shortest-path prefixes toward t and under descent from t's home
landmark, so the walk never stalls and its length is at most
2*d(t, home(t)) + d(x, t) <= 3*d(x, t).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spanner import DisconnectedSpanner, SpannerGraph

__all__ = [
    "NodeLabel",
    "LandmarkScheme",
    "tz_preprocess",
    "tz_next_hop",
    "tz_route_nodes",
    "prune_intra_face",
    "materialize_plane_entries",
]


@dataclass(frozen=True)
class NodeLabel:
    node: int
    home: int
    patch: int
    cell: int

    def bit_length(self, num_nodes: int, num_landmarks: int,
                   num_patches: int, num_cells: int) -> int:
        def width(count: int) -> int:
            return max(1, math.ceil(math.log2(max(count, 2))))
        return (width(num_nodes) + width(num_landmarks)
                + width(num_patches) + width(num_cells))


@dataclass
class LandmarkScheme:
    landmarks: list[int]
    home: dict[int, int]
    exact_next: dict[int, dict[int, int]]
    to_landmark_next: dict[int, dict[int, int]]
    landmark_full_next: dict[int, dict[int, int]]

    def entry_count(self) -> int:
        total = sum(len(m) for m in self.exact_next.values())
        total += sum(len(m) for m in self.to_landmark_next.values())
        total += sum(len(m) for m in self.landmark_full_next.values())
        return total

    def entries_at(self, node: int) -> int:
        total = len(self.exact_next.get(node, ()))
        total += len(self.to_landmark_next.get(node, ()))
        total += len(self.landmark_full_next.get(node, ()))
        return total


def tz_preprocess(graph: SpannerGraph) -> LandmarkScheme:
    """Build the landmark scheme on a connected spanner graph. The landmarks
    are the ceil(sqrt(N)) highest-degree nodes (ties by id); a graph with a
    node out of reach raises `DisconnectedSpanner`."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra as csdijkstra

    nodes = [n.id for n in graph.nodes]
    N = len(nodes)
    if N == 0:
        return LandmarkScheme([], {}, {}, {}, {})
    if N == 1:
        only = nodes[0]
        return LandmarkScheme([only], {only: only}, {only: {}}, {only: {}}, {only: {}})

    us = [u for u, _v, _w, _f in graph.edges]
    vs = [v for _u, v, _w, _f in graph.edges]
    wts = [w for _u, _v, w, _f in graph.edges] * 2
    mat = csr_matrix((wts, (us + vs, vs + us)), shape=(N, N))
    k = math.ceil(math.sqrt(N))
    degree = np.diff(mat.indptr).tolist()
    ranked = sorted(nodes, key=lambda u: (-degree[u], u))
    landmarks = sorted(ranked[:k])

    dist, pred = csdijkstra(mat, directed=False, return_predecessors=True)
    if not np.isfinite(dist).all():
        raise DisconnectedSpanner("spanner graph is disconnected")

    lm = np.asarray(landmarks)
    d_lm = dist[lm]  # (k, N)
    set_dist = d_lm.min(axis=0)
    home_idx = d_lm.argmin(axis=0)  # ties fall to the smallest landmark id
    home = {u: int(lm[home_idx[u]]) for u in nodes}

    to_landmark_next: dict[int, dict[int, int]] = {u: {} for u in nodes}
    landmark_full_next: dict[int, dict[int, int]] = {}
    for ell in landmarks:
        prow = pred[ell]
        order = np.argsort(dist[ell], kind="stable")
        first = np.full(N, -1, dtype=np.int64)
        first[ell] = ell
        for u in order:
            u = int(u)
            if u == ell:
                continue
            p = int(prow[u])
            to_landmark_next[u][ell] = p
            first[u] = u if p == ell else first[p]
        landmark_full_next[ell] = {u: int(first[u]) for u in nodes if u != ell}

    # balls: x holds an exact entry for t iff d(x, t) < d(A, t); the next hop
    # is x's predecessor in the tree rooted at t
    exact_next: dict[int, dict[int, int]] = {u: {} for u in nodes}
    inside = dist < set_dist[None, :]
    np.fill_diagonal(inside, False)
    xs, ts = np.nonzero(inside)
    for x, t in zip(xs.tolist(), ts.tolist()):
        exact_next[x][t] = int(pred[t, x])

    return LandmarkScheme(
        landmarks=landmarks,
        home=home,
        exact_next=exact_next,
        to_landmark_next=to_landmark_next,
        landmark_full_next=landmark_full_next,
    )


def tz_next_hop(scheme: LandmarkScheme, current: int, target: int) -> int:
    """Stateless next-hop rule toward target's home landmark,
    `scheme.home[target]`."""
    if target == current:
        return current
    ex = scheme.exact_next.get(current)
    if ex is not None and target in ex:
        return ex[target]
    home = scheme.home[target]
    if current == home:
        # descent from the target's home landmark: every subsequent node is
        # strictly closer to the target than its landmark distance, so exact
        # entries take over after this hop
        full = scheme.landmark_full_next[current]
        if target in full:
            return full[target]
        raise RuntimeError(
            f"entry for {target} pruned at its home landmark {current}; "
            "intra-face pairs must be routed by plane entries"
        )
    hop = scheme.to_landmark_next.get(current, {}).get(home)
    if hop is None:
        raise RuntimeError(
            f"no routing entry at node {current} for target {target}"
        )
    return hop


def tz_route_nodes(scheme: LandmarkScheme, s: int, t: int,
                   max_hops: int | None = None) -> list[int]:
    """Simulate the scheme walk from node s to node t on the graph."""
    if max_hops is None:
        max_hops = 4 * max(len(scheme.home), 1)
    walk = [s]
    cur = s
    while cur != t:
        if len(walk) > max_hops:
            raise RuntimeError(f"scheme walk exceeded {max_hops} hops")
        cur = tz_next_hop(scheme, cur, t)
        walk.append(cur)
    return walk


def prune_intra_face(scheme: LandmarkScheme, graph: SpannerGraph) -> LandmarkScheme:
    """Drop table entries whose source and target nodes share a sketch face;
    those pairs are routed by direct plane entries on the polytope instead.
    The nodes that share a face with x are those listed under x's faces in
    `graph.per_face_nodes`, so each table is visited once per such node."""
    for group in (scheme.exact_next, scheme.landmark_full_next):
        for x, table in group.items():
            for pid in graph.nodes[x].patches:
                for t in graph.per_face_nodes[pid]:
                    table.pop(t, None)
    return scheme


def materialize_plane_entries(graph: SpannerGraph) -> dict[tuple[int, int], int]:
    """The sketch face of every spanner edge, keyed by its (u, v) node pair,
    u < v. Every next hop stored in the scheme is a spanner neighbour, so
    this covers them all. A leg along the hop runs in that face; its guiding
    plane is orthogonal to the face and is built where the leg starts, so no
    plane is stored."""
    return {(u, v): f for u, v, _w, f in graph.edges}
