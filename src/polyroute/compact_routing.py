"""Compact routing tables over the spanner graph: sqrt(N) landmarks, per-node
exact entries for targets closer than their own landmark distance (the
balls), and each landmark's shortest-path tree, read both ways: the next hop
toward it from every node and its first hop toward every node. The trees
depend only on the graph, so they are derived wherever the graph is.

A packet for target t moves by three rules evaluated at the current node x:
exact entry for t if x is inside t's ball, first-hop lookup if x is t's
home landmark, otherwise one hop toward t's home landmark. Ball membership is
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
    "spanner_csr",
    "landmark_trees",
    "tz_preprocess",
    "tz_next_hop",
    "tz_route_nodes",
    "prune_first_hops",
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
    """The first four fields come from `landmark_trees`: the home landmark
    of each node, and per landmark the next hop toward it from each node and
    its first hop toward each node (-1 at the landmark itself, and where
    pruned). Only the balls, `exact_next` (per node: target -> next hop),
    are stored."""
    landmarks: list[int]
    home: list[int]
    to_landmark: dict[int, list[int]]
    first_hop: dict[int, list[int]]
    exact_next: dict[int, dict[int, int]]

    def entry_count(self) -> int:
        return sum(self.entries_at(u) for u in range(len(self.home)))

    def entries_at(self, node: int) -> int:
        """Ball entries plus one to-landmark entry per other landmark, plus
        the unpruned first hops if the node is a landmark."""
        total = len(self.exact_next[node]) + len(self.landmarks)
        row = self.first_hop.get(node)
        if row is None:
            return total
        return total - 1 + len(row) - row.count(-1)


def spanner_csr(num_nodes: int, u, v, w):
    """The symmetric weighted adjacency matrix of the spanner edges, given as
    arrays of endpoints and weights in edge order."""
    from scipy.sparse import csr_matrix

    return csr_matrix((np.concatenate([w, w]), (np.concatenate([u, v]), np.concatenate([v, u]))),
                      shape=(num_nodes, num_nodes))


def _same_face(graph: SpannerGraph, x: int) -> list[int]:
    """The nodes that share a sketch face with node x, x included."""
    return [t for pid in graph.nodes[x].patches for t in graph.per_face_nodes[pid]]


def landmark_trees(graph: SpannerGraph, mat) -> tuple:
    """The landmark half of the scheme on the spanner graph with adjacency
    `mat` (see `spanner_csr`): the ceil(sqrt(N)) highest-degree nodes as
    landmarks (ties by id), each node's nearest landmark as its home (ties to
    the smallest id), and each landmark's shortest-path tree read both ways
    (the `to_landmark` and `first_hop` rows). Build and load both call this,
    so a loaded scheme equals the built one. A node out of reach raises
    `DisconnectedSpanner`."""
    from scipy.sparse.csgraph import dijkstra

    N = graph.num_nodes
    k = math.ceil(math.sqrt(N))
    lm = np.sort(np.lexsort((np.arange(N), -np.diff(mat.indptr)))[:k])
    # `mat` is symmetric, so the directed search finds the same trees, faster
    dist, pred = dijkstra(mat, directed=True, indices=lm, return_predecessors=True)
    if not np.isfinite(dist).all():
        raise DisconnectedSpanner("spanner graph is disconnected")
    home = lm[dist.argmin(axis=0)]
    rows, base = np.arange(k), (np.arange(k) * N)[:, None]
    pred[rows, lm] = -1
    # a node's first hop is its ancestor just below the root: point the
    # root and its children at themselves and every other node at its
    # parent, then double the pointers until none moves
    up = (np.where((pred == lm[:, None]) | (pred < 0), np.arange(N), pred) + base).ravel()
    while (up[up] != up).any():
        up = up[up]
    first = up.reshape(k, N) - base
    first[rows, lm] = -1
    landmarks = lm.tolist()
    return (landmarks, home.tolist(), dict(zip(landmarks, pred.tolist())),
            dict(zip(landmarks, first.tolist())))


def tz_preprocess(graph: SpannerGraph) -> LandmarkScheme:
    """Build the landmark scheme on a connected spanner graph: the landmark
    half from `landmark_trees`, and the balls, where x holds an exact entry
    for t iff d(x, t) < d(A, t), its next hop x's predecessor in the tree
    rooted at t."""
    from scipy.sparse.csgraph import dijkstra

    N = graph.num_nodes
    rec = np.array(graph.edges, dtype=[("u", "i8"), ("v", "i8"), ("w", "f8"), ("f", "i8")])
    mat = spanner_csr(N, rec["u"], rec["v"], rec["w"])
    landmarks, home, to_landmark, first_hop = landmark_trees(graph, mat)
    dist, pred = dijkstra(mat, directed=False, return_predecessors=True)
    inside = dist < dist[landmarks].min(axis=0)[None, :]
    np.fill_diagonal(inside, False)
    xs, ts = np.nonzero(inside)
    exact_next: dict[int, dict[int, int]] = {x: {} for x in range(N)}
    for x, t, hop in zip(xs.tolist(), ts.tolist(), pred[ts, xs].tolist()):
        exact_next[x][t] = hop
    return LandmarkScheme(landmarks, home, to_landmark, first_hop, exact_next)


def tz_next_hop(scheme: LandmarkScheme, current: int, target: int) -> int:
    """Stateless next-hop rule toward target's home landmark,
    `scheme.home[target]`."""
    if target == current:
        return current
    hop = scheme.exact_next[current].get(target)
    if hop is not None:
        return hop
    home = scheme.home[target]
    if current != home:
        return scheme.to_landmark[home][current]
    # descent from the target's home landmark: every subsequent node is
    # strictly closer to the target than its landmark distance, so exact
    # entries take over after this hop
    hop = scheme.first_hop[home][target]
    if hop < 0:
        raise RuntimeError(
            f"entry for {target} pruned at its home landmark {current}; "
            "intra-face pairs must be routed by plane entries"
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


def prune_first_hops(scheme: LandmarkScheme, graph: SpannerGraph) -> LandmarkScheme:
    """Set to -1 each landmark's first hop toward the nodes that share a
    sketch face with it; loading prunes these, as its balls come pruned."""
    for ell, row in scheme.first_hop.items():
        for t in _same_face(graph, ell):
            row[t] = -1
    return scheme


def prune_intra_face(scheme: LandmarkScheme, graph: SpannerGraph) -> LandmarkScheme:
    """Drop table entries whose source and target nodes share a sketch face;
    those pairs are routed by direct plane entries on the polytope instead."""
    for x, table in scheme.exact_next.items():
        for t in _same_face(graph, x):
            table.pop(t, None)
    return prune_first_hops(scheme, graph)


def materialize_plane_entries(graph: SpannerGraph) -> dict[tuple[int, int], int]:
    """The sketch face of every spanner edge, keyed by its (u, v) node pair,
    u < v. Every next hop stored in the scheme is a spanner neighbour, so
    this covers them all. A leg along the hop runs in that face; its guiding
    plane is orthogonal to the face and is built where the leg starts, so no
    plane is stored."""
    return {(u, v): f for u, v, _w, f in graph.edges}
