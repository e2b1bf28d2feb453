"""Compact routing tables over the spanner graph: sqrt(N) landmarks, per-node
exact entries for targets closer than their own landmark distance (the
balls), and each landmark's shortest-path tree, read both ways: the next hop
toward it from every node and its first hop toward every node. The trees
depend only on the graph, so they are derived wherever the graph is.

The ball rule: x holds an exact entry for t iff x is not a landmark,
d(t, x) < r(t), t's least landmark distance, where d(a, b) is the float
that a Dijkstra search from a computes, and x and t share no sketch face;
the next hop is x's predecessor in t's tree. This is Thorup and Zwick's
ball of t, the nodes nearer t than any landmark is, read from t's own
search. A pair that shares a face is routed by a direct plane entry on the
polytope, so it gets no ball entry and a landmark keeps no first hop toward
it (`prune_intra_face`). `tz_preprocess` builds the balls from cut-off
searches of at most `_BLOCK` sources each, so no stage holds an N x N array,
and they equal an all-pairs search's bit for bit, less the same-face pairs.

A packet for target t moves by three rules evaluated at the current node x:
exact entry for t if x is inside t's ball, first-hop lookup if x is t's
home landmark, otherwise one hop toward t's home landmark. An entry's next
hop p has d(t, p) <= d(t, x), so p is t, holds an entry for t, is a
landmark, or shares a face with t; and in exact arithmetic no landmark is
nearer t than r(t), and every node below t's home landmark on its path to t
is. So the walk never stalls and its length is at most
2*d(t, home(t)) + d(x, t) <= 3*d(x, t).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spanner import DisconnectedSpanner, SpannerGraph

__all__ = [
    "NodeLabel",
    "BALL_RECORD",
    "LandmarkScheme",
    "spanner_csr",
    "landmark_trees",
    "ball_maps",
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


# node x holds an exact entry for target t, with its next hop; `.prt` stores
# the balls as these records
BALL_RECORD = np.dtype([("x", "<u4"), ("t", "<u4"), ("next", "<u4")])


@dataclass
class LandmarkScheme:
    """The first four fields come from `landmark_trees`: the home landmark
    of each node, and per landmark the next hop toward it from each node and
    its first hop toward each node (-1 at the landmark itself, and where
    pruned). Only the balls are stored: `balls`, their `BALL_RECORD`s
    sorted by (x, t), same-face pairs left out. `exact_next` (per node:
    target -> next hop) is derived from them by `ball_maps`."""
    landmarks: list[int]
    home: list[int]
    to_landmark: dict[int, list[int]]
    first_hop: dict[int, list[int]]
    balls: np.ndarray
    exact_next: dict[int, dict[int, int]] = field(init=False, repr=False)

    def __post_init__(self):
        self.exact_next = ball_maps(len(self.home), self.balls)

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


_BLOCK = 64  # sources per cut-off search, so a search returns at most 64 x N values


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
    (the `to_landmark` and `first_hop` rows), followed by the landmarks'
    distance rows (k x N, in landmark order). Build and load both call this,
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
            dict(zip(landmarks, first.tolist())), dist)


def tz_preprocess(graph: SpannerGraph) -> LandmarkScheme:
    """Build the landmark scheme on a connected spanner graph: the landmark
    half from `landmark_trees`, and the balls, where x holds an exact entry
    for t iff x is not a landmark, d(t, x) < r(t) = min over landmarks A of
    d(A, t), and x and t share no sketch face; its next hop is x's
    predecessor in the tree rooted at t. Here d(a, b) is the float distance
    that a Dijkstra search from a computes.

    No search runs from every source. The targets, in order of r, are
    searched from in blocks of `_BLOCK`, each search cut off at the block's
    largest r, and t's row gives both d(t, x) and the next hops. A search
    cut off at a limit gives each node within it the full search's
    distance, since every relaxation it skips exceeds the limit. The pairs
    that share a face (a node's faces are its first and its last patch) are
    then dropped from t's results.

    The rule reads t's side, the side the next hops come from. So the ball
    is closed under prefixes of t's tree in floating point: for x's parent
    p, d(t, p) <= d(t, x), since rounding is monotone and the weights are
    nonnegative. A landmark x is left out because r(t) <= d(x, t) by the
    definition of r, so read from its own side it is never nearer t than
    r(t)."""
    from scipy.sparse.csgraph import dijkstra

    N = graph.num_nodes
    rec = np.array(graph.edges, dtype=[("u", "i8"), ("v", "i8"), ("w", "f8"), ("f", "i8")])
    mat = spanner_csr(N, rec["u"], rec["v"], rec["w"])
    landmarks, home, to_landmark, first_hop, lm_dist = landmark_trees(graph, mat)
    r = lm_dist.min(axis=0)
    # a target at distance 0 from a landmark has an empty ball
    targets = np.argsort(r, kind="stable")
    targets = targets[r[targets] > 0]
    found = [np.empty((3, 0), np.int64)]  # rows: x, t, next hop
    for lo in range(0, len(targets), _BLOCK):
        block = targets[lo:lo + _BLOCK]
        dist, pred = dijkstra(mat, directed=True, indices=block, limit=r[block].max(),
                              return_predecessors=True)
        dist[np.arange(len(block)), block] = np.inf  # t holds no entry for itself
        dist[:, landmarks] = np.inf  # nor does a landmark
        i, x = np.nonzero(dist < r[block, None])
        found.append(np.stack([x, block[i], pred[i, x]]))
    x, t, hop = np.concatenate(found, axis=1)
    # the same-face pairs go: neither of x's two faces is one of t's
    faces = np.array([(n.patches[0], n.patches[-1]) for n in graph.nodes])
    apart = (faces[x][:, :, None] != faces[t][:, None, :]).all(axis=(1, 2))
    x, t, hop = x[apart], t[apart], hop[apart]
    order = np.lexsort((t, x))
    balls = np.empty(len(order), BALL_RECORD)
    for name, column in zip(BALL_RECORD.names, (x, t, hop)):
        balls[name] = column[order]
    return LandmarkScheme(landmarks, home, to_landmark, first_hop, balls)


def ball_maps(num_nodes: int, balls: np.ndarray) -> dict[int, dict[int, int]]:
    """Per node x, its ball as a map target -> next hop, from the
    `BALL_RECORD`s sorted by (x, t); build and load both end here."""
    cut = np.searchsorted(balls["x"], np.arange(num_nodes + 1)).tolist()
    t, hop = balls["t"].tolist(), balls["next"].tolist()
    return {node: dict(zip(t[cut[node]:cut[node + 1]], hop[cut[node]:cut[node + 1]]))
            for node in range(num_nodes)}


def tz_next_hop(scheme: LandmarkScheme, current: int, target: int, home: int) -> int:
    """Stateless next-hop rule at `current` toward target, whose home
    landmark `home` the caller knows from target's label."""
    if target == current:
        return current
    hop = scheme.exact_next[current].get(target)
    if hop is not None:
        return hop
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


def tz_route_nodes(scheme: LandmarkScheme, s: int, t: int) -> list[int]:
    """Simulate the scheme walk from node s to node t on the graph."""
    max_hops = 4 * max(len(scheme.home), 1)
    walk = [s]
    cur = s
    while cur != t:
        if len(walk) > max_hops:
            raise RuntimeError(f"scheme walk exceeded {max_hops} hops")
        cur = tz_next_hop(scheme, cur, t, scheme.home[t])
        walk.append(cur)
    return walk


def prune_intra_face(scheme: LandmarkScheme, graph: SpannerGraph) -> LandmarkScheme:
    """Set to -1 each landmark's first hop toward the nodes that share a
    sketch face with it; those pairs are routed by direct plane entries on
    the polytope instead, and the balls leave them out already. Build and
    load both call this."""
    for ell, row in scheme.first_hop.items():
        for t in _same_face(graph, ell):
            row[t] = -1
    return scheme


def materialize_plane_entries(graph: SpannerGraph) -> dict[tuple[int, int], int]:
    """The sketch face of every spanner edge, keyed by its (u, v) node pair,
    u < v. Every next hop stored in the scheme is a spanner neighbour, so
    this covers them all. A leg along the hop runs in that face; its guiding
    plane is orthogonal to the face and is built where the leg starts, so no
    plane is stored."""
    return {(u, v): f for u, v, _w, f in graph.edges}
