"""Geodesic Theta-graph spanner over the sketch faces.

Per sketch face the node set is the face's representative projections plus
Steiner relay points introduced on the face boundary wherever a cone around
a representative is empty of same-face representatives but its extension
(planar unfolding across sketch faces) does contain representatives of other
faces. Steiner nodes sit on a boundary edge shared by exactly two sketch
faces and participate in both faces' Theta-graphs, which is what stitches
the per-face spanners into one global graph. That graph holds each node pair
once, as (u, v, weight, face) with u < v, from the lowest face whose
Theta-graph has the pair; the compact routing scheme runs on it and a hop's
face is its edge's face.

A cone's extension is traced by a breadth-first search over the sketch
faces, each unfolded into the start face's plane by 2D maps, one per
shared edge (`_FaceMaps`). The 2D map that unfolds a face depends only on
the search path from the start face, so each start face keeps one
unfolding tree (`_Unfolded`): a node per path, holding the composed map
and the face's polygon, bounding circle and representatives already
unfolded. Every cone of every representative of that face walks and grows
the same tree, so each composition is paid for once.

The placement runs on Python floats: polygons and representatives are kept
as x and y coordinate lists, points and maps as tuples, and the `dot`/`map2`
kernels of `geometry` and the patch frame maps (`Patch.to_2d`, `to_3d`) do
their arithmetic, with the bits of the array kernel. Numpy is left to the
angles (`arctan2`, `hypot`), whose numpy results differ from `math`'s, to
the Steiner lift, which tests all points against per-face bounding spheres
in capped blocks and casts the pairs that pass, and to the Theta pass.

The Theta pass (`_theta_edges`) builds the Theta-graphs of all faces at
once: the same-face pairs of all faces, in capped blocks of whole rows (a
row is one node of one face), get their distances, angles, cones and
bisector projections in one numpy pass, and each (row, cone) minimum is
picked by an integer group key. `np.cos` only orders the candidates: a
(row, cone) whose runner-up lies within the row's snap of its minimum is
decided again with `math.cos`, on (projection, node id, j) tuples, so the
picks are those of a per-row loop with `math.cos`. `build_theta_graph` is
the pass over one face.
"""
from __future__ import annotations

import bisect
import math
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from . import geometry
from .geometry import cross, dot, map2, norm
from .patching import NO_NEIGHBOR, PatchDecomposition, Sketch
from .polytope import TriangulatedPolytope
from .sampling import RepresentativeAssignment

__all__ = [
    "DisconnectedSpanner",
    "ConeFan",
    "SpannerNode",
    "SpannerGraph",
    "cone_fan",
    "build_theta_graph",
    "place_steiner_points",
    "rep_nodes",
    "spanner_graph",
    "assemble_global_spanner",
    "build_spanner",
    "dump_spanner",
]


class DisconnectedSpanner(RuntimeError):
    pass


# an angle at most this far past a cone's lower bounding ray lies on that ray
_CONE_BOUNDARY = 1e-12


@dataclass(frozen=True)
class ConeFan:
    """Equal-angle cones partitioning the plane around an apex; cone k spans
    [k*width, (k+1)*width). Points on a bounding ray belong to the
    lower-indexed cone."""

    count: int
    width: float

    def index_of(self, angle: float) -> int:
        return int(self.indices_of((angle,))[0])

    def indices_of(self, angles) -> np.ndarray:
        """`index_of` over an array of angles, as an int array. `np.mod` and
        `//` on float arrays are Python's `%` and `//` on floats, so each
        entry is the cone of its angle alone. An angle is reduced mod 2*pi
        even when it comes from `np.mod(..., 2*pi)`, which can round a tiny
        negative angle up to exactly 2*pi: reduced, it is 0, on cone 0's
        lower ray, so in the last cone."""
        a = np.mod(np.asarray(angles, dtype=np.float64), 2.0 * math.pi)
        raw = (a // self.width).astype(np.int64) % self.count
        return np.where(a - raw * self.width <= _CONE_BOUNDARY, (raw - 1) % self.count, raw)

    def bisector(self, k: int) -> float:
        return (k + 0.5) * self.width

    def bounds(self, k: int) -> tuple[float, float]:
        return k * self.width, (k + 1) * self.width


def cone_fan(eps: float) -> ConeFan:
    if not (0.0 < eps < 2.0 * math.pi):
        raise ValueError("eps must lie in (0, 2*pi)")
    count = math.ceil(2.0 * math.pi / eps)
    return ConeFan(count=count, width=2.0 * math.pi / count)


@dataclass
class SpannerNode:
    id: int
    kind: str  # 'rep' | 'steiner'
    patches: tuple[int, ...]
    lift3d: np.ndarray  # the node's point on the polytope surface
    vertex: int | None = None  # rep: the represented vertex of P
    marked: tuple[int, int] | None = None  # steiner: marked vertices of its lift's edge


@dataclass
class SpannerGraph:
    nodes: list[SpannerNode]
    # (u, v, weight, face) with u < v, one per node pair; the face is the
    # lowest sketch face whose Theta-graph holds the pair
    edges: list[tuple[int, int, float, int]]
    per_face_nodes: dict[int, list[int]]
    node_of_vertex: dict[int, int] = field(default_factory=dict)
    connected: bool = True

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)


def build_theta_graph(
    points, eps: float, node_ids: list[int] | None = None,
) -> list[tuple[int, int, float]]:
    """Theta-graph edges over 2D points (float pairs or a (k, 2) array): per
    node and per nonempty cone, one edge to the point whose projection on
    the cone bisector is nearest the apex. Returns undirected deduplicated
    (i, j, weight) with i < j in node_ids terms, ascending; the one-face
    call of `_theta_edges`."""
    if len(points) <= 1:
        return []
    ids = list(range(len(points))) if node_ids is None else node_ids
    return [(u, v, w) for u, v, w, _f in _theta_edges([(0, ids, points)], eps)]


# node pairs per Theta block: each array of a block holds at most 2^14
# values (128 KB), however large the faces
_THETA_PAIRS = 1 << 14


def _theta_edges(faces: list, eps: float) -> list[tuple[int, int, float, int]]:
    """The union of the Theta-graphs of `faces`, a list of (face, node ids,
    points) with at least two nodes each, in ascending face order: each node
    pair once, as (u, v, weight, face) with u < v, from the lowest face whose
    Theta-graph holds it, ordered by face and then by pair.

    A row is one node of one face, paired with every node of the face,
    itself included. The rows run in blocks of whole rows, each of at most
    `_THETA_PAIRS` pairs (or one row, if longer), through `_theta_block`.
    A row's picks depend on that row alone, so they are the same in any
    block."""
    if not faces:
        return []
    sizes = np.array([len(ids) for _f, ids, _pts in faces], dtype=np.int64)
    ids = np.array([i for _f, ids, _pts in faces for i in ids], dtype=np.int64)
    pts = np.concatenate([np.asarray(p, dtype=np.float64) for _f, _ids, p in faces])
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)  # each row's face's first row
    lens = np.repeat(sizes, sizes)
    ends = np.cumsum(lens)
    fan = cone_fan(eps)
    picks = []
    r0 = 0
    while r0 < len(ids):
        done = int(ends[r0 - 1]) if r0 else 0
        r1 = max(r0 + 1, int(np.searchsorted(ends, done + _THETA_PAIRS, side="right")))
        picks.append(_theta_block(fan, pts, ids, first, lens, r0, r1))
        r0 = r1
    row, j, w = (np.concatenate(col) for col in zip(*picks))
    face = np.repeat(np.arange(len(faces)), sizes)[row]
    # pair keys by id rank, so that keys order as the id pairs do
    uniq, rank = np.unique(ids, return_inverse=True)
    lo, hi = np.minimum(rank[row], rank[j]), np.maximum(rank[row], rank[j])
    key = lo * len(uniq) + hi
    order = np.lexsort((key, face))
    _keys, first_seen = np.unique(key[order], return_index=True)
    sel = order[np.sort(first_seen)]
    # object arrays hand out one int object per id and per face, not one per edge
    uniq = np.array(uniq.tolist(), dtype=object)
    pids = np.array([f for f, _ids, _pts in faces], dtype=object)
    return list(zip(uniq[lo[sel]].tolist(), uniq[hi[sel]].tolist(), w[sel].tolist(),
                    pids[face[sel]].tolist()))


def _theta_block(fan: ConeFan, pts: np.ndarray, ids: np.ndarray, first: np.ndarray,
                 lens: np.ndarray, r0: int, r1: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Theta picks of rows r0..r1-1 (`pts` and `ids` per row, and per
    row its face's first row and its pair count), as arrays of rows, point
    rows j and distances: per (row, nonempty cone), the point whose
    projection on the cone bisector is nearest the apex, among the points
    farther than the row's snap from it (`geometry.snap` of its longest
    distance); a tie on the projection goes to the lower node id, then the
    lower j.

    Distances, angles and cones have the bits of a per-row numpy pass
    (`np.hypot`, `np.arctan2`, `np.mod`, `ConeFan.indices_of`). The
    projections, d * cos(angle - bisector), are taken with `np.cos`, which
    may differ from `math.cos` in the last bits, so they only order the
    candidates; each (row, cone) minimum is taken over the integer key
    row * count + cone. Both cosines lie within a few ulp of the true one,
    so for |projection| <= d <= the row's longest distance D the two
    projections differ by less than 1e-15 * D, and a candidate more than the
    row's snap, 1e-9 * (1 + D), above the `np.cos` minimum is above the
    `math.cos` minimum too. A (row, cone) with a runner-up within the snap
    of its minimum is decided by `_break_ties` with `math.cos`; any other
    takes its `np.cos` minimum."""
    lens = lens[r0:r1]
    seg = np.cumsum(lens) - lens  # each row's first pair in the block
    row = np.repeat(np.arange(r0, r1), lens)
    j = np.repeat(first[r0:r1] - seg, lens) + np.arange(len(row))
    rel = pts[j] - pts[row]
    d = np.hypot(rel[:, 0], rel[:, 1])
    a = np.mod(np.arctan2(rel[:, 1], rel[:, 0]), 2.0 * math.pi)
    snap = np.repeat(geometry.snap(np.maximum.reduceat(d, seg)), lens)
    keep = np.flatnonzero(d > snap)  # never the row's own node
    row, j, d, a, snap = row[keep], j[keep], d[keep], a[keep], snap[keep]
    if not len(keep):
        return row, j, d
    cone = fan.indices_of(a)
    key = (row - r0) * fan.count + cone
    order = np.argsort(key, kind="stable")
    key = key[order]
    heads = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    group = np.repeat(np.arange(len(heads)), np.diff(np.r_[heads, len(key)]))
    bisectors = (np.arange(fan.count) + 0.5) * fan.width
    proj = (d * np.cos(a - bisectors[cone]))[order]
    near = proj <= np.minimum.reduceat(proj, heads)[group] + snap[order]
    rivals = np.bincount(group[near], minlength=len(heads))[group]
    pick = order[near & (rivals == 1)]
    tied = near & (rivals > 1)
    if tied.any():
        cand = order[tied]
        pick = np.concatenate([pick, _break_ties(fan, key[tied], cand, ids[j[cand]],
                                                 j[cand], d[cand], a[cand], cone[cand])])
    return row[pick], j[pick], d[pick]


def _break_ties(fan: ConeFan, keys, cand, ids, j, d, a, cone) -> list[int]:
    """Per (row, cone) key, the candidate of `cand` whose (d * math.cos(a -
    bisector), node id, j) is least; the other arguments are the candidates'
    keys, node ids, point rows, distances, angles and cones, in `cand`
    order."""
    best: dict[int, tuple[tuple, int]] = {}
    cos = math.cos
    for g, c_i, nid, jj, dd, aa, c in zip(keys.tolist(), cand.tolist(), ids.tolist(),
                                          j.tolist(), d.tolist(), a.tolist(), cone.tolist()):
        t = (dd * cos(aa - fan.bisector(c)), nid, jj)
        held = best.get(g)
        if held is None or t < held[0]:
            best[g] = (t, c_i)
    return [c_i for _t, c_i in best.values()]


# ---------------------------------------------------------------------------
# extended-cone tracing over the unfolded sketch


@dataclass
class _FaceMaps:
    """Per sketch face: polygon, per-edge neighbour, and `hops`: per edge
    with a neighbour face, in edge order, that face and the 2D rigid map
    (matrix rows, translation) carrying its frame into this face's frame
    after unfolding. Unfolding turns the neighbour about the shared edge
    until its normal meets this face's; both frames have u x v = normal, so
    in frame coordinates it is a proper rigid motion of the plane, which
    the edge's corners in the neighbour's frame and their images here fix.
    The hop map is built from them: a rotation turning the edge vector
    there onto the one here, then the translation putting the first corner
    on its image. `edges` holds, per polygon edge, its start point and
    edge vector and the edge vector's squared length. `poly` is the pair of
    the polygon's x and y coordinate lists; maps, points and vectors are
    tuples of Python floats."""

    poly: tuple[list[float], list[float]]
    neighbors: np.ndarray
    hops: list[tuple[int, tuple, tuple]]
    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 0.0
    edges: list = field(default_factory=list)


def _build_face_maps(
    decomp: PatchDecomposition, sketch: Sketch
) -> dict[int, _FaceMaps]:
    by_pid = {f.patch_id: f for f in sketch.faces}
    maps: dict[int, _FaceMaps] = {}
    for f in sketch.faces:
        patch = decomp.patches[f.patch_id]
        hops: list[tuple[int, tuple, tuple]] = []
        edges = []
        corners = f.polygon2d.tolist()
        poly3 = [patch.to_3d(c) for c in corners]
        kk = len(corners)
        for k in range(kk):
            (a0, a1), (b0, b1) = corners[k], corners[(k + 1) % kk]
            seg = (b0 - a0, b1 - a1)
            edges.append(((a0, a1), seg, dot(seg, seg)))
            j = int(f.neighbor_patch[k])
            if j == NO_NEIGHBOR or j not in by_pid:
                continue
            # the proper motion sending the edge's corners p, q in j's frame onto a, b
            to_2d = decomp.patches[j].to_2d
            p, q = to_2d(poly3[k]), to_2d(poly3[(k + 1) % kk])
            en = (q[0] - p[0], q[1] - p[1])
            s = norm(seg) * norm(en)
            c, sn = dot(en, seg) / s, (en[0] * seg[1] - en[1] * seg[0]) / s
            m2 = ((c, -sn), (sn, c))
            hops.append((j, m2, (a0 - dot(m2[0], p), a1 - dot(m2[1], p))))
        center = tuple(f.polygon2d.mean(axis=0).tolist())
        radius = float(norm(f.polygon2d - center).max())
        maps[f.patch_id] = _FaceMaps(tuple(f.polygon2d.T.tolist()), f.neighbor_patch, hops,
                                     center=center, radius=radius, edges=edges)
    return maps


class _Unfolded:
    """A node of a start face's unfolding tree: the sketch face `pid` reached
    from the start face along one BFS path, with the composed 2D rigid map
    (m2, t2) carrying its frame into the start face's frame. The map depends
    on the path alone, not on the apex or the cone, so all cones of all
    representatives of a start face share one tree. A node keeps what the
    cone tests read, unfolded and as Python floats: its bounding-circle
    centre, and from their first use on, its polygon (x and y coordinate
    lists) and its representatives (float pairs; empty at the root). Maps
    compose in plain float arithmetic, with `dot`'s terms in `dot`'s order,
    and carry the coordinate lists with `map2`, so no node costs a numpy
    call. Child i, across the face's i-th hop, is unfolded on first use."""

    __slots__ = ("fm", "pid", "m2", "t2", "center", "poly", "reps", "children")

    def __init__(self, fm: _FaceMaps, pid: int, m2: tuple, t2: tuple[float, float],
                 center: tuple[float, float] = (0.0, 0.0)) -> None:
        self.fm = fm
        self.pid = pid
        self.m2 = m2
        self.t2 = t2
        self.center = center
        self.poly: tuple[list[float], list[float]] | None = None
        self.reps: list | None = None
        self.children: list[_Unfolded | None] = [None] * len(fm.hops)

    def unfold(self, i: int, face_maps: dict[int, _FaceMaps]) -> _Unfolded:
        nb, ((a, b), (c, d)), (ex, ey) = self.fm.hops[i]
        (p, q), (r, s) = self.m2
        # m2 @ em, then m2 et + t2; each sum has `dot`'s terms in its order
        nm = ((p * a + q * c, p * b + q * d), (r * a + s * c, r * b + s * d))
        nt = (ex * p + ey * q + self.t2[0], ex * r + ey * s + self.t2[1])
        fm = face_maps[nb]
        (m00, m01), (m10, m11) = nm
        cx, cy = fm.center
        center = (m00 * cx + m01 * cy + nt[0], m10 * cx + m11 * cy + nt[1])
        node = self.children[i] = _Unfolded(fm, nb, nm, nt, center=center)
        return node

    def unfold_poly(self) -> tuple[list[float], list[float]]:
        self.poly = map2(self.m2, self.t2, *self.fm.poly)
        return self.poly

    def unfold_reps(self, reps_xy: dict[int, tuple[list[float], list[float]]]) -> list:
        xs, ys = reps_xy.get(self.pid, ((), ()))
        self.reps = list(zip(*map2(self.m2, self.t2, xs, ys)))
        return self.reps


def _unfolding_root(fm: _FaceMaps, pid: int) -> _Unfolded:
    root = _Unfolded(fm, pid, ((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0))
    root.reps = []  # the search is for the reps of other faces
    return root


def _wedge_dirs(fan: ConeFan, c: int) -> tuple[tuple[float, float], tuple[float, float]]:
    lo, hi = fan.bounds(c)
    return (math.cos(lo), math.sin(lo)), (math.cos(hi), math.sin(hi))


def _reps_in_open_wedge(reps: list, apex, d1, d2, snap: float) -> bool:
    """Whether any point lies in the open wedge (more than snap inside both
    rays and farther than snap from the apex)."""
    ax, ay = apex
    (d1x, d1y), (d2x, d2y) = d1, d2
    for x, y in reps:
        rx, ry = x - ax, y - ay
        if (d1x * ry - d1y * rx > snap and d2x * ry - d2y * rx < -snap
                and float(np.hypot(rx, ry)) > snap):
            return True
    return False


def _polygon_meets_wedge(poly: tuple[list[float], list[float]], apex, d1, d2,
                         snap: float) -> bool:
    """Whether a convex polygon, given as its x and its y coordinates, meets
    the closed wedge at `apex` between the rays `d1` and `d2`, widened by
    snap. The polygon is clipped to the left of d1, Sutherland-Hodgman
    style, and the wedge is met iff a clipped point lies right of d2."""
    ax, ay = apex
    (d1x, d1y), (d2x, d2y) = d1, d2
    xs, ys = poly
    vals = [d1x * (y - ay) - d1y * (x - ax) for x, y in zip(xs, ys)]
    k = len(xs)
    for i in range(k):
        j = i + 1 if i + 1 < k else 0
        vi, vj = vals[i], vals[j]
        if vi >= -snap:
            x, y = xs[i], ys[i]
            if d2x * (y - ay) - d2y * (x - ax) <= snap:
                return True
        if (vi > snap and vj < -snap) or (vi < -snap and vj > snap):
            t = vi / (vi - vj)
            xi, yi, xj, yj = xs[i], ys[i], xs[j], ys[j]
            x, y = xi + t * (xj - xi), yi + t * (yj - yi)
            if d2x * (y - ay) - d2y * (x - ax) <= snap:
                return True
    return False


def _nearest_boundary_point_in_wedge(
    edges: list, apex: tuple[float, float], d1, d2, snap: float
) -> tuple[tuple[float, float], int] | None:
    """Closest point to the apex on the polygon boundary restricted to the
    closed wedge; `edges` is the face's `_FaceMaps.edges`. Returns (point,
    edge index) or None."""
    best: tuple[float, tuple[float, float], int] | None = None
    ax, ay = apex
    for i, ((a0, a1), (s0, s1), denom) in enumerate(edges):
        t0, t1 = 0.0, 1.0
        ok = True
        for (dx, dy), sgn in ((d1, 1.0), (d2, -1.0)):
            # sgn * cross(d, s(t) - apex) >= 0
            c0 = sgn * (dx * (a1 - ay) - dy * (a0 - ax))
            dc = sgn * (dx * s1 - dy * s0)
            if abs(dc) <= 1e-300:
                if c0 < -snap:
                    ok = False
                    break
                continue
            t_cross = -c0 / dc
            if dc > 0:
                t0 = max(t0, t_cross)
            else:
                t1 = min(t1, t_cross)
        if not ok or t0 > t1:
            continue
        # closest point of the clipped subsegment to the apex; when the apex
        # itself lies on the subsegment (corner apex), fall back to the
        # interval endpoints so a degenerate zero-length relay is never made
        t_star = 0.0 if denom <= 1e-300 else dot((ax - a0, ay - a1), (s0, s1)) / denom
        t_star = min(max(t_star, t0), t1)
        for t in (t_star, t0, t1):
            q = (a0 + t * s0, a1 + t * s1)
            dist = norm((q[0] - ax, q[1] - ay))
            if dist > snap and (best is None or dist < best[0]):
                best = (dist, q, i)
    if best is None:
        return None
    return best[1], best[2]


def _extended_cone_hits_rep(
    root: _Unfolded,
    apex: tuple[float, float],
    d1: tuple[float, float],
    d2: tuple[float, float],
    face_maps: dict[int, _FaceMaps],
    reps_xy: dict[int, tuple[list[float], list[float]]],
    snap: float,
) -> bool:
    """BFS over sketch faces, unfolding each onto the start face's plane, and
    report whether the open cone contains a representative projection of any
    other face; `reps_xy` holds each face's representatives as x and y
    coordinate lists. Each face is visited at most once per cone; the
    unfolded faces come from (and grow) the start face's unfolding tree
    `root`.

    A face's reps are tested when its polygon test passes and it joins the
    queue, so the search stops as soon as a queued face holds a rep in the
    cone. That is the answer of testing them when it leaves the queue: the
    answer is an OR over the set of faces the full BFS queues, rep tests
    never change that set or the order it is queued in, and the root, which
    is queued without a polygon test, has no reps to test."""
    ax, ay = apex
    (d1x, d1y), (d2x, d2y) = d1, d2
    visited = {root.pid}
    queue: deque[_Unfolded] = deque([root])
    while queue:
        node = queue.popleft()
        for i, (nb, _em, _et) in enumerate(node.fm.hops):
            if nb in visited:
                continue
            child = node.children[i] or node.unfold(i, face_maps)
            # bounding-circle reject before the exact polygon clip
            cx, cy = child.center[0] - ax, child.center[1] - ay
            radius = child.fm.radius
            if d1x * cy - d1y * cx < -radius or d2x * cy - d2y * cx > radius:
                continue
            if _polygon_meets_wedge(child.poly or child.unfold_poly(), apex, d1, d2, snap):
                reps = child.reps if child.reps is not None else child.unfold_reps(reps_xy)
                if reps and _reps_in_open_wedge(reps, apex, d1, d2, snap):
                    return True
                visited.add(nb)
                queue.append(child)
    return False


# ---------------------------------------------------------------------------
# steiner placement and lifting


def place_steiner_points(
    P: TriangulatedPolytope,
    decomp: PatchDecomposition,
    sketch: Sketch,
    assignment: RepresentativeAssignment,
    projections: dict[int, dict[int, tuple[float, float]]],
    eps: float,
    stats: dict | None = None,
) -> tuple[list[SpannerNode], list[dict[int, tuple[float, float]]]]:
    """Create rep nodes for every representative vertex, then walk each rep's
    cones: a cone with no same-face rep in its relative interior whose
    extension reaches another face's rep gets a Steiner node at the nearest
    boundary point of the face inside the cone, shared with the abutting
    face, unless a node already sits within 4*snap of it on either face.
    The cones of all reps of a face trace one shared unfolding tree. No
    placement reads a lift, so the Steiner nodes are lifted together after
    the last cone.

    An empty cone gets a relay when four tests all hold: a boundary point
    lies in it, its edge has an abutting face, neither face is crowded
    there, and the extended cone reaches another face's rep. Each is a pure
    test of the positions placed so far (the unfolding tree is only a
    cache), so the extension search, by far the dearest, runs last, and
    only for the cones the other three leave; the placement is that of any
    order of the four.

    Rep nodes come first, with ids in the order of `assignment.reps`; a rep
    sits at its vertex's projection in its patch. Returns the nodes and, per
    node id, its 2D position (a float pair) in the frame of each of its
    patches; the positions are needed only to build the Theta-graphs.
    `stats`, when given, gets the counts `empty_cones`, `cone_searches`,
    `steiner_nodes` and `lift_pairs` (the (point, face) pairs the lift's
    exact cast ran on) and the seconds `cone_search_s` and `steiner_lift_s`."""
    fan = cone_fan(eps)
    wedges = [_wedge_dirs(fan, c) for c in range(fan.count)]
    snap = P.snap
    face_maps = _build_face_maps(decomp, sketch)
    trees: dict[int, _Unfolded] = {}
    empty = searches = 0
    search_s = lift_s = 0.0
    lift_pairs = 0

    nodes = rep_nodes(P, decomp, assignment.reps)
    positions = [{n.patches[0]: projections[n.patches[0]][n.vertex]} for n in nodes]
    # each face's reps as x and y coordinate lists, the one home of their
    # positions in the placement
    reps_xy: dict[int, tuple[list[float], list[float]]] = {}
    for pid, rs in assignment.patch_reps.items():
        uv = projections[pid]
        reps_xy[pid] = ([uv[r][0] for r in rs], [uv[r][1] for r in rs])
    steiner: list[tuple[int, int, tuple]] = []  # (face, abutting face, sketch point)
    # with reps on fewer than two faces no cone can reach another face's rep
    apexes = nodes if sum(1 for xs, _ys in reps_xy.values() if xs) >= 2 else []
    # nodes already registered per face, to refuse coincident duplicates
    occupied_pos: dict[int, list[tuple[float, float]]] = {}
    for pos in positions:
        for pid, uv in pos.items():
            occupied_pos.setdefault(pid, []).append(uv)
    last_rep = {n.patches[0]: n.id for n in nodes}
    for node in apexes:
        pid = node.patches[0]
        fm = face_maps[pid]
        apex_xy = positions[node.id][pid]
        root = trees.get(pid) or _unfolding_root(fm, pid)
        # a face's tree is kept only until its last rep's cones are traced
        if node.id == last_rep[pid]:
            trees.pop(pid, None)
        else:
            trees[pid] = root
        occupied = _occupied_cones(fan, reps_xy[pid], apex_xy, snap)
        for c in range(fan.count):
            if c in occupied:
                continue
            empty += 1
            d1, d2 = wedges[c]
            found = _nearest_boundary_point_in_wedge(fm.edges, apex_xy, d1, d2, snap)
            if found is None:
                continue
            q2, edge_idx = found
            nb = int(fm.neighbors[edge_idx])
            if nb == NO_NEIGHBOR:
                continue
            q3 = decomp.patches[pid].to_3d(q2)
            q2_nb = decomp.patches[nb].to_2d(q3)
            if (_crowded(q2, occupied_pos.get(pid, ()), snap)
                    or _crowded(q2_nb, occupied_pos.get(nb, ()), snap)):
                # an existing node already sits there and serves as the relay
                continue
            searches += 1
            start = time.perf_counter()
            hit = _extended_cone_hits_rep(root, apex_xy, d1, d2, face_maps, reps_xy, snap)
            search_s += time.perf_counter() - start
            if not hit:
                continue
            steiner.append((pid, nb, q3))
            positions.append({pid: q2, nb: q2_nb})
            occupied_pos.setdefault(pid, []).append(q2)
            occupied_pos.setdefault(nb, []).append(q2_nb)
    if steiner:
        start = time.perf_counter()
        lifts, lift_pairs = _lift_steiner(
            P, np.array([q3 for _pid, _nb, q3 in steiner]),
            np.array([decomp.patches[pid].gamma.normal for pid, _nb, _q3 in steiner]))
        lift_s = time.perf_counter() - start
        for (pid, nb, _q3), (lift, marked) in zip(steiner, lifts):
            nodes.append(SpannerNode(id=len(nodes), kind="steiner", patches=(pid, nb),
                                     lift3d=lift, marked=marked))
    if stats is not None:
        stats.update(empty_cones=empty, cone_searches=searches, steiner_nodes=len(steiner),
                     lift_pairs=lift_pairs, cone_search_s=search_s, steiner_lift_s=lift_s)
    return nodes, positions


def _occupied_cones(fan: ConeFan, reps: tuple[list[float], list[float]], apex,
                    snap: float) -> set[int]:
    """The cones around `apex` with a point of `reps` (x and y coordinate
    lists) in their relative interior: farther than snap from the apex and
    from both bounding rays."""
    ax, ay = apex
    rx, ry = np.subtract(reps[0], ax), np.subtract(reps[1], ay)
    dist = np.hypot(rx, ry)
    ang = np.mod(np.arctan2(ry, rx), 2.0 * math.pi)
    occupied = set()
    for d, a, lo_k in zip(dist.tolist(), ang.tolist(), fan.indices_of(ang).tolist()):
        if d <= snap:
            continue
        frac = (a - lo_k * fan.width) % (2.0 * math.pi)
        if min(frac, fan.width - frac) * d > snap:
            occupied.add(lo_k)
    return occupied


def rep_nodes(P: TriangulatedPolytope, decomp: PatchDecomposition,
              reps: list[int]) -> list[SpannerNode]:
    """The rep nodes, ids 0.. in the order of `reps`: each lies on its
    vertex's owning patch and lifts to the vertex itself. Construction and
    `.prt` loading both build them here."""
    return [
        SpannerNode(id=i, kind="rep", patches=(int(decomp.owner_of_vertex[r]),),
                    lift3d=P.vertices[r].copy(), vertex=r)
        for i, r in enumerate(reps)
    ]


def _crowded(q: tuple[float, float], occupied: list, snap: float) -> bool:
    """Whether a registered node lies within 4*snap of the float pair q. The
    box test only skips points whose distance is certainly above 4*snap."""
    box = 4.0 * snap * (1.0 + 1e-9)
    qx, qy = q
    return any(
        norm((qx - px, qy - py)) <= 4.0 * snap
        for px, py in occupied
        if abs(qx - px) <= box and abs(qy - py) <= box
    )


# point-face pairs per lift block: each array of the pre-test, and of the
# exact cast, holds at most 2^14 values (128 KB), or one point's F if F is
# larger; 2^13 and 2^15 lift 6-18% slower at n = 1,600 and no faster on the
# three benchmark workloads (min of 20 interleaved lifts, 2-core VM)
_LIFT_PAIRS = 1 << 14

# a bound, relative to the magnitudes it involves, on each chain of float
# roundings that `_face_spheres` covers (a few units of 2^-53 each)
_ROUNDING = 2.0 ** -44


def _lift_steiner(P: TriangulatedPolytope, points: np.ndarray, inward: np.ndarray
                  ) -> tuple[list[tuple[np.ndarray, tuple[int, int]]], int]:
    """Maps sketch-boundary points back onto the polytope: the lift and the
    marked vertices of each row of `points` (B, 3), and the number of
    (point, face) pairs the exact cast ran on. Each point's ray runs along
    minus the same row of `inward` (the unit inward normal of the point's
    patch). Its hit is the first minimum distance ts, in ascending face id,
    over the faces that accept the ray: ts >= -snap and the hit within
    snap*max(1, |e|) of each edge e's inner side. The hit snaps to the
    nearest point of its face's edges, and a point that no face accepts to
    the nearest edge point over all faces (`_nearest_edge_point`).

    Only a face whose bounding sphere (`_face_spheres`) meets the point's
    line can accept the ray, so the exact cast runs on the pairs that pass
    that pre-test alone. The pre-test takes blocks of max(1, _LIFT_PAIRS //
    F) points, and the cast runs of whole points with at most `_LIFT_PAIRS`
    pairs (or one point's). Every step is elementwise per pair, so a point
    lifts to the same bits in any block, alone or in the whole batch, and
    with or without the pre-test."""
    tri = P.vertices[P.faces]  # (F, 3, 3)
    sides = []
    for k in range(3):
        u = tri[:, k]
        e = tri[:, (k + 1) % 3] - u
        thr = -P.snap * np.maximum(1.0, norm(e))
        sides.append((tuple(u.T.copy()), tuple(e.T.copy()), thr))
    normals = tuple(P.face_normals.T.copy())
    spheres = _face_spheres(P, float(norm(points).max()))
    starts = range(0, len(points), max(1, _LIFT_PAIRS // P.num_faces))
    kept = [_sphere_pairs(spheres, points[lo:lo + starts.step], inward[lo:lo + starts.step])
            for lo in starts]
    rows = np.concatenate([r + lo for lo, (r, _f) in zip(starts, kept)])
    faces = np.concatenate([f for _r, f in kept])
    # cast whole points, at most _LIFT_PAIRS pairs at a time (or one point's)
    at = np.searchsorted(rows, np.arange(len(points) + 1)).tolist()
    out, lo = [], 0
    while lo < len(points):
        hi = max(lo + 1, bisect.bisect_right(at, at[lo] + _LIFT_PAIRS) - 1)
        out += _lift_block(P, normals, sides, points[lo:hi], inward[lo:hi],
                           rows[at[lo]:at[hi]] - lo, faces[at[lo]:at[hi]])
        lo = hi
    return out, len(rows)


def _face_spheres(P: TriangulatedPolytope, reach: float) -> tuple[tuple, np.ndarray]:
    """Each face's bounding sphere for the lift's pre-test: its centre
    columns and its squared radius, such that every hit the face accepts
    lies within the radius of the centre, for rays from points at most
    `reach` from the origin.

    Take any centre c (here the float centroid), and let the face have
    corners v_k, edges e_k = v_(k+1) - v_k, twice its area 2A (the norm
    of the cross product of two edges) and rho = max_k |v_k - c|. Up to
    rounding, edge k's side test reads (e_k x (q - v_k)) . n >= -snap *
    max(1, |e_k|), and its left side is 2A times the barycentric coordinate
    l_k of q (across from edge k), so l_k >= -eta_k with eta_k = snap *
    max(1, |e_k|) / 2A. As the l_k sum to 1, sum |l_k| <= 1 + 2 sum eta_k,
    and q - c = sum l_k (v_k - c) gives

        |q - c| <= (1 + 2 sum_k eta_k) rho.

    Rounding adds three terms, each a chain of a few roundings of unit
    2^-53 that `_ROUNDING` (g) bounds relative to its magnitudes. The side
    test's products and the tilt of the float normal n (the cross product's
    rounding over 2A, at most g (1 + |e_0| |e_2| / 2A) =: gamma) move each
    side value by at most gamma |e_k| |q - v_k|, with |q - v_k| <= X + rho
    for X = |q - c|. The hit lies off the face's true plane by at most
    gamma (X + rho), plus the rounding of t and of q = p - t d, which with
    the distance from q to the line's exact point at t is below
    g (|p| + |c| + rho + X). With theta = gamma (1 + 2 (|e_0| + |e_1| +
    |e_2|) rho / 2A) + g, both q and that exact point satisfy

        X (1 - theta) <= (1 + 2 sum_k eta_k + theta) rho + g (reach + |c| + rho).

    Where theta >= 1/2 (a face too thin to bound) the radius is infinite
    and the face is always kept. A last factor 1 + 2^-40 covers the
    rounding of the radius itself; `_sphere_pairs` covers that of the
    pre-test."""
    tri = P.vertices[P.faces]  # (F, 3, 3)
    lengths = [norm(tri[:, (k + 1) % 3] - tri[:, k]) for k in range(3)]
    centre = tri.sum(axis=1) / 3.0
    rho = np.max([norm(tri[:, k] - centre) for k in range(3)], axis=0)
    twice_area = norm(cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]))
    eta = P.snap * sum(np.maximum(1.0, lk) for lk in lengths) / twice_area
    gamma = _ROUNDING * (1.0 + lengths[0] * lengths[2] / twice_area)
    theta = gamma * (1.0 + 2.0 * (lengths[0] + lengths[1] + lengths[2]) * rho
                     / twice_area) + _ROUNDING
    radius = (((1.0 + 2.0 * eta + theta) * rho + _ROUNDING * (reach + norm(centre) + rho))
              / (1.0 - theta) * (1.0 + 2.0 ** -40))
    radius = np.where(theta < 0.5, radius, np.inf)
    return tuple(centre.T.copy()), radius * radius


def _sphere_pairs(spheres: tuple, points: np.ndarray, inward: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The pre-test: the (point, face) pairs, as row and face indices in
    (point, face) order, whose face sphere meets the line through the point
    along its `inward` row d: |c - p|^2 - ((c - p) . d)^2 <= r^2, with the
    slack `_ROUNDING` |c - p|^2 for the rounding of both sides and of
    |d| = 1. It holds (points, faces) arrays."""
    centre, r2 = spheres
    p = tuple(points.T[:, :, None])  # per coordinate, a (B, 1) column
    w = [centre[c] - p[c] for c in range(3)]
    far = dot(w, w)
    along = dot(w, tuple(inward.T[:, :, None]))
    keep = np.flatnonzero(far - along * along <= r2 + far * _ROUNDING)
    return np.divmod(keep, len(r2))


def _lift_block(P: TriangulatedPolytope, normals: tuple, sides: list, points: np.ndarray,
                inward: np.ndarray, rows: np.ndarray, faces: np.ndarray
                ) -> list[tuple[np.ndarray, tuple[int, int]]]:
    """`_lift_steiner` for a run of points, given the (point, face) pairs
    the pre-test kept for them as row and face indices in (point, face)
    order."""
    snap = P.snap
    p = [points[rows, c] for c in range(3)]
    d = [inward[rows, c] for c in range(3)]
    n = [col[faces] for col in normals]
    denom = dot(n, d)
    numer = dot(n, p) - P.face_offsets[faces]
    with np.errstate(divide="ignore", invalid="ignore"):
        ts = np.where(np.abs(denom) > 1e-15, numer / denom, np.inf)
        inside = np.isfinite(ts)
        t = np.where(inside, ts, 0.0)
        q = [p[c] - t * d[c] for c in range(3)]  # ray hits, per coordinate
    for u, e, thr in sides:
        w = (q[0] - u[0][faces], q[1] - u[1][faces], q[2] - u[2][faces])
        inside &= dot(cross((e[0][faces], e[1][faces], e[2][faces]), w), n) >= thr[faces]
    ts = np.where(inside & (ts >= -snap), ts, np.inf)
    # per point, its least ts and, among equal ones, its lowest face
    order = np.lexsort((ts, rows))
    first = order[np.diff(rows[order], prepend=-1) != 0]
    first = first[ts[first] < np.inf]
    hit = dict(zip(rows[first].tolist(), _nearest_edge_point(
        P, np.stack([q[c][first] for c in range(3)], axis=1), faces[first, None])))
    all_faces = np.arange(P.num_faces)[None, :]
    # a ray that no face accepts (heavily truncated sketch) snaps over all faces
    return [hit[r] if r in hit else _nearest_edge_point(P, points[r:r + 1], all_faces)[0]
            for r in range(len(points))]


def _nearest_edge_point(P: TriangulatedPolytope, q: np.ndarray, faces: np.ndarray
                        ) -> list[tuple[np.ndarray, tuple[int, int]]]:
    """For each row of q (m, 3), the nearest point to it on an edge of the
    faces in the same row of `faces` (m, j), and the marked vertices of that
    edge: the endpoint the point snaps to, twice, or else both endpoints.
    The edges are tried in (face, k) order, edge k of a face running from
    its corner k to corner k + 1, and the first nearest wins. The arithmetic
    is the kernel's, elementwise over columns of (m, 3j) pairs; the clamp of
    the edge parameter to [0, 1] keeps Python's min(max(t, 0.0), 1.0), so a
    -0.0 keeps its bit."""
    V = P.vertices
    tri = P.faces[faces]  # (m, j, 3)
    tail = tri.reshape(len(q), 3 * faces.shape[1])
    head = tri[:, :, [1, 2, 0]].reshape(tail.shape)
    a = [V[tail, c] for c in range(3)]
    seg = [V[head, c] - a[c] for c in range(3)]
    qc = [q[:, c, None] for c in range(3)]
    denom = dot(seg, seg)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(denom <= 1e-300, 0.0,
                     dot([qc[c] - a[c] for c in range(3)], seg) / denom)
    t = np.where(t < 0.0, 0.0, t)
    t = np.where(t > 1.0, 1.0, t)
    w = [a[c] + t * seg[c] for c in range(3)]
    best = np.argmin(norm([w[c] - qc[c] for c in range(3)]), axis=1)
    rows = np.arange(len(q))
    w = [col[rows, best] for col in w]
    u, v = tail[rows, best], head[rows, best]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    near_lo = norm([w[c] - V[lo, c] for c in range(3)]) <= P.snap
    near_hi = norm([w[c] - V[hi, c] for c in range(3)]) <= P.snap
    marked = zip(lo.tolist(), hi.tolist(), near_lo.tolist(), near_hi.tolist())
    return [(np.array(point), (lo, lo) if at_lo else (hi, hi) if at_hi else (lo, hi))
            for point, (lo, hi, at_lo, at_hi) in zip(np.stack(w, axis=1).tolist(), marked)]


def _nodes_by_face(nodes: list[SpannerNode]) -> dict[int, list[int]]:
    """The ids of the nodes on each sketch face, ascending."""
    per_face: dict[int, list[int]] = {}
    for n in nodes:
        for pid in n.patches:
            per_face.setdefault(pid, []).append(n.id)
    return per_face


def spanner_graph(nodes: list[SpannerNode],
                  edges: list[tuple[int, int, float, int]]) -> SpannerGraph:
    """The graph of the given nodes and edges with its per-face and
    per-vertex indices; construction and `.prt` loading both end here."""
    return SpannerGraph(
        nodes=nodes,
        edges=edges,
        per_face_nodes=_nodes_by_face(nodes),
        node_of_vertex={n.vertex: n.id for n in nodes if n.kind == "rep"},
    )


def assemble_global_spanner(nodes: list[SpannerNode],
                            positions: list[dict[int, tuple[float, float]]],
                            eps: float, stats: dict | None = None) -> SpannerGraph:
    """Per-face Theta-graphs over rep+steiner nodes, unioned into one graph;
    `positions` is the second result of `place_steiner_points`. A pair that
    two faces' Theta-graphs both hold (both its nodes lie on both faces) is
    kept once, from the lower face. All faces run through one Theta pass
    (`_theta_edges`). `stats`, when given, gets the pass's node pair count
    (`theta_pairs`, each node with each node of its face, itself
    included) and its seconds (`theta_pass_s`)."""
    start = time.perf_counter()
    per_face = _nodes_by_face(nodes)
    faces = [(pid, ids, [positions[i][pid] for i in ids])
             for pid, ids in sorted(per_face.items()) if len(ids) >= 2]
    edges = _theta_edges(faces, eps)
    g = spanner_graph(nodes, edges)
    ends = np.array([(u, v) for u, v, _w, _f in edges], dtype=np.int64).reshape(-1, 2)
    links = coo_matrix((np.ones(len(ends)), (ends[:, 0], ends[:, 1])),
                       shape=(len(nodes), len(nodes)))
    g.connected = connected_components(links, directed=False)[0] <= 1
    if stats is not None:
        stats["theta_pairs"] = sum(len(ids) ** 2 for _f, ids, _p in faces)
        stats["theta_pass_s"] = time.perf_counter() - start
    return g


def build_spanner(
    P: TriangulatedPolytope,
    decomp: PatchDecomposition,
    sketch: Sketch,
    assignment: RepresentativeAssignment,
    projections: dict[int, dict[int, tuple[float, float]]],
    eps: float,
    stats: dict | None = None,
) -> SpannerGraph:
    """The Steiner placement and the Theta pass; `stats`, when given, gets
    the counts and seconds of both, and the placement's own seconds, less
    its cone searches and lift, as `steiner_placement_s`."""
    start = time.perf_counter()
    nodes, positions = place_steiner_points(P, decomp, sketch, assignment, projections, eps,
                                            stats)
    if stats is not None:
        stats["steiner_placement_s"] = (time.perf_counter() - start - stats["cone_search_s"]
                                        - stats["steiner_lift_s"])
    return assemble_global_spanner(nodes, positions, eps, stats)


def dump_spanner(g: SpannerGraph) -> str:
    """Edge-list debug dump: node table then weighted edges."""
    lines = ["# node id kind lift_x lift_y lift_z"]
    for n in g.nodes:
        q = n.lift3d
        lines.append(f"node {n.id} {n.kind} {q[0]:.9g} {q[1]:.9g} {q[2]:.9g}")
    lines.append("# edge u v weight face")
    for u, v, w, f in g.edges:
        lines.append(f"edge {u} {v} {w:.9g} {f}")
    return "\n".join(lines) + "\n"
