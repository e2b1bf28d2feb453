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
shared edge, composed along the search path. `_FaceMaps` holds the sketch
faces as padded arrays and their hops as CSR arrays, so the placement
decides every empty cone at once: its nearest boundary point
(`_boundary_points`) and its extension search (`_search_cones`, all cones a
BFS level at a time) run over numpy columns in capped blocks, with the
terms of `geometry.dot` in their order, so every value has the bits of a
loop over Python floats. The angles keep numpy's `arctan2` and `hypot`,
whose results differ from `math`'s. Only the crowding rule, which reads the
relays placed before, runs as a loop. The Steiner lift tests all points
against per-face bounding spheres in capped blocks and casts the pairs
that pass.

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

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from . import geometry
from .geometry import cross, dot, norm
from .patching import NO_NEIGHBOR, PatchDecomposition, Sketch, frame_to_2d, frame_to_3d
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


def _runs(sizes, cap: int) -> list[tuple[int, int]]:
    """The capped blocks of every array pass: runs [lo, hi) of consecutive
    rows, each as long as it can be with `sizes` summing to at most `cap`,
    or a single larger row on its own. No rows make the one empty run
    (0, 0), so that a pass over nothing still yields its empty columns."""
    at = np.r_[0, np.cumsum(sizes)]
    runs, lo = [], 0
    while lo < len(at) - 1:
        hi = max(lo + 1, int(np.searchsorted(at, at[lo] + cap, side="right")) - 1)
        runs.append((lo, hi))
        lo = hi
    return runs or [(0, 0)]


def _theta_edges(faces: list, eps: float) -> list[tuple[int, int, float, int]]:
    """The union of the Theta-graphs of `faces`, a list of (face, node ids,
    points) with at least two nodes each, in ascending face order: each node
    pair once, as (u, v, weight, face) with u < v, from the lowest face whose
    Theta-graph holds it, ordered by face and then by pair.

    A row is one node of one face, paired with every node of the face,
    itself included. The rows run in blocks of whole rows, each of at most
    `_THETA_PAIRS` pairs or one longer row (`_runs`), through `_theta_block`.
    A row's picks depend on that row alone, so they are the same in any
    block."""
    if not faces:
        return []
    sizes = np.array([len(ids) for _f, ids, _pts in faces], dtype=np.int64)
    ids = np.array([i for _f, ids, _pts in faces for i in ids], dtype=np.int64)
    pts = np.concatenate([np.asarray(p, dtype=np.float64) for _f, _ids, p in faces])
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)  # each row's face's first row
    lens = np.repeat(sizes, sizes)
    fan = cone_fan(eps)
    picks = [_theta_block(fan, pts, ids, first, lens, r0, r1)
             for r0, r1 in _runs(lens, _THETA_PAIRS)]
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
# the sketch faces as arrays, and the cone tests over all cones at once


@dataclass
class _FaceMaps:
    """The sketch faces as arrays, one row per face, whose row is its patch
    id (`build_sketch` makes face i for patch i), and one column per corner,
    padded to the largest polygon. Per corner: its coordinates (`xs`,
    `ys`), whether it is a real corner (`corner`), its successor (`nxt`),
    the edge to that successor (`seg_x`, `seg_y`, and `seg_sq`, its squared
    length) and the patch across that edge (`neighbors`, NO_NEIGHBOR on
    padding). Per face: its bounding circle (`cx`, `cy`, the corners' mean,
    and `radius`). `frames` holds each patch's frame (origin, u, v) by
    patch id.

    The hops are CSR arrays: face f's hops are `hop_start[f]` to
    `hop_start[f + 1] - 1`, one per edge with a neighbour face, in edge
    order, each holding that face's row (`hop_face`) and the 2D rigid map
    (`hop_map` rows m00, m01, m10, m11, t0, t1) carrying its frame into f's
    frame after unfolding. Unfolding turns the neighbour about the shared
    edge until its normal meets this face's; both frames have u x v =
    normal, so in frame coordinates it is a proper rigid motion of the
    plane, which the edge's corners in the neighbour's frame and their
    images here fix. The hop map is built from them: a rotation turning the
    edge vector there onto the one here, then the translation putting the
    first corner on its image."""

    xs: np.ndarray
    ys: np.ndarray
    corner: np.ndarray
    nxt: np.ndarray
    seg_x: np.ndarray
    seg_y: np.ndarray
    seg_sq: np.ndarray
    neighbors: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    radius: np.ndarray
    frames: np.ndarray
    hop_start: np.ndarray
    hop_face: np.ndarray
    hop_map: np.ndarray


def _frame_columns(frames: np.ndarray, pids: np.ndarray) -> tuple:
    """The frames of patches `pids`, from the per-patch (origin, u, v) rows
    of `frames`, as columns: origin, u and v, each a tuple of coordinate
    columns, for `frame_to_2d` and `frame_to_3d`."""
    f = frames[pids]
    return tuple(tuple(f[:, k, c] for c in range(3)) for k in range(3))


def _build_face_maps(decomp: PatchDecomposition, sketch: Sketch) -> _FaceMaps:
    """The face arrays of `sketch`. Each hop map is computed on columns, with
    the terms of `geometry.dot` and `norm` and of the patch frame maps, over
    the edge's corners carried to 3D in the face's frame and back to 2D in
    the neighbour's."""
    sizes = np.array([len(f.polygon2d) for f in sketch.faces])
    succ = np.arange(1, sizes.max() + 1)
    corner = succ - 1 < sizes[:, None]
    nxt = np.where(succ < sizes[:, None], succ, 0)
    xs, ys = np.zeros(corner.shape), np.zeros(corner.shape)
    xs[corner], ys[corner] = np.concatenate([f.polygon2d for f in sketch.faces]).T
    neighbors = np.full(corner.shape, NO_NEIGHBOR)
    neighbors[corner] = np.concatenate([f.neighbor_patch for f in sketch.faces])
    centre = np.array([f.polygon2d.mean(axis=0) for f in sketch.faces])
    rx, ry = xs - centre[:, :1], ys - centre[:, 1:]
    radius = np.where(corner, np.sqrt(rx * rx + ry * ry), 0.0).max(axis=1)
    seg_x = np.take_along_axis(xs, nxt, 1) - xs
    seg_y = np.take_along_axis(ys, nxt, 1) - ys
    frames = np.array([(p.frame_origin, p.frame_u, p.frame_v) for p in decomp.patches])
    # the hops: edges with an abutting face, in (face, edge) order
    across = neighbors != NO_NEIGHBOR
    f, k = np.nonzero(across)
    k1 = nxt[f, k]
    a, b = (xs[f, k], ys[f, k]), (xs[f, k1], ys[f, k1])
    # the proper motion sending the edge's corners p, q in j's frame onto a, b
    here = _frame_columns(frames, f)
    there = _frame_columns(frames, neighbors[f, k])
    p = frame_to_2d(there, frame_to_3d(here, a))
    q = frame_to_2d(there, frame_to_3d(here, b))
    seg, en = (b[0] - a[0], b[1] - a[1]), (q[0] - p[0], q[1] - p[1])
    s = norm(seg) * norm(en)
    c, sn = dot(en, seg) / s, (en[0] * seg[1] - en[1] * seg[0]) / s
    hop_map = np.array([c, -sn, sn, c, a[0] - dot((c, -sn), p), a[1] - dot((sn, c), p)])
    return _FaceMaps(xs, ys, corner, nxt, seg_x, seg_y, seg_x * seg_x + seg_y * seg_y,
                     neighbors, centre[:, 0], centre[:, 1], radius, frames,
                     np.r_[0, np.cumsum(across.sum(axis=1))], neighbors[f, k], hop_map)


def _wedge_dirs(fan: ConeFan, c: int) -> tuple[tuple[float, float], tuple[float, float]]:
    lo, hi = fan.bounds(c)
    return (math.cos(lo), math.sin(lo)), (math.cos(hi), math.sin(hi))


def _spread(start: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries of rows `at` of a CSR array with offsets `start`: per
    entry, in row and then entry order, its row's position in `at` and its
    index."""
    first = start[at]
    count = start[at + 1] - first
    own = np.repeat(np.arange(len(at)), count)
    return own, np.repeat(first - (np.cumsum(count) - count), count) + np.arange(len(own))


# values per array of the cone tests: the boundary pass takes blocks of
# cones with at most 2^16 (cone, corner, candidate) values, the search
# blocks of cones with at most 2^16 (cone, face) pairs, and each level of
# the search runs of queued faces with at most 2^16 (child, corner) values;
# 2^13 and 2^14 place the Steiner nodes of fine200-sized hulls 10-30%
# slower, and 2^17 is no faster (min of 5 placements, 2-core VM)
_CONE_PAIRS = 1 << 16


def _boundary_points(fm: _FaceMaps, rows: np.ndarray, ax: np.ndarray, ay: np.ndarray,
                     dirs: np.ndarray, snap: float) -> tuple[np.ndarray, ...]:
    """The nearest point to each cone's apex on its face's boundary within
    the closed cone: per cone (face row `rows`, apex (`ax`, `ay`), wedge rays
    `dirs` (d1x, d1y, d2x, d2y)), whether there is one, its coordinates and
    its edge. The cones run in blocks of at most `_CONE_PAIRS` (cone,
    corner, candidate) values, 3K per cone for K corners per face
    (`_boundary_block`); each cone's answer is its own."""
    parts = [_boundary_block(fm, rows[lo:hi], ax[lo:hi], ay[lo:hi], dirs[lo:hi], snap)
             for lo, hi in _runs(np.full(len(rows), 3 * fm.xs.shape[1]), _CONE_PAIRS)]
    return tuple(np.concatenate(col) for col in zip(*parts))


def _boundary_block(fm: _FaceMaps, rows: np.ndarray, ax: np.ndarray, ay: np.ndarray,
                    dirs: np.ndarray, snap: float) -> tuple[np.ndarray, ...]:
    """`_boundary_points` of a block of cones, over (cone, edge) arrays.
    Each edge a + t s, t in [0, 1], is clipped to the wedge: per ray d, with
    sign +1 for d1 and -1 for d2, c0 = sign * cross(d, a - apex) and dc =
    sign * cross(d, s); an edge with |dc| <= 1e-300 is dropped if c0 <
    -snap, and otherwise t_cross = -c0 / dc raises t0 (dc > 0) or lowers t1.
    Of the clipped edge, the point nearest the apex (its parameter clamped
    to [t0, t1]) and both ends are candidates, in that order, if farther
    than snap from the apex (a corner apex never gets a zero-length relay),
    and the first nearest candidate in (edge, candidate) order wins. The
    arithmetic is that of a loop over Python floats, term by term; the
    `np.where` clamps keep Python's max and min, which return their first
    argument on a tie, so a -0.0 t_cross leaves t0 = 0.0 as it is."""
    n = len(rows)
    a0, a1, s0, s1 = fm.xs[rows], fm.ys[rows], fm.seg_x[rows], fm.seg_y[rows]
    denom = fm.seg_sq[rows]
    ax, ay = ax[:, None], ay[:, None]
    ok = fm.corner[rows]
    t0, t1 = np.zeros(a0.shape), np.ones(a0.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, sgn in ((0, 1.0), (2, -1.0)):
            dx, dy = dirs[:, k, None], dirs[:, k + 1, None]
            c0 = sgn * (dx * (a1 - ay) - dy * (a0 - ax))
            dc = sgn * (dx * s1 - dy * s0)
            flat = np.abs(dc) <= 1e-300
            ok = ok & ~(flat & (c0 < -snap))
            t_cross = -c0 / dc
            t0 = np.where(~flat & (dc > 0) & (t_cross > t0), t_cross, t0)
            t1 = np.where(~flat & (dc < 0) & (t_cross < t1), t_cross, t1)
        t = np.where(denom <= 1e-300, 0.0, ((ax - a0) * s0 + (ay - a1) * s1) / denom)
    ok &= ~(t0 > t1)
    t = np.where(t0 > t, t0, t)
    t = np.where(t1 < t, t1, t)
    ts = np.stack([t, t0, t1], axis=2)
    qx, qy = a0[:, :, None] + ts * s0[:, :, None], a1[:, :, None] + ts * s1[:, :, None]
    rx, ry = qx - ax[:, :, None], qy - ay[:, :, None]
    dist = np.sqrt(rx * rx + ry * ry)
    width = 3 * a0.shape[1]
    dist = np.where(ok[:, :, None] & (dist > snap), dist, np.inf).reshape(n, width)
    best = dist.argmin(axis=1)
    at = np.arange(n)
    return (np.isfinite(dist[at, best]), qx.reshape(n, width)[at, best],
            qy.reshape(n, width)[at, best], best // 3)


def _search_cones(fm: _FaceMaps, reps: tuple, rows: np.ndarray, ax: np.ndarray,
                  ay: np.ndarray, dirs: np.ndarray, snap: float) -> tuple[np.ndarray, int]:
    """Whether each cone's extension, traced over the sketch faces unfolded
    into its face's plane, holds a representative of another face in its
    open wedge; the cones are given as for `_boundary_points`, and `reps`
    holds each face's reps as CSR arrays (offsets per face row, x, y).
    Returns the answers and the number of (cone, unfolded face) pairs
    tested. The cones run in blocks of at most `_CONE_PAIRS` (cone, face)
    pairs (`_search_block`); each cone's answer is its own."""
    parts = [_search_block(fm, reps, rows[lo:hi], ax[lo:hi], ay[lo:hi], dirs[lo:hi], snap)
             for lo, hi in _runs(np.full(len(rows), len(fm.xs)), _CONE_PAIRS)]
    return np.concatenate([h for h, _p in parts]), sum(p for _h, p in parts)


def _search_block(fm: _FaceMaps, reps: tuple, rows: np.ndarray, ax: np.ndarray,
                  ay: np.ndarray, dirs: np.ndarray, snap: float) -> tuple[np.ndarray, int]:
    """`_search_cones` for a block of cones: a breadth-first search per
    cone, all cones a level at a time. The search of one cone starts at its
    face, with the identity map; a face leaving the queue offers each of its
    hops' faces not yet visited, unfolded by the composed map. A child
    whose bounding circle misses the wedge, or whose polygon does not meet
    it (`_expand`), is dropped; of the rest, per face, the first in queue
    order joins the queue and is visited. The cone's answer is True as soon
    as a face that joins holds a rep in the open wedge. That is the answer
    of testing a face's reps when it leaves the queue: it is an OR over the
    faces the full search queues, rep tests never change that set, and the
    start face, queued without a test, is not searched for reps.

    The frontier is a level of the queue, in queue order: per queued face
    its cone, its face row and its composed map (m00, m01, m10, m11, t0,
    t1). Each (cone, face) is visited once, so the frontier and the visited
    mask hold at most `_CONE_PAIRS` entries (or one cone's), and a level
    is expanded in runs of queued faces whose children hold at most
    `_CONE_PAIRS` corner values (or one face's)."""
    n, width = len(rows), fm.xs.shape[1]
    visited = np.zeros((n, len(fm.xs)), dtype=bool)
    visited[np.arange(n), rows] = True
    hit = np.zeros(n, dtype=bool)
    one, zero = np.ones(n), np.zeros(n)
    front = [np.arange(n), rows, one, zero, zero, one, zero, zero]
    tested = 0
    while len(front[0]):
        parts = []
        for lo, hi in _runs(fm.hop_start[front[1] + 1] - fm.hop_start[front[1]],
                            _CONE_PAIRS // width):
            kept, count = _expand(fm, reps, [col[lo:hi] for col in front], visited, hit,
                                  ax, ay, dirs, snap)
            parts.append(kept)
            tested += count
        front = [np.concatenate(col) for col in zip(*parts)]
        live = ~hit[front[0]]
        front = [col[live] for col in front]
    return hit, tested


def _expand(fm: _FaceMaps, reps: tuple, front: list, visited: np.ndarray, hit: np.ndarray,
            ax: np.ndarray, ay: np.ndarray, dirs: np.ndarray, snap: float
            ) -> tuple[list, int]:
    """One level of `_search_block` for a run of queued faces `front`: the
    children that join the queue, as frontier columns, and the number of
    (cone, child) pairs tested; marks the children visited, and the cones
    whose children hold a rep in the open wedge in `hit`.

    A child's map composes its parent's map (p, q; r, s), (t0, t1) with the
    hop's (a, b; c, d), (ex, ey) as (p*a + q*c, p*b + q*d; r*a + s*c, r*b +
    s*d), (ex*p + ey*q + t0, ex*r + ey*s + t1), and a point maps as x*m00 +
    y*m01 + t0, x*m10 + y*m11 + t1: the terms of `geometry.dot`, so every
    unfolding has the bits of a float loop over the search path.
    A child whose bounding circle lies wholly beyond either ray is dropped
    before the polygon clip. The clip keeps the polygon left of d1 (within
    snap) in Sutherland-Hodgman style, and the wedge is met iff a kept
    corner or cut point lies right of d2 (within snap). A rep is in the
    open wedge if it lies more than snap inside both rays and farther than
    snap from the apex (`np.hypot`)."""
    cone, face, m00, m01, m10, m11, t0, t1 = front
    par, h = _spread(fm.hop_start, face)
    child, c = fm.hop_face[h], cone[par]
    fresh = np.flatnonzero(~visited[c, child])
    par, h, child, c = par[fresh], h[fresh], child[fresh], c[fresh]
    p, q, r, s, u0, u1 = m00[par], m01[par], m10[par], m11[par], t0[par], t1[par]
    a, b, cc, d, ex, ey = fm.hop_map[:, h]
    m = (p * a + q * cc, p * b + q * d, r * a + s * cc, r * b + s * d)
    t = (ex * p + ey * q + u0, ex * r + ey * s + u1)
    d1x, d1y, d2x, d2y = dirs[c].T
    kx = m[0] * fm.cx[child] + m[1] * fm.cy[child] + t[0] - ax[c]
    ky = m[2] * fm.cx[child] + m[3] * fm.cy[child] + t[1] - ay[c]
    radius = fm.radius[child]
    near = np.flatnonzero(~((d1x * ky - d1y * kx < -radius) | (d2x * ky - d2y * kx > radius)))
    meets = _meets_wedge(fm, child[near], [v[near] for v in m], [v[near] for v in t],
                         ax[c[near]], ay[c[near]], dirs[c[near]], snap)
    joins = near[meets]
    # per (cone, face), the first child in queue order
    _keys, first = np.unique(c[joins] * len(fm.xs) + child[joins], return_index=True)
    joins = joins[np.sort(first)]
    child, c = child[joins], c[joins]
    m, t = [v[joins] for v in m], [v[joins] for v in t]
    visited[c, child] = True
    own, i = _spread(reps[0], child)
    rx = reps[1][i] * m[0][own] + reps[2][i] * m[1][own] + t[0][own] - ax[c[own]]
    ry = reps[1][i] * m[2][own] + reps[2][i] * m[3][own] + t[1][own] - ay[c[own]]
    d1x, d1y, d2x, d2y = dirs[c[own]].T
    inside = ((d1x * ry - d1y * rx > snap) & (d2x * ry - d2y * rx < -snap)
              & (np.hypot(rx, ry) > snap))
    hit[c[own[inside]]] = True
    return [c, child, *m, *t], len(par)


def _meets_wedge(fm: _FaceMaps, faces: np.ndarray, m: list, t: list, ax: np.ndarray,
                 ay: np.ndarray, dirs: np.ndarray, snap: float) -> np.ndarray:
    """Whether each face row of `faces`, mapped by its map (`m`, `t` as
    columns), meets the closed wedge at its apex between its rays, widened
    by snap: `_expand`'s polygon clip, over (face, corner) arrays."""
    xs, ys = fm.xs[faces], fm.ys[faces]
    x = xs * m[0][:, None] + ys * m[1][:, None] + t[0][:, None]
    y = xs * m[2][:, None] + ys * m[3][:, None] + t[1][:, None]
    ax, ay = ax[:, None], ay[:, None]
    d1x, d1y, d2x, d2y = (col[:, None] for col in dirs.T)
    vals = d1x * (y - ay) - d1y * (x - ax)
    nxt = fm.nxt[faces]
    vj = np.take_along_axis(vals, nxt, 1)
    meets = (vals >= -snap) & (d2x * (y - ay) - d2y * (x - ax) <= snap)
    cut = ((vals > snap) & (vj < -snap)) | ((vals < -snap) & (vj > snap))
    with np.errstate(divide="ignore", invalid="ignore"):
        f = vals / (vals - vj)
        cx = x + f * (np.take_along_axis(x, nxt, 1) - x)
        cy = y + f * (np.take_along_axis(y, nxt, 1) - y)
        meets |= cut & (d2x * (cy - ay) - d2y * (cx - ax) <= snap)
    return (meets & fm.corner[faces]).any(axis=1)


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
    No placement reads a lift, so the Steiner nodes are lifted together
    after the last cone.

    An empty cone gets a relay when four tests all hold: a boundary point
    lies in it, its edge has an abutting face, the extended cone reaches
    another face's rep, and neither face is crowded there. The first three
    are pure functions of the rep and the cone, so one array pass decides
    them for all empty cones at once (`_cone_tests`: `_boundary_points`,
    then `_search_cones` for the cones with a boundary point and an
    abutting face), and the frame maps carry the points to 3D and into the
    abutting face's frame (`frame_to_3d`, `frame_to_2d` on columns). Only
    the crowding test reads the nodes placed so far, so a loop applies it
    alone, to the cones the pass leaves, in (rep, cone) order.

    Rep nodes come first, with ids in the order of `assignment.reps`; a rep
    sits at its vertex's projection in its patch. Returns the nodes and, per
    node id, its 2D position (a float pair) in the frame of each of its
    patches; the positions are needed only to build the Theta-graphs.
    `stats`, when given, gets the counts `empty_cones`, `cone_searches`
    (the cones the search decided: every empty cone with a boundary point
    and an abutting face, crowded or not), `search_pairs` (the (cone,
    unfolded face) pairs it tested), `steiner_nodes` and `lift_pairs` (the
    (point, face) pairs the lift's exact cast ran on) and the seconds
    `cone_search_s` and `steiner_lift_s`."""
    fan = cone_fan(eps)
    snap = P.snap
    fm = _build_face_maps(decomp, sketch)
    nodes = rep_nodes(P, decomp, assignment.reps)
    positions = [{n.patches[0]: projections[n.patches[0]][n.vertex]} for n in nodes]
    reps = _face_reps(fm, assignment, projections)
    # with reps on fewer than two faces no cone can reach another face's rep
    apexes = nodes if np.count_nonzero(np.diff(reps[0])) >= 2 else []
    tests = _cone_tests(fm, reps, fan, apexes, positions, snap)
    relay = tests.searched[tests.hit]
    pids, nbs, q2 = tests.pid[relay], tests.nb[relay], (tests.qx[relay], tests.qy[relay])
    q3 = frame_to_3d(_frame_columns(fm.frames, pids), q2)
    q2_nb = frame_to_2d(_frame_columns(fm.frames, nbs), q3)

    # the crowding test, in (rep, cone) order, against the nodes placed so
    # far; a relay with no other rep or relay near it on either face passes
    occupied_pos: dict[int, list[tuple[float, float]]] = {}
    for pos in positions:
        for pid, uv in pos.items():
            occupied_pos.setdefault(pid, []).append(uv)
    alone = _alone(np.concatenate([[n.patches[0] for n in nodes], pids, nbs]),
                   np.concatenate([[positions[n.id][n.patches[0]][0] for n in nodes], q2[0],
                                   q2_nb[0]]), _crowd_box(snap))
    alone = alone[len(nodes):len(nodes) + len(pids)] & alone[len(nodes) + len(pids):]
    steiner: list[tuple[int, int, tuple]] = []  # (face, abutting face, sketch point)
    for pid, nb, q, q_nb, p3, free in zip(
            pids.tolist(), nbs.tolist(), zip(*(c.tolist() for c in q2)),
            zip(*(c.tolist() for c in q2_nb)), zip(*(c.tolist() for c in q3)), alone.tolist()):
        if not free and (_crowded(q, occupied_pos.get(pid, ()), snap)
                         or _crowded(q_nb, occupied_pos.get(nb, ()), snap)):
            # an existing node already sits there and serves as the relay
            continue
        steiner.append((pid, nb, p3))
        positions.append({pid: q, nb: q_nb})
        occupied_pos.setdefault(pid, []).append(q)
        occupied_pos.setdefault(nb, []).append(q_nb)
    lift_s = 0.0
    lift_pairs = 0
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
        stats.update(empty_cones=len(tests.cone), cone_searches=len(tests.searched),
                     search_pairs=tests.search_pairs, steiner_nodes=len(steiner),
                     lift_pairs=lift_pairs, cone_search_s=tests.search_s, steiner_lift_s=lift_s)
    return nodes, positions


@dataclass
class _ConeTests:
    """The order-free tests of every (rep, empty cone), in rep and then cone
    order: per cone its apex (the rep's node id), cone index and face (patch
    id); whether a boundary point lies in it (`found`), the nearest one
    (`qx`, `qy`), its edge and the patch across that edge (`nb`). The cones
    with a boundary point and an abutting face are searched: `searched`
    holds their indices and `hit` their answers. Then the (cone, unfolded
    face) pairs the search tested and its seconds."""

    apex: np.ndarray
    cone: np.ndarray
    pid: np.ndarray
    found: np.ndarray
    qx: np.ndarray
    qy: np.ndarray
    edge: np.ndarray
    nb: np.ndarray
    searched: np.ndarray
    hit: np.ndarray
    search_pairs: int
    search_s: float


def _cone_tests(fm: _FaceMaps, reps: tuple, fan: ConeFan, apexes: list[SpannerNode],
                positions: list[dict[int, tuple[float, float]]], snap: float) -> _ConeTests:
    """The cone tests of the empty cones of the rep nodes `apexes` (node ids
    0, 1, ... in order), each at its position on its face; `reps` is as from
    `_face_reps`."""
    pids = np.array([n.patches[0] for n in apexes], dtype=np.int64)
    ax, ay = np.array([positions[n.id][n.patches[0]] for n in apexes]).reshape(-1, 2).T
    apex, cone = np.divmod(np.flatnonzero(~_occupied_cones(fan, reps, pids, ax, ay, snap)),
                           fan.count)
    rows, ax, ay = pids[apex], ax[apex], ay[apex]
    dirs = np.array([sum(_wedge_dirs(fan, c), ()) for c in range(fan.count)])[cone]
    found, qx, qy, edge = _boundary_points(fm, rows, ax, ay, dirs, snap)
    nb = fm.neighbors[rows, edge]
    searched = np.flatnonzero(found & (nb != NO_NEIGHBOR))
    start = time.perf_counter()
    hit, pairs = _search_cones(fm, reps, rows[searched], ax[searched], ay[searched],
                               dirs[searched], snap)
    return _ConeTests(apex, cone, rows, found, qx, qy, edge, nb, searched, hit, pairs,
                      time.perf_counter() - start)


def _face_reps(fm: _FaceMaps, assignment: RepresentativeAssignment,
               projections: dict[int, dict[int, tuple[float, float]]]) -> tuple:
    """Each face's reps, at their projections, as CSR arrays over the face
    rows of `fm`: the offsets, then the x and the y coordinates."""
    per_row = [[projections[pid][r] for r in assignment.patch_reps.get(pid, ())]
               for pid in range(len(fm.xs))]
    xy = np.array([uv for uvs in per_row for uv in uvs]).reshape(-1, 2)
    return np.r_[0, np.cumsum([len(uvs) for uvs in per_row])], xy[:, 0], xy[:, 1]


def _occupied_cones(fan: ConeFan, reps: tuple, rows: np.ndarray, ax: np.ndarray,
                    ay: np.ndarray, snap: float) -> np.ndarray:
    """Per apex (face row `rows`, point (`ax`, `ay`)), the cones with a rep
    of its face (`reps`, as from `_face_reps`) in their relative interior:
    farther than snap from the apex and from both bounding rays, as an
    (apexes, cones) mask. The rep's distance and angle are those of
    `np.hypot` and `np.arctan2` (reduced by `np.mod`, Python's %), and its
    offset from the nearer ray is min(frac, width - frac), where np.where
    keeps Python's min."""
    own, i = _spread(reps[0], rows)
    rx, ry = reps[1][i] - ax[own], reps[2][i] - ay[own]
    dist = np.hypot(rx, ry)
    ang = np.mod(np.arctan2(ry, rx), 2.0 * math.pi)
    lo_k = fan.indices_of(ang)
    frac = np.mod(ang - lo_k * fan.width, 2.0 * math.pi)
    inner = np.where(fan.width - frac < frac, fan.width - frac, frac)
    inside = (dist > snap) & (inner * dist > snap)
    occupied = np.zeros((len(rows), fan.count), dtype=bool)
    occupied[own[inside], lo_k[inside]] = True
    return occupied


def _alone(face: np.ndarray, x: np.ndarray, box: float) -> np.ndarray:
    """Whether each point, given by its face and x coordinate, has no other
    point of its face within `box` (`_crowd_box`) in x: then `_crowded` is
    False for it against any set of those points. Sorted by (face, x), a
    point's nearest x on its face is a neighbour in that order, as float
    subtraction is monotone."""
    order = np.lexsort((x, face))
    f, xs = face[order], x[order]
    near = (f[1:] == f[:-1]) & (xs[1:] - xs[:-1] <= box)
    close = np.zeros(len(x), dtype=bool)
    close[order[1:][near]] = True
    close[order[:-1][near]] = True
    return ~close


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


def _crowd_box(snap: float) -> float:
    """The half side of `_crowded`'s box: a point farther than this from q
    in x or in y is more than 4*snap from it, whatever the rounding."""
    return 4.0 * snap * (1.0 + 1e-9)


def _crowded(q: tuple[float, float], occupied: list, snap: float) -> bool:
    """Whether a registered node lies within 4*snap of the float pair q. The
    box test only skips points whose distance is certainly above 4*snap."""
    box = _crowd_box(snap)
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
    that pre-test alone. The pre-test takes blocks of points with at most
    `_LIFT_PAIRS` (point, face) pairs, and the cast runs of whole points
    with at most `_LIFT_PAIRS` pairs that pass (both `_runs`). Every step is
    elementwise per pair, so a point lifts to the same bits in any block,
    alone or in the whole batch, and with or without the pre-test."""
    tri = P.vertices[P.faces]  # (F, 3, 3)
    sides = []
    for k in range(3):
        u = tri[:, k]
        e = tri[:, (k + 1) % 3] - u
        thr = -P.snap * np.maximum(1.0, norm(e))
        sides.append((tuple(u.T.copy()), tuple(e.T.copy()), thr))
    normals = tuple(P.face_normals.T.copy())
    spheres = _face_spheres(P, float(norm(points).max()))
    blocks = _runs(np.full(len(points), P.num_faces), _LIFT_PAIRS)
    kept = [_sphere_pairs(spheres, points[lo:hi], inward[lo:hi]) for lo, hi in blocks]
    rows = np.concatenate([r + lo for (lo, _hi), (r, _f) in zip(blocks, kept)])
    faces = np.concatenate([f for _r, f in kept])
    # cast whole points, at most _LIFT_PAIRS pairs at a time (or one point's)
    at = np.searchsorted(rows, np.arange(len(points) + 1))
    out = []
    for lo, hi in _runs(np.diff(at), _LIFT_PAIRS):
        out += _lift_block(P, normals, sides, points[lo:hi], inward[lo:hi],
                           rows[at[lo]:at[hi]] - lo, faces[at[lo]:at[hi]])
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


def spanner_graph(nodes: list[SpannerNode],
                  edges: list[tuple[int, int, float, int]]) -> SpannerGraph:
    """The graph of the given nodes and edges with its per-face index (the
    ids of the nodes on each sketch face, ascending) and its per-vertex
    index; construction and `.prt` loading both end here."""
    per_face: dict[int, list[int]] = {}
    for n in nodes:
        for pid in n.patches:
            per_face.setdefault(pid, []).append(n.id)
    return SpannerGraph(nodes=nodes, edges=edges, per_face_nodes=per_face,
                        node_of_vertex={n.vertex: n.id for n in nodes if n.kind == "rep"})


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
    g = spanner_graph(nodes, [])
    faces = [(pid, ids, [positions[i][pid] for i in ids])
             for pid, ids in sorted(g.per_face_nodes.items()) if len(ids) >= 2]
    g.edges = _theta_edges(faces, eps)
    ends = np.array([(u, v) for u, v, _w, _f in g.edges], dtype=np.int64).reshape(-1, 2)
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
