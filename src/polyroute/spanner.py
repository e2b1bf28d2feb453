"""Geodesic Theta-graph spanner over the sketch faces.

Per sketch face the node set is the face's representative projections plus
Steiner relay points on the face boundary: a cone around a representative
that holds no same-face representative gets a relay at its nearest boundary
point, when that point lies on an edge shared with an abutting sketch face
and no node already sits there. So each representative has at most one
relay per cone, O(1/eps) in all, the count the paper's table-size bound
takes. Steiner nodes sit on a boundary edge shared by exactly two sketch
faces and participate in both faces' Theta-graphs, which is what stitches
the per-face spanners into one global graph. That graph holds each node pair
once, as an `EDGE_RECORD` (u, v, weight, face) with u < v, from the lowest
face whose Theta-graph has the pair; the compact routing scheme runs on it
and a hop's face is its edge's face.

No test asks whether the cone's extension across the sketch reaches
another face's representative; `place_steiner_points` gives the measured
reason.

`_FaceMaps` holds the sketch faces as padded arrays, so the placement
decides every empty cone at once: its nearest boundary point
(`_boundary_points`) runs over numpy columns in capped blocks, with the
terms of a loop over Python floats in their order, so every value has that
loop's bits. The angles keep numpy's `arctan2` and `hypot`, whose results
differ from `math`'s. Only the crowding rule, which reads the relays placed
before, runs as a loop. The Steiner lift tests all points against per-face
bounding spheres in capped blocks and casts the pairs that pass.

The Theta pass (`_theta_edges`) builds the Theta-graphs of all faces at
once: the same-face pairs of all faces, in capped blocks of whole rows (a
row is one node of one face), get their distances, angles, cones and
bisector projections in one numpy pass, and each (row, cone) minimum is
picked by an integer group key, once: the least `np.cos` projection, a tie
going to the lower node id, then the lower j. `build_theta_graph` is the
pass over one face.
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
    "EDGE_RECORD",
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


# a spanner edge: its node pair u < v, its length and the lowest sketch face
# whose Theta-graph holds the pair; `.prt` stores the edges as these records
EDGE_RECORD = np.dtype([("u", "<u4"), ("v", "<u4"), ("weight", "<f8"), ("face", "<u4")])


@dataclass
class SpannerGraph:
    nodes: list[SpannerNode]
    edges: np.ndarray  # one EDGE_RECORD array, by face and then by pair, read as columns
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
    return [(u, v, w) for u, v, w, _f in _theta_edges([(0, ids, points)], eps).tolist()]


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


def _theta_edges(faces: list, eps: float) -> np.ndarray:
    """The union of the Theta-graphs of `faces`, a list of (face, node ids,
    points) with at least two nodes each, in ascending face order: each node
    pair once, as an `EDGE_RECORD` with u < v, from the lowest face whose
    Theta-graph holds it, ordered by face and then by pair.

    A row is one node of one face, paired with every node of the face,
    itself included. The rows run in blocks of whole rows, each of at most
    `_THETA_PAIRS` pairs or one longer row (`_runs`), through `_theta_block`.
    A row's picks depend on that row alone, so they are the same in any
    block."""
    if not faces:
        return np.empty(0, EDGE_RECORD)
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
    edges = np.empty(len(sel), EDGE_RECORD)
    edges["u"], edges["v"], edges["weight"] = uniq[lo[sel]], uniq[hi[sel]], w[sel]
    edges["face"] = np.array([f for f, _ids, _pts in faces])[face[sel]]
    return edges


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

    Distances, angles, cones and the projections d * cos(angle - bisector)
    have the bits of a per-row numpy pass (`np.hypot`, `np.arctan2`,
    `np.mod`, `ConeFan.indices_of`, `np.cos`); each (row, cone) minimum is
    taken over the integer key row * count + cone, and only the groups with
    more than one candidate at the minimum are sorted by node id and j."""
    lens = lens[r0:r1]
    seg = np.cumsum(lens) - lens  # each row's first pair in the block
    row = np.repeat(np.arange(r0, r1), lens)
    j = np.repeat(first[r0:r1] - seg, lens) + np.arange(len(row))
    rel = pts[j] - pts[row]
    d = np.hypot(rel[:, 0], rel[:, 1])
    a = np.mod(np.arctan2(rel[:, 1], rel[:, 0]), 2.0 * math.pi)
    snap = np.repeat(geometry.snap(np.maximum.reduceat(d, seg)), lens)
    keep = np.flatnonzero(d > snap)  # never the row's own node
    row, j, d, a = row[keep], j[keep], d[keep], a[keep]
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
    least = proj == np.minimum.reduceat(proj, heads)[group]
    rivals = np.bincount(group[least], minlength=len(heads))[group]
    pick = order[least & (rivals == 1)]
    tied = least & (rivals > 1)
    if tied.any():
        cand, tkey = order[tied], key[tied]  # tkey ascends
        cand = cand[np.lexsort((j[cand], ids[j[cand]], tkey))]
        pick = np.concatenate([pick, cand[np.r_[True, tkey[1:] != tkey[:-1]]]])
    return row[pick], j[pick], d[pick]


# ---------------------------------------------------------------------------
# the sketch faces as arrays, and the cone tests over all cones at once


@dataclass
class _FaceMaps:
    """The sketch faces as arrays, one row per face, whose row is its patch
    id (`build_sketch` makes face i for patch i), and one column per corner,
    padded to the largest polygon. Per corner: its coordinates (`xs`,
    `ys`), whether it is a real corner (`corner`), the edge to its
    successor (`seg_x`, `seg_y`, and `seg_sq`, its squared length) and the
    patch across that edge (`neighbors`, NO_NEIGHBOR on padding). `frames`
    holds each patch's frame (origin, u, v) by patch id."""

    xs: np.ndarray
    ys: np.ndarray
    corner: np.ndarray
    seg_x: np.ndarray
    seg_y: np.ndarray
    seg_sq: np.ndarray
    neighbors: np.ndarray
    frames: np.ndarray


def _frame_columns(frames: np.ndarray, pids: np.ndarray) -> tuple:
    """The frames of patches `pids`, from the per-patch (origin, u, v) rows
    of `frames`, as columns: origin, u and v, each a tuple of coordinate
    columns, for `frame_to_2d` and `frame_to_3d`."""
    f = frames[pids]
    return tuple(tuple(f[:, k, c] for c in range(3)) for k in range(3))


def _build_face_maps(decomp: PatchDecomposition, sketch: Sketch) -> _FaceMaps:
    """The face arrays of `sketch`."""
    sizes = np.array([len(f.polygon2d) for f in sketch.faces])
    succ = np.arange(1, sizes.max() + 1)
    corner = succ - 1 < sizes[:, None]
    nxt = np.where(succ < sizes[:, None], succ, 0)
    xs, ys = np.zeros(corner.shape), np.zeros(corner.shape)
    xs[corner], ys[corner] = np.concatenate([f.polygon2d for f in sketch.faces]).T
    neighbors = np.full(corner.shape, NO_NEIGHBOR)
    neighbors[corner] = np.concatenate([f.neighbor_patch for f in sketch.faces])
    seg_x = np.take_along_axis(xs, nxt, 1) - xs
    seg_y = np.take_along_axis(ys, nxt, 1) - ys
    frames = np.array([(p.frame_origin, p.frame_u, p.frame_v) for p in decomp.patches])
    return _FaceMaps(xs, ys, corner, seg_x, seg_y, seg_x * seg_x + seg_y * seg_y,
                     neighbors, frames)


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


# values per array of the boundary pass: it takes blocks of cones with at
# most 2^16 (cone, corner, candidate) values; caps from 2^12 to 2^18 place
# the Steiner nodes of fine200-sized hulls within 10% of each other (min of
# 5 placements of four hulls, 2-core VM)
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
    cones: a cone with no same-face rep in its relative interior gets a
    Steiner node at the nearest boundary point of the face inside the cone,
    if that point's edge has an abutting face, which shares the node,
    unless a node already sits within 4*snap of it on either face.
    With reps on fewer than two faces no relay is placed. No placement reads
    a lift, so the Steiner nodes are lifted together after the last cone.

    The relay rule asks nothing of the cone's extension beyond the face: it
    is the paper's one relay per cone, which its table-size bound counts.
    A test of whether the extension reaches another face's rep (an unfolded
    search over the sketch faces) refused 1 relay in about 8,650 on the
    benchmark workloads at seed 0 and none at seed 5, and over 600 small
    sphere hulls (n in {20, 50, 100}, eps in {0.3, 0.4}, seeds 0-99) it
    changed none of the 18 hulls whose spanner is disconnected.

    An empty cone gets a relay when three tests all hold: a boundary point
    lies in it, its edge has an abutting face, and neither face is crowded
    there. The first two are pure functions of the rep and the cone, so one
    array pass decides them for all empty cones at once (`_cone_tests`,
    through `_boundary_points`), and the frame maps carry the points to 3D
    and into the abutting face's frame (`frame_to_3d`, `frame_to_2d` on
    columns). Only the crowding test reads the nodes placed so far, so a
    loop applies it alone, to the cones the pass leaves, in (rep, cone)
    order.

    Rep nodes come first, with ids in the order of `assignment.reps`; a rep
    sits at its vertex's projection in its patch. Returns the nodes and, per
    node id, its 2D position (a float pair) in the frame of each of its
    patches; the positions are needed only to build the Theta-graphs.
    `stats`, when given, gets the counts `empty_cones`, `steiner_nodes` and
    `lift_pairs` (the (point, face) pairs the lift's exact cast ran on) and
    the lift's seconds, `steiner_lift_s`."""
    fan = cone_fan(eps)
    snap = P.snap
    fm = _build_face_maps(decomp, sketch)
    nodes = rep_nodes(P, decomp, assignment.reps)
    positions = [{n.patches[0]: projections[n.patches[0]][n.vertex]} for n in nodes]
    reps = _face_reps(fm, assignment, projections)
    # with reps on fewer than two faces there are no faces to join
    apexes = nodes if np.count_nonzero(np.diff(reps[0])) >= 2 else []
    tests = _cone_tests(fm, reps, fan, apexes, positions, snap)
    relay = np.flatnonzero(tests.found & (tests.nb != NO_NEIGHBOR))
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
        stats.update(empty_cones=len(tests.cone), steiner_nodes=len(steiner),
                     lift_pairs=lift_pairs, steiner_lift_s=lift_s)
    return nodes, positions


@dataclass
class _ConeTests:
    """The order-free tests of every (rep, empty cone), in rep and then cone
    order: per cone its apex (the rep's node id), cone index and face (patch
    id); whether a boundary point lies in it (`found`), the nearest one
    (`qx`, `qy`), its edge and the patch across that edge (`nb`)."""

    apex: np.ndarray
    cone: np.ndarray
    pid: np.ndarray
    found: np.ndarray
    qx: np.ndarray
    qy: np.ndarray
    edge: np.ndarray
    nb: np.ndarray


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
    return _ConeTests(apex, cone, rows, found, qx, qy, edge, fm.neighbors[rows, edge])


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


def spanner_graph(nodes: list[SpannerNode], edges: np.ndarray) -> SpannerGraph:
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
    g = spanner_graph(nodes, np.empty(0, EDGE_RECORD))
    faces = [(pid, ids, [positions[i][pid] for i in ids])
             for pid, ids in sorted(g.per_face_nodes.items()) if len(ids) >= 2]
    g.edges = _theta_edges(faces, eps)
    links = coo_matrix((np.ones(len(g.edges)), (g.edges["u"], g.edges["v"])),
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
    its lift, as `steiner_placement_s`."""
    start = time.perf_counter()
    nodes, positions = place_steiner_points(P, decomp, sketch, assignment, projections, eps,
                                            stats)
    if stats is not None:
        stats["steiner_placement_s"] = time.perf_counter() - start - stats["steiner_lift_s"]
    return assemble_global_spanner(nodes, positions, eps, stats)


def dump_spanner(g: SpannerGraph) -> str:
    """Edge-list debug dump: node table then weighted edges."""
    lines = ["# node id kind lift_x lift_y lift_z"]
    for n in g.nodes:
        q = n.lift3d
        lines.append(f"node {n.id} {n.kind} {q[0]:.9g} {q[1]:.9g} {q[2]:.9g}")
    lines.append("# edge u v weight face")
    for u, v, w, f in g.edges.tolist():
        lines.append(f"edge {u} {v} {w:.9g} {f}")
    return "\n".join(lines) + "\n"
