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
the Steiner lift, which casts all points in capped blocks, and to
`build_theta_graph`.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from . import geometry
from .geometry import cross, dot, map2, norm, sub
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
        return self.indices_of((angle,))[0]

    def indices_of(self, angles) -> list[int]:
        """`index_of` over a sequence of angles, in one loop."""
        two_pi, width, count = 2.0 * math.pi, self.width, self.count
        out = []
        for angle in angles:
            a = angle % two_pi
            raw = int(a // width) % count
            if a - raw * width <= _CONE_BOUNDARY:
                raw = (raw - 1) % count
            out.append(raw)
        return out

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
    (i, j, weight) with i < j in node_ids terms."""
    pts = np.asarray(points, dtype=np.float64)
    k = len(pts)
    if node_ids is None:
        node_ids = list(range(k))
    if k <= 1:
        return []
    fan = cone_fan(eps)
    bisectors = [fan.bisector(c) for c in range(fan.count)]
    cos = math.cos
    edges: dict[tuple[int, int], float] = {}
    for i in range(k):
        rel = pts - pts[i]
        dist_arr = np.hypot(rel[:, 0], rel[:, 1])
        ang = np.mod(np.arctan2(rel[:, 1], rel[:, 0]), 2.0 * math.pi).tolist()
        snap = geometry.snap(float(dist_arr.max()))
        dist = dist_arr.tolist()
        best: dict[int, tuple[float, int, int]] = {}
        for j, (d, a, c) in enumerate(zip(dist, ang, fan.indices_of(ang))):
            if j == i or d <= snap:
                continue
            cand = (d * cos(a - bisectors[c]), node_ids[j], j)
            held = best.get(c)
            if held is None or cand < held:
                best[c] = cand
        for _proj, j_id, j in best.values():
            a, b = node_ids[i], j_id
            key = (min(a, b), max(a, b))
            edges.setdefault(key, dist[j])
    return [(a, b, w) for (a, b), w in sorted(edges.items())]


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
    `root`."""
    ax, ay = apex
    (d1x, d1y), (d2x, d2y) = d1, d2
    visited = {root.pid}
    queue: deque[_Unfolded] = deque([root])
    while queue:
        node = queue.popleft()
        reps = node.reps if node.reps is not None else node.unfold_reps(reps_xy)
        if reps and _reps_in_open_wedge(reps, apex, d1, d2, snap):
            return True
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
) -> tuple[list[SpannerNode], list[dict[int, tuple[float, float]]]]:
    """Create rep nodes for every representative vertex, then walk each rep's
    cones: a cone with no same-face rep in its relative interior whose
    extension reaches another face's rep gets a Steiner node at the nearest
    boundary point of the face inside the cone, shared with the abutting
    face. The cones of all reps of a face trace one shared unfolding tree.
    No placement reads a lift, so the Steiner nodes are lifted together
    after the last cone.

    Rep nodes come first, with ids in the order of `assignment.reps`; a rep
    sits at its vertex's projection in its patch. Returns the nodes and, per
    node id, its 2D position (a float pair) in the frame of each of its
    patches; the positions are needed only to build the Theta-graphs."""
    fan = cone_fan(eps)
    wedges = [_wedge_dirs(fan, c) for c in range(fan.count)]
    snap = P.snap
    face_maps = _build_face_maps(decomp, sketch)
    trees: dict[int, _Unfolded] = {}

    nodes = rep_nodes(P, decomp, assignment.reps)
    positions = [{n.patches[0]: projections[n.patches[0]][n.vertex]} for n in nodes]
    # each face's reps as x and y coordinate lists, the one home of their
    # positions in the placement
    reps_xy: dict[int, tuple[list[float], list[float]]] = {}
    for pid, rs in assignment.patch_reps.items():
        uv = projections[pid]
        reps_xy[pid] = ([uv[r][0] for r in rs], [uv[r][1] for r in rs])
    if sum(1 for xs, _ys in reps_xy.values() if xs) < 2:
        return nodes, positions  # no cone can reach another face's rep

    # nodes already registered per face, to refuse coincident duplicates
    occupied_pos: dict[int, list[tuple[float, float]]] = {}
    for pos in positions:
        for pid, uv in pos.items():
            occupied_pos.setdefault(pid, []).append(uv)
    last_rep = {n.patches[0]: n.id for n in nodes}
    steiner: list[tuple[int, int, tuple]] = []  # (face, abutting face, sketch point)
    for node in nodes:
        pid = node.patches[0]
        fm = face_maps[pid]
        apex_xy = ax, ay = positions[node.id][pid]
        root = trees.get(pid) or _unfolding_root(fm, pid)
        # a face's tree is kept only until its last rep's cones are traced
        if node.id == last_rep[pid]:
            trees.pop(pid, None)
        else:
            trees[pid] = root
        xs, ys = reps_xy[pid]
        rx, ry = np.subtract(xs, ax), np.subtract(ys, ay)
        dist = np.hypot(rx, ry)
        ang = np.mod(np.arctan2(ry, rx), 2.0 * math.pi).tolist()
        occupied = set()
        for d, a, lo_k in zip(dist.tolist(), ang, fan.indices_of(ang)):
            if d <= snap:
                continue
            # relative-interior test: discount points sitting on a bounding ray
            frac = (a - lo_k * fan.width) % (2.0 * math.pi)
            on_ray = min(frac, fan.width - frac) * d <= snap
            if not on_ray:
                occupied.add(lo_k)
        for c in range(fan.count):
            if c in occupied:
                continue
            d1, d2 = wedges[c]
            if not _extended_cone_hits_rep(root, apex_xy, d1, d2, face_maps, reps_xy, snap):
                continue
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
            steiner.append((pid, nb, q3))
            positions.append({pid: q2, nb: q2_nb})
            occupied_pos.setdefault(pid, []).append(q2)
            occupied_pos.setdefault(nb, []).append(q2_nb)
    if steiner:
        lifts = _lift_steiner(
            P, np.array([q3 for _pid, _nb, q3 in steiner]),
            np.array([decomp.patches[pid].gamma.normal for pid, _nb, _q3 in steiner]))
        for (pid, nb, _q3), (lift, marked) in zip(steiner, lifts):
            nodes.append(SpannerNode(id=len(nodes), kind="steiner", patches=(pid, nb),
                                     lift3d=lift, marked=marked))
    return nodes, positions


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


# point-face pairs per lift block: each array of a block holds at most 2^13
# values (64 KB), whatever the number of faces; 2^14 casts slower on fine200
_LIFT_PAIRS = 1 << 13


def _lift_steiner(P: TriangulatedPolytope, points: np.ndarray, inward: np.ndarray
                  ) -> list[tuple[np.ndarray, tuple[int, int]]]:
    """Maps sketch-boundary points back onto the polytope: the lift and the
    marked vertices of each row of `points` (B, 3). Each point's ray runs
    along minus the same row of `inward` (the inward normal of the point's
    patch) against all faces, then snaps to the nearest point of the nearest
    edge of the face it hit. What does not depend on the point (the triangle
    corners, edge vectors and inside thresholds, and the face normals) is
    computed once, as contiguous columns.

    The points are cast in blocks, each a (points, faces) array of at most
    `_LIFT_PAIRS` entries: max(1, _LIFT_PAIRS // F) points per block. The
    arithmetic is the kernel's, elementwise over point-face pairs, and a
    row's hit is its first minimum distance, so a point lifts to the same
    bits in any block, alone or in the whole batch."""
    normals = tuple(P.face_normals.T.copy())
    tri = P.vertices[P.faces]  # (F, 3, 3)
    sides = []
    for k in range(3):
        u = tri[:, k]
        e = tri[:, (k + 1) % 3] - u
        thr = -P.snap * np.maximum(1.0, norm(e))
        sides.append((tuple(u.T.copy()), tuple(e.T.copy()), thr))
    block = max(1, _LIFT_PAIRS // P.num_faces)
    out = []
    for lo in range(0, len(points), block):
        out += _lift_block(P, normals, sides, points[lo:lo + block], inward[lo:lo + block])
    return out


def _lift_block(P: TriangulatedPolytope, normals: tuple, sides: list,
                points: np.ndarray, inward: np.ndarray
                ) -> list[tuple[np.ndarray, tuple[int, int]]]:
    """`_lift_steiner` for one block of points."""
    snap = P.snap
    p = tuple(points.T[:, :, None])  # per coordinate, a (B, 1) column
    d = tuple(inward.T[:, :, None])
    denom = dot(normals, d)
    numer = dot(normals, p) - P.face_offsets
    with np.errstate(divide="ignore", invalid="ignore"):
        ts = np.where(np.abs(denom) > 1e-15, numer / denom, np.inf)
        inside = np.isfinite(ts)
        t = np.where(inside, ts, 0.0)
        q = [p[c] - t * d[c] for c in range(3)]  # ray hits, per coordinate
    for u, e, thr in sides:
        w = (q[0] - u[0], q[1] - u[1], q[2] - u[2])
        inside &= dot(cross(e, w), normals) >= thr
    ts = np.where(inside & (ts >= -snap), ts, np.inf)
    hits = np.argmin(ts, axis=1).tolist()
    out = []
    for r, fi in enumerate(hits):
        if ts[r, fi] == np.inf:
            # ray missed (heavily truncated sketch); fall back to a global search
            out.append(_nearest_edge_point(P, points[r].tolist(), range(P.num_faces)))
        else:
            out.append(_nearest_edge_point(
                P, (float(q[0][r, fi]), float(q[1][r, fi]), float(q[2][r, fi])), [fi]))
    return out


def _nearest_edge_point(
    P: TriangulatedPolytope, q, face_ids,
) -> tuple[np.ndarray, tuple[int, int]]:
    """The nearest point to q (three floats) on an edge of the given faces,
    and the marked vertices of that edge: the endpoint the point snaps to,
    twice, or else both endpoints. The arithmetic runs on the mesh's float
    rows."""
    snap, rows = P.snap, P.vertex_rows
    best = None
    for fi in face_ids:
        f = P.face_rows[fi]
        for k in range(3):
            u, v = f[k], f[(k + 1) % 3]
            a = rows[u]
            seg = sub(rows[v], a)
            denom = dot(seg, seg)
            t = 0.0 if denom <= 1e-300 else dot(sub(q, a), seg) / denom
            t = min(max(t, 0.0), 1.0)
            w = (a[0] + t * seg[0], a[1] + t * seg[1], a[2] + t * seg[2])
            d = norm(sub(w, q))
            if best is None or d < best[0]:
                best = (d, w, (min(u, v), max(u, v)))
    _d, w, (lo, hi) = best
    if norm(sub(w, rows[lo])) <= snap:
        marked = (lo, lo)
    elif norm(sub(w, rows[hi])) <= snap:
        marked = (hi, hi)
    else:
        marked = (lo, hi)
    return np.array(w), marked


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
                            eps: float) -> SpannerGraph:
    """Per-face Theta-graphs over rep+steiner nodes, unioned into one graph;
    `positions` is the second result of `place_steiner_points`. A pair that
    two faces' Theta-graphs both hold (both its nodes lie on both faces) is
    kept once, from the lower face."""
    per_face = _nodes_by_face(nodes)
    edges: dict[tuple[int, int], tuple[int, int, float, int]] = {}
    for pid in sorted(per_face):
        ids = per_face[pid]
        if len(ids) < 2:
            continue
        pts = [positions[i][pid] for i in ids]
        for a, b, w in build_theta_graph(pts, eps, node_ids=ids):
            edges.setdefault((a, b), (a, b, w, pid))
    g = spanner_graph(nodes, list(edges.values()))
    ends = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    links = coo_matrix((np.ones(len(ends)), (ends[:, 0], ends[:, 1])),
                       shape=(len(nodes), len(nodes)))
    g.connected = connected_components(links, directed=False)[0] <= 1
    return g


def build_spanner(
    P: TriangulatedPolytope,
    decomp: PatchDecomposition,
    sketch: Sketch,
    assignment: RepresentativeAssignment,
    projections: dict[int, dict[int, tuple[float, float]]],
    eps: float,
) -> SpannerGraph:
    nodes, positions = place_steiner_points(P, decomp, sketch, assignment, projections, eps)
    return assemble_global_spanner(nodes, positions, eps)


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
