"""Geodesic Theta-graph spanner over the sketch faces.

Per sketch face the node set is the face's representative projections plus
Steiner relay points introduced on the face boundary wherever a cone around
a representative is empty of same-face representatives but its extension
(planar unfolding across sketch faces) does contain representatives of other
faces. Steiner nodes sit on a boundary edge shared by exactly two sketch
faces and participate in both faces' Theta-graphs, which is what stitches
the per-face spanners into one global graph.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .geometry import Tolerance, DEFAULT_TOL, unfold_rotation
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
    "assemble_global_spanner",
    "build_spanner",
    "dump_spanner",
]


class DisconnectedSpanner(RuntimeError):
    pass


@dataclass(frozen=True)
class ConeFan:
    """Equal-angle cones partitioning the plane around an apex; cone k spans
    [k*width, (k+1)*width). Points on a bounding ray belong to the
    lower-indexed cone."""

    count: int
    width: float
    boundary_tol: float = 1e-12

    def index_of(self, angle: float) -> int:
        a = angle % (2.0 * math.pi)
        raw = int(a // self.width) % self.count
        if a - raw * self.width <= self.boundary_tol:
            raw = (raw - 1) % self.count
        return raw

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
    pos2d: dict[int, np.ndarray]  # per-patch coordinates in that patch frame
    point3d: np.ndarray  # position on the sketch surface
    lift3d: np.ndarray  # corresponding point on the polytope surface
    vertex: int | None = None  # rep: the represented vertex of P
    edge_of_p: tuple[int, int] | None = None  # steiner: mesh edge carrying the lift
    marked: tuple[int, int] | None = None  # steiner: marked vertices of that edge


@dataclass
class SpannerGraph:
    nodes: list[SpannerNode]
    edges: list[tuple[int, int, float, int]]  # (u, v, weight, face)
    per_face_nodes: dict[int, list[int]]
    adjacency: dict[int, list[tuple[int, float]]] = field(default_factory=dict)
    node_of_vertex: dict[int, int] = field(default_factory=dict)
    connected: bool = True

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def build_adjacency(self) -> None:
        adj: dict[int, list[tuple[int, float]]] = {n.id: [] for n in self.nodes}
        seen: set[tuple[int, int]] = set()
        for u, v, w, _f in self.edges:
            key = (min(u, v), max(u, v))
            if key in seen:
                continue
            seen.add(key)
            adj[u].append((v, w))
            adj[v].append((u, w))
        self.adjacency = adj


def build_theta_graph(
    points: np.ndarray, eps: float, node_ids: list[int] | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> list[tuple[int, int, float]]:
    """Theta-graph edges over 2D points: per node and per nonempty cone, one
    edge to the point whose projection on the cone bisector is nearest the
    apex. Returns undirected deduplicated (i, j, weight) with i < j in
    node_ids terms."""
    pts = np.asarray(points, dtype=np.float64)
    k = len(pts)
    if node_ids is None:
        node_ids = list(range(k))
    if k <= 1:
        return []
    fan = cone_fan(eps)
    edges: dict[tuple[int, int], float] = {}
    for i in range(k):
        rel = pts - pts[i]
        dist = np.hypot(rel[:, 0], rel[:, 1])
        ang = np.mod(np.arctan2(rel[:, 1], rel[:, 0]), 2.0 * math.pi)
        scale = float(dist.max())
        snap = tol.snap(scale)
        best: dict[int, tuple[float, int, int]] = {}
        for j in range(k):
            if j == i or dist[j] <= snap:
                continue
            c = fan.index_of(float(ang[j]))
            proj = dist[j] * math.cos(float(ang[j]) - fan.bisector(c))
            cand = (proj, node_ids[j], j)
            if c not in best or cand < best[c]:
                best[c] = cand
        for _proj, j_id, j in best.values():
            a, b = node_ids[i], j_id
            key = (min(a, b), max(a, b))
            edges.setdefault(key, float(dist[j]))
    return [(a, b, w) for (a, b), w in sorted(edges.items())]


# ---------------------------------------------------------------------------
# extended-cone tracing over the unfolded sketch


@dataclass
class _FaceMaps:
    """Per sketch face: polygon, per-edge neighbour, and the 2D rigid map
    carrying the neighbour's frame into this face's frame after unfolding."""

    poly: np.ndarray
    neighbors: np.ndarray
    edge_to_neighbor: dict[int, tuple[int, np.ndarray, np.ndarray]]
    center: np.ndarray = None
    radius: float = 0.0


def _build_face_maps(
    decomp: PatchDecomposition, sketch: Sketch
) -> dict[int, _FaceMaps]:
    by_pid = {f.patch_id: f for f in sketch.faces}
    maps: dict[int, _FaceMaps] = {}
    for f in sketch.faces:
        patch = decomp.patches[f.patch_id]
        edge_maps: dict[int, tuple[int, np.ndarray, np.ndarray]] = {}
        poly3 = f.polygon3d(patch)
        kk = len(f.polygon2d)
        for k in range(kk):
            j = int(f.neighbor_patch[k])
            if j == NO_NEIGHBOR or j not in by_pid:
                continue
            nb_patch = decomp.patches[j]
            A, B = poly3[k], poly3[(k + 1) % kk]
            rigid = unfold_rotation(patch.gamma.normal, nb_patch.gamma.normal, A, B)
            # express the composite (unfold then change frame) as 2D affine
            cols = rigid.rotation @ np.stack([nb_patch.frame_u, nb_patch.frame_v], axis=1)
            m2 = np.stack([patch.frame_u, patch.frame_v]) @ cols
            t2 = patch.to_2d(rigid.apply(nb_patch.frame_origin))
            edge_maps[k] = (j, m2, t2)
        center = f.polygon2d.mean(axis=0)
        radius = float(np.linalg.norm(f.polygon2d - center, axis=1).max())
        maps[f.patch_id] = _FaceMaps(f.polygon2d, f.neighbor_patch, edge_maps,
                                     center=center, radius=radius)
    return maps


def _wedge_dirs(fan: ConeFan, c: int) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = fan.bounds(c)
    return (
        np.array([math.cos(lo), math.sin(lo)]),
        np.array([math.cos(hi), math.sin(hi)]),
    )


def _points_in_open_wedge(
    pts: np.ndarray, apex: np.ndarray, d1: np.ndarray, d2: np.ndarray, snap: float
) -> np.ndarray:
    rel = pts - apex
    c1 = d1[0] * rel[:, 1] - d1[1] * rel[:, 0]  # left of lower ray
    c2 = d2[0] * rel[:, 1] - d2[1] * rel[:, 0]  # right of upper ray
    far = np.hypot(rel[:, 0], rel[:, 1]) > snap
    return (c1 > snap) & (c2 < -snap) & far


def _polygon_meets_wedge(
    poly: np.ndarray, apex: np.ndarray, d1: np.ndarray, d2: np.ndarray, snap: float
) -> bool:
    pts = poly
    for d, sgn in ((d1, 1.0), (d2, -1.0)):
        vals = sgn * (d[0] * (pts[:, 1] - apex[1]) - d[1] * (pts[:, 0] - apex[0]))
        keep: list[np.ndarray] = []
        k = len(pts)
        for i in range(k):
            j = (i + 1) % k
            vi, vj = float(vals[i]), float(vals[j])
            if vi >= -snap:
                keep.append(pts[i])
            if (vi > snap and vj < -snap) or (vi < -snap and vj > snap):
                t = vi / (vi - vj)
                keep.append(pts[i] + t * (pts[j] - pts[i]))
        if len(keep) == 0:
            return False
        pts = np.asarray(keep)
        vals = None
    return True


def _nearest_boundary_point_in_wedge(
    poly: np.ndarray, apex: np.ndarray, d1: np.ndarray, d2: np.ndarray, snap: float
) -> tuple[np.ndarray, int] | None:
    """Closest point to the apex on the polygon boundary restricted to the
    closed wedge; returns (point, edge index) or None."""
    best: tuple[float, np.ndarray, int] | None = None
    k = len(poly)
    for i in range(k):
        a, b = poly[i], poly[(i + 1) % k]
        seg = b - a
        t0, t1 = 0.0, 1.0
        ok = True
        for d, sgn in ((d1, 1.0), (d2, -1.0)):
            # sgn * cross(d, s(t) - apex) >= 0
            c0 = sgn * (d[0] * (a[1] - apex[1]) - d[1] * (a[0] - apex[0]))
            dc = sgn * (d[0] * seg[1] - d[1] * seg[0])
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
        denom = float(seg @ seg)
        t_star = 0.0 if denom <= 1e-300 else float((apex - a) @ seg) / denom
        t_star = min(max(t_star, t0), t1)
        for t in (t_star, t0, t1):
            q = a + t * seg
            dist = float(np.linalg.norm(q - apex))
            if dist > snap and (best is None or dist < best[0]):
                best = (dist, q, i)
    if best is None:
        return None
    return best[1], best[2]


def _extended_cone_hits_rep(
    start_pid: int,
    apex: np.ndarray,
    d1: np.ndarray,
    d2: np.ndarray,
    face_maps: dict[int, _FaceMaps],
    reps2d: dict[int, np.ndarray],
    snap: float,
) -> bool:
    """BFS over sketch faces, unfolding each onto the start face's plane, and
    report whether the open cone contains a representative projection of any
    other face. Each face is visited at most once per cone."""
    ident = (np.eye(2), np.zeros(2))
    visited = {start_pid}
    queue: deque[tuple[int, np.ndarray, np.ndarray]] = deque([(start_pid, *ident)])
    while queue:
        pid, m2, t2 = queue.popleft()
        fm = face_maps[pid]
        if pid != start_pid:
            pts = reps2d.get(pid)
            if pts is not None and len(pts):
                unfolded = pts @ m2.T + t2
                if _points_in_open_wedge(unfolded, apex, d1, d2, snap).any():
                    return True
        for k, (nb, em, et) in fm.edge_to_neighbor.items():
            if nb in visited:
                continue
            nm = m2 @ em
            nt = m2 @ et + t2
            nbm = face_maps[nb]
            # bounding-circle reject before the exact polygon clip
            c = nm @ nbm.center + nt - apex
            if (d1[0] * c[1] - d1[1] * c[0] < -nbm.radius
                    or d2[0] * c[1] - d2[1] * c[0] > nbm.radius):
                continue
            nb_poly = nbm.poly @ nm.T + nt
            if _polygon_meets_wedge(nb_poly, apex, d1, d2, snap):
                visited.add(nb)
                queue.append((nb, nm, nt))
    return False


# ---------------------------------------------------------------------------
# steiner placement and lifting


def place_steiner_points(
    P: TriangulatedPolytope,
    decomp: PatchDecomposition,
    sketch: Sketch,
    assignment: RepresentativeAssignment,
    eps: float,
    tol: Tolerance = DEFAULT_TOL,
) -> list[SpannerNode]:
    """Create rep nodes for every representative vertex, then walk each rep's
    cones: a cone with no same-face rep in its relative interior whose
    extension reaches another face's rep gets a Steiner node at the nearest
    boundary point of the face inside the cone, shared with the abutting
    face."""
    fan = cone_fan(eps)
    diam = P.diameter()
    snap = tol.snap(diam)
    face_maps = _build_face_maps(decomp, sketch)
    by_pid = {f.patch_id: f for f in sketch.faces}

    nodes: list[SpannerNode] = []
    for r in assignment.reps:
        pid = int(decomp.owner_of_vertex[r])
        patch = decomp.patches[pid]
        p2 = assignment.rep_point[r]
        p3 = patch.to_3d(p2)
        nodes.append(
            SpannerNode(
                id=len(nodes), kind="rep", patches=(pid,), pos2d={pid: p2},
                point3d=p3, lift3d=P.vertices[r].copy(), vertex=r,
            )
        )
    reps2d = {
        pid: np.stack([assignment.rep_point[r] for r in rs]) if rs else np.zeros((0, 2))
        for pid, rs in assignment.patch_reps.items()
    }
    have_other_reps = {
        pid: any(len(reps2d.get(q, ())) > 0 for q in reps2d if q != pid)
        for pid in reps2d
    }

    steiner_key: dict[tuple[int, int, int, int, int], int] = {}
    # nodes already registered per face, to refuse coincident duplicates
    occupied_pos: dict[int, list[np.ndarray]] = {}
    for n in nodes:
        for pid in n.patches:
            occupied_pos.setdefault(pid, []).append(n.pos2d[pid])
    for node in [n for n in nodes if n.kind == "rep"]:
        pid = node.patches[0]
        if not have_other_reps.get(pid, False):
            continue
        face = by_pid[pid]
        apex = node.pos2d[pid]
        others = reps2d[pid]
        rel = others - apex
        dist = np.hypot(rel[:, 0], rel[:, 1])
        ang = np.mod(np.arctan2(rel[:, 1], rel[:, 0]), 2.0 * math.pi)
        occupied = set()
        for d, a in zip(dist, ang):
            if d <= snap:
                continue
            lo_k = fan.index_of(float(a))
            # relative-interior test: discount points sitting on a bounding ray
            frac = (float(a) - lo_k * fan.width) % (2.0 * math.pi)
            on_ray = min(frac, fan.width - frac) * d <= snap
            if not on_ray:
                occupied.add(lo_k)
        for c in range(fan.count):
            if c in occupied:
                continue
            d1, d2 = _wedge_dirs(fan, c)
            if not _extended_cone_hits_rep(pid, apex, d1, d2, face_maps, reps2d, snap):
                continue
            found = _nearest_boundary_point_in_wedge(face.polygon2d, apex, d1, d2, snap)
            if found is None:
                continue
            q2, edge_idx = found
            nb = int(face.neighbor_patch[edge_idx])
            if nb == NO_NEIGHBOR:
                continue
            patch = decomp.patches[pid]
            q3 = patch.to_3d(q2)
            key = (min(pid, nb), max(pid, nb)) + tuple(
                int(round(x / max(snap, 1e-12))) for x in q3
            )
            if key in steiner_key:
                continue
            q2_nb = decomp.patches[nb].to_2d(q3)
            crowded = any(
                float(np.linalg.norm(q - p)) <= 4.0 * snap
                for q, side in ((q2, pid), (q2_nb, nb))
                for p in occupied_pos.get(side, ())
            )
            if crowded:
                # an existing node already sits there and serves as the relay
                continue
            lift, edge_of_p, marked = _lift_steiner(P, q3, patch.gamma.normal, tol)
            sn = SpannerNode(
                id=len(nodes), kind="steiner", patches=(pid, nb),
                pos2d={pid: q2, nb: q2_nb},
                point3d=q3, lift3d=lift, edge_of_p=edge_of_p, marked=marked,
            )
            steiner_key[key] = sn.id
            nodes.append(sn)
            occupied_pos.setdefault(pid, []).append(q2)
            occupied_pos.setdefault(nb, []).append(q2_nb)
    return nodes


def _lift_steiner(
    P: TriangulatedPolytope, point: np.ndarray, inward: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[np.ndarray, tuple[int, int], tuple[int, int]]:
    """Map a sketch-boundary point back onto the polytope: cast a ray along
    the reversed projection direction, then snap to the nearest point of the
    nearest edge of the face that was hit."""
    snap = tol.snap(P.diameter())
    denom = P.face_normals @ inward
    numer = P.face_normals @ point - P.face_offsets
    with np.errstate(divide="ignore", invalid="ignore"):
        ts = np.where(np.abs(denom) > 1e-15, numer / denom, np.inf)
        finite = np.isfinite(ts)
        qs = point[None, :] - np.where(finite, ts, 0.0)[:, None] * inward[None, :]
    tri = P.vertices[P.faces]  # (F, 3, 3)
    inside = finite.copy()
    for k in range(3):
        u = tri[:, k]
        v = tri[:, (k + 1) % 3]
        side = np.einsum("ij,ij->i", np.cross(v - u, qs - u), P.face_normals)
        inside &= side >= -snap * np.maximum(1.0, np.linalg.norm(v - u, axis=1))
    ok = inside & np.isfinite(ts) & (ts >= -snap)
    if not ok.any():
        # ray missed (heavily truncated sketch); fall back to a global search
        return _nearest_edge_point(P, point, range(P.num_faces))
    fi = int(np.flatnonzero(ok)[np.argmin(ts[ok])])
    return _nearest_edge_point(P, qs[fi], [fi])


def _nearest_edge_point(
    P: TriangulatedPolytope, q: np.ndarray, face_ids,
) -> tuple[np.ndarray, tuple[int, int], tuple[int, int]]:
    snap = P.tol.snap(P.diameter())
    best = None
    for fi in face_ids:
        f = P.faces[fi]
        for k in range(3):
            u, v = int(f[k]), int(f[(k + 1) % 3])
            a, b = P.vertices[u], P.vertices[v]
            seg = b - a
            denom = float(seg @ seg)
            t = 0.0 if denom <= 1e-300 else float((q - a) @ seg) / denom
            t = min(max(t, 0.0), 1.0)
            w = a + t * seg
            d = float(np.linalg.norm(w - q))
            if best is None or d < best[0]:
                best = (d, w, (min(u, v), max(u, v)), t)
    _d, w, edge, t = best
    a, b = P.vertices[edge[0]], P.vertices[edge[1]]
    if np.linalg.norm(w - a) <= snap:
        marked = (edge[0], edge[0])
    elif np.linalg.norm(w - b) <= snap:
        marked = (edge[1], edge[1])
    else:
        marked = edge
    return w, edge, marked


def assemble_global_spanner(
    nodes: list[SpannerNode], eps: float, tol: Tolerance = DEFAULT_TOL,
) -> SpannerGraph:
    """Per-face Theta-graphs over rep+steiner nodes, unioned into one graph."""
    per_face: dict[int, list[int]] = {}
    for n in nodes:
        for pid in n.patches:
            per_face.setdefault(pid, []).append(n.id)
    edges: list[tuple[int, int, float, int]] = []
    for pid in sorted(per_face):
        ids = per_face[pid]
        if len(ids) < 2:
            continue
        pts = np.stack([nodes[i].pos2d[pid] for i in ids])
        for a, b, w in build_theta_graph(pts, eps, node_ids=ids, tol=tol):
            # a pair may recur on the abutting face; keep both copies so each
            # per-face subgraph stays a complete Theta-graph
            edges.append((a, b, w, pid))
    g = SpannerGraph(
        nodes=nodes,
        edges=edges,
        per_face_nodes=per_face,
        node_of_vertex={n.vertex: n.id for n in nodes if n.kind == "rep"},
    )
    g.build_adjacency()
    g.connected = _is_connected(g)
    return g


def _is_connected(g: SpannerGraph) -> bool:
    if not g.nodes:
        return True
    seen = {g.nodes[0].id}
    queue = deque(seen)
    while queue:
        u = queue.popleft()
        for v, _w in g.adjacency.get(u, ()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(g.nodes)


def build_spanner(
    P: TriangulatedPolytope,
    decomp: PatchDecomposition,
    sketch: Sketch,
    assignment: RepresentativeAssignment,
    eps: float,
    tol: Tolerance = DEFAULT_TOL,
) -> SpannerGraph:
    nodes = place_steiner_points(P, decomp, sketch, assignment, eps, tol)
    return assemble_global_spanner(nodes, eps, tol)


def dump_spanner(g: SpannerGraph) -> str:
    """Edge-list debug dump: node table then weighted edges."""
    lines = ["# node id kind x y z lift_x lift_y lift_z"]
    for n in g.nodes:
        p, q = n.point3d, n.lift3d
        lines.append(
            f"node {n.id} {n.kind} {p[0]:.9g} {p[1]:.9g} {p[2]:.9g} "
            f"{q[0]:.9g} {q[1]:.9g} {q[2]:.9g}"
        )
    lines.append("# edge u v weight face")
    for u, v, w, f in g.edges:
        lines.append(f"edge {u} {v} {w:.9g} {f}")
    return "\n".join(lines) + "\n"
