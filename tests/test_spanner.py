import math
from collections import deque
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from polyroute import spanner
from polyroute.cli import convex_hull_mesh, generate_mesh
from polyroute.geometry import GeometryError, cross, dot, norm, sub
from polyroute.patching import NO_NEIGHBOR, compute_patches, build_sketch, project_patch
from polyroute.polytope import PolytopeError
from polyroute.sampling import build_grid, select_representatives
from polyroute.spanner import (
    _build_face_maps,
    _crowded,
    _lift_steiner,
    _theta_edges,
    _wedge_dirs,
    assemble_global_spanner,
    build_spanner,
    build_theta_graph,
    cone_fan,
    dump_spanner,
    place_steiner_points,
    rep_nodes,
)

from conftest import map2, routed_graph_positions


def _stage(mesh, eps, delta=None):
    decomp = compute_patches(mesh, delta if delta is not None else eps)
    sketch = build_sketch(mesh, decomp)
    projections = {p.id: project_patch(mesh, p) for p in decomp.patches}
    grids = {pid: build_grid(proj, eps) for pid, proj in projections.items()}
    assignment = select_representatives(grids, projections, decomp)
    return decomp, sketch, assignment, projections


def _graph_distances(edges, n):
    if not edges:
        return np.full((n, n), np.inf)
    rows = [u for u, v, w in edges] + [v for u, v, w in edges]
    cols = [v for u, v, w in edges] + [u for u, v, w in edges]
    wts = [w for u, v, w in edges] * 2
    return dijkstra(csr_matrix((wts, (rows, cols)), shape=(n, n)), directed=False)


def _reference_cone(fan, angle):
    # the cone of one angle, by Python float arithmetic
    a = angle % (2.0 * math.pi)
    raw = int(a // fan.width) % fan.count
    if a - raw * fan.width <= spanner._CONE_BOUNDARY:
        raw = (raw - 1) % fan.count
    return raw


def _reference_theta_graph(points, eps, node_ids=None):
    """The Theta-graph row by row: per node, the numpy distances and angles
    to all points of the face, then per cone the least (d * math.cos(angle -
    bisector), node id, j)."""
    pts = np.asarray(points, dtype=np.float64)
    k = len(pts)
    if node_ids is None:
        node_ids = list(range(k))
    if k <= 1:
        return []
    fan = cone_fan(eps)
    edges = {}
    for i in range(k):
        rel = pts - pts[i]
        dist_arr = np.hypot(rel[:, 0], rel[:, 1])
        ang = np.mod(np.arctan2(rel[:, 1], rel[:, 0]), 2.0 * math.pi).tolist()
        snap = spanner.geometry.snap(float(dist_arr.max()))
        dist = dist_arr.tolist()
        best = {}
        for j, (d, a) in enumerate(zip(dist, ang)):
            if j == i or d <= snap:
                continue
            c = _reference_cone(fan, a)
            cand = (d * math.cos(a - fan.bisector(c)), node_ids[j], j)
            if c not in best or cand < best[c]:
                best[c] = cand
        for _proj, j_id, j in best.values():
            a, b = node_ids[i], j_id
            edges.setdefault((min(a, b), max(a, b)), dist[j])
    return [(a, b, w) for (a, b), w in sorted(edges.items())]


def test_cone_fan_counts():
    fan = cone_fan(math.pi / 2)
    assert fan.count == 4
    assert fan.width == pytest.approx(math.pi / 2)
    fan = cone_fan(0.4)
    assert fan.count == math.ceil(2 * math.pi / 0.4)
    assert fan.width <= 0.4


def test_cone_boundary_goes_lower():
    fan = cone_fan(math.pi / 2)
    assert fan.index_of(0.0) == 3  # exactly on the first bounding ray
    assert fan.index_of(1e-6) == 0
    assert fan.index_of(fan.width) == 0


def test_theta_two_nodes_single_edge():
    pts = np.array([[0.0, 0.0], [3.0, 1.0]])
    edges = build_theta_graph(pts, 0.5)
    assert edges == [(0, 1, pytest.approx(math.hypot(3, 1)))]


def test_theta_collinear_chain():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    edges = {(u, v) for u, v, w in build_theta_graph(pts, 0.5)}
    assert edges == {(0, 1), (1, 2)}


def test_theta_stretch_random_nodes():
    rng = np.random.default_rng(7)
    pts = rng.random((50, 2))
    eps = 0.4
    edges = build_theta_graph(pts, eps)
    dist = _graph_distances(edges, 50)
    bound = 1.0 / (math.cos(eps) - math.sin(eps))
    for i in range(50):
        for j in range(i + 1, 50):
            euclid = float(np.linalg.norm(pts[i] - pts[j]))
            assert dist[i, j] <= bound * euclid + 1e-9


def test_tetra_steiner_relays_between_rep_faces(tetra):
    # sampling needs eps in (0,1]; the quarter-turn cone angle is a separate
    # knob of the placement step
    decomp, sketch, assignment, projections = _stage(tetra, 0.9, delta=0.01)
    nodes, _positions = place_steiner_points(tetra, decomp, sketch, assignment, projections,
                                             math.pi / 2)
    steiner = [n for n in nodes if n.kind == "steiner"]
    assert steiner, "abutting faces with representatives need relays"
    rep_patches = {pid for pid, rs in assignment.patch_reps.items() if rs}
    # the two rep-bearing faces are bridged by at least one shared Steiner
    assert any(set(s.patches) >= rep_patches for s in steiner)
    for s in steiner:
        assert s.marked is not None


def test_single_patch_no_steiner(tetra):
    decomp, sketch, assignment, projections = _stage(tetra, 0.5, delta=math.pi)
    assert decomp.count == 1
    nodes, positions = place_steiner_points(tetra, decomp, sketch, assignment, projections, 0.5)
    assert all(n.kind == "rep" for n in nodes)
    g = assemble_global_spanner(nodes, positions, 0.5)
    assert g.connected
    assert all(f == 0 for (_u, _v, _w, f) in g.edges)


def test_empty_extension_no_steiner(octa):
    # single rep in the whole mesh: no other-face reps for any cone to find
    decomp, sketch, assignment, projections = _stage(octa, 0.99, delta=0.01)
    lone = assignment.reps[:1]
    assignment.reps = lone
    assignment.patch_reps = {pid: [r for r in rs if r in lone]
                             for pid, rs in assignment.patch_reps.items()}
    nodes, _positions = place_steiner_points(octa, decomp, sketch, assignment, projections, 0.5)
    assert all(n.kind == "rep" for n in nodes)


def test_assemble_tetra_connected(tetra):
    g = build_spanner(tetra, *_stage(tetra, 0.5), 0.5)
    assert g.connected
    # a path rep -> steiner -> rep exists between abutting rep faces
    dist = _graph_distances([(u, v, w) for u, v, w, _f in g.edges], g.num_nodes)
    rep_ids = [n.id for n in g.nodes if n.kind == "rep"]
    for a in rep_ids:
        for b in rep_ids:
            assert np.isfinite(dist[a, b])


def test_steiner_nodes_shared_by_two_faces(sphere50_system):
    g = sphere50_system.graph
    for n in g.nodes:
        if n.kind == "steiner":
            assert len(set(n.patches)) == 2
            count = sum(1 for pid, ids in g.per_face_nodes.items() if n.id in ids)
            assert count == 2


def test_edges_stay_within_one_face(sphere50_system):
    g = sphere50_system.graph
    for u, v, w, f in g.edges:
        assert f in g.nodes[u].patches
        assert f in g.nodes[v].patches
        assert w > 0


def test_edges_are_lowest_face_union_of_theta_graphs(sphere50_system):
    # each node pair once, u < v, with the weight and face of the lowest
    # face whose Theta-graph holds it; faces ascending, pairs ascending
    system = sphere50_system
    g = system.graph
    positions = routed_graph_positions(system)
    want = {}
    recurring = 0
    for pid in sorted(g.per_face_nodes):
        ids = g.per_face_nodes[pid]
        pts = np.stack([positions[i][pid] for i in ids])
        for u, v, w in _reference_theta_graph(pts, system.eps, node_ids=ids):
            recurring += (u, v) in want
            want.setdefault((u, v), (u, v, w, pid))
    assert recurring, "no pair lies on two faces; the case is not exercised"
    assert g.edges == list(want.values())
    assert all(u < v for u, v, _w, _f in g.edges)
    assert len({(u, v) for u, v, _w, _f in g.edges}) == len(g.edges)


def test_per_face_theta_stretch(sphere50_system):
    # each face's own Theta-graph, rebuilt from the placement's positions
    eps = sphere50_system.eps
    g = sphere50_system.graph
    positions = routed_graph_positions(sphere50_system)
    bound = 1.0 / (math.cos(eps) - math.sin(eps))
    for pid, ids in g.per_face_nodes.items():
        if len(ids) < 2:
            continue
        pts = np.stack([positions[i][pid] for i in ids])
        dist = _graph_distances(build_theta_graph(pts, eps), len(ids))
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                euclid = float(np.linalg.norm(pts[a] - pts[b]))
                assert dist[a, b] <= bound * euclid + 1e-9


def test_node_edge_count_scaling():
    c_nodes = c_edges = 0.0
    fit = generate_mesh("sphere", 150, 0)
    for eps in (0.3, 0.45):
        g = build_spanner(fit, *_stage(fit, eps), eps)
        c_nodes = max(c_nodes, g.num_nodes / min(fit.n, 1.0 / eps ** 3))
        c_edges = max(c_edges, len(g.edges) / min(fit.n / eps, 1.0 / eps ** 4))
    for seed in (1, 2):
        mesh = generate_mesh("sphere", 120, seed)
        for eps in (0.35,):
            g = build_spanner(mesh, *_stage(mesh, eps), eps)
            assert g.num_nodes <= 2.0 * c_nodes * min(mesh.n, 1.0 / eps ** 3)
            assert len(g.edges) <= 2.0 * c_edges * min(mesh.n / eps, 1.0 / eps ** 4)


def test_dump_spanner_format(tetra_system):
    text = dump_spanner(tetra_system.graph)
    lines = text.strip().split("\n")
    nodes = [l for l in lines if l.startswith("node ")]
    edges = [l for l in lines if l.startswith("edge ")]
    assert len(nodes) == tetra_system.graph.num_nodes
    assert len(edges) == len(tetra_system.graph.edges)
    for l, node in zip(nodes, tetra_system.graph.nodes):
        parts = l.split()
        assert parts[:3] == ["node", str(node.id), node.kind]
        assert [float(x) for x in parts[3:]] == pytest.approx(node.lift3d.tolist())
    for l in edges:
        parts = l.split()
        assert len(parts) == 5
        assert float(parts[3]) > 0


# ---------------------------------------------------------------------------
# the per-cone loops on Python floats that the placement's array pass
# replaced, kept as references for its bits


@dataclass
class _ReferenceFaceMaps:
    """One sketch face as the per-cone loops read it: its polygon as x and y
    coordinate lists, the patch across each edge, its hops (per edge with a
    neighbour face, in edge order, that face and the 2D map (m2, t2) as
    float tuples), its bounding circle (the corners' mean and the radius)
    and, per edge, its start point, edge vector and squared length."""

    poly: tuple
    neighbors: np.ndarray
    hops: list
    center: tuple
    radius: float
    edges: list


def _reference_face_maps(decomp, sketch):
    """Each sketch face's `_ReferenceFaceMaps` by patch id, one edge at a
    time with the float-row frame maps and kernel."""
    by_pid = {f.patch_id: f for f in sketch.faces}
    maps = {}
    for f in sketch.faces:
        patch = decomp.patches[f.patch_id]
        hops, edges = [], []
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
            to_2d = decomp.patches[j].to_2d
            p, q = to_2d(poly3[k]), to_2d(poly3[(k + 1) % kk])
            en = (q[0] - p[0], q[1] - p[1])
            s = norm(seg) * norm(en)
            c, sn = dot(en, seg) / s, (en[0] * seg[1] - en[1] * seg[0]) / s
            m2 = ((c, -sn), (sn, c))
            hops.append((j, m2, (a0 - dot(m2[0], p), a1 - dot(m2[1], p))))
        center = tuple(f.polygon2d.mean(axis=0).tolist())
        radius = float(norm(f.polygon2d - center).max())
        maps[f.patch_id] = _ReferenceFaceMaps(tuple(f.polygon2d.T.tolist()), f.neighbor_patch,
                                              hops, center, radius, edges)
    return maps


class _ReferenceUnfolded:
    """A node of a start face's unfolding tree: the face `pid` reached along
    one BFS path, with the composed map (m2, t2) into the start face's
    frame, its unfolded bounding-circle centre and, from their first use,
    its unfolded polygon and reps. Child i, across the face's i-th hop, is
    unfolded on first use; maps compose with `dot`'s terms in its order."""

    def __init__(self, fm, pid, m2, t2, center=(0.0, 0.0)):
        self.fm, self.pid, self.m2, self.t2, self.center = fm, pid, m2, t2, center
        self.poly = None
        self.reps = None
        self.children = [None] * len(fm.hops)

    def unfold(self, i, face_maps):
        nb, ((a, b), (c, d)), (ex, ey) = self.fm.hops[i]
        (p, q), (r, s) = self.m2
        nm = ((p * a + q * c, p * b + q * d), (r * a + s * c, r * b + s * d))
        nt = (ex * p + ey * q + self.t2[0], ex * r + ey * s + self.t2[1])
        fm = face_maps[nb]
        (m00, m01), (m10, m11) = nm
        cx, cy = fm.center
        center = (m00 * cx + m01 * cy + nt[0], m10 * cx + m11 * cy + nt[1])
        node = self.children[i] = _ReferenceUnfolded(fm, nb, nm, nt, center=center)
        return node

    def unfold_poly(self):
        self.poly = map2(self.m2, self.t2, *self.fm.poly)
        return self.poly

    def unfold_reps(self, reps_xy):
        xs, ys = reps_xy.get(self.pid, ((), ()))
        self.reps = list(zip(*map2(self.m2, self.t2, xs, ys)))
        return self.reps


def _reference_unfolding_root(fm, pid):
    root = _ReferenceUnfolded(fm, pid, ((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0))
    root.reps = []  # the search is for the reps of other faces
    return root


def _reference_reps_in_open_wedge(reps, apex, d1, d2, snap):
    # any point more than snap inside both rays and farther than snap from
    # the apex
    ax, ay = apex
    (d1x, d1y), (d2x, d2y) = d1, d2
    for x, y in reps:
        rx, ry = x - ax, y - ay
        if (d1x * ry - d1y * rx > snap and d2x * ry - d2y * rx < -snap
                and float(np.hypot(rx, ry)) > snap):
            return True
    return False


def _reference_polygon_meets_wedge(poly, apex, d1, d2, snap):
    # the polygon (x and y lists) clipped to the left of d1, Sutherland-
    # Hodgman style; the wedge is met iff a clipped point lies right of d2
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


def _reference_nearest_boundary_point_in_wedge(edges, apex, d1, d2, snap):
    # the closest point to the apex on the face boundary within the closed
    # wedge, as (point, edge index), or None
    best = None
    ax, ay = apex
    for i, ((a0, a1), (s0, s1), denom) in enumerate(edges):
        t0, t1 = 0.0, 1.0
        ok = True
        for (dx, dy), sgn in ((d1, 1.0), (d2, -1.0)):
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


def _reference_extended_cone_hits_rep(root, apex, d1, d2, face_maps, reps_xy, snap):
    """The cone search that tests a face's reps when it joins the BFS queue,
    each face visited once per cone."""
    ax, ay = apex
    (d1x, d1y), (d2x, d2y) = d1, d2
    visited = {root.pid}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for i, (nb, _em, _et) in enumerate(node.fm.hops):
            if nb in visited:
                continue
            child = node.children[i] or node.unfold(i, face_maps)
            cx, cy = child.center[0] - ax, child.center[1] - ay
            radius = child.fm.radius
            if d1x * cy - d1y * cx < -radius or d2x * cy - d2y * cx > radius:
                continue
            if _reference_polygon_meets_wedge(child.poly or child.unfold_poly(), apex, d1, d2,
                                              snap):
                reps = child.reps if child.reps is not None else child.unfold_reps(reps_xy)
                if reps and _reference_reps_in_open_wedge(reps, apex, d1, d2, snap):
                    return True
                visited.add(nb)
                queue.append(child)
    return False


def _reference_occupied_cones(fan, reps, apex, snap):
    # the cones with a rep (x and y lists) farther than snap from the apex
    # and from both bounding rays
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


# ---------------------------------------------------------------------------
# the fast spanner construction gives the bits of the plain numpy formulation


def _numpy_polygon_meets_wedge(poly, apex, d1, d2, snap):
    # the array formulation the float version replaced
    pts = poly
    for d, sgn in ((d1, 1.0), (d2, -1.0)):
        vals = sgn * (d[0] * (pts[:, 1] - apex[1]) - d[1] * (pts[:, 0] - apex[0]))
        keep = []
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
    return True


coord = st.floats(-10.0, 10.0, allow_nan=False)


@settings(max_examples=400, deadline=None)
@given(
    center=st.tuples(coord, coord),
    radius=st.floats(1e-3, 5.0),
    turns=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=3, max_size=9, unique=True),
    apex=st.tuples(coord, coord),
    eps=st.sampled_from([math.pi / 2, 0.8, 0.3]),
    cone=st.integers(0, 100),
    on_ray=st.sampled_from([None, 0, 1]),
    back=st.floats(0.0, 20.0),
    snap=st.sampled_from([0.0, 1e-9, 1e-3]),
)
def test_polygon_meets_wedge_matches_numpy(center, radius, turns, apex, eps, cone,
                                           on_ray, back, snap):
    angles = sorted(2.0 * math.pi * t for t in turns)
    poly = np.array([[center[0] + radius * math.cos(a), center[1] + radius * math.sin(a)]
                     for a in angles])
    fan = cone_fan(eps)
    d1, d2 = _wedge_dirs(fan, cone % fan.count)
    if on_ray is not None:
        # put the apex behind a polygon vertex along the lower ray; with the
        # axis-aligned rays of the quarter-turn fan the vertex lies exactly
        # on the ray
        vx, vy = poly[on_ray]
        apex = (vx - back * d1[0], vy - back * d1[1])
    fast = _reference_polygon_meets_wedge((poly[:, 0].tolist(), poly[:, 1].tolist()), apex,
                                          d1, d2, snap)
    slow = _numpy_polygon_meets_wedge(poly, np.array(apex), np.array(d1), np.array(d2), snap)
    # the batched clip, on the polygon padded with two junk corners and
    # mapped by the identity
    k = len(poly)
    face = SimpleNamespace(xs=np.r_[poly[:, 0], 1e3, -1e3][None],
                           ys=np.r_[poly[:, 1], 1e3, 0.0][None],
                           nxt=np.r_[np.roll(np.arange(k), -1), 0, 0][None],
                           corner=(np.arange(k + 2) < k)[None])
    one, zero = np.ones(1), np.zeros(1)
    batched = spanner._meets_wedge(face, np.array([0]), [one, zero, zero, one], [zero, zero],
                                   np.array([apex[0]]), np.array([apex[1]]),
                                   np.array([[*d1, *d2]]), snap)
    assert fast == slow == bool(batched[0])


@st.composite
def _theta_faces(draw):
    # one to three faces of a Theta pass, whose node ids are distinct within
    # a face, neither 0..k-1 nor ascending, and shared between faces; each
    # face has random points, points on the bounding rays of its first
    # point's cones and mirror pairs about their bisectors, and points
    # within a snap of another
    eps = draw(st.sampled_from([0.2, 0.4, 0.8, math.pi / 2]))
    fan = cone_fan(eps)
    scale = draw(st.sampled_from([1e-3, 1.0, 40.0]))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    faces = []
    for pid in sorted(draw(st.sets(st.integers(0, 9), min_size=1, max_size=3))):
        pts = [(x * scale, y * scale)
               for x, y in draw(st.lists(st.tuples(unit, unit), min_size=2, max_size=12))]
        ax, ay = pts[0]
        for c in draw(st.lists(st.integers(0, fan.count - 1), max_size=4)):
            r = draw(st.floats(0.1, 1.0)) * scale
            off = draw(st.floats(0.01, 0.49)) * fan.width
            for t in (c * fan.width, fan.bisector(c) - off, fan.bisector(c) + off):
                pts.append((ax + r * math.cos(t), ay + r * math.sin(t)))
            # a hair below the apex's ray 0, at an angle np.mod may round to 2*pi
            pts.append((ax + r, math.nextafter(ay, -math.inf)))
        for i in draw(st.lists(st.integers(0, len(pts) - 1), max_size=3)):
            pts.append((pts[i][0] + 1e-11 * scale, pts[i][1]))
        ids = draw(st.lists(st.integers(0, 40), min_size=len(pts), max_size=len(pts),
                            unique=True))
        faces.append((pid, ids, pts))
    return eps, faces


@settings(max_examples=300, deadline=None)
@given(case=_theta_faces(), cap=st.sampled_from([None, 1, 5, 64]))
def test_theta_pass_matches_per_row_reference(case, cap):
    # the one array pass over all faces gives, edge for edge and weight for
    # weight, the lowest-face union of the per-row Theta-graphs, in any
    # blocking of its rows; no block holds more than the cap of pairs
    # unless it is a single longer row
    eps, faces = case
    want = {}
    for pid, ids, pts in faces:
        for u, v, w in _reference_theta_graph(pts, eps, ids):
            want.setdefault((u, v), (u, v, w, pid))
    blocks = []
    theta_block = spanner._theta_block

    def recording(fan, pts, ids, first, lens, r0, r1):
        blocks.append((int(lens[r0:r1].sum()), r1 - r0))
        return theta_block(fan, pts, ids, first, lens, r0, r1)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spanner, "_theta_block", recording)
        if cap is not None:
            mp.setattr(spanner, "_THETA_PAIRS", cap)
        got = _theta_edges(faces, eps)
    assert got == list(want.values())
    assert sum(p for p, _r in blocks) == sum(len(ids) ** 2 for _f, ids, _p in faces)
    cap = spanner._THETA_PAIRS if cap is None else cap
    assert all(p <= cap or rows == 1 for p, rows in blocks)


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(0, 40), max_size=30), cap=st.integers(1, 100),
       size=st.integers(1, 40), count=st.integers(0, 30))
def test_runs_are_the_greedy_capped_blocks(sizes, cap, size, count):
    # the runs cover the rows in order, each as long as it can be with its
    # sizes summing to at most cap, or one larger row alone; rows of one
    # size run in steps of max(1, cap // size), as the fixed-step blocks did
    runs = spanner._runs(np.array(sizes, dtype=np.int64), cap)
    assert [lo for lo, _hi in runs] == [0] + [hi for _lo, hi in runs[:-1]]
    assert runs[-1][1] == len(sizes)
    for lo, hi in runs:
        assert sum(sizes[lo:hi]) <= cap or hi == lo + 1
        assert hi == len(sizes) or sum(sizes[lo:hi + 1]) > cap
        assert hi > lo or not sizes
    step = max(1, cap // size)
    assert spanner._runs(np.full(count, size), cap) == (
        [(lo, min(lo + step, count)) for lo in range(0, count, step)] or [(0, 0)])


def test_theta_pass_without_pairs_has_no_edges():
    # no face with two nodes, or two nodes within a snap of each other
    assert _theta_edges([], 0.4) == []
    assert build_theta_graph([(1.0, 2.0), (1.0, 2.0 + 1e-12)], 0.4) == []


def test_theta_mirror_pairs_are_decided_by_math_cos(monkeypatch):
    # two points mirrored about each cone's bisector, at one distance from
    # the apex, tie in np.cos to within the snap; math.cos decides each such
    # (row, cone), and the result is the per-row reference's
    eps = 0.4
    fan = cone_fan(eps)
    pts = [(0.0, 0.0)]
    for c in range(fan.count):
        for t in (fan.bisector(c) - 0.3 * fan.width, fan.bisector(c) + 0.3 * fan.width):
            pts.append((math.cos(t), math.sin(t)))
    ids = [3 * i + 7 for i in range(len(pts))][::-1]
    decided = []
    break_ties = spanner._break_ties

    def recording(fan, keys, *rest):
        decided.extend(keys.tolist())
        return break_ties(fan, keys, *rest)

    monkeypatch.setattr(spanner, "_break_ties", recording)
    assert build_theta_graph(pts, eps, ids) == _reference_theta_graph(pts, eps, ids)
    # the apex row (row 0) has a tie in every cone
    assert set(range(fan.count)) <= set(decided)


def _reference_hop(patch, nb_patch, A, B):
    # the 3D construction the hop maps replaced: rotate the neighbour's plane
    # about the shared edge A-B onto this face's plane (axis-angle, the angle
    # from atan2 of the two normals), then express the composite in the two
    # patch frames as a 2D map (m2, t2)
    axis = (B - A) / np.linalg.norm(B - A)
    ns, nt = nb_patch.gamma.normal, patch.gamma.normal
    angle = math.atan2(float(np.cross(ns, nt) @ axis), float(ns @ nt))
    x, y, z = axis
    c, s, cc = math.cos(angle), math.sin(angle), 1.0 - math.cos(angle)
    rot = np.array([[c + x * x * cc, x * y * cc - z * s, x * z * cc + y * s],
                    [y * x * cc + z * s, c + y * y * cc, y * z * cc - x * s],
                    [z * x * cc - y * s, z * y * cc + x * s, c + z * z * cc]])
    axes = np.array([patch.frame_u, patch.frame_v])
    m2 = axes @ rot @ np.array([nb_patch.frame_u, nb_patch.frame_v]).T
    t2 = np.array(patch.to_2d(rot @ (np.array(nb_patch.frame_origin) - A) + A))
    return m2, t2


def _hops_by_edge(decomp, sketch):
    # per face, its hops from the CSR arrays next to the edges (k,
    # neighbour) they cross; the arrays hold the bits of the per-edge float
    # construction
    fm = _build_face_maps(decomp, sketch)
    ref = _reference_face_maps(decomp, sketch)
    by_pid = {f.patch_id: f for f in sketch.faces}
    for f in sketch.faces:
        kk = len(f.polygon2d)
        crossed = [(k, int(j)) for k, j in enumerate(f.neighbor_patch.tolist())
                   if j != NO_NEIGHBOR and j in by_pid]
        i = f.patch_id
        hops = range(fm.hop_start[i], fm.hop_start[i + 1])
        got = [(sketch.faces[fm.hop_face[h]].patch_id, tuple(fm.hop_map[:, h].tolist()))
               for h in hops]
        assert got == [(j, (*m2[0], *m2[1], *t2)) for j, m2, t2 in ref[f.patch_id].hops]
        assert [j for _k, j in crossed] == [j for j, _m in got]
        for (k, j), (_j, m) in zip(crossed, got):
            yield f, by_pid[j], k, (k + 1) % kk, np.array(m[:4]).reshape(2, 2), np.array(m[4:])


@pytest.mark.parametrize("shape, n, seed", [("sphere", 50, 0), ("sphere", 200, 1), ("cube", 0, 0)],
                         ids=["sphere50", "hull200", "cube"])
def test_hop_maps_unfold_across_the_shared_edge(shape, n, seed):
    # each hop map is a rotation plus translation that sends the shared
    # edge's corners in the neighbour's frame onto this face's corners and
    # lays the neighbour's polygon on the far side of that edge; it agrees
    # with the 3D unfolding rotation it replaced
    mesh = generate_mesh(shape, n, seed)
    decomp, sketch, _assignment, _projections = _stage(mesh, 0.3)
    scale = max(1.0, mesh.diameter())
    count = 0
    for f, g, k, k1, m2, t2 in _hops_by_edge(decomp, sketch):
        patch, nb_patch = decomp.patches[f.patch_id], decomp.patches[g.patch_id]
        (c, msn), (sn, c2) = m2
        assert c2 == c and msn == -sn
        assert abs(c * c + sn * sn - 1.0) <= 1e-12
        a, b = f.polygon2d[k], f.polygon2d[k1]
        poly3 = [np.array(patch.to_3d(c)) for c in f.polygon2d.tolist()]
        p, q = (np.array(nb_patch.to_2d(poly3[i])) for i in (k, k1))
        assert np.abs(m2 @ p + t2 - a).max() <= 1e-12 * scale
        assert np.abs(m2 @ q + t2 - b).max() <= 1e-12 * scale
        # signed distances left of a -> b: f's polygon (counterclockwise)
        # lies left, the unfolded neighbour right
        e = (b - a) / np.linalg.norm(b - a)

        def left(pts):
            return e[0] * (pts[:, 1] - a[1]) - e[1] * (pts[:, 0] - a[0])

        assert left(f.polygon2d).min() >= -1e-9 * scale
        unfolded = left(g.polygon2d @ m2.T + t2)
        assert unfolded.max() <= 1e-9 * scale and unfolded.min() < -1e-9 * scale
        ref_m2, ref_t2 = _reference_hop(patch, nb_patch, poly3[k], poly3[k1])
        assert np.abs(m2 - ref_m2).max() <= 1e-10
        assert np.abs(t2 - ref_t2).max() <= 1e-10
        count += 1
    assert count > 0


def test_hop_map_lays_the_cube_side_flat_beyond_the_bottom():
    # the bottom face z=0 and the side face x=1 of the unit cube share the
    # edge (1,0,0)-(1,1,0); unfolded into the bottom's frame, the side's
    # corner (1,0,1) lands at (2,0,0)
    cube = generate_mesh("cube")
    decomp, sketch, _assignment, _projections = _stage(cube, 0.3)
    normals = [tuple(p.gamma.normal.round(12) + 0.0) for p in decomp.patches]
    bottom, side = normals.index((0.0, 0.0, -1.0)), normals.index((1.0, 0.0, 0.0))
    hops = [(m2, t2) for f, g, _k, _k1, m2, t2 in _hops_by_edge(decomp, sketch)
            if (f.patch_id, g.patch_id) == (bottom, side)]
    assert len(hops) == 1
    m2, t2 = hops[0]
    corner = np.array(decomp.patches[side].to_2d((1.0, 0.0, 1.0)))
    want = np.array(decomp.patches[bottom].to_2d((2.0, 0.0, 0.0)))
    assert np.abs(m2 @ corner + t2 - want).max() <= 1e-12


def _reference_cone_hits_rep(root, apex, d1, d2, face_maps, reps_xy, snap):
    """The cone search that tests a face's reps when it leaves the BFS queue."""
    ax, ay = apex
    (d1x, d1y), (d2x, d2y) = d1, d2
    visited = {root.pid}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        reps = node.reps if node.reps is not None else node.unfold_reps(reps_xy)
        if reps and _reference_reps_in_open_wedge(reps, apex, d1, d2, snap):
            return True
        for i, (nb, _em, _et) in enumerate(node.fm.hops):
            if nb in visited:
                continue
            child = node.children[i] or node.unfold(i, face_maps)
            cx, cy = child.center[0] - ax, child.center[1] - ay
            radius = child.fm.radius
            if d1x * cy - d1y * cx < -radius or d2x * cy - d2y * cx > radius:
                continue
            if _reference_polygon_meets_wedge(child.poly or child.unfold_poly(), apex, d1, d2,
                                              snap):
                visited.add(nb)
                queue.append(child)
    return False


def _reps_xy(assignment, projections):
    # each face's reps as x and y coordinate lists, as the placement keeps them
    return {pid: ([projections[pid][r][0] for r in rs], [projections[pid][r][1] for r in rs])
            for pid, rs in assignment.patch_reps.items()}


def _empty_cones(mesh, stage, eps):
    """Every (rep, empty cone) of the stage's reps, in rep and then cone
    order, by the float references: (face, apex, cone) per cone, and the
    search's inputs as columns."""
    decomp, _sketch, assignment, projections = stage
    fm = _build_face_maps(decomp, _sketch)
    fan, snap = cone_fan(eps), mesh.snap
    reps_xy = _reps_xy(assignment, projections)
    cones = []
    for r in assignment.reps:
        pid = int(decomp.owner_of_vertex[r])
        apex = projections[pid][r]
        occupied = _reference_occupied_cones(fan, reps_xy[pid], apex, snap)
        cones += [(pid, apex, c) for c in range(fan.count) if c not in occupied]
    rows = np.array([pid for pid, _apex, _c in cones], dtype=np.int64)
    ax, ay = np.array([apex for _pid, apex, _c in cones]).reshape(-1, 2).T
    dirs = np.array([sum(_wedge_dirs(fan, c), ()) for _pid, _apex, c in cones]).reshape(-1, 4)
    return cones, fm, spanner._face_reps(fm, assignment, projections), rows, ax, ay, dirs


@pytest.mark.parametrize("n", [50, 100, 200])
@pytest.mark.parametrize("eps", [0.3, 0.4])
def test_cone_search_matches_dequeue_time_reference(n, eps):
    # the batched search answers every (rep, empty cone), with or without a
    # boundary point, as the search that tests reps when a face leaves the
    # queue, on a fresh tree per cone
    mesh = generate_mesh("sphere", n, 0)
    stage = _stage(mesh, eps)
    decomp, sketch, assignment, projections = stage
    face_maps = _reference_face_maps(decomp, sketch)
    reps_xy = _reps_xy(assignment, projections)
    fan, snap = cone_fan(eps), mesh.snap
    cones, fm, reps, rows, ax, ay, dirs = _empty_cones(mesh, stage, eps)
    got, pairs = spanner._search_cones(fm, reps, rows, ax, ay, dirs, snap)
    answers = []
    for (pid, apex, c), hit in zip(cones, got.tolist()):
        d1, d2 = _wedge_dirs(fan, c)
        want = _reference_cone_hits_rep(_reference_unfolding_root(face_maps[pid], pid), apex,
                                        d1, d2, face_maps, reps_xy, snap)
        assert hit == want, (pid, apex, c)
        answers.append(hit)
    assert True in answers and False in answers
    assert pairs >= len(cones)


def _search_first_placement(P, decomp, sketch, assignment, projections, eps):
    """The Steiner placement that runs the extension search first on every
    empty cone, then the boundary point, abutting face and crowding tests."""
    fan, snap = cone_fan(eps), P.snap
    face_maps = _reference_face_maps(decomp, sketch)
    nodes = rep_nodes(P, decomp, assignment.reps)
    positions = [{n.patches[0]: projections[n.patches[0]][n.vertex]} for n in nodes]
    reps_xy = _reps_xy(assignment, projections)
    if sum(1 for xs, _ys in reps_xy.values() if xs) < 2:
        return nodes, positions
    occupied_pos = {}
    for pos in positions:
        for pid, uv in pos.items():
            occupied_pos.setdefault(pid, []).append(uv)
    steiner = []
    for node in list(nodes):
        pid = node.patches[0]
        fm = face_maps[pid]
        apex = positions[node.id][pid]
        occupied = _reference_occupied_cones(fan, reps_xy[pid], apex, snap)
        for c in range(fan.count):
            if c in occupied:
                continue
            d1, d2 = _wedge_dirs(fan, c)
            if not _reference_cone_hits_rep(_reference_unfolding_root(fm, pid), apex, d1, d2,
                                            face_maps, reps_xy, snap):
                continue
            found = _reference_nearest_boundary_point_in_wedge(fm.edges, apex, d1, d2, snap)
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
                continue
            steiner.append((pid, nb, q3))
            positions.append({pid: q2, nb: q2_nb})
            occupied_pos.setdefault(pid, []).append(q2)
            occupied_pos.setdefault(nb, []).append(q2_nb)
    if steiner:
        lifts, _pairs = _lift_steiner(P, np.array([q3 for _pid, _nb, q3 in steiner]),
                                      np.array([decomp.patches[pid].gamma.normal
                                                for pid, _nb, _q3 in steiner]))
        for (pid, nb, _q3), (lift, marked) in zip(steiner, lifts):
            nodes.append(spanner.SpannerNode(id=len(nodes), kind="steiner", patches=(pid, nb),
                                             lift3d=lift, marked=marked))
    return nodes, positions


@pytest.mark.parametrize("n", [50, 100, 200])
@pytest.mark.parametrize("eps", [0.3, 0.4])
def test_placement_matches_search_first_reference(n, eps):
    # the extension search last, only on cones the other three tests leave,
    # places the nodes of the search-first order, bit for bit
    mesh = generate_mesh("sphere", n, 0)
    stage = _stage(mesh, eps)
    stats = {}
    nodes, positions = place_steiner_points(mesh, *stage, eps, stats)
    want_nodes, want_positions = _search_first_placement(mesh, *stage, eps)

    def fields(ns):
        return [(nd.id, nd.kind, nd.patches, nd.vertex, nd.marked, nd.lift3d.tobytes())
                for nd in ns]

    assert fields(nodes) == fields(want_nodes)
    assert positions == want_positions
    assert stats["steiner_nodes"] == sum(nd.kind == "steiner" for nd in nodes) > 0
    assert stats["steiner_nodes"] <= stats["cone_searches"] < stats["empty_cones"]


def _check_cone_tests(mesh, eps):
    """The placement's array pass against the per-cone float references on
    every (rep, empty cone) of the mesh: the empty cones, the boundary
    point's bits, its edge, the abutting face and the search's answer; the
    face arrays against the reference face maps. Returns the answers of
    the cones searched."""
    stage = _stage(mesh, eps)
    decomp, sketch, assignment, projections = stage
    fan, snap = cone_fan(eps), mesh.snap
    fm = _build_face_maps(decomp, sketch)
    ref = _reference_face_maps(decomp, sketch)
    for i in range(len(fm.xs)):  # a face's row is its patch id
        k = int(fm.corner[i].sum())
        want = ref[i]
        assert fm.corner[i, :k].all() and not fm.corner[i, k:].any()
        assert (fm.xs[i, :k].tolist(), fm.ys[i, :k].tolist()) == (list(want.poly[0]),
                                                                  list(want.poly[1]))
        assert [((a0, a1), (s0, s1), sq) for a0, a1, s0, s1, sq in zip(
            fm.xs[i, :k].tolist(), fm.ys[i, :k].tolist(), fm.seg_x[i, :k].tolist(),
            fm.seg_y[i, :k].tolist(), fm.seg_sq[i, :k].tolist())] == want.edges
        assert fm.neighbors[i, :k].tolist() == want.neighbors.tolist()
        assert (float(fm.cx[i]), float(fm.cy[i]), float(fm.radius[i])) == (*want.center,
                                                                             want.radius)
    reps_xy = _reps_xy(assignment, projections)
    nodes = rep_nodes(mesh, decomp, assignment.reps)
    positions = [{nd.patches[0]: projections[nd.patches[0]][nd.vertex]} for nd in nodes]
    tests = spanner._cone_tests(fm, spanner._face_reps(fm, assignment, projections), fan,
                                nodes, positions, snap)
    hit = dict(zip(tests.searched.tolist(), tests.hit.tolist()))
    got = []
    for i, (apex, c, found, x, y, edge, nb) in enumerate(zip(
            tests.apex.tolist(), tests.cone.tolist(), tests.found.tolist(), tests.qx.tolist(),
            tests.qy.tolist(), tests.edge.tolist(), tests.nb.tolist())):
        got.append((apex, c, (x.hex(), y.hex(), edge, nb, hit.get(i)) if found else None))
    want = []
    for nd in nodes:
        pid = nd.patches[0]
        apex = positions[nd.id][pid]
        occupied = _reference_occupied_cones(fan, reps_xy[pid], apex, snap)
        for c in sorted(set(range(fan.count)) - occupied):
            d1, d2 = _wedge_dirs(fan, c)
            found = _reference_nearest_boundary_point_in_wedge(ref[pid].edges, apex, d1, d2,
                                                               snap)
            if found is None:
                want.append((nd.id, c, None))
                continue
            (x, y), edge = found
            nb = int(ref[pid].neighbors[edge])
            answer = None if nb == NO_NEIGHBOR else _reference_extended_cone_hits_rep(
                _reference_unfolding_root(ref[pid], pid), apex, d1, d2, ref, reps_xy, snap)
            want.append((nd.id, c, (x.hex(), y.hex(), edge, nb, answer)))
    assert got == want
    return tests.hit.tolist()


@settings(max_examples=25, deadline=None)
@given(n=st.integers(20, 200), seed=st.integers(0, 2 ** 32 - 1), eps=st.sampled_from([0.3, 0.4]))
def test_cone_tests_match_per_cone_references(n, seed, eps):
    try:
        mesh = generate_mesh("sphere", n, seed)
    except (PolytopeError, GeometryError, ValueError):
        assume(False)
    _check_cone_tests(mesh, eps)


# the hulls that raise DisconnectedSpanner (sphere, n, seed, eps), on which
# searches answer False
_CUT_OFF_HULLS = ([(100, 19, 0.4), (50, 26, 0.3)]
                  + [(20, s, 0.3) for s in (3, 11, 15, 17, 23, 40, 51, 53, 84, 85, 92)]
                  + [(20, s, 0.4) for s in (46, 60, 62, 97)])


def test_cone_tests_match_per_cone_references_on_cut_off_hulls():
    answers = []
    for n, seed, eps in _CUT_OFF_HULLS:
        answers += _check_cone_tests(generate_mesh("sphere", n, seed), eps)
    assert True in answers and False in answers


def test_boundary_pass_on_an_edge_along_a_wedge_ray():
    # `gen sphere --n 20 --seed 15` at eps 0.3: sketch face 14's edge 0 runs
    # from its rep at the origin along cone 0's lower ray, off it by a cross
    # term of 1e-16, whose sign clips the edge to the apex; the array pass
    # decides it as the float loop does
    mesh = generate_mesh("sphere", 20, 15)
    decomp, sketch, assignment, projections = _stage(mesh, 0.3)
    fm = _build_face_maps(decomp, sketch)
    i = 14
    (r,) = assignment.patch_reps[14]
    assert projections[14][r] == (0.0, 0.0)
    d1, _d2 = _wedge_dirs(cone_fan(0.3), 0)
    cross_term = d1[0] * fm.seg_y[i, 0] - d1[1] * fm.seg_x[i, 0]
    assert 0.0 < abs(cross_term) < 1e-15 and fm.seg_x[i, 0] > 1.0
    _check_cone_tests(mesh, 0.3)


def _one_face(corners, neighbors=None, hops=()):
    """Face arrays of synthetic faces: `corners` is a list of polygons (lists
    of float pairs), `hops` per face a list of (face row, (m00, m01, m10,
    m11, t0, t1))."""
    k = max(len(c) for c in corners)
    xs, ys = np.zeros((len(corners), k)), np.zeros((len(corners), k))
    corner = np.zeros((len(corners), k), dtype=bool)
    nxt = np.zeros((len(corners), k), dtype=np.int64)
    for i, poly in enumerate(corners):
        xs[i, :len(poly)], ys[i, :len(poly)] = np.array(poly, dtype=np.float64).T
        corner[i, :len(poly)] = True
        nxt[i, :len(poly)] = np.roll(np.arange(len(poly)), -1)
    seg_x, seg_y = np.take_along_axis(xs, nxt, 1) - xs, np.take_along_axis(ys, nxt, 1) - ys
    centre = np.array([np.array(poly).mean(axis=0) for poly in corners])
    radius = np.array([float(norm(np.array(poly) - c).max()) for poly, c in zip(corners, centre)])
    hops = list(hops) or [[] for _ in corners]
    return spanner._FaceMaps(
        xs, ys, corner, nxt, seg_x, seg_y, seg_x * seg_x + seg_y * seg_y,
        np.where(corner, 0, NO_NEIGHBOR) if neighbors is None else neighbors,
        centre[:, 0], centre[:, 1], radius, np.zeros((len(corners), 3, 3)),
        np.r_[0, np.cumsum([len(h) for h in hops])],
        np.array([f for h in hops for f, _m in h], dtype=np.int64),
        np.array([m for h in hops for _f, m in h], dtype=np.float64).reshape(-1, 6).T.copy())


def _boundary_case(fm, apex, c, fan, snap):
    # the array pass and the float loop on one cone of face 0
    d1, d2 = _wedge_dirs(fan, c)
    found, x, y, edge = spanner._boundary_points(fm, np.array([0]), np.array([apex[0]]),
                                                 np.array([apex[1]]), np.array([[*d1, *d2]]),
                                                 snap)
    edges = [((a0, a1), (s0, s1), sq) for a0, a1, s0, s1, sq in zip(
        fm.xs[0].tolist(), fm.ys[0].tolist(), fm.seg_x[0].tolist(), fm.seg_y[0].tolist(),
        fm.seg_sq[0].tolist())][:int(fm.corner[0].sum())]
    want = _reference_nearest_boundary_point_in_wedge(edges, apex, d1, d2, snap)
    got = ((float(x[0]), float(y[0])), int(edge[0])) if found[0] else None
    assert repr(got) == repr(want)
    return got


def test_boundary_pass_keeps_pythons_max_on_a_negative_zero():
    # the edge from (-0.0, 0) to (0.5, 1) starts on cone 0's lower ray, so
    # t_cross is -0.0 / 1 = -0.0; Python's max(0.0, -0.0) keeps 0.0, and the
    # apex (-1, 0) lies behind the edge's start, so the nearest point is at
    # t0 and its x is -0.0 + t0 * 0.5: 0.0 for t0 = 0.0, -0.0 for -0.0
    fan, snap = cone_fan(math.pi / 2), 1e-9
    fm = _one_face([[(-0.0, 0.0), (0.5, 1.0), (3.0, 1.0)]])
    got = _boundary_case(fm, (-1.0, 0.0), 0, fan, snap)
    assert got[1] == 0 and got[0] == (0.0, 0.0) and math.copysign(1.0, got[0][0]) == 1.0
    # np.maximum keeps the -0.0 in this case, so it would give the other bit
    assert math.copysign(1.0, float(np.maximum(0.0, -0.0 / 1.0))) == -1.0


@pytest.mark.parametrize("below", [0.0, 0.5e-9, 2e-9])
def test_boundary_pass_on_edges_exactly_along_a_wedge_ray(below):
    # edges exactly parallel to cone 0's lower ray (|dc| = 0): on the ray or
    # within snap below it the edge stays, farther below it is dropped
    fan, snap = cone_fan(math.pi / 2), 1e-9
    fm = _one_face([[(1.0, -below), (2.0, -below), (2.0, 1.0), (1.0, 1.0)]])
    got = _boundary_case(fm, (0.0, 0.0), 0, fan, snap)
    assert got[1] == (0 if below < snap else 3)


def test_search_dedupes_a_face_before_testing_its_reps():
    # faces 1 and 2 both abut the start face 0, and face 3 abuts both; in
    # BFS level 2 face 3 is reached through face 1 first, where its rep lies
    # below the wedge, and then through face 2, whose map lifts the rep into
    # it. The first path visits face 3, so the second is never tested and
    # the answer is False, as in the float loop
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    shift = [(x + 2.0, y) for x, y in square]
    ident, up = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0), (1.0, 0.0, 0.0, 1.0, 0.0, 0.5)
    hops = [[(1, (1.0, 0.0, 0.0, 1.0, 1.0, 0.0)), (2, (1.0, 0.0, 0.0, 1.0, 1.0, 0.0))],
            [(3, ident)], [(3, up)], []]
    fm = _one_face([square, square, square, shift], hops=hops)
    reps = (np.array([0, 0, 0, 0, 1]), np.array([2.5]), np.array([0.2]))
    fan, snap = cone_fan(math.pi / 2), 1e-9
    apex, (d1, d2) = (0.5, 0.5), _wedge_dirs(fan, 0)
    hit, pairs = spanner._search_cones(fm, reps, np.array([0]), np.array([0.5]),
                                       np.array([0.5]), np.array([[*d1, *d2]]), snap)
    # the float loop on the same faces
    ref = {i: _ReferenceFaceMaps((fm.xs[i, :4].tolist(), fm.ys[i, :4].tolist()), None,
                                 [(f, (m[:2], m[2:4]), m[4:]) for f, m in hops[i]],
                                 (float(fm.cx[i]), float(fm.cy[i])), float(fm.radius[i]), [])
           for i in range(4)}
    reps_xy = {3: ([2.5], [0.2])}
    want = _reference_extended_cone_hits_rep(_reference_unfolding_root(ref[0], 0), apex, d1, d2,
                                             ref, reps_xy, snap)
    assert hit.tolist() == [want] == [False]
    assert pairs == 4  # faces 1 and 2, then face 3 twice
    # through face 2 alone the rep lies in the wedge
    ref[1].hops = []
    assert _reference_extended_cone_hits_rep(_reference_unfolding_root(ref[0], 0), apex, d1,
                                             d2, ref, reps_xy, snap)


def test_rep_distance_keeps_numpy_hypot():
    # the search measures a rep's distance with np.hypot on arrays, which
    # gives the bits of np.hypot on the float loop's scalars; math.hypot
    # may round differently on some hosts, so neither path uses it
    rng = np.random.default_rng(11)
    rx, ry = rng.normal(size=(2, 50_000)) * np.exp(rng.uniform(-20, 5, size=(2, 50_000)))
    arrays = np.hypot(rx, ry)
    scalars = [float(np.hypot(x, y)) for x, y in zip(rx.tolist(), ry.tolist())]
    assert arrays.tolist() == scalars


def test_cone_tests_over_several_blocks_match_one_block(monkeypatch):
    # no (cones, corners) block of the boundary pass, (cones, faces) block
    # of the search or (children, corners) run of a search level holds more
    # than _CONE_PAIRS values, every cone is decided once, and a small cap
    # splits the pass into several blocks with the same placement
    mesh = generate_mesh("sphere", 200, 0)
    stage = _stage(mesh, 0.3)
    want_nodes, want_positions = place_steiner_points(mesh, *stage, 0.3)
    boundary, search, meets = spanner._boundary_block, spanner._search_block, spanner._meets_wedge
    for cap, several in ((spanner._CONE_PAIRS, False), (1 << 9, True)):
        monkeypatch.setattr(spanner, "_CONE_PAIRS", cap)
        bounds, searches, clips = [], [], []

        def recording_boundary(fm, rows, *args):
            bounds.append((len(rows), 3 * fm.xs.shape[1]))
            return boundary(fm, rows, *args)

        def recording_search(fm, reps, rows, *args):
            searches.append((len(rows), len(fm.xs)))
            return search(fm, reps, rows, *args)

        def recording_meets(fm, faces, *args):
            clips.append((len(faces), fm.xs.shape[1]))
            return meets(fm, faces, *args)

        monkeypatch.setattr(spanner, "_boundary_block", recording_boundary)
        monkeypatch.setattr(spanner, "_search_block", recording_search)
        monkeypatch.setattr(spanner, "_meets_wedge", recording_meets)
        stats = {}
        nodes, positions = place_steiner_points(mesh, *stage, 0.3, stats)
        assert [(nd.kind, nd.patches, nd.marked, nd.lift3d.tobytes()) for nd in nodes] == [
            (nd.kind, nd.patches, nd.marked, nd.lift3d.tobytes()) for nd in want_nodes]
        assert positions == want_positions
        assert sum(b for b, _k in bounds) == stats["empty_cones"]
        assert sum(b for b, _f in searches) == stats["cone_searches"]
        assert all(b * k <= cap for b, k in bounds + searches + clips)
        if several:
            assert len(bounds) > 2 and len(searches) > 2


def _reference_nearest_edge_point(P, q, face_ids):
    # the snap on float rows, one edge at a time in (face, k) order, with
    # Python's clamp and the first nearest edge
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


def _all_faces_cast(P, point, inward):
    # the exact cast of one point over (F, 3) arrays, every array rebuilt
    # per call: which faces accept the ray, their distances and their hits
    snap = P.snap
    denom = dot(P.face_normals, inward)
    numer = dot(P.face_normals, point) - P.face_offsets
    with np.errstate(divide="ignore", invalid="ignore"):
        ts = np.where(np.abs(denom) > 1e-15, numer / denom, np.inf)
        finite = np.isfinite(ts)
        qs = point[None, :] - np.where(finite, ts, 0.0)[:, None] * inward[None, :]
    tri = P.vertices[P.faces]
    inside = finite.copy()
    for k in range(3):
        u = tri[:, k]
        v = tri[:, (k + 1) % 3]
        side = dot(np.stack(cross(v - u, qs - u), axis=1), P.face_normals)
        inside &= side >= -snap * np.maximum(1.0, norm(v - u))
    return inside & np.isfinite(ts) & (ts >= -snap), ts, qs


def _all_faces_lift(P, point, inward):
    ok, ts, qs = _all_faces_cast(P, point, inward)
    if not ok.any():
        return _reference_nearest_edge_point(P, point, range(P.num_faces))
    fi = int(np.flatnonzero(ok)[np.argmin(ts[ok])])
    return _reference_nearest_edge_point(P, qs[fi], [fi])


def _check_steiner_lift(n, seed, eps):
    # the placement's lifts, batched in capped blocks, equal a lift of each
    # point alone over (F, 3) arrays
    mesh = generate_mesh("sphere", n, seed)
    decomp, sketch, assignment, projections = _stage(mesh, eps)
    nodes, positions = place_steiner_points(mesh, decomp, sketch, assignment, projections, eps)
    steiner = [node for node in nodes if node.kind == "steiner"]
    assert steiner
    points, inward = [], []
    for node in steiner:
        patch = decomp.patches[node.patches[0]]
        # the sketch point the build lifted, by the build's own call
        points.append(np.array(patch.to_3d(positions[node.id][patch.id])))
        inward.append(patch.gamma.normal)
    again, pairs = _lift_steiner(mesh, np.array(points), np.array(inward))
    assert len(steiner) <= pairs < len(steiner) * mesh.num_faces
    for node, q3, normal, (lift, marked) in zip(steiner, points, inward, again):
        want, want_marked = _all_faces_lift(mesh, q3, normal)
        assert want.tobytes() == node.lift3d.tobytes() == lift.tobytes()
        assert want_marked == node.marked == marked
    return len(steiner)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_steiner_lift_matches_all_faces_lift(seed):
    _check_steiner_lift(100, seed, 0.4)


def test_steiner_lift_over_several_blocks_matches_all_faces_lift(monkeypatch):
    # at n = 600 the points span several pre-test blocks, and no (points,
    # faces) array of the pre-test holds more than _LIFT_PAIRS values; the
    # exact cast takes whole points, at most _LIFT_PAIRS pairs at a time,
    # in one run under the default cap and in several under a cap of 2^11
    sphere_pairs, lift_block = spanner._sphere_pairs, spanner._lift_block
    for cap in (spanner._LIFT_PAIRS, 1 << 11):
        monkeypatch.setattr(spanner, "_LIFT_PAIRS", cap)
        tests, casts = [], []

        def recording_test(spheres, points, inward):
            tests.append((len(points), len(spheres[1])))
            return sphere_pairs(spheres, points, inward)

        def recording_cast(P, normals, sides, points, inward, rows, faces):
            casts.append((len(points), len(rows)))
            return lift_block(P, normals, sides, points, inward, rows, faces)

        monkeypatch.setattr(spanner, "_sphere_pairs", recording_test)
        monkeypatch.setattr(spanner, "_lift_block", recording_cast)
        count = _check_steiner_lift(600, 0, 0.8)
        # the build's lift and the check's own, each over all the points
        assert len(tests) > 2 and sum(b for b, _f in tests) == 2 * count
        assert all(0 < b * f <= cap for b, f in tests)
        assert sum(b for b, _k in casts) == 2 * count
        assert all(k <= cap for _b, k in casts)
        assert len(casts) == 2 if cap > 1 << 11 else len(casts) > 2


def test_lift_falls_back_to_all_faces_when_the_ray_misses(monkeypatch):
    # a point beside the polytope, cast along its patch normal, meets no
    # face sphere; it lifts to the nearest edge point over all faces, and
    # the points around it in its block lift as they would alone
    mesh = generate_mesh("sphere", 100, 1)
    decomp, _sketch, _assignment, _projections = _stage(mesh, 0.4)
    patch = decomp.patches[0]
    far = np.array(patch.frame_origin) + 3.0 * np.array(patch.frame_u)
    near = mesh.vertices[mesh.faces[patch.rep_face]].mean(axis=0)
    searched = []
    nearest = spanner._nearest_edge_point

    def recording(P, q, faces):
        searched.append(faces)
        return nearest(P, q, faces)

    monkeypatch.setattr(spanner, "_nearest_edge_point", recording)
    lifts, _pairs = _lift_steiner(mesh, np.array([near, far, near]),
                                  np.array([patch.gamma.normal] * 3))
    # the two hits in one batch, each on its face's three edges, then the
    # miss on every edge of every face
    assert [f.shape for f in searched] == [(2, 1), (1, mesh.num_faces)]
    assert searched[1].tolist() == [list(range(mesh.num_faces))]
    for (got, got_marked), point in zip(lifts, (near, far, near)):
        want, want_marked = _all_faces_lift(mesh, point, patch.gamma.normal)
        assert got.tobytes() == want.tobytes() and got_marked == want_marked


def _check_lift_rays(mesh, points, inward):
    # every face the exact cast accepts passes the pre-test, and the batch
    # lifts each ray as the all-faces lift does alone
    points, inward = np.array(points), np.array(inward)
    spheres = spanner._face_spheres(mesh, float(norm(points).max()))
    rows, faces = spanner._sphere_pairs(spheres, points, inward)
    lifts, pairs = _lift_steiner(mesh, points, inward)
    assert pairs == len(rows)
    for r, (point, d, (lift, marked)) in enumerate(zip(points, inward, lifts)):
        accepted = set(np.flatnonzero(_all_faces_cast(mesh, point, d)[0]).tolist())
        assert accepted <= set(faces[rows == r].tolist())
        want, want_marked = _all_faces_lift(mesh, point, d)
        assert lift.tobytes() == want.tobytes() and marked == want_marked


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def _corner_ray(mesh, f, k, frac):
    # a ray along face f's normal through a point past its corner k, away
    # from the centroid, by frac of what the side tests let through
    tri = mesh.vertices[mesh.faces[f]]
    c = tri.sum(axis=0) / 3.0
    lengths = [float(np.linalg.norm(tri[(j + 1) % 3] - tri[j])) for j in range(3)]
    twice_area = float(np.linalg.norm(np.cross(tri[1] - tri[0], tri[2] - tri[0])))
    eta = min(mesh.snap * max(1.0, x) / twice_area for x in lengths)
    q = tri[k] + 3.0 * frac * eta * (tri[k] - c)
    return q + 0.5 * mesh.face_normals[f], mesh.face_normals[f]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(5, 40),
       stretch=st.tuples(*[st.floats(0.05, 20.0)] * 3),
       shift=st.tuples(*[st.floats(-100.0, 100.0)] * 3),
       kinds=st.lists(st.sampled_from(["random", "vertex", "edge", "along_edge", "corner"]),
                      min_size=1, max_size=8))
def test_lift_pretest_keeps_every_accepting_face(seed, n, stretch, shift, kinds):
    # random hulls (points on a stretched, shifted sphere), random rays,
    # rays through a vertex, across or along an edge, where several faces
    # accept and the face-id tie rule decides, and rays just past a face's
    # corner, within the side tests' snap
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True) * stretch + shift
    try:
        mesh = convex_hull_mesh(pts)
    except (PolytopeError, GeometryError, ValueError):
        assume(False)
    scale = float(np.ptp(mesh.vertices, axis=0).max())
    points, inward = [], []
    for kind in kinds:
        d = _unit(rng.normal(size=3))
        f = int(rng.integers(mesh.num_faces))
        u, v = (mesh.vertices[i] for i in mesh.faces[f][:2])
        if kind == "random":
            p = mesh.vertices.mean(axis=0) + scale * rng.uniform(-1.0, 1.0, size=3)
        elif kind == "vertex":
            p = u + scale * rng.uniform(0.1, 2.0) * d
        elif kind == "edge":
            p = (u + v) / 2.0 + scale * rng.uniform(0.1, 2.0) * d
        elif kind == "along_edge":
            d = _unit(u - v)
            p = u + scale * rng.uniform(0.0, 1.0) * d
        else:
            p, d = _corner_ray(mesh, f, int(rng.integers(3)), rng.uniform(0.0, 0.99))
        points.append(p)
        inward.append(d)
    _check_lift_rays(mesh, points, inward)


@pytest.mark.parametrize("case", ["corner", "grazing"])
def test_lift_pretest_keeps_pinned_rays(case):
    # corner: the hit lies past face 0's farthest corner by half of what the
    # side tests let through, so farther from the centroid than any corner;
    # grazing: a ray a hundredth of the snap below edge 0, perpendicular to
    # it, enters one of its faces and leaves by the other within the snap
    mesh = generate_mesh("sphere", 100, 1)
    if case == "corner":
        tri = mesh.vertices[mesh.faces[0]]
        c = tri.sum(axis=0) / 3.0
        k = int(np.argmax(np.linalg.norm(tri - c, axis=1)))
        p, d = _corner_ray(mesh, 0, k, 0.5)
        ok, ts, qs = _all_faces_cast(mesh, p, d)
        assert ok[0] and np.linalg.norm(qs[0] - c) > np.linalg.norm(tri - c, axis=1).max()
    else:
        (a, b), (f, g) = next(iter(mesh.edge_adjacency.items()))
        u, v = mesh.vertices[a], mesh.vertices[b]
        up = _unit(mesh.face_normals[f] + mesh.face_normals[g])
        d = _unit(np.cross(u - v, up))
        p = (u + v) / 2.0 - 0.01 * mesh.snap * up + 0.5 * d
        ok, ts, qs = _all_faces_cast(mesh, p, d)
        assert set(np.flatnonzero(ok).tolist()) == {f, g}
        assert abs(ts[f] - ts[g]) <= mesh.snap
    _check_lift_rays(mesh, [p], [d])


@pytest.mark.parametrize("kind", ["vertex", "random", "edge"])
def test_nearest_edge_point_matches_row_reference(kind):
    # the column snap over batches of points, each on its own faces, equals
    # the loop on float rows, bit for bit, marks included
    mesh = generate_mesh("sphere", 50, 0)
    rng = np.random.default_rng(7)
    faces = rng.integers(mesh.num_faces, size=(40, 3))
    ends = mesh.vertices[mesh.faces[faces[:, 0]]]
    if kind == "vertex":
        q = ends[:, 0]
    elif kind == "edge":
        q = ends[:, 0] + rng.uniform(0.0, 1.0, size=(40, 1)) * (ends[:, 1] - ends[:, 0])
    else:
        q = rng.normal(size=(40, 3))
    got = spanner._nearest_edge_point(mesh, q, faces)
    for qi, fi, (lift, marked) in zip(q, faces, got):
        want, want_marked = _reference_nearest_edge_point(mesh, qi, fi.tolist())
        assert lift.tobytes() == want.tobytes() and marked == want_marked


def test_nearest_edge_point_keeps_a_negative_zero():
    # at the tail of an edge whose direction is all negative, the edge
    # parameter is -0.0; Python's max(-0.0, 0.0) keeps it, and so the tail's
    # -0.0 coordinate turns +0.0 in a + t * seg
    from types import SimpleNamespace

    V = np.array([[1.0, -0.0, 0.0], [0.0, -1.0, -0.0], [0.0, 0.0, 1.0]])
    P = SimpleNamespace(vertices=V, faces=np.array([[0, 1, 2]]), snap=1e-9,
                        vertex_rows=V.tolist(), face_rows=[[0, 1, 2]])
    [(lift, marked)] = spanner._nearest_edge_point(P, V[:1], np.array([[0]]))
    want, want_marked = _reference_nearest_edge_point(P, V[0], [0])
    assert lift.tobytes() == want.tobytes() and marked == want_marked == (0, 0)
    assert not np.signbit(lift[1])
