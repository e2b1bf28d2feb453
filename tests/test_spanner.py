import math
from collections import deque

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
    _extended_cone_hits_rep,
    _lift_steiner,
    _nearest_boundary_point_in_wedge,
    _occupied_cones,
    _polygon_meets_wedge,
    _theta_edges,
    _unfolding_root,
    _wedge_dirs,
    assemble_global_spanner,
    build_spanner,
    build_theta_graph,
    cone_fan,
    dump_spanner,
    place_steiner_points,
    rep_nodes,
)

from conftest import routed_graph_positions


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
    fast = _polygon_meets_wedge((poly[:, 0].tolist(), poly[:, 1].tolist()), apex, d1, d2, snap)
    slow = _numpy_polygon_meets_wedge(poly, np.array(apex), np.array(d1), np.array(d2), snap)
    assert fast == slow


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
    # per face, its hops next to the edges (k, neighbour) they cross
    face_maps = _build_face_maps(decomp, sketch)
    by_pid = {f.patch_id: f for f in sketch.faces}
    for f in sketch.faces:
        kk = len(f.polygon2d)
        crossed = [(k, int(j)) for k, j in enumerate(f.neighbor_patch.tolist())
                   if j != NO_NEIGHBOR and j in by_pid]
        hops = face_maps[f.patch_id].hops
        assert [j for _k, j in crossed] == [j for j, _m2, _t2 in hops]
        for (k, j), (_j, m2, t2) in zip(crossed, hops):
            yield f, by_pid[j], k, (k + 1) % kk, np.array(m2), np.array(t2)


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


@pytest.mark.parametrize("mesh_seed, n", [(None, 50), (5, 200)])
def test_shared_unfolding_tree_matches_fresh_tree(sphere50, mesh_seed, n):
    # one tree shared by every (rep, cone) of a face answers as a tree built
    # afresh for each cone
    mesh = sphere50 if mesh_seed is None else generate_mesh("sphere", n, mesh_seed)
    eps = 0.3
    decomp, sketch, assignment, projections = _stage(mesh, eps)
    face_maps = _build_face_maps(decomp, sketch)
    reps_xy = _reps_xy(assignment, projections)
    snap = mesh.snap
    fan = cone_fan(eps)
    shared = {}
    hits = 0
    for r in assignment.reps:
        pid = int(decomp.owner_of_vertex[r])
        apex = projections[pid][r]
        root = shared.setdefault(pid, _unfolding_root(face_maps[pid], pid))
        for c in range(fan.count):
            d1, d2 = _wedge_dirs(fan, c)
            got = _extended_cone_hits_rep(root, apex, d1, d2, face_maps, reps_xy, snap)
            fresh = _extended_cone_hits_rep(_unfolding_root(face_maps[pid], pid), apex,
                                            d1, d2, face_maps, reps_xy, snap)
            assert got == fresh
            hits += got
    assert hits > 0


def _reference_cone_hits_rep(root, apex, d1, d2, face_maps, reps_xy, snap):
    """The cone search that tests a face's reps when it leaves the BFS queue."""
    ax, ay = apex
    (d1x, d1y), (d2x, d2y) = d1, d2
    visited = {root.pid}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        reps = node.reps if node.reps is not None else node.unfold_reps(reps_xy)
        if reps and spanner._reps_in_open_wedge(reps, apex, d1, d2, snap):
            return True
        for i, (nb, _em, _et) in enumerate(node.fm.hops):
            if nb in visited:
                continue
            child = node.children[i] or node.unfold(i, face_maps)
            cx, cy = child.center[0] - ax, child.center[1] - ay
            radius = child.fm.radius
            if d1x * cy - d1y * cx < -radius or d2x * cy - d2y * cx > radius:
                continue
            if _polygon_meets_wedge(child.poly or child.unfold_poly(), apex, d1, d2, snap):
                visited.add(nb)
                queue.append(child)
    return False


def _reps_xy(assignment, projections):
    # each face's reps as x and y coordinate lists, as the placement keeps them
    return {pid: ([projections[pid][r][0] for r in rs], [projections[pid][r][1] for r in rs])
            for pid, rs in assignment.patch_reps.items()}


@pytest.mark.parametrize("n", [50, 100, 200])
@pytest.mark.parametrize("eps", [0.3, 0.4])
def test_cone_search_matches_dequeue_time_reference(n, eps):
    # testing reps when a face is queued answers every (rep, empty cone) as
    # testing them when it leaves the queue; the cones of a face share one
    # tree, as in the placement
    mesh = generate_mesh("sphere", n, 0)
    decomp, sketch, assignment, projections = _stage(mesh, eps)
    face_maps = _build_face_maps(decomp, sketch)
    reps_xy = _reps_xy(assignment, projections)
    fan, snap = cone_fan(eps), mesh.snap
    trees = {}
    answers = []
    for r in assignment.reps:
        pid = int(decomp.owner_of_vertex[r])
        apex = projections[pid][r]
        root = trees.setdefault(pid, _unfolding_root(face_maps[pid], pid))
        occupied = _occupied_cones(fan, reps_xy[pid], apex, snap)
        for c in sorted(set(range(fan.count)) - occupied):
            d1, d2 = _wedge_dirs(fan, c)
            got = _extended_cone_hits_rep(root, apex, d1, d2, face_maps, reps_xy, snap)
            want = _reference_cone_hits_rep(_unfolding_root(face_maps[pid], pid), apex, d1, d2,
                                            face_maps, reps_xy, snap)
            assert got == want, (pid, apex, c)
            answers.append(got)
    assert True in answers and False in answers


def _search_first_placement(P, decomp, sketch, assignment, projections, eps):
    """The Steiner placement that runs the extension search first on every
    empty cone, then the boundary point, abutting face and crowding tests."""
    fan, snap = cone_fan(eps), P.snap
    face_maps = _build_face_maps(decomp, sketch)
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
        occupied = _occupied_cones(fan, reps_xy[pid], apex, snap)
        for c in range(fan.count):
            if c in occupied:
                continue
            d1, d2 = _wedge_dirs(fan, c)
            if not _reference_cone_hits_rep(_unfolding_root(fm, pid), apex, d1, d2, face_maps,
                                            reps_xy, snap):
                continue
            found = _nearest_boundary_point_in_wedge(fm.edges, apex, d1, d2, snap)
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
