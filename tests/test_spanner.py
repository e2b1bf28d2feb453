import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from polyroute import spanner
from polyroute.cli import generate_mesh
from polyroute.geometry import cross, dot, norm
from polyroute.patching import NO_NEIGHBOR, compute_patches, build_sketch, project_patch
from polyroute.sampling import build_grid, select_representatives
from polyroute.spanner import (
    _build_face_maps,
    _extended_cone_hits_rep,
    _lift_steiner,
    _nearest_edge_point,
    _polygon_meets_wedge,
    _unfolding_root,
    _wedge_dirs,
    assemble_global_spanner,
    build_spanner,
    build_theta_graph,
    cone_fan,
    dump_spanner,
    place_steiner_points,
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
        for u, v, w in build_theta_graph(pts, system.eps, node_ids=ids):
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
    # each face's reps as x and y coordinate lists, as the placement keeps them
    reps_xy = {pid: ([projections[pid][r][0] for r in rs],
                     [projections[pid][r][1] for r in rs])
               for pid, rs in assignment.patch_reps.items()}
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


def _all_faces_lift(P, point, inward):
    # the lift with every array rebuilt per call, over (F, 3) arrays
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
    ok = inside & np.isfinite(ts) & (ts >= -snap)
    if not ok.any():
        return _nearest_edge_point(P, point, range(P.num_faces))
    fi = int(np.flatnonzero(ok)[np.argmin(ts[ok])])
    return _nearest_edge_point(P, qs[fi], [fi])


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
    again = _lift_steiner(mesh, np.array(points), np.array(inward))
    for node, q3, normal, (lift, marked) in zip(steiner, points, inward, again):
        want, want_marked = _all_faces_lift(mesh, q3, normal)
        assert want.tobytes() == node.lift3d.tobytes() == lift.tobytes()
        assert want_marked == node.marked == marked
    return len(steiner)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_steiner_lift_matches_all_faces_lift(seed):
    _check_steiner_lift(100, seed, 0.4)


def test_steiner_lift_over_several_blocks_matches_all_faces_lift(monkeypatch):
    # at n = 600 the points span several blocks, and no (points, faces)
    # array of the lift holds more than _LIFT_PAIRS values
    blocks = []
    lift_block = spanner._lift_block

    def recording(P, normals, sides, points, inward):
        blocks.append((len(points), P.num_faces))
        return lift_block(P, normals, sides, points, inward)

    monkeypatch.setattr(spanner, "_lift_block", recording)
    count = _check_steiner_lift(600, 0, 0.8)
    # the build's lift and the check's own, each over all the points
    assert len(blocks) > 2 and sum(b for b, _f in blocks) == 2 * count
    assert all(0 < b * f <= spanner._LIFT_PAIRS for b, f in blocks)


def test_lift_falls_back_to_all_faces_when_the_ray_misses(monkeypatch):
    # a point beside the polytope, cast along its patch normal, meets no
    # face; it lifts to the nearest edge point over all faces, and the
    # points around it in its block lift as they would alone
    mesh = generate_mesh("sphere", 100, 1)
    decomp, _sketch, _assignment, _projections = _stage(mesh, 0.4)
    patch = decomp.patches[0]
    far = np.array(patch.frame_origin) + 3.0 * np.array(patch.frame_u)
    near = mesh.vertices[mesh.faces[patch.rep_face]].mean(axis=0)
    searched = []
    nearest = spanner._nearest_edge_point

    def recording(P, q, face_ids):
        searched.append(len(face_ids))
        return nearest(P, q, face_ids)

    monkeypatch.setattr(spanner, "_nearest_edge_point", recording)
    lifts = _lift_steiner(mesh, np.array([near, far, near]),
                          np.array([patch.gamma.normal] * 3))
    assert searched == [1, mesh.num_faces, 1]
    for (got, got_marked), point in zip(lifts, (near, far, near)):
        want, want_marked = _all_faces_lift(mesh, point, patch.gamma.normal)
        assert got.tobytes() == want.tobytes() and got_marked == want_marked
