import math
from dataclasses import dataclass

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
from polyroute.tables import preprocess_mesh
from polyroute.spanner import (
    EDGE_RECORD,
    DisconnectedSpanner,
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

from conftest import routed_graph_positions


def _stage(mesh, eps, delta=None):
    decomp = compute_patches(mesh, delta if delta is not None else eps)
    sketch = build_sketch(mesh, decomp, mesh.diameter())
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
    """The Theta-graph row by row: per node, the numpy distances, angles and
    bisector projections (`np.cos`) to all points of the face, then per
    cone the least (projection, node id, j)."""
    pts = np.asarray(points, dtype=np.float64)
    k = len(pts)
    if node_ids is None:
        node_ids = list(range(k))
    if k <= 1:
        return []
    fan = cone_fan(eps)
    bisectors = (np.arange(fan.count) + 0.5) * fan.width
    edges = {}
    for i in range(k):
        rel = pts - pts[i]
        dist_arr = np.hypot(rel[:, 0], rel[:, 1])
        ang_arr = np.mod(np.arctan2(rel[:, 1], rel[:, 0]), 2.0 * math.pi)
        snap = spanner.geometry.snap(float(dist_arr.max()))
        cones = [_reference_cone(fan, a) for a in ang_arr.tolist()]
        proj = (dist_arr * np.cos(ang_arr - bisectors[cones])).tolist()
        dist = dist_arr.tolist()
        best = {}
        for j, (d, c, p) in enumerate(zip(dist, cones, proj)):
            if j == i or d <= snap:
                continue
            cand = (p, node_ids[j], j)
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
    assert (g.edges["face"] == 0).all()


def test_empty_extension_no_steiner(octa):
    # single rep in the whole mesh: reps on one face leave no faces to join
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
    dist = _graph_distances([(u, v, w) for u, v, w, _f in g.edges.tolist()], g.num_nodes)
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
    for u, v, w, f in g.edges.tolist():
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
    assert g.edges.tobytes() == np.array(list(want.values()), dtype=EDGE_RECORD).tobytes()
    assert (g.edges["u"] < g.edges["v"]).all()
    assert len({(u, v) for u, v, _w, _f in g.edges.tolist()}) == len(g.edges)


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
    coordinate lists, the patch across each edge and, per edge, its start
    point, edge vector and squared length."""

    poly: tuple
    neighbors: np.ndarray
    edges: list


def _reference_face_maps(sketch):
    """Each sketch face's `_ReferenceFaceMaps` by patch id, one edge at a
    time with the float kernel."""
    maps = {}
    for f in sketch.faces:
        corners = f.polygon2d.tolist()
        kk = len(corners)
        edges = []
        for k in range(kk):
            (a0, a1), (b0, b1) = corners[k], corners[(k + 1) % kk]
            seg = (b0 - a0, b1 - a1)
            edges.append(((a0, a1), seg, dot(seg, seg)))
        maps[f.patch_id] = _ReferenceFaceMaps(tuple(f.polygon2d.T.tolist()), f.neighbor_patch,
                                              edges)
    return maps


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
            mid = (c + 0.5) * fan.width
            for t in (c * fan.width, mid - off, mid + off):
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
    assert got.dtype == EDGE_RECORD
    assert got.tobytes() == np.array(list(want.values()), dtype=EDGE_RECORD).tobytes()
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
    none = _theta_edges([], 0.4)
    assert none.dtype == EDGE_RECORD and none.shape == (0,)
    assert build_theta_graph([(1.0, 2.0), (1.0, 2.0 + 1e-12)], 0.4) == []


def test_theta_ties_go_to_the_lower_node_id():
    # per cone of the apex, three nodes at one point on the cone's bisector
    # and a mirror pair about it nearer the apex; the three tie exactly in
    # every term, so the apex row's pick in each cone is decided once, by
    # the projections and then the node ids, and the result is the per-row
    # reference's
    eps = 0.4
    fan = cone_fan(eps)
    pts = [(0.0, 0.0)]
    for c in range(fan.count):
        mid = (c + 0.5) * fan.width
        pts += [(2.0 * math.cos(mid), 2.0 * math.sin(mid))] * 3
        for t in (mid - 0.3 * fan.width, mid + 0.3 * fan.width):
            pts.append((math.cos(t), math.sin(t)))
    ids = [3 * i + 7 for i in range(len(pts))][::-1]
    assert build_theta_graph(pts, eps, ids) == _reference_theta_graph(pts, eps, ids)
    # with the mirror pairs moved past them, the three coincident nodes are
    # the nearest in their cone, and the apex row picks the lowest id of
    # the three
    far = np.array([(0.0, 0.0)] + [p if i % 5 < 3 else (4.0 * p[0], 4.0 * p[1])
                                   for i, p in enumerate(pts[1:])])
    k = len(far)
    _row, j, _d = spanner._theta_block(fan, far, np.array(ids), np.zeros(k, dtype=np.int64),
                                       np.full(k, k), 0, 1)
    assert sorted(ids[i] for i in j.tolist()) == sorted(
        min(ids[1 + 5 * c:4 + 5 * c]) for c in range(fan.count))


def _reps_xy(assignment, projections):
    # each face's reps as x and y coordinate lists, as the placement keeps them
    return {pid: ([projections[pid][r][0] for r in rs], [projections[pid][r][1] for r in rs])
            for pid, rs in assignment.patch_reps.items()}


def _per_cone_placement(P, decomp, sketch, assignment, projections, eps):
    """The Steiner placement as a loop over (rep, empty cone) on Python
    floats: the boundary point, abutting face and crowding tests, one cone
    at a time."""
    fan, snap = cone_fan(eps), P.snap
    face_maps = _reference_face_maps(sketch)
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
    # the array pass with the crowding loop places the nodes of the
    # per-cone float loop, bit for bit
    mesh = generate_mesh("sphere", n, 0)
    stage = _stage(mesh, eps)
    stats = {}
    nodes, positions = place_steiner_points(mesh, *stage, eps, stats)
    want_nodes, want_positions = _per_cone_placement(mesh, *stage, eps)

    def fields(ns):
        return [(nd.id, nd.kind, nd.patches, nd.vertex, nd.marked, nd.lift3d.tobytes())
                for nd in ns]

    assert fields(nodes) == fields(want_nodes)
    assert positions == want_positions
    assert stats["steiner_nodes"] == sum(nd.kind == "steiner" for nd in nodes) > 0
    assert stats["steiner_nodes"] < stats["empty_cones"]


def _check_cone_tests(mesh, eps):
    """The placement's array pass against the per-cone float references on
    every (rep, empty cone) of the mesh: the empty cones, the boundary
    point's bits, its edge and the abutting face; the face arrays against
    the reference face maps."""
    stage = _stage(mesh, eps)
    decomp, sketch, assignment, projections = stage
    fan, snap = cone_fan(eps), mesh.snap
    fm = _build_face_maps(decomp, sketch)
    ref = _reference_face_maps(sketch)
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
    reps_xy = _reps_xy(assignment, projections)
    nodes = rep_nodes(mesh, decomp, assignment.reps)
    positions = [{nd.patches[0]: projections[nd.patches[0]][nd.vertex]} for nd in nodes]
    tests = spanner._cone_tests(fm, spanner._face_reps(fm, assignment, projections), fan,
                                nodes, positions, snap)
    got = [(apex, c, (x.hex(), y.hex(), edge, nb) if found else None)
           for apex, c, found, x, y, edge, nb in zip(
               tests.apex.tolist(), tests.cone.tolist(), tests.found.tolist(),
               tests.qx.tolist(), tests.qy.tolist(), tests.edge.tolist(), tests.nb.tolist())]
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
            want.append((nd.id, c, (x.hex(), y.hex(), edge, int(ref[pid].neighbors[edge]))))
    assert got == want


@settings(max_examples=25, deadline=None)
@given(n=st.integers(20, 200), seed=st.integers(0, 2 ** 32 - 1), eps=st.sampled_from([0.3, 0.4]))
def test_cone_tests_match_per_cone_references(n, seed, eps):
    try:
        mesh = generate_mesh("sphere", n, seed)
    except (PolytopeError, GeometryError, ValueError):
        assume(False)
    _check_cone_tests(mesh, eps)


# hulls that raise DisconnectedSpanner (sphere, n, seed, eps)
_CUT_OFF_HULLS = ([(100, 19, 0.4), (50, 26, 0.3)]
                  + [(20, s, 0.3) for s in (3, 11, 15, 17, 23, 40, 51, 53, 84, 85, 92)]
                  + [(20, s, 0.4) for s in (46, 60, 62, 97)])


def test_cone_tests_match_per_cone_references_on_cut_off_hulls():
    for n, seed, eps in _CUT_OFF_HULLS:
        _check_cone_tests(generate_mesh("sphere", n, seed), eps)


@pytest.mark.parametrize("eps", [0.3, 0.4])
def test_small_hulls_are_cut_off_only_where_known(eps):
    # over the n = 20 hulls of seeds 0-99 every hull whose spanner is
    # disconnected is a known one: a new one fails the test, a mended one
    # does not
    known = {seed for n, seed, e in _CUT_OFF_HULLS if (n, e) == (20, eps)}
    cut_off = set()
    for seed in range(100):
        try:
            preprocess_mesh(generate_mesh("sphere", 20, seed), eps)
        except DisconnectedSpanner:
            cut_off.add(seed)
    assert cut_off <= known


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


def _one_face(corners, neighbors=None):
    """Face arrays of synthetic faces: `corners` is a list of polygons (lists
    of float pairs)."""
    k = max(len(c) for c in corners)
    xs, ys = np.zeros((len(corners), k)), np.zeros((len(corners), k))
    corner = np.zeros((len(corners), k), dtype=bool)
    nxt = np.zeros((len(corners), k), dtype=np.int64)
    for i, poly in enumerate(corners):
        xs[i, :len(poly)], ys[i, :len(poly)] = np.array(poly, dtype=np.float64).T
        corner[i, :len(poly)] = True
        nxt[i, :len(poly)] = np.roll(np.arange(len(poly)), -1)
    seg_x, seg_y = np.take_along_axis(xs, nxt, 1) - xs, np.take_along_axis(ys, nxt, 1) - ys
    return spanner._FaceMaps(
        xs, ys, corner, seg_x, seg_y, seg_x * seg_x + seg_y * seg_y,
        np.where(corner, 0, NO_NEIGHBOR) if neighbors is None else neighbors,
        np.zeros((len(corners), 3, 3)))


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


def test_rep_distance_keeps_numpy_hypot():
    # the occupied-cone test measures a rep's distance with np.hypot on
    # arrays, which
    # gives the bits of np.hypot on the float loop's scalars; math.hypot
    # may round differently on some hosts, so neither path uses it
    rng = np.random.default_rng(11)
    rx, ry = rng.normal(size=(2, 50_000)) * np.exp(rng.uniform(-20, 5, size=(2, 50_000)))
    arrays = np.hypot(rx, ry)
    scalars = [float(np.hypot(x, y)) for x, y in zip(rx.tolist(), ry.tolist())]
    assert arrays.tolist() == scalars


def test_cone_tests_over_several_blocks_match_one_block(monkeypatch):
    # no (cones, corners) block of the boundary pass holds more than
    # _CONE_PAIRS values, every cone is decided once, and a small cap splits
    # the pass into several blocks with the same placement
    mesh = generate_mesh("sphere", 200, 0)
    stage = _stage(mesh, 0.3)
    want_nodes, want_positions = place_steiner_points(mesh, *stage, 0.3)
    boundary = spanner._boundary_block
    for cap, several in ((spanner._CONE_PAIRS, False), (1 << 9, True)):
        monkeypatch.setattr(spanner, "_CONE_PAIRS", cap)
        bounds = []

        def recording_boundary(fm, rows, *args):
            bounds.append((len(rows), 3 * fm.xs.shape[1]))
            return boundary(fm, rows, *args)

        monkeypatch.setattr(spanner, "_boundary_block", recording_boundary)
        stats = {}
        nodes, positions = place_steiner_points(mesh, *stage, 0.3, stats)
        assert [(nd.kind, nd.patches, nd.marked, nd.lift3d.tobytes()) for nd in nodes] == [
            (nd.kind, nd.patches, nd.marked, nd.lift3d.tobytes()) for nd in want_nodes]
        assert positions == want_positions
        assert sum(b for b, _k in bounds) == stats["empty_cones"]
        assert all(b * k <= cap for b, k in bounds)
        if several:
            assert len(bounds) > 2


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
