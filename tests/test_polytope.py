import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyroute.cli import convex_hull_mesh, generate_mesh
from polyroute.geometry import DegenerateFace, corner_angle, norm, sub
from polyroute.polytope import (
    NonConvex,
    NonTriangular,
    NotClosed,
    ParseError,
    compute_theta_m,
    dual_graph,
    from_arrays,
    load_off,
    save_off,
)

from conftest import other_face

TETRA_OFF = """OFF
4 4 6
1 1 1
1 -1 -1
-1 1 -1
-1 -1 1
3 0 1 2
3 0 3 1
3 0 2 3
3 1 3 2
"""

CUBE_QUAD_OFF = """OFF
8 6 12
0 0 0
1 0 0
1 1 0
0 1 0
0 0 1
1 0 1
1 1 1
0 1 1
4 0 3 2 1
4 4 5 6 7
4 0 1 5 4
4 1 2 6 5
4 2 3 7 6
4 3 0 4 7
"""


def test_load_tetra():
    P = load_off(TETRA_OFF)
    assert P.n == 4
    assert P.num_faces == 4
    assert P.num_edges == 6


def test_quad_faces_rejected():
    with pytest.raises(NonTriangular):
        load_off(CUBE_QUAD_OFF)


def test_nonconvex_rejected():
    # push the octahedron apex through the opposite (equatorial) plane so
    # the mesh keeps its face list but a vertex leaves a supporting
    # half-space; four points alone always hull convexly, so the dent needs
    # n >= 5 to be observable
    octa = generate_mesh("octa")
    verts = octa.vertices.copy()
    top = int(np.argmax(verts[:, 2]))
    verts[top] = [0.0, 0.0, -0.5]
    body = ["OFF", f"{octa.n} {octa.num_faces} {octa.num_edges}"]
    body += [f"{v[0]} {v[1]} {v[2]}" for v in verts]
    body += [f"3 {f[0]} {f[1]} {f[2]}" for f in octa.faces]
    with pytest.raises(NonConvex):
        load_off("\n".join(body))


@pytest.mark.parametrize("shift", [0.0, 1e4])
def test_dented_cube_rejected_wherever_it_sits(shift):
    # the unit cube with its top face split at a centre vertex: bulged out
    # by 1e-5 it loads, sunk by 1e-5 it is refused, and shifted by
    # (1e4, 0, 0) alike, since the slack follows the bounding box's
    # diagonal, not the largest coordinate
    corners = [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
    bulged = convex_hull_mesh(np.array(corners + [[0.5, 0.5, 1.0 + 1e-5]]))
    top = int(np.argmax(bulged.vertices[:, 2]))
    verts = bulged.vertices + [shift, 0.0, 0.0]
    assert from_arrays(verts, bulged.faces).n == 9
    verts[top, 2] = 1.0 - 1e-5
    with pytest.raises(NonConvex):
        from_arrays(verts, bulged.faces)


def test_open_mesh_rejected():
    text = """OFF
4 1 3
0 0 0
1 0 0
0 1 0
0 0 1
3 0 1 2
"""
    with pytest.raises(NotClosed):
        load_off(text)


def test_negative_face_count_rejected():
    with pytest.raises(ParseError):
        load_off(TETRA_OFF.replace("4 4 6", "4 -1 0"))


def test_counts_beyond_the_body_rejected_before_allocating():
    # a 10**7-vertex header would take 240 MB of coordinates; the 4-vertex
    # body below it cannot hold them, so nothing that size is allocated
    text = TETRA_OFF.replace("4 4 6", f"{10**7} 4 6")
    tracemalloc.start()
    try:
        with pytest.raises(ParseError):
            load_off(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_dual_graph_tetra_is_k4(tetra):
    adj = dual_graph(tetra)
    assert len(adj) == 4
    assert all(len(a) == 3 for a in adj)
    assert all(set(a) == set(range(4)) - {i} for i, a in enumerate(adj))


def test_dual_graph_octa(octa):
    adj = dual_graph(octa)
    assert len(adj) == 8
    assert sum(len(a) for a in adj) // 2 == 12


def test_dual_graph_cube(cube):
    adj = dual_graph(cube)
    assert len(adj) == 12
    assert sum(len(a) for a in adj) // 2 == 18


def test_theta_m_tetra(tetra):
    metrics = compute_theta_m(tetra)
    assert metrics.theta_m == pytest.approx(math.pi / 6)
    assert math.sin(metrics.theta_m) == pytest.approx(0.5)


def test_theta_m_cube(cube):
    assert compute_theta_m(cube).theta_m == pytest.approx(math.pi / 8)


def test_theta_m_octa(octa):
    assert compute_theta_m(octa).theta_m == pytest.approx(math.pi / 6)


def test_theta_m_readings_agree(sphere50):
    # the per-face reading equals the vertex-fan reading, taken here from the
    # corner of each face at every vertex of its fan
    metrics = compute_theta_m(sphere50)
    fan_min = min(
        corner_angle(sphere50.vertices[sphere50.faces[fi]],
                     int(np.where(sphere50.faces[fi] == v)[0][0]))
        for v in range(sphere50.n) for fi in sphere50.vertex_fan[v]
    )
    assert metrics.theta_m == 0.5 * fan_min
    assert metrics.theta_m <= math.pi / 6 + 1e-12


def test_euler_and_convexity_on_random_hulls():
    for seed in range(4):
        P = generate_mesh("sphere", 40, seed)
        assert P.n - P.num_edges + P.num_faces == 2
        dists = P.vertices @ P.face_normals.T - P.face_offsets[None, :]
        assert dists.max() <= 1e-9


def test_dual_graph_three_regular_connected(sphere50):
    adj = dual_graph(sphere50)
    assert all(len(a) == 3 for a in adj)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    assert len(seen) == len(adj)


def test_off_roundtrip(sphere50):
    again = load_off(save_off(sphere50))
    assert np.allclose(again.vertices, sphere50.vertices)
    assert np.array_equal(again.faces, sphere50.faces)


def test_off_with_comments_and_crlf_matches_plain(octa):
    text = save_off(octa)
    noisy = "# an octahedron\r\n" + text.replace("\n", "  # a comment\r\n", 3)
    again, plain = load_off(noisy), load_off(text)
    assert again.vertices.tobytes() == plain.vertices.tobytes()
    assert np.array_equal(again.faces, plain.faces)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 120),
       scale=st.sampled_from([1.0, 1e3, 1e6]))
def test_off_roundtrip_is_bit_exact_on_random_hulls(seed, n, scale):
    # numpy's string parse of the %.17g tokens has the bits of float()
    P = convex_hull_mesh(np.random.default_rng(seed).normal(size=(n, 3)) * scale)
    again = load_off(save_off(P))
    assert again.vertices.tobytes() == P.vertices.tobytes()
    assert again.faces.tobytes() == P.faces.tobytes()


def _edited_off(P, vertex: str | None = None, face: str | None = None) -> str:
    """The OFF text of P with the line of vertex 0 or of face 2 replaced."""
    lines = save_off(P).splitlines()
    if vertex is not None:
        lines[2] = vertex
    if face is not None:
        lines[2 + P.n + 2] = face
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("vertex, face, match", [
    ("0 1 x", None, "bad vertex 0: could not convert string to float: 'x'"),
    (None, "3 0 1 y", "bad face 2: invalid literal for int"),
    (None, f"3 0 1 {2**63}", "bad face 2: .*too large"),
    (None, "3 0 1 99", "face 2 references vertex out of range"),
    (None, "3 0 1 -1", "face 2 references vertex out of range"),
    (None, "3 0 1 1", "face 2 repeats a vertex"),
], ids=["float", "int", "int64_overflow", "id_past_n", "negative_id", "repeated_id"])
def test_load_off_refuses_bad_tokens_and_face_ids(octa, vertex, face, match):
    with pytest.raises(ParseError, match=match):
        load_off(_edited_off(octa, vertex, face))


def test_load_off_names_the_first_non_triangular_face(octa):
    with pytest.raises(NonTriangular, match="face 2 has 4 vertices"):
        load_off(_edited_off(octa, face="4 0 1 2 3"))


@pytest.mark.parametrize("rows, match", [
    ({2: [0, 1, 99]}, "face 2 references vertex out of range"),
    ({2: [0, 1, -1]}, "face 2 references vertex out of range"),
    ({2: [0, 1, 1]}, "face 2 repeats a vertex"),
    ({1: [3, 3, 3], 2: [0, 1, 99]}, "face 1 repeats a vertex"),
    ({1: [0, 1, 99], 2: [0, 1, 1]}, "face 1 references vertex out of range"),
], ids=["id_past_n", "negative_id", "repeated_id", "repeat_first", "range_first"])
def test_from_arrays_gates_face_rows(octa, rows, match):
    # the first bad face in face order, with no IndexError and no NotClosed
    # (a -1 would wrap to the last vertex)
    faces = octa.faces.copy()
    for i, row in rows.items():
        faces[i] = row
    with pytest.raises(ParseError, match=match):
        from_arrays(octa.vertices, faces)


@pytest.mark.parametrize("shape", [(4, 2), (12,), (4, 4)],
                         ids=["two_columns", "flat", "four_columns"])
def test_from_arrays_refuses_a_vertex_array_not_n_by_3(tetra, shape):
    # refused at the gate, not by the kernel's unpack as a bare ValueError
    with pytest.raises(ParseError, match=r"vertices array must be \(n, 3\)"):
        from_arrays(np.resize(tetra.vertices, shape), tetra.faces)


def test_from_arrays_refuses_a_uint64_id_past_int64(octa):
    # it wraps to a negative int64 id, which the gate refuses
    faces = octa.faces.astype(np.uint64)
    faces[2, 2] = 2**63
    with pytest.raises(ParseError, match="face 2 references vertex out of range"):
        from_arrays(octa.vertices, faces)


def test_vertex_fans_are_cyclic(sphere50):
    for v in range(sphere50.n):
        fan = sphere50.vertex_fan[v]
        assert len(fan) == len(set(fan))
        assert len(fan) == len(sphere50.neighbors[v])


@pytest.fixture(scope="module")
def hulls300():
    return [generate_mesh("sphere", 300, seed) for seed in range(5)]


def _reference_fans(P):
    # the O(n * F) construction: scan all faces for the vertex's first face,
    # then walk across the radial edge (v, next) back to it
    faces = P.faces.tolist()
    fans = {}
    for v in range(P.n):
        start = next(fi for fi, f in enumerate(faces) if v in f)
        fan = [start]
        while True:
            f = faces[fan[-1]]
            nxt = other_face(P, fan[-1], v, f[(f.index(v) + 1) % 3])
            if nxt == start:
                break
            assert nxt not in fan
            fan.append(nxt)
        fans[v] = fan
    return fans


def test_vertex_fans_match_reference_scan(tetra, cube, octa, sphere50, hulls300):
    for P in [tetra, cube, octa, sphere50, *hulls300]:
        assert list(P.vertex_fan.items()) == list(_reference_fans(P).items())


def _reference_layer(P):
    # the dict-based construction: one edge -> faces map filled face by
    # face, the neighbour sets from its keys, the lengths over its keys' ends
    edge_faces = {}
    for fi, (a, b, c) in enumerate(P.faces.tolist()):
        for u, v in ((a, b), (b, c), (c, a)):
            edge_faces.setdefault((min(u, v), max(u, v)), []).append(fi)
    assert all(len(fl) == 2 for fl in edge_faces.values())
    edges = {k: (fl[0], fl[1]) for k, fl in edge_faces.items()}
    ends = np.fromiter(itertools.chain.from_iterable(edges), dtype=np.int64,
                       count=2 * len(edges)).reshape(-1, 2)
    V = P.vertices
    lengths = dict(zip(edges, norm([V[ends[:, 0], k] - V[ends[:, 1], k]
                                    for k in range(3)]).tolist()))
    nbrs = {i: set() for i in range(P.n)}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return edges, lengths, {v: sorted(s) for v, s in nbrs.items()}, _reference_fans(P)


def _assert_layer_matches_reference(P):
    got = (P.edge_adjacency, P.edge_lengths, P.neighbors, P.vertex_fan)
    for mine, ref in zip(got, _reference_layer(P)):
        assert list(mine.items()) == list(ref.items())


def test_mesh_layer_matches_reference(tetra, cube, octa, sphere50, hulls300):
    for P in [tetra, cube, octa, sphere50, *hulls300]:
        _assert_layer_matches_reference(P)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 80))
def test_mesh_layer_matches_reference_on_random_hulls(seed, n):
    # each hull also given with every face reversed, so the inward -> flip
    # path builds the layer from the same faces
    P = convex_hull_mesh(np.random.default_rng(seed).normal(size=(n, 3)))
    for faces in (P.faces, P.faces[:, ::-1]):
        Q = from_arrays(P.vertices, faces)
        assert np.array_equal(Q.faces, P.faces)
        _assert_layer_matches_reference(Q)


def test_flipped_face_rejected(tetra):
    # one reversed face repeats the half-edges of its three neighbours
    faces = tetra.faces.copy()
    faces[0] = faces[0, ::-1]
    with pytest.raises(ParseError, match="repeated half-edge"):
        from_arrays(tetra.vertices, faces)


def test_two_disjoint_tetrahedra_rejected(tetra):
    # every half-edge has its reverse, but V - E + F = 8 - 12 + 8 = 4
    verts = np.vstack([tetra.vertices, tetra.vertices + 10.0])
    faces = np.vstack([tetra.faces, tetra.faces + tetra.n])
    with pytest.raises(NotClosed, match="Euler characteristic is 4"):
        from_arrays(verts, faces)


def test_unreferenced_vertex_rejected():
    # the tetrahedron on vertices 1-4 plus an inner vertex 0 that no face uses
    text = """OFF
5 4 6
0.1 0.1 0.1
1 1 1
1 -1 -1
-1 1 -1
-1 -1 1
3 1 2 3
3 1 4 2
3 1 3 4
3 2 4 3
"""
    with pytest.raises(NotClosed):
        load_off(text)


def test_non_manifold_vertex_rejected(octa):
    # a second octahedron on copies of the first's equator, sharing only its
    # two apexes: every edge bounds two faces and the Euler characteristic is
    # 2, but each apex has two separate fans of four faces
    apexes = [int(np.argmax(octa.vertices[:, 2])), int(np.argmin(octa.vertices[:, 2]))]
    copy_of = {v: v if v in apexes else octa.n + v for v in range(octa.n)}
    verts = np.vstack([octa.vertices, octa.vertices])
    faces = np.vstack([octa.faces, [[copy_of[v] for v in f] for f in octa.faces.tolist()]])
    keep = [v for v in range(2 * octa.n) if v - octa.n not in apexes]
    remap = {old: new for new, old in enumerate(keep)}
    faces = np.array([[remap[v] for v in f] for f in faces.tolist()])
    with pytest.raises(NotClosed, match="non-manifold"):
        from_arrays(verts[keep], faces)


def test_theta_m_is_half_the_smallest_corner_angle(tetra, cube, octa, sphere50, hulls300):
    for P in [tetra, cube, octa, sphere50, *hulls300]:
        smallest = min(corner_angle(P.vertices[f], k) for f in P.faces for k in range(3))
        assert compute_theta_m(P).theta_m == 0.5 * smallest


def test_theta_m_rejects_sliver_face():
    # d sits 1e-10 off the middle of edge ab: a valid tetrahedron whose face
    # abd has a corner angle too flat to measure
    verts = np.array([[0.0, 0, 0], [100.0, 0, 0], [50.0, 1e-10, 0], [50.0, 50, 50]])
    P = from_arrays(verts, np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]]))
    with pytest.raises(DegenerateFace):
        corner_angle(verts[[0, 1, 2]], 2)
    with pytest.raises(DegenerateFace):
        compute_theta_m(P)


def test_diameter_matches_all_pairs(sphere50, hulls300):
    for P in [sphere50, *hulls300]:
        v = P.vertices
        d2 = ((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=2)
        assert P.diameter() == float(np.sqrt(d2.max()))


def test_edge_length_table_has_kernel_bits(sphere50):
    # the table is built over the columns of all edges at once; each entry,
    # read in either order, has the bits of the per-edge kernel call
    for P in (sphere50, generate_mesh("sphere", 600, 0)):
        rows = P.vertex_rows
        for u, v in P.edges():
            want = norm(sub(rows[u], rows[v])).hex()
            assert P.edge_length(u, v).hex() == want
            assert P.edge_length(v, u).hex() == norm(sub(rows[v], rows[u])).hex() == want
        assert P.edge_lengths.keys() == P.edge_adjacency.keys()


def test_large_mesh_load_memory_is_bounded():
    # an n x n x 3 or n x F temporary at n=6400 alone would be 0.7-1 GB
    hull = generate_mesh("sphere", 6400, 0)
    tracemalloc.start()
    try:
        P = from_arrays(hull.vertices, hull.faces)
        compute_theta_m(P)
        P.diameter()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200e6
