import math

import numpy as np
import pytest

from polyroute.cli import generate_mesh
from polyroute.geometry import corner_angle
from polyroute.polytope import (
    NonConvex,
    NonTriangular,
    NotClosed,
    compute_theta_m,
    dual_graph,
    load_off,
    save_off,
)

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


def test_vertex_fans_are_cyclic(sphere50):
    for v in range(sphere50.n):
        fan = sphere50.vertex_fan[v]
        assert len(fan) == len(set(fan))
        assert len(fan) == len(sphere50.neighbors[v])
