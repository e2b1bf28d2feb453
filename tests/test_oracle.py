import itertools
import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from polyroute.cli import generate_mesh
from polyroute import oracle
from polyroute.oracle import build_subdivision_graph, estimate_D, stretch_sweep

from conftest import random_pairs


def _reference_edge_graph(P):
    # one (u, v) and one (v, u) entry per mesh edge, in edge order
    rows, cols, data = [], [], []
    for (u, v) in P.edges():
        w = P.edge_length(u, v)
        rows += [u, v]
        cols += [v, u]
        data += [w, w]
    return csr_matrix((data, (rows, cols)), shape=(P.n, P.n))


def _reference_subdivision_graph(P, m):
    # the points, then per face its corners and m nodes per edge, each face's
    # pairs once in triu order, each node pair kept from its first face
    edge_list = sorted(P.edges())
    edge_index = {e: i for i, e in enumerate(edge_list)}
    n = P.n
    points = [P.vertices]
    if m > 0:
        fracs = (np.arange(1, m + 1) / (m + 1.0))[None, :, None]
        a = P.vertices[[e[0] for e in edge_list]][:, None, :]
        b = P.vertices[[e[1] for e in edge_list]][:, None, :]
        points.append((a + fracs * (b - a)).reshape(-1, 3))
    pts = np.concatenate(points, axis=0)

    def edge_nodes(u, v):
        base = n + edge_index[(min(u, v), max(u, v))] * m
        return list(range(base, base + m))

    rows, cols = [], []
    for f in P.faces:
        ids = [int(f[0]), int(f[1]), int(f[2])]
        if m > 0:
            for k in range(3):
                ids += edge_nodes(int(f[k]), int(f[(k + 1) % 3]))
        ids_arr = np.asarray(ids, dtype=np.int64)
        iu, ju = np.triu_indices(len(ids_arr), k=1)
        rows.append(ids_arr[iu])
        cols.append(ids_arr[ju])
    r, c = np.concatenate(rows), np.concatenate(cols)
    key = np.minimum(r, c) * np.int64(len(pts)) + np.maximum(r, c)
    _uniq, first = np.unique(key, return_index=True)
    r, c = r[first], c[first]
    w = np.linalg.norm(pts[r] - pts[c], axis=1)
    matrix = csr_matrix((np.concatenate([w, w]), (np.concatenate([r, c]), np.concatenate([c, r]))),
                        shape=(len(pts), len(pts)))
    return pts, matrix


def _csr_arrays(g):
    return [(a.dtype.str, a.tobytes()) for a in (g.indptr, g.indices, g.data)]


@pytest.mark.parametrize("n", [20, 50, 300])
def test_edge_graph_matches_reference_loop(n, tetra, cube, octa):
    # the m = 0 graph is the mesh's edge graph, weighted by the edge lengths
    for P in (tetra, cube, octa, generate_mesh("sphere", n, 0)):
        graph = build_subdivision_graph(P, 0)
        assert _csr_arrays(graph.matrix) == _csr_arrays(_reference_edge_graph(P))


@pytest.mark.parametrize("n, ms", [(20, (0, 4, 16, 64)), (50, (0, 4, 16)), (300, (0, 4, 16))])
def test_subdivision_graph_matches_reference_loop(n, ms, tetra, cube, octa):
    for P in (tetra, cube, octa, generate_mesh("sphere", n, 0)):
        for m in ms:
            g = build_subdivision_graph(P, m)
            pts, matrix = _reference_subdivision_graph(P, m)
            assert g.points.tobytes() == pts.tobytes()
            assert _csr_arrays(g.matrix) == _csr_arrays(matrix)


def test_adjacent_vertices_edge_length(octa):
    graph = build_subdivision_graph(octa, 0)
    for (u, v) in octa.edges():
        assert graph.distance(u, v) == pytest.approx(octa.edge_length(u, v))


def test_octa_antipodal_edge_distance(octa):
    s = int(np.argmax(octa.vertices[:, 0]))
    t = int(np.argmin(octa.vertices[:, 0]))
    assert build_subdivision_graph(octa, 0).distance(s, t) == pytest.approx(2 * math.sqrt(2))


def test_same_vertex_zero(octa):
    for m in (0, 8):
        assert build_subdivision_graph(octa, m).distance(2, 2) == 0.0


def test_same_face_pairs_exact(tetra):
    for m in (0, 3, 9):
        graph = build_subdivision_graph(tetra, m)
        for u, v in itertools.combinations(range(4), 2):
            assert graph.distance(u, v) == pytest.approx(tetra.edge_length(u, v))


def test_cube_opposite_corners_geodesic(cube):
    v = cube.vertices
    s = int(np.argmin(v.sum(axis=1)))
    t = int(np.argmax(v.sum(axis=1)))
    got = build_subdivision_graph(cube, 32).distance(s, t)
    assert got >= math.sqrt(5) - 1e-12
    assert got <= math.sqrt(5) * 1.01


def test_m_zero_equals_edge_graph(sphere50):
    from scipy.sparse.csgraph import dijkstra

    graph = build_subdivision_graph(sphere50, 0)
    edges = dijkstra(_reference_edge_graph(sphere50), directed=False)
    for s, t in random_pairs(sphere50.n, 25, seed=2):
        assert graph.distance(s, t) == edges[s, t]


@pytest.mark.parametrize("m, stride", [(0, 1), (4, 1), (16, 24)])
def test_directed_searches_equal_undirected(sphere50, m, stride):
    # the oracle searches its symmetric matrices as directed graphs; from
    # every source (every 24th at m = 16) the distances are the undirected
    # search's, bit for bit
    from scipy.sparse.csgraph import dijkstra

    graph = build_subdivision_graph(sphere50, m)
    sources = range(0, len(graph.points), stride)
    want = dijkstra(graph.matrix, directed=False, indices=list(sources))
    got = np.array([graph.distances_from(s) for s in sources])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("m", [0, 4, 16])
def test_distances_equal_one_deduplicated_pair_list(sphere50, m):
    # the pairs taken once per mesh edge and per face, in blocks, give the
    # distances of the graph built from every face's pairs de-duplicated at
    # once, bit for bit, from every vertex
    from scipy.sparse.csgraph import dijkstra

    graph = build_subdivision_graph(sphere50, m)
    _pts, matrix = _reference_subdivision_graph(sphere50, m)
    want = dijkstra(matrix, directed=False, indices=list(range(sphere50.n)))
    got = np.array([graph.distances_from(s) for s in range(sphere50.n)])
    assert np.array_equal(got, want)


def test_estimate_D_formula(cube):
    assert cube.surface_area() == pytest.approx(6.0)
    want = math.sqrt(2 * 6.0 * 0.1 ** 3) * 1.2
    assert estimate_D(cube, 0.1) == pytest.approx(want)
    ball = generate_mesh("sphere", 400, 0)
    area = ball.surface_area()
    want = math.sqrt(2 * area * 0.5 ** 3) * 2.0
    assert estimate_D(ball, 0.5) == pytest.approx(want)


def test_estimate_D_vanishes_with_eps(cube):
    values = [estimate_D(cube, e) for e in (0.5, 0.2, 0.05, 0.01)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 0.02


def test_sandwich_and_monotonicity(sphere50):
    pairs = random_pairs(sphere50.n, 20, seed=7)
    graphs = {m: build_subdivision_graph(sphere50, m) for m in (0, 4, 16)}
    for s, t in pairs:
        euclid = float(np.linalg.norm(sphere50.vertices[s] - sphere50.vertices[t]))
        upper = graphs[0].distance(s, t)
        prev = math.inf
        for m in (0, 4, 16):
            d = graphs[m].distance(s, t)
            assert euclid - 1e-9 <= d <= upper + 1e-9
            assert d <= prev + 1e-9
            prev = d


def test_stretch_sweep_tetra_all_pairs(tetra_system):
    pairs = list(itertools.permutations(range(4), 2))
    report = stretch_sweep(tetra_system, pairs, m=8)
    assert len(report.rows) == len(pairs)
    for row in report.rows:
        assert row.ratio == pytest.approx(1.0)
        assert row.route_len <= row.bound


def test_stretch_sweep_octa_antipodal(octa_system):
    mesh = octa_system.P
    s = int(np.argmax(mesh.vertices[:, 0]))
    t = int(np.argmin(mesh.vertices[:, 0]))
    report = stretch_sweep(octa_system, [(s, t)], m=16)
    row = report.rows[0]
    assert row.route_len == pytest.approx(2 * math.sqrt(2))
    assert row.oracle_len < 2 * math.sqrt(2)
    assert row.ratio > 1.0
    assert row.route_len <= row.bound


def test_stretch_sweep_sphere_no_violations(sphere50_system):
    pairs = random_pairs(50, 60, seed=11)
    report = stretch_sweep(sphere50_system, pairs, m=8)
    assert report.violations == []


def test_stretch_sweep_bound_is_euclidean(sphere50_system):
    # the bound reads |st|, which is <= d(s, t) <= oracle_len, so it is
    # certain and never looser than one that reads the oracle; on a mesh
    # edge the oracle's path through the edge's nodes can sum to an ulp
    # below |st|, hence the rounding margin
    report = stretch_sweep(sphere50_system, random_pairs(50, 40, seed=5), m=4)
    factor = (8.0 + report.eps) / math.sin(report.theta_m)
    vertices = sphere50_system.P.vertices
    for row in report.rows:
        euclid = float(np.linalg.norm(vertices[row.s] - vertices[row.t]))
        assert row.euclid == euclid
        assert row.bound == factor * (report.D_hat + euclid)
        assert row.bound <= factor * (report.D_hat + row.oracle_len) * (1.0 + 1e-12)


def test_stretch_sweep_builds_one_subdivision_graph(sphere50_system, monkeypatch):
    # one graph, at m; no second, finer graph
    built = []
    build = oracle.build_subdivision_graph

    def counting(P, m):
        built.append(m)
        return build(P, m)

    monkeypatch.setattr(oracle, "build_subdivision_graph", counting)
    stretch_sweep(sphere50_system, random_pairs(50, 10, seed=0), m=4)
    assert built == [4]


def test_report_csv_shape(sphere50_system):
    pairs = random_pairs(50, 5, seed=0)
    report = stretch_sweep(sphere50_system, pairs, m=4)
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "pair_id,s,t,route_len,oracle_len,euclid,bound,ratio"
    assert len(lines) == 6
