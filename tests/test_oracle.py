import itertools
import math

import numpy as np
import pytest

from polyroute.cli import generate_mesh
from polyroute import router
from polyroute.oracle import (
    build_subdivision_graph,
    edge_dijkstra,
    estimate_D,
    stretch_sweep,
    subdivided_geodesic,
)
from polyroute.tables import deserialize, serialize

from conftest import random_pairs


def test_adjacent_vertices_edge_length(octa):
    for (u, v) in octa.edges():
        assert edge_dijkstra(octa, u, v) == pytest.approx(octa.edge_length(u, v))


def test_octa_antipodal_edge_distance(octa):
    s = int(np.argmax(octa.vertices[:, 0]))
    t = int(np.argmin(octa.vertices[:, 0]))
    assert edge_dijkstra(octa, s, t) == pytest.approx(2 * math.sqrt(2))


def test_same_vertex_zero(octa):
    assert edge_dijkstra(octa, 2, 2) == 0.0
    assert subdivided_geodesic(octa, 2, 2, 8) == 0.0


def test_same_face_pairs_exact(tetra):
    for m in (0, 3, 9):
        for u, v in itertools.combinations(range(4), 2):
            want = tetra.edge_length(u, v)
            assert subdivided_geodesic(tetra, u, v, m) == pytest.approx(want)


def test_cube_opposite_corners_geodesic(cube):
    v = cube.vertices
    s = int(np.argmin(v.sum(axis=1)))
    t = int(np.argmax(v.sum(axis=1)))
    got = subdivided_geodesic(cube, s, t, 32)
    assert got >= math.sqrt(5) - 1e-12
    assert got <= math.sqrt(5) * 1.01


def test_m_zero_equals_edge_graph(sphere50):
    graph = build_subdivision_graph(sphere50, 0)
    for s, t in random_pairs(sphere50.n, 25, seed=2):
        assert graph.distance(s, t) == pytest.approx(edge_dijkstra(sphere50, s, t))


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
        upper = edge_dijkstra(sphere50, s, t)
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
    assert report.mu >= 0.0


def test_stretch_sweep_times_routes_after_the_diameter(sphere50_system, monkeypatch):
    # a loaded mesh computes its diameter, for the snap, on first use; the
    # sweep pays for it before its first timed route
    system = deserialize(serialize(sphere50_system))
    assert system.P._diameter is None
    cached = []
    route = router.route

    def recording(s, t, system):
        cached.append(system.P._diameter is not None)
        return route(s, t, system)

    monkeypatch.setattr(router, "route", recording)
    stretch_sweep(system, random_pairs(50, 3, seed=0), m=4)
    assert cached == [True] * 3


def test_report_csv_shape(sphere50_system):
    pairs = random_pairs(50, 5, seed=0)
    report = stretch_sweep(sphere50_system, pairs, m=4)
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "pair_id,s,t,route_len,oracle_len,euclid,bound,ratio"
    assert len(lines) == 6
