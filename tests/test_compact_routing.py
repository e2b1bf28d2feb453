import itertools
import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from polyroute.compact_routing import (
    materialize_plane_entries,
    prune_intra_face,
    tz_next_hop,
    tz_preprocess,
    tz_route_nodes,
)
from polyroute.spanner import DisconnectedSpanner, SpannerNode, spanner_graph


def synthetic_graph(num_nodes, edges, patch_of=None):
    """Abstract weighted graph dressed as a spanner graph for scheme tests:
    each node pair once, as (min, max), with the weight of its first edge."""
    if patch_of is None:
        patch_of = {i: i for i in range(num_nodes)}
    nodes = [
        SpannerNode(
            id=i, kind="rep", patches=(patch_of[i],), lift3d=np.zeros(3), vertex=i,
        )
        for i in range(num_nodes)
    ]
    tagged = {}
    for u, v, w in edges:
        a, b = min(u, v), max(u, v)
        tagged.setdefault((a, b), (a, b, float(w), patch_of[u]))
    return spanner_graph(nodes, list(tagged.values()))


def graph_distances(g):
    n = g.num_nodes
    if not g.edges:
        return np.zeros((n, n))
    rows = [u for u, v, w, f in g.edges] + [v for u, v, w, f in g.edges]
    cols = [v for u, v, w, f in g.edges] + [u for u, v, w, f in g.edges]
    wts = [w for u, v, w, f in g.edges] * 2
    return dijkstra(csr_matrix((wts, (rows, cols)), shape=(n, n)), directed=False)


def walk_length(g, walk):
    wdict = {}
    for u, v, w, _f in g.edges:
        wdict[(u, v)] = w
        wdict[(v, u)] = w
    return sum(wdict[(walk[i], walk[i + 1])] for i in range(len(walk) - 1))


def check_stretch_exhaustive(g, limit=3.0):
    scheme = tz_preprocess(g)
    dist = graph_distances(g)
    worst = 0.0
    for a, b in itertools.permutations(range(g.num_nodes), 2):
        walk = tz_route_nodes(scheme, a, b)
        length = walk_length(g, walk)
        assert length <= limit * dist[a, b] + 1e-9
        if dist[a, b] > 0:
            worst = max(worst, length / dist[a, b])
    return worst


def test_single_node_graph():
    g = synthetic_graph(1, [])
    scheme = tz_preprocess(g)
    assert scheme.landmarks == [0]
    assert scheme.exact_next[0] == {}


def test_path_graph_stretch():
    edges = [(i, i + 1, 1.0) for i in range(8)]
    worst = check_stretch_exhaustive(synthetic_graph(9, edges))
    assert worst <= 3.0


def test_star_graph_exact():
    edges = [(0, i, 1.0) for i in range(1, 9)]
    g = synthetic_graph(9, edges)
    scheme = tz_preprocess(g)
    dist = graph_distances(g)
    for a, b in itertools.permutations(range(9), 2):
        walk = tz_route_nodes(scheme, a, b)
        assert walk_length(g, walk) == pytest.approx(dist[a, b])


def test_weighted_random_graph_stretch():
    rng = np.random.default_rng(3)
    n = 40
    edges = [(i, (i + 1) % n, float(rng.uniform(0.5, 2.0))) for i in range(n)]
    extra = {(int(rng.integers(n)), int(rng.integers(n))) for _ in range(50)}
    for u, v in extra:
        if u != v and (u, v) not in {(a, b) for a, b, _ in edges}:
            edges.append((u, v, float(rng.uniform(0.2, 3.0))))
    check_stretch_exhaustive(synthetic_graph(n, edges))


def test_disconnected_rejected():
    # two components, {0, 1} and {2, 3}
    g = synthetic_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(DisconnectedSpanner):
        tz_preprocess(g)


def test_ball_members_closer_than_landmark():
    edges = [(i, i + 1, 1.0) for i in range(20)]
    g = synthetic_graph(21, edges)
    scheme = tz_preprocess(g)
    dist = graph_distances(g)
    dist_to_set = dist[scheme.landmarks].min(axis=0)
    for x, table in scheme.exact_next.items():
        for t in table:
            assert dist[x, t] < dist_to_set[t]


def test_prune_same_face_entries():
    # first half of a path shares patch 7, second half shares patch 9
    patch_of = {i: (7 if i < 4 else 9) for i in range(8)}
    g = synthetic_graph(8, [(i, i + 1, 1.0) for i in range(7)], patch_of=patch_of)
    scheme = tz_preprocess(g)

    def same_face_entries():
        return [
            (x, t)
            for x, table in scheme.exact_next.items()
            for t in table
            if set(g.nodes[x].patches) & set(g.nodes[t].patches)
        ]

    cross_before = [
        (x, t)
        for x, table in scheme.exact_next.items()
        for t in table
        if not (set(g.nodes[x].patches) & set(g.nodes[t].patches))
    ]
    assert same_face_entries()
    prune_intra_face(scheme, g)
    assert same_face_entries() == []
    for ell, table in scheme.landmark_full_next.items():
        for t in table:
            assert not (set(g.nodes[ell].patches) & set(g.nodes[t].patches))
    # cross-face entries survive the prune
    for x, t in cross_before:
        assert t in scheme.exact_next[x]


def test_prune_matches_shared_patch_rule(sphere50_system):
    # Steiner nodes lie on two sketch faces; the prune drops exactly the
    # entries whose two nodes share a face, as a patch-set intersection does
    g = sphere50_system.graph
    assert any(len(n.patches) == 2 for n in g.nodes)
    scheme = tz_preprocess(g)

    def share(x, t):
        return bool(set(g.nodes[x].patches) & set(g.nodes[t].patches))

    want = [{x: {t: hop for t, hop in table.items() if not share(x, t)}
             for x, table in group.items()}
            for group in (scheme.exact_next, scheme.landmark_full_next)]
    assert want != [scheme.exact_next, scheme.landmark_full_next]
    prune_intra_face(scheme, g)
    assert [scheme.exact_next, scheme.landmark_full_next] == want


def test_total_entries_scaling(sphere50_system, sphere100):
    from polyroute.tables import preprocess_mesh

    sys100 = preprocess_mesh(sphere100, 0.3)
    c = 0.0
    for system in (sphere50_system,):
        n_nodes = system.graph.num_nodes
        c = max(c, system.scheme.entry_count() / n_nodes ** 1.5)
    n_nodes = sys100.graph.num_nodes
    assert sys100.scheme.entry_count() <= 4.0 * c * n_nodes ** 1.5


def test_hop_faces_are_edge_faces(sphere50_system):
    # every next hop stored in the scheme is a key of the hop faces, and its
    # face is its spanner edge's face, a sketch face both endpoints lie on
    system = sphere50_system
    g, scheme = system.graph, system.scheme
    edge_faces = {(u, v): f for u, v, _w, f in g.edges}
    hops = {(min(x, w), max(x, w))
            for group in (scheme.exact_next, scheme.to_landmark_next,
                          scheme.landmark_full_next)
            for x, table in group.items() for w in table.values()}
    assert hops
    for key in hops:
        face = system.hop_faces[key]
        assert face == edge_faces[key]
        assert face in g.nodes[key[0]].patches and face in g.nodes[key[1]].patches
    assert materialize_plane_entries(g) == system.hop_faces == edge_faces


def test_label_bit_length_scaling(sphere50_system):
    system = sphere50_system
    g = system.graph
    labels = [system.label_of_vertex(t) for t in range(system.P.n)]
    n_cells = max(lb.cell for lb in labels) + 2
    for lb in labels:
        bits = lb.bit_length(g.num_nodes, len(system.scheme.landmarks),
                             system.decomp.count, n_cells)
        cap = math.log2(min(system.P.n, 1.0 / system.eps)) + 1
        assert bits <= 16 * cap * cap


def test_next_hops_are_neighbours(sphere50_system):
    g = sphere50_system.graph
    scheme = sphere50_system.scheme
    nbrs = {u: set() for u in range(g.num_nodes)}
    for u, v, _w, _f in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    for x, table in scheme.exact_next.items():
        for t, hop in table.items():
            assert hop in nbrs[x]
    for x, table in scheme.to_landmark_next.items():
        for _ell, hop in table.items():
            assert hop in nbrs[x]
    for ell, table in scheme.landmark_full_next.items():
        for _t, hop in table.items():
            assert hop in nbrs[ell]
