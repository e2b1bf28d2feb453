import itertools
import math

import numpy as np
import pytest
import scipy.sparse.csgraph
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from polyroute import compact_routing
from polyroute.compact_routing import (
    landmark_trees,
    materialize_plane_entries,
    prune_intra_face,
    spanner_csr,
    tz_next_hop,
    tz_preprocess,
    tz_route_nodes,
)
from polyroute.spanner import EDGE_RECORD, DisconnectedSpanner, SpannerNode, spanner_graph


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
    return spanner_graph(nodes, np.array(list(tagged.values()), dtype=EDGE_RECORD))


def graph_distances(g):
    n = g.num_nodes
    if not len(g.edges):
        return np.zeros((n, n))
    edges = g.edges.tolist()
    rows = [u for u, v, w, f in edges] + [v for u, v, w, f in edges]
    cols = [v for u, v, w, f in edges] + [u for u, v, w, f in edges]
    wts = [w for u, v, w, f in edges] * 2
    return dijkstra(csr_matrix((wts, (rows, cols)), shape=(n, n)), directed=False)


def walk_length(g, walk):
    wdict = {}
    for u, v, w, _f in g.edges.tolist():
        wdict[(u, v)] = w
        wdict[(v, u)] = w
    return sum(wdict[(walk[i], walk[i + 1])] for i in range(len(walk) - 1))


def reference_scheme(g):
    """The scheme from one all-pairs search: the balls by their rule, and
    per landmark the next hop toward it and its first hop toward every node
    read off its tree, as dicts keyed by node id. Returns (landmarks, home,
    exact_next, to_landmark_next, landmark_full_next), the balls and full
    maps not yet pruned."""
    nodes = list(range(g.num_nodes))
    N = len(nodes)
    edges = g.edges.tolist()
    us = [u for u, _v, _w, _f in edges]
    vs = [v for _u, v, _w, _f in edges]
    wts = [w for _u, _v, w, _f in edges] * 2
    mat = csr_matrix((wts, (us + vs, vs + us)), shape=(N, N))
    k = math.ceil(math.sqrt(N))
    degree = np.diff(mat.indptr).tolist()
    landmarks = sorted(sorted(nodes, key=lambda u: (-degree[u], u))[:k])
    dist, pred = dijkstra(mat, directed=False, return_predecessors=True)
    lm = np.asarray(landmarks)
    set_dist = dist[lm].min(axis=0)
    home = {u: int(lm[dist[lm].argmin(axis=0)[u]]) for u in nodes}
    to_landmark_next = {u: {} for u in nodes}
    landmark_full_next = {}
    for ell in landmarks:
        up = pred[ell].tolist()
        landmark_full_next[ell] = {}
        for u in nodes:
            if u == ell:
                continue
            to_landmark_next[u][ell] = up[u]
            # the first hop is u's ancestor just below ell; walking up the
            # tree, not down it in order of distance, also holds where a
            # weight vanishes in the sum and a child ties its parent
            first = u
            while up[first] != ell:
                first = up[first]
            landmark_full_next[ell][u] = first
    exact_next = {u: {} for u in nodes}
    # x is in t's ball if t's row puts it nearer than r(t); landmarks hold none
    inside = (dist < set_dist[:, None]).T
    np.fill_diagonal(inside, False)
    inside[lm] = False
    for x, t in zip(*np.nonzero(inside)):
        exact_next[int(x)][int(t)] = int(pred[t, x])
    return landmarks, home, exact_next, to_landmark_next, landmark_full_next


def share_face(g, x, t):
    return bool(set(g.nodes[x].patches) & set(g.nodes[t].patches))


def assert_matches_reference(g):
    """The derived landmark half equals the reference's, and the balls equal
    the reference's without the pairs that share a face."""
    scheme = tz_preprocess(g)
    landmarks, home, exact_next, to_landmark_next, full_next = reference_scheme(g)
    N = g.num_nodes
    assert scheme.landmarks == landmarks
    assert scheme.home == [home[u] for u in range(N)]
    assert scheme.exact_next == {
        x: {t: hop for t, hop in table.items() if not share_face(g, x, t)}
        for x, table in exact_next.items()}
    assert {u: {ell: scheme.to_landmark[ell][u] for ell in landmarks if ell != u}
            for u in range(N)} == to_landmark_next
    assert all(scheme.to_landmark[ell][ell] == -1 for ell in landmarks)
    assert {ell: {t: hop for t, hop in enumerate(scheme.first_hop[ell]) if hop >= 0}
            for ell in landmarks} == full_next
    assert all(scheme.first_hop[ell][ell] == -1 for ell in landmarks)


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
    g = synthetic_graph(9, edges)
    worst = check_stretch_exhaustive(g)
    assert worst <= 3.0
    assert_matches_reference(g)  # equal distances: ties for home and trees


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
    g = synthetic_graph(n, edges)
    check_stretch_exhaustive(g)
    assert_matches_reference(g)


@pytest.mark.parametrize("n, eps, seed", [(50, 0.3, 0), (100, 0.4, 5), (200, 0.3, 0)],
                         ids=["sphere50", "hull100", "fine200_size"])
def test_landmark_half_matches_all_pairs_reference(n, eps, seed):
    # the derived half rests on scipy's predecessor ties in a search from
    # each landmark matching those of the all-pairs search
    from polyroute.cli import generate_mesh
    from polyroute.tables import preprocess_mesh

    system = preprocess_mesh(generate_mesh("sphere", n, seed), eps)
    g = system.graph
    assert_matches_reference(g)
    # the built scheme is the reference's, pruned
    _landmarks, _home, exact_next, _to_landmark, full_next = reference_scheme(g)
    assert system.scheme.exact_next == {
        x: {t: hop for t, hop in table.items() if not share_face(g, x, t)}
        for x, table in exact_next.items()}
    assert {ell: {t: hop for t, hop in enumerate(row) if hop >= 0}
            for ell, row in system.scheme.first_hop.items()} == {
        ell: {t: hop for t, hop in table.items() if not share_face(g, ell, t)}
        for ell, table in full_next.items()}


def with_hubs(core_nodes, edges, anchor, hubs, leaves=3):
    """Append a chain of hubs, each with `leaves` leaves, hanging 10 away
    from node `anchor`, so that the landmarks (the highest degrees) fall on
    the hubs and on whichever core nodes have more neighbours than 2."""
    edges, n, prev = list(edges), core_nodes, anchor
    for _ in range(hubs):
        hub, n = n, n + 1
        edges.append((prev, hub, 10.0))
        for _ in range(leaves):
            edges.append((hub, n, 1.0))
            n += 1
        prev = hub
    return synthetic_graph(n, edges)


def record_searches(monkeypatch):
    """Record every Dijkstra search run from here on as (sources, whether it
    returns predecessors, distances returned)."""
    searches, real = [], scipy.sparse.csgraph.dijkstra

    def search(*args, **kwargs):
        out = real(*args, **kwargs)
        dist = out[0] if isinstance(out, tuple) else out
        searches.append((np.asarray(kwargs.get("indices")).tolist(),
                         bool(kwargs.get("return_predecessors")), dist.size))
        return out

    monkeypatch.setattr(scipy.sparse.csgraph, "dijkstra", search)
    return searches


def assert_hops_stay_in_ball(g, scheme):
    """Every ball entry's next hop p is t, holds an entry for t, is a
    landmark, or shares a face with t: t's tree closes the ball under
    prefixes in floating point."""
    landmarks = set(scheme.landmarks)
    for x, table in scheme.exact_next.items():
        for t, p in table.items():
            assert (p == t or t in scheme.exact_next[p] or p in landmarks
                    or share_face(g, p, t))


def test_balls_read_the_last_bit_from_the_target_side(monkeypatch):
    # t = 0. Landmark x = 3 lies on the path t-b-a-x with weights 1, 1e-16,
    # 1e-16: summed from x the tiny weights add up and round 1 up an ulp,
    # summed from t they vanish. Node y = 6 lies on t-c-e-y with the same
    # weights the other way round.
    t, x, y = 0, 3, 6
    core = [(0, 1, 1.0), (1, 2, 1e-16), (2, 3, 1e-16),
            (0, 4, 1e-16), (4, 5, 1e-16), (5, 6, 1.0),
            (3, 7, 1.0), (3, 8, 1.0), (3, 9, 1.0)]
    g = with_hubs(10, core, x, hubs=5)
    d = graph_distances(g)
    scheme = tz_preprocess(g)
    assert x in scheme.landmarks and scheme.home[t] == x
    assert not (set(range(7)) - {x}) & set(scheme.landmarks)
    r = d[scheme.landmarks, t].min()
    assert r == d[x, t] == 1.0 + 2 ** -52 and d[t, x] == 1.0
    assert d[y, t] == 1.0 and d[t, y] == r
    # t's search puts x nearer than r, but x is a landmark, so it holds no
    # entry; it puts y at r, so y is outside though y's own search puts it
    # nearer; y's neighbour e = 5 is inside. Every search is from a target
    # or a landmark and returns predecessors
    searches = record_searches(monkeypatch)
    scheme = tz_preprocess(g)
    assert t not in scheme.exact_next[x]
    assert t not in scheme.exact_next[y] and scheme.exact_next[5][t] == 4
    assert scheme.exact_next[2][t] == 1 and scheme.exact_next[1][t] == t
    assert searches and all(with_pred for _sources, with_pred, _size in searches)
    assert tz_route_nodes(scheme, y, t) == [y, 5, 4, t]
    assert_hops_stay_in_ball(g, scheme)
    assert_matches_reference(g)


def test_balls_with_exact_ties_read_the_target_row(monkeypatch):
    # integer weights: the landmark ell = 0 and the plain node x = 4 are
    # both 2 from t = 2 on the path ell-p-t-q-x, so x ties r(t) exactly
    ell, t, x = 0, 2, 4
    core = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0),
            (0, 5, 1.0), (0, 6, 1.0), (0, 7, 1.0)]
    g = with_hubs(8, core, ell, hubs=4)
    scheme = tz_preprocess(g)
    assert ell in scheme.landmarks and x not in scheme.landmarks
    assert scheme.home[t] == ell
    searches = record_searches(monkeypatch)
    scheme = tz_preprocess(g)
    assert t not in scheme.exact_next[x]
    assert scheme.exact_next[1][t] == t and scheme.exact_next[3][t] == t
    assert searches and all(with_pred for _sources, with_pred, _size in searches)
    assert_hops_stay_in_ball(g, scheme)
    assert_matches_reference(g)


_WEIGHTS = st.one_of(st.sampled_from([1e-16, 1e-8, 0.5, 1.0, 2.0, 10.0]),
                     st.floats(-16.0, 1.0).map(lambda e: 10.0 ** e))


@st.composite
def random_graphs(draw):
    """A random spanning tree plus random chords, weights from 1e-16 to 10:
    ties, last-bit asymmetries and landmarks at exactly r(t) all occur."""
    n = draw(st.integers(2, 60), label="n")
    edges = [(i, draw(st.integers(0, i - 1)), draw(_WEIGHTS)) for i in range(1, n)]
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), _WEIGHTS),
                           max_size=2 * n), label="chords")
    return synthetic_graph(n, [e for e in edges if e[0] != e[1]])


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_balls_match_reference_on_random_graphs(g):
    assert_matches_reference(g)


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_ball_hops_stay_in_the_ball_on_random_graphs(g):
    assert_hops_stay_in_ball(g, tz_preprocess(g))


def test_ball_hops_stay_in_the_ball_on_sphere50(sphere50_system):
    # Steiner nodes lie on two faces, so same-face hops occur here
    assert_hops_stay_in_ball(sphere50_system.graph, sphere50_system.scheme)


def test_ball_searches_stay_within_a_block(monkeypatch):
    # no N x N array: every Dijkstra search of the build runs from given
    # sources and returns at most _BLOCK rows of N distances
    from polyroute.cli import generate_mesh
    from polyroute.tables import preprocess_mesh

    mesh = generate_mesh("sphere", 200, 0)
    searches = record_searches(monkeypatch)
    system = preprocess_mesh(mesh, 0.3)
    N, block = system.graph.num_nodes, compact_routing._BLOCK
    assert len(searches) > 2
    for sources, _with_pred, size in searches:
        assert isinstance(sources, list) and 0 < len(sources) <= block
        assert size == len(sources) * N <= block * N


def test_disconnected_rejected():
    # two components, {0, 1} and {2, 3}
    g = synthetic_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(DisconnectedSpanner):
        tz_preprocess(g)
    with pytest.raises(DisconnectedSpanner):
        landmark_trees(g, spanner_csr(4, [0, 2], [1, 3], [1.0, 1.0]))


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
    # the balls by their distance rule alone, from the reference
    full = reference_scheme(g)[2]

    def same_face_entries(balls):
        return [
            (x, t)
            for x, table in balls.items()
            for t in table
            if set(g.nodes[x].patches) & set(g.nodes[t].patches)
        ]

    cross_before = [
        (x, t)
        for x, table in full.items()
        for t in table
        if not (set(g.nodes[x].patches) & set(g.nodes[t].patches))
    ]
    assert same_face_entries(full)
    scheme = tz_preprocess(g)
    assert same_face_entries(scheme.exact_next) == []
    prune_intra_face(scheme, g)
    assert same_face_entries(scheme.exact_next) == []
    for ell, row in scheme.first_hop.items():
        for t, hop in enumerate(row):
            assert (hop < 0) == share_face(g, ell, t)
    # cross-face entries survive the mask and the prune
    for x, t in cross_before:
        assert t in scheme.exact_next[x]


def test_prune_matches_shared_patch_rule(sphere50_system):
    # Steiner nodes lie on two sketch faces; the balls leave out, and the
    # prune then drops the first hops of, exactly the pairs whose two nodes
    # share a face, as a patch-set intersection does
    g = sphere50_system.graph
    assert any(len(n.patches) == 2 for n in g.nodes)
    full = reference_scheme(g)[2]
    scheme = tz_preprocess(g)

    want = [{x: {t: hop for t, hop in table.items() if not share_face(g, x, t)}
             for x, table in full.items()},
            {ell: [-1 if share_face(g, ell, t) else hop for t, hop in enumerate(row)]
             for ell, row in scheme.first_hop.items()}]
    assert want[0] != full and want[1] != scheme.first_hop
    assert scheme.exact_next == want[0]
    prune_intra_face(scheme, g)
    assert [scheme.exact_next, scheme.first_hop] == want
    # after the prune: no first hop toward a node that shares a face with
    # the landmark, one toward every other node
    for ell, row in scheme.first_hop.items():
        assert [hop < 0 for hop in row] == [share_face(g, ell, t) for t in range(g.num_nodes)]


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
    # the hop faces are the edge records' faces keyed u * N + v, and every
    # next hop stored in the scheme, ball or tree, has its pair's key, whose
    # face is a sketch face both endpoints lie on
    system = sphere50_system
    g, scheme = system.graph, system.scheme
    N = g.num_nodes
    edge_faces = {u * N + v: f for u, v, _w, f in g.edges.tolist()}
    assert materialize_plane_entries(g) == system.hop_faces == edge_faces
    assert all(type(k) is int and type(f) is int for k, f in system.hop_faces.items())
    hops = {(min(x, w), max(x, w)) for x, w in scheme_hops(scheme)}
    assert len(hops) > N
    for a, b in hops:
        face = system.hop_faces[a * N + b]
        assert face in g.nodes[a].patches and face in g.nodes[b].patches


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


def scheme_hops(scheme):
    """Every (node, next hop) pair the scheme holds: ball entries, hops
    toward each landmark, and first hops from each landmark."""
    hops = [(x, w) for x, table in scheme.exact_next.items() for w in table.values()]
    for ell in scheme.landmarks:
        hops += [(x, w) for x, w in enumerate(scheme.to_landmark[ell]) if x != ell]
        hops += [(ell, w) for w in scheme.first_hop[ell] if w >= 0]
    return hops


def test_next_hops_are_neighbours(sphere50_system):
    g = sphere50_system.graph
    scheme = sphere50_system.scheme
    nbrs = {u: set() for u in range(g.num_nodes)}
    for u, v, _w, _f in g.edges.tolist():
        nbrs[u].add(v)
        nbrs[v].add(u)
    hops = scheme_hops(scheme)
    assert len(hops) == scheme.entry_count()
    for x, hop in hops:
        assert hop in nbrs[x]


def test_entry_counts_pinned(sphere50_system):
    # the counts of the scheme when all its entries were stored as maps:
    # deriving the landmark half as rows must not change what is counted
    assert sphere50_system.scheme.entry_count() == 10179
    assert sphere50_system.total_entries() == 19984
