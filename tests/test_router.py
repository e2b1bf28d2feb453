import dataclasses
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyroute import geometry, router
from polyroute.cli import generate_mesh
from polyroute.geometry import GeometryError, Plane, cross, dot, norm, sub
from polyroute.oracle import build_subdivision_graph, oracle_slack
from polyroute.router import (
    HopLimitExceeded,
    PacketHeader,
    RouteTrace,
    Target,
    TrivialRoute,
    UnknownVertex,
    _EdgeFront,
    _cross_point,
    _leg_plane,
    _plane_words,
    _sig_of,
    make_packet,
    route,
    step,
)
from polyroute.tables import preprocess_mesh

from conftest import other_face, random_pairs


def _vid(mesh, point):
    return int(np.argmin(np.linalg.norm(mesh.vertices - np.asarray(point), axis=1)))


def test_make_packet_non_rep_targets_its_rep(sphere50_system):
    system = sphere50_system
    non_rep = next(v for v in range(system.P.n) if system.assignment.rep_of[v] != v)
    t = (non_rep + 7) % system.P.n
    header = make_packet(non_rep, t, system, RouteTrace(non_rep, t, [non_rep]))
    assert header.pseudo.kind == "vertex"
    assert header.pseudo.vertex == system.assignment.rep_of[non_rep]


def test_make_packet_rep_to_member(sphere50_system):
    system = sphere50_system
    rep, members = next(
        (r, m) for r, m in system.assignment.members.items() if len(m) > 1
    )
    t = next(v for v in members if v != rep)
    header = make_packet(rep, t, system, RouteTrace(rep, t, [rep]))
    assert header.pseudo.vertex == t


def test_make_packet_rejects_trivial(sphere50_system):
    with pytest.raises(TrivialRoute):
        make_packet(3, 3, sphere50_system, RouteTrace(3, 3, [3]))


def test_make_packet_rejects_unknown(sphere50_system):
    with pytest.raises(UnknownVertex):
        make_packet(0, 5000, sphere50_system, RouteTrace(0, 5000, [0]))


def _record_planes(monkeypatch) -> list:
    """Log, in call order, ("build", plane) for every leg plane the router
    builds and ("read", plane) for every vertex distance to a plane it takes."""
    log = []
    leg_plane, sig_of = router._leg_plane, router._sig_of

    def building(a, b, n):
        plane = leg_plane(a, b, n)
        log.append(("build", plane))
        return plane

    def reading(P, header, v):
        log.append(("read", header.plane))
        return sig_of(P, header, v)

    monkeypatch.setattr(router, "_leg_plane", building)
    monkeypatch.setattr(router, "_sig_of", reading)
    return log


def test_installed_planes_contain_vertex_and_aim(sphere50_system, monkeypatch):
    # a plane built in a step holds the forwarding vertex and the aim point,
    # and contains the normal of the sketch face the leg runs in
    system = sphere50_system
    log = _record_planes(monkeypatch)
    tol = 1e-9 * system.P.diameter()
    planes = 0
    for s, t in random_pairs(system.P.n, 150, seed=8):
        trace = RouteTrace(s, t, [s])
        header = make_packet(s, t, system, trace)
        current = s
        while current != t:
            before = len(trace.legs)
            log.clear()
            nxt, _case = step(current, header, trace, system)
            if len(trace.legs) != before:
                assert trace.legs[-1]["source"] == current
            for normal, offset in (plane for kind, plane in log if kind == "build"):
                assert abs(dot(system.P.vertex_rows[current], normal) - offset) <= tol
                assert abs(dot(header.pseudo.point, normal) - offset) <= tol
                assert abs(dot(normal, header.gamma_normal)) <= 1e-9
                planes += 1
            current = nxt
    assert planes > 50


def test_leg_planes_are_built_where_they_are_read(sphere50_system, monkeypatch):
    # only the tracer builds a leg plane, once in a step that then reads it;
    # the many legs that end with a hop to an adjacent arrival vertex or the
    # destination, or collapse in a switch, build none
    system = sphere50_system
    log = _record_planes(monkeypatch)
    planes = legs = 0
    for s, t in random_pairs(system.P.n, 300, seed=0):
        log.clear()
        trace = RouteTrace(s, t, [s])
        header = make_packet(s, t, system, trace)
        planes += sum(kind == "build" for kind, _plane in log)
        current = s
        while current != t:
            log.clear()
            current, _case = step(current, header, trace, system)
            builds = [i for i, (kind, _plane) in enumerate(log) if kind == "build"]
            assert len(builds) <= 1
            for i in builds:
                assert ("read", log[i][1]) in log[i + 1:]
            planes += len(builds)
        legs += len(trace.legs)
    assert 0 < planes < legs / 4


def test_tetra_all_pairs_single_hop(tetra_system):
    for s, t in itertools.permutations(range(4), 2):
        trace = route(s, t, tetra_system)
        assert trace.vertices == [s, t]
        assert trace.total_length == pytest.approx(
            tetra_system.P.edge_length(s, t)
        )


def test_octa_antipodal_two_hops(octa_system):
    mesh = octa_system.P
    s = _vid(mesh, [1, 0, 0])
    t = _vid(mesh, [-1, 0, 0])
    trace = route(s, t, octa_system)
    assert trace.hops == 2
    assert trace.total_length == pytest.approx(2 * math.sqrt(2))


def _hand_header(system, t, plane, aim_point=None):
    header = PacketHeader(dest_vertex=t, dest_label=system.label_of_vertex(t))
    header.switch_budget = 100
    point = system.P.vertex_rows[t] if aim_point is None else [float(x) for x in aim_point]
    header.pseudo = Target(kind="vertex", point=point, arrival=(t,), vertex=t)
    header.gamma_normal = plane.normal
    header.plane = _plane_words(plane)
    return header


def test_step_forwards_to_edge_of_continuing_crossing(octa_system):
    # the guiding plane exits the first face through the opposite edge and
    # crosses the far face's edge at p2's side, so p2 receives the packet
    mesh = octa_system.P
    p1 = _vid(mesh, [1, 0, 0])
    p2 = _vid(mesh, [0, 1, 0])
    t = _vid(mesh, [-1, 0, 0])
    n = np.array([0.1, 1.0, -0.6])
    n /= np.linalg.norm(n)
    plane = Plane.from_normal(mesh.vertices[p1], n)
    header = _hand_header(octa_system, t, plane)
    nxt, case = step(p1, header, RouteTrace(p1, t, [p1]), octa_system)
    assert nxt == p2
    assert case == "FirstHop"


def test_step_tie_goes_to_predecessor(octa_system):
    # the curve hits the far vertex exactly and both detours are equal; the
    # packet falls to the predecessor of the current vertex in the exit face
    mesh = octa_system.P
    p1 = _vid(mesh, [1, 0, 0])
    t = _vid(mesh, [-1, 0, 0])
    n = np.array([0.0, 1.0, -1.0]) / math.sqrt(2)
    plane = Plane.from_normal(mesh.vertices[p1], n)
    up = _vid(mesh, [0, 1, 0])
    zp = _vid(mesh, [0, 0, 1])
    header = _hand_header(octa_system, t, plane, aim_point=[-0.2, 0.7, 0.7])
    nxt, case = step(p1, header, RouteTrace(p1, t, [p1]), octa_system)
    assert case == "TieBreak"
    exit_face = next(
        fi for fi in mesh.vertex_fan[p1]
        if {up, zp} <= set(map(int, mesh.faces[fi]))
    )
    f = mesh.faces[exit_face]
    k = int(np.where(f == p1)[0][0])
    predecessor = int(f[(k + 2) % 3])
    assert nxt == predecessor


def test_locality_and_termination_random_hull():
    mesh = generate_mesh("sphere", 200, 2)
    system = preprocess_mesh(mesh, 0.35)
    for s, t in random_pairs(mesh.n, 300, seed=5):
        trace = route(s, t, system)
        assert trace.vertices[0] == s
        assert trace.vertices[-1] == t
        assert trace.hops <= 4 * mesh.n
        for a, b in zip(trace.vertices, trace.vertices[1:]):
            assert (min(a, b), max(a, b)) in mesh.edge_adjacency


def test_hop_limit_raises(sphere50_system, monkeypatch):
    pairs = random_pairs(50, 100, seed=1)
    long_pair = None
    for s, t in pairs:
        if route(s, t, sphere50_system).hops > 4:
            long_pair = (s, t)
            break
    assert long_pair is not None
    monkeypatch.setattr(router, "HOP_LIMIT_PER_VERTEX", 0)  # the limit is then 4 hops
    with pytest.raises(HopLimitExceeded):
        route(*long_pair, sphere50_system)


def test_zigzag_leg_bound(sphere50_system):
    # per-leg length <= geodesic * (1+2*delta) * (1+mu) / sin(theta_m)
    system = sphere50_system
    mesh = system.P
    graph = build_subdivision_graph(mesh, 8)
    pairs = random_pairs(mesh.n, 60, seed=3)
    mu = oracle_slack(mesh, pairs, 8, base_graph=graph, sample=16)
    factor = (1 + 2 * system.eps) * (1 + mu) / math.sin(system.metrics.theta_m)
    checked = 0
    for s, t in pairs:
        trace = route(s, t, system)
        if trace.events:
            continue
        bounds = [leg["start_hop"] for leg in trace.legs] + [trace.hops]
        for li, leg in enumerate(trace.legs):
            if leg["kind"] != "vertex" or leg["target_vertex"] < 0:
                continue
            a = leg["source"]
            b = leg["target_vertex"]
            lo, hi = bounds[li], bounds[li + 1]
            seg = sum(trace.lengths[lo:hi])
            end = trace.vertices[hi]
            if end != b:  # leg cut short by a destination snap
                continue
            if seg == 0.0 or a == b:
                continue
            geo = graph.distance(a, b)
            assert seg <= factor * geo + 1e-9
            checked += 1
    assert checked > 20


def test_plane_adherence(sphere50_system):
    # vertices visited inside a leg belong to faces intersected by the plane
    system = sphere50_system
    mesh = system.P
    for s, t in random_pairs(mesh.n, 40, seed=9):
        trace = route(s, t, system)
        if trace.events:
            continue
        bounds = [leg["start_hop"] for leg in trace.legs] + [trace.hops]
        for li, leg in enumerate(trace.legs):
            a = leg["source"]
            target_pt = leg["target_point"]
            gamma = None
            lo, hi = bounds[li], bounds[li + 1]
            if np.linalg.norm(target_pt - mesh.vertices[a]) < 1e-12:
                continue
            owner = int(system.decomp.owner_of_vertex[a])
            plane = Plane.through_points_orthogonal_to(
                mesh.vertices[a], target_pt,
                system.decomp.patches[owner].gamma.normal,
            )
            sig = plane.signed_distance(mesh.vertices)
            for v in trace.vertices[lo:hi]:
                if v == trace.dest:
                    continue
                crossed = False
                for fi in mesh.vertex_fan[v]:
                    vals = sig[mesh.faces[fi]]
                    if vals.min() <= 1e-9 and vals.max() >= -1e-9:
                        crossed = True
                        break
                assert crossed


@settings(max_examples=500, deadline=None)
@given(
    pts=st.tuples(*[st.floats(-50, 50, allow_nan=False) for _ in range(9)]),
)
@example(pts=(0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 6.103515625e-05, 1.0))
# near-isosceles, B about 2.3e-6: |AB| + |BC| exceeds the right-hand side
# by 2.4e-9 from rounding alone
@example(pts=(5.916278738794862, -38.34436145491768, 3.46476374430722,
              30.49961602735148, -40.25590627926749, 49.58274747499027,
              5.916173945814467, -38.344341062474335, 3.4648204499423514))
def test_triangle_detour_inequality(pts):
    # |AB| + |BC| <= |AC| / sin(B/2) for any triangle; B comes from atan2,
    # since acos of a cosine near 1 loses the small angles of the isosceles
    # near-equality case to rounding
    a = np.array(pts[0:3])
    b = np.array(pts[3:6])
    c = np.array(pts[6:9])
    ab = np.linalg.norm(a - b)
    bc = np.linalg.norm(b - c)
    ac = np.linalg.norm(a - c)
    if ab < 1e-6 or bc < 1e-6 or ac < 1e-6:
        return
    angle_b = math.atan2(float(np.linalg.norm(np.cross(a - b, c - b))), float((a - b) @ (c - b)))
    if angle_b < 1e-6:
        return
    rhs = ac / math.sin(angle_b / 2.0)
    # B carries an absolute rounding error of a few ulps of 1, so the
    # right-hand side carries a relative one of a few ulps over B
    slack = max(1e-9, 4 * np.finfo(float).eps / angle_b * rhs)
    assert ab + bc <= rhs + slack


def test_trace_csv_format(octa_system):
    trace = route(0, 1, octa_system)
    lines = trace.to_csv().strip().split("\n")
    assert lines[0] == "hop_index vertex_id case edge_length"
    assert lines[-1].startswith("summary ")
    for i, line in enumerate(lines[1:-1]):
        parts = line.split()
        assert int(parts[0]) == i
        assert parts[2] in {"FirstHop", "General", "VertexHit", "TieBreak", "PseudoSwitch"}
        assert float(parts[3]) > 0


def test_route_deterministic(sphere50_system):
    for s, t in random_pairs(50, 20, seed=4):
        t1 = route(s, t, sphere50_system)
        t2 = route(s, t, sphere50_system)
        assert t1.vertices == t2.vertices
        assert t1.cases == t2.cases


def _header_numbers(value) -> int:
    """The numbers a header value holds: 1 per scalar, the size of an array,
    the lengths of containers and the fields of records, recursively."""
    if value is None:
        return 0
    if isinstance(value, np.ndarray):
        return value.size
    if isinstance(value, (tuple, list, set, frozenset)):
        return sum(_header_numbers(x) for x in value)
    if dataclasses.is_dataclass(value):
        return sum(_header_numbers(getattr(value, f.name)) for f in dataclasses.fields(value))
    return 1


HEADER_WORDS = 27  # the widest header seen on both meshes below; an edge front
# carries the plane distances of its two vertices


@pytest.fixture(scope="module")
def hull600_system():
    return preprocess_mesh(generate_mesh("sphere", 600, 0), 0.8)


@pytest.mark.parametrize("which", ["sphere50_system", "hull600_system"])
def test_header_words_do_not_grow_with_n(which, request):
    # every header field is O(1) words, with one bound for n = 50 and
    # n = 600; the trace lives in the RouteTrace alone
    system = request.getfixturevalue(which)
    widest = 0
    for s, t in random_pairs(system.P.n, 100, seed=4):
        trace = RouteTrace(s, t, [s])
        header = make_packet(s, t, system, trace)
        current = s
        while current != t:
            current, _case = step(current, header, trace, system)
            assert header.fallback_from < 0
            widest = max(widest, _header_numbers(header))
    assert widest == HEADER_WORDS


def test_hand_driven_trace_equals_routes(sphere50_system):
    # make_packet and step fill the trace themselves, so driving them by hand
    # records what route returns, on the golden pairs
    system = sphere50_system
    for s, t in random_pairs(system.P.n, 300, seed=0):
        trace = RouteTrace(s, t, [s])
        header = make_packet(s, t, system, trace)
        current = s
        while current != t:
            current, _case = step(current, header, trace, system)
        assert trace == route(s, t, system)


class _Refusing:
    def __getitem__(self, key):
        raise AssertionError(f"scheme.home[{key}] read while forwarding")


class _ReadLog:
    def __init__(self, table):
        self.table, self.keys = table, []

    def __getitem__(self, key):
        self.keys.append(key)
        return self.table[key]


def test_step_knows_the_destination_from_its_label(sphere50_system, monkeypatch):
    # once the packet is made, forwarding reads no home landmark off the
    # scheme (the label carries it) and, of the assignment's representatives,
    # only that of the vertex it forwards from
    system = sphere50_system
    rep_reads = global_legs = 0
    for s, t in random_pairs(system.P.n, 300, seed=0):
        trace = RouteTrace(s, t, [s])
        header = make_packet(s, t, system, trace)
        first_legs = len(trace.legs)
        rep_of = _ReadLog(system.assignment.rep_of)
        with monkeypatch.context() as m:
            m.setattr(system.scheme, "home", _Refusing())
            m.setattr(system.assignment, "rep_of", rep_of)
            current = s
            while current != t:
                rep_of.keys.clear()
                nxt, _case = step(current, header, trace, system)
                assert set(rep_of.keys) <= {current}, (s, t, current)
                rep_reads += len(rep_of.keys)
                current = nxt
        global_legs += sum(leg["tz"] == "global" for leg in trace.legs[first_legs:])
    assert rep_reads > 100 and global_legs > 900


def test_tracer_reads_only_the_fan_and_one_face_beyond(sphere50_system, monkeypatch):
    # the leg plane is evaluated at vertices of faces of the current vertex's
    # fan, or of faces that share an edge with one of them (the look-ahead)
    mesh = sphere50_system.P
    reads = []
    sig_of = router._sig_of

    def recording(P, header, v):
        reads.append(v)
        return sig_of(P, header, v)

    monkeypatch.setattr(router, "_sig_of", recording)
    steps = 0
    for s, t in random_pairs(mesh.n, 100, seed=6):
        trace = RouteTrace(s, t, [s])
        header = make_packet(s, t, sphere50_system, trace)
        current = s
        while current != t:
            reads.clear()
            nxt, _case = step(current, header, trace, sphere50_system)
            fan = mesh.vertex_fan[current]
            beyond = {other_face(mesh, f, *edge) for f in fan
                      for edge in itertools.combinations(mesh.face_rows[f], 2)}
            allowed = {v for f in set(fan) | beyond for v in mesh.face_rows[f]}
            assert set(reads) <= allowed, (s, t, current)
            steps += bool(reads)
            current = nxt
    assert steps > 40


unit_vectors = st.tuples(*[st.floats(-1, 1, allow_nan=False) for _ in range(3)]).filter(
    lambda v: norm(v) > 1e-3).map(lambda v: tuple(x / norm(v) for x in v))
# an along-normal leg (b - a parallel to n) and a near-parallel one (b - a
# 1e3 long and 1e-5 off n: above the along-normal snap, below the plane's)
_ALONG = ((0.3, -0.2, 0.1), (0.3, -0.2, 4.1), (0.0, 0.0, 1.0))
_NEAR = ((0.0, 0.0, 0.0), (1e-5, 0.0, 1e3), (0.0, 0.0, 1.0))


def _plane_outcome(fn, *args):
    try:
        normal, offset = fn(*args)
    except GeometryError:
        return "GeometryError"
    return [float(x).hex() for x in normal], float(offset).hex()


def _numpy_plane(a, b, n):
    plane = Plane.through_points_orthogonal_to(np.array(a), np.array(b), np.array(n))
    return plane.normal, plane.offset()


@settings(max_examples=400, deadline=None)
@given(
    a=st.tuples(*[st.floats(-100, 100, allow_nan=False) for _ in range(3)]),
    n=unit_vectors,
    w=unit_vectors,
    t=st.floats(-1e4, 1e4, allow_nan=False),
    e=st.sampled_from([0.0, 1e-12, 1e-8, 1e-5, 1e-2, 1.0]),
)
@example(a=_ALONG[0], n=_ALONG[2], w=(1.0, 0.0, 0.0), t=4.0, e=0.0)
@example(a=_NEAR[0], n=_NEAR[2], w=(1.0, 0.0, 0.0), t=1e3, e=1e-5)
def test_leg_plane_has_plane_bits(a, n, w, t, e):
    # the router's float leg plane is Plane.through_points_orthogonal_to's
    # normal and offset, bit for bit, and raises where it raises; b runs
    # from a along n and then e off it, to reach both rare branches
    b = tuple(ai + t * ni + e * wi for ai, ni, wi in zip(a, n, w))
    assert _plane_outcome(_leg_plane, a, b, n) == _plane_outcome(_numpy_plane, a, b, n)


def test_leg_plane_rare_branches(monkeypatch):
    built = []
    through = Plane.through_points_orthogonal_to
    monkeypatch.setattr(Plane, "through_points_orthogonal_to",
                        lambda *args: built.append(args) or through(*args))
    normal, offset = _leg_plane(*_ALONG)
    assert len(built) == 1 and abs(dot(normal, _ALONG[2])) <= 1e-12
    assert norm(cross(np.subtract(_NEAR[1], _NEAR[0]), _NEAR[2])) > 1e-6
    with pytest.raises(GeometryError, match="near-parallel"):
        _leg_plane(*_NEAR)
    _leg_plane((0.0, 0.0, 0.0), (1.0, 2.0, 3.0), (0.0, 0.0, 1.0))
    assert len(built) == 1


def test_routing_constructs_no_plane(sphere50_system, monkeypatch):
    # the per-leg path works on float rows; a numpy Plane built per leg or
    # per hop would show here
    constructed = []
    post_init = Plane.__post_init__
    monkeypatch.setattr(Plane, "__post_init__",
                        lambda self: constructed.append(1) or post_init(self))
    legs = 0
    for s, t in random_pairs(sphere50_system.P.n, 300, seed=0):
        legs += len(route(s, t, sphere50_system).legs)
    assert legs > 300
    assert not constructed


coords = st.floats(-100, 100, allow_nan=False)
rows3 = st.tuples(coords, coords, coords)
# plane distances of an edge's ends: a tiny one puts the crossing within the
# snap of that end
distances = st.builds(lambda m, k: m * k, st.sampled_from([1e-15, 1e-12, 1e-10, 2e-9, 1e-8, 1e-3, 1.0]),
                      st.floats(0.5, 2.0))


def _bits(values) -> list[str]:
    return [float(x).hex() for x in values]


@settings(max_examples=400, deadline=None)
@given(rows=st.lists(rows3, min_size=2, max_size=8), a=rows3, b=rows3, n=unit_vectors,
       su=distances, sv=distances, flip=st.booleans())
@example(rows=[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], a=(0.0, 0.0, 0.0), b=(0.0, 1.0, 0.0),
         n=(0.0, 0.0, 1.0), su=1e-12, sv=1.0, flip=False)
@example(rows=[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], a=(0.0, 0.0, 0.0), b=(0.0, 1.0, 0.0),
         n=(0.0, 0.0, 1.0), su=1.0, sv=1e-12, flip=True)
# the crossing 3e-9 from an end of a unit edge, just past its 2e-9 snap
@example(rows=[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], a=(0.0, 0.0, 0.0), b=(0.0, 1.0, 0.0),
         n=(0.0, 0.0, 1.0), su=3e-9, sv=1.0, flip=False)
def test_tracer_arithmetic_has_kernel_bits(rows, a, b, n, su, sv, flip):
    # the tracer writes out the kernel's terms: its plane distance has the
    # bits of Plane.signed_distance, and its crossing point and snap
    # decisions are those of `norm(sub(q, end)) <= geometry.snap(edge length)`
    try:
        plane = Plane.through_points_orthogonal_to(np.array(a), np.array(b), np.array(n))
    except GeometryError:
        return
    header = PacketHeader(dest_vertex=0, dest_label=None)
    header.plane = _plane_words(plane)
    mesh = SimpleNamespace(vertex_rows=[list(r) for r in rows],
                           edge_lengths={(0, 1): norm(sub(rows[0], rows[1]))})
    got = [_sig_of(mesh, header, i) for i in range(len(rows))]
    assert _bits(got) == _bits(plane.signed_distance(np.array(rows)))

    su, sv = (su, -sv) if not flip else (-su, sv)
    snap = geometry.snap(mesh.edge_lengths[(0, 1)])
    for u, v, s_u, s_v in ((0, 1, su, sv), (1, 0, sv, su)):
        a_row, b_row = rows[u], rows[v]
        t = s_u / (s_u - s_v)
        q = tuple(a_row[k] + t * (b_row[k] - a_row[k]) for k in range(3))
        hit = (u if norm(sub(q, a_row)) <= snap else
               v if norm(sub(q, b_row)) <= snap else -1)
        got_q, got_hit = _cross_point(mesh, u, v, s_u, s_v)
        assert _bits(got_q) == _bits(q) and got_hit == hit


@settings(max_examples=60, deadline=None)
@given(s=st.integers(0, 49), t=st.integers(0, 49), n=unit_vectors)
def test_fronts_carry_fresh_distances(sphere50_system, s, t, n):
    # on a hand-set leg with any sketch normal, every edge front a step
    # sets holds the plane distances of its two vertices, bit for bit
    system = sphere50_system
    P = system.P
    if s == t:
        return
    header = PacketHeader(dest_vertex=t, dest_label=system.label_of_vertex(t))
    header.switch_budget = 100
    header.pseudo = Target(kind="vertex", point=P.vertex_rows[t], arrival=(t,), vertex=t)
    header.gamma_normal = list(n)
    trace = RouteTrace(s, t, [s])
    current = s
    try:
        while current != t and trace.hops < 4 * P.n:
            before = header.front
            current, _case = step(current, header, trace, system)
            front = header.front
            if front is not before and isinstance(front, _EdgeFront):
                fresh = (_sig_of(P, header, current), _sig_of(P, header, front.other))
                assert _bits((front.s_current, front.s_other)) == _bits(fresh)
    except (GeometryError, router.RoutingError):
        return
