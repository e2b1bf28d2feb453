import dataclasses

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from polyroute.cli import generate_mesh
from polyroute import compact_routing
from polyroute.compact_routing import BALL_RECORD, spanner_csr
from polyroute.polytope import NonConvex, ParseError, TriangulatedPolytope, from_arrays
from polyroute import geometry, tables
from polyroute.router import route
from polyroute.spanner import EDGE_RECORD
from polyroute.tables import (
    ChecksumMismatch,
    CorruptMesh,
    EntryKind,
    FormatVersionMismatch,
    IdOutOfRange,
    InconsistentAssignment,
    MalformedSection,
    NonCanonicalBall,
    NonCanonicalEdge,
    NonSpannerHop,
    RoutingSystem,
    SerializationError,
    TruncatedStream,
    deserialize,
    preprocess_mesh,
    serialize,
    to_json,
)

from conftest import random_pairs


def test_load_and_routes_never_read_the_diameter(sphere50_system, monkeypatch):
    # the mesh's scale and snap are fixed when the mesh is made, from the
    # bounding box, so a load and a route do no all-pairs pass; a loaded
    # mesh has the built one's bits
    built = sphere50_system

    def refuse(self):
        raise AssertionError("diameter() read")

    monkeypatch.setattr(TriangulatedPolytope, "diameter", refuse)
    loaded = deserialize(serialize(built))
    for s, t in random_pairs(built.P.n, 20, seed=3):
        assert route(s, t, loaded).vertices[-1] == t
    assert loaded.P.scale.hex() == built.P.scale.hex()
    assert loaded.P.snap.hex() == built.P.snap.hex()
    assert loaded.P.snap == geometry.snap(loaded.P.scale)


def test_non_rep_has_exactly_one_plane_entry(sphere50_system):
    system = sphere50_system
    for v, table in system.tables.items():
        plane_entries = [e for e in table.entries.values()
                         if e.kind is not EntryKind.MARKED_RELAY]
        if system.assignment.rep_of[v] != v:
            assert len(plane_entries) == 1
            assert plane_entries[0].kind is EntryKind.TO_MY_REP
            assert plane_entries[0].dest == system.assignment.rep_of[v]


def test_lone_rep_has_only_global_entries(tetra_system):
    system = tetra_system
    lone = [pid for pid, reps in system.assignment.patch_reps.items()
            if len(reps) == 1]
    assert lone
    found = False
    for pid in lone:
        r = system.assignment.patch_reps[pid][0]
        if len(system.assignment.members[r]) == 1:
            table = system.tables[r]
            local = [e for e in table.entries.values()
                     if e.kind is not EntryKind.MARKED_RELAY]
            assert local == []
            assert table.g_node >= 0
            found = True
    assert found


@pytest.mark.parametrize("name", ["tetra_system", "sphere50_system"], ids=["tetra", "sphere50"])
def test_entry_counts_match_enumeration(request, monkeypatch, name):
    # total_entries counts the local entries in closed form, without the
    # tables; the count equals the entries the tables hold
    system = dataclasses.replace(request.getfixturevalue(name), _tables=None)

    def refuse(*args):
        raise AssertionError("total_entries built the per-vertex tables")

    with monkeypatch.context() as m:
        m.setattr(tables, "build_tables", refuse)
        got = system.total_entries()
    expected = sum(len(t.entries) for t in system.tables.values())
    for node in system.graph.nodes:
        copies = 1 if node.kind == "rep" else 2  # a Steiner node at both marked vertices
        expected += copies * system.scheme.entries_at(node.id)
    assert got == expected


def test_empty_system_is_bare_header():
    blob = serialize(RoutingSystem())
    assert len(blob) == 16
    again = deserialize(blob)
    assert again.is_empty()
    assert again.tables == {} and RoutingSystem().tables == {}


def test_roundtrip_bit_exact(sphere50_system):
    blob = serialize(sphere50_system)
    system2 = deserialize(blob)
    assert serialize(system2) == blob


def _same_bits(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same_bits(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return type(a) is type(b) and a == b


STAGES = ("theta_m_s", "patches_s", "diameter_s", "sketch_s", "representatives_s",
          "steiner_placement_s", "steiner_lift_s", "theta_pass_s", "scheme_s", "derive_s")


def test_preprocess_fills_stage_stats(sphere50_system):
    # per-stage seconds that add up to no more than the whole build, and
    # the spanner's and the system's counts, which the system confirms
    stats = sphere50_system.stats
    g = sphere50_system.graph
    assert set(stats) == set(STAGES) | {"total_s", "empty_cones", "steiner_nodes", "lift_pairs",
                                        "theta_pairs", "scheme_reached", "patches", "reps",
                                        "edges", "landmarks", "ball_records"}
    assert all(stats[k] >= 0.0 for k in STAGES)
    assert sum(stats[k] for k in STAGES) <= stats["total_s"]
    assert stats["steiner_nodes"] == sum(n.kind == "steiner" for n in g.nodes)
    assert stats["empty_cones"] >= stats["steiner_nodes"] > 0
    assert (stats["patches"], stats["reps"], stats["edges"], stats["landmarks"]) == (
        sphere50_system.decomp.count, len(sphere50_system.assignment.reps), len(g.edges),
        len(sphere50_system.scheme.landmarks))
    # the pre-test leaves each Steiner point its hit face and drops most faces
    assert (stats["steiner_nodes"] <= stats["lift_pairs"]
            < stats["steiner_nodes"] * sphere50_system.P.num_faces // 4)
    assert stats["theta_pairs"] == sum(len(ids) ** 2 for ids in g.per_face_nodes.values()
                                       if len(ids) > 1)
    scheme = sphere50_system.scheme
    assert stats["ball_records"] == len(scheme.balls) == sum(map(len, scheme.exact_next.values()))
    # each block of targets, in order of r, reaches the nodes within its
    # largest r; read here from one search from every target
    e = g.edges
    dist = dijkstra(spanner_csr(g.num_nodes, e["u"], e["v"], e["weight"]), directed=False)
    r = dist[scheme.landmarks].min(axis=0)
    targets = np.argsort(r, kind="stable")
    targets = targets[r[targets] > 0]
    blocks = [targets[lo:lo + compact_routing._BLOCK]
              for lo in range(0, len(targets), compact_routing._BLOCK)]
    assert len(blocks) > 1
    assert stats["scheme_reached"] == sum(int((dist[b] <= r[b].max()).sum()) for b in blocks)
    assert stats["ball_records"] < stats["scheme_reached"] < len(targets) * g.num_nodes


LOAD_STAGES = ("mesh_s", "decomposition_s", "landmark_trees_s", "balls_s", "derive_s")


def test_deserialize_fills_load_stage_stats(sphere50_system):
    # a load's stage seconds add up to no more than the whole load, and
    # timing it leaves the bytes as they were
    blob = serialize(sphere50_system)
    loaded = deserialize(blob)
    assert set(loaded.stats) == set(LOAD_STAGES) | {"total_s"}
    assert all(loaded.stats[k] >= 0.0 for k in LOAD_STAGES)
    assert sum(loaded.stats[k] for k in LOAD_STAGES) <= loaded.stats["total_s"]
    assert serialize(loaded) == blob


def test_loaded_system_equals_built(sphere50_system):
    from dataclasses import fields

    from polyroute.router import route
    from polyroute.spanner import SpannerNode

    built = sphere50_system
    loaded = deserialize(serialize(built))
    assert loaded.tables == built.tables
    assert loaded.hop_faces == built.hop_faces
    assert len(loaded.graph.nodes) == len(built.graph.nodes)
    for p, q in zip(loaded.graph.nodes, built.graph.nodes):
        for f in fields(SpannerNode):
            assert _same_bits(getattr(p, f.name), getattr(q, f.name)), (p.id, f.name)
    assert loaded.graph.edges.dtype == built.graph.edges.dtype == EDGE_RECORD
    assert loaded.graph.edges.tobytes() == built.graph.edges.tobytes()
    assert loaded.graph.per_face_nodes == built.graph.per_face_nodes
    assert loaded.graph.node_of_vertex == built.graph.node_of_vertex
    la, ba = loaded.assignment, built.assignment
    assert (la.reps, la.rep_of, la.cell_of, la.members, la.patch_reps) == (
        ba.reps, ba.rep_of, ba.cell_of, ba.members, ba.patch_reps)
    ls, bs = loaded.scheme, built.scheme
    assert (ls.landmarks, ls.home, ls.to_landmark, ls.first_hop, ls.exact_next) == (
        bs.landmarks, bs.home, bs.to_landmark, bs.first_hop, bs.exact_next)
    assert ls.balls.dtype == bs.balls.dtype == BALL_RECORD
    assert ls.balls.tobytes() == bs.balls.tobytes()
    assert all(loaded.label_of_vertex(t) == built.label_of_vertex(t)
               for t in range(built.P.n))
    assert to_json(loaded) == to_json(built)
    assert loaded.P.snap.hex() == built.P.snap.hex()
    assert np.array_equal(loaded.decomp.owner_of_vertex, built.decomp.owner_of_vertex)
    for p, q in zip(loaded.decomp.patches, built.decomp.patches):
        assert (p.faces, p.rep_face, p.vertices) == (q.faces, q.rep_face, q.vertices)
        for attr in ("anchor", "dir1", "dir2", "normal"):
            assert np.array_equal(getattr(p.gamma, attr), getattr(q.gamma, attr))
    n = built.P.n
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            a, b = route(s, t, built), route(s, t, loaded)
            assert (a.vertices, a.cases) == (b.vertices, b.cases)


def test_roundtrip_preserves_routing(tetra_system):
    from polyroute.router import route

    blob = serialize(tetra_system)
    system2 = deserialize(blob)
    for s in range(4):
        for t in range(4):
            if s == t:
                continue
            tr1 = route(s, t, tetra_system)
            tr2 = route(s, t, system2)
            assert tr1.vertices == tr2.vertices


def test_flipped_checksum_rejected(tetra_system):
    blob = bytearray(serialize(tetra_system))
    blob[-1] ^= 0xFF
    with pytest.raises(ChecksumMismatch):
        deserialize(bytes(blob))


def test_corrupt_body_rejected(tetra_system):
    blob = bytearray(serialize(tetra_system))
    blob[60] ^= 0x10
    with pytest.raises(SerializationError):
        deserialize(bytes(blob))


def test_truncated_rejected(tetra_system):
    blob = serialize(tetra_system)
    with pytest.raises(SerializationError):
        deserialize(blob[: len(blob) // 2])
    with pytest.raises(TruncatedStream):
        deserialize(blob[:10])


def _sections(blob: bytes) -> list[tuple[int, bytes]]:
    import struct

    (count,) = struct.unpack_from("<I", blob, 8)
    pos, out = 12, []
    for _ in range(count):
        tag, length = struct.unpack_from("<BQ", blob, pos)
        out.append((tag, blob[pos + 9:pos + 9 + length]))
        pos += 9 + length
    return out


def _container(sections: list[tuple[int, bytes]]) -> bytes:
    # a well-formed file around the given payloads: lengths and CRC agree
    import struct
    import zlib

    out = bytearray(b"PRT1" + struct.pack("<HHI", tables.VERSION, 0, len(sections)))
    for tag, payload in sections:
        out += struct.pack("<BQ", tag, len(payload)) + payload
    return bytes(out + struct.pack("<I", zlib.crc32(bytes(out)) & 0xFFFFFFFF))


@pytest.mark.parametrize("tag", [3, 4, 5, 6, 7],
                         ids=["patches", "assignment", "nodes", "edges", "scheme"])
def test_truncated_section_rejected(sphere50_system, tag):
    sections = _sections(serialize(sphere50_system))
    assert _container(sections) == serialize(sphere50_system)
    payload = dict(sections)[tag]
    for cut in sorted({0, 3, 5, *range(9, len(payload), max(1, len(payload) // 40))}):
        short = [(t, p[:cut] if t == tag else p) for t, p in sections]
        with pytest.raises(TruncatedStream):
            deserialize(_container(short))


# (section, struct format, byte offset, bad value) from the system's n
# vertices, f faces, k patches and N spanner nodes; each makes one stored id
# point past what it indexes
_BAD_IDS = {
    "mesh_face_vertex": lambda n, f, k, N: (2, "<I", 8 + 24 * n, n),
    "patch_gap": lambda n, f, k, N: (3, "<I", 0, k + 1),
    # a writer's -1 reads back as the largest u32
    "patch_negative": lambda n, f, k, N: (3, "<i", 4 * (f - 1), -1),
    "node_patch": lambda n, f, k, N: (5, "<I", 8, k),
    "marked": lambda n, f, k, N: (5, "<I", 40, n),
    "edge_endpoint": lambda n, f, k, N: (6, "<I", 4, 10 ** 6),
    "edge_node_count": lambda n, f, k, N: (6, "<I", 8, N),
    "edge_face": lambda n, f, k, N: (6, "<I", 20, k),
    # the node of the first ball record, the target of the second
    "scheme_node": lambda n, f, k, N: (7, "<I", 4, N),
    "ball_target": lambda n, f, k, N: (7, "<I", 20, N),
    # the next hop of the last ball record
    "next_hop": lambda n, f, k, N: (7, "<I", -4, 10 ** 6),
}


@pytest.mark.parametrize("case", sorted(_BAD_IDS))
def test_out_of_range_ids_rejected(sphere50_system, case):
    import struct

    system = sphere50_system
    tag, fmt, offset, value = _BAD_IDS[case](system.P.n, system.P.num_faces,
                                             system.decomp.count, system.graph.num_nodes)
    sections = _sections(serialize(system))
    payload = bytearray(dict(sections)[tag])
    struct.pack_into(fmt, payload, offset, value)
    bad = _container([(t, bytes(payload) if t == tag else p) for t, p in sections])
    with pytest.raises(IdOutOfRange):
        deserialize(bad)


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_vertex_rejected(sphere50_system, value):
    import struct

    # the first coordinate of vertex 0, after the mesh section's two counts
    sections = _sections(serialize(sphere50_system))
    payload = bytearray(dict(sections)[2])
    struct.pack_into("<d", payload, 8, value)
    # a file, refused as a file, from the mesh's own refusal
    with pytest.raises(CorruptMesh, match="non-finite vertex coordinate") as refused:
        deserialize(_container([(t, bytes(payload) if t == 2 else p) for t, p in sections]))
    assert isinstance(refused.value.__cause__, ParseError)
    vertices = sphere50_system.P.vertices.copy()
    vertices[0, 0] = value
    with pytest.raises(ParseError, match="non-finite vertex coordinate"):
        from_arrays(vertices, sphere50_system.P.faces)


def _non_convex_file(system) -> bytes:
    """The system's file with vertex 0 pushed outward to twice its distance
    from the centroid, under a valid CRC."""
    import struct

    sections = _sections(serialize(system))
    payload = bytearray(dict(sections)[2])
    P = system.P
    pushed = P.vertices.mean(axis=0) + 2.0 * (P.vertices[0] - P.vertices.mean(axis=0))
    struct.pack_into("<3d", payload, 8, *pushed.tolist())
    return _container([(t, bytes(payload) if t == 2 else p) for t, p in sections])


def test_non_convex_mesh_is_refused_as_a_corrupt_file(sphere50_system, tmp_path, capsys):
    # through the API, a SerializationError caused by NonConvex; through
    # `polyroute route`, the exit code of every other bad file
    from polyroute.cli import EXIT_IO, main

    bad = _non_convex_file(sphere50_system)
    with pytest.raises(CorruptMesh) as refused:
        deserialize(bad)
    assert isinstance(refused.value, SerializationError)
    assert isinstance(refused.value.__cause__, NonConvex)
    path = tmp_path / "non_convex.prt"
    path.write_bytes(bad)
    assert main(["route", str(path), "--from", "0", "--to", "1"]) == EXIT_IO
    assert "stored mesh is refused" in capsys.readouterr().err


def test_sliver_face_is_refused_as_a_corrupt_file(tetra_system, tmp_path, capsys):
    # vertex 2 moved to 8e-10 from the midpoint of edge (0, 1), away from
    # vertex 3: `from_arrays` accepts the mesh, but face (0, 1, 2) has no
    # patch plane, and the GeometryError is the cause of the refusal
    import struct

    from polyroute.cli import EXIT_IO, main
    from polyroute.geometry import GeometryError

    v = tetra_system.P.vertices
    mid = (v[0] + v[1]) / 2.0
    along = (v[1] - v[0]) / np.linalg.norm(v[1] - v[0])
    away = mid - v[3]
    away -= (away @ along) * along
    moved = mid + 8e-10 * away / np.linalg.norm(away)
    from_arrays(np.vstack([v[:2], moved, v[3:]]), tetra_system.P.faces)
    sections = _sections(serialize(tetra_system))
    payload = bytearray(dict(sections)[2])
    struct.pack_into("<3d", payload, 8 + 24 * 2, *moved.tolist())
    bad = _container([(t, bytes(payload) if t == 2 else p) for t, p in sections])
    with pytest.raises(CorruptMesh, match="stored mesh is refused") as refused:
        deserialize(bad)
    assert isinstance(refused.value.__cause__, GeometryError)
    path = tmp_path / "sliver.prt"
    path.write_bytes(bad)
    assert main(["route", str(path), "--from", "0", "--to", "1"]) == EXIT_IO
    assert "stored mesh is refused" in capsys.readouterr().err


def _assignment_edit(system, case: str) -> bytes:
    """The system's file with one vertex moved to another cell of its own
    patch, under a valid CRC."""
    import itertools
    import struct

    a, n = system.assignment, system.P.n
    assert a.rep_of[10] != 10
    used = set(a.cell_of.values())
    free = next(c for c in itertools.count() if (a.cell_of[10][0], c) not in used)
    # a rep that is its cell's only member, and another rep of its patch
    lone, r2 = next((r, r2) for r in a.reps for r2 in a.reps
                    if r2 != r and a.cell_of[r2][0] == a.cell_of[r][0] and a.members[r] == [r])
    # a non-rep and a higher rep of its patch: moved into that rep's cell, the
    # non-rep takes its place, and its own cell keeps its rep
    v, r3 = next((v, r) for v in range(n) if a.rep_of[v] != v for r in a.reps
                 if r > v and a.cell_of[r][0] == a.cell_of[v][0])
    vertex, cell = {
        # a non-rep moved to an unused cell label of its patch: one rep more
        "non_rep_made_rep": (10, free),
        # a lone rep moved into an occupied cell of its patch: one rep fewer
        "lone_rep_dropped": (lone, a.cell_of[r2][1]),
        "rep_replaced": (v, a.cell_of[r3][1]),
    }[case]
    sections = _sections(serialize(system))
    payload = bytearray(dict(sections)[4])
    struct.pack_into("<I", payload, 4 * vertex, cell)
    return _container([(t, bytes(payload) if t == 4 else p) for t, p in sections])


@pytest.mark.parametrize("case", ["non_rep_made_rep", "lone_rep_dropped"])
def test_inconsistent_assignment_rejected(sphere50_system, case):
    # ids in range and a valid CRC, but the cells name a different number of
    # reps than the stored count, which would shift every later node id
    with pytest.raises(InconsistentAssignment):
        deserialize(_assignment_edit(sphere50_system, case))


def test_cell_edit_keeping_the_count_loads(sphere50_system):
    # the reps are derived from the cells, so no stored assignment can name
    # a rep that is not its own or that lies outside its members' patch
    built = sphere50_system.assignment
    loaded = deserialize(_assignment_edit(sphere50_system, "rep_replaced"))
    a, owner = loaded.assignment, loaded.decomp.owner_of_vertex
    assert len(a.reps) == len(built.reps) and a.reps != built.reps
    for v, rep in a.rep_of.items():
        assert a.rep_of[rep] == rep and owner[rep] == owner[v] and v in a.members[rep]


def test_loaded_json_and_int_keys(sphere50_system):
    import json

    loaded = deserialize(serialize(sphere50_system))
    doc = json.loads(to_json(loaded))
    assert doc["landmarks"] == sphere50_system.scheme.landmarks
    s = loaded.scheme
    assert all(type(x) is int for x in s.landmarks)
    assert all(type(h) is int for h in s.home)
    for rows in (s.to_landmark, s.first_hop):
        assert list(rows) == s.landmarks
        assert all(type(w) is int for row in rows.values() for w in row)
    for u, m in s.exact_next.items():
        assert type(u) is int
        assert all(type(k) is int and type(w) is int for k, w in m.items())
    for t in range(loaded.P.n):
        lb = loaded.label_of_vertex(t)
        assert {type(x) for x in (lb.node, lb.home, lb.patch, lb.cell)} == {int}


@pytest.mark.parametrize("case", ["reversed", "repeated"])
def test_non_canonical_edges_rejected(sphere50_system, case):
    # ids in range and a valid CRC, but the first edge is stored as (v, u),
    # or the second edge repeats the first one's pair
    sections = _sections(serialize(sphere50_system))
    payload = dict(sections)[6]
    rec = np.frombuffer(payload, dtype=EDGE_RECORD, offset=4).copy()
    if case == "reversed":
        rec[0]["u"], rec[0]["v"] = rec[0]["v"], rec[0]["u"]
    else:
        rec[1] = rec[0]
    bad = payload[:4] + rec.tobytes()
    with pytest.raises(NonCanonicalEdge):
        deserialize(_container([(t, bad if t == 6 else p) for t, p in sections]))


@pytest.mark.parametrize("tag", [1, 2, 3, 4, 5, 6, 7],
                         ids=["meta", "mesh", "patches", "assignment", "nodes", "edges",
                              "scheme"])
def test_section_with_trailing_bytes_rejected(sphere50_system, tag):
    # a valid CRC, but one byte past the section's last record
    sections = _sections(serialize(sphere50_system))
    with pytest.raises(MalformedSection):
        deserialize(_container([(t, p + b"\0" if t == tag else p) for t, p in sections]))


@pytest.mark.parametrize("case", ["unknown_tag", "repeated_tag", "after_last"])
def test_extra_section_data_rejected(sphere50_system, case):
    # a valid CRC, but a section under an unknown tag, a second edge
    # section, or one byte after the last section
    import struct
    import zlib

    sections = _sections(serialize(sphere50_system))
    if case == "after_last":
        body = _container(sections)[:-4] + b"\0"
        bad = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    else:
        bad = _container(sections + [(8, b"") if case == "unknown_tag" else sections[5]])
    with pytest.raises(MalformedSection):
        deserialize(bad)


def _balls(system) -> np.ndarray:
    sections = dict(_sections(serialize(system)))
    return np.frombuffer(sections[7], dtype=BALL_RECORD, offset=4).copy()


def test_ball_section_is_the_sorted_walk_of_the_balls(sphere50_system):
    # the section written from the scheme's records is the one written by
    # walking every node's ball map in sorted order
    import struct

    for system in (sphere50_system, preprocess_mesh(generate_mesh("sphere", 200, 0), 0.3)):
        balls = system.scheme.exact_next
        walk = np.array([(x, t, balls[x][t]) for x in sorted(balls) for t in sorted(balls[x])],
                        dtype=BALL_RECORD)
        assert len(walk) > 0
        section = dict(_sections(serialize(system)))[7]
        assert section == struct.pack("<I", len(walk)) + walk.tobytes()


@pytest.mark.parametrize("case, error", [
    ("unsorted", NonCanonicalBall), ("repeated", NonCanonicalBall),
    ("own_target", NonCanonicalBall), ("held_by_landmark", NonCanonicalBall),
    ("not_a_neighbour", NonSpannerHop)])
def test_bad_ball_records_rejected(sphere50_system, case, error):
    # ids in range and a valid CRC, but the ball records are out of order,
    # name a node's own id as its target, are held by a landmark (no build
    # writes one), or name a next hop off the spanner
    import struct

    g = sphere50_system.graph
    rec = _balls(sphere50_system)
    x = int(rec[0]["x"])
    assert rec[0]["t"] != x and rec[1]["x"] == x
    if case == "unsorted":
        rec[[0, 1]] = rec[[1, 0]]
    elif case == "repeated":
        rec[1] = rec[0]
    elif case == "own_target":
        assert rec[0]["t"] > x  # so the records stay in order
        rec[0]["t"] = x
    elif case == "held_by_landmark":
        # a record (ell, t, hop) put in (x, t) order, its hop a neighbour
        ell = sphere50_system.scheme.landmarks[0]
        assert not (rec["x"] == ell).any()
        hop = next(v if u == ell else u for u, v, _w, _f in g.edges.tolist() if ell in (u, v))
        t = next(t for t in range(g.num_nodes) if t not in (ell, hop))
        keys = rec["x"].astype(np.int64) * g.num_nodes + rec["t"]
        rec = np.insert(rec, np.searchsorted(keys, ell * g.num_nodes + t),
                        np.array((ell, t, hop), dtype=rec.dtype))
    else:
        nbrs = {v for u, v, _w, _f in g.edges.tolist() if u == x} | {
            u for u, v, _w, _f in g.edges.tolist() if v == x}
        rec[0]["next"] = min(set(range(g.num_nodes)) - nbrs - {x})
    sections = _sections(serialize(sphere50_system))
    payload = struct.pack("<I", len(rec)) + rec.tobytes()
    with pytest.raises(error):
        deserialize(_container([(t, payload if t == 7 else p) for t, p in sections]))


def test_disconnected_edge_section_rejected(sphere50_system, tmp_path):
    # every edge of one node stripped and the CRC recomputed: the landmark
    # half cannot be derived, and the file once loaded on its stored tables;
    # it is refused as a file, a SerializationError from the
    # DisconnectedSpanner, so `route` exits with EXIT_IO like any bad file
    from polyroute.cli import EXIT_IO, main
    from polyroute.spanner import DisconnectedSpanner

    sections = _sections(serialize(sphere50_system))
    rec = np.frombuffer(dict(sections)[6], dtype=EDGE_RECORD, offset=4)
    node = int(rec[0]["u"])
    kept = rec[(rec["u"] != node) & (rec["v"] != node)]
    assert 0 < len(kept) < len(rec)
    payload = np.uint32(len(kept)).tobytes() + kept.tobytes()
    bad = _container([(t, payload if t == 6 else p) for t, p in sections])
    with pytest.raises(tables.DisconnectedEdges) as refused:
        deserialize(bad)
    assert isinstance(refused.value, DisconnectedSpanner)
    assert isinstance(refused.value, tables.SerializationError)
    assert type(refused.value.__cause__) is DisconnectedSpanner
    path = tmp_path / "disconnected.prt"
    path.write_bytes(bad)
    assert main(["route", str(path), "--from", "0", "--to", "1"]) == EXIT_IO


def _run_in_child(code: str, blob: bytes, gigabytes: int, timeout: float,
                  *args: str) -> list[str]:
    """The stdout lines of `python -c code args` fed blob on stdin, run
    with `gigabytes` of address space and `timeout` seconds: an abort or a
    hang fails the test instead of killing the runner."""
    import os
    import resource
    import subprocess
    import sys

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (gigabytes << 30, gigabytes << 30))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code, *args], input=blob, capture_output=True,
                          timeout=timeout, preexec_fn=cap, env=env)
    lines = done.stdout.decode().splitlines()
    assert done.returncode == 0, (lines[-1:], done.stderr.decode()[-2000:])
    return lines


def _load_in_child(blob: bytes) -> str:
    """The name of the error `deserialize` raises on blob, or "loaded", from
    a child process with 2 GB of address space and 60 s."""
    code = ("import sys\n"
            "from polyroute.tables import deserialize\n"
            "try:\n"
            "    deserialize(sys.stdin.buffer.read())\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__)\n"
            "else:\n"
            "    print('loaded')\n")
    (outcome,) = _run_in_child(code, blob, 2, 60)
    return outcome


# Byte edits of a .prt: per case, 1-4 bytes before the CRC set to seeded
# random values and the CRC rewritten. A case prints "refused <error>" for a
# SerializationError, "loaded" when the file loads and five seeded routes
# each end at t or raise a RoutingError, and "other <error>" or "wrong_end"
# for anything else.
_FUZZ = """
import struct, sys, zlib
import numpy as np
from polyroute.router import RoutingError, route
from polyroute.tables import SerializationError, deserialize

blob = sys.stdin.buffer.read()
rng = np.random.default_rng(int(sys.argv[2]))
for case in range(int(sys.argv[1])):
    out = bytearray(blob[:-4])
    for at in rng.integers(len(out), size=int(rng.integers(1, 5))).tolist():
        out[at] = int(rng.integers(256))
    out += struct.pack("<I", zlib.crc32(out) & 0xFFFFFFFF)
    try:
        system = deserialize(bytes(out))
        outcome = "loaded"
        n = system.P.n
        for _ in range(5):
            s, t = rng.choice(n, size=2, replace=False).tolist()
            try:
                if route(s, t, system).vertices[-1] != t:
                    outcome = "wrong_end"
            except RoutingError:
                pass
    except SerializationError as exc:
        outcome = "refused " + type(exc).__name__
    except Exception as exc:
        outcome = "other " + type(exc).__name__
    print(case, outcome, flush=True)
"""


def _fuzz_outcomes(blob: bytes, count: int, seed: int) -> dict[str, int]:
    """The outcome counts of `count` byte edits of blob from `seed`, all in
    one child process with 3 GB of address space and 120 s."""
    from collections import Counter

    lines = _run_in_child(_FUZZ, blob, 3, 120, str(count), str(seed))
    assert [int(line.split()[0]) for line in lines] == list(range(count))
    return Counter(line.split(maxsplit=1)[1] for line in lines)


def test_byte_edits_are_refused_or_route(sphere50_system):
    # a valid CRC proves only that the bytes arrived: every edit is refused
    # as a file or loads a system that routes, with no abort or hang
    outcomes = _fuzz_outcomes(serialize(sphere50_system), 300, 0)
    assert all(k == "loaded" or k.startswith("refused ") for k in outcomes), outcomes
    assert outcomes["loaded"] > 0 and sum(outcomes.values()) - outcomes["loaded"] > 0


# (section, byte offset, value) of a stored float the build cannot produce:
# the first edge's weight (after the section's count and the record's u and
# v), eps, and the first Steiner node's lift (after its two patches)
_IMPLAUSIBLE = {
    "weight_minus_one": (6, 12, -1.0),
    "weight_minus_tiny": (6, 12, -1e-300),
    "weight_nan": (6, 12, float("nan")),
    "weight_inf": (6, 12, float("inf")),
    "eps_7.5": (1, 0, 7.5),
    "eps_nan": (1, 0, float("nan")),
    "lift_nan": (5, 12, float("nan")),
}


@pytest.mark.parametrize("case", sorted(_IMPLAUSIBLE))
def test_implausible_values_rejected(sphere50_system, case):
    # a valid CRC over a value no build writes; before the loader refused
    # them, a weight of -1.0 aborted the interpreter in the landmark
    # Dijkstra, -1e-300 hung it, and the others loaded
    import struct

    tag, offset, value = _IMPLAUSIBLE[case]
    sections = _sections(serialize(sphere50_system))
    payload = bytearray(dict(sections)[tag])
    struct.pack_into("<d", payload, offset, value)
    bad = _container([(t, bytes(payload) if t == tag else p) for t, p in sections])
    assert _load_in_child(bad) == "ImplausibleValue"


def _with_version(blob: bytes, version: int) -> bytes:
    import struct
    import zlib

    out = bytearray(blob)
    out[4:6] = struct.pack("<H", version)
    out[-4:] = struct.pack("<I", zlib.crc32(bytes(out[:-4])) & 0xFFFFFFFF)
    return bytes(out)


def test_version_mismatch_rejected(tetra_system):
    with pytest.raises(FormatVersionMismatch):
        deserialize(_with_version(serialize(tetra_system), 999))


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6])
def test_version_1_rejected(tetra_system, version):
    # version 1 stored guiding planes and vertex tables, version 2 the patch
    # planes and vertex owners, version 3 rep nodes, 2D node positions,
    # labels and patch seed faces, version 4 a pair's edge once per face
    # that holds it, the representatives, their projections and delta,
    # version 5 the landmarks, homes and landmark next-hop maps and its ids
    # as i64, version 6 each vertex's representative; none has a reader
    with pytest.raises(FormatVersionMismatch):
        deserialize(_with_version(serialize(tetra_system), version))


def test_json_mirror(tetra_system):
    import json

    doc = json.loads(to_json(tetra_system))
    assert doc["epsilon"] == tetra_system.eps
    assert len(doc["mesh"]["vertices"]) == tetra_system.P.n
    assert len(doc["tables"]) == tetra_system.P.n


def test_amortized_entry_scaling():
    # Lemma-5 flavoured check with the constant fitted on one mesh
    fit = preprocess_mesh(generate_mesh("sphere", 80, 0), 0.3)
    c = fit.total_entries() / fit.P.n / min(fit.P.n, 1.0 / fit.eps ** 1.5)
    probe = preprocess_mesh(generate_mesh("sphere", 120, 1), 0.3)
    amortized = probe.total_entries() / probe.P.n
    assert amortized <= 4.0 * c * min(probe.P.n, 1.0 / probe.eps ** 1.5)
