"""Per-vertex routing tables on the polytope and their serialization.

Table kinds: a non-representative vertex holds exactly one entry (toward its
representative); a representative holds one entry per cell member and per
same-patch representative, plus its compact-routing tables over the spanner
(stored once in the shared scheme and attributed to the representative, or
to both marked vertices for a Steiner node); marked vertices hold relay
entries for the Steiner nodes on their edge. An entry is just (kind, dest):
the router builds each leg's guiding plane at the forwarding vertex.

The .prt byte format (version 5) is self-contained (mesh included): magic
PRT1, version, little-endian length-prefixed sections, CRC32 trailer. It
stores only what cannot be derived: meta (eps), mesh, the patch of each
face, the representative assignment (each vertex's representative and grid
cell), the Steiner nodes (their two patches, lift and marked vertices), the
spanner edges (each node pair once, u < v, with its weight and face), and
the landmark scheme (landmarks, the home landmark of each node, next-hop
maps); the one exception is the representative count, kept as a check.
`deserialize` rebuilds the patches (seed face, plane, frame, vertices) and
vertex owners through `patching.build_decomposition`, the representatives
as the distinct `rep_of` values, the rep nodes through `spanner.rep_nodes`
and the graph's indices through `spanner.spanner_graph`, and theta_m, the
hop faces and the vertex tables through the same tail as `preprocess_mesh`,
so a loaded system equals the built one. Ids in a file whose checksum holds
are still checked against the counts they index and refused with
`IdOutOfRange`; the representative assignment is checked against itself
and against the stored count, since every later node id depends on it, and
refused with `InconsistentAssignment`; an edge stored reversed or twice is
refused with `NonCanonicalEdge`. The 2D node positions in each patch frame
are construction-local and not kept; node labels are built per packet from
the stored homes.
"""
from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .polytope import TriangulatedPolytope, PolytopeMetrics, compute_theta_m, from_arrays
from .patching import (
    PatchDecomposition,
    build_decomposition,
    build_sketch,
    compute_patches,
    project_patch,
)
from .sampling import RepresentativeAssignment, build_grid, select_representatives
from .spanner import (
    DisconnectedSpanner,
    SpannerGraph,
    SpannerNode,
    build_spanner,
    rep_nodes,
    spanner_graph,
)
from .compact_routing import (
    LandmarkScheme,
    NodeLabel,
    materialize_plane_entries,
    prune_intra_face,
    tz_preprocess,
)

__all__ = [
    "SerializationError",
    "FormatVersionMismatch",
    "ChecksumMismatch",
    "TruncatedStream",
    "IdOutOfRange",
    "InconsistentAssignment",
    "NonCanonicalEdge",
    "EntryKind",
    "RoutingEntry",
    "RoutingTable",
    "RoutingSystem",
    "build_tables",
    "preprocess_mesh",
    "serialize",
    "deserialize",
    "to_json",
]

MAGIC = b"PRT1"
VERSION = 5


class SerializationError(ValueError):
    pass


class FormatVersionMismatch(SerializationError):
    pass


class ChecksumMismatch(SerializationError):
    pass


class TruncatedStream(SerializationError):
    pass


class IdOutOfRange(SerializationError):
    """A stored id is not below the count of what it indexes."""


class InconsistentAssignment(SerializationError):
    """The stored representative assignment contradicts itself."""


class NonCanonicalEdge(SerializationError):
    """A spanner edge is stored with u >= v, or its node pair twice."""


class EntryKind(Enum):
    TO_MY_REP = 0
    REP_TO_MEMBER = 1
    REP_TO_REP_SAME_PATCH = 2
    MARKED_RELAY = 3


@dataclass(frozen=True)
class RoutingEntry:
    kind: EntryKind
    dest: int


@dataclass
class RoutingTable:
    vertex: int
    entries: dict = field(default_factory=dict)
    g_node: int = -1

    def local_entry_count(self) -> int:
        return len(self.entries)


@dataclass
class RoutingSystem:
    """Everything the routing phase needs, in one serializable bundle."""

    P: TriangulatedPolytope | None = None
    eps: float = 0.0
    metrics: PolytopeMetrics | None = None
    decomp: PatchDecomposition | None = None
    assignment: RepresentativeAssignment | None = None
    graph: SpannerGraph | None = None
    scheme: LandmarkScheme | None = None
    hop_faces: dict = field(default_factory=dict)  # (min, max) node pair -> sketch face
    # per Steiner node id: its aim point as a float row and its marked
    # vertices, ascending (None for rep nodes, which aim at their vertex)
    node_aims: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)

    def is_empty(self) -> bool:
        return self.P is None

    def label_of_vertex(self, t: int) -> NodeLabel:
        """The label a packet for t carries: t's representative node, that
        node's home landmark, and t's patch and grid cell."""
        node = self.graph.node_of_vertex[self.assignment.rep_of[t]]
        return NodeLabel(node, self.scheme.home[node], *self.assignment.cell_of[t])

    def total_entries(self) -> int:
        """Entry count for the amortized-size law: local plane entries plus
        scheme entries, Steiner-node tables counted at both marked vertices."""
        total = sum(t.local_entry_count() for t in self.tables.values())
        if self.scheme is None or self.graph is None:
            return total
        for node in self.graph.nodes:
            copies = 1 if node.kind == "rep" else 2
            total += copies * self.scheme.entries_at(node.id)
        return total

    def summary(self) -> dict:
        g = self.graph
        return {
            "n": self.P.n,
            "faces": self.P.num_faces,
            "epsilon": self.eps,
            "patches": self.decomp.count,
            "representatives": len(self.assignment.reps),
            "spanner_nodes": g.num_nodes,
            "spanner_edges": len(g.edges),
            "landmarks": len(self.scheme.landmarks),
            "table_entries": self.total_entries(),
            "theta_m": self.metrics.theta_m,
        }


def build_tables(
    P: TriangulatedPolytope,
    decomp: PatchDecomposition,
    assignment: RepresentativeAssignment,
    graph: SpannerGraph,
) -> dict[int, RoutingTable]:
    relays: dict[int, list[int]] = {}
    for node in graph.nodes:
        if node.kind == "steiner":
            for x in sorted(set(node.marked)):
                relays.setdefault(x, []).append(node.id)

    tables: dict[int, RoutingTable] = {}
    for v in range(P.n):
        entries: dict = {}
        r = assignment.rep_of[v]
        if r != v:
            entries[("v", r)] = RoutingEntry(EntryKind.TO_MY_REP, r)
        else:
            for m in assignment.members.get(v, ()):
                if m != v:
                    entries[("v", m)] = RoutingEntry(EntryKind.REP_TO_MEMBER, m)
            owner = int(decomp.owner_of_vertex[v])
            for r2 in assignment.patch_reps.get(owner, ()):
                if r2 != v:
                    entries[("v", r2)] = RoutingEntry(EntryKind.REP_TO_REP_SAME_PATCH, r2)
        for s in relays.get(v, ()):
            entries[("s", s)] = RoutingEntry(EntryKind.MARKED_RELAY, s)
        tables[v] = RoutingTable(vertex=v, entries=entries,
                                 g_node=graph.node_of_vertex.get(v, -1))
    return tables


def preprocess_mesh(P: TriangulatedPolytope, eps: float) -> RoutingSystem:
    """Run the full preprocessing pipeline and return the routing system;
    eps is both the patches' normal-angle spread and the sampling and cone
    parameter."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    metrics = compute_theta_m(P)
    decomp = compute_patches(P, eps)
    sketch = build_sketch(P, decomp)
    projections = {p.id: project_patch(P, p) for p in decomp.patches}
    grids = {pid: build_grid(proj, eps) for pid, proj in projections.items()}
    assignment = select_representatives(grids, projections, decomp)
    graph = build_spanner(P, decomp, sketch, assignment, projections, eps)
    if not graph.connected:
        hint = (
            "larger" if decomp.count * 2 > P.n else "smaller"
        )  # many rep-less sketch faces cannot relay; rebalance patches vs n
        raise DisconnectedSpanner(
            f"global spanner is disconnected ({decomp.count} patches over "
            f"{P.n} vertices); retry with a {hint} epsilon"
        )
    scheme = prune_intra_face(tz_preprocess(graph), graph)
    return _derive_rest(P, eps, metrics, decomp, assignment, graph, scheme)


def _derive_rest(P, eps, metrics, decomp, assignment, graph, scheme) -> RoutingSystem:
    """The tail shared by `preprocess_mesh` and `deserialize`: derive the
    sketch face of every spanner edge (so of every scheme next hop), the
    Steiner nodes' aim points and arrival vertices, and the per-vertex
    tables from the stored data, so a loaded system equals the built one by
    construction."""
    return RoutingSystem(
        P=P, eps=eps, metrics=metrics, decomp=decomp,
        assignment=assignment, graph=graph, scheme=scheme,
        hop_faces=materialize_plane_entries(graph),
        node_aims=[None if nd.kind == "rep"
                   else (nd.lift3d.tolist(), tuple(sorted(set(nd.marked))))
                   for nd in graph.nodes],
        tables=build_tables(P, decomp, assignment, graph),
    )


# ---------------------------------------------------------------------------
# binary serialization

_SEC_META = 1
_SEC_MESH = 2
_SEC_PATCHES = 3
_SEC_ASSIGN = 4
_SEC_NODES = 5
_SEC_EDGES = 6
_SEC_SCHEME = 7

# fixed-size records, packed little-endian; each section writes and reads its
# records as one array of these
# Steiner nodes only; rep nodes are rebuilt from the assignment
_NODE_REC = np.dtype([
    ("patch_a", "<u4"), ("patch_b", "<u4"), ("lift3d", "<f8", (3,)), ("marked", "<u4", (2,)),
])
_EDGE_REC = np.dtype([("u", "<u4"), ("v", "<u4"), ("weight", "<f8"), ("face", "<u4")])


class _Writer:
    def __init__(self):
        self.buf = bytearray()

    def u8(self, x): self.buf += struct.pack("<B", x)
    def u16(self, x): self.buf += struct.pack("<H", x)
    def u32(self, x): self.buf += struct.pack("<I", x)
    def i64(self, x): self.buf += struct.pack("<q", x)
    def f64(self, x): self.buf += struct.pack("<d", float(x))

    def f64s(self, arr):
        self.buf += np.ascontiguousarray(arr, dtype="<f8").tobytes()

    def i64s(self, arr):
        self.buf += np.ascontiguousarray(arr, dtype="<i8").tobytes()

    def records(self, dtype: np.dtype, rows: list[tuple]):
        self.u32(len(rows))
        self.buf += np.array(rows, dtype=dtype).tobytes()


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise TruncatedStream("stream ended mid-record")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self): return struct.unpack("<B", self.take(1))[0]
    def u16(self): return struct.unpack("<H", self.take(2))[0]
    def u32(self): return struct.unpack("<I", self.take(4))[0]
    def f64(self): return struct.unpack("<d", self.take(8))[0]

    def f64s(self, count) -> np.ndarray:
        return np.frombuffer(self.take(8 * count), dtype="<f8").astype(np.float64)

    def i64s(self, count) -> np.ndarray:
        return np.frombuffer(self.take(8 * count), dtype="<i8").astype(np.int64)

    def records(self, dtype: np.dtype) -> np.ndarray:
        """A u32 count, then that many records, as one structured array."""
        count = self.u32()
        return np.frombuffer(self.take(dtype.itemsize * count), dtype=dtype)


def serialize(system: RoutingSystem) -> bytes:
    """Serialize to the .prt byte format; an empty system is a bare header."""
    sections: list[tuple[int, bytes]] = []
    if not system.is_empty():
        sections.append((_SEC_META, _write_meta(system)))
        sections.append((_SEC_MESH, _write_mesh(system.P)))
        sections.append((_SEC_PATCHES, _write_patches(system.decomp)))
        sections.append((_SEC_ASSIGN, _write_assignment(system.assignment, system.P.n)))
        sections.append((_SEC_NODES, _write_nodes(system.graph)))
        sections.append((_SEC_EDGES, _write_edges(system.graph)))
        sections.append((_SEC_SCHEME, _write_scheme(system.scheme)))
    head = _Writer()
    head.buf += MAGIC
    head.u16(VERSION)
    head.u16(0)
    head.u32(len(sections))
    for tag, payload in sections:
        head.u8(tag)
        head.buf += struct.pack("<Q", len(payload))
        head.buf += payload
    crc = zlib.crc32(bytes(head.buf)) & 0xFFFFFFFF
    head.u32(crc)
    return bytes(head.buf)


def deserialize(data: bytes) -> RoutingSystem:
    if len(data) < 16:
        raise TruncatedStream("shorter than the fixed header")
    body, trailer = data[:-4], data[-4:]
    if struct.unpack("<I", trailer)[0] != (zlib.crc32(body) & 0xFFFFFFFF):
        raise ChecksumMismatch("CRC32 trailer does not match")
    r = _Reader(body)
    if r.take(4) != MAGIC:
        raise FormatVersionMismatch("bad magic")
    version = r.u16()
    if version != VERSION:
        raise FormatVersionMismatch(f"unsupported version {version}")
    r.u16()
    nsec = r.u32()
    payloads: dict[int, _Reader] = {}
    for _ in range(nsec):
        tag = r.u8()
        (length,) = struct.unpack("<Q", r.take(8))
        payloads[tag] = _Reader(r.take(length))
    if not payloads:
        return RoutingSystem()
    return _reassemble(payloads)


def _write_meta(system: RoutingSystem) -> bytes:
    w = _Writer()
    w.f64(system.eps)
    return bytes(w.buf)


def _write_mesh(P: TriangulatedPolytope) -> bytes:
    w = _Writer()
    w.u32(P.n)
    w.u32(P.num_faces)
    w.f64s(P.vertices)
    w.i64s(P.faces)
    return bytes(w.buf)


def _write_patches(decomp: PatchDecomposition) -> bytes:
    w = _Writer()
    w.i64s(decomp.patch_of_face)
    return bytes(w.buf)


def _write_assignment(a: RepresentativeAssignment, n: int) -> bytes:
    w = _Writer()
    rep_arr = np.array([a.rep_of[v] for v in range(n)], dtype=np.int64)
    cell_arr = np.array([a.cell_of[v][1] for v in range(n)], dtype=np.int64)
    w.i64s(rep_arr)
    w.i64s(cell_arr)
    w.u32(len(a.reps))
    return bytes(w.buf)


def _write_nodes(g: SpannerGraph) -> bytes:
    w = _Writer()
    w.records(_NODE_REC, [(*nd.patches, nd.lift3d, nd.marked)
                          for nd in g.nodes if nd.kind == "steiner"])
    return bytes(w.buf)


def _write_edges(g: SpannerGraph) -> bytes:
    w = _Writer()
    w.records(_EDGE_REC, g.edges)
    return bytes(w.buf)


def _write_scheme(s: LandmarkScheme) -> bytes:
    """Landmarks, the home landmark of every node id in order, then the
    three next-hop groups."""
    w = _Writer()
    w.u32(len(s.landmarks))
    w.i64s(s.landmarks)
    w.i64s([s.home[u] for u in range(len(s.home))])
    for group in (s.exact_next, s.to_landmark_next, s.landmark_full_next):
        w.u32(len(group))
        for u in sorted(group):
            m = group[u]
            w.i64(u)
            w.u32(len(m))
            w.i64s([x for k in sorted(m) for x in (k, m[k])])
    return bytes(w.buf)


def _check_ids(ids, count: int, what: str) -> None:
    """Refuse any id outside [0, count)."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= count):
        raise IdOutOfRange(f"{what} id out of range [0, {count})")


def _check_assignment(rep_list: list[int], owner_list: list[int]) -> None:
    """Refuse an assignment whose `rep_of` names a vertex that is not its
    own representative, or one outside the vertex's patch."""
    for v, rv in enumerate(rep_list):
        if rep_list[rv] != rv:
            raise InconsistentAssignment(
                f"rep_of[{v}] = {rv} is not its own representative")
        if owner_list[rv] != owner_list[v]:
            raise InconsistentAssignment(
                f"representative {rv} of vertex {v} lies outside the vertex's patch")


def _read_intmap_group(r: _Reader, count: int) -> dict[int, dict[int, int]]:
    """Per node: its id, a u32 size and that many (key, next hop) i64 pairs;
    every one of these is a node id below `count`."""
    group, pairs = {}, []
    for _ in range(r.u32()):
        u, size = struct.unpack("<qI", r.take(12))
        pairs.append(r.take(16 * size))
        flat = struct.unpack(f"<{2 * size}q", pairs[-1])
        group[u] = dict(zip(flat[::2], flat[1::2]))
    _check_ids(list(group), count, "scheme node")
    _check_ids(np.frombuffer(b"".join(pairs), dtype="<i8"), count, "scheme node")
    return group


def _reassemble(payloads: dict[int, _Reader]) -> RoutingSystem:
    for tag in (_SEC_META, _SEC_MESH, _SEC_PATCHES, _SEC_ASSIGN, _SEC_NODES,
                _SEC_EDGES, _SEC_SCHEME):
        if tag not in payloads:
            raise TruncatedStream(f"missing section {tag}")
    r = payloads[_SEC_META]
    eps = r.f64()

    r = payloads[_SEC_MESH]
    n = r.u32()
    nf = r.u32()
    verts = r.f64s(3 * n).reshape(n, 3)
    faces = r.i64s(3 * nf).reshape(nf, 3)
    _check_ids(faces, n, "mesh vertex")
    P = from_arrays(verts, faces)

    patch_of_face = payloads[_SEC_PATCHES].i64s(nf)
    present = np.unique(patch_of_face)
    if not len(present) or present[0] != 0 or present[-1] != len(present) - 1:
        raise IdOutOfRange("patch ids must run from 0 up, each with a face")
    decomp = build_decomposition(P, patch_of_face)

    r = payloads[_SEC_ASSIGN]
    rep_of = r.i64s(n)
    cell_list = r.i64s(n).tolist()
    _check_ids(rep_of, n, "rep_of vertex")
    rep_list = rep_of.tolist()
    owner_list = decomp.owner_of_vertex.tolist()
    _check_assignment(rep_list, owner_list)
    reps = sorted(set(rep_list))
    # every later node id counts the reps before it, so a rep_of that agrees
    # with itself but adds or drops a rep would misread the sections below
    if len(reps) != r.u32():
        raise InconsistentAssignment("rep_of names a different number of representatives")
    members: dict[int, list[int]] = {}
    for v, rv in enumerate(rep_list):
        members.setdefault(rv, []).append(v)
    # every patch, its reps in cell order, as `select_representatives` lists them
    patch_reps: dict[int, list[int]] = {pid: [] for pid in range(decomp.count)}
    for rv in sorted(reps, key=cell_list.__getitem__):
        patch_reps[owner_list[rv]].append(rv)
    assignment = RepresentativeAssignment(
        reps=reps,
        rep_of=dict(enumerate(rep_list)),
        cell_of={v: (owner_list[v], cell_list[v]) for v in range(n)},
        members=members,
        patch_reps=patch_reps,
    )

    # rep nodes first, as `place_steiner_points` numbers them, then Steiner
    nodes = rep_nodes(P, decomp, reps)
    rec = payloads[_SEC_NODES].records(_NODE_REC)
    for name, count in (("patch_a", decomp.count), ("patch_b", decomp.count), ("marked", n)):
        _check_ids(rec[name], count, f"Steiner node {name}")
    for pa, pb, lift3d, (mx, my) in zip(rec["patch_a"].tolist(), rec["patch_b"].tolist(),
                                         rec["lift3d"].astype(np.float64),
                                         rec["marked"].tolist()):
        nodes.append(SpannerNode(id=len(nodes), kind="steiner", patches=(pa, pb),
                                 lift3d=lift3d, marked=(mx, my)))
    rec = payloads[_SEC_EDGES].records(_EDGE_REC)
    for name, count in (("u", len(nodes)), ("v", len(nodes)), ("face", decomp.count)):
        _check_ids(rec[name], count, f"edge {name}")
    u, v = rec["u"].astype(np.int64), rec["v"].astype(np.int64)
    if (u >= v).any() or len(np.unique(u * len(nodes) + v)) != len(u):
        raise NonCanonicalEdge("an edge is stored reversed or more than once")
    graph = spanner_graph(nodes, rec.tolist())

    r = payloads[_SEC_SCHEME]
    landmarks = r.i64s(r.u32())
    homes = r.i64s(len(nodes))
    _check_ids(landmarks, len(nodes), "landmark")
    _check_ids(homes, len(nodes), "home landmark")
    home = dict(enumerate(homes.tolist()))
    groups = [_read_intmap_group(r, len(nodes)) for _ in range(3)]
    scheme = LandmarkScheme(
        landmarks=landmarks.tolist(), home=home, exact_next=groups[0],
        to_landmark_next=groups[1], landmark_full_next=groups[2],
    )

    return _derive_rest(P, eps, compute_theta_m(P), decomp, assignment, graph, scheme)


def to_json(system: RoutingSystem) -> str:
    """A human-readable view of a system, for debugging. It is not a mirror of
    the binary format: beside stored data it emits derived tables, each
    patch's representative face and plane, and the rep nodes."""
    if system.is_empty():
        return json.dumps({"empty": True})
    doc = {
        "epsilon": system.eps,
        "mesh": {
            "vertices": system.P.vertices.tolist(),
            "faces": system.P.faces.tolist(),
        },
        "patches": [
            {
                "id": p.id,
                "rep_face": p.rep_face,
                "anchor": p.gamma.anchor.tolist(),
                "dir1": p.gamma.dir1.tolist(),
                "dir2": p.gamma.dir2.tolist(),
                "normal": p.gamma.normal.tolist(),
            }
            for p in system.decomp.patches
        ],
        "representatives": system.assignment.reps,
        "nodes": [
            {
                "id": nd.id, "kind": nd.kind, "patches": list(nd.patches),
                "vertex": nd.vertex, "lift": nd.lift3d.tolist(),
                "marked": list(nd.marked) if nd.marked else None,
            }
            for nd in system.graph.nodes
        ],
        "edges": [[u, v, w, f] for (u, v, w, f) in system.graph.edges],
        "landmarks": system.scheme.landmarks,
        "tables": {
            str(v): {
                "g_node": t.g_node,
                "entries": [{"kind": e.kind.name, "dest": e.dest}
                            for e in t.entries.values()],
            }
            for v, t in sorted(system.tables.items())
        },
    }
    return json.dumps(doc, indent=2)
