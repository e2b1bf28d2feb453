"""Per-vertex routing tables on the polytope and their serialization.

Table kinds: a non-representative vertex holds exactly one entry (toward its
representative); a representative holds one entry per cell member and per
same-patch representative, plus its compact-routing tables over the spanner
(stored once in the shared scheme and attributed to the representative, or
to both marked vertices for a Steiner node); marked vertices hold relay
entries for the Steiner nodes on their edge. An entry is just (kind, dest).
The router reads no table (it takes the same legs from the assignment and
the scheme), so `RoutingSystem.tables` builds them on first read, for
reports only.

The .prt format (version 7; magic PRT1, little-endian length-prefixed
sections, CRC32 trailer, u32 ids) stores only what cannot be derived: eps,
the mesh, each face's patch, each vertex's grid cell, the Steiner nodes,
the spanner edges (each pair once, u < v, with weight and face) and the
scheme's balls as (x, t, next) records sorted by (x, t); the
representative count is kept as a check. `deserialize` derives the rest
with the calls the build uses (`build_decomposition`,
`assemble_assignment` for the reps, each the lowest vertex of its (patch,
cell), `rep_nodes`, `spanner_graph`, `landmark_trees` for the landmarks,
homes and both tree directions, `LandmarkScheme` over the ball records,
then the tail of `preprocess_mesh`), so a loaded system equals the built
one. A file whose checksum holds is still refused with `CorruptMesh` for a mesh that
`from_arrays` refuses (a non-finite vertex coordinate, a mesh that is not
convex, ...; the `PolytopeError` is its cause) or whose derived patch
planes or angles raise a `GeometryError` (a sliver face; that error is the
cause), `IdOutOfRange` for an id past what it indexes,
`InconsistentAssignment` for cells that name a different number of reps
than the count, `NonCanonicalEdge` for an edge stored reversed or twice,
`DisconnectedEdges` (a `DisconnectedSpanner` too) for edges that leave the
spanner disconnected, `NonCanonicalBall` for ball records out of (x, t)
order, repeated, with x == t or held by a landmark x (landmarks hold no
ball), `NonSpannerHop` for a ball next hop off the spanner (so every scheme
next hop is a spanner edge), `MalformedSection` for bytes past a section's
last record or after the last section, or an unknown or repeated tag, and
`ImplausibleValue` for eps outside (0, 1), an edge weight that is not finite
or not above `geometry.SNAP_EPS`, or a non-finite Steiner lift. Versions 1
to 6 are refused with `FormatVersionMismatch`.
"""
from __future__ import annotations

import json
import struct
import time
import zlib
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .geometry import SNAP_EPS, GeometryError
from .polytope import (PolytopeError, PolytopeMetrics, TriangulatedPolytope, compute_theta_m,
                       from_arrays)
from .patching import (
    PatchDecomposition,
    build_decomposition,
    build_sketch,
    compute_patches,
    project_patch,
)
from .sampling import (RepresentativeAssignment, assemble_assignment, build_grid,
                       select_representatives)
from .spanner import (
    DisconnectedSpanner,
    SpannerGraph,
    SpannerNode,
    build_spanner,
    rep_nodes,
    spanner_graph,
)
from .compact_routing import (
    BALL_RECORD,
    LandmarkScheme,
    NodeLabel,
    landmark_trees,
    materialize_plane_entries,
    prune_intra_face,
    spanner_csr,
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
    "NonCanonicalBall",
    "NonSpannerHop",
    "MalformedSection",
    "CorruptMesh",
    "DisconnectedEdges",
    "ImplausibleValue",
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
VERSION = 7


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


class NonCanonicalBall(SerializationError):
    """A ball record is out of (x, t) order, repeated, has x == t, or is
    held by a landmark x (no build writes one)."""


class NonSpannerHop(SerializationError):
    """A ball's next hop is not a spanner neighbour of its node."""


class MalformedSection(SerializationError):
    """Bytes past a section's last record or after the last section, or an
    unknown or repeated section tag."""


class CorruptMesh(SerializationError):
    """The stored mesh is refused by `polytope.from_arrays` (not finite,
    not closed, not triangular or not convex), or a derivation from it
    raises a `GeometryError` (a sliver face that `from_arrays` accepts but
    no patch plane or corner angle can be built on); that error is the
    cause. A file is refused as a file, whatever part of it is wrong."""


class DisconnectedEdges(SerializationError, DisconnectedSpanner):
    """The stored edges leave the spanner disconnected; the
    `DisconnectedSpanner` is the cause."""


class ImplausibleValue(SerializationError):
    """A stored value the build cannot produce: eps outside (0, 1), an edge
    weight that is not finite or not above `geometry.SNAP_EPS`, or a
    non-finite Steiner lift. The Theta pass joins only nodes farther apart
    than their row's snap, `geometry.snap` of a length, which is at least
    SNAP_EPS, so every built weight exceeds it."""


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
    # build stage seconds (keys ending in `_s`) and counts, filled by
    # `preprocess_mesh`; not written to `.prt`, so empty after a load
    stats: dict = field(default_factory=dict, repr=False, compare=False)
    _tables: dict | None = field(default=None, repr=False, compare=False)

    def is_empty(self) -> bool:
        return self.P is None

    @property
    def tables(self) -> dict[int, RoutingTable]:
        """The per-vertex tables, built on first read and kept: they are for
        reports only (entry counts, `to_json`), since forwarding reads the
        assignment and the spanner directly."""
        if self._tables is None:
            self._tables = {} if self.is_empty() else build_tables(
                self.P, self.decomp, self.assignment, self.graph)
        return self._tables

    def label_of_vertex(self, t: int) -> NodeLabel:
        """The label a packet for t carries: t's representative node, that
        node's home landmark, and t's patch and grid cell."""
        node = self.graph.node_of_vertex[self.assignment.rep_of[t]]
        return NodeLabel(node, self.scheme.home[node], *self.assignment.cell_of[t])

    def total_entries(self) -> int:
        """Entry count for the amortized-size law: local plane entries plus
        scheme entries, Steiner-node tables counted at both marked vertices.
        The local entries of `tables` are counted without building them:
        per non-rep one TO_MY_REP and one REP_TO_MEMBER at its rep, per
        patch of r reps r(r - 1) REP_TO_REP_SAME_PATCH, and per Steiner node
        one MARKED_RELAY at each of its distinct marked vertices."""
        if self.is_empty():
            return 0
        a = self.assignment
        total = 2 * (self.P.n - len(a.reps))
        total += sum(len(reps) * (len(reps) - 1) for reps in a.patch_reps.values())
        for node in self.graph.nodes:
            if node.kind == "rep":
                total += self.scheme.entries_at(node.id)
            else:
                total += len(set(node.marked)) + 2 * self.scheme.entries_at(node.id)
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
            "ball_entries": sum(map(len, self.scheme.exact_next.values())),
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
    parameter. The system's `stats` get each stage's `perf_counter`
    seconds (`theta_m_s`, `patches_s`, `diameter_s`, `sketch_s`,
    `representatives_s`, the spanner's `steiner_placement_s`,
    `steiner_lift_s` and `theta_pass_s`, `scheme_s`, `derive_s`, and
    `total_s`), the spanner's counts (`empty_cones`, `steiner_nodes`,
    `lift_pairs`, `theta_pairs`) and the counts of `patches`, `reps`,
    spanner `edges` and `landmarks`."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    stats: dict = {}
    start = t = time.perf_counter()
    metrics = compute_theta_m(P)
    t = _lap(stats, "theta_m_s", t)
    decomp = compute_patches(P, eps)
    t = _lap(stats, "patches_s", t)
    diameter = P.diameter()
    t = _lap(stats, "diameter_s", t)
    sketch = build_sketch(P, decomp, diameter)
    t = _lap(stats, "sketch_s", t)
    projections = {p.id: project_patch(P, p) for p in decomp.patches}
    grids = {pid: build_grid(proj, eps) for pid, proj in projections.items()}
    assignment = select_representatives(grids, projections, decomp)
    t = _lap(stats, "representatives_s", t)
    graph = build_spanner(P, decomp, sketch, assignment, projections, eps, stats)
    if not graph.connected:
        hint = (
            "larger" if decomp.count * 2 > P.n else "smaller"
        )  # many rep-less sketch faces cannot relay; rebalance patches vs n
        raise DisconnectedSpanner(
            f"global spanner is disconnected ({decomp.count} patches over "
            f"{P.n} vertices); retry with a {hint} epsilon"
        )
    t = time.perf_counter()
    scheme = prune_intra_face(tz_preprocess(graph), graph)
    t = _lap(stats, "scheme_s", t)
    system = _derive_rest(P, eps, metrics, decomp, assignment, graph, scheme)
    _lap(stats, "derive_s", t)
    _lap(stats, "total_s", start)
    stats.update(patches=decomp.count, reps=len(assignment.reps), edges=len(graph.edges),
                 landmarks=len(scheme.landmarks))
    system.stats = stats
    return system


def _lap(stats: dict, name: str, start: float) -> float:
    """Store the seconds since `start` as `stats[name]`; returns the time."""
    now = time.perf_counter()
    stats[name] = now - start
    return now


def _derive_rest(P, eps, metrics, decomp, assignment, graph, scheme) -> RoutingSystem:
    """The tail shared by `preprocess_mesh` and `deserialize`: derive the
    sketch face of every spanner edge (so of every scheme next hop) and the
    Steiner nodes' aim points and arrival vertices from the stored data, so
    a loaded system equals the built one by construction."""
    return RoutingSystem(
        P=P, eps=eps, metrics=metrics, decomp=decomp,
        assignment=assignment, graph=graph, scheme=scheme,
        hop_faces=materialize_plane_entries(graph),
        node_aims=[None if nd.kind == "rep"
                   else (nd.lift3d.tolist(), tuple(sorted(set(nd.marked))))
                   for nd in graph.nodes],
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
_SECTIONS = (_SEC_META, _SEC_MESH, _SEC_PATCHES, _SEC_ASSIGN, _SEC_NODES, _SEC_EDGES,
             _SEC_SCHEME)

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
    def f64(self, x): self.buf += struct.pack("<d", float(x))

    def f64s(self, arr):
        self.buf += np.ascontiguousarray(arr, dtype="<f8").tobytes()

    def u32s(self, arr):
        self.buf += np.ascontiguousarray(arr, dtype="<u4").tobytes()

    def records(self, dtype: np.dtype, rows):
        """A u32 count, then the rows (tuples, or an array of `dtype`)."""
        self.u32(len(rows))
        self.buf += np.asarray(rows, dtype=dtype).tobytes()


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

    def u32s(self, count) -> np.ndarray:
        return np.frombuffer(self.take(4 * count), dtype="<u4").astype(np.int64)

    def records(self, dtype: np.dtype) -> np.ndarray:
        """A u32 count, then that many records, as one structured array."""
        count = self.u32()
        return np.frombuffer(self.take(dtype.itemsize * count), dtype=dtype)


def serialize(system: RoutingSystem) -> bytes:
    """Serialize to the .prt byte format; an empty system is a bare header."""
    sections = [] if system.is_empty() else _write_sections(system)
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
    """The system stored in `data` (see the module docstring for what is
    refused). Its `stats` get the load's `perf_counter` seconds: `mesh_s`
    (the mesh section and `from_arrays`), `decomposition_s` (the patches,
    the assignment and the spanner's nodes and edges), `landmark_trees_s`,
    `balls_s` (the ball records, their checks and the pruned balls),
    `derive_s` (theta_m and the derived tail) and `total_s`, which also
    holds the header and checksum."""
    start = time.perf_counter()
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
        if tag not in _SECTIONS or tag in payloads:
            raise MalformedSection(f"unknown or repeated section tag {tag}")
        (length,) = struct.unpack("<Q", r.take(8))
        payloads[tag] = _Reader(r.take(length))
    if r.pos != len(r.buf):
        raise MalformedSection("bytes after the last section")
    if not payloads:
        return RoutingSystem()
    stats: dict = {}
    try:
        system = _reassemble(payloads, stats)
    except GeometryError as exc:
        raise CorruptMesh(f"the stored mesh is refused: {exc}") from exc
    _lap(stats, "total_s", start)
    system.stats = stats
    return system


def _write_sections(system: RoutingSystem) -> list[tuple[int, bytes]]:
    """Each section's payload under its tag, in `_SECTIONS` order; the balls
    go as the scheme's records, sorted by (x, t)."""
    P, a, g = system.P, system.assignment, system.graph
    writers = [_Writer() for _ in _SECTIONS]
    meta, mesh, patches, assign, nodes, edges, scheme = writers
    meta.f64(system.eps)
    mesh.u32(P.n)
    mesh.u32(P.num_faces)
    mesh.f64s(P.vertices)
    mesh.u32s(P.faces)
    patches.u32s(system.decomp.patch_of_face)
    assign.u32s([a.cell_of[v][1] for v in range(P.n)])
    assign.u32(len(a.reps))
    nodes.records(_NODE_REC, [(*nd.patches, nd.lift3d, nd.marked)
                              for nd in g.nodes if nd.kind == "steiner"])
    edges.records(_EDGE_REC, g.edges)
    scheme.records(BALL_RECORD, system.scheme.balls)
    return [(tag, bytes(w.buf)) for tag, w in zip(_SECTIONS, writers)]


def _check_ids(ids, count: int, what: str) -> None:
    """Refuse any id outside [0, count)."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= count):
        raise IdOutOfRange(f"{what} id out of range [0, {count})")


def _reassemble(payloads: dict[int, _Reader], stats: dict) -> RoutingSystem:
    for tag in _SECTIONS:
        if tag not in payloads:
            raise TruncatedStream(f"missing section {tag}")
    r = payloads[_SEC_META]
    eps = r.f64()
    if not 0.0 < eps < 1.0:
        raise ImplausibleValue(f"eps {eps} is outside (0, 1)")

    clock = time.perf_counter()
    r = payloads[_SEC_MESH]
    n = r.u32()
    nf = r.u32()
    verts = r.f64s(3 * n).reshape(n, 3)
    faces = r.u32s(3 * nf).reshape(nf, 3)
    _check_ids(faces, n, "mesh vertex")
    try:
        P = from_arrays(verts, faces)
    except PolytopeError as exc:
        raise CorruptMesh(f"the stored mesh is refused: {exc}") from exc
    clock = _lap(stats, "mesh_s", clock)

    patch_of_face = payloads[_SEC_PATCHES].u32s(nf)
    present = np.unique(patch_of_face)
    if not len(present) or present[0] != 0 or present[-1] != len(present) - 1:
        raise IdOutOfRange("patch ids must run from 0 up, each with a face")
    decomp = build_decomposition(P, patch_of_face)

    r = payloads[_SEC_ASSIGN]
    assignment = assemble_assignment(r.u32s(n).tolist(), decomp.owner_of_vertex.tolist(),
                                     decomp.count)
    # every later node id counts the reps before it, so a cell edit that adds
    # or drops a rep would misread the sections below
    if len(assignment.reps) != r.u32():
        raise InconsistentAssignment("the cells name a different number of representatives")

    # rep nodes first, as `place_steiner_points` numbers them, then Steiner
    nodes = rep_nodes(P, decomp, assignment.reps)
    rec = payloads[_SEC_NODES].records(_NODE_REC)
    for name, count in (("patch_a", decomp.count), ("patch_b", decomp.count), ("marked", n)):
        _check_ids(rec[name], count, f"Steiner node {name}")
    if not np.isfinite(rec["lift3d"]).all():
        raise ImplausibleValue("a Steiner lift is not finite")
    for pa, pb, lift3d, (mx, my) in zip(rec["patch_a"].tolist(), rec["patch_b"].tolist(),
                                         rec["lift3d"].astype(np.float64),
                                         rec["marked"].tolist()):
        nodes.append(SpannerNode(id=len(nodes), kind="steiner", patches=(pa, pb),
                                 lift3d=lift3d, marked=(mx, my)))
    N = len(nodes)
    rec = payloads[_SEC_EDGES].records(_EDGE_REC)
    for name, count in (("u", N), ("v", N), ("face", decomp.count)):
        _check_ids(rec[name], count, f"edge {name}")
    weight = rec["weight"]
    if not (np.isfinite(weight) & (weight > SNAP_EPS)).all():
        raise ImplausibleValue("an edge weight is not finite or not above the snap floor")
    u, v = rec["u"].astype(np.int64), rec["v"].astype(np.int64)
    edge_keys = np.sort(u * N + v)
    if (u >= v).any() or (np.diff(edge_keys) == 0).any():
        raise NonCanonicalEdge("an edge is stored reversed or more than once")
    graph = spanner_graph(nodes, rec.tolist())
    clock = _lap(stats, "decomposition_s", clock)
    # the landmark half; a spanner the edges leave disconnected is refused here
    try:
        *trees, _dist = landmark_trees(graph, spanner_csr(N, u, v, rec["weight"]))
    except DisconnectedSpanner as exc:
        raise DisconnectedEdges(f"the stored edges are refused: {exc}") from exc
    clock = _lap(stats, "landmark_trees_s", clock)

    ball = payloads[_SEC_SCHEME].records(BALL_RECORD)
    for name in ("x", "t", "next"):
        _check_ids(ball[name], N, f"ball {name}")
    x, t, hop = (ball[name].astype(np.int64) for name in ("x", "t", "next"))
    if (np.diff(x * N + t) <= 0).any() or (x == t).any() or np.isin(x, trees[0]).any():
        raise NonCanonicalBall("a ball record is out of (x, t) order, repeated, has x == t, "
                               "or is held by a landmark")
    pair = np.minimum(x, hop) * N + np.maximum(x, hop)
    at = np.minimum(np.searchsorted(edge_keys, pair), len(edge_keys) - 1)
    if len(pair) and (edge_keys[at] != pair).any():
        raise NonSpannerHop("a ball's next hop is not a spanner neighbour of its node")
    for tag, r in payloads.items():
        if r.pos != len(r.buf):
            raise MalformedSection(f"section {tag} holds bytes past its last record")
    scheme = prune_intra_face(LandmarkScheme(*trees, balls=ball), graph)
    clock = _lap(stats, "balls_s", clock)
    system = _derive_rest(P, eps, compute_theta_m(P), decomp, assignment, graph, scheme)
    _lap(stats, "derive_s", clock)
    return system


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
