"""Ingestion, validation, and indexing of a triangulated convex polytope.

The accepted input is a closed, consistently oriented triangle mesh whose
vertices all lie on the inner side of every face plane, up to a slack of
1e-9 + 1e-7 * max|coordinate|. A mesh whose faces all point inward (negative
signed volume) is flipped first.
Adjacency indices (edge -> faces, neighbours, cyclic vertex fans) and the
edge-length table are built once at load time from one sort of the
half-edges, which pairs each with its twin (the reverse half-edge), and the
structure is immutable afterwards. What each check refuses: `ParseError` an
OFF token that does not parse (naming its vertex or face), a non-finite
vertex coordinate, a face id outside [0, n) or a face that repeats a
vertex (`from_arrays` is the one gate on face rows), a repeated half-edge
(a face against the orientation of its neighbours) or a zero-area face;
`NonTriangular` a face of other than three vertices; `NotClosed` a
half-edge without a twin (an open mesh), an Euler characteristic other
than 2 (e.g. two disjoint shells), a vertex no face references, or a
vertex whose faces form more than one fan (non-manifold); `NonConvex` a
vertex outside a face plane. Once every half-edge is unique and has its
twin, each edge bounds exactly two faces.
The two all-pairs passes (convexity against every face plane, and the
diameter) run over fixed blocks of rows, so no step holds more than
O(n + F) memory per block.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import geometry
from .geometry import SNAP_EPS, DegenerateFace, cross, dot, norm

_BLOCK = 64  # rows per block in the pairwise passes of diameter() and _check_convex

__all__ = [
    "PolytopeError",
    "ParseError",
    "NonTriangular",
    "NotClosed",
    "NonConvex",
    "TriangulatedPolytope",
    "PolytopeMetrics",
    "load_off",
    "save_off",
    "dual_graph",
    "compute_theta_m",
]


class PolytopeError(ValueError):
    pass


class ParseError(PolytopeError):
    pass


class NonTriangular(PolytopeError):
    pass


class NotClosed(PolytopeError):
    pass


class NonConvex(PolytopeError):
    pass


@dataclass
class TriangulatedPolytope:
    """Validated convex triangle mesh with adjacency indices.

    faces are index triples with consistent outward (counterclockwise as seen
    from outside) orientation. edge_adjacency maps each undirected edge
    (u, v) with u < v to the pair of incident face indices. vertex_rows and
    face_rows are vertices and faces as Python lists, and edge_lengths maps
    each edge_adjacency key to the edge's length as a float, for per-hop
    arithmetic.
    """

    vertices: np.ndarray
    faces: np.ndarray
    edge_adjacency: dict = field(default_factory=dict)
    vertex_fan: dict = field(default_factory=dict)
    neighbors: dict = field(default_factory=dict)
    vertex_rows: list = field(default_factory=list)
    face_rows: list = field(default_factory=list)
    edge_lengths: dict = field(default_factory=dict)
    face_normals: np.ndarray | None = None
    face_offsets: np.ndarray | None = None
    _diameter: float | None = field(default=None, repr=False)
    _snap: float | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    @property
    def num_edges(self) -> int:
        return len(self.edge_adjacency)

    def edges(self) -> Iterable[tuple[int, int]]:
        return self.edge_adjacency.keys()

    def edge_length(self, u: int, v: int) -> float:
        return self.edge_lengths[(u, v) if u < v else (v, u)]

    def diameter(self) -> float:
        """Max pairwise vertex distance, cached. Each block of rows is set
        only against the vertices from its own first row on (d2 is
        symmetric), so memory stays O(_BLOCK * n); d2 is the kernel's
        `dot` of each difference with itself, over contiguous columns."""
        if self._diameter is None:
            cols = [self.vertices[:, k].copy() for k in range(3)]
            best = 0.0
            for i in range(0, self.n, _BLOCK):
                d = [c[i:i + _BLOCK, None] - c[None, i:] for c in cols]
                best = max(best, float(dot(d, d).max()))
            self._diameter = math.sqrt(best)
        return self._diameter

    @property
    def snap(self) -> float:
        """The mesh-scale snap distance, `geometry.snap` of the diameter:
        every coincidence test at the scale of the whole mesh uses it.
        Cached with the diameter."""
        if self._snap is None:
            self._snap = geometry.snap(self.diameter())
        return self._snap

    def surface_area(self) -> float:
        v = self.vertices[self.faces]
        return float(0.5 * norm(cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])).sum())


@dataclass(frozen=True)
class PolytopeMetrics:
    theta_m: float


def load_off(text: str | bytes) -> TriangulatedPolytope:
    """Parse an OFF mesh and validate it with `from_arrays`. The text is
    tokenized once (a `#` comments out the rest of its line), and the vertex
    and face blocks parse as one float64 and one int64 array of (size, i,
    j, k) rows, with the bits of `float` and `int` on each token."""
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    tokens = " ".join(line.split("#", 1)[0] for line in text.splitlines()).split()
    header = tokens[0] if tokens else ""
    if header.upper() != "OFF":
        raise ParseError(f"expected OFF header, got {header!r}")
    try:
        nv, nf, _edges = map(int, tokens[1:4])  # the edge count is informational in OFF
    except ValueError as exc:
        raise ParseError(f"bad counts line: {exc}") from None
    if nv < 4:
        raise ParseError("a polytope needs at least 4 vertices")
    if nf < 0 or 3 * nv + 4 * nf > len(tokens) - 4:
        raise ParseError(f"counts of {nv} vertices and {nf} faces exceed the input")
    verts = _parse_rows(tokens[4:4 + 3 * nv], np.float64, "vertex", 3)
    rows = _parse_rows(tokens[4 + 3 * nv:4 + 3 * nv + 4 * nf], np.int64, "face", 4)
    bad = np.flatnonzero(rows[:, 0] != 3)
    if len(bad):
        raise NonTriangular(f"face {bad[0]} has {rows[bad[0], 0]} vertices; "
                            "only triangles are accepted")
    return from_arrays(verts, rows[:, 1:])


def _parse_rows(tokens: list[str], dtype, what: str, width: int) -> np.ndarray:
    """`tokens` as rows of `width` values of `dtype`. Only if the block
    fails to parse are its tokens tried one by one, so that the
    `ParseError` names the row of the first bad one (an int past int64
    included)."""
    try:
        return np.array(tokens, dtype=dtype).reshape(-1, width)
    except (ValueError, OverflowError):
        for i, token in enumerate(tokens):
            try:
                np.array(token, dtype=dtype)
            except (ValueError, OverflowError) as exc:
                raise ParseError(f"bad {what} {i // width}: {exc}") from None
        raise


def from_arrays(vertices: np.ndarray, faces: np.ndarray) -> TriangulatedPolytope:
    """Validate raw vertex/face arrays and build the adjacency indices. The
    one gate on face rows: the first face (in face order) with an id
    outside [0, n) or a repeated vertex is refused with `ParseError`."""
    vertices = np.asarray(vertices, dtype=np.float64)
    faces = np.asarray(faces, dtype=np.int64)
    if not np.isfinite(vertices).all():
        raise ParseError("non-finite vertex coordinate")
    if faces.ndim != 2 or faces.shape[1] != 3:
        raise NonTriangular("faces array must be (F, 3)")
    out = ((faces < 0) | (faces >= len(vertices))).any(axis=1)
    bad = out | (faces == faces[:, [1, 2, 0]]).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ParseError(f"face {i} " + ("references vertex out of range" if out[i]
                                         else "repeats a vertex"))
    # signed volume decides global orientation; all-inward meshes are flipped
    v = vertices[faces]
    if float(dot(cross(v[:, 0], v[:, 1]), v[:, 2]).sum()) < 0:
        faces = faces[:, ::-1].copy()
    P = TriangulatedPolytope(vertices=vertices, faces=faces)
    _build_adjacency(P)
    _check_convex(P)
    return P


def _twins(n: int, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Half-edge 3f+k runs from corner k of face f to corner k+1. One stable
    argsort of the keys tail*n + head refuses a repeated half-edge and one
    without its reverse; returns each half-edge's twin, its tail and head,
    and the sort order."""
    tail = faces.ravel()
    head = faces[:, [1, 2, 0]].ravel()
    keys = tail * n + head
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    if (ranked[1:] == ranked[:-1]).any():
        raise ParseError("inconsistent face orientation (repeated half-edge)")
    reverse = head * n + tail
    at = np.minimum(np.searchsorted(ranked, reverse), len(ranked) - 1)
    lost = ranked[at] != reverse
    if lost.any():
        h = int(np.argmax(lost))
        raise NotClosed(f"edge ({tail[h]}, {head[h]}) is not shared by two faces")
    return order[at], tail, head, order


def _build_adjacency(P: TriangulatedPolytope) -> None:
    P.face_rows = P.faces.tolist()
    P.vertex_rows = P.vertices.tolist()
    twin, tail, head, order = _twins(P.n, P.faces)
    # an edge's key is first met at the lower of its two half-edges
    first = np.flatnonzero(np.arange(len(twin)) < twin)
    lo = np.minimum(tail[first], head[first])
    hi = np.maximum(tail[first], head[first])
    keys = list(zip(lo.tolist(), hi.tolist()))
    P.edge_adjacency = dict(zip(keys, zip((first // 3).tolist(), (twin[first] // 3).tolist())))
    # the kernel's norm over the columns of all edges, with the bits of
    # `norm(sub(vertex_rows[u], vertex_rows[v]))` either way round (a - b is
    # exactly -(b - a), and the kernel's sums do not depend on the batch)
    V = P.vertices
    P.edge_lengths = dict(zip(keys, norm([V[lo, k] - V[hi, k] for k in range(3)]).tolist()))

    euler = P.n - len(P.edge_adjacency) + len(P.faces)
    if euler != 2:
        raise NotClosed(f"Euler characteristic is {euler}, expected 2")

    # in sort order, each vertex's outgoing half-edges are one run, by head
    bounds = np.searchsorted(tail[order], np.arange(P.n + 1)).tolist()
    heads = head[order].tolist()
    P.neighbors = {v: heads[bounds[v]:bounds[v + 1]] for v in range(P.n)}

    P.vertex_fan = _vertex_fans(twin, order, bounds)

    corner = P.vertices[P.faces[:, 0]]
    normals = cross(P.vertices[P.faces[:, 1]] - corner, P.vertices[P.faces[:, 2]] - corner)
    norms = norm(normals)
    if (norms <= SNAP_EPS).any():
        raise ParseError("degenerate (zero-area) face")
    P.face_normals = np.stack(normals, axis=1) / norms[:, None]
    P.face_offsets = dot(P.face_normals, corner)


def _vertex_fans(twin: np.ndarray, order: np.ndarray, bounds: list[int]) -> dict[int, list[int]]:
    """The faces around each vertex in walking order, from its lowest-index
    face: succ(h) = next(twin(h)) is the vertex's outgoing half-edge in the
    face across h, and the walk starts at the lowest outgoing one. succ is
    a permutation, so the walk is a cycle; a fan that misses some of the
    vertex's outgoing half-edges marks a non-manifold vertex (two cones
    meeting there)."""
    count = np.diff(bounds)
    if (count == 0).any():
        raise NotClosed(f"vertex {int(np.argmin(count))} is not referenced by any face")
    start = np.minimum.reduceat(order, bounds[:-1]).tolist()
    succ = (twin + np.array([1, 1, -2])[twin % 3]).tolist()
    count = count.tolist()
    fans = {}
    for v, h0 in enumerate(start):
        fan = [h0 // 3]
        h = succ[h0]
        while h != h0:
            fan.append(h // 3)
            h = succ[h]
        if len(fan) != count[v]:
            raise NotClosed(f"non-manifold fan at vertex {v}")
        fans[v] = fan
    return fans


def _check_convex(P: TriangulatedPolytope) -> None:
    # vertex-to-plane distances over blocks of vertex rows, O(_BLOCK * F)
    # memory; col_max[f] is the largest distance of any vertex to face f.
    # The one BLAS product left in the system: it only decides accept or
    # reject, and the kernel's elementwise form costs 2-3x as much here.
    scale = float(np.abs(P.vertices).max())
    thr = SNAP_EPS + SNAP_EPS * scale * 100.0
    col_max = np.full(P.num_faces, -np.inf)
    for i in range(0, P.n, _BLOCK):
        dists = P.vertices[i:i + _BLOCK] @ P.face_normals.T
        dists -= P.face_offsets
        np.maximum(col_max, dists.max(axis=0), out=col_max)
    worst = float(col_max.max())
    if worst > thr:
        fi = int(np.argmax(col_max))
        raise NonConvex(
            f"vertex lies {worst:.3e} outside the plane of face {fi} (threshold {thr:.3e})"
        )


def save_off(P: TriangulatedPolytope) -> str:
    out = io.StringIO()
    out.write("OFF\n")
    out.write(f"{P.n} {P.num_faces} {P.num_edges}\n")
    for v in P.vertices:
        out.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
    for f in P.faces:
        out.write(f"3 {f[0]} {f[1]} {f[2]}\n")
    return out.getvalue()


def dual_graph(P: TriangulatedPolytope) -> list[list[int]]:
    """Face-adjacency graph: one node per face, an edge per shared mesh edge."""
    adj: list[set[int]] = [set() for _ in range(P.num_faces)]
    for (a, b) in P.edge_adjacency.values():
        adj[a].add(b)
        adj[b].add(a)
    return [sorted(s) for s in adj]


def compute_theta_m(P: TriangulatedPolytope) -> PolytopeMetrics:
    """theta_m = half the minimum corner angle over all faces. On a closed
    triangulated surface every corner is also a consecutive edge pair of some
    vertex fan, so this is the vertex-fan reading as well.

    The corners are computed over all faces at once with the kernel calls
    of `geometry.corner_angle`, so every cosine has that function's bits;
    acos is decreasing, so the smallest angle is the acos of the largest
    cosine."""
    V = P.vertices
    eps = SNAP_EPS
    max_cos = -1.0
    for k in range(3):
        p = V[P.faces[:, k]]
        e1 = V[P.faces[:, (k + 1) % 3]] - p
        e2 = V[P.faces[:, (k + 2) % 3]] - p
        n1, n2 = norm(e1), norm(e2)
        if ((n1 <= eps) | (n2 <= eps)).any():
            raise DegenerateFace("face has a near-zero edge")
        if (norm(cross(e1, e2)) / (n1 * n2) <= eps).any():
            raise DegenerateFace("face is near-collinear")
        cos = dot(e1, e2) / (n1 * n2)
        max_cos = max(max_cos, float(cos.max()))
    min_angle = math.acos(min(1.0, max_cos))
    return PolytopeMetrics(theta_m=0.5 * min_angle)
