"""Ingestion, validation, and indexing of a triangulated convex polytope.

The accepted input is a closed, consistently oriented triangle mesh whose
vertices all lie on the inner side of every face plane (within tolerance).
Adjacency indices (edge -> faces, neighbours, cyclic vertex fans) are built
once at load time; the structure is immutable afterwards.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .geometry import DEFAULT_TOL, Tolerance, corner_angle

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
    (u, v) with u < v to the pair of incident face indices.
    """

    vertices: np.ndarray
    faces: np.ndarray
    edge_adjacency: dict = field(default_factory=dict)
    vertex_fan: dict = field(default_factory=dict)
    neighbors: dict = field(default_factory=dict)
    face_normals: np.ndarray | None = None
    face_offsets: np.ndarray | None = None
    tol: Tolerance = DEFAULT_TOL
    _diameter: float | None = field(default=None, repr=False)

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
        return float(np.linalg.norm(self.vertices[u] - self.vertices[v]))

    def diameter(self) -> float:
        # max pairwise distance, cached; fine at the mesh sizes this targets
        if self._diameter is None:
            v = self.vertices
            d2 = ((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=2)
            self._diameter = float(np.sqrt(d2.max()))
        return self._diameter

    def surface_area(self) -> float:
        v = self.vertices[self.faces]
        cross = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
        return float(0.5 * np.linalg.norm(cross, axis=1).sum())

    def other_face(self, f: int, u: int, v: int) -> int:
        a, b = self.edge_adjacency[(min(u, v), max(u, v))]
        return b if a == f else a


@dataclass(frozen=True)
class PolytopeMetrics:
    theta_m: float
    mesh_diameter: float
    n: int


def load_off(text: str | bytes, tol: Tolerance = DEFAULT_TOL) -> TriangulatedPolytope:
    """Parse and validate an OFF mesh; raises on malformed or non-convex input."""
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    tokens = _tokenize_off(text)
    it = iter(tokens)

    def take(what: str) -> str:
        try:
            return next(it)
        except StopIteration:
            raise ParseError(f"unexpected end of input while reading {what}") from None

    header = take("header")
    if header.upper() != "OFF":
        raise ParseError(f"expected OFF header, got {header!r}")
    try:
        nv = int(take("vertex count"))
        nf = int(take("face count"))
        int(take("edge count"))  # edge count is informational in OFF
    except ValueError as exc:
        raise ParseError(f"bad counts line: {exc}") from None
    if nv < 4:
        raise ParseError("a polytope needs at least 4 vertices")
    verts = np.empty((nv, 3), dtype=np.float64)
    for i in range(nv):
        try:
            verts[i] = [float(take("coordinate")) for _ in range(3)]
        except ValueError as exc:
            raise ParseError(f"bad vertex {i}: {exc}") from None
    if not np.isfinite(verts).all():
        raise ParseError("non-finite vertex coordinate")
    faces = np.empty((nf, 3), dtype=np.int64)
    for i in range(nf):
        try:
            k = int(take("face size"))
        except ValueError as exc:
            raise ParseError(f"bad face {i}: {exc}") from None
        if k != 3:
            raise NonTriangular(f"face {i} has {k} vertices; only triangles are accepted")
        try:
            idx = [int(take("face index")) for _ in range(3)]
        except ValueError as exc:
            raise ParseError(f"bad face {i}: {exc}") from None
        if any(j < 0 or j >= nv for j in idx):
            raise ParseError(f"face {i} references vertex out of range")
        if len(set(idx)) != 3:
            raise ParseError(f"face {i} repeats a vertex")
        faces[i] = idx
    return from_arrays(verts, faces, tol=tol)


def _tokenize_off(text: str) -> list[str]:
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        tokens.extend(line.split())
    return tokens


def from_arrays(vertices: np.ndarray, faces: np.ndarray,
                tol: Tolerance = DEFAULT_TOL) -> TriangulatedPolytope:
    """Validate raw vertex/face arrays and build the adjacency indices."""
    vertices = np.asarray(vertices, dtype=np.float64)
    faces = np.asarray(faces, dtype=np.int64)
    if faces.ndim != 2 or faces.shape[1] != 3:
        raise NonTriangular("faces array must be (F, 3)")
    faces = _orient_outward(vertices, faces)
    P = TriangulatedPolytope(vertices=vertices, faces=faces, tol=tol)
    _build_adjacency(P)
    _check_convex(P)
    return P


def _orient_outward(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    directed = set()
    for f in faces:
        for k in range(3):
            e = (int(f[k]), int(f[(k + 1) % 3]))
            if e in directed:
                raise ParseError("inconsistent face orientation (repeated half-edge)")
            directed.add(e)
    for u, v in directed:
        if (v, u) not in directed:
            raise NotClosed(f"edge ({u}, {v}) is not shared by two faces")
    # signed volume decides global orientation; all-inward meshes are flipped
    v = vertices[faces]
    vol = float(np.einsum("ij,ij->i", np.cross(v[:, 0], v[:, 1]), v[:, 2]).sum()) / 6.0
    if vol < 0:
        faces = faces[:, ::-1].copy()
    return faces


def _build_adjacency(P: TriangulatedPolytope) -> None:
    edge_faces: dict[tuple[int, int], list[int]] = {}
    for fi, f in enumerate(P.faces):
        for k in range(3):
            u, v = int(f[k]), int(f[(k + 1) % 3])
            key = (min(u, v), max(u, v))
            edge_faces.setdefault(key, []).append(fi)
    for key, fl in edge_faces.items():
        if len(fl) != 2:
            raise NotClosed(f"edge {key} bounds {len(fl)} faces")
    P.edge_adjacency = {k: (fl[0], fl[1]) for k, fl in edge_faces.items()}

    euler = P.n - len(P.edge_adjacency) + len(P.faces)
    if euler != 2:
        raise NotClosed(f"Euler characteristic is {euler}, expected 2")

    nbrs: dict[int, set[int]] = {i: set() for i in range(P.n)}
    for (u, v) in P.edge_adjacency:
        nbrs[u].add(v)
        nbrs[v].add(u)
    P.neighbors = {v: sorted(s) for v, s in nbrs.items()}

    P.vertex_fan = {v: _fan_around(P, v) for v in range(P.n)}

    normals = np.cross(
        P.vertices[P.faces[:, 1]] - P.vertices[P.faces[:, 0]],
        P.vertices[P.faces[:, 2]] - P.vertices[P.faces[:, 0]],
    )
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    if (norms <= P.tol.eps_abs).any():
        raise ParseError("degenerate (zero-area) face")
    P.face_normals = normals / norms
    P.face_offsets = np.einsum("ij,ij->i", P.face_normals, P.vertices[P.faces[:, 0]])


def _fan_around(P: TriangulatedPolytope, v: int) -> list[int]:
    start = None
    for fi, f in enumerate(P.faces):
        if v in f:
            start = fi
            break
    if start is None:
        raise NotClosed(f"vertex {v} is not referenced by any face")
    fan = [start]
    current = start
    while True:
        f = P.faces[current]
        k = int(np.where(f == v)[0][0])
        nxt_vertex = int(f[(k + 1) % 3])  # walk across the radial edge (v, next)
        nxt = P.other_face(current, v, nxt_vertex)
        if nxt == start:
            break
        if nxt in fan:
            raise NotClosed(f"non-manifold fan at vertex {v}")
        fan.append(nxt)
        current = nxt
    return fan


def _check_convex(P: TriangulatedPolytope) -> None:
    scale = float(np.abs(P.vertices).max())
    thr = P.tol.eps_abs + P.tol.eps_rel * scale * 100.0
    dists = P.vertices @ P.face_normals.T - P.face_offsets[None, :]
    worst = float(dists.max())
    if worst > thr:
        fi = int(np.argmax(dists.max(axis=0)))
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
    vertex fan, so this is the vertex-fan reading as well."""
    min_angle = math.inf
    for f in P.faces:
        pts = P.vertices[f]
        for k in range(3):
            min_angle = min(min_angle, corner_angle(pts, k, P.tol))
    return PolytopeMetrics(theta_m=0.5 * min_angle, mesh_diameter=P.diameter(), n=P.n)
