"""Partition of the boundary into delta-patches, the enclosing sketch built
from one supporting half-space per patch, and per-patch orthogonal
projections onto the supporting planes.

A patch is grown by breadth-first traversal of the face-adjacency graph; a
face joins while the patch's normal-angle ranges against the +x and +z axes
both stay within delta (the pairwise condition, tracked as a running
min/max per axis). The sketch face of each patch is computed explicitly by
clipping a large in-plane square against every other patch's half-space,
which also yields the abutting-patch label of every boundary edge.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .geometry import SNAP_EPS, Plane, plane_frame
from .polytope import TriangulatedPolytope, dual_graph

__all__ = [
    "UnboundedSketch",
    "Patch",
    "PatchDecomposition",
    "Projection",
    "SketchFace",
    "Sketch",
    "compute_patches",
    "build_sketch",
    "project_patch",
]

# square-edge sentinel for sketch faces truncated by the working bounding box
NO_NEIGHBOR = -1
# half side of that working square, in mesh diameters
_SKETCH_BOUND = 32.0


class UnboundedSketch(ValueError):
    pass


@dataclass
class Patch:
    id: int
    faces: list[int]
    rep_face: int
    gamma: Plane
    vertices: set[int]
    frame_origin: np.ndarray = field(default=None, repr=False)
    frame_u: np.ndarray = field(default=None, repr=False)
    frame_v: np.ndarray = field(default=None, repr=False)
    normal_cone_width: float = 0.0

    def to_2d(self, points: np.ndarray) -> np.ndarray:
        rel = np.asarray(points, dtype=np.float64) - self.frame_origin
        return np.stack([rel @ self.frame_u, rel @ self.frame_v], axis=-1)

    def to_3d(self, uv: np.ndarray) -> np.ndarray:
        uv = np.asarray(uv, dtype=np.float64)
        return (
            self.frame_origin
            + np.outer(uv[..., 0].ravel(), self.frame_u).reshape(uv.shape[:-1] + (3,))
            + np.outer(uv[..., 1].ravel(), self.frame_v).reshape(uv.shape[:-1] + (3,))
        )


@dataclass
class PatchDecomposition:
    patches: list[Patch]
    patch_of_face: np.ndarray
    owner_of_vertex: np.ndarray
    delta: float

    @property
    def count(self) -> int:
        return len(self.patches)


@dataclass
class Projection:
    patch_id: int
    uv: dict[int, np.ndarray]
    displacement: dict[int, float]


@dataclass
class SketchFace:
    patch_id: int
    polygon2d: np.ndarray  # (k, 2) convex, counterclockwise in the patch frame
    neighbor_patch: np.ndarray  # (k,) patch id across edge i->i+1, or NO_NEIGHBOR
    truncated: bool

    def polygon3d(self, patch: Patch) -> np.ndarray:
        return patch.to_3d(self.polygon2d)


@dataclass
class Sketch:
    normals: np.ndarray  # (m, 3) outward unit normals, one per patch
    offsets: np.ndarray  # (m,) with half-space n.x <= b
    faces: list[SketchFace]
    truncated: bool

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        scale = float(np.abs(pts).max()) if pts.size else 1.0
        slack = geometry.snap(scale) * 100.0
        return (pts @ self.normals.T <= self.offsets[None, :] + slack).all(axis=1)


def _normal_axis_angles(P: TriangulatedPolytope) -> tuple[np.ndarray, np.ndarray]:
    nx = np.clip(P.face_normals[:, 0], -1.0, 1.0)
    nz = np.clip(P.face_normals[:, 2], -1.0, 1.0)
    return np.arccos(nx), np.arccos(nz)


def compute_patches(P: TriangulatedPolytope, delta: float) -> PatchDecomposition:
    """Greedy BFS partition of the faces into delta-patches.

    Deterministic: each patch is seeded at the lowest-index unassigned face
    and neighbours are visited in sorted order. The seed face doubles as the
    patch's representative face.
    """
    if not (0.0 < delta <= math.pi):
        raise ValueError("delta must lie in (0, pi]")
    theta_x, theta_z = _normal_axis_angles(P)
    adj = dual_graph(P)
    assigned = np.full(P.num_faces, -1, dtype=np.int64)
    patches: list[Patch] = []
    for seed in range(P.num_faces):
        if assigned[seed] >= 0:
            continue
        pid = len(patches)
        lo_x = hi_x = theta_x[seed]
        lo_z = hi_z = theta_z[seed]
        members = [seed]
        assigned[seed] = pid
        queue = deque([seed])
        while queue:
            cur = queue.popleft()
            for nb in adj[cur]:
                if assigned[nb] >= 0:
                    continue
                nlx, nhx = min(lo_x, theta_x[nb]), max(hi_x, theta_x[nb])
                nlz, nhz = min(lo_z, theta_z[nb]), max(hi_z, theta_z[nb])
                if nhx - nlx <= delta and nhz - nlz <= delta:
                    lo_x, hi_x, lo_z, hi_z = nlx, nhx, nlz, nhz
                    assigned[nb] = pid
                    members.append(nb)
                    queue.append(nb)
        patches.append(_make_patch(P, pid, members, seed))

    owner = np.full(P.n, np.iinfo(np.int64).max, dtype=np.int64)
    for fi, pid in enumerate(assigned):
        for v in P.faces[fi]:
            owner[v] = min(owner[v], pid)
    return PatchDecomposition(
        patches=patches, patch_of_face=assigned, owner_of_vertex=owner, delta=delta
    )


def _make_patch(P: TriangulatedPolytope, pid: int, members: list[int], seed: int) -> Patch:
    f = P.faces[seed]
    gamma = Plane(
        P.vertices[f[0]], P.vertices[f[1]] - P.vertices[f[0]],
        P.vertices[f[2]] - P.vertices[f[0]],
    )
    origin, u, v = plane_frame(gamma)
    verts: set[int] = set()
    for fi in members:
        verts.update(int(x) for x in P.faces[fi])
    cosines = np.clip(P.face_normals[members] @ gamma.normal, -1.0, 1.0)
    width = float(np.arccos(cosines).max())
    return Patch(
        id=pid, faces=sorted(members), rep_face=seed, gamma=gamma, vertices=verts,
        frame_origin=origin, frame_u=u, frame_v=v, normal_cone_width=width,
    )


def _clip_halfplane(
    poly: np.ndarray, owners: np.ndarray, a: np.ndarray, c: float, owner: int,
    snap: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Sutherland-Hodgman clip of a convex polygon by {p : a.p <= c}.

    owners[i] labels the edge poly[i] -> poly[i+1]; the closing edge created
    by the cut inherits `owner`. Each output vertex carries the owner of the
    edge that starts at it.
    """
    k = len(poly)
    if k == 0:
        return poly, owners
    vals = poly @ a - c
    if (vals <= snap).all():
        return poly, owners
    out_pts: list[np.ndarray] = []
    out_own: list[int] = []
    for i in range(k):
        j = (i + 1) % k
        vi, vj = float(vals[i]), float(vals[j])
        inside_i = vi <= snap
        inside_j = vj <= snap
        if inside_i and inside_j:
            out_pts.append(poly[j])
            out_own.append(int(owners[j]))
        elif inside_i and not inside_j:
            t = vi / (vi - vj)
            out_pts.append(poly[i] + t * (poly[j] - poly[i]))
            out_own.append(owner)  # cut edge runs along the clip line
        elif not inside_i and inside_j:
            t = vi / (vi - vj)
            out_pts.append(poly[i] + t * (poly[j] - poly[i]))
            out_own.append(int(owners[i]))  # remainder of the original edge
            out_pts.append(poly[j])
            out_own.append(int(owners[j]))
    return _dedup_polygon(out_pts, out_own, snap)


def _dedup_polygon(
    pts: list[np.ndarray], own: list[int], snap: float
) -> tuple[np.ndarray, np.ndarray]:
    keep_pts: list[np.ndarray] = []
    keep_own: list[int] = []
    for p, o in zip(pts, own):
        if keep_pts and np.linalg.norm(p - keep_pts[-1]) <= snap:
            keep_own[-1] = o  # zero-length edge collapses; keep outgoing owner
            continue
        keep_pts.append(p)
        keep_own.append(o)
    if len(keep_pts) > 1 and np.linalg.norm(keep_pts[0] - keep_pts[-1]) <= snap:
        keep_pts.pop()
        keep_own.pop()
    if len(keep_pts) < 3:
        return np.zeros((0, 2)), np.zeros(0, dtype=np.int64)
    return np.asarray(keep_pts), np.asarray(keep_own, dtype=np.int64)


def build_sketch(P: TriangulatedPolytope, decomp: PatchDecomposition) -> Sketch:
    """Intersect the patches' supporting half-spaces and return the face of
    the result lying on each supporting plane, as an in-plane polygon.

    With fewer than four patches the intersection is unbounded; affected
    faces are truncated by a working square of half side _SKETCH_BOUND
    times the mesh diameter and flagged.
    """
    m = decomp.count
    normals = np.stack([p.gamma.normal for p in decomp.patches])
    offsets = np.array([p.gamma.offset() for p in decomp.patches])
    half = _SKETCH_BOUND * max(P.diameter(), 1e-12)
    snap = P.snap

    faces: list[SketchFace] = []
    any_truncated = False
    for patch in decomp.patches:
        center2d = patch.to_2d(P.vertices[P.faces[patch.rep_face]].mean(axis=0))
        square = center2d + half * np.array(
            [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]
        )
        poly = square
        owners = np.full(4, NO_NEIGHBOR, dtype=np.int64)
        o, u, v = patch.frame_origin, patch.frame_u, patch.frame_v
        for j in range(m):
            if j == patch.id:
                continue
            nj = normals[j]
            a2 = np.array([float(nj @ u), float(nj @ v)])
            c2 = offsets[j] - float(nj @ o)
            if np.linalg.norm(a2) <= SNAP_EPS:
                # plane j parallel to this one; either redundant or empty
                if -c2 > snap:
                    poly = np.zeros((0, 2))
                    owners = np.zeros(0, dtype=np.int64)
                    break
                continue
            poly, owners = _clip_halfplane(poly, owners, a2, c2, j, snap)
            if len(poly) == 0:
                break
        if len(poly) == 0:
            raise UnboundedSketch(
                f"sketch face of patch {patch.id} vanished; supporting planes are degenerate"
            )
        truncated = bool((owners == NO_NEIGHBOR).any())
        any_truncated |= truncated
        faces.append(SketchFace(patch.id, poly, owners, truncated))
    return Sketch(normals=normals, offsets=offsets, faces=faces, truncated=any_truncated)


def project_patch(P: TriangulatedPolytope, patch: Patch) -> Projection:
    """Orthogonal projection of every patch vertex onto the supporting plane,
    expressed in the patch's 2D frame."""
    ids = sorted(patch.vertices)
    pts = P.vertices[ids]
    dist = pts @ patch.gamma.normal - patch.gamma.offset()
    foot = pts - dist[:, None] * patch.gamma.normal[None, :]
    uv = patch.to_2d(foot)
    return Projection(
        patch_id=patch.id,
        uv={vid: uv[i] for i, vid in enumerate(ids)},
        displacement={vid: abs(float(dist[i])) for i, vid in enumerate(ids)},
    )
