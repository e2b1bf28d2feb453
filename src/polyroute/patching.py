"""Partition of the boundary into delta-patches, the enclosing sketch built
from one supporting half-space per patch, and per-patch orthogonal
projections onto the supporting planes.

A patch is grown by breadth-first traversal of the face-adjacency graph; a
face joins while the patch's normal-angle ranges against the +x and +z axes
both stay within delta, tracked as a running min/max per axis. So the rule
bounds each of the two axis-angle spreads, a box of side delta in those two
angles; it does not bound the angle between two normals of a patch, since
mirror normals (a, +b, c) and (a, -b, c) have equal angles to +x and to +z.
Everything else about a patch (its seed face, plane,
frame and vertex set, and which patch owns each vertex) is derived from the
face assignment alone by `build_decomposition`. The sketch face of
each patch is computed explicitly by clipping a large in-plane square
against every other patch's half-space, which also yields the
abutting-patch label of every boundary edge.

A patch's frame (origin and unit axes) is float 3-tuples, and its maps
`to_2d` and `to_3d` take and return float rows, or for a batch tuples of
coordinate columns; `frame_to_2d` and `frame_to_3d` are the same maps for
a frame given as columns too, one frame per point. `project_patch` gives
each vertex as a float pair.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .geometry import SNAP_EPS, Plane, cross, dot, norm, sub
from .polytope import TriangulatedPolytope, dual_graph

__all__ = [
    "UnboundedSketch",
    "Patch",
    "PatchDecomposition",
    "SketchFace",
    "Sketch",
    "compute_patches",
    "build_decomposition",
    "build_sketch",
    "frame_to_2d",
    "frame_to_3d",
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
    frame_origin: tuple[float, float, float] = field(repr=False)
    frame_u: tuple[float, float, float] = field(repr=False)
    frame_v: tuple[float, float, float] = field(repr=False)

    def to_2d(self, p) -> tuple:
        """Frame coordinates (p - origin) . u and (p - origin) . v of a float
        row p, or of each point of a tuple of coordinate columns; a point
        gets the same bits either way."""
        return frame_to_2d((self.frame_origin, self.frame_u, self.frame_v), p)

    def to_3d(self, q) -> tuple:
        """The point origin + (x*u + y*v) of frame coordinates q = (x, y),
        floats or columns."""
        return frame_to_3d((self.frame_origin, self.frame_u, self.frame_v), q)


def frame_to_2d(frame: tuple, p) -> tuple:
    """`Patch.to_2d` in the frame (origin, u, v), whose vectors are float
    rows, or tuples of coordinate columns that give each point its own
    frame."""
    origin, u, v = frame
    rel = sub(p, origin)
    return dot(rel, u), dot(rel, v)


def frame_to_3d(frame: tuple, q) -> tuple:
    """`Patch.to_3d` in the frame (origin, u, v), given as for
    `frame_to_2d`."""
    x, y = q
    o, u, v = frame
    return tuple(o[k] + (x * u[k] + y * v[k]) for k in range(3))


@dataclass
class PatchDecomposition:
    patches: list[Patch]
    patch_of_face: np.ndarray
    owner_of_vertex: np.ndarray

    @property
    def count(self) -> int:
        return len(self.patches)


@dataclass
class SketchFace:
    patch_id: int
    polygon2d: np.ndarray  # (k, 2) convex, counterclockwise in the patch frame
    neighbor_patch: np.ndarray  # (k,) patch id across edge i->i+1, or NO_NEIGHBOR


@dataclass
class Sketch:
    faces: list[SketchFace]
    truncated: bool


def _normal_axis_angles(P: TriangulatedPolytope) -> tuple[np.ndarray, np.ndarray]:
    nx = np.clip(P.face_normals[:, 0], -1.0, 1.0)
    nz = np.clip(P.face_normals[:, 2], -1.0, 1.0)
    return np.arccos(nx), np.arccos(nz)


def compute_patches(P: TriangulatedPolytope, delta: float) -> PatchDecomposition:
    """Greedy BFS partition of the faces into patches whose face normals
    spread by at most delta in their angle to +x and, separately, in their
    angle to +z (not a bound on the angle between two of the normals).

    Deterministic: each patch is seeded at the lowest-index unassigned face
    and neighbours are visited in sorted order, so each seed is the lowest
    face id of its patch; it doubles as the patch's representative face.
    """
    if not (0.0 < delta <= math.pi):
        raise ValueError("delta must lie in (0, pi]")
    theta_x, theta_z = (a.tolist() for a in _normal_axis_angles(P))
    adj = dual_graph(P)
    assigned = [-1] * P.num_faces
    pid = -1
    for seed in range(P.num_faces):
        if assigned[seed] >= 0:
            continue
        pid += 1
        lo_x = hi_x = theta_x[seed]
        lo_z = hi_z = theta_z[seed]
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
                    queue.append(nb)
    return build_decomposition(P, np.array(assigned, dtype=np.int64))


def build_decomposition(P: TriangulatedPolytope, patch_of_face: np.ndarray) -> PatchDecomposition:
    """The decomposition with the given patch id per face; `compute_patches`
    and `.prt` loading both end here. Patch ids run from 0 to the largest
    id, and every one must have a face. A patch's representative face is its
    lowest face id, and its plane runs through that face; a vertex is owned
    by the lowest patch id among its faces."""
    count = int(patch_of_face.max()) + 1
    faces = [[] for _ in range(count)]
    verts = [set() for _ in range(count)]
    corners = P.faces.tolist()
    for fi, pid in enumerate(patch_of_face.tolist()):
        faces[pid].append(fi)
        verts[pid].update(corners[fi])
    patches = [_make_patch(P, pid, faces[pid][0], faces[pid], verts[pid])
               for pid in range(count)]
    owner = np.full(P.n, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(owner, P.faces.ravel(), np.repeat(patch_of_face, 3))
    return PatchDecomposition(patches=patches, patch_of_face=patch_of_face, owner_of_vertex=owner)


def _make_patch(P: TriangulatedPolytope, pid: int, seed: int, faces: list[int],
                vertices: set[int]) -> Patch:
    a, b, c = P.vertices[P.faces[seed]]
    gamma = Plane(a, b - a, c - a)
    # an orthonormal frame with u x v = normal: u along dir1, v = normal x u
    u = tuple((gamma.dir1 / norm(gamma.dir1)).tolist())
    return Patch(
        id=pid, faces=faces, rep_face=seed, gamma=gamma, vertices=vertices,
        frame_origin=tuple(gamma.anchor.tolist()), frame_u=u, frame_v=cross(gamma.normal, u),
    )


def _clip_halfplane(
    poly: list[tuple[float, float]], owners: list[int], a: tuple[float, float], c: float,
    owner: int, snap: float,
) -> tuple[list[tuple[float, float]], list[int]]:
    """Sutherland-Hodgman clip of a convex polygon, a list of float pairs, by
    {p : a.p <= c}. `build_sketch` calls it only for a plane with a corner
    past the snap (or a NaN value); a polygon with none comes back as it is.

    owners[i] labels the edge poly[i] -> poly[i+1]; the closing edge created
    by the cut inherits `owner`. Each output vertex carries the owner of the
    edge that starts at it.
    """
    ax, ay = a
    vals = [x * ax + y * ay - c for x, y in poly]  # `dot(p, a) - c`, same terms
    if all(v <= snap for v in vals):
        return poly, owners
    out_pts: list[tuple[float, float]] = []
    out_own: list[int] = []
    k = len(poly)
    for i in range(k):
        j = (i + 1) % k
        vi, vj = vals[i], vals[j]
        inside_i = vi <= snap
        inside_j = vj <= snap
        if inside_i and inside_j:
            out_pts.append(poly[j])
            out_own.append(owners[j])
        elif inside_i or inside_j:
            t = vi / (vi - vj)
            (xi, yi), (xj, yj) = poly[i], poly[j]
            out_pts.append((xi + t * (xj - xi), yi + t * (yj - yi)))
            if inside_i:
                out_own.append(owner)  # cut edge runs along the clip line
            else:
                out_own.append(owners[i])  # remainder of the original edge
                out_pts.append(poly[j])
                out_own.append(owners[j])
    return _dedup_polygon(out_pts, out_own, snap)


def _dedup_polygon(
    pts: list[tuple[float, float]], own: list[int], snap: float
) -> tuple[list[tuple[float, float]], list[int]]:
    keep_pts: list[tuple[float, float]] = []
    keep_own: list[int] = []
    # edge lengths are the kernel `norm`'s terms, written out
    for (x, y), o in zip(pts, own):
        if keep_pts:
            dx, dy = x - keep_pts[-1][0], y - keep_pts[-1][1]
            if math.sqrt(dx * dx + dy * dy) <= snap:
                keep_own[-1] = o  # zero-length edge collapses; keep outgoing owner
                continue
        keep_pts.append((x, y))
        keep_own.append(o)
    if len(keep_pts) > 1:
        dx, dy = keep_pts[0][0] - keep_pts[-1][0], keep_pts[0][1] - keep_pts[-1][1]
        if math.sqrt(dx * dx + dy * dy) <= snap:
            keep_pts.pop()
            keep_own.pop()
    if len(keep_pts) < 3:
        return [], []
    return keep_pts, keep_own


def build_sketch(P: TriangulatedPolytope, decomp: PatchDecomposition,
                 diameter: float) -> Sketch:
    """Intersect the patches' supporting half-spaces and return the face of
    the result lying on each supporting plane, as an in-plane polygon.

    With fewer than four patches the intersection is unbounded; affected
    faces are truncated by a working square of half side _SKETCH_BOUND
    times `diameter`, the mesh's `P.diameter()`, and flagged.

    Per patch, the other planes' in-plane half-planes come from one column
    `dot` over all patch normals; the polygon is clipped as float pairs and
    becomes the face's arrays at the end. A plane reaches `_clip_halfplane`
    only if some corner p has not a.p - c <= snap (the clip's own values,
    so a NaN clips too); most planes cut nothing and cost one pass over
    the corners that stops at the first one outside.
    """
    normals = tuple(np.stack([p.gamma.normal for p in decomp.patches]).T.copy())
    offsets = np.array([p.gamma.offset() for p in decomp.patches])
    half = _SKETCH_BOUND * max(diameter, 1e-12)
    snap = P.snap

    faces: list[SketchFace] = []
    for patch in decomp.patches:
        cx, cy = patch.to_2d(P.vertices[P.faces[patch.rep_face]].mean(axis=0).tolist())
        poly = [(cx - half, cy - half), (cx + half, cy - half), (cx + half, cy + half),
                (cx - half, cy + half)]
        owners = [NO_NEIGHBOR] * 4
        o, u, v = patch.frame_origin, patch.frame_u, patch.frame_v
        c2s = (offsets - dot(normals, o)).tolist()
        for j, (ax, ay, c2) in enumerate(zip(dot(normals, u).tolist(),
                                             dot(normals, v).tolist(), c2s)):
            if j == patch.id:
                continue
            if math.sqrt(ax * ax + ay * ay) <= SNAP_EPS:  # the kernel `norm`'s terms
                # plane j parallel to this one; either redundant or empty
                if -c2 > snap:
                    poly = []
                    break
                continue
            for x, y in poly:
                if not (x * ax + y * ay - c2 <= snap):
                    poly, owners = _clip_halfplane(poly, owners, (ax, ay), c2, j, snap)
                    break
            if not poly:
                break
        if not poly:
            raise UnboundedSketch(
                f"sketch face of patch {patch.id} vanished; supporting planes are degenerate"
            )
        faces.append(SketchFace(patch.id, np.array(poly), np.array(owners, dtype=np.int64)))
    return Sketch(faces=faces, truncated=any(NO_NEIGHBOR in f.neighbor_patch for f in faces))


def project_patch(P: TriangulatedPolytope, patch: Patch) -> dict[int, tuple[float, float]]:
    """Orthogonal projection of every patch vertex onto the supporting plane,
    expressed in the patch's 2D frame: vertex -> (u, v)."""
    ids = sorted(patch.vertices)
    pts = P.vertices[ids]
    dist = patch.gamma.signed_distance(pts)
    foot = pts - dist[:, None] * patch.gamma.normal[None, :]
    us, vs = patch.to_2d(tuple(foot.T))
    return dict(zip(ids, zip(us.tolist(), vs.tolist())))
