"""Tolerance-based 3D/2D primitives: planes, segment-plane intersection,
corner angles, and rigid unfolding of faces across shared edges.

All points and vectors are numpy float64 arrays of shape (3,). Predicates
use a symmetric absolute+relative tolerance; snapping to an endpoint takes
priority over reporting an interior intersection so the router's case
analysis stays deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

__all__ = [
    "GeometryError",
    "DegenerateSegment",
    "DegenerateFace",
    "NotAdjacent",
    "Tolerance",
    "Plane",
    "cross3",
    "HitKind",
    "SegmentPlaneHit",
    "segment_plane_intersect",
    "corner_angle",
    "RigidMap",
    "unfold_across_edge",
    "plane_frame",
]


class GeometryError(ValueError):
    pass


class DegenerateSegment(GeometryError):
    pass


class DegenerateFace(GeometryError):
    pass


class NotAdjacent(GeometryError):
    pass


@dataclass(frozen=True)
class Tolerance:
    """Absolute + relative snap distances. Thresholds are eps_abs + eps_rel*scale."""

    eps_abs: float = 1e-9
    eps_rel: float = 1e-9

    def snap(self, scale: float = 1.0) -> float:
        return self.eps_abs + self.eps_rel * abs(scale)


DEFAULT_TOL = Tolerance()


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of two 3-vectors over Python floats; the same terms in
    the same order as np.cross, so the result matches it bit for bit at a
    fraction of its per-call cost."""
    a0, a1, a2 = np.asarray(a, dtype=np.float64).tolist()
    b0, b1, b2 = np.asarray(b, dtype=np.float64).tolist()
    return np.array((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))


def _unit(v: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n <= tol.eps_abs:
        raise GeometryError("cannot normalize near-zero vector")
    return v / n


@dataclass(frozen=True)
class Plane:
    """A plane stored as an anchor point plus two non-parallel direction
    vectors originating there; the unit normal is cached on construction."""

    anchor: np.ndarray
    dir1: np.ndarray
    dir2: np.ndarray
    normal: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a = np.asarray(self.anchor, dtype=np.float64)
        d1 = np.asarray(self.dir1, dtype=np.float64)
        d2 = np.asarray(self.dir2, dtype=np.float64)
        n = cross3(d1, d2)
        norm = float(np.linalg.norm(n))
        scale = max(float(np.linalg.norm(d1)), float(np.linalg.norm(d2)), 1.0)
        if norm <= DEFAULT_TOL.snap(scale * scale):
            raise GeometryError("plane direction vectors are near-parallel")
        object.__setattr__(self, "anchor", a)
        object.__setattr__(self, "dir1", d1)
        object.__setattr__(self, "dir2", d2)
        object.__setattr__(self, "normal", n / norm)

    @classmethod
    def from_normal(cls, anchor: np.ndarray, normal: np.ndarray) -> "Plane":
        n = _unit(np.asarray(normal, dtype=np.float64))
        d1 = _unit(_perp_seed(n))
        d2 = cross3(n, d1)
        return cls(np.asarray(anchor, dtype=np.float64), d1, d2)

    @classmethod
    def through_points_orthogonal_to(
        cls, a: np.ndarray, b: np.ndarray, base_normal: np.ndarray
    ) -> "Plane":
        """Plane containing a and b and orthogonal to the plane with the given
        normal (i.e. containing the base normal direction). dir1 points a->b."""
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        d1 = b - a
        n = np.asarray(base_normal, dtype=np.float64)
        if np.linalg.norm(cross3(d1, n)) <= DEFAULT_TOL.snap(np.linalg.norm(d1)):
            # a->b runs along the base normal; any orthogonal companion works
            return cls.from_normal(a, _unit(cross3(n, _perp_seed(n))))
        return cls(a, d1, n)

    def offset(self) -> float:
        return float(np.dot(self.normal, self.anchor))

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.normal - self.offset()


def _perp_seed(n: np.ndarray) -> np.ndarray:
    # cross n with the coordinate axis least aligned with it
    k = int(np.argmin(np.abs(n)))
    seed = np.zeros(3)
    seed[k] = 1.0
    return cross3(n, seed)


class HitKind(Enum):
    NO_HIT = "no_hit"
    INTERIOR = "interior"
    AT_ENDPOINT = "at_endpoint"


@dataclass(frozen=True)
class SegmentPlaneHit:
    kind: HitKind
    point: Optional[np.ndarray] = None
    u: Optional[float] = None
    endpoint: Optional[str] = None  # 'a' or 'b'


def segment_plane_intersect(
    a: np.ndarray, b: np.ndarray, h: Plane, tol: Tolerance = DEFAULT_TOL
) -> SegmentPlaneHit:
    """Intersect segment ab with plane h.

    Endpoint snapping wins over interior hits: an endpoint whose distance to
    h is within tol of the segment length is reported as AT_ENDPOINT.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    length = float(np.linalg.norm(b - a))
    if length <= tol.snap(max(np.linalg.norm(a), np.linalg.norm(b))):
        raise DegenerateSegment("segment endpoints coincide within tolerance")
    sa = float(h.signed_distance(a))
    sb = float(h.signed_distance(b))
    snap = tol.snap(length)
    a_on = abs(sa) <= snap
    b_on = abs(sb) <= snap
    if a_on:
        return SegmentPlaneHit(HitKind.AT_ENDPOINT, point=a.copy(), u=0.0, endpoint="a")
    if b_on:
        return SegmentPlaneHit(HitKind.AT_ENDPOINT, point=b.copy(), u=1.0, endpoint="b")
    if sa * sb >= 0.0:
        return SegmentPlaneHit(HitKind.NO_HIT)
    u = sa / (sa - sb)
    return SegmentPlaneHit(HitKind.INTERIOR, point=a + u * (b - a), u=u)


def corner_angle(face: np.ndarray, at: int, tol: Tolerance = DEFAULT_TOL) -> float:
    """Interior angle of a triangle at vertex index `at`, in radians.

    Python-float arithmetic with each sum written out left to right;
    `polytope.compute_theta_m` repeats it column-wise over all faces and
    relies on getting the same bits."""
    pts = np.asarray(face, dtype=np.float64)
    if pts.shape != (3, 3):
        raise GeometryError("face must consist of exactly 3 points")
    (p0, p1, p2), (q0, q1, q2), (r0, r1, r2) = pts[[at % 3, (at + 1) % 3, (at + 2) % 3]].tolist()
    a0, a1, a2 = q0 - p0, q1 - p1, q2 - p2
    b0, b1, b2 = r0 - p0, r1 - p1, r2 - p2
    n1 = math.sqrt(a0 * a0 + a1 * a1 + a2 * a2)
    n2 = math.sqrt(b0 * b0 + b1 * b1 + b2 * b2)
    if n1 <= tol.eps_abs or n2 <= tol.eps_abs:
        raise DegenerateFace("face has a near-zero edge")
    c0, c1, c2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    sin_area = math.sqrt(c0 * c0 + c1 * c1 + c2 * c2) / (n1 * n2)
    if sin_area <= tol.eps_abs:
        raise DegenerateFace("face is near-collinear")
    cosang = (a0 * b0 + a1 * b1 + a2 * b2) / (n1 * n2)
    return math.acos(min(1.0, max(-1.0, cosang)))


@dataclass(frozen=True)
class RigidMap:
    """Orientation-preserving isometry x -> rotation @ x + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    @classmethod
    def identity(cls) -> "RigidMap":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation


def _rotation_about_axis(axis: np.ndarray, angle: float) -> np.ndarray:
    x, y, z = axis
    c = math.cos(angle)
    s = math.sin(angle)
    cc = 1.0 - c
    return np.array(
        [
            [c + x * x * cc, x * y * cc - z * s, x * z * cc + y * s],
            [y * x * cc + z * s, c + y * y * cc, y * z * cc - x * s],
            [z * x * cc - y * s, z * y * cc + x * s, c + z * z * cc],
        ]
    )


def unfold_across_edge(
    f: np.ndarray, g: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> RigidMap:
    """Rigid map taking the plane of triangle g onto the plane of triangle f,
    fixing their shared edge pointwise (images of f and g end up on opposite
    sides of that edge)."""
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    scale = max(np.abs(f).max(), np.abs(g).max(), 1.0)
    snap = tol.snap(scale)
    shared_f = []
    shared_g = []
    for i in range(3):
        for j in range(3):
            if np.linalg.norm(f[i] - g[j]) <= snap:
                shared_f.append(i)
                shared_g.append(j)
    if len(shared_f) != 2:
        raise NotAdjacent("triangles do not share exactly one edge")
    e0, e1 = f[shared_f[0]], f[shared_f[1]]
    nf = _triangle_normal(f, tol)
    ng = _triangle_normal(g, tol)
    axis = _unit(e1 - e0)
    far_f = f[({0, 1, 2} - set(shared_f)).pop()]
    far_g = g[({0, 1, 2} - set(shared_g)).pop()]
    # vertex winding does not fix a surface orientation; pick the rotation
    # that lands g on the far side of the shared edge from f
    side_f = float(np.cross(axis, far_f - e0) @ nf)
    for n_src in (ng, -ng):
        rm = unfold_rotation(nf, n_src, e0, e1)
        side_g = float(np.cross(axis, rm.apply(far_g) - e0) @ nf)
        if side_g * side_f <= 0.0:
            return rm
    return rm


def unfold_rotation(
    n_target: np.ndarray, n_source: np.ndarray, edge_p0: np.ndarray, edge_p1: np.ndarray
) -> RigidMap:
    """Rotation about the line p0-p1 carrying the plane with normal n_source
    onto the plane with normal n_target. Both normals must be orthogonal to
    the edge direction (planes through the edge)."""
    axis = _unit(np.asarray(edge_p1, dtype=np.float64) - np.asarray(edge_p0, dtype=np.float64))
    ns = np.asarray(n_source, dtype=np.float64)
    nt = np.asarray(n_target, dtype=np.float64)
    angle = math.atan2(float(np.dot(np.cross(ns, nt), axis)), float(np.dot(ns, nt)))
    rot = _rotation_about_axis(axis, angle)
    p0 = np.asarray(edge_p0, dtype=np.float64)
    return RigidMap(rot, p0 - rot @ p0)


def _triangle_normal(pts: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    n = np.cross(pts[1] - pts[0], pts[2] - pts[0])
    norm = float(np.linalg.norm(n))
    if norm <= tol.eps_abs:
        raise DegenerateFace("triangle is degenerate")
    return n / norm


def plane_frame(plane: Plane) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal in-plane basis (origin, u, v) with u x v = plane normal."""
    u = _unit(plane.dir1)
    v = np.cross(plane.normal, u)
    return plane.anchor, u, v
