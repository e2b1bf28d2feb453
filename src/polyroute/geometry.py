"""3D/2D primitives: planes, corner angles, and the rigid rotation that
unfolds one plane onto another about a shared edge.

All points and vectors are numpy float64 arrays of shape (3,). Coincidence
tests use one snap rule: at length scale s two things coincide when they
are within `snap(s)` = SNAP_EPS * (1 + |s|) of each other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GeometryError",
    "DegenerateFace",
    "SNAP_EPS",
    "snap",
    "Plane",
    "cross3",
    "corner_angle",
    "RigidMap",
    "plane_frame",
]


class GeometryError(ValueError):
    pass


class DegenerateFace(GeometryError):
    pass


SNAP_EPS = 1e-9  # the absolute snap distance, and the snap distance per unit of scale


def snap(scale: float) -> float:
    """Snap distance at length scale `scale`, summed as SNAP_EPS plus
    SNAP_EPS * |scale| in that order: spanner nodes, routes and `.prt`
    bytes depend on its last bit."""
    return SNAP_EPS + SNAP_EPS * abs(scale)


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of two 3-vectors over Python floats; the same terms in
    the same order as np.cross, so the result matches it bit for bit at a
    fraction of its per-call cost."""
    a0, a1, a2 = np.asarray(a, dtype=np.float64).tolist()
    b0, b1, b2 = np.asarray(b, dtype=np.float64).tolist()
    return np.array((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))


def _unit(v: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n <= SNAP_EPS:
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
        if norm <= snap(scale * scale):
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
        if np.linalg.norm(cross3(d1, n)) <= snap(np.linalg.norm(d1)):
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


def corner_angle(face: np.ndarray, at: int) -> float:
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
    if n1 <= SNAP_EPS or n2 <= SNAP_EPS:
        raise DegenerateFace("face has a near-zero edge")
    c0, c1, c2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    sin_area = math.sqrt(c0 * c0 + c1 * c1 + c2 * c2) / (n1 * n2)
    if sin_area <= SNAP_EPS:
        raise DegenerateFace("face is near-collinear")
    cosang = (a0 * b0 + a1 * b1 + a2 * b2) / (n1 * n2)
    return math.acos(min(1.0, max(-1.0, cosang)))


@dataclass(frozen=True)
class RigidMap:
    """Orientation-preserving isometry x -> rotation @ x + translation."""

    rotation: np.ndarray
    translation: np.ndarray

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


def plane_frame(plane: Plane) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal in-plane basis (origin, u, v) with u x v = plane normal."""
    u = _unit(plane.dir1)
    v = np.cross(plane.normal, u)
    return plane.anchor, u, v
