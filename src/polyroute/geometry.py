"""3D/2D primitives: the dot/norm/cross/sub kernel, planes and corner
angles.

Points and vectors are numpy float64 arrays of shape (3,) or rows of
Python floats; a batch is an (n, 3) array or a tuple of columns. Coincidence
tests use one snap rule: at length scale s two things coincide when they
are within `snap(s)` = SNAP_EPS * (1 + |s|) of each other.

Every dot product, norm and cross product of the system (outside the
reference oracle, the mesh generator and the convexity check on load) is
computed by `dot`, `norm` and `cross` below: plain elementwise arithmetic
summed left to right, over Python floats for one vector or over numpy
columns for a batch. The patch table (`patching.build_decomposition`)
takes `Plane`'s terms in one column pass, and the frame maps
(`patching.frame_to_2d`, `frame_to_3d`) on float rows or columns write out
the same left-to-right terms. Elementwise float arithmetic rounds the same
in both, so one row, any subset of rows and the whole batch give the same
bits, whatever the BLAS library or its thread count. Forwarding decisions
are sign tests of such values, so routes and `.prt` bytes depend on it.
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
    "dot",
    "norm",
    "cross",
    "sub",
    "Plane",
    "corner_angle",
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


def _parts(v):
    """The components of a kernel argument: a 1-D array's as Python floats,
    those of an (..., k) array as k arrays (one per coordinate); a tuple or
    list of components (floats or arrays) is taken as it is."""
    if isinstance(v, np.ndarray):
        return v.tolist() if v.ndim == 1 else [v[..., k] for k in range(v.shape[-1])]
    return v


def dot(a, b):
    """Dot product of 2- or 3-vectors, a0*b0 + a1*b1 (+ a2*b2) left to right.
    Either argument may be one vector or a batch of them; the result is a
    float, or an array over the batch. Float rows and tuples skip `_parts`."""
    if isinstance(a, np.ndarray):
        a = _parts(a)
    if isinstance(b, np.ndarray):
        b = _parts(b)
    if len(a) == 2:
        return a[0] * b[0] + a[1] * b[1]
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def norm(a):
    """Euclidean length, the square root of `dot(a, a)`."""
    sq = dot(a, a)
    return math.sqrt(sq) if isinstance(sq, float) else np.sqrt(sq)


def cross(a, b):
    """Cross product of 3-vectors, as the tuple of its three components
    (floats, or arrays over a batch); the terms are np.cross's."""
    (a0, a1, a2), (b0, b1, b2) = _parts(a), _parts(b)
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def sub(a, b) -> tuple[float, float, float]:
    """The difference a - b of two 3-vectors given as rows of floats (or as
    tuples of coordinate columns), as a tuple; each component rounds as
    numpy's elementwise subtraction does."""
    return a[0] - b[0], a[1] - b[1], a[2] - b[2]


def _unit(v) -> np.ndarray:
    n = norm(v)
    if n <= SNAP_EPS:
        raise GeometryError("cannot normalize near-zero vector")
    return np.asarray(v, dtype=np.float64) / n


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
        n = np.array(cross(d1, d2))
        length = norm(n)
        scale = max(norm(d1), norm(d2), 1.0)
        if length <= snap(scale * scale):
            raise GeometryError("plane direction vectors are near-parallel")
        object.__setattr__(self, "anchor", a)
        object.__setattr__(self, "dir1", d1)
        object.__setattr__(self, "dir2", d2)
        object.__setattr__(self, "normal", n / length)

    @classmethod
    def from_normal(cls, anchor: np.ndarray, normal: np.ndarray) -> "Plane":
        n = _unit(np.asarray(normal, dtype=np.float64))
        d1 = _unit(_perp_seed(n))
        d2 = np.array(cross(n, d1))
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
        if norm(cross(d1, n)) <= snap(norm(d1)):
            # a->b runs along the base normal; any orthogonal companion works
            return cls.from_normal(a, _unit(cross(n, _perp_seed(n))))
        return cls(a, d1, n)

    def offset(self) -> float:
        return dot(self.normal, self.anchor)

    def signed_distance(self, points: np.ndarray) -> np.ndarray | float:
        """Signed distance of one point (a float) or of each row of an
        (n, 3) array; a row's value has the same bits either way."""
        return dot(np.asarray(points, dtype=np.float64), self.normal) - self.offset()


def _perp_seed(n: np.ndarray) -> np.ndarray:
    # cross n with the coordinate axis least aligned with it
    k = int(np.argmin(np.abs(n)))
    seed = np.zeros(3)
    seed[k] = 1.0
    return np.array(cross(n, seed))


def corner_angle(face: np.ndarray, at: int) -> float:
    """Interior angle of a triangle at vertex index `at`, in radians.

    `polytope.compute_theta_m` makes the same kernel calls over the columns
    of all faces, so its cosines have this function's bits."""
    pts = np.asarray(face, dtype=np.float64)
    if pts.shape != (3, 3):
        raise GeometryError("face must consist of exactly 3 points")
    p, q, r = pts[[at % 3, (at + 1) % 3, (at + 2) % 3]]
    a, b = q - p, r - p
    n1, n2 = norm(a), norm(b)
    if n1 <= SNAP_EPS or n2 <= SNAP_EPS:
        raise DegenerateFace("face has a near-zero edge")
    if norm(cross(a, b)) / (n1 * n2) <= SNAP_EPS:
        raise DegenerateFace("face is near-collinear")
    cosang = dot(a, b) / (n1 * n2)
    return math.acos(min(1.0, max(-1.0, cosang)))
