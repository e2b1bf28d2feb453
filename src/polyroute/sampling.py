"""Grid sampling of projected patch vertices and representative selection.

Each patch's projected vertex set gets a square grid over its bounding
rectangle, ceil(sqrt(1/eps)) cells per side; the lowest-index vertex in each
nonempty cell becomes the cell's representative. Vertices shared by several
patches are sampled only in their owning patch so that every vertex of the
polytope ends up with exactly one representative.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .patching import PatchDecomposition, Projection

__all__ = ["Grid", "RepresentativeAssignment", "build_grid", "select_representatives"]

# relative slack for "exactly on a cell boundary"; ties go to the lower index
_BOUNDARY_REL = 1e-12


@dataclass
class Grid:
    patch_id: int
    origin: np.ndarray
    cell_w: float
    cell_h: float
    rows: int
    cols: int

    def cell_of(self, p: np.ndarray) -> int:
        col = self._axis_index(float(p[0]) - float(self.origin[0]), self.cell_w, self.cols)
        row = self._axis_index(float(p[1]) - float(self.origin[1]), self.cell_h, self.rows)
        return row * self.cols + col

    @staticmethod
    def _axis_index(offset: float, width: float, count: int) -> int:
        if count <= 1 or width <= 0.0:
            return 0
        raw = offset / width
        idx = int(math.floor(raw))
        # points sitting on an interior boundary belong to the lower cell
        if idx > 0 and raw - idx <= _BOUNDARY_REL * max(1.0, abs(raw)):
            idx -= 1
        return min(max(idx, 0), count - 1)


@dataclass
class RepresentativeAssignment:
    reps: list[int]
    rep_of: dict[int, int]
    cell_of: dict[int, tuple[int, int]]
    members: dict[int, list[int]] = field(default_factory=dict)
    patch_reps: dict[int, list[int]] = field(default_factory=dict)


def build_grid(projection: Projection, eps: float) -> Grid:
    """Square grid over the bounding rectangle of the projected points with
    ceil(sqrt(1/eps)) cells per side (a 1 x ceil(1/eps) strip if the points
    are degenerate along one axis)."""
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    if not projection.uv:
        raise ValueError("projection is empty")
    pts = np.stack(list(projection.uv.values()))
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    extent = hi - lo
    side = max(1, math.ceil(math.sqrt(1.0 / eps)))
    scale = float(extent.max())
    degenerate = extent <= 1e-12 * max(scale, 1.0)
    if degenerate.any() and not degenerate.all():
        strip = max(1, math.ceil(1.0 / eps))
        rows, cols = (1, strip) if degenerate[1] else (strip, 1)
    else:
        rows = cols = side
    cell_w = float(extent[0]) / cols if extent[0] > 0 else 0.0
    cell_h = float(extent[1]) / rows if extent[1] > 0 else 0.0
    return Grid(projection.patch_id, lo, cell_w, cell_h, rows, cols)


def select_representatives(
    grids: dict[int, Grid],
    projections: dict[int, Projection],
    decomp: PatchDecomposition,
) -> RepresentativeAssignment:
    """Pick the lowest-index vertex of every nonempty grid cell as its
    representative; every other vertex of the cell points at it."""
    rep_of: dict[int, int] = {}
    cell_of: dict[int, tuple[int, int]] = {}
    members: dict[int, list[int]] = {}
    patch_reps: dict[int, list[int]] = {}

    for pid in sorted(grids):
        grid = grids[pid]
        proj = projections[pid]
        buckets: dict[int, list[int]] = {}
        for v in sorted(proj.uv):
            if decomp.owner_of_vertex[v] != pid:
                continue
            cell = grid.cell_of(proj.uv[v])
            buckets.setdefault(cell, []).append(v)
            cell_of[v] = (pid, cell)
        reps_here: list[int] = []
        for cell in sorted(buckets):
            vs = buckets[cell]
            rep = min(vs)
            reps_here.append(rep)
            members[rep] = vs
            for v in vs:
                rep_of[v] = rep
        patch_reps[pid] = reps_here

    return RepresentativeAssignment(
        reps=sorted(members),
        rep_of=rep_of,
        cell_of=cell_of,
        members=members,
        patch_reps=patch_reps,
    )
