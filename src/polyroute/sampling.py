"""Grid sampling of projected patch vertices and representative selection.

Each patch's projected vertex set gets a square grid over its bounding
rectangle, ceil(sqrt(1/eps)) cells per side; the lowest-index vertex in each
nonempty cell becomes the cell's representative. Vertices shared by several
patches are sampled only in their owning patch so that every vertex of the
polytope ends up with exactly one representative.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .patching import PatchDecomposition

__all__ = ["Grid", "RepresentativeAssignment", "assemble_assignment", "build_grid",
           "select_representatives"]

# relative slack for "exactly on a cell boundary"; ties go to the lower index
_BOUNDARY_REL = 1e-12


@dataclass
class Grid:
    origin: np.ndarray
    cell_w: float
    cell_h: float
    rows: int
    cols: int

    def cell_of(self, p) -> int:
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
    members: dict[int, list[int]]
    patch_reps: dict[int, list[int]]


def build_grid(uv: dict[int, tuple[float, float]], eps: float) -> Grid:
    """Square grid over the bounding rectangle of the projected points
    (`project_patch`'s vertex -> (u, v)) with ceil(sqrt(1/eps)) cells per
    side (a 1 x ceil(1/eps) strip if the points are degenerate along one
    axis)."""
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    if not uv:
        raise ValueError("projection is empty")
    pts = np.array(list(uv.values()))
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
    return Grid(lo, cell_w, cell_h, rows, cols)


def select_representatives(
    grids: dict[int, Grid],
    projections: dict[int, dict[int, tuple[float, float]]],
    decomp: PatchDecomposition,
) -> RepresentativeAssignment:
    """Put every vertex in its grid cell of its owning patch, from the
    patches' projections (`project_patch`); the reps and the rest follow
    from the cells (`assemble_assignment`)."""
    owner = decomp.owner_of_vertex.tolist()
    cell = [0] * len(owner)
    for pid, proj in projections.items():
        for v, uv in proj.items():
            if owner[v] == pid:
                cell[v] = grids[pid].cell_of(uv)
    return assemble_assignment(cell, owner, decomp.count)


def assemble_assignment(cell: list[int], owner: list[int],
                        num_patches: int) -> RepresentativeAssignment:
    """The assignment from each vertex's grid cell and owning patch: the
    lowest-index vertex of each (patch, cell) is its representative, and
    every patch lists its reps in cell order. Build and load both end here,
    so a loaded assignment equals the built one."""
    rep_at: dict[tuple[int, int], int] = {}
    rep_of: dict[int, int] = {}
    members: dict[int, list[int]] = {}
    for v, key in enumerate(zip(owner, cell)):
        rep = rep_at.setdefault(key, v)
        rep_of[v] = rep
        members.setdefault(rep, []).append(v)
    patch_reps: dict[int, list[int]] = {pid: [] for pid in range(num_patches)}
    for (pid, _cell), rep in sorted(rep_at.items()):
        patch_reps[pid].append(rep)
    return RepresentativeAssignment(
        reps=sorted(members),
        rep_of=rep_of,
        cell_of=dict(enumerate(zip(owner, cell))),
        members=members,
        patch_reps=patch_reps,
    )
