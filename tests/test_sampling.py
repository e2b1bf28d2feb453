import math

import numpy as np
import pytest

from polyroute.cli import generate_mesh
from polyroute.patching import compute_patches, project_patch
from polyroute.sampling import build_grid, select_representatives


def _fake_projection(points):
    # vertex -> (u, v) float pair, as `project_patch` returns it
    return {i: (float(p[0]), float(p[1])) for i, p in enumerate(points)}


def test_eps_one_single_cell():
    grid = build_grid(_fake_projection([(0, 0), (1, 1)]), 1.0)
    assert (grid.rows, grid.cols) == (1, 1)


def test_eps_quarter_two_by_two():
    grid = build_grid(_fake_projection([(0, 0), (1, 1)]), 0.25)
    assert (grid.rows, grid.cols) == (2, 2)


def test_random_points_unique_cells():
    rng = np.random.default_rng(0)
    pts = rng.random((100, 2))
    proj = _fake_projection(pts)
    grid = build_grid(proj, 0.1)
    assert (grid.rows, grid.cols) == (4, 4)
    for i in range(100):
        cell = grid.cell_of(pts[i])
        assert 0 <= cell < grid.rows * grid.cols


def test_boundary_tie_goes_lower():
    # a point exactly on the interior boundary belongs to the lower cell
    grid = build_grid(_fake_projection([(0, 0), (2, 2)]), 0.25)
    assert grid.cell_of(np.array([1.0, 0.0])) == grid.cell_of(np.array([0.9, 0.0]))


def _assignment_for(mesh, eps, delta=None):
    decomp = compute_patches(mesh, delta if delta is not None else eps)
    projections = {pid: project_patch(mesh, decomp, pid) for pid in range(decomp.count)}
    grids = {pid: build_grid(proj, eps) for pid, proj in projections.items()}
    return decomp, select_representatives(grids, projections, decomp)


def test_single_member_cell_is_its_own_rep(tetra):
    _, assign = _assignment_for(tetra, 0.5)
    for r in assign.reps:
        assert assign.rep_of[r] == r


def test_lowest_index_wins_in_shared_cell():
    # eps=1 on the tetra collapses each owning patch to one cell, so the
    # smallest owned vertex index becomes the representative
    mesh = generate_mesh("tetra")
    decomp, assign = _assignment_for(mesh, 0.999, delta=0.2)
    for pid, reps in assign.patch_reps.items():
        owned = [v for v in range(mesh.n) if decomp.owner_of_vertex[v] == pid]
        if owned:
            assert min(owned) in reps


def test_every_vertex_has_exactly_one_rep(sphere100):
    decomp, assign = _assignment_for(sphere100, 0.3)
    assert set(assign.rep_of) == set(range(sphere100.n))
    for v in range(sphere100.n):
        r = assign.rep_of[v]
        assert assign.rep_of[r] == r
        # v and its representative lie on the same patch
        assert decomp.owner_of_vertex[v] == decomp.owner_of_vertex[r]
        patch = project_patch(sphere100, decomp, int(decomp.owner_of_vertex[v]))
        assert v in patch and r in patch


def test_empty_cells_have_no_rep(sphere50):
    decomp, assign = _assignment_for(sphere50, 0.2)
    occupied = {assign.cell_of[v] for v in assign.rep_of}
    rep_cells = {assign.cell_of[r] for r in assign.reps}
    assert rep_cells == occupied


def test_rep_count_scaling_law():
    # Lemma-2 style bound with the constant fitted on seed 0
    c = 0.0
    fit = generate_mesh("sphere", 200, 0)
    for eps in (0.2, 0.3, 0.5):
        _, assign = _assignment_for(fit, eps)
        c = max(c, len(assign.reps) / min(fit.n, 1.0 / eps ** 3))
    for seed in (1, 2, 3):
        mesh = generate_mesh("sphere", 150, seed)
        for eps in (0.25, 0.4):
            _, assign = _assignment_for(mesh, eps)
            assert len(assign.reps) <= 2.0 * c * min(mesh.n, 1.0 / eps ** 3)


def test_per_patch_rep_bound(sphere100):
    eps = 0.3
    decomp, assign = _assignment_for(sphere100, eps)
    side = math.ceil(math.sqrt(1.0 / eps))
    for pid, reps in assign.patch_reps.items():
        assert len(reps) <= side * side
