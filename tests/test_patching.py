import math

import numpy as np
import pytest

from polyroute.cli import generate_mesh
from polyroute.geometry import snap
from polyroute.patching import NO_NEIGHBOR, build_sketch, compute_patches, project_patch


def test_cube_patches_merge_coplanar_pairs(cube):
    decomp = compute_patches(cube, 0.1)
    assert decomp.count == 6
    sizes = sorted(len(p.faces) for p in decomp.patches)
    assert sizes == [2] * 6


def test_tetra_patches_all_separate(tetra):
    assert compute_patches(tetra, 0.01).count == 4


def test_delta_pi_single_patch(tetra, cube, sphere50):
    for mesh in (tetra, cube, sphere50):
        assert compute_patches(mesh, math.pi).count == 1


def test_patch_angle_ranges_within_delta(sphere50):
    delta = 0.3
    decomp = compute_patches(sphere50, delta)
    tx = np.arccos(np.clip(sphere50.face_normals[:, 0], -1, 1))
    tz = np.arccos(np.clip(sphere50.face_normals[:, 2], -1, 1))
    for p in decomp.patches:
        assert tx[p.faces].max() - tx[p.faces].min() <= delta + 1e-12
        assert tz[p.faces].max() - tz[p.faces].min() <= delta + 1e-12


def test_every_face_in_exactly_one_patch(sphere100):
    decomp = compute_patches(sphere100, 0.25)
    assert (decomp.patch_of_face >= 0).all()
    counted = sum(len(p.faces) for p in decomp.patches)
    assert counted == sphere100.num_faces


def test_patch_count_scaling_law():
    # fit the Lemma-1 constant on one hull family, assert it holds elsewhere
    fit_mesh = generate_mesh("sphere", 200, 0)
    c = 0.0
    for delta in (0.2, 0.3, 0.4, 0.6):
        c = max(c, compute_patches(fit_mesh, delta).count * delta * delta)
    for seed in (1, 2, 3):
        mesh = generate_mesh("sphere", 150, seed)
        for delta in (0.25, 0.4):
            count = compute_patches(mesh, delta).count
            assert count <= 2.0 * c / (delta * delta)


def test_sketch_tetra_faces_are_the_faces(tetra):
    decomp = compute_patches(tetra, 0.01)
    sketch = build_sketch(tetra, decomp)
    assert not sketch.truncated
    for f, patch in zip(sketch.faces, decomp.patches):
        # each sketch face is the original triangle
        tri2 = patch.to_2d(tetra.vertices[tetra.faces[patch.rep_face]])
        assert len(f.polygon2d) == 3
        got = {tuple(np.round(p, 9)) for p in f.polygon2d}
        want = {tuple(np.round(p, 9)) for p in tri2}
        assert got == want


def test_sketch_cube_faces_are_unit_squares(cube):
    decomp = compute_patches(cube, 0.1)
    sketch = build_sketch(cube, decomp)
    for f in sketch.faces:
        assert len(f.polygon2d) == 4
        area = _polygon_area(f.polygon2d)
        assert area == pytest.approx(1.0, abs=1e-9)
        assert set(f.neighbor_patch.tolist()).isdisjoint({NO_NEIGHBOR})


def _polygon_area(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def test_sketch_contains_polytope():
    mesh = generate_mesh("sphere", 100, 3)
    decomp = compute_patches(mesh, 0.5)
    # the sketch is the intersection of the patches' supporting half-spaces
    slack = snap(float(np.abs(mesh.vertices).max())) * 100.0
    for patch in decomp.patches:
        assert (patch.gamma.signed_distance(mesh.vertices) <= slack).all()


def test_sketch_neighbors_symmetric(sphere50):
    decomp = compute_patches(sphere50, 0.4)
    sketch = build_sketch(sphere50, decomp)
    by_pid = {f.patch_id: f for f in sketch.faces}
    for f in sketch.faces:
        for nb in f.neighbor_patch:
            if nb == NO_NEIGHBOR:
                continue
            assert f.patch_id in by_pid[nb].neighbor_patch


def test_projection_identity_on_plane(tetra):
    decomp = compute_patches(tetra, 0.01)
    patch = decomp.patches[0]
    proj = project_patch(tetra, patch)
    for v in tetra.faces[patch.rep_face]:
        assert proj.displacement[int(v)] == pytest.approx(0.0, abs=1e-12)
        back = patch.to_3d(proj.uv[int(v)])
        assert np.allclose(back, tetra.vertices[v], atol=1e-12)


def test_projection_coplanar_cube_patch(cube):
    decomp = compute_patches(cube, 0.1)
    for patch in decomp.patches:
        proj = project_patch(cube, patch)
        assert len(proj.uv) == 4
        assert all(d == pytest.approx(0.0, abs=1e-12) for d in proj.displacement.values())


def test_projection_orthogonality(sphere50):
    decomp = compute_patches(sphere50, 0.4)
    for patch in decomp.patches[:8]:
        proj = project_patch(sphere50, patch)
        for v, uv in proj.uv.items():
            foot = patch.to_3d(uv)
            seg = sphere50.vertices[v] - foot
            if np.linalg.norm(seg) < 1e-12:
                continue
            # projection segment is parallel to the patch normal
            cross = np.cross(seg, patch.gamma.normal)
            assert np.linalg.norm(cross) <= 1e-9 * np.linalg.norm(seg)


def test_projection_displacement_bound():
    for seed in (0, 1):
        mesh = generate_mesh("sphere", 80, seed)
        delta = 0.3
        decomp = compute_patches(mesh, delta)
        diam = mesh.diameter()
        for patch in decomp.patches:
            proj = project_patch(mesh, patch)
            for d in proj.displacement.values():
                assert d <= diam * math.sin(delta) + 1e-9
