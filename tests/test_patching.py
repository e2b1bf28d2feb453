import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyroute.cli import generate_mesh
from polyroute.geometry import SNAP_EPS, dot, norm
from polyroute.patching import (
    _SKETCH_BOUND,
    NO_NEIGHBOR,
    SketchFace,
    UnboundedSketch,
    _clip_halfplane,
    build_sketch,
    compute_patches,
    frame_to_2d,
    frame_to_3d,
    project_patch,
)

from conftest import reference_plane_and_frame


def test_cube_patches_merge_coplanar_pairs(cube):
    decomp = compute_patches(cube, 0.1)
    assert decomp.count == 6
    assert np.bincount(decomp.patch_of_face).tolist() == [2] * 6


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
    for pid in range(decomp.count):
        faces = decomp.patch_of_face == pid
        assert tx[faces].max() - tx[faces].min() <= delta + 1e-12
        assert tz[faces].max() - tz[faces].min() <= delta + 1e-12


def test_every_face_in_exactly_one_patch(sphere100):
    decomp = compute_patches(sphere100, 0.25)
    assert len(decomp.patch_of_face) == sphere100.num_faces
    assert (np.bincount(decomp.patch_of_face, minlength=decomp.count) > 0).all()
    assert decomp.patch_of_face.max() == decomp.count - 1


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
    sketch = build_sketch(tetra, decomp, tetra.diameter())
    assert not sketch.truncated
    for pid, f in enumerate(sketch.faces):
        # each sketch face is the original triangle
        frame = decomp.frame[pid].tolist()
        tri2 = [frame_to_2d(frame, p)
                for p in tetra.vertices[tetra.faces[decomp.rep_face[pid]]].tolist()]
        assert len(f.polygon2d) == 3
        got = {tuple(np.round(p, 9)) for p in f.polygon2d}
        want = {tuple(np.round(p, 9)) for p in tri2}
        assert got == want


def test_sketch_cube_faces_are_unit_squares(cube):
    decomp = compute_patches(cube, 0.1)
    sketch = build_sketch(cube, decomp, cube.diameter())
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
    # the sketch is the intersection of the patches' supporting half-spaces,
    # which hold every vertex within the slack the convexity check allows
    slack = SNAP_EPS + SNAP_EPS * mesh.scale * 100.0
    for pid in range(decomp.count):
        assert (dot(mesh.vertices, decomp.normal[pid]) - decomp.offset[pid] <= slack).all()


def test_sketch_neighbors_symmetric(sphere50):
    decomp = compute_patches(sphere50, 0.4)
    sketch = build_sketch(sphere50, decomp, sphere50.diameter())
    by_pid = {f.patch_id: f for f in sketch.faces}
    for f in sketch.faces:
        for nb in f.neighbor_patch:
            if nb == NO_NEIGHBOR:
                continue
            assert f.patch_id in by_pid[nb].neighbor_patch


def test_projection_identity_on_plane(tetra):
    decomp = compute_patches(tetra, 0.01)
    proj = project_patch(tetra, decomp, 0)
    for v in tetra.faces[decomp.rep_face[0]]:
        dist = dot(tetra.vertices[v], decomp.normal[0]) - decomp.offset[0]
        assert dist == pytest.approx(0.0, abs=1e-12)
        back = frame_to_3d(decomp.frame[0].tolist(), proj[int(v)])
        assert np.allclose(back, tetra.vertices[v], atol=1e-12)


def test_projection_coplanar_cube_patch(cube):
    decomp = compute_patches(cube, 0.1)
    for pid in range(decomp.count):
        proj = project_patch(cube, decomp, pid)
        assert len(proj) == 4
        dist = np.abs(dot(cube.vertices[sorted(proj)], decomp.normal[pid]) - decomp.offset[pid])
        assert dist.max() == pytest.approx(0.0, abs=1e-12)


def test_projection_orthogonality(sphere50):
    decomp = compute_patches(sphere50, 0.4)
    for pid in range(8):
        proj = project_patch(sphere50, decomp, pid)
        for v, uv in proj.items():
            foot = np.array(frame_to_3d(decomp.frame[pid].tolist(), uv))
            seg = sphere50.vertices[v] - foot
            if np.linalg.norm(seg) < 1e-12:
                continue
            # projection segment is parallel to the patch normal
            cross = np.cross(seg, decomp.normal[pid])
            assert np.linalg.norm(cross) <= 1e-9 * np.linalg.norm(seg)


def test_projection_displacement_bound():
    for seed in (0, 1):
        mesh = generate_mesh("sphere", 80, seed)
        delta = 0.3
        decomp = compute_patches(mesh, delta)
        diam = mesh.diameter()
        for pid in range(decomp.count):
            ids = sorted(project_patch(mesh, decomp, pid))
            dist = np.abs(dot(mesh.vertices[ids], decomp.normal[pid]) - decomp.offset[pid])
            assert dist.max() <= diam * math.sin(delta) + 1e-9


# ---------------------------------------------------------------------------
# the patch table gives the bits of the per-patch rule it replaced: a
# `Plane` through each patch's lowest face, its frame, and the projection of
# the vertex set of the patch's faces


def _assert_table_is_per_patch_rule(P, delta):
    decomp = compute_patches(P, delta)
    corners = P.faces.tolist()
    faces = [[] for _ in range(decomp.count)]
    owner = [decomp.count] * P.n
    for fi, pid in enumerate(decomp.patch_of_face.tolist()):
        faces[pid].append(fi)
        for v in corners[fi]:
            owner[v] = min(owner[v], pid)
    assert decomp.owner_of_vertex.tolist() == owner
    assert decomp.rep_face.tolist() == [fs[0] for fs in faces]
    for pid, fs in enumerate(faces):
        plane, frame = reference_plane_and_frame(P.vertices[P.faces[fs[0]]])
        assert decomp.normal[pid].tobytes() == plane.normal.tobytes()
        assert decomp.offset[pid].tobytes() == np.float64(plane.offset()).tobytes()
        assert decomp.frame[pid].tobytes() == np.array(frame).tobytes()
        ids = sorted({v for f in fs for v in corners[f]})
        pts = P.vertices[ids]
        foot = pts - plane.signed_distance(pts)[:, None] * plane.normal[None, :]
        want = np.stack(frame_to_2d(frame, tuple(foot.T)), axis=1)
        got = project_patch(P, decomp, pid)
        assert list(got) == ids
        assert np.array(list(got.values())).tobytes() == want.tobytes()


def test_patch_table_matches_per_patch_rule(tetra, cube, octa):
    for P, delta in [(tetra, 0.01), (tetra, 0.5), (cube, 0.1), (cube, 0.8), (octa, 0.3),
                     (octa, math.pi)]:
        _assert_table_is_per_patch_rule(P, delta)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(8, 200), eps=st.floats(0.2, 0.8), seed=st.integers(0, 50))
def test_patch_table_matches_per_patch_rule_on_sphere_hulls(n, eps, seed):
    _assert_table_is_per_patch_rule(generate_mesh("sphere", n, seed), eps)


# ---------------------------------------------------------------------------
# the sketch that tests a plane before it clips gives the bits of the one
# that clips by every plane


def _reference_sketch(P, decomp, diameter):
    # every other plane goes through `_clip_halfplane`, and the parallel
    # test calls the kernel `norm`
    normals = tuple(decomp.normal.T.copy())
    half = _SKETCH_BOUND * max(diameter, 1e-12)
    faces = []
    for pid in range(decomp.count):
        o, u, v = decomp.frame[pid].tolist()
        center = P.vertices[P.faces[decomp.rep_face[pid]]].mean(axis=0).tolist()
        cx, cy = frame_to_2d((o, u, v), center)
        poly = [(cx - half, cy - half), (cx + half, cy - half), (cx + half, cy + half),
                (cx - half, cy + half)]
        owners = [NO_NEIGHBOR] * 4
        a2s = zip(dot(normals, u).tolist(), dot(normals, v).tolist())
        c2s = (decomp.offset - dot(normals, o)).tolist()
        for j, (a2, c2) in enumerate(zip(a2s, c2s)):
            if j == pid:
                continue
            if norm(a2) <= SNAP_EPS:
                if -c2 > P.snap:
                    poly = []
                    break
                continue
            poly, owners = _clip_halfplane(poly, owners, a2, c2, j, P.snap)
            if not poly:
                break
        if not poly:
            raise UnboundedSketch(pid)
        faces.append(SketchFace(pid, np.array(poly), np.array(owners, dtype=np.int64)))
    return faces, any(NO_NEIGHBOR in f.neighbor_patch for f in faces)


def _assert_sketch_is_reference(P, delta):
    decomp = compute_patches(P, delta)
    diameter = P.diameter()
    try:
        want_faces, want_truncated = _reference_sketch(P, decomp, diameter)
    except UnboundedSketch:
        with pytest.raises(UnboundedSketch):
            build_sketch(P, decomp, diameter)
        return
    got = build_sketch(P, decomp, diameter)
    assert got.truncated == want_truncated
    assert len(got.faces) == len(want_faces)
    for f, w in zip(got.faces, want_faces):
        assert f.patch_id == w.patch_id
        assert f.polygon2d.tobytes() == w.polygon2d.tobytes()
        assert f.neighbor_patch.tobytes() == w.neighbor_patch.tobytes()


def test_sketch_matches_clip_by_every_plane(tetra, cube, sphere50, hulls300):
    for P, delta in [(tetra, 0.01), (tetra, 0.5), (cube, 0.1), (sphere50, 0.3),
                     (sphere50, 0.8)]:
        _assert_sketch_is_reference(P, delta)
    for P in hulls300:
        _assert_sketch_is_reference(P, 0.4)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(8, 200), eps=st.floats(0.2, 0.8), seed=st.integers(0, 50))
def test_sketch_matches_clip_by_every_plane_on_sphere_hulls(n, eps, seed):
    _assert_sketch_is_reference(generate_mesh("sphere", n, seed), eps)


# ---------------------------------------------------------------------------
# the float-pair clip gives the bits of the numpy formulation it replaced


def _numpy_clip_halfplane(poly, owners, a, c, owner, snap):
    # the array formulation: poly is a (k, 2) array, owners a (k,) array
    k = len(poly)
    if k == 0:
        return poly, owners
    vals = dot(poly, a) - c
    if (vals <= snap).all():
        return poly, owners
    out_pts, out_own = [], []
    for i in range(k):
        j = (i + 1) % k
        vi, vj = float(vals[i]), float(vals[j])
        inside_i, inside_j = vi <= snap, vj <= snap
        if inside_i and inside_j:
            out_pts.append(poly[j])
            out_own.append(int(owners[j]))
        elif inside_i and not inside_j:
            t = vi / (vi - vj)
            out_pts.append(poly[i] + t * (poly[j] - poly[i]))
            out_own.append(owner)
        elif not inside_i and inside_j:
            t = vi / (vi - vj)
            out_pts.append(poly[i] + t * (poly[j] - poly[i]))
            out_own.append(int(owners[i]))
            out_pts.append(poly[j])
            out_own.append(int(owners[j]))
    return _numpy_dedup_polygon(out_pts, out_own, snap)


def _numpy_dedup_polygon(pts, own, snap):
    keep_pts, keep_own = [], []
    for p, o in zip(pts, own):
        if keep_pts and norm(p - keep_pts[-1]) <= snap:
            keep_own[-1] = o
            continue
        keep_pts.append(p)
        keep_own.append(o)
    if len(keep_pts) > 1 and norm(keep_pts[0] - keep_pts[-1]) <= snap:
        keep_pts.pop()
        keep_own.pop()
    if len(keep_pts) < 3:
        return np.zeros((0, 2)), np.zeros(0, dtype=np.int64)
    return np.asarray(keep_pts), np.asarray(keep_own, dtype=np.int64)


coord = st.floats(-10.0, 10.0, allow_nan=False)


@settings(max_examples=400, deadline=None)
@given(
    center=st.tuples(coord, coord),
    radius=st.floats(1e-3, 5.0),
    turns=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=3, max_size=9, unique=True),
    owners=st.lists(st.integers(-1, 50), min_size=9, max_size=9),
    heading=st.floats(0.0, 2.0 * math.pi),
    through=st.integers(0, 8),
    shift=st.sampled_from([0.0, 0.5, 1.0, 2.0, -0.5, -1.0, -2.0]),
    offset=st.floats(-6.0, 6.0),
    snap_at=st.sampled_from([0.0, 1e-9, 1e-3]),
)
def test_clip_halfplane_matches_numpy(center, radius, turns, owners, heading, through,
                                      shift, offset, snap_at):
    angles = sorted(2.0 * math.pi * t for t in turns)
    poly = np.array([[center[0] + radius * math.cos(t), center[1] + radius * math.sin(t)]
                     for t in angles])
    own = np.array(owners[:len(poly)], dtype=np.int64)
    a = (math.cos(heading), math.sin(heading))
    if through < len(poly):
        # the line runs within a few snaps of a polygon vertex
        c = dot(poly[through], a) + shift * snap_at
    else:
        c = dot(center, a) + offset
    got_pts, got_own = _clip_halfplane([tuple(p) for p in poly.tolist()], own.tolist(),
                                       a, c, 99, snap_at)
    want_pts, want_own = _numpy_clip_halfplane(poly, own, a, c, 99, snap_at)
    assert np.array(got_pts, dtype=np.float64).reshape(-1, 2).tobytes() == want_pts.tobytes()
    assert got_own == want_own.tolist()
