import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from polyroute.geometry import (
    SNAP_EPS,
    DegenerateFace,
    GeometryError,
    corner_angle,
    cross,
    dot,
    norm,
)
from polyroute.patching import frame_to_2d, frame_to_3d
from polyroute.router import PacketHeader, _plane_words, _sig_of

from conftest import reference_plane_and_frame


def test_corner_angles_equilateral():
    tri = np.array([[0.0, 0, 0], [1, 0, 0], [0.5, math.sqrt(3) / 2, 0]])
    for k in range(3):
        assert corner_angle(tri, k) == pytest.approx(math.pi / 3)


def test_corner_angle_right_isoceles():
    tri = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert corner_angle(tri, 0) == pytest.approx(math.pi / 2)


def test_corner_angle_near_collinear_rejected():
    tri = np.array([[0.0, 0, 0], [1, 0, 0], [2, SNAP_EPS / 10, 0]])
    with pytest.raises(DegenerateFace):
        corner_angle(tri, 0)


def test_cross_matches_np_cross_bitwise():
    rng = np.random.default_rng(7)
    scales = 10.0 ** rng.integers(-8, 9, size=(2000, 2))
    a = rng.normal(size=(2000, 3)) * scales[:, :1]
    b = rng.normal(size=(2000, 3)) * scales[:, 1:]
    a[:100] = rng.integers(-2, 3, size=(100, 3))  # exact zeros and signed zeros
    b[:100] = -a[:100]
    want = np.cross(a, b)
    assert np.stack(cross(a, b), axis=1).tobytes() == want.tobytes()
    for x, y, w in zip(a, b, want):
        assert np.array(cross(x, y)).tobytes() == w.tobytes()


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def _transform(m, points) -> np.ndarray:
    # the numpy small-matrix map, reference for the frame maps:
    # points @ m.T, each output coordinate one `dot`
    out = [dot(points, row) for row in m]
    return np.array(out) if isinstance(out[0], float) else np.stack(out, axis=-1)


def _numpy_to_2d(frame, points) -> np.ndarray:
    # the reference frame_to_2d on numpy arrays, for a point or an (n, 3) array
    origin, u, v = frame
    rel = np.asarray(points, dtype=np.float64) - np.array(origin)
    return _transform((np.array(u), np.array(v)), rel)


def _numpy_to_3d(frame, uv) -> np.ndarray:
    # the reference frame_to_3d on numpy arrays, for a point or an (n, 2) array
    origin, u, v = frame
    axes = np.stack([u, v], axis=1)
    return np.array(origin) + _transform(axes, np.asarray(uv, dtype=np.float64))


def _plane_on(corners):
    # the plane through three corners and its frame, as a patch gets them
    try:
        return reference_plane_and_frame(corners)
    except GeometryError:
        assume(False)


def _frame_maps(frame, x):
    # frame_to_2d of a float row or of an (n, 3) array's columns, and
    # frame_to_3d of its first two coordinates, stacked as arrays
    if x.ndim == 1:
        to2, to3 = frame_to_2d(frame, x.tolist()), frame_to_3d(frame, x[:2].tolist())
    else:
        to2, to3 = frame_to_2d(frame, tuple(x.T)), frame_to_3d(frame, tuple(x[:, :2].T))
    return np.stack(to2, axis=-1), np.stack(to3, axis=-1)


finite = st.floats(-1e3, 1e3, allow_nan=False, width=64)


@settings(max_examples=150, deadline=None)
@given(
    rows=hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.just(3)), elements=finite),
    other=hnp.arrays(np.float64, (3,), elements=finite),
    corners=hnp.arrays(np.float64, (3, 3), elements=finite),
    data=st.data(),
)
def test_kernel_bits_do_not_depend_on_batch(rows, other, corners, data):
    # the kernel, frame_to_2d, frame_to_3d and Plane.signed_distance give
    # each row the same bits alone, in any subset of rows and in the whole
    # batch; the frame maps take a lone row as floats and a batch as columns
    plane, frame = _plane_on(corners)

    def evaluate(x):
        return [dot(x, other), norm(x), np.stack(np.broadcast_arrays(*cross(x, other)), axis=-1),
                *_frame_maps(frame, x), plane.signed_distance(x)]

    full = evaluate(rows)
    subset = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, unique=True))
    for got, want in zip(evaluate(rows[subset]), full):
        assert _bits(got) == _bits(want[subset])
    for i in range(len(rows)):
        for got, want in zip(evaluate(rows[i]), full):
            assert _bits(got) == _bits(want[i])
    # the router's leg plane, evaluated one float row at a time
    header = PacketHeader(dest_vertex=0, dest_label=None)
    header.plane = _plane_words(plane)
    mesh = SimpleNamespace(vertex_rows=rows.tolist())
    assert _bits([_sig_of(mesh, header, i) for i in range(len(rows))]) == _bits(full[-1])


wide = st.floats(-1e6, 1e6, allow_nan=False, width=64)


@settings(max_examples=150, deadline=None)
@given(
    rows=hnp.arrays(np.float64, st.tuples(st.integers(1, 20), st.just(3)), elements=wide),
    corners=hnp.arrays(np.float64, (3, 3), elements=finite),
)
def test_frame_maps_match_numpy_reference_bitwise(rows, corners):
    # the float-row frame maps give the bits of the numpy maps they
    # replaced, on each float row and on the columns of the whole batch
    _plane, frame = _plane_on(corners)
    want = _numpy_to_2d(frame, rows), _numpy_to_3d(frame, rows[:, :2])
    assert [_bits(got) for got in _frame_maps(frame, rows)] == [_bits(w) for w in want]
    for i, row in enumerate(rows):
        assert _bits(np.array(frame_to_2d(frame, row.tolist()))) == _bits(want[0][i])
        assert _bits(np.array(frame_to_3d(frame, row[:2].tolist()))) == _bits(want[1][i])
        assert _bits(np.array(frame_to_2d(frame, row))) == _bits(_numpy_to_2d(frame, row))
        assert _bits(np.array(frame_to_3d(frame, row[:2]))) == _bits(
            _numpy_to_3d(frame, row[:2]))


coords = st.floats(min_value=-10, max_value=10, allow_nan=False, width=64)
points = st.tuples(coords, coords, coords).map(np.array)


@settings(max_examples=200, deadline=None)
@given(f=st.tuples(points, points, points))
def test_corner_angles_sum_to_pi(f):
    f = np.stack(f)
    if np.linalg.norm(np.cross(f[1] - f[0], f[2] - f[0])) < 1e-3:
        return
    total = sum(corner_angle(f, k) for k in range(3))
    assert total == pytest.approx(math.pi, abs=1e-9)
