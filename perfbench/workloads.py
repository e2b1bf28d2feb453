"""Seeded inputs for the polyroute benchmark.

Each workload is a set of sphere hulls written as OFF text, a list of
uniform routing pairs per hull, and the shortest path along mesh edges for
every pair. Nothing here calls polyroute: preparing inputs costs no library
time, so mesh-load cost stays inside the measured build.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import ConvexHull


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # vertices per hull
    eps: float
    hulls: int
    pairs: int  # routing pairs per hull
    slice_s: float  # routing per round, after the hull's first pass


# Why these three: coarse600 puts most of the time in the mesh layer (OFF
# load, adjacency, theta_m) in both build and set-up, since eps 0.8 keeps the
# patches, spanner and tables small (about 1 KB of tables per vertex);
# fine200 puts it in the spanner and the landmark scheme, with over 10x the
# tables per vertex, so its set-up is bound by plane entries, not the mesh;
# hulls100 is dominated by fixed per-call costs and is the one workload on
# which DisconnectedSpanner shows up. Per-hop routing cost on hulls100 set
# against coarse600 shows whether forwarding cost grows with n. Sizes are
# held down so that the first passes of all hulls fit in a 38 s run on a
# 2-core box, with builds, loads and routes each sampled 4-15 times across
# the run: the host's speed drifts by +-25% within seconds, and only samples
# spread over the whole run average that out. Mesh load is quadratic in n,
# and one n=1200 build takes about 14 s. Each workload has 4-12 hulls,
# because table size, stretch and build time vary by up to +-25% from one
# mesh to the next. `slice_s` is long enough that routing is sampled over
# about a third of a run, as builds and loads are.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("coarse600", n=600, eps=0.8, hulls=5, pairs=420, slice_s=2.0),
        Workload("fine200", n=200, eps=0.3, hulls=4, pairs=525, slice_s=2.0),
        Workload("hulls100", n=100, eps=0.4, hulls=12, pairs=200, slice_s=0.5),
    )
}


@dataclass
class Hull:
    mesh_seed: int  # `polyroute gen sphere --n N --seed <mesh_seed>` gives the same mesh
    vertices: np.ndarray  # (n, 3)
    off: str
    pairs: np.ndarray  # (k, 2) distinct (s, t)
    ref: np.ndarray  # (k,) shortest s-t path length along mesh edges
    edge_keys: np.ndarray  # sorted u * n + v over mesh edges with u < v

    def is_edge(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        n = len(self.vertices)
        keys = np.minimum(u, v) * n + np.maximum(u, v)
        pos = np.searchsorted(self.edge_keys, keys)
        pos = np.minimum(pos, len(self.edge_keys) - 1)
        return self.edge_keys[pos] == keys

    def path_length(self, path: list[int]) -> float:
        pts = self.vertices[np.asarray(path)]
        return float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())


def sphere_hull(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Convex hull of n seeded uniform points on the unit sphere, with the
    vertex order and face orientation that `polyroute gen sphere` uses."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    hull = ConvexHull(pts)
    if len(hull.vertices) != n:
        raise ValueError(f"sphere sample {seed} has {n - len(hull.vertices)} interior points")
    faces = hull.simplices.astype(np.int64)
    a, b, c = pts[faces[:, 0]], pts[faces[:, 1]], pts[faces[:, 2]]
    inward = np.einsum("ij,ij->i", np.cross(b - a, c - a), a - pts.mean(axis=0)) < 0
    faces[inward] = faces[inward][:, [0, 2, 1]]
    return pts, faces


def off_text(vertices: np.ndarray, faces: np.ndarray) -> str:
    lines = ["OFF", f"{len(vertices)} {len(faces)} {3 * len(faces) // 2}"]
    lines += [f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in vertices]
    lines += [f"3 {i} {j} {k}" for i, j, k in faces]
    return "\n".join(lines) + "\n"


def uniform_pairs(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    s = rng.integers(n, size=count)
    t = rng.integers(n - 1, size=count)
    t += t >= s
    return np.stack([s, t], axis=1)


def edge_distances(vertices: np.ndarray, faces: np.ndarray,
                   pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest path lengths along mesh edges for each pair, and the sorted
    edge keys u * n + v (u < v) of the mesh."""
    n = len(vertices)
    e = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    keys = np.unique(e.min(axis=1) * n + e.max(axis=1))
    u, v = keys // n, keys % n
    w = np.linalg.norm(vertices[u] - vertices[v], axis=1)
    graph = coo_matrix((w, (u, v)), shape=(n, n)).tocsr()
    sources, row = np.unique(pairs[:, 0], return_inverse=True)
    dist = dijkstra(graph, directed=False, indices=sources)
    return dist[row, pairs[:, 1]], keys


def make_hulls(w: Workload, seed: int) -> list[Hull]:
    """The inputs of one run; the same (workload, seed) gives the same hulls."""
    root = np.random.SeedSequence([seed, zlib.crc32(w.name.encode())])
    hulls = []
    for child in root.spawn(w.hulls):
        mesh_seed, pair_seed = (int(x) for x in child.generate_state(2))
        vertices, faces = sphere_hull(w.n, mesh_seed)
        pairs = uniform_pairs(w.n, w.pairs, np.random.default_rng(pair_seed))
        ref, keys = edge_distances(vertices, faces, pairs)
        hulls.append(Hull(mesh_seed, vertices, off_text(vertices, faces), pairs, ref, keys))
    return hulls
