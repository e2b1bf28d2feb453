"""Command-line entry point: mesh generation, validation, preprocessing,
routing, and the stretch benchmark.

Exit codes: 0 success, 1 validation failure, 2 bound violation, 3 I/O error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np
from scipy.spatial import ConvexHull

from . import polytope as poly
from .geometry import dot
from .oracle import build_subdivision_graph, estimate_D, stretch_sweep
from .patching import build_sketch, compute_patches
from .router import HopLimitExceeded, RoutingError, route
from .spanner import DisconnectedSpanner
from .tables import SerializationError, deserialize, preprocess_mesh, serialize, to_json

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BOUND = 2
EXIT_IO = 3


def convex_hull_mesh(points: np.ndarray) -> poly.TriangulatedPolytope:
    """Triangulated convex hull with outward-oriented faces."""
    points = np.asarray(points, dtype=np.float64)
    hull = ConvexHull(points)
    used = np.unique(hull.vertices)
    remap = np.empty(len(points), dtype=np.int64)
    remap[used] = np.arange(len(used))
    verts = points[used]
    faces = remap[hull.simplices]
    a, b, c = (verts[faces[:, k]] for k in range(3))
    inward = np.einsum("ij,ij->i", np.cross(b - a, c - a), a - verts.mean(axis=0)) < 0
    faces[inward] = faces[inward][:, [0, 2, 1]]
    return poly.from_arrays(verts, faces)


_SOLIDS = {
    "tetra": [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
    "cube": [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)],
    "octa": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
}


def generate_mesh(shape: str, n: int = 0, seed: int = 0) -> poly.TriangulatedPolytope:
    if shape in _SOLIDS:
        return convex_hull_mesh(np.array(_SOLIDS[shape], dtype=np.float64))
    if shape == "sphere":
        if n < 4:
            raise ValueError("sphere hulls need at least 4 points")
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        mesh = convex_hull_mesh(pts)
        if mesh.n != n:
            raise ValueError("degenerate sample produced duplicate hull vertices")
        return mesh
    raise ValueError(f"unknown shape {shape!r}")


def _load_mesh(path: str) -> poly.TriangulatedPolytope:
    with open(path, "r", encoding="utf-8") as fh:
        return poly.load_off(fh.read())


def _load_tables(path: str):
    with open(path, "rb") as fh:
        return deserialize(fh.read())


def cmd_gen(args) -> int:
    mesh = generate_mesh(args.shape, n=args.n, seed=args.seed)
    text = poly.save_off(mesh)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"gen shape={args.shape} n={mesh.n} faces={mesh.num_faces} "
              f"seed={args.seed} out={args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_validate(args) -> int:
    mesh = _load_mesh(args.mesh)
    metrics = poly.compute_theta_m(mesh)
    report = {
        "n": mesh.n,
        "faces": mesh.num_faces,
        "edges": mesh.num_edges,
        "euler": mesh.n - mesh.num_edges + mesh.num_faces,
        "diameter": mesh.diameter(),
        "theta_m_face": metrics.theta_m,
        "surface_area": mesh.surface_area(),
    }
    if args.eps is not None:
        decomp = compute_patches(mesh, args.eps)
        sketch = build_sketch(mesh, decomp, report["diameter"])
        report["patches"] = decomp.count
        # the widest angle between a face normal and its patch's normal
        cosines = np.clip(dot(mesh.face_normals, decomp.normal[decomp.patch_of_face]), -1.0, 1.0)
        report["max_normal_cone_width"] = float(np.arccos(cosines).max())
        report["sketch_truncated"] = sketch.truncated
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for k, v in report.items():
            print(f"{k}: {v}")
    return EXIT_OK


def cmd_preprocess(args) -> int:
    mesh = _load_mesh(args.mesh)
    t0 = time.perf_counter()
    system = preprocess_mesh(mesh, args.eps)
    wall = time.perf_counter() - t0
    blob = serialize(system)
    out = args.out or "tables.prt"
    with open(out, "wb") as fh:
        fh.write(blob)
    summary = system.summary()
    summary.update({
        "table_bytes": len(blob),
        "D_hat": estimate_D(mesh, args.eps),
        "wall_time_s": round(wall, 4),
        "out": out,
        "stats": system.stats,
    })
    if args.json_tables:
        with open(args.json_tables, "w", encoding="utf-8") as fh:
            fh.write(to_json(system))
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        for k, v in summary.items():
            print(f"{k}: {v}")
    return EXIT_OK


def cmd_route(args) -> int:
    system = _load_tables(args.tables)
    trace = route(args.src, args.dst, system)
    if args.trace:
        sys.stdout.write(trace.to_csv())
    result = {
        "s": args.src,
        "t": args.dst,
        "hops": trace.hops,
        "length": trace.total_length,
        "degenerate_events": len(trace.events),
    }
    if args.oracle:
        graph = build_subdivision_graph(system.P, args.subdiv)
        oracle_len = graph.distance(args.src, args.dst)
        result["oracle_len"] = oracle_len
        result["stretch"] = trace.total_length / oracle_len if oracle_len > 0 else math.inf
    if args.json:
        print(json.dumps(result, indent=2))
    elif not args.trace:
        print(" ".join(f"{k}={v}" for k, v in result.items()))
    return EXIT_OK


def cmd_bench(args) -> int:
    system = _load_tables(args.tables)
    rng = np.random.default_rng(args.seed)
    n = system.P.n
    pairs = []
    while len(pairs) < args.pairs:
        s, t = int(rng.integers(n)), int(rng.integers(n))
        if s != t:
            pairs.append((s, t))
    report = stretch_sweep(system, pairs, m=args.subdiv)
    csv_text = report.to_csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    summary = {
        "pairs": len(pairs),
        "seed": args.seed,
        "subdiv": args.subdiv,
        "D_hat": report.D_hat,
        "max_ratio": report.max_ratio,
        "mean_ratio": report.mean_ratio,
        "violations": len(report.violations),
    }
    if report.rows:
        # route time counts the route calls alone; the oracle is not timed
        seconds = [r.route_s for r in report.rows]
        p50, p95 = np.percentile([r.ratio for r in report.rows], [50, 95]).tolist()
        summary.update(route_ms_p50=float(np.median(seconds)) * 1e3,
                       us_per_hop=sum(seconds) / sum(r.hops for r in report.rows) * 1e6,
                       stretch_p50=p50, stretch_p95=p95)
    print(json.dumps(summary) if args.json else
          " ".join(f"{k}={v}" for k, v in summary.items()), file=sys.stderr)
    return EXIT_BOUND if report.violations else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="polyroute")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a mesh as OFF")
    g.add_argument("shape", choices=["tetra", "cube", "octa", "sphere"])
    g.add_argument("--n", type=int, default=0, help="vertex count (sphere)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")
    g.set_defaults(func=cmd_gen)

    v = sub.add_parser("validate", help="validate a mesh and report metrics")
    v.add_argument("mesh")
    v.add_argument("--eps", type=float)
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_validate)

    p = sub.add_parser("preprocess", help="build routing tables")
    p.add_argument("mesh")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.add_argument("--json-tables", help="write a JSON mirror of the tables")
    p.set_defaults(func=cmd_preprocess)

    r = sub.add_parser("route", help="route one packet")
    r.add_argument("tables")
    r.add_argument("--from", dest="src", type=int, required=True)
    r.add_argument("--to", dest="dst", type=int, required=True)
    r.add_argument("--trace", action="store_true")
    r.add_argument("--oracle", action="store_true")
    r.add_argument("--subdiv", type=int, default=16)
    r.add_argument("--json", action="store_true")
    r.set_defaults(func=cmd_route)

    b = sub.add_parser("bench", help="stretch benchmark over random pairs")
    b.add_argument("tables")
    b.add_argument("--pairs", type=int, required=True)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--subdiv", type=int, default=16)
    b.add_argument("--out")
    b.add_argument("--json", action="store_true")
    b.set_defaults(func=cmd_bench)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, SerializationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (poly.PolytopeError, DisconnectedSpanner, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (RoutingError,) as exc:
        code = EXIT_BOUND if isinstance(exc, HopLimitExceeded) else EXIT_VALIDATION
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
