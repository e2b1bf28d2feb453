"""Span tracing of polyroute's layers for the benchmark's traced runs.

A traced function is replaced, for the run, at every name its callers
resolve: `from .x import y` binds `y` in the caller's module at import time,
so patching the defining module alone would miss those calls. Plane methods
are patched on the class. Spans (name, start, end, parent, op) are kept in
memory and summarised at the end; a span's self time is its duration minus
the durations of its direct children.
"""
from __future__ import annotations

import functools
import gzip
import time
from collections import Counter, defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []  # (name, start_ns, end_ns, parent, op)
        self.counts: Counter = Counter()
        self.op = 0  # id of the build, set-up or route the spans belong to
        self.on = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return traced

    def _count_only(self, fn, key: str):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.on:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self, pr) -> None:
        """Patch the layers of the imported `polyroute` package `pr`."""
        from polyroute import geometry, polytope, router, tables

        hooks = [
            ([pr], "load_off", "polytope.load_off", None),
            ([polytope, tables], "from_arrays", "polytope.from_arrays", None),
            ([tables], "compute_theta_m", "polytope.compute_theta_m", None),
            ([tables], "compute_patches", "patching.compute_patches", _count_patches),
            ([tables], "build_sketch", "patching.build_sketch", None),
            ([tables], "select_representatives", "sampling.select_representatives",
             _count_representatives),
            ([tables], "build_spanner", "spanner.build_spanner", _count_spanner),
            ([tables], "tz_preprocess", "compact_routing.tz_preprocess", _count_scheme),
            ([tables], "prune_intra_face", "compact_routing.prune_intra_face", None),
            ([tables], "materialize_plane_entries",
             "compact_routing.materialize_plane_entries", None),
            ([router], "tz_next_hop", "compact_routing.tz_next_hop", None),
            ([pr], "preprocess_mesh", "tables.preprocess_mesh", None),
            ([tables], "build_tables", "tables.build_tables", None),
            ([pr], "serialize", "tables.serialize", None),
            ([pr], "deserialize", "tables.deserialize", None),
            ([pr], "route", "router.route", None),
            ([router], "make_packet", "router.make_packet", None),
            ([router], "step", "router.step", None),
        ]
        for owners, attr, name, count in hooks:
            for owner in owners:
                self._patch(owner, attr, self._wrap(vars(owner)[attr], name, count))

        plane = geometry.Plane
        through = vars(plane)["through_points_orthogonal_to"].__func__
        self._patch(plane, "through_points_orthogonal_to", classmethod(
            self._wrap(through, "geometry.Plane.through_points_orthogonal_to")))
        self._patch(plane, "signed_distance", self._wrap(
            vars(plane)["signed_distance"], "geometry.Plane.signed_distance", _count_points))
        self._patch(plane, "__post_init__", self._count_only(
            vars(plane)["__post_init__"], "geometry.Plane.constructed"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds `s`, and self seconds `self_s`."""
        child_ns = defaultdict(int)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _parent, _op) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += (end - start) * 1e-9
            agg["self_s"] += (end - start - child_ns[index]) * 1e-9
        return out

    def write(self, path: Path) -> None:
        """Write the spans as gzipped CSV, times relative to the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent,op\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{index},{name},{start - t0},{end - t0},{parent},{op}\n")


def _count_patches(counts, _args, decomp):
    counts["patching.patches"] += decomp.count


def _count_representatives(counts, _args, assignment):
    counts["sampling.representatives"] += len(assignment.reps)


def _count_spanner(counts, _args, graph):
    steiner = sum(1 for node in graph.nodes if node.kind == "steiner")
    counts["spanner.nodes_rep"] += graph.num_nodes - steiner
    counts["spanner.nodes_steiner"] += steiner
    counts["spanner.edges"] += len(graph.edges)
    counts["spanner.disconnected"] += not graph.connected


def _count_scheme(counts, _args, scheme):
    counts["compact_routing.landmarks"] += len(scheme.landmarks)
    counts["compact_routing.ball_entries"] += sum(len(m) for m in scheme.exact_next.values())


def _count_points(counts, args, _result):
    shape = getattr(args[1], "shape", ())
    counts["geometry.Plane.signed_distance.points"] += shape[0] if len(shape) == 2 else 1
