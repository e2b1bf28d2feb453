"""polyroute benchmark: table build, table load and routing on sphere hulls.

    python3 perfbench/run.py --workload coarse600 --seed 0 --seconds 38 --trace 0

One process, one thread of control, a closed loop with a single client:
each call into polyroute starts after the previous one returned. A run is a
sequence of rounds that cycles over the workload's hulls until `--seconds`
have passed. A round builds one hull's tables (`load_off` +
`preprocess_mesh` + `serialize`, from OFF text to `.prt` bytes, no file
I/O), loads them (`deserialize`, the start-up cost of every routing
process) and routes the hull's seeded pairs for the workload's `slice_s`.
Every kind of sample is so taken all through the run, which damps the
drift of a shared host's speed. `setup_s` is the median of the run's
loads. Every other timing metric is the mean over the hulls of a per-hull
statistic (the median build, the 50th and 99th percentile route), so that
every mesh weighs the same however often the run visited it. Each timed
span is put at the reference host speed by `hostspeed.HostSpeed`, because
the shared host's own speed moves raw times by up to 2x; the report line
keeps the raw figures.

The first round of a hull is its first pass: the build and the route of
every pair of the hull, once. Only the first pass counts in `attempted` and
`failed`, so both depend on the seed alone; later rounds repeat the same
deterministic operations as timing samples. A run starts no round that,
judged by the length of the last one, would end after `--seconds`; but
every hull has its first pass and at least `MIN_ROUNDS` rounds run.

The outputs are checked: every hop is a mesh edge, routes run from s to t
and are no shorter than the shortest path along mesh edges, `.prt` bytes
round-trip, every rebuild gives the first build's bytes, and routes on the
loaded tables equal those on the in-memory system for a sample of pairs. A
failed check makes `correct` false and the exit code 1.

With `--trace 0` the last line carries the end-to-end metrics. With
`--trace 1` the run builds and loads once per hull with every layer traced,
routes the pairs once with the layers unwrapped and once traced, checks
that both passes give the same routes, and reports per-layer times and
counts plus the tracing overhead; the spans go to perfbench/out/.

The line before the last is a report: environment, mesh seeds, failures by
kind, and SHA-256 digests of all first-pass routes and of the `.prt` bytes.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from itertools import chain
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

MIN_ROUNDS = 3  # rounds per run at least
IN_MEMORY_SAMPLE = 20  # pairs per hull routed on both the built and the loaded system
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ENTRY_KINDS = ("TO_MY_REP", "REP_TO_MEMBER", "REP_TO_REP_SAME_PATCH", "GLOBAL", "MARKED_RELAY")
CASES = ("FirstHop", "General", "VertexHit", "TieBreak", "PseudoSwitch")
ROUTE_FAILS = ("HopLimitExceeded", "NoExitFace", "RoutingError", "other")

TRACED_TIMES = (
    "polytope.load_off", "polytope.from_arrays", "polytope.compute_theta_m",
    "patching.compute_patches", "patching.build_sketch",
    "sampling.select_representatives", "spanner.build_spanner",
    "compact_routing.tz_preprocess", "compact_routing.prune_intra_face",
    "compact_routing.materialize_plane_entries", "compact_routing.tz_next_hop",
    "geometry.Plane.through_points_orthogonal_to", "geometry.Plane.signed_distance",
    "tables.preprocess_mesh", "tables.build_tables", "tables.serialize",
    "tables.deserialize", "router.route", "router.make_packet", "router.step",
)
TRACED_CALLS = (
    "polytope.from_arrays", "polytope.compute_theta_m", "compact_routing.tz_next_hop",
    "geometry.Plane.through_points_orthogonal_to", "geometry.Plane.signed_distance",
    "router.route", "router.step",
)
TRACED_SELF = (
    "polytope.load_off", "tables.preprocess_mesh", "tables.deserialize", "router.step",
)
TRACED_COUNTS = (
    "patching.patches", "sampling.representatives", "spanner.nodes_rep",
    "spanner.nodes_steiner", "spanner.edges", "spanner.disconnected",
    "compact_routing.landmarks", "compact_routing.ball_entries",
    "geometry.Plane.signed_distance.points", "geometry.Plane.constructed",
)


def cap_threads() -> dict[str, str]:
    """One thread of control: BLAS/OpenMP pools default to 1 thread and are
    never allowed above the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        raw = os.environ.get(var, "1")
        os.environ[var] = str(min(int(raw), nproc)) if raw.isdigit() and int(raw) > 0 else "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def import_polyroute():
    """Import polyroute from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "polyroute" / "__init__.py").is_file():
        sys.exit(f"polyroute sources not found under {src}")
    sys.path.insert(0, str(src))
    import polyroute

    if not Path(polyroute.__file__).resolve().is_relative_to(src):
        sys.exit(f"imported polyroute from {polyroute.__file__}, not from {src}")
    return polyroute


def environment(threads: dict[str, str], seed: int) -> dict:
    import numpy
    import scipy

    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            sha = ref
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "polyroute").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": threads,
        "seed": seed,
    }


def fail_kind(exc: BaseException, pr) -> str:
    if isinstance(exc, (pr.router.HopLimitExceeded, pr.router.NoExitFace)):
        return type(exc).__name__
    if isinstance(exc, pr.router.RoutingError):
        return "RoutingError"
    return "other"


class Run:
    """One benchmark run over the hulls of one workload."""

    def __init__(self, pr, workload, hulls, tracer, seconds: float):
        self.pr = pr
        self.workload = workload
        self.hulls = hulls
        self.tracer = tracer
        self.seconds = seconds
        self.blobs: dict[int, bytes] = {}  # .prt bytes of each hull that built
        self.paths: dict[int, list] = {}  # first-pass vertex lists or failure kinds
        self.visited: set[int] = set()  # hulls whose first pass ran
        self.cursors: dict[int, int] = {}  # next pair to route per hull
        self.rounds = 0
        # (start, end) perf_counter spans per hull
        self.build_s: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
        self.setup_s: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
        self.latencies: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
        self.attempted = 0
        self.failures: Counter = Counter()
        self.checks: dict[str, bool] = {}
        self.errors: list[str] = []
        # traced runs only
        self.layer_counts: Counter = Counter()
        self.untraced_s = 0.0
        self.traced_s = 0.0

    def note(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks[name] = self.checks.get(name, True) and ok
        if not ok:
            self.note(f"{name}: {detail}")

    def begin(self, traced: bool) -> None:
        """Start one operation (a build, a set-up or a route)."""
        if self.tracer is not None:
            self.tracer.op += 1
            self.tracer.on = traced

    def end(self) -> None:
        if self.tracer is not None:
            self.tracer.on = False

    def route_once(self, system, s: int, t: int, timed_hull: int | None = None,
                   traced: bool = False):
        """Route s -> t; returns the RouteTrace or the failure kind. With
        `timed_hull`, the call adds a latency sample for that hull."""
        self.begin(traced)
        start = time.perf_counter()
        try:
            outcome = self.pr.route(s, t, system)
        except Exception as exc:  # every failure is counted by kind, none ends the run
            outcome = exc
        finally:
            self.end()
        if timed_hull is not None:
            self.latencies[timed_hull].append((start, time.perf_counter()))
        if isinstance(outcome, Exception):
            self.note(f"route {s}->{t}: " + "".join(
                traceback.format_exception_only(type(outcome), outcome)).strip())
            return fail_kind(outcome, self.pr)
        return outcome

    def sample_paths(self, system, hull) -> list:
        return [path_of(self.route_once(system, int(s), int(t)))
                for s, t in hull.pairs[:IN_MEMORY_SAMPLE]]

    def build(self, h: int, hull):
        """Build a hull's tables from OFF text to .prt bytes; returns the
        in-memory system and the bytes, and raises what the build raises."""
        pr = self.pr
        gc.collect()
        self.begin(self.tracer is not None)
        start = time.perf_counter()
        try:
            system = pr.preprocess_mesh(pr.load_off(hull.off), self.workload.eps)
            blob = pr.serialize(system)
        finally:
            self.end()
        self.build_s[h].append((start, time.perf_counter()))
        return system, blob

    def load(self, h: int):
        gc.collect()
        self.begin(self.tracer is not None)
        start = time.perf_counter()
        system = self.pr.deserialize(self.blobs[h])
        self.setup_s[h].append((start, time.perf_counter()))
        self.end()
        return system

    def first_visit(self, h: int, hull):
        """Build and load hull h for the first time and check the loaded
        tables; returns the loaded system, or None when the build failed."""
        self.visited.add(h)
        self.attempted += 1
        try:
            system, self.blobs[h] = self.build(h, hull)
        except Exception as exc:  # a hull that fails to build is one failed operation
            self.failures[type(exc).__name__] += 1
            self.note(f"build {h}: {type(exc).__name__}: {exc}")
            return None
        built = self.sample_paths(system, hull)
        del system
        system = self.load(h)
        self.check("prt_round_trip", self.pr.serialize(system) == self.blobs[h],
                   f"hull {h}: serialize(deserialize(b)) != b")
        self.check("loaded_routes_match_built", self.sample_paths(system, hull) == built,
                   f"hull {h}: routes on the loaded tables differ from the built system")
        return system

    def run_rounds(self) -> None:
        """Cycle over the hulls, one round each, until `--seconds` are up."""
        deadline = time.perf_counter() + self.seconds
        last = 0.0
        h = -1
        while True:
            start = time.perf_counter()
            first_pass_done = len(self.visited) == len(self.hulls)
            if first_pass_done and (not self.blobs or (
                    self.rounds >= MIN_ROUNDS and start + last > deadline)):
                return
            h = (h + 1) % len(self.hulls)
            if h in self.visited and h not in self.blobs:
                continue  # its build failed; building it again would fail the same way
            self.round(h)
            self.rounds += 1
            last = time.perf_counter() - start

    def round(self, h: int) -> None:
        """Hull h's first pass, or else a rebuild and a reload; then a route slice."""
        hull = self.hulls[h]
        if h not in self.visited:
            system = self.first_visit(h, hull)
            if system is None:
                return
            self.paths[h] = [path_of(self.route_once(system, int(s), int(t), timed_hull=h))
                             for s, t in hull.pairs]
        else:
            try:
                system, blob = self.build(h, hull)
            except Exception as exc:
                self.check("rebuild_matches_first", False,
                           f"hull {h}: rebuild raised {type(exc).__name__}: {exc}")
                return
            self.check("rebuild_matches_first", blob == self.blobs[h],
                       f"hull {h}: a rebuild gave other .prt bytes than the first build")
            del system
            system = self.load(h)
        self.route_slice(h, system)

    def route_slice(self, h: int, system) -> None:
        """Route hull h's pairs cyclically for the workload's `slice_s`, going on
        from where its last slice stopped."""
        pairs = self.hulls[h].pairs
        cursor = self.cursors.get(h, 0)
        start = time.perf_counter()
        while time.perf_counter() - start < self.workload.slice_s:
            s, t = pairs[cursor % len(pairs)]
            self.route_once(system, int(s), int(t), timed_hull=h)
            cursor += 1
        self.cursors[h] = cursor

    def traced_passes(self, h: int, system) -> None:
        """Route hull h's pairs once with the layers unwrapped and once
        traced; the traced pass must route identically."""
        self.layer_counts.update(entry_counts(system))
        pairs = [(int(s), int(t)) for s, t in self.hulls[h].pairs]
        self.tracer.uninstall()
        gc.collect()
        start = time.perf_counter()
        self.paths[h] = [path_of(self.route_once(system, s, t)) for s, t in pairs]
        self.untraced_s += time.perf_counter() - start
        self.tracer.install(self.pr)
        gc.collect()
        start = time.perf_counter()
        traced = [self.route_once(system, s, t, traced=True) for s, t in pairs]
        self.traced_s += time.perf_counter() - start
        self.check("traced_routes_match_untraced", [path_of(o) for o in traced] == self.paths[h],
                   f"hull {h}: the traced pass routed differently from the untraced pass")
        self.layer_counts.update(router_counters(traced))

    def check_routes(self) -> list[float]:
        """Check first-pass routes, count them and their failures, and return the
        edge stretch of each route that arrived."""
        import numpy as np

        stretch = []
        for h, paths in self.paths.items():
            hull = self.hulls[h]
            self.attempted += len(paths)
            for (s, t), ref, path in zip(hull.pairs.tolist(), hull.ref.tolist(), paths):
                if isinstance(path, str):
                    self.failures[path] += 1
                    continue
                where = f"hull {h}: route {s}->{t}"
                self.check("route_endpoints", path[0] == s and path[-1] == t, where)
                arr = np.asarray(path)
                self.check("hops_are_mesh_edges",
                           bool(hull.is_edge(arr[:-1], arr[1:]).all()), where)
                length = hull.path_length(path)
                self.check("length_at_least_reference", length >= ref * (1 - 1e-9),
                           f"{where}: length {length!r} < shortest edge path {ref!r}")
                stretch.append(length / ref)
        return stretch

    def digests(self) -> dict[str, str]:
        routes = hashlib.sha256()
        for h, hull in enumerate(self.hulls):
            if h not in self.paths:
                routes.update(f"{h} build failed\n".encode())
                continue
            for (s, t), path in zip(hull.pairs.tolist(), self.paths[h]):
                tail = f"!{path}" if isinstance(path, str) else " ".join(map(str, path))
                routes.update(f"{h} {s} {t}: {tail}\n".encode())
        prt = hashlib.sha256()
        for h in sorted(self.blobs):
            prt.update(self.blobs[h])
        return {"routes_sha256": routes.hexdigest(), "prt_sha256": prt.hexdigest()}


def path_of(outcome):
    return outcome if isinstance(outcome, str) else outcome.vertices


def router_counters(outcomes) -> Counter:
    """Hops, legs, cases, re-aims and fallbacks over route traces."""
    counts: Counter = Counter()
    for trace in outcomes:
        if isinstance(trace, str):
            continue
        counts["router.hops"] += trace.hops
        counts["router.routes"] += 1
        for leg in trace.legs:
            counts[f"router.legs.{leg['tz']}.{leg['kind']}"] += 1
        counts.update(f"router.cases.{case}" for case in trace.cases)
        counts["router.reaims"] += sum(e.startswith("reaim@") for e in trace.events)
        counts["router.fallbacks"] += sum(e.startswith("fallback@") for e in trace.events)
    return counts


def entry_counts(system) -> Counter:
    counts: Counter = Counter()
    counts["tables.vertices"] = system.P.n
    for table in system.tables.values():
        counts.update(f"tables.entries.{e.kind.name}" for e in table.entries.values())
    return counts


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timings(run: Run, seconds) -> dict[str, float]:
    """The timing metrics, each span measured by `seconds(start, end)`."""
    import numpy as np

    def durations(spans):
        return [seconds(start, end) for start, end in spans]

    p50, p99 = np.mean([np.percentile(durations(v), [50, 99]) for v in run.latencies.values()],
                       axis=0) * 1e3
    return {
        "setup_s": statistics.median(durations(chain.from_iterable(run.setup_s.values()))),
        "build_s": statistics.fmean(statistics.median(durations(v)) for v in run.build_s.values()),
        "route_p50_ms": float(p50),
        "route_p99_ms": float(p99),
    }


def end_to_end(run: Run, stretch, speed: HostSpeed) -> dict:
    import numpy as np

    failed = sum(run.failures.values())
    units = {"setup_s": "s", "build_s": "s", "route_p50_ms": "ms", "route_p99_ms": "ms"}
    return {
        **{name: metric(value, units[name]) for name, value in timings(run, speed.seconds).items()},
        "prt_bytes": metric(statistics.fmean(len(b) for b in run.blobs.values()), "bytes"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "edge_stretch_mean": metric(statistics.fmean(stretch), "ratio"),
        "edge_stretch_p95": metric(float(np.percentile(stretch, 95)), "ratio"),
        "success_share": metric(1.0 - failed / run.attempted, "ratio"),
    }


def per_layer(run: Run) -> dict:
    spans = run.tracer.summary()
    counts = run.tracer.counts + run.layer_counts
    out = {}
    for name in TRACED_TIMES:
        out[f"{name}.s"] = metric(spans.get(name, {}).get("s", 0.0), "s")
    for name in TRACED_CALLS:
        out[f"{name}.calls"] = metric(spans.get(name, {}).get("calls", 0), "count")
    for name in TRACED_SELF:
        out[f"{name}.self_s"] = metric(spans.get(name, {}).get("self_s", 0.0), "s")
    for name in TRACED_COUNTS:
        out[name] = metric(counts[name], "count")
    for kind in ENTRY_KINDS:
        out[f"tables.entries.{kind}"] = metric(counts[f"tables.entries.{kind}"], "count")
    entries = sum(counts[f"tables.entries.{kind}"] for kind in ENTRY_KINDS)
    out["tables.entries_per_vertex"] = metric(entries / max(counts["tables.vertices"], 1), "count")
    hops, routes = counts["router.hops"], counts["router.routes"]
    out["router.us_per_hop"] = metric(run.untraced_s / max(hops, 1) * 1e6, "us")
    out["router.hops_per_route"] = metric(hops / max(routes, 1), "count")
    for tz in ("local", "global"):
        for kind in ("vertex", "steiner"):
            out[f"router.legs.{tz}.{kind}"] = metric(counts[f"router.legs.{tz}.{kind}"], "count")
    for case in CASES:
        out[f"router.cases.{case}"] = metric(counts[f"router.cases.{case}"], "count")
    out["router.reaims"] = metric(counts["router.reaims"], "count")
    out["router.fallbacks"] = metric(counts["router.fallbacks"], "count")
    for kind in ROUTE_FAILS:
        out[f"router.fail.{kind}"] = metric(run.failures[kind], "count")
    out["bench.route_pass_s"] = metric(run.untraced_s, "s")
    out["bench.route_pass_traced_s"] = metric(run.traced_s, "s")
    out["bench.trace_overhead_share"] = metric(run.traced_s / run.untraced_s - 1.0, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = cap_threads()
    pr = import_polyroute()
    from hostspeed import HostSpeed
    from tracer import Tracer
    from workloads import WORKLOADS, make_hulls

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    hulls = make_hulls(workload, args.seed)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(pr)
    run = Run(pr, workload, hulls, tracer, args.seconds)
    speed = HostSpeed()
    if tracer is None:
        with speed:
            run.run_rounds()
    else:
        for h, hull in enumerate(hulls):
            system = run.first_visit(h, hull)
            if system is not None:
                run.traced_passes(h, system)
            del system
        tracer.uninstall()
    stretch = run.check_routes()
    run.check("some_route_succeeded", bool(stretch), "no route succeeded")

    correct = all(run.checks.values())
    raw = {}
    if not correct:
        metrics = {}
    elif tracer is None:
        metrics = end_to_end(run, stretch, speed)
        raw = timings(run, lambda start, end: end - start)
    else:
        metrics = per_layer(run)
        tracer.write(OUT_DIR / f"trace-{workload.name}-seed{args.seed}.csv.gz")

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(threads, args.seed),
        "mesh_seeds": [hull.mesh_seed for hull in hulls],
        "rounds": run.rounds,
        "builds": {h: len(v) for h, v in run.build_s.items()},
        "loads": {h: len(v) for h, v in run.setup_s.items()},
        "hulls_built": len(run.blobs),
        "latency_samples": {h: len(v) for h, v in run.latencies.items()},
        "raw_timings": raw,
        "host_speed": speed.summary() if speed.durations else {},
        "failures": dict(run.failures),
        "checks": run.checks,
        "errors": run.errors,
        **run.digests(),
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": sum(run.failures.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
