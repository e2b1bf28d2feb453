"""The benchmark's tracer (`perfbench/tracer.py`) wraps polyroute functions
by name; a renamed or deleted one must fail here, not only in a traced
benchmark run."""
import sys
from pathlib import Path

import polyroute

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


def test_tracer_hooks_resolve_and_trace(tetra):
    sys.path.insert(0, PERFBENCH)
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(PERFBENCH)
    route_before = polyroute.route
    tracer = Tracer()
    tracer.install(polyroute)
    try:
        tracer.on = True
        mesh = polyroute.load_off(polyroute.save_off(tetra))
        system = polyroute.preprocess_mesh(mesh, 0.5)
        loaded = polyroute.deserialize(polyroute.serialize(system))
        trace = polyroute.route(0, 3, loaded)
        # the tables are built on first read only, for reports
        assert loaded.tables
    finally:
        tracer.on = False
        tracer.uninstall()
    assert polyroute.route is route_before
    assert trace.vertices[0] == 0 and trace.vertices[-1] == 3
    names = {span[0] for span in tracer.spans}
    assert {
        "polytope.load_off", "polytope.from_arrays", "polytope.compute_theta_m",
        "patching.compute_patches", "patching.build_sketch",
        "sampling.select_representatives", "spanner.build_spanner",
        "compact_routing.tz_preprocess", "compact_routing.prune_intra_face",
        "compact_routing.materialize_plane_entries", "tables.preprocess_mesh",
        "tables.build_tables", "tables.serialize", "tables.deserialize",
        "router.route", "router.make_packet", "router.step",
    } <= names
