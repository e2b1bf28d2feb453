"""Golden digests of sphere50 (`gen sphere --n 50 --seed 0`, eps 0.3): its
`.prt` bytes and the traces of 300 seeded routes; and of the traces of 200
seeded routes on hull600 (`gen sphere --n 600 --seed 1`, eps 0.8), whose
legs are longer, so they cover longer fan walks and look-aheads; and of
sphere50's 300 routes with a tracer that always gives up, so that every leg
goes through the re-aims and the greedy fallback, which no other pin reaches.

Routes and `.prt` bytes are meant to stay bit-identical across refactors.
Only a declared re-baseline (a versioned `.prt` bump or a deliberate change
of the arithmetic, recorded with its reasons and new digests in CHANGES.md)
may update the constants below.
"""
import hashlib

import numpy as np

from polyroute import router, tables
from polyroute.cli import generate_mesh
from polyroute.router import RoutingError, route
from polyroute.tables import deserialize, preprocess_mesh, serialize

from conftest import random_pairs

PRT_SHA256 = "4e06e3db83178e6f09e3799bc9d7f69ce9e8fba2531556cb8be86ced564062c5"
ROUTES_SHA256 = "5b8735e7c056069093463ab18752ccccf93a1c7e056ba1ae5cfea4278d734ea4"
HULL600_ROUTES_SHA256 = "e817a428242fe1c500d6e9446d5fa2e745216d2cb03118133512b88cfbc6a6cc"
FALLBACK_ROUTES_SHA256 = "101a127245f9b17d92c102f070a3e5cd18523064db3106cc990d90b79660e806"


def _route_record(system, s, t) -> str:
    try:
        trace = route(s, t, system)
    except RoutingError as exc:
        return f"{s} {t} !{type(exc).__name__}"
    legs = [
        (leg["start_hop"], leg["kind"], leg["tz"], np.asarray(leg["target_point"]).tobytes().hex())
        for leg in trace.legs
    ]
    return (f"{s} {t} {[int(v) for v in trace.vertices]} {trace.cases} "
            f"{[float(x).hex() for x in trace.lengths]} {legs} {trace.events}")


def test_sphere50_prt_digest(sphere50_system):
    assert hashlib.sha256(serialize(sphere50_system)).hexdigest() == PRT_SHA256


def _routes_digest(system, count: int) -> str:
    digest = hashlib.sha256()
    for s, t in random_pairs(system.P.n, count, seed=0):
        digest.update((_route_record(system, s, t) + "\n").encode())
    return digest.hexdigest()


def test_sphere50_route_digest(sphere50_system):
    assert _routes_digest(sphere50_system, 300) == ROUTES_SHA256


def test_sphere50_fallback_route_digest(sphere50_system, monkeypatch):
    monkeypatch.setattr(router, "_start_trace", lambda *args: None)
    monkeypatch.setattr(router, "_trace_edge_front", lambda *args: None)
    assert _routes_digest(sphere50_system, 300) == FALLBACK_ROUTES_SHA256


def test_loaded_system_routes_without_tables(sphere50_system, monkeypatch):
    # forwarding reads the assignment and the scheme, never a per-vertex
    # table; the tables are built on first read, for reports only
    blob = serialize(sphere50_system)

    def refuse(*args):
        raise AssertionError("build_tables called on the load or route path")

    monkeypatch.setattr(tables, "build_tables", refuse)
    loaded = deserialize(blob)
    assert _routes_digest(loaded, 300) == ROUTES_SHA256
    monkeypatch.undo()
    assert loaded.tables == sphere50_system.tables
    assert loaded.total_entries() == 19984


def test_hull600_route_digest():
    system = preprocess_mesh(generate_mesh("sphere", 600, 1), 0.8)
    assert _routes_digest(system, 200) == HULL600_ROUTES_SHA256
