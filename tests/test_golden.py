"""Golden digests of sphere50 (`gen sphere --n 50 --seed 0`, eps 0.3): its
`.prt` bytes and the traces of 300 seeded routes.

Routes and `.prt` bytes are meant to stay bit-identical across refactors.
Only a declared re-baseline (a versioned `.prt` bump or a deliberate change
of the arithmetic, recorded with its reasons and new digests in CHANGES.md)
may update the two constants below.
"""
import hashlib

import numpy as np

from polyroute.router import RoutingError, route
from polyroute.tables import serialize

from conftest import random_pairs

PRT_SHA256 = "435addf28cf80862d1b9b3561e8e9a22347c24e866ac98d60bc283a8765fea45"
ROUTES_SHA256 = "5b8735e7c056069093463ab18752ccccf93a1c7e056ba1ae5cfea4278d734ea4"


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


def test_sphere50_route_digest(sphere50_system):
    digest = hashlib.sha256()
    for s, t in random_pairs(sphere50_system.P.n, 300, seed=0):
        digest.update((_route_record(sphere50_system, s, t) + "\n").encode())
    assert digest.hexdigest() == ROUTES_SHA256
