"""Greedy local routing over the precomputed assignment and spanner scheme.

A route is a chain of legs. Each leg steers toward a pseudo-destination (a
representative, a cell member, or the marked edge of a Steiner relay) along
the curve cut into the surface by the leg's guiding plane; every hop moves
across exactly one mesh edge. The tracer follows the curve by sign tests of
plane distances, with endpoint snapping so vertex hits are deterministic,
and carries the last crossing in the packet so the exit face never has to
be re-derived from scratch. If the trace degenerates (grazing planes), the
leg is re-aimed through the current vertex once per incident and, failing
that, finished by distance-greedy hops; both paths are recorded as
degenerate events and never silently truncate a route.

A local leg (to v's representative, from a representative to its cell
member, or to the destination's representative in v's patch) is read off
the representative assignment; a global one takes the compact-routing next
hop of v's spanner node. No per-vertex table is read: `RoutingSystem.tables`
only lists, for reports, the entries these decisions stand for.

The header holds O(1) words of forwarding state; the router knows the
destination by its label alone, and the trace lives in `RouteTrace` alone.
The per-hop arithmetic runs on Python floats, never on numpy arrays. Only
the tracing loop of `step` builds a leg plane, on the hop that first reads
it (at the leg's source, or where a re-aim happens), so a leg that ends
with a hop to an adjacent arrival vertex or the destination builds none.
The plane is a unit normal and offset from the mesh's float rows and the
leg's sketch-face normal (a float row, converted once per leg) with the
bits of `Plane.through_points_orthogonal_to`; it is evaluated only at the
vertices the tracer reads, and each of those distances once: crossings and
look-aheads take the values their callers hold, and an edge front carries
the distances of its edge's two ends across steps. Plane distances,
crossing snaps and branch scores are the `geometry` kernel's terms in the
kernel's order, written out in `_sig_of`, `_cross_point` and `_start_trace`,
so a traced hop makes no kernel call and has the kernel's bits. Edge
lengths, for crossing snaps, ties and the trace, and the faces across an
edge are read from the mesh's tables.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .geometry import GeometryError, Plane, cross, dot, norm, sub
from .compact_routing import NodeLabel, tz_next_hop
from .tables import RoutingSystem

__all__ = [
    "RoutingError",
    "UnknownVertex",
    "TrivialRoute",
    "HopLimitExceeded",
    "NoExitFace",
    "Target",
    "PacketHeader",
    "RouteTrace",
    "make_packet",
    "step",
    "route",
]

HOP_LIMIT_PER_VERTEX = 4  # a route fails after max(4, 4 * n) hops


class RoutingError(RuntimeError):
    pass


class UnknownVertex(RoutingError):
    pass


class TrivialRoute(RoutingError):
    pass


class HopLimitExceeded(RoutingError):
    pass


class NoExitFace(RoutingError):
    pass


@dataclass
class Target:
    kind: str  # 'vertex' | 'steiner'
    point: list[float]  # aim point: vertex position or lifted Steiner point
    arrival: tuple[int, ...]  # vertices that complete the leg
    vertex: int = -1  # vertex-kind target
    node: int = -1  # spanner node the leg heads for (Steiner targets only)


@dataclass
class _EdgeFront:
    other: int  # crossing edge is (current, other)
    face: int  # face the curve continues into
    s_current: float  # plane distances of current and other, carried from
    s_other: float  # the look-ahead that set the front


@dataclass
class _VertexFront:
    vertex: int  # the curve passes through this vertex
    via_face: int  # face carrying the back branch (-1 at a leg start)
    back_vertex: int


@dataclass
class PacketHeader:
    dest_vertex: int
    dest_label: NodeLabel
    pseudo: Target | None = None
    # ((n0, n1, n2), offset) of the leg plane; None until the tracer first reads it
    plane: tuple | None = None
    # tracer state; carried with the packet so forwarding stays one-pass
    front: object | None = None
    gamma_normal: list | None = None  # float row of the leg's sketch-face normal
    # hop at which the leg fell back to greedy hops; -1 while it is traced
    fallback_from: int = -1
    reaim_count: int = 0
    switch_budget: int = 0


@dataclass
class RouteTrace:
    """A route's record, started as `RouteTrace(s, t, [s])`: `make_packet`
    and `step` append the legs and events, and `step` each hop."""
    source: int
    dest: int
    vertices: list[int]
    cases: list[str] = field(default_factory=list)
    lengths: list[float] = field(default_factory=list)
    events: list[str] = field(default_factory=list)
    legs: list[dict] = field(default_factory=list)

    @property
    def total_length(self) -> float:
        return float(sum(self.lengths))

    @property
    def hops(self) -> int:
        return len(self.lengths)

    def to_csv(self) -> str:
        lines = ["hop_index vertex_id case edge_length"]
        for i, (v, c, ln) in enumerate(zip(self.vertices[1:], self.cases, self.lengths)):
            lines.append(f"{i} {v} {c} {ln:.9g}")
        lines.append(
            f"summary {self.source} {self.dest} {self.hops} {self.total_length:.9g}"
        )
        return "\n".join(lines) + "\n"


def make_packet(s: int, t: int, system: RoutingSystem, trace: RouteTrace) -> PacketHeader:
    """The header of a packet from s to t, its first leg set and recorded."""
    P = system.P
    if not (0 <= s < P.n) or not (0 <= t < P.n):
        raise UnknownVertex(f"vertex out of range: s={s}, t={t}")
    if s == t:
        raise TrivialRoute("source equals destination")
    header = PacketHeader(dest_vertex=t, dest_label=system.label_of_vertex(t))
    header.switch_budget = 8 * (system.graph.num_nodes + 4)
    _pseudo_switch(s, header, trace, system)
    return header


def _vertex_target(P, vertex: int) -> Target:
    return Target(kind="vertex", point=P.vertex_rows[vertex], arrival=(vertex,),
                  vertex=vertex)


def _node_target(system: RoutingSystem, node_id: int) -> Target:
    node = system.graph.nodes[node_id]
    if node.kind == "rep":
        return _vertex_target(system.P, node.vertex)
    point, arrival = system.node_aims[node_id]
    return Target(kind="steiner", point=point, arrival=arrival, node=node_id)


def _set_leg(v: int, header: PacketHeader, trace: RouteTrace, target: Target,
             gamma_normal: np.ndarray, tz: str) -> None:
    """Start a leg from v, read off the assignment (`tz` 'local') or the scheme
    ('global'), and record it; `step` builds its plane when it first traces it."""
    header.pseudo = target
    header.gamma_normal = gamma_normal.tolist()
    header.plane = None
    header.fallback_from = -1
    trace.legs.append({
        "start_hop": trace.hops,
        "source": v,
        "target_point": target.point,
        "target_vertex": target.vertex,
        "kind": target.kind,
        "tz": tz,
    })


def _leg_plane(a, b, n) -> tuple[tuple[float, float, float], float]:
    """Unit normal and offset of `Plane.through_points_orthogonal_to(a, b, n)`
    from float rows: the same kernel terms in the same order (cross, norm,
    one division per component, then the offset's dot), so the same bits and
    the same near-parallel GeometryError. A leg along n is rare and builds
    that Plane."""
    d1 = sub(b, a)
    c = cross(d1, n)
    length = norm(c)
    d1_norm = norm(d1)
    if length <= geometry.snap(d1_norm):
        return _plane_words(Plane.through_points_orthogonal_to(a, b, n))
    scale = max(d1_norm, norm(n), 1.0)
    if length <= geometry.snap(scale * scale):
        raise GeometryError("plane direction vectors are near-parallel")
    normal = (c[0] / length, c[1] / length, c[2] / length)
    return normal, dot(normal, a)


def _plane_words(plane: Plane) -> tuple[tuple[float, float, float], float]:
    return tuple(plane.normal.tolist()), plane.offset()


def _pseudo_switch(v: int, header: PacketHeader, trace: RouteTrace,
                   system: RoutingSystem) -> None:
    """Decide at v from the assignment or the scheme and install the next
    leg (possibly several times in a row when legs collapse to the current
    vertex). Of the destination, only its label is read."""
    a = system.assignment
    while True:
        header.switch_budget -= 1
        if header.switch_budget < 0:
            raise HopLimitExceeded("pseudo-destination switching did not settle")
        if v == header.dest_vertex:
            return
        label = header.dest_label
        prev_target = header.pseudo

        if (prev_target is not None and prev_target.kind == "steiner"
                and v in prev_target.arrival):
            # marked-vertex relay: continue the spanner walk on behalf of the
            # Steiner node whose edge this vertex bounds
            s_node = prev_target.node
            nxt = _consult_node(s_node, v, label, header, trace, system)
        else:
            # a local leg in v's own patch: to v's representative, from a
            # representative to t in its cell (the label's), or to t's rep
            owner = int(system.decomp.owner_of_vertex[v])
            dest = -1
            if a.rep_of[v] != v:
                dest = a.rep_of[v]
            elif a.cell_of[v] == (label.patch, label.cell):
                dest = header.dest_vertex
            elif label.patch == owner:
                dest = system.graph.nodes[label.node].vertex
            if dest < 0:
                nxt = _consult_node(system.graph.node_of_vertex[v], v, label, header,
                                    trace, system)
            else:
                _set_leg(v, header, trace, _vertex_target(system.P, dest),
                         system.decomp.normal[owner], "local")
                nxt = None
        if nxt is not None:
            continue
        # a leg that already terminates here collapses into another switch
        if header.pseudo is not None and v in header.pseudo.arrival:
            if header.pseudo.kind == "vertex" and header.pseudo.vertex == v:
                # reached a representative along the chain; consult it afresh
                header.pseudo = None
            continue
        return


def _consult_node(node_id: int, v: int, label: NodeLabel, header: PacketHeader,
                  trace: RouteTrace, system: RoutingSystem):
    """Spanner-level decision at the node owned by (or relayed through) v.

    Same-face targets get a direct leg (their scheme entries are pruned);
    anything else takes the compact-routing next hop, in the sketch face
    of its spanner edge (every scheme next hop is one, and a loaded file
    whose balls name another hop is refused).
    Returns v to signal an immediate re-switch, None when a leg was set.
    """
    target_node = label.node
    if label.patch in system.graph.nodes[node_id].patches:
        _set_leg(v, header, trace, _node_target(system, target_node),
                 system.decomp.normal[label.patch], "local")
        return None
    w = tz_next_hop(system.scheme, node_id, target_node, label.home)
    face = system.hop_faces[min(node_id, w) * len(system.graph.nodes) + max(node_id, w)]
    tgt = _node_target(system, w)
    P = system.P
    if v in tgt.arrival and norm(sub(tgt.point, P.vertex_rows[v])) <= P.snap:
        # zero-length hop in the spanner walk; adopt the node and re-consult
        header.pseudo = tgt
        return v
    _set_leg(v, header, trace, tgt, system.decomp.normal[face], "global")
    return None


# ---------------------------------------------------------------------------
# the per-hop tracer


def _sig_of(P, header: PacketHeader, v: int) -> float:
    """Signed distance of vertex v to the leg plane: `dot`'s terms in `dot`'s
    order, less the offset, so `Plane.signed_distance`'s bits."""
    x, y, z = P.vertex_rows[v]
    (n0, n1, n2), offset = header.plane
    return x * n0 + y * n1 + z * n2 - offset


def _cross_point(P, u: int, v: int, su: float,
                 sv: float) -> tuple[tuple[float, float, float], int]:
    """Crossing of the guiding plane with edge (u, v), whose endpoints lie at
    plane distances su and sv; returns the point and the endpoint index (u
    or v) if the crossing snaps to one, else -1. The snap tests are
    `norm(sub(q, a)) <= geometry.snap(edge length)` written out."""
    ax, ay, az = P.vertex_rows[u]
    bx, by, bz = P.vertex_rows[v]
    t = su / (su - sv)
    qx, qy, qz = ax + t * (bx - ax), ay + t * (by - ay), az + t * (bz - az)
    snap = geometry.snap(P.edge_lengths[(u, v) if u < v else (v, u)])
    dx, dy, dz = qx - ax, qy - ay, qz - az
    if math.sqrt(dx * dx + dy * dy + dz * dz) <= snap:
        return (qx, qy, qz), u
    dx, dy, dz = qx - bx, qy - by, qz - bz
    if math.sqrt(dx * dx + dy * dy + dz * dz) <= snap:
        return (qx, qy, qz), v
    return (qx, qy, qz), -1


def _third_vertex(P, face: int, u: int, v: int) -> int:
    for x in P.face_rows[face]:
        if x != u and x != v:
            return x
    raise NoExitFace(f"face {face} lacks a third vertex distinct from {u},{v}")


def _tie_order(P, face: int, w: int) -> tuple[int, int]:
    """(p2, p3) = successor and predecessor of w in the face's stored cyclic
    order; the distance tie in the look-ahead falls to p3."""
    f = P.face_rows[face]
    k = f.index(w)
    return f[(k + 1) % 3], f[(k + 2) % 3]


def _look_ahead(P, header, w: int, exit_face: int, a1: int, a2: int,
                s1: float, s2: float, snap: float):
    """The curve leaves w's fan through edge (a1, a2) of exit_face, whose
    endpoints lie at plane distances s1 and s2. Decide between the edge
    endpoints by where the curve continues in the face beyond; a hit on
    that face's far vertex falls to the distance tie rule."""
    f1, f2 = P.edge_adjacency[(a1, a2) if a1 < a2 else (a2, a1)]
    f3 = f2 if f1 == exit_face else f1
    c = _third_vertex(P, f3, a1, a2)

    def tie():
        p2, p3 = _tie_order(P, exit_face, w)
        d2 = P.edge_length(w, p2) + P.edge_length(p2, c)
        d3 = P.edge_length(w, p3) + P.edge_length(p3, c)
        move = p2 if d2 < d3 else p3
        return move, "TieBreak", _VertexFront(c, f3, move)

    sc = _sig_of(P, header, c)
    if abs(sc) <= snap:
        return tie()
    near, sn = (a1, s1) if sc * s1 < 0 else (a2, s2)
    _q, hit = _cross_point(P, near, c, sn, sc)
    if hit == near:
        return near, "VertexHit", _VertexFront(near, exit_face, w)
    if hit == c:
        return tie()
    f1, f2 = P.edge_adjacency[(near, c) if near < c else (c, near)]
    return near, "General", _EdgeFront(c, f2 if f1 == f3 else f1, sn, sc)


def _trace_edge_front(P, header, current: int, snap: float):
    """Continue the curve through the fan of `current` from the carried
    crossing until it exits through an opposite edge, hits a vertex, or the
    fan is exhausted (None -> re-aim)."""
    front: _EdgeFront = header.front
    u, face, sw, su = front.other, front.face, front.s_current, front.s_other
    for _ in range(len(P.vertex_fan[current]) + 4):
        fa = P.face_rows[face]
        if current not in fa or u not in fa:
            return None
        z = _third_vertex(P, face, current, u)
        sz = _sig_of(P, header, z)
        if abs(sz) <= snap:
            return z, "VertexHit", _VertexFront(z, face, current)
        if sz * su < 0.0:
            # exits through the edge opposite to current
            _q, hit = _cross_point(P, u, z, su, sz)
            if hit == u:
                return u, "VertexHit", _VertexFront(u, face, current)
            if hit == z:
                return z, "VertexHit", _VertexFront(z, face, current)
            return _look_ahead(P, header, current, face, u, z, su, sz, snap)
        if sz * sw < 0.0:
            # crosses the radial edge (current, z); march around the fan
            _q, hit = _cross_point(P, current, z, sw, sz)
            if hit == z:
                return z, "VertexHit", _VertexFront(z, face, current)
            if hit == current:
                return None
            f1, f2 = P.edge_adjacency[(current, z) if current < z else (z, current)]
            face = f2 if f1 == face else f1
            u, su = z, sz
            continue
        return None
    return None


def _branch_candidates(P, header, at: int, exclude_face: int, exclude_vertex: int,
                       snap: float):
    """Continuations of the curve out of a vertex it passes through: either a
    crossing inside an incident face or a run along an incident edge. Each
    candidate leads with the point its initial direction from `at` heads
    for."""
    cands = []
    seen_runs = set()
    pos = P.vertex_rows
    sig = {w: _sig_of(P, header, w) for w in P.neighbors[at]}
    for f in P.vertex_fan[at]:
        x, y, z = P.face_rows[f]
        b, c = (y, z) if x == at else (x, z) if y == at else (x, y)
        sb, sc = sig[b], sig[c]
        for vtx, sv in ((b, sb), (c, sc)):
            if abs(sv) <= snap and vtx != exclude_vertex and vtx not in seen_runs:
                seen_runs.add(vtx)
                cands.append((pos[vtx], vtx, "run", f))
        if f == exclude_face:
            continue
        if abs(sb) > snap and abs(sc) > snap and sb * sc < 0.0:
            q, hit = _cross_point(P, b, c, sb, sc)
            if hit >= 0:
                if hit != exclude_vertex and hit not in seen_runs:
                    seen_runs.add(hit)
                    cands.append((pos[hit], hit, "run", f))
                continue
            cands.append((q, -1, "cross", f, b, c, sb, sc))
    return cands


def _start_trace(P, header, current: int, snap: float):
    """Leg start or vertex passage: choose the branch whose initial direction
    best aligns with the pseudo-destination and take the first move. The
    score is `dot(d, goal) / norm(d)` (-2 for d = 0) with the unit goal
    direction, written out."""
    front = header.front  # None, or the _VertexFront of the passage
    exclude_face = -1 if front is None else front.via_face
    exclude_vertex = -1 if front is None else front.back_vertex
    cands = _branch_candidates(P, header, current, exclude_face, exclude_vertex, snap)
    if not cands:
        return None
    ox, oy, oz = P.vertex_rows[current]
    px, py, pz = header.pseudo.point
    gx, gy, gz = px - ox, py - oy, pz - oz
    gn = math.sqrt(gx * gx + gy * gy + gz * gz)
    if gn > 0:
        gx, gy, gz = gx / gn, gy / gn, gz / gn

    def score(cand):
        x, y, z = cand[0]
        dx, dy, dz = x - ox, y - oy, z - oz
        nn = math.sqrt(dx * dx + dy * dy + dz * dz)
        return (dx * gx + dy * gy + dz * gz) / nn if nn > 0 else -2.0

    best = max(cands, key=score)
    if best[2] == "run":
        vtx, f = best[1], best[3]
        return vtx, "VertexHit", _VertexFront(vtx, f, current)
    _q, _v, _k, f, b, c, sb, sc = best
    return _look_ahead(P, header, current, f, b, c, sb, sc, snap)


def _greedy_step(P, header, trace: RouteTrace, current: int):
    """Distance-greedy fallback toward the pseudo-destination; refuses to
    revisit a vertex of the leg's greedy part (the trace's vertices from the
    hop it fell back at), so a stuck leg fails loudly instead of cycling."""
    goal = header.pseudo.point
    ranked = sorted(
        P.neighbors[current],
        key=lambda w: (norm(sub(P.vertex_rows[w], goal)), w),
    )
    tried = trace.vertices[header.fallback_from:]
    for w in ranked:
        if w not in tried:
            return w
    raise NoExitFace(f"greedy fallback exhausted the neighbourhood of {current}")


def step(current: int, header: PacketHeader, trace: RouteTrace,
         system: RoutingSystem) -> tuple[int, str]:
    """One forwarding decision at `current`, the trace's last vertex.
    Appends the hop to `trace` (and any leg or event it sets) and returns
    the next vertex (always a mesh neighbour of `current`) and its case."""
    P = system.P
    # a switch never ends at a vertex (other than the destination) that
    # completes the new leg, so one switch settles the pseudo-destination
    switched = header.pseudo is None or (
        current != header.dest_vertex and current in header.pseudo.arrival
    )
    if switched:
        _pseudo_switch(current, header, trace, system)
    if current == header.dest_vertex:
        raise RoutingError("step called at the destination")
    neighbors = P.neighbors[current]

    def finish(nxt: int, case: str) -> tuple[int, str]:
        # table consultations and the very first hop relabel plain forwards;
        # vertex hits and distance ties keep their own case
        if case == "General":
            if switched:
                case = "PseudoSwitch"
            elif trace.hops == 0:
                case = "FirstHop"
        if nxt not in neighbors:
            raise RoutingError(f"non-local forward {current}->{nxt}")
        trace.vertices.append(nxt)
        trace.cases.append(case)
        trace.lengths.append(P.edge_lengths[(current, nxt) if current < nxt else (nxt, current)])
        return nxt, case

    if header.dest_vertex in neighbors:
        return finish(header.dest_vertex, "General")
    target = header.pseudo
    arrival_adjacent = [w for w in target.arrival if w in neighbors]
    if arrival_adjacent:
        if len(arrival_adjacent) == 1:
            return finish(arrival_adjacent[0], "General")
        best = min(
            arrival_adjacent,
            key=lambda w: (norm(sub(P.vertex_rows[w], target.point)), w),
        )
        return finish(best, "General")

    snap = P.snap
    while header.fallback_from < 0:
        if header.plane is None:
            # a leg's first trace, or a re-aim, builds the plane from here; a
            # degenerate leg (the aim point collapses onto current) is greedied
            row, aim = P.vertex_rows[current], target.point
            if norm(sub(aim, row)) <= snap:
                header.fallback_from = trace.hops
                break
            header.plane = _leg_plane(row, aim, header.gamma_normal)
            header.front = None
        front = header.front
        if isinstance(front, _EdgeFront):
            result = _trace_edge_front(P, header, current, snap)
        elif front is None or front.vertex == current:
            result = _start_trace(P, header, current, snap)
        else:
            result = (front.vertex, "VertexHit", front)
        if result is not None:
            nxt, case, front = result
            header.front = front
            return finish(nxt, case)
        if header.reaim_count < 8:
            header.reaim_count += 1
            trace.events.append(f"reaim@{current}")
            header.plane = None
            continue
        header.fallback_from = trace.hops
        trace.events.append(f"fallback@{current}")
    return finish(_greedy_step(P, header, trace, current), "General")


def route(s: int, t: int, system: RoutingSystem) -> RouteTrace:
    """Simulate local forwarding from s to t; every consecutive pair in the
    returned trace is an edge of the polytope."""
    trace = RouteTrace(s, t, [s])
    header = make_packet(s, t, system, trace)
    limit = max(4, HOP_LIMIT_PER_VERTEX * system.P.n)
    current = s
    while current != t:
        if trace.hops >= limit:
            raise HopLimitExceeded(
                f"route {s}->{t} exceeded {limit} hops at vertex {current}"
            )
        current, _case = step(current, header, trace, system)
    return trace
