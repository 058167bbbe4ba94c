"""Network graph model: loading, validation, link capacities, repeater insertion.

Link capacity follows the photonic generation model: a photon pair survives a
fiber of length d with probability eta = 10^(-0.1*beta*d), a link-level EPR
attempt succeeds with probability p = 2*eta*alpha, and attempts repeat every
T seconds, so the rate is p/T scaled by the multiplexing factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .checks import InputError, check_id, check_int, check_real, made, number, records

# Section-IV style defaults used when a topology file omits the param lines.
DEFAULT_REPETITION_TIME_S = 1e-6
DEFAULT_ATTENUATION_DB_PER_KM = 0.2
DEFAULT_ALPHA = 0.2


class TopologyError(InputError):
    """Malformed or inconsistent topology document."""


@dataclass(frozen=True)
class NodeSpec:
    id: str
    is_repeater: bool = False
    position: tuple | None = None  # (x_km, y_km) if known


@dataclass(frozen=True)
class LinkSpec:
    endpoints: tuple  # (a, b) node ids, unordered pair
    length_km: float
    multiplex: int
    alpha: float
    base_fidelity: float  # F_l = 1 - alpha
    capacity_eprps: float

    @property
    def key(self):
        """Canonical undirected identity, usable as a dict key."""
        a, b = self.endpoints
        return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class NetworkGraph:
    nodes: tuple
    links: tuple
    repetition_time_s: float = DEFAULT_REPETITION_TIME_S
    attenuation_db_per_km: float = DEFAULT_ATTENUATION_DB_PER_KM

    @cached_property
    def node_by_id(self):
        return {n.id: n for n in self.nodes}

    @cached_property
    def link_by_key(self):
        return {l.key: l for l in self.links}

    @cached_property
    def adjacency(self):
        """node id -> list of (neighbor id, LinkSpec), neighbors sorted for determinism."""
        adj = {n.id: [] for n in self.nodes}
        for l in self.links:
            a, b = l.endpoints
            adj[a].append((b, l))
            adj[b].append((a, l))
        for nid in adj:
            adj[nid].sort(key=lambda pair: pair[0])
        return adj

    @cached_property
    def user_pair_hops(self):
        """((a, b, min hops), ...) over user node ids a < b, b reachable from
        a, ordered by a then b: one BFS per user node, once per graph."""
        users = sorted(n.id for n in self.user_nodes())
        table = []
        for i, a in enumerate(users):
            dist = min_hop_distances(self, a)
            table.extend((a, b, dist[b]) for b in users[i + 1:] if b in dist)
        return tuple(table)

    def user_nodes(self):
        """Nodes eligible as user-pair endpoints (not inserted repeaters)."""
        return [n for n in self.nodes if not n.is_repeater]


def link_capacity(length_km, alpha, beta_db_per_km, repetition_time_s, multiplex=1):
    """EPR generation rate of one link in pairs/second.

    Rate = multiplex * (2 * 10^(-0.1*beta*d) * alpha) / T. Zero length is
    allowed (eta = 1); everything else must be positive, and all finite.
    """
    check_real("alpha", alpha, 0, 1, open_low=True)
    check_real("repetition time", repetition_time_s, open_low=True)
    check_real("length_km", length_km)
    check_real("attenuation", beta_db_per_km, open_low=True)
    check_int("multiplex", multiplex)
    eta = 10.0 ** (-0.1 * beta_db_per_km * length_km)
    # multiplex scales last so an m-fold link is exactly m times the single rate
    return multiplex * ((2.0 * eta * alpha) / repetition_time_s)


def make_link(a, b, length_km, multiplex=1, alpha=DEFAULT_ALPHA, beta=DEFAULT_ATTENUATION_DB_PER_KM, T=DEFAULT_REPETITION_TIME_S):
    """Build a LinkSpec with capacity derived from the loss model."""
    return LinkSpec(
        endpoints=(a, b),
        length_km=length_km,
        multiplex=multiplex,
        alpha=alpha,
        base_fidelity=1.0 - alpha,
        capacity_eprps=link_capacity(length_km, alpha, beta, T, multiplex),
    )


def load_topology(source: str) -> NetworkGraph:
    """Parse a topology document (see module README section for the format).

    Format: header line `qvpn-topology v1`, `#` comments, then
      node <id> [x y] [repeater]
      link <a> <b> <length_km> [multiplex=<int>] [alpha=<real>]
      param T <seconds> | param beta <dB/km>
    """
    T = DEFAULT_REPETITION_TIME_S
    beta = DEFAULT_ATTENUATION_DB_PER_KM
    node_rows = []
    link_rows = []
    for lineno, parts in records(source, "qvpn-topology v1", TopologyError):
        kind = parts[0]
        if kind == "param":
            if len(parts) != 3 or parts[1] not in ("T", "beta"):
                raise TopologyError(f"line {lineno}: bad param line {' '.join(parts)!r}")
            name = f"line {lineno}: param {parts[1]}"
            value = check_real(name, number(parts[2], name, float, TopologyError),
                               open_low=True, error=TopologyError)
            if parts[1] == "T":
                T = value
            else:
                beta = value
        elif kind == "node":
            node_rows.append((lineno, parts[1:]))
        elif kind == "link":
            link_rows.append((lineno, parts[1:]))
        else:
            raise TopologyError(f"line {lineno}: unknown directive {kind!r}")

    nodes = []
    seen = set()
    for lineno, parts in node_rows:
        if not parts:
            raise TopologyError(f"line {lineno}: node line needs an id")
        nid = check_id(f"line {lineno}: node id", parts[0], TopologyError)
        rest = parts[1:]
        is_rep = False
        if rest and rest[-1] == "repeater":
            is_rep = True
            rest = rest[:-1]
        if rest and len(rest) != 2:
            raise TopologyError(f"line {lineno}: node {nid!r} expects 'x y' coordinates")
        pos = None
        if len(rest) == 2:
            pos = (number(rest[0], f"line {lineno}: x", float, TopologyError),
                   number(rest[1], f"line {lineno}: y", float, TopologyError))
        if nid in seen:
            raise TopologyError(f"line {lineno}: duplicate node id {nid!r}")
        seen.add(nid)
        nodes.append(NodeSpec(id=nid, is_repeater=is_rep, position=pos))

    links = []
    link_keys = set()
    for lineno, parts in link_rows:
        if len(parts) < 3:
            raise TopologyError(f"line {lineno}: link line needs '<a> <b> <length_km>'")
        a, b = parts[0], parts[1]
        if a == b:
            raise TopologyError(f"line {lineno}: self-loop link on node {a!r}")
        for nid in (a, b):
            if nid not in seen:
                raise TopologyError(f"line {lineno}: link references undeclared node {nid!r}")
        length = number(parts[2], f"line {lineno}: length_km", float, TopologyError)
        multiplex = 1
        alpha = DEFAULT_ALPHA
        for opt in parts[3:]:
            if opt.startswith("multiplex="):
                multiplex = number(opt.split("=", 1)[1], f"line {lineno}: multiplex", int,
                                   TopologyError)
            elif opt.startswith("alpha="):
                alpha = number(opt.split("=", 1)[1], f"line {lineno}: alpha", float,
                               TopologyError)
            else:
                raise TopologyError(f"line {lineno}: unknown link option {opt!r}")
        key = (a, b) if a <= b else (b, a)
        if key in link_keys:
            raise TopologyError(
                f"line {lineno}: duplicate link {a!r}-{b!r} (use multiplex= for parallel capacity)"
            )
        link_keys.add(key)
        links.append(made(f"line {lineno}: link {a!r}-{b!r}:", TopologyError,
                          make_link, a, b, length, multiplex, alpha, beta, T))

    return NetworkGraph(
        nodes=tuple(nodes),
        links=tuple(links),
        repetition_time_s=T,
        attenuation_db_per_km=beta,
    )


def save_topology(graph: NetworkGraph) -> str:
    """Serialize a graph back to the line format (round-trips with load_topology)."""
    out = ["qvpn-topology v1"]
    out.append(f"param T {graph.repetition_time_s!r}")
    out.append(f"param beta {graph.attenuation_db_per_km!r}")
    for n in graph.nodes:
        fields = [f"node {n.id}"]
        if n.position is not None:
            fields.append(f"{n.position[0]!r} {n.position[1]!r}")
        if n.is_repeater:
            fields.append("repeater")
        out.append(" ".join(fields))
    for l in graph.links:
        a, b = l.endpoints
        line = f"link {a} {b} {l.length_km!r}"
        if l.multiplex != 1:
            line += f" multiplex={l.multiplex}"
        line += f" alpha={l.alpha!r}"
        out.append(line)
    return "\n".join(out) + "\n"


def engineer_repeaters(graph: NetworkGraph, threshold_km: float, spacing_km: float) -> NetworkGraph:
    """Insert repeater nodes so no link exceeds the length threshold.

    Every link strictly longer than threshold_km is replaced by a chain of
    ceil(length/spacing) segments of length spacing_km with the remainder
    last; a remainder within rounding of 0 adds no segment, so each lies in
    (0, spacing_km]. Capacities are recomputed per segment. Idempotent:
    inserted node ids are deterministic functions of the original endpoints. Raises
    InputError unless 0 < spacing_km <= threshold_km, both finite.
    """
    check_real("threshold_km", threshold_km, open_low=True)
    # a spacing past the threshold would leave segments longer than it
    spacing_km = float(check_real("spacing_km", spacing_km, high=threshold_km, open_low=True,
                                  open_high=False))  # JSON may give an int
    T = graph.repetition_time_s
    beta = graph.attenuation_db_per_km
    nodes = list(graph.nodes)
    existing = {n.id for n in nodes}
    links = []
    for l in graph.links:
        if l.length_km <= threshold_km:
            links.append(l)
            continue
        a, b = l.endpoints
        n_seg = math.ceil(l.length_km / spacing_km)
        if l.length_km - spacing_km * (n_seg - 1) <= 1e-12 * l.length_km:
            n_seg -= 1
        if n_seg <= 1:
            links.append(l)
            continue
        seg_lengths = [spacing_km] * (n_seg - 1)
        seg_lengths.append(min(spacing_km, l.length_km - spacing_km * (n_seg - 1)))
        pos_a = graph.node_by_id[a].position
        pos_b = graph.node_by_id[b].position
        chain = [a]
        cum = 0.0
        for i in range(n_seg - 1):
            cum += seg_lengths[i]
            rid = f"rep:{a}:{b}:{i + 1}"
            if rid in existing:
                raise TopologyError(f"generated repeater id {rid!r} collides with an existing node")
            pos = None
            if pos_a is not None and pos_b is not None:
                t = cum / l.length_km
                pos = (pos_a[0] + t * (pos_b[0] - pos_a[0]), pos_a[1] + t * (pos_b[1] - pos_a[1]))
            nodes.append(NodeSpec(id=rid, is_repeater=True, position=pos))
            existing.add(rid)
            chain.append(rid)
        chain.append(b)
        for i in range(n_seg):
            links.append(make_link(chain[i], chain[i + 1], seg_lengths[i], l.multiplex, l.alpha, beta, T))
    return NetworkGraph(
        nodes=tuple(nodes),
        links=tuple(links),
        repetition_time_s=T,
        attenuation_db_per_km=beta,
    )


def min_hop_distances(graph: NetworkGraph, src: str) -> dict:
    """BFS hop distances from src; unreachable nodes are absent from the result."""
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for nid in frontier:
            for nbr, _ in graph.adjacency[nid]:
                if nbr not in dist:
                    dist[nbr] = dist[nid] + 1
                    nxt.append(nbr)
        frontier = nxt
    return dist

