"""Candidate-path generation: Yen's k-shortest loopless paths under three weight schemes.

Weight schemes mirror the greedy baselines: hop count, inverse link EGR, and
inverse squared link EGR. Candidate sets are the deduplicated union over
schemes; ties everywhere break lexicographically on the node-id sequence so
results are reproducible.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum

from .topology import NetworkGraph


class WeightScheme(Enum):
    HOP = "hop"
    INV_EGR = "inv_egr"
    INV_EGR_SQ = "inv_egr_sq"

    def link_weight(self, link) -> float:
        if self is WeightScheme.HOP:
            return 1.0
        c = link.capacity_eprps
        if c <= 0.0:
            return math.inf  # unusable under capacity-derived weights
        if self is WeightScheme.INV_EGR:
            return 1.0 / c
        return 1.0 / (c * c)


@dataclass(frozen=True)
class CandidatePath:
    pair_key: tuple  # (org_id, endpoint_a, endpoint_b) of the owning pair
    nodes: tuple  # node-id sequence, nodes[0], nodes[-1] = pair endpoints
    link_keys: tuple  # canonical link keys in path order
    hop_count: int
    bottleneck_capacity: float


def path_from_nodes(graph, pair_key, nodes):
    """Build a CandidatePath from an explicit node sequence (links must exist)."""
    links = []
    bottleneck = math.inf
    for a, b in zip(nodes, nodes[1:]):
        link = graph.link_by_key[(a, b) if a <= b else (b, a)]
        links.append(link.key)
        bottleneck = min(bottleneck, link.capacity_eprps)
    return CandidatePath(
        pair_key=pair_key,
        nodes=tuple(nodes),
        link_keys=tuple(links),
        hop_count=len(links),
        bottleneck_capacity=bottleneck,
    )


def _dijkstra(graph, weights, src, dst, banned_nodes, banned_edges):
    """Shortest path honoring bans; ties resolved toward the lexicographically
    smallest node sequence by keying the heap on (cost, nodes)."""
    heap = [(0.0, (src,))]
    settled = set()
    while heap:
        cost, nodes = heapq.heappop(heap)
        node = nodes[-1]
        if node == dst:
            return cost, nodes
        if node in settled:
            continue
        settled.add(node)
        for nbr, link in graph.adjacency[node]:
            if nbr in settled or nbr in banned_nodes:
                continue
            if (node, nbr) in banned_edges:
                continue
            w = weights[link.key]
            if math.isinf(w):
                continue
            heapq.heappush(heap, (cost + w, nodes + (nbr,)))
    return None


def yen_k_shortest(graph: NetworkGraph, src: str, dst: str, k: int,
                   scheme: WeightScheme, pair_key: tuple | None = None):
    """Up to k loopless shortest paths in nondecreasing total weight.

    Returns an empty list when src and dst are disconnected. pair_key tags
    the produced CandidatePaths (defaults to an anonymous pair).
    """
    if src == dst:
        raise ValueError("src and dst must differ")
    if k < 1:
        raise ValueError("k must be >= 1")
    for nid in (src, dst):
        if nid not in graph.node_by_id:
            raise ValueError(f"unknown node {nid!r}")
    if pair_key is None:
        pair_key = ("-", src, dst)
    weights = {l.key: scheme.link_weight(l) for l in graph.links}

    first = _dijkstra(graph, weights, src, dst, frozenset(), frozenset())
    if first is None:
        return []
    accepted = [first]  # list of (cost, nodes)
    candidates = []  # heap of (cost, nodes)
    seen = {first[1]}

    while len(accepted) < k:
        prev_nodes = accepted[-1][1]
        for i in range(len(prev_nodes) - 1):
            spur = prev_nodes[i]
            root = prev_nodes[: i + 1]
            root_cost = sum(
                weights[(a, b) if a <= b else (b, a)] for a, b in zip(root, root[1:])
            )
            banned_edges = set()
            for cost, nodes in accepted:
                if nodes[: i + 1] == root and len(nodes) > i + 1:
                    banned_edges.add((spur, nodes[i + 1]))
                    banned_edges.add((nodes[i + 1], spur))
            banned_nodes = frozenset(root[:-1])
            spur_path = _dijkstra(graph, weights, spur, dst, banned_nodes, banned_edges)
            if spur_path is None:
                continue
            total = root[:-1] + spur_path[1]
            if total not in seen:
                seen.add(total)
                heapq.heappush(candidates, (root_cost + spur_path[0], total))
        if not candidates:
            break
        accepted.append(heapq.heappop(candidates))

    return [path_from_nodes(graph, pair_key, nodes) for _, nodes in accepted]


DEFAULT_SCHEMES = (WeightScheme.HOP, WeightScheme.INV_EGR, WeightScheme.INV_EGR_SQ)


def build_candidate_set(graph: NetworkGraph, user_pair, k: int = 5,
                        schemes=DEFAULT_SCHEMES):
    """Deduplicated union of per-scheme k-shortest paths for one user pair.

    Order is stable: scheme order, then rank within scheme; duplicates keep
    their first occurrence. At most len(schemes)*k entries.
    """
    pair_key = user_pair.key
    out = []
    seen = set()
    for scheme in schemes:
        for path in yen_k_shortest(graph, user_pair.endpoints[0], user_pair.endpoints[1],
                                   k, scheme, pair_key):
            if path.link_keys not in seen:
                seen.add(path.link_keys)
                out.append(path)
    return out


def build_candidate_sets(graph, workload, k=5, schemes=DEFAULT_SCHEMES):
    """Candidate sets for every pair in the workload; pairs may map to []."""
    return {pair.key: build_candidate_set(graph, pair, k, schemes) for pair in workload.user_pairs}


def baseline_selection(graph, workload, candidates, scheme: WeightScheme,
                       p_max: int = 3, strategy_index: int = 0, catalog=None):
    """Greedy baseline: per pair, the top p_max paths of one weight scheme,
    all using one fixed distillation strategy.

    candidates must have been built with the scheme included and k >= p_max,
    so every baseline path is locatable in the pair's candidate list.
    Returns {pair_key: [(CandidatePath, DistillationStrategy), ...]}.
    """
    selection = {}
    for pair in workload.user_pairs:
        cands = candidates.get(pair.key, [])
        if not cands:
            continue
        by_links = {p.link_keys: p for p in cands}
        picks = []
        for path in yen_k_shortest(graph, pair.endpoints[0], pair.endpoints[1],
                                   p_max, scheme, pair.key):
            hit = by_links.get(path.link_keys)
            if hit is None:
                raise ValueError(
                    f"baseline path for pair {pair.key} missing from its candidate set; "
                    "build candidates with this scheme and k >= p_max"
                )
            picks.append(hit)
        if catalog is None:
            raise ValueError("baseline_selection needs the strategy catalog")
        strategy = catalog[strategy_index]
        selection[pair.key] = [(p, strategy) for p in picks]
    return selection


def nearest_strategy_index(catalog, threshold: float) -> int:
    """Index of the catalog entry closest to the requested threshold."""
    return min(range(len(catalog)), key=lambda i: (abs(catalog[i].link_threshold - threshold), i))
