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
from typing import NamedTuple

from .checks import check_int
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
    """A loopless path of the graph. It names no pair: every pair on its
    endpoints may use it, and a selection's key says which one does."""
    nodes: tuple  # node-id sequence from one endpoint to the other
    link_keys: tuple  # canonical link keys in path order
    hop_count: int
    bottleneck_capacity: float


def path_from_nodes(graph, nodes):
    """Build a CandidatePath from an explicit node sequence (links must exist)."""
    links = []
    bottleneck = math.inf
    for a, b in zip(nodes, nodes[1:]):
        key = (a, b) if a <= b else (b, a)
        bottleneck = min(bottleneck, graph.link_by_key[key].capacity_eprps)
        links.append(key)
    return CandidatePath(
        nodes=tuple(nodes),
        link_keys=tuple(links),
        hop_count=len(links),
        bottleneck_capacity=bottleneck,
    )


class SchemeTable(NamedTuple):
    """One graph's link weights under one scheme, in the form Yen reads them.

    weights: canonical link key -> weight. adjacency: node id -> list of
    (neighbor id, weight) in the graph's sorted neighbor order, without the
    links whose weight is infinite (unusable under the scheme).
    """
    weights: dict
    adjacency: dict

    @classmethod
    def build(cls, graph: NetworkGraph, scheme: WeightScheme):
        weights = {l.key: scheme.link_weight(l) for l in graph.links}
        adjacency = {}
        for node, neighbors in graph.adjacency.items():
            row = []
            for nbr, link in neighbors:
                w = weights[link.key]
                if not math.isinf(w):
                    row.append((nbr, w))
            adjacency[node] = row
        return cls(weights, adjacency)


def _dijkstra(adjacency, src, dst, banned_nodes, banned_first_hops):
    """Shortest src-dst path (src != dst) that avoids banned_nodes and leaves
    src by none of banned_first_hops; ties resolved toward the lexicographically
    smallest node sequence by keying the heap on (cost, nodes)."""
    settled = set(banned_nodes)
    settled.add(src)
    heap = [(w, (src, nbr)) for nbr, w in adjacency[src]
            if nbr not in settled and nbr not in banned_first_hops]
    heapq.heapify(heap)
    while heap:
        cost, nodes = heapq.heappop(heap)
        node = nodes[-1]
        if node == dst:
            return cost, nodes
        if node in settled:
            continue
        settled.add(node)
        for nbr, w in adjacency[node]:
            if nbr not in settled:
                heapq.heappush(heap, (cost + w, nodes + (nbr,)))
    return None


def yen_k_shortest(graph: NetworkGraph, src: str, dst: str, k: int,
                   scheme: WeightScheme, *, table=None, built: dict | None = None):
    """Up to k loopless shortest paths in nondecreasing total weight.

    Returns an empty list when src and dst are disconnected, and raises
    InputError unless k is an integer >= 1. table: the
    graph's SchemeTable for scheme, when the caller keeps one; built here
    otherwise. built: a dict from node tuple to CandidatePath that the
    caller keeps across searches; a ranked path found there is returned as
    it is, and each path built here is added to it.

    The first j paths do not depend on k: the search accepts paths in rank
    order and k only says when to stop. PathFinder's memo relies on this.

    Lawler's spur skip (Lawler 1972): each candidate keeps the spur index at
    which it left its parent, and the spur loop over the last accepted path
    starts at that index. An earlier spur would rerun a search with the same
    root and banned hops, so the skip changes no ranked path; it only saves
    Dijkstra runs. Root costs are a running sum in the order of sum(), so
    path costs, and with them every tie, keep their bits.
    """
    if src == dst:
        raise ValueError("src and dst must differ")
    check_int("k", k)
    for nid in (src, dst):
        if nid not in graph.node_by_id:
            raise ValueError(f"unknown node {nid!r}")
    if table is None:
        table = SchemeTable.build(graph, scheme)
    weights, adjacency = table

    first = _dijkstra(adjacency, src, dst, frozenset(), frozenset())
    if first is None:
        return []
    accepted = [first[1]]  # node tuples in rank order
    seen = {first[1]}
    # heap of (cost, nodes, spur index); no nodes tuple is pushed twice, so
    # ties break on (cost, nodes) alone
    candidates = []
    deviation = 0  # spur index at which the last accepted path left its parent

    while len(accepted) < k:
        prev = accepted[-1]
        root_cost = 0  # running sum in sum()'s order, so every cost keeps its bits
        for i in range(len(prev) - 1):
            if i >= deviation:  # Lawler's skip, see the docstring
                root = prev[: i + 1]
                # the spur may not leave by the next hop of any accepted path
                # that shares this root; it is settled first, so no path re-enters it
                banned_hops = {nodes[i + 1] for nodes in accepted if nodes[: i + 1] == root}
                spur_path = _dijkstra(adjacency, prev[i], dst, prev[:i], banned_hops)
                if spur_path is not None:
                    total = prev[:i] + spur_path[1]
                    if total not in seen:
                        seen.add(total)
                        heapq.heappush(candidates, (root_cost + spur_path[0], total, i))
            a, b = prev[i], prev[i + 1]
            root_cost += weights[(a, b) if a <= b else (b, a)]
        if not candidates:
            break
        _, nodes, deviation = heapq.heappop(candidates)
        accepted.append(nodes)

    if built is None:
        built = {}
    paths = []
    for nodes in accepted:
        path = built.get(nodes)
        if path is None:
            path = built[nodes] = path_from_nodes(graph, nodes)
        paths.append(path)
    return paths


class PathFinder:
    """Yen's k-shortest paths on one graph, memoized per (src, dst, scheme).

    The caller owns the finder and shares it wherever the same graph is
    searched again (one per CLI command or scenario). For each key the memo
    keeps the longest ranked list of paths computed so far and whether it
    is exhausted (Yen found fewer paths than asked). A query for k is
    answered from that list when it is long enough or exhausted, since Yen's
    first j paths for any k >= j are its paths for j; otherwise it runs
    yen_k_shortest again with the larger k. The finder also keeps each path
    Yen built, by node tuple, and a search that finds a known path takes it
    from there. So the finder builds one CandidatePath per node tuple, and
    every pair, scheme and query that finds that path gets the same object.

    queries counts calls and yen_runs the searches run. Every answer is a
    pure function of (graph, src, dst, scheme, k), so neither count changes
    a result; both belong in the manifest only. A finder is not safe to
    share between threads; run_scenario's worker processes each search on
    their own copy.
    """

    def __init__(self, graph: NetworkGraph):
        self.graph = graph
        self.queries = 0
        self.yen_runs = 0
        self._tables = {scheme: SchemeTable.build(graph, scheme) for scheme in WeightScheme}
        self._memo = {}  # (src, dst, scheme) -> (CandidatePaths, exhausted)
        self._built = {}  # node tuple -> CandidatePath as Yen built it

    def paths(self, src: str, dst: str, k: int, scheme: WeightScheme) -> tuple:
        """Up to k shortest src-dst CandidatePaths under scheme, in rank
        order. Raises InputError unless k is an integer >= 1."""
        check_int("k", k)
        key = (src, dst, scheme)
        self.queries += 1
        known = self._memo.get(key)
        if known is not None and (len(known[0]) >= k or known[1]):
            return known[0][:k]
        self.yen_runs += 1
        found = tuple(yen_k_shortest(self.graph, src, dst, k, scheme,
                                     table=self._tables[scheme], built=self._built))
        self._memo[key] = (found, len(found) < k)  # exhausted: found is every path there is
        return found


def _finder_for(graph, finder):
    if finder is None:
        return PathFinder(graph)
    if finder.graph is not graph:
        raise ValueError("finder was built for a different graph")
    return finder


DEFAULT_SCHEMES = (WeightScheme.HOP, WeightScheme.INV_EGR, WeightScheme.INV_EGR_SQ)

# Greedy baselines by name: each takes the top p_max paths of one scheme.
BASELINE_SCHEMES = {
    "hop": WeightScheme.HOP,
    "inv-egr": WeightScheme.INV_EGR,
    "inv-egr-sq": WeightScheme.INV_EGR_SQ,
}


def build_candidate_set(graph: NetworkGraph, user_pair, k: int = 5,
                        schemes=DEFAULT_SCHEMES, *, finder: PathFinder | None = None):
    """Deduplicated union of per-scheme k-shortest paths for one user pair.

    Order is stable: scheme order, then rank within scheme; duplicates keep
    their first occurrence. At most len(schemes)*k entries, each the
    finder's own CandidatePath, shared with every other pair on the same
    endpoints. finder: a PathFinder of graph to share; a fresh one is used
    when absent.
    """
    finder = _finder_for(graph, finder)
    src, dst = user_pair.endpoints
    unique = {}  # node tuple -> CandidatePath, in first-occurrence order
    for scheme in schemes:
        for path in finder.paths(src, dst, k, scheme):
            unique.setdefault(path.nodes, path)
    return list(unique.values())


def build_candidate_sets(graph, workload, k=5, schemes=DEFAULT_SCHEMES, *, finder=None):
    """Candidate sets for every pair in the workload; pairs may map to [].
    Raises InputError unless k is an integer >= 1."""
    check_int("k", k)
    finder = _finder_for(graph, finder)
    return {pair.key: build_candidate_set(graph, pair, k, schemes, finder=finder)
            for pair in workload.user_pairs}


def baseline_selection(graph, workload, candidates, scheme: WeightScheme,
                       p_max: int = 3, strategy_index: int = 0, catalog=None, *,
                       finder: PathFinder | None = None):
    """Greedy baseline: per pair, the top p_max paths of one weight scheme,
    all using one fixed distillation strategy.

    candidates must have been built with the scheme included and k >= p_max,
    so every baseline path is locatable in the pair's candidate list. Pass
    the finder that built them to reuse its searches. Raises ValueError
    before any search when catalog is None or has no entry strategy_index.
    Returns {pair_key: [(CandidatePath, DistillationStrategy), ...]}.
    """
    if catalog is None:
        raise ValueError("baseline_selection needs the strategy catalog")
    if not 0 <= strategy_index < len(catalog):
        raise ValueError(f"strategy_index {strategy_index} outside the strategy catalog "
                         f"of {len(catalog)} entries")
    strategy = catalog[strategy_index]
    finder = _finder_for(graph, finder)
    selection = {}
    for pair in workload.user_pairs:
        cands = candidates.get(pair.key, [])
        if not cands:
            continue
        known = {p.nodes for p in cands}
        picks = finder.paths(pair.endpoints[0], pair.endpoints[1], p_max, scheme)
        if any(p.nodes not in known for p in picks):
            raise ValueError(
                f"baseline path for pair {pair.key} missing from its candidate set; "
                "build candidates with this scheme and k >= p_max"
            )
        selection[pair.key] = [(p, strategy) for p in picks]
    return selection


def nearest_strategy_index(catalog, threshold: float) -> int:
    """Index of the catalog entry closest to the requested threshold."""
    return min(range(len(catalog)), key=lambda i: (abs(catalog[i].link_threshold - threshold), i))
