"""Candidate-path generation: Yen's k-shortest loopless paths under three weight schemes.

Weight schemes mirror the greedy baselines: hop count, inverse link EGR, and
inverse squared link EGR. Candidate sets are the deduplicated union over
schemes; ties everywhere break lexicographically on the node-id sequence so
results are reproducible.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
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


# Relative margin by which a tree path must beat every other route before it
# stands in for a spur search, and by which a spur's lower bound must exceed
# the cutoff before the spur is skipped; see yen_k_shortest.
MARGIN = 1e-9


class SpurTree(NamedTuple):
    """Every node's shortest path to one destination under one scheme: the
    reverse shortest-path tree from which Yen answers its spur searches
    (Martins & Pascoal 2003).

    dist: node id -> weight of the node's shortest path to dst, math.inf
    when it has none. step: node id -> (next hop, its link weight, gap) for
    each node with a path other than dst, where gap is how much less its
    next hop's weight + dist is than every other neighbor's (0 where two
    routes tie, math.inf with no other neighbor). gates: node id -> the
    nodes other than itself and dst that every path from it to dst passes
    through (its cut vertices toward dst); () when it has none or no path.
    """
    dist: dict
    step: dict
    gates: dict

    @classmethod
    def build(cls, table: SchemeTable, dst: str):
        adjacency = table.adjacency
        dist = dict.fromkeys(adjacency, math.inf)
        dist[dst] = 0.0
        via = {}  # settled node -> (next hop toward dst, its link weight)
        heap = [(0.0, dst, dst, 0.0)]
        while heap:
            d, node, hop, w = heapq.heappop(heap)
            if node in via:
                continue
            via[node] = (hop, w)
            for nbr, w in adjacency[node]:
                c = d + w
                if c < dist[nbr]:
                    dist[nbr] = c
                    heapq.heappush(heap, (c, nbr, node, w))
        del via[dst]
        step = {}
        for node, (hop, w) in via.items():
            # dist[node] is the least weight + dist over its neighbors, reached at hop
            d = dist[node]
            gap = math.inf
            for nbr, v in adjacency[node]:
                if nbr != hop:
                    c = v + dist[nbr] - d
                    if c < gap:
                        gap = c
            step[node] = (hop, w, gap)
        return cls(dist, step, _gates(adjacency, dst))


def _gates(adjacency, dst):
    """SpurTree.gates by Tarjan's low links on a depth-first tree rooted at
    dst: a node p other than dst separates its child c's subtree from dst
    exactly when no edge leaves that subtree for a node found before p.
    Nodes are numbered in the order the search finds them."""
    number = {dst: 0}
    found = [dst]
    parent = [0]
    low = [0]
    stack = [(0, iter(adjacency[dst]))]
    while stack:
        i, neighbors = stack[-1]
        for nbr, _ in neighbors:
            j = number.get(nbr)
            if j is None:
                j = number[nbr] = len(found)
                found.append(nbr)
                parent.append(i)
                low.append(j)
                stack.append((j, iter(adjacency[nbr])))
                break
            if j < low[i] and j != parent[i]:
                low[i] = j
        else:
            stack.pop()
            if stack and low[i] < low[stack[-1][0]]:
                low[stack[-1][0]] = low[i]
    gates = dict.fromkeys(adjacency, ())
    for j in range(1, len(found)):  # a parent is found before its children
        p = parent[j]
        above = gates[found[p]]
        gates[found[j]] = above + (found[p],) if p and low[j] >= p else above
    return gates


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


def _spur(adjacency, tree, v, dst, banned, banned_hops, root_cost, cutoff):
    """Yen's spur search at v: the cheapest v-dst path that enters no node of
    banned (which holds v and the root before it) and leaves v by none of
    banned_hops, as (cost, nodes), or None. Also returns whether it ran
    _dijkstra. None also stands for a spur skipped because root_cost plus
    its lower bound exceeds cutoff; see yen_k_shortest."""
    dist, step, gates = tree
    best = second = math.inf  # the two cheapest first hops by weight + dist
    for nbr, w in adjacency[v]:
        if nbr in banned or nbr in banned_hops:
            continue
        cut = gates[nbr]
        if cut and not banned.isdisjoint(cut):
            continue  # every path from nbr to dst enters the root
        c = w + dist[nbr]
        if c < best:
            second, best, hop, cost = best, c, nbr, w
        elif c < second:
            second = c
    if best == math.inf or root_cost + best > cutoff:
        return None, False
    margin = MARGIN * best
    if second - best > margin:
        # follow the tree from hop while each node's next hop is clear of
        # the root and beats the others by the margin, summing the cost as
        # _dijkstra sums it
        nodes = [v, hop]
        while hop != dst:
            hop, w, gap = step[hop]
            if gap <= margin or hop in banned:
                break
            nodes.append(hop)
            cost += w
        else:
            return (cost, tuple(nodes)), False
    return _dijkstra(adjacency, v, dst, banned, banned_hops), True


def yen_k_shortest(graph: NetworkGraph, src: str, dst: str, k: int,
                   scheme: WeightScheme, *, table=None, tree=None,
                   built: dict | None = None, tally=None):
    """Up to k loopless shortest paths in nondecreasing total weight.

    Returns an empty list when src and dst are disconnected, and raises
    InputError unless k is an integer >= 1. table: the graph's SchemeTable
    for scheme, when the caller keeps one; built here otherwise. tree: the
    table's SpurTree toward dst, when the caller keeps one; built here
    otherwise. built: a dict
    from node tuple to CandidatePath that the caller keeps across searches;
    a ranked path found there is returned as it is, and each path built here
    is added to it. tally: an object whose spur_searches attribute counts
    the _dijkstra runs made here.

    The first j paths do not depend on k: the search accepts paths in rank
    order and k only says when to stop. PathFinder's memo relies on this.

    Lawler's spur skip (Lawler 1972): each candidate keeps the spur index at
    which it left its parent, and the spur loop over the last accepted path
    starts at that index. An earlier spur would rerun a search with the same
    root and banned hops, so the skip changes no ranked path; it only saves
    Dijkstra runs. Root costs are a running sum in the order of sum(), so
    path costs, and with them every tie, keep their bits.

    The tree answers most spurs without a search (Martins & Pascoal 2003).
    The first path is the spur at src with nothing banned. A spur at v
    first takes its cheapest allowed first hop x by weight + tree distance,
    a lower bound on the spur's cost. A hop whose tree gates (the nodes
    every path from it to dst passes) meet the root counts as not allowed.
    - no allowed hop with a finite distance: the spur has no path.
    - once the heap holds need = k - len(accepted) candidates, a spur whose
      root cost plus bound exceeds the need-th cheapest candidate cost by
      the relative MARGIN is skipped. That cost only falls as candidates
      come and go, so the spur's path could never be among the next need
      accepted, and no candidate that is accepted comes from a skipped spur.
    - x beats every other allowed hop, and every node on x's tree path
      beats its other routes, by MARGIN times the bound, and the tree path
      enters no banned node: the spur is v, then that path. Every other
      route then costs more by far more than any rounding of a sum, so it is
      the path _dijkstra returns, and its cost is summed the way _dijkstra
      sums it.
    - otherwise _dijkstra runs.
    So every ranked path and its order keep their bits, and with them the
    prefix property.
    """
    if src == dst:
        raise ValueError("src and dst must differ")
    check_int("k", k)
    for nid in (src, dst):
        if nid not in graph.node_by_id:
            raise ValueError(f"unknown node {nid!r}")
    if table is None:
        table = SchemeTable.build(graph, scheme)
    if tree is None:
        tree = SpurTree.build(table, dst)
    accepted, searches = _ranked(table, tree, src, dst, k)
    if tally is not None:
        tally.spur_searches += searches
    if built is None:
        built = {}
    paths = []
    for nodes in accepted:
        path = built.get(nodes)
        if path is None:
            path = built[nodes] = path_from_nodes(graph, nodes)
        paths.append(path)
    return paths


def _ranked(table, tree, src, dst, k):
    """yen_k_shortest's node tuples in rank order, and the number of
    _dijkstra runs it took to find them."""
    weights, adjacency = table
    first, searches = _spur(adjacency, tree, src, dst, {src}, (), 0, math.inf)
    if first is None:
        return [], searches
    accepted = [first[1]]
    seen = {first[1]}
    # the accepted paths as a trie of next-hop dicts: the keys of the dict a
    # root leads to are the hops a spur at its end may not take
    trie = {}
    _add_to_trie(trie, first[1])
    # heap of (cost, nodes, spur index); no nodes tuple is pushed twice, so
    # ties break on (cost, nodes) alone
    candidates = []
    top = []  # the need cheapest candidate costs, sorted
    deviation = 0  # spur index at which the last accepted path left its parent

    while len(accepted) < k:
        prev = accepted[-1]
        need = k - len(accepted)
        cutoff = top[-1] * (1 + MARGIN) if len(top) == need else math.inf
        banned = set()  # the root's nodes
        hops = trie  # the trie's dict for the root
        root_cost = 0  # running sum in sum()'s order, so every cost keeps its bits
        for i in range(len(prev) - 1):
            v = prev[i]
            banned.add(v)
            if i >= deviation:  # Lawler's skip, see yen_k_shortest
                spur, searched = _spur(adjacency, tree, v, dst, banned, hops,
                                       root_cost, cutoff)
                searches += searched
                if spur is not None:
                    total = prev[:i] + spur[1]
                    if total not in seen:
                        seen.add(total)
                        cost = root_cost + spur[0]
                        heapq.heappush(candidates, (cost, total, i))
                        if len(top) < need or cost < top[-1]:
                            insort(top, cost)
                            del top[need:]
                            if len(top) == need:
                                cutoff = top[-1] * (1 + MARGIN)
            b = prev[i + 1]
            hops = hops[b]
            root_cost += weights[(v, b) if v <= b else (b, v)]
        if not candidates:
            break
        _, nodes, deviation = heapq.heappop(candidates)
        del top[0]  # the cheapest candidate is the one accepted
        accepted.append(nodes)
        _add_to_trie(trie, nodes)
    return accepted, searches


def _add_to_trie(trie, nodes):
    for node in nodes[1:]:
        trie = trie.setdefault(node, {})


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
    It keeps one SpurTree per (dst, scheme), built by the first query
    toward dst and used by every later run toward dst.

    queries counts calls, yen_runs the Yen runs and spur_searches the
    _dijkstra runs inside them. Every answer is a pure function of (graph,
    src, dst, scheme, k), so no count changes a result; they belong in the
    manifest only. A finder is not safe to share between threads;
    run_scenario's worker processes each search on their own copy.
    """

    def __init__(self, graph: NetworkGraph):
        self.graph = graph
        self.queries = 0
        self.yen_runs = 0
        self.spur_searches = 0
        self._tables = {scheme: SchemeTable.build(graph, scheme) for scheme in WeightScheme}
        self._trees = {}  # (dst, scheme) -> SpurTree
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
        tree = self._trees.get((dst, scheme))
        # an unknown dst is left for yen_k_shortest to refuse
        if tree is None and dst in self.graph.node_by_id:
            tree = self._trees[(dst, scheme)] = SpurTree.build(self._tables[scheme], dst)
        found = tuple(yen_k_shortest(self.graph, src, dst, k, scheme, table=self._tables[scheme],
                                     tree=tree, built=self._built, tally=self))
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
