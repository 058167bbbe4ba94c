import heapq
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from qvpn import pathfinding
from qvpn.checks import InputError
from qvpn.fixtures import TOPOLOGY_10, bundled_topology
from qvpn.oracles import enumerate_simple_paths
from qvpn.pathfinding import (
    PathFinder,
    SchemeTable,
    SpurTree,
    WeightScheme,
    _dijkstra,
    baseline_selection,
    build_candidate_set,
    build_candidate_sets,
    nearest_strategy_index,
    path_from_nodes,
    yen_k_shortest,
)
from qvpn.quantum_math import default_strategy_catalog
from qvpn.topology import NetworkGraph, NodeSpec, link_capacity, make_link
from qvpn.workload import Organization, Workload

from qvpn_helpers import make_pair


def test_weight_schemes():
    link = make_link("a", "b", 10.0)
    c = link.capacity_eprps
    assert WeightScheme.HOP.link_weight(link) == 1.0
    assert WeightScheme.INV_EGR.link_weight(link) == pytest.approx(1.0 / c)
    assert WeightScheme.INV_EGR_SQ.link_weight(link) == pytest.approx(1.0 / c**2)


def test_zero_capacity_link_is_unroutable():
    dead = make_link("a", "b", 10.0)
    object.__setattr__(dead, "capacity_eprps", 0.0)
    assert WeightScheme.INV_EGR.link_weight(dead) == math.inf
    assert WeightScheme.INV_EGR_SQ.link_weight(dead) == math.inf
    # hop weighting does not care about capacity
    assert WeightScheme.HOP.link_weight(dead) == 1.0


def _grid_graph():
    """2x3 grid with one long shortcut; capacities differ so schemes disagree."""
    ids = ["g00", "g01", "g02", "g10", "g11", "g12"]
    nodes = tuple(NodeSpec(i) for i in ids)
    links = (
        make_link("g00", "g01", 5.0),
        make_link("g01", "g02", 5.0),
        make_link("g10", "g11", 5.0),
        make_link("g11", "g12", 5.0),
        make_link("g00", "g10", 5.0),
        make_link("g01", "g11", 5.0),
        make_link("g02", "g12", 5.0),
        make_link("g00", "g12", 60.0),  # direct but lossy
    )
    return NetworkGraph(nodes=nodes, links=links)


def test_yen_hop_scheme_prefers_short_paths():
    g = _grid_graph()
    paths = yen_k_shortest(g, "g00", "g12", 3, WeightScheme.HOP)
    assert paths[0].nodes == ("g00", "g12")
    assert paths[0].hop_count == 1
    assert all(a.hop_count <= b.hop_count for a, b in zip(paths, paths[1:]))


def test_yen_inv_egr_avoids_lossy_shortcut():
    g = _grid_graph()
    paths = yen_k_shortest(g, "g00", "g12", 1, WeightScheme.INV_EGR)
    # the 60 km link costs more than three 5 km hops under 1/capacity
    assert paths[0].nodes != ("g00", "g12")
    assert paths[0].hop_count == 3


def test_yen_deterministic_and_sorted():
    g = _grid_graph()
    for scheme in WeightScheme:
        a = yen_k_shortest(g, "g00", "g12", 6, scheme)
        b = yen_k_shortest(g, "g00", "g12", 6, scheme)
        assert [p.nodes for p in a] == [p.nodes for p in b]
        costs = [sum(scheme.link_weight(g.link_by_key[lk]) for lk in p.link_keys) for p in a]
        assert costs == sorted(costs)


def test_yen_k_larger_than_path_count(triangle):
    paths = yen_k_shortest(triangle, "A", "B", 10, WeightScheme.HOP)
    assert [p.nodes for p in paths] == [("A", "B"), ("A", "C", "B")]


def test_yen_argument_errors(triangle):
    with pytest.raises(ValueError):
        yen_k_shortest(triangle, "A", "A", 2, WeightScheme.HOP)
    with pytest.raises(ValueError):
        yen_k_shortest(triangle, "A", "B", 0, WeightScheme.HOP)
    with pytest.raises(ValueError, match="unknown node"):
        yen_k_shortest(triangle, "A", "Z", 2, WeightScheme.HOP)


def test_yen_disconnected_returns_empty():
    nodes = (NodeSpec("A"), NodeSpec("B"), NodeSpec("X"))
    g = NetworkGraph(nodes=nodes, links=(make_link("A", "B", 5.0),))
    assert yen_k_shortest(g, "A", "X", 3, WeightScheme.HOP) == []


def _random_graph(rng, n=6, extra=4, lengths=None, dead=0):
    """A random spanning tree on r0..r{n-1} plus `extra` links. Link lengths
    are uniform in 2-40 km, or drawn from `lengths` (few values make many
    paths tie); `dead` random links get zero capacity."""
    def length():
        return float(rng.uniform(2.0, 40.0) if lengths is None else rng.choice(lengths))

    ids = [f"r{i}" for i in range(n)]
    links = {}
    order = rng.permutation(n)
    for a, b in zip(order, order[1:]):  # random spanning tree keeps it connected
        key = tuple(sorted((ids[a], ids[b])))
        links[key] = make_link(key[0], key[1], length())
    while len(links) < n - 1 + extra:
        a, b = rng.choice(n, size=2, replace=False)
        key = tuple(sorted((ids[a], ids[b])))
        if key not in links:
            links[key] = make_link(key[0], key[1], length())
    links = list(links.values())
    if dead:
        for i in rng.choice(len(links), size=dead, replace=False):
            object.__setattr__(links[i], "capacity_eprps", 0.0)
    nodes = tuple(NodeSpec(i) for i in ids)
    return NetworkGraph(nodes=nodes, links=tuple(links))


def test_yen_agrees_with_exhaustive_enumeration():
    # on desk-size graphs yen's top-k must equal the k cheapest simple paths
    rng = np.random.default_rng(1717)
    for trial in range(15):
        g = _random_graph(rng)
        for scheme in WeightScheme:
            got = yen_k_shortest(g, "r0", "r5", 4, scheme)
            weights = {l.key: scheme.link_weight(l) for l in g.links}
            all_paths = enumerate_simple_paths(g, "r0", "r5", 5)
            costs = sorted(
                sum(weights[(a, b) if a <= b else (b, a)] for a, b in zip(p, p[1:]))
                for p in all_paths
            )
            assert len(got) == min(4, len(all_paths))
            for path, want in zip(got, costs):
                have = sum(weights[lk] for lk in path.link_keys)
                assert have == pytest.approx(want, rel=1e-12)


def test_yen_prefix_property_on_net50():
    # the PathFinder memo answers k=j from a longer list: Yen's first j
    # paths for k=8 must be exactly its paths for k=j
    g = bundled_topology()
    ids = sorted(n.id for n in g.user_nodes())
    rng = np.random.default_rng(2023)
    pairs = set()
    while len(pairs) < 100:
        a, b = rng.choice(len(ids), size=2, replace=False)
        pairs.add((ids[a], ids[b]))
    lengths = []
    for src, dst in sorted(pairs):
        for scheme in WeightScheme:
            full = [p.nodes for p in yen_k_shortest(g, src, dst, 8, scheme)]
            lengths.append(len(full))
            for j in range(1, 8):
                assert [p.nodes for p in yen_k_shortest(g, src, dst, j, scheme)] == full[:j]
    # most endpoint pairs have 8 paths; the rest check exhausted searches
    assert lengths.count(8) > len(lengths) // 2


def _yen_full_spur_loop(graph, src, dst, k, scheme):
    """Yen without Lawler's skip, the reference: every accepted path spurs
    at every index, and each root cost is summed afresh."""
    weights, adjacency = SchemeTable.build(graph, scheme)
    first = _dijkstra(adjacency, src, dst, frozenset(), frozenset())
    if first is None:
        return []
    accepted = [first]
    candidates = []
    seen = {first[1]}
    while len(accepted) < k:
        prev_nodes = accepted[-1][1]
        for i in range(len(prev_nodes) - 1):
            spur = prev_nodes[i]
            root = prev_nodes[: i + 1]
            root_cost = sum(
                weights[(a, b) if a <= b else (b, a)] for a, b in zip(root, root[1:])
            )
            banned_hops = {nodes[i + 1] for _, nodes in accepted
                           if nodes[: i + 1] == root and len(nodes) > i + 1}
            spur_path = _dijkstra(adjacency, spur, dst, root[:-1], banned_hops)
            if spur_path is None:
                continue
            total = root[:-1] + spur_path[1]
            if total not in seen:
                seen.add(total)
                heapq.heappush(candidates, (root_cost + spur_path[0], total))
        if not candidates:
            break
        accepted.append(heapq.heappop(candidates))
    return [nodes for _, nodes in accepted]


def _assert_matches_full_spur_loop(graph, src, dst, scheme, ks=(5, 8)):
    want = _yen_full_spur_loop(graph, src, dst, max(ks), scheme)  # prefix property
    for k in ks:
        got = [p.nodes for p in yen_k_shortest(graph, src, dst, k, scheme)]
        assert got == want[:k], (src, dst, scheme, k)
    return len(want)


def test_lawler_skip_matches_full_spur_loop_on_net10():
    g = bundled_topology(TOPOLOGY_10)
    ids = sorted(n.id for n in g.nodes)
    for src in ids:
        for dst in ids:
            if src != dst:
                for scheme in WeightScheme:
                    _assert_matches_full_spur_loop(g, src, dst, scheme, ks=(8,))


def test_lawler_skip_matches_full_spur_loop_on_net50():
    g = bundled_topology()
    ids = sorted(n.id for n in g.user_nodes())
    rng = np.random.default_rng(1972)
    pairs = set()
    while len(pairs) < 300:
        a, b = rng.choice(len(ids), size=2, replace=False)
        pairs.add((ids[a], ids[b]))
    lengths = [_assert_matches_full_spur_loop(g, src, dst, scheme)
               for src, dst in sorted(pairs) for scheme in WeightScheme]
    assert lengths.count(8) > len(lengths) // 2


def test_lawler_skip_matches_full_spur_loop_on_tied_random_graphs():
    rng = np.random.default_rng(300)
    for trial in range(300):
        n = int(rng.integers(5, 9))  # a 5-node graph has room for 6 extra links
        g = _random_graph(rng, n, extra=int(rng.integers(2, 7)), lengths=(5.0, 10.0),
                          dead=int(rng.integers(0, 3)))
        src, dst = (f"r{i}" for i in rng.choice(n, size=2, replace=False))
        for scheme in WeightScheme:
            _assert_matches_full_spur_loop(g, src, dst, scheme, ks=(3, 8))


def _net50_user_pairs():
    g = bundled_topology()
    return g, list(itertools.combinations(sorted(n.id for n in g.user_nodes()), 2))


def test_tree_route_matches_full_spur_loop_on_every_net50_user_pair():
    # one finder per scheme, so the searches share its per-destination trees
    g, pairs = _net50_user_pairs()
    for scheme in WeightScheme:
        finder = PathFinder(g)
        for src, dst in pairs:
            want = _yen_full_spur_loop(g, src, dst, 5, scheme)
            for k in (1, 3, 5):
                got = [p.nodes for p in finder.paths(src, dst, k, scheme)]
                assert got == want[:k], (src, dst, scheme, k)


def _count_spur_outcomes(monkeypatch):
    """Counter of how Yen's spurs end: "tree" (the tree path is the spur),
    "search" (_dijkstra ran), "bound" (skipped, though the spur has a path)
    or "none" (no path); "dijkstra" counts every _dijkstra run."""
    outcomes = Counter()
    real_spur, real_dijkstra = pathfinding._spur, pathfinding._dijkstra

    def dijkstra(*args):
        outcomes["dijkstra"] += 1
        return real_dijkstra(*args)

    def spur(adjacency, tree, v, dst, banned, hops, root_cost, cutoff):
        path, searched = real_spur(adjacency, tree, v, dst, banned, hops, root_cost, cutoff)
        if searched:
            outcomes["search"] += 1
        elif path is not None:
            outcomes["tree"] += 1
        else:
            runs = outcomes["dijkstra"]
            unbounded = real_spur(adjacency, tree, v, dst, banned, hops, root_cost, math.inf)
            outcomes["dijkstra"] = runs  # the probe's search is not Yen's
            outcomes["none" if unbounded[0] is None else "bound"] += 1
        return path, searched

    monkeypatch.setattr(pathfinding, "_dijkstra", dijkstra)
    monkeypatch.setattr(pathfinding, "_spur", spur)
    return outcomes


def test_tree_and_bound_answer_most_spurs_on_net50(monkeypatch):
    # Yen over every net50 user pair at k=3, then 5, through one finder makes
    # 98,398 spurs (the first path counted as one); each was a _dijkstra run
    # before the tree and the bound, and 7,146 (7.3%) still are
    g, pairs = _net50_user_pairs()
    outcomes = _count_spur_outcomes(monkeypatch)
    finder = PathFinder(g)
    for k in (3, 5):
        for scheme in WeightScheme:
            for src, dst in pairs:
                finder.paths(src, dst, k, scheme)
    assert outcomes["dijkstra"] == outcomes["search"] == finder.spur_searches
    spurs = sum(outcomes[kind] for kind in ("tree", "search", "bound", "none"))
    assert spurs == 98398
    assert outcomes["search"] < 0.09 * spurs
    assert outcomes["tree"] > 0.2 * spurs
    assert outcomes["bound"] > 0.07 * spurs
    assert outcomes["none"] > 0.5 * spurs


def _ladder(lengths, multiplex=1):
    """Two rails l0..l4 and u0..u4 joined by a rung at every index; links
    take their lengths from the cycle `lengths` in rail-then-rung order."""
    length = itertools.cycle(lengths)
    ids = [f"{side}{i}" for side in "lu" for i in range(5)]
    links = [make_link(f"{side}{i}", f"{side}{i + 1}", next(length), multiplex)
             for side in "lu" for i in range(4)]
    links += [make_link(f"l{i}", f"u{i}", next(length), multiplex) for i in range(5)]
    return NetworkGraph(nodes=tuple(NodeSpec(i) for i in ids), links=tuple(links))


@pytest.mark.parametrize("multiplex, capacity", [(1, 1e5), (100, 1e7)])
def test_tree_falls_back_where_routes_tie(monkeypatch, multiplex, capacity):
    # equal-capacity alternative routes of the ladder tie, and a tie summed
    # forward and backward may round apart; at multiplex 100 the capacities
    # are huge and inv-egr-sq weights near 1e-15, where only a relative
    # margin tells routes apart
    graph = _ladder((10.0, 5.0), multiplex)
    assert min(l.capacity_eprps for l in graph.links) > capacity
    ids = sorted(n.id for n in graph.nodes)
    for scheme in WeightScheme:
        outcomes = _count_spur_outcomes(monkeypatch)
        for src, dst in itertools.permutations(ids, 2):
            _assert_matches_full_spur_loop(graph, src, dst, scheme, ks=(3, 8))
        assert outcomes["search"] > 0 and outcomes["tree"] > 0, (scheme, outcomes)


def test_spur_tree_distances_and_gates():
    # every node's distance and tree path against a search from it, and its
    # gates against removing each node in turn
    def reachable(adjacency, a, b, removed):
        seen, stack = {a, removed}, [a]
        while stack:
            node = stack.pop()
            if node == b:
                return True
            for nbr, _ in adjacency[node]:
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        return False

    rng = np.random.default_rng(24)
    for trial in range(40):
        n = int(rng.integers(4, 12))
        g = _random_graph(rng, n, extra=int(rng.integers(0, n)), dead=int(rng.integers(0, 3)))
        for scheme in WeightScheme:
            table = SchemeTable.build(g, scheme)
            for dst in table.adjacency:
                tree = SpurTree.build(table, dst)
                for node in table.adjacency:
                    if node == dst:
                        continue
                    best = _dijkstra(table.adjacency, node, dst, (), ())
                    if best is None:
                        assert tree.dist[node] == math.inf and node not in tree.step
                        assert tree.gates[node] == ()
                        continue
                    assert tree.dist[node] == pytest.approx(best[0], rel=1e-12)
                    cost, hop = 0.0, node
                    for _ in range(n):  # the tree path: its weights add up to dist
                        hop, w, gap = tree.step[hop]
                        assert gap >= 0
                        cost += w
                        if hop == dst:
                            break
                    assert hop == dst and cost == pytest.approx(best[0], rel=1e-12)
                    assert set(tree.gates[node]) == {
                        cut for cut in table.adjacency if cut not in (node, dst)
                        and not reachable(table.adjacency, node, dst, cut)}


def test_path_finder_serves_prefixes_from_its_memo():
    g = _grid_graph()
    finder = PathFinder(g)
    want = [p.nodes for p in yen_k_shortest(g, "g00", "g12", 4, WeightScheme.HOP)]
    assert [p.nodes for p in finder.paths("g00", "g12", 4, WeightScheme.HOP)] == want
    assert [p.nodes for p in finder.paths("g00", "g12", 2, WeightScheme.HOP)] == want[:2]
    assert (finder.queries, finder.yen_runs) == (2, 1)
    # a longer query runs Yen again; the other direction and scheme are new keys
    longer = finder.paths("g00", "g12", 5, WeightScheme.HOP)
    assert [p.nodes for p in longer[:4]] == want
    finder.paths("g12", "g00", 2, WeightScheme.HOP)
    finder.paths("g00", "g12", 2, WeightScheme.INV_EGR)
    assert (finder.queries, finder.yen_runs) == (5, 4)


def test_path_finder_remembers_exhausted_searches(triangle):
    finder = PathFinder(triangle)
    both = [("A", "B"), ("A", "C", "B")]
    assert [p.nodes for p in finder.paths("A", "B", 10, WeightScheme.HOP)] == both
    # the graph has only two A-B paths, so no k needs a new search
    assert [p.nodes for p in finder.paths("A", "B", 50, WeightScheme.HOP)] == both
    assert [p.nodes for p in finder.paths("A", "B", 1, WeightScheme.HOP)] == both[:1]
    assert finder.yen_runs == 1


def test_path_finder_argument_errors(triangle):
    finder = PathFinder(triangle)
    finder.paths("A", "B", 3, WeightScheme.HOP)
    with pytest.raises(ValueError, match="k must be"):
        finder.paths("A", "B", 0, WeightScheme.HOP)
    with pytest.raises(ValueError, match="unknown node"):
        finder.paths("A", "Z", 2, WeightScheme.HOP)
    pair = make_pair("org0", "A", "B")
    with pytest.raises(ValueError, match="different graph"):
        build_candidate_set(_grid_graph(), pair, k=2, finder=finder)


def test_k_must_be_an_integer(triangle):
    # a bool or a float k once passed as a number of paths
    finder = PathFinder(triangle)
    for k in (True, 2.0, 0, -1, "2"):
        with pytest.raises(InputError, match="k must be an integer >= 1"):
            yen_k_shortest(triangle, "A", "B", k, WeightScheme.HOP)
        with pytest.raises(InputError, match="k must be an integer >= 1"):
            finder.paths("A", "B", k, WeightScheme.HOP)
    assert finder.queries == 0
    assert len(finder.paths("A", "B", np.int64(2), WeightScheme.HOP)) == 2


def test_path_finder_memo_consistency(monkeypatch):
    # queries in random order over keys and k: every answer must equal a
    # fresh search, every query is counted, the memo ends up holding each
    # key's longest list, and each distinct path is built once
    g = bundled_topology(TOPOLOGY_10)
    ids = sorted(n.id for n in g.user_nodes())
    keys = [(a, b, scheme) for a in ids[:4] for b in ids[4:8] for scheme in WeightScheme]
    want = {key: [p.nodes for p in yen_k_shortest(g, key[0], key[1], 6, key[2])]
            for key in keys}
    queries = [(key, k) for key in keys for k in range(1, 7)]
    builds = []
    real = pathfinding.path_from_nodes

    def counting(graph, nodes):
        builds.append(nodes)
        return real(graph, nodes)

    monkeypatch.setattr(pathfinding, "path_from_nodes", counting)
    finder = PathFinder(g)
    rng = np.random.default_rng(8)
    for i in np.concatenate([rng.permutation(len(queries)) for _ in range(3)]):
        (src, dst, scheme), k = queries[i]
        assert [p.nodes for p in finder.paths(src, dst, k, scheme)] == \
            want[(src, dst, scheme)][:k]
    assert finder.queries == 3 * len(queries)
    assert len(builds) == len(set(builds))
    assert set(builds) == {nodes for paths in want.values() for nodes in paths}
    runs = finder.yen_runs
    for src, dst, scheme in keys:
        finder.paths(src, dst, 6, scheme)
    assert finder.yen_runs == runs


def test_yen_reuses_the_paths_it_is_given():
    g = _grid_graph()
    built = {}
    short = yen_k_shortest(g, "g00", "g12", 3, WeightScheme.HOP, built=built)
    assert set(built) == {p.nodes for p in short}
    longer = yen_k_shortest(g, "g00", "g12", 5, WeightScheme.HOP, built=built)
    assert longer[:3] == short and all(a is b for a, b in zip(longer, short))
    assert set(built) == {p.nodes for p in longer}
    assert longer == yen_k_shortest(g, "g00", "g12", 5, WeightScheme.HOP)


def test_shared_finder_gives_the_same_candidates_and_baselines():
    g = _grid_graph()
    org = Organization("org0", 1.0)
    pairs = (make_pair("org0", "g00", "g12"), make_pair("org0", "g01", "g10"))
    wl = Workload(organizations=(org,), user_pairs=pairs, seed=0)
    catalog = default_strategy_catalog()
    finder = PathFinder(g)
    finder.paths("g00", "g12", 8, WeightScheme.INV_EGR)  # memo longer than k
    for k in (3, 1, 4):
        shared = build_candidate_sets(g, wl, k=k, finder=finder)
        fresh = build_candidate_sets(g, wl, k=k)
        assert shared == fresh
        p_max = min(k, 2)
        for scheme in WeightScheme:
            assert baseline_selection(g, wl, shared, scheme, p_max=p_max, catalog=catalog,
                                      finder=finder) == \
                baseline_selection(g, wl, fresh, scheme, p_max=p_max, catalog=catalog)


def test_path_from_nodes_fields(triangle):
    p = path_from_nodes(triangle, ("A", "C", "B"))
    assert p.link_keys == (("A", "C"), ("B", "C"))
    assert p.hop_count == 2
    assert p.bottleneck_capacity == pytest.approx(link_capacity(10.0, 0.2, 0.2, 1e-6))
    with pytest.raises(KeyError):
        path_from_nodes(triangle, ("B", "A", "X"))


def test_candidate_set_dedup_and_order(triangle):
    pair = make_pair("org0", "A", "B")
    cands = build_candidate_set(triangle, pair, k=5)
    # all three schemes rank the same two paths here, so the union is just 2
    assert [c.nodes for c in cands] == [("A", "B"), ("A", "C", "B")]
    assert len({c.link_keys for c in cands}) == len(cands)


def test_pairs_on_the_same_endpoints_share_path_objects():
    g = _grid_graph()
    orgs = (Organization("org0", 1.0), Organization("org1", 2.0))
    pairs = (make_pair("org0", "g00", "g12"), make_pair("org1", "g00", "g12"),
             make_pair("org1", "g01", "g10"))
    wl = Workload(organizations=orgs, user_pairs=pairs, seed=0)
    finder = PathFinder(g)
    sets = build_candidate_sets(g, wl, k=4, finder=finder)
    assert len(sets[pairs[0].key]) > 1
    assert all(a is b for a, b in zip(sets[pairs[0].key], sets[pairs[1].key], strict=True))
    memo = {id(p) for found, _ in finder._memo.values() for p in found}
    assert all(id(p) in memo for paths in sets.values() for p in paths)


def test_candidate_set_size_bound():
    rng = np.random.default_rng(31)
    for trial in range(10):
        g = _random_graph(rng, n=6, extra=5)
        pair = make_pair("org0", "r0", "r5")
        k = int(rng.integers(1, 5))
        cands = build_candidate_set(g, pair, k=k)
        assert 0 < len(cands) <= 3 * k
        assert len({c.link_keys for c in cands}) == len(cands)


def test_candidate_sets_cover_workload(triangle):
    org = Organization("org0", 1.0)
    pairs = (make_pair("org0", "A", "B"), make_pair("org0", "A", "C"))
    wl = Workload(organizations=(org,), user_pairs=pairs, seed=0)
    sets = build_candidate_sets(triangle, wl, k=2)
    assert set(sets) == {p.key for p in pairs}
    assert all(len(v) >= 1 for v in sets.values())


def test_baseline_selection_picks_scheme_order():
    g = _grid_graph()
    org = Organization("org0", 1.0)
    pair = make_pair("org0", "g00", "g12")
    wl = Workload(organizations=(org,), user_pairs=(pair,), seed=0)
    cands = build_candidate_sets(g, wl, k=5)
    catalog = default_strategy_catalog()
    sel = baseline_selection(g, wl, cands, WeightScheme.HOP, p_max=2,
                             strategy_index=3, catalog=catalog)
    picks = sel[pair.key]
    assert len(picks) == 2
    assert picks[0][0].nodes == ("g00", "g12")  # hop baseline loves the shortcut
    assert all(s is catalog[3] for _, s in picks)


def test_baseline_selection_requires_covering_candidates():
    g = _grid_graph()
    org = Organization("org0", 1.0)
    pair = make_pair("org0", "g00", "g12")
    wl = Workload(organizations=(org,), user_pairs=(pair,), seed=0)
    thin = build_candidate_sets(g, wl, k=1, schemes=(WeightScheme.INV_EGR,))
    with pytest.raises(ValueError, match="missing from its candidate set"):
        baseline_selection(g, wl, thin, WeightScheme.HOP, p_max=3,
                           strategy_index=0, catalog=default_strategy_catalog())


def test_baseline_selection_needs_catalog(triangle, one_pair_workload):
    cands = build_candidate_sets(triangle, one_pair_workload, k=3)
    catalog = default_strategy_catalog()
    # the catalog is checked before any search, and also when no pair has candidates
    for given, strategies, index in ((cands, None, 0), ({}, None, 0),
                                     (cands, catalog, len(catalog)),
                                     ({}, catalog, len(catalog)), (cands, catalog, -1)):
        finder = PathFinder(triangle)
        with pytest.raises(ValueError, match="catalog"):
            baseline_selection(triangle, one_pair_workload, given, WeightScheme.HOP,
                               strategy_index=index, catalog=strategies, finder=finder)
        assert finder.queries == 0


def test_baseline_selection_skips_uncovered_pairs(triangle):
    org = Organization("org0", 1.0)
    pair = make_pair("org0", "A", "B")
    wl = Workload(organizations=(org,), user_pairs=(pair,), seed=0)
    sel = baseline_selection(triangle, wl, {pair.key: []}, WeightScheme.HOP,
                             p_max=2, catalog=default_strategy_catalog())
    assert sel == {}


def test_nearest_strategy_index():
    catalog = default_strategy_catalog()  # 0.8 .. 0.998 in steps of 0.0132
    assert nearest_strategy_index(catalog, 0.8) == 0
    assert nearest_strategy_index(catalog, 0.998) == 15
    assert nearest_strategy_index(catalog, 0.992) == 15
    assert nearest_strategy_index(catalog, 0.9) == 8  # 0.9056 beats 0.8924
    # exact midpoint resolves to the lower index
    mid = (catalog[0].link_threshold + catalog[1].link_threshold) / 2.0
    assert nearest_strategy_index(catalog, mid) in (0, 1)
