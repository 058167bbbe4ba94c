import heapq
import math

import numpy as np
import pytest

from qvpn import pathfinding
from qvpn.fixtures import TOPOLOGY_10, bundled_topology
from qvpn.oracles import enumerate_simple_paths
from qvpn.pathfinding import (
    PathFinder,
    SchemeTable,
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
from qvpn.workload import Organization, UserPair, Workload

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


def test_path_finder_serves_prefixes_from_its_memo():
    g = _grid_graph()
    finder = PathFinder(g)
    want = [p.nodes for p in yen_k_shortest(g, "g00", "g12", 4, WeightScheme.HOP)]
    assert list(finder.paths("g00", "g12", 4, WeightScheme.HOP)) == want
    assert list(finder.paths("g00", "g12", 2, WeightScheme.HOP)) == want[:2]
    assert (finder.queries, finder.yen_runs) == (2, 1)
    # a longer query runs Yen again; the other direction and scheme are new keys
    longer = finder.paths("g00", "g12", 5, WeightScheme.HOP)
    assert list(longer[:4]) == want
    finder.paths("g12", "g00", 2, WeightScheme.HOP)
    finder.paths("g00", "g12", 2, WeightScheme.INV_EGR)
    assert (finder.queries, finder.yen_runs) == (5, 4)


def test_path_finder_remembers_exhausted_searches(triangle):
    finder = PathFinder(triangle)
    assert finder.paths("A", "B", 10, WeightScheme.HOP) == (("A", "B"), ("A", "C", "B"))
    # the graph has only two A-B paths, so no k needs a new search
    assert finder.paths("A", "B", 50, WeightScheme.HOP) == (("A", "B"), ("A", "C", "B"))
    assert finder.paths("A", "B", 1, WeightScheme.HOP) == (("A", "B"),)
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

    def counting(graph, pair_key, nodes):
        builds.append(nodes)
        return real(graph, pair_key, nodes)

    monkeypatch.setattr(pathfinding, "path_from_nodes", counting)
    finder = PathFinder(g)
    rng = np.random.default_rng(8)
    for i in np.concatenate([rng.permutation(len(queries)) for _ in range(3)]):
        (src, dst, scheme), k = queries[i]
        assert list(finder.paths(src, dst, k, scheme)) == want[(src, dst, scheme)][:k]
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
    p = path_from_nodes(triangle, ("o", "A", "B"), ("A", "C", "B"))
    assert p.pair_key == ("o", "A", "B")
    assert p.link_keys == (("A", "C"), ("B", "C"))
    assert p.hop_count == 2
    assert p.bottleneck_capacity == pytest.approx(link_capacity(10.0, 0.2, 0.2, 1e-6))
    with pytest.raises(KeyError):
        path_from_nodes(triangle, ("o", "B", "C"), ("B", "A", "X"))


def test_candidate_set_dedup_and_order(triangle):
    pair = make_pair("org0", "A", "B")
    cands = build_candidate_set(triangle, pair, k=5)
    # all three schemes rank the same two paths here, so the union is just 2
    assert [c.nodes for c in cands] == [("A", "B"), ("A", "C", "B")]
    assert all(c.pair_key == pair.key for c in cands)
    assert len({c.link_keys for c in cands}) == len(cands)


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
    with pytest.raises(ValueError, match="catalog"):
        baseline_selection(triangle, one_pair_workload, cands, WeightScheme.HOP)


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
