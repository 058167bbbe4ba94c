import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest

from qvpn.checks import InputError
from qvpn.fixtures import TOPOLOGY_10, bundled_topology
from qvpn.topology import NetworkGraph, NodeSpec, min_hop_distances
from qvpn.workload import (
    Organization,
    UserPair,
    Workload,
    WorkloadError,
    WorkloadParams,
    generate_workload,
    load_workload,
    save_workload,
)


@pytest.fixture(scope="module")
def net10():
    return bundled_topology(TOPOLOGY_10)


SMALL = WorkloadParams(num_orgs=3, pairs_per_org=10, hop_cap=4)
# the nodes the hand-written documents below name
NODES = NetworkGraph(nodes=tuple(NodeSpec(n) for n in "ABab"), links=())


def test_validation_errors():
    with pytest.raises(WorkloadError, match="weight"):
        Organization("o", 0.0)
    with pytest.raises(WorkloadError, match="differ"):
        UserPair("o", ("a", "a"), 0.5, 0.8, 0.0, 1.0)
    with pytest.raises(WorkloadError, match="threshold"):
        UserPair("o", ("a", "b"), 0.5, 0.2, 0.0, 1.0)
    with pytest.raises(WorkloadError, match="R_min"):
        UserPair("o", ("a", "b"), 0.5, 0.8, 5.0, 1.0)
    with pytest.raises(WorkloadError, match="duplicate"):
        Workload(organizations=(Organization("o", 1.0), Organization("o", 2.0)),
                 user_pairs=())
    with pytest.raises(WorkloadError, match="unknown org"):
        Workload(organizations=(Organization("o", 1.0),),
                 user_pairs=(UserPair("ghost", ("a", "b"), 0.5, 0.8, 0.0, 1.0),))


def test_repeated_seed_line_names_its_line():
    # a second seed line once replaced the first without a word
    doc = "qvpn-workload v1\nseed 1\norg o 1.0\nseed 2\n"
    with pytest.raises(WorkloadError, match="^line 4: seed repeated, first set on line 2$"):
        load_workload(doc, NODES)
    assert load_workload("qvpn-workload v1\nseed 2\norg o 1.0\n", NODES).seed == 2


def test_org_lookup():
    wl = Workload(organizations=(Organization("o1", 1.0), Organization("o2", 2.0)),
                  user_pairs=())
    assert wl.org_by_id("o2").weight == 2.0
    with pytest.raises(KeyError):
        wl.org_by_id("o3")


def test_generation_counts_and_ranges(net10):
    wl = generate_workload(net10, SMALL, seed=5)
    assert len(wl.organizations) == 3
    assert len(wl.user_pairs) == 30
    assert [o.id for o in wl.organizations] == ["org1", "org2", "org3"]
    for o in wl.organizations:
        assert 0.1 <= o.weight <= 1.0
    for p in wl.user_pairs:
        assert 0.3 <= p.weight <= 0.7
        assert 0.75 <= p.fidelity_threshold <= 0.90
        assert p.r_min == 10.0
        assert p.r_max == 1000.0
        assert p.endpoints[0] < p.endpoints[1]


def test_generation_respects_hop_cap(net10):
    params = replace(SMALL, hop_cap=2, pairs_per_org=5)
    wl = generate_workload(net10, params, seed=1)
    for p in wl.user_pairs:
        dist = min_hop_distances(net10, p.endpoints[0])
        assert dist[p.endpoints[1]] <= 2


def _reference_generate(graph, params, seed):
    """generate_workload with a BFS from every user node on each call."""
    rng = np.random.default_rng(seed)
    users = sorted(n.id for n in graph.user_nodes())
    qualifying = []
    for i, a in enumerate(users):
        dist = min_hop_distances(graph, a)
        for b in users[i + 1:]:
            if 0 < dist.get(b, math.inf) <= params.hop_cap:
                qualifying.append((a, b))
    if len(qualifying) < params.pairs_per_org:
        raise WorkloadError("too few qualifying pairs")
    orgs = [Organization(f"org{k + 1}", float(rng.uniform(*params.org_weight_range)))
            for k in range(params.num_orgs)]
    pairs = []
    for org in orgs:
        for idx in sorted(rng.permutation(len(qualifying))[: params.pairs_per_org]):
            r_max = params.r_max
            if params.random_r_max:
                r_max = float(rng.uniform(10.0, params.r_max))
            pairs.append(UserPair(org.id, qualifying[idx],
                                  float(rng.uniform(*params.pair_weight_range)),
                                  float(rng.uniform(*params.fidelity_range)),
                                  params.r_min, r_max))
    return Workload(organizations=tuple(orgs), user_pairs=tuple(pairs), seed=seed)


def test_generation_matches_per_call_bfs(net10):
    net50 = bundled_topology()
    for graph in (net10, net50):
        for hop_cap in (1, 2, 3, 4, 7, 30):
            for seed in range(3):
                # net10 has 14 pairs within one hop: 20 takes the "only" route there
                params = WorkloadParams(num_orgs=2, pairs_per_org=20 if hop_cap == 1 else 4,
                                        hop_cap=hop_cap, random_r_max=seed == 2)
                try:
                    want = _reference_generate(graph, params, seed)
                except WorkloadError:
                    with pytest.raises(WorkloadError, match="only"):
                        generate_workload(graph, params, seed)
                    continue
                assert generate_workload(graph, params, seed) == want, (hop_cap, seed)
    # the table is derived once per graph and is immutable
    assert net50.user_pair_hops is net50.user_pair_hops
    assert isinstance(net50.user_pair_hops, tuple)


def test_generation_no_duplicate_pairs_within_org(net10):
    for seed in range(6):
        wl = generate_workload(net10, SMALL, seed=seed)
        for org in wl.organizations:
            eps = [p.endpoints for p in wl.user_pairs if p.org_id == org.id]
            assert len(set(eps)) == len(eps)


def test_generation_avoids_repeater_endpoints():
    graph = bundled_topology()
    repeaters = {n.id for n in graph.nodes if n.is_repeater}
    wl = generate_workload(graph, WorkloadParams(pairs_per_org=20), seed=3)
    for p in wl.user_pairs:
        assert not set(p.endpoints) & repeaters


def test_generation_deterministic(net10):
    a = generate_workload(net10, SMALL, seed=11)
    b = generate_workload(net10, SMALL, seed=11)
    assert a == b
    c = generate_workload(net10, SMALL, seed=12)
    assert a != c


def test_generation_random_r_max(net10):
    params = replace(SMALL, random_r_max=True, r_max=800.0)
    wl = generate_workload(net10, params, seed=9)
    values = {p.r_max for p in wl.user_pairs}
    assert len(values) > 10  # actually drawn per pair
    for p in wl.user_pairs:
        assert 10.0 <= p.r_max <= 800.0
    # an r_max below 10 or infinite cannot be drawn from, and a draw below
    # an r_min over 10 breaks the pair; each value is fine without random_r_max
    for params, name in (({"r_max": 5.0}, "r_max"), ({"r_max": math.inf}, "r_max"),
                         ({"r_min": 50.0}, "r_min")):
        with pytest.raises(InputError, match=f"{name} with random_r_max"):
            replace(SMALL, random_r_max=True, **params)
        replace(SMALL, **params)
    # the edges of the rule hold, and draw from a one-point range
    wl = generate_workload(net10, replace(SMALL, random_r_max=True, r_min=10.0, r_max=10.0), 0)
    assert {(p.r_min, p.r_max) for p in wl.user_pairs} == {(10.0, 10.0)}


def test_generation_exhaustion_error(net10):
    with pytest.raises(WorkloadError, match="need"):
        generate_workload(net10, replace(SMALL, pairs_per_org=10_000), seed=0)


def test_save_load_round_trip(net10):
    wl = generate_workload(net10, SMALL, seed=21)
    again = load_workload(save_workload(wl), net10)
    assert again == wl  # params is provenance-only and excluded from equality
    assert again.seed == 21


def test_load_rejects_bad_documents():
    with pytest.raises(WorkloadError, match="header"):
        load_workload("org o 1.0\n", NODES)
    with pytest.raises(WorkloadError, match="line 2"):
        load_workload("qvpn-workload v1\norg lonely\n", NODES)
    with pytest.raises(WorkloadError, match="line 3"):
        load_workload("qvpn-workload v1\norg o 1.0\npair o a b 0.5 0.8 0\n", NODES)
    with pytest.raises(WorkloadError, match="directive"):
        load_workload("qvpn-workload v1\nbanana o 1.0\n", NODES)
    with pytest.raises(WorkloadError, match="line 2"):
        load_workload("qvpn-workload v1\norg o heavy\n", NODES)
    # a seed line holds one integer >= 0
    for line, why in (("seed", "seed line expects '<n>'"), ("seed 1 2", "expects"),
                      ("seed -3", "seed must be an integer >= 0, got -3"),
                      ("seed 1.5", "1.5"), ("seed x", "'x'")):
        with pytest.raises(WorkloadError, match=f"line 3: .*{re.escape(why)}"):
            load_workload(f"qvpn-workload v1\norg o 1.0\n{line}\n", NODES)
    assert load_workload("qvpn-workload v1\nseed 0\n", NODES).seed == 0


def test_duplicate_pair_keys_are_rejected():
    # two rows on one key would share one pair's R_min / R_max rows and weight
    doc = ("qvpn-workload v1\norg o1 1.0\norg o2 1.0\n"
           "pair o1 A B 0.5 0.8 0.0 10.0\n")
    with pytest.raises(WorkloadError, match="duplicate pair"):
        load_workload(doc + "pair o1 A B 0.4 0.85 1.0 20.0\n", NODES)
    # the same endpoints in another org, or in the other order, are other pairs
    wl = load_workload(doc + "pair o2 A B 0.5 0.8 0.0 10.0\npair o1 B A 0.5 0.8 0.0 10.0\n",
                       NODES)
    assert len({p.key for p in wl.user_pairs}) == 3


def test_infinite_r_min_is_rejected():
    # an R_min row of inf fails every LP with a column for the pair
    doc = "qvpn-workload v1\norg org1 1.0\n"
    with pytest.raises(WorkloadError, match="R_min must be a finite number"):
        load_workload(doc + "pair org1 A B 0.5 0.7 inf inf\n", NODES)
    with pytest.raises(WorkloadError, match="R_min"):
        UserPair("org1", ("A", "B"), weight=0.5, fidelity_threshold=0.7,
                 r_min=math.inf, r_max=math.inf)
    # an unbounded R_max stays legal: the pair gets no R_max row
    wl = load_workload(doc + "pair org1 A B 0.5 0.7 1.0 inf\n", NODES)
    assert wl.user_pairs[0].r_max == math.inf


def test_load_ignores_comments_and_blanks():
    doc = """
# demand sheet
qvpn-workload v1

org o 1.0  # the only tenant
pair o a b 0.5 0.8 0.0 10.0
"""
    wl = load_workload(doc, NODES)
    assert len(wl.organizations) == 1
    assert wl.user_pairs[0].endpoints == ("a", "b")
    assert wl.seed is None


def test_pair_weights_uniform_in_range(net10):
    # pool draws across many seeds; KS against Unif(0.3, 0.7) must not reject
    samples = []
    for seed in range(70):
        wl = generate_workload(net10, SMALL, seed=1000 + seed)
        samples.extend(p.weight for p in wl.user_pairs)
    assert len(samples) >= 2000
    scaled = (np.array(samples) - 0.3) / 0.4
    assert kstest(scaled, "uniform").pvalue > 0.001


def test_org_weights_uniform_in_range(net10):
    samples = []
    for seed in range(400):
        wl = generate_workload(net10, replace(SMALL, pairs_per_org=1), seed=5000 + seed)
        samples.extend(o.weight for o in wl.organizations)
    scaled = (np.array(samples) - 0.1) / 0.9
    assert kstest(scaled, "uniform").pvalue > 0.001
