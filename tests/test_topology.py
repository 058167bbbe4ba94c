
import numpy as np
import pytest

from qvpn.topology import (
    NetworkGraph,
    NodeSpec,
    TopologyError,
    engineer_repeaters,
    link_capacity,
    load_topology,
    make_link,
    min_hop_distances,
    save_topology,
)
from qvpn.fixtures import bundled_topology, TOPOLOGY_10


MINIMAL = """qvpn-topology v1
node A
node B
link A B 10.0
"""


def test_load_minimal_document():
    g = load_topology(MINIMAL)
    assert len(g.nodes) == 2
    assert len(g.links) == 1
    assert g.links[0].length_km == 10.0
    assert g.links[0].multiplex == 1


def test_dangling_endpoint_names_the_node():
    doc = "qvpn-topology v1\nnode A\nlink A X 5.0\n"
    with pytest.raises(TopologyError, match="X"):
        load_topology(doc)


def test_duplicate_node_rejected():
    doc = "qvpn-topology v1\nnode A\nnode A\n"
    with pytest.raises(TopologyError, match="A"):
        load_topology(doc)


@pytest.mark.parametrize("name, first, second", [("T", "1e-06", "2e-06"),
                                                  ("beta", "0.2", "0.2")])
def test_repeated_param_names_its_line(name, first, second):
    # a second param line once replaced the first without a word
    doc = f"qvpn-topology v1\nparam {name} {first}\nnode A\nparam {name} {second}\n"
    with pytest.raises(TopologyError,
                       match=f"^line 4: param {name} repeated, first set on line 2$"):
        load_topology(doc)
    g = load_topology("qvpn-topology v1\nparam T 2e-06\nparam beta 0.3\nnode A\n")
    assert (g.repetition_time_s, g.attenuation_db_per_km) == (2e-06, 0.3)


def test_duplicate_link_suggests_multiplex():
    doc = "qvpn-topology v1\nnode A\nnode B\nlink A B 1.0\nlink B A 2.0\n"
    with pytest.raises(TopologyError, match="multiplex"):
        load_topology(doc)


def test_negative_length_rejected():
    doc = "qvpn-topology v1\nnode A\nnode B\nlink A B -1.0\n"
    with pytest.raises(TopologyError):
        load_topology(doc)


def test_self_loop_rejected():
    doc = "qvpn-topology v1\nnode A\nlink A A 1.0\n"
    with pytest.raises(TopologyError):
        load_topology(doc)


def test_missing_header():
    with pytest.raises(TopologyError, match="header"):
        load_topology("node A\n")


def test_param_and_comment_lines():
    doc = """qvpn-topology v1
# a comment
param T 2e-06
param beta 0.25
node A 1.0 2.0
node B
node R repeater
link A B 10.0 multiplex=2 alpha=0.1
"""
    g = load_topology(doc)
    assert g.repetition_time_s == 2e-6
    assert g.attenuation_db_per_km == 0.25
    assert g.node_by_id["A"].position == (1.0, 2.0)
    assert g.node_by_id["R"].is_repeater
    l = g.links[0]
    assert l.multiplex == 2 and l.alpha == 0.1
    assert l.base_fidelity == 0.9
    # capacity recomputed under the document's own T and beta
    assert l.capacity_eprps == pytest.approx(link_capacity(10.0, 0.1, 0.25, 2e-6, 2))


def test_bundled_50_node_fixture():
    g = bundled_topology()
    assert len(g.nodes) == 50
    assert len(g.links) == 68
    ids = [n.id for n in g.nodes]
    assert len(set(ids)) == 50
    known = set(ids)
    for l in g.links:
        assert l.endpoints[0] in known and l.endpoints[1] in known
        assert l.capacity_eprps > 0
        assert l.base_fidelity == pytest.approx(1.0 - l.alpha)
    # connected: BFS from the first node reaches everything
    dist = min_hop_distances(g, ids[0])
    assert len(dist) == 50


def test_bundled_10_node_fixture():
    g = bundled_topology(TOPOLOGY_10)
    assert len(g.nodes) == 10
    assert len(min_hop_distances(g, g.nodes[0].id)) == 10


def test_save_load_round_trip():
    g = bundled_topology(TOPOLOGY_10)
    again = load_topology(save_topology(g))
    assert again == g


# capacity model: rate = multiplex * 2 * 10^(-0.1*beta*d) * alpha / T

def test_capacity_zero_length():
    assert link_capacity(0.0, 0.2, 0.2, 1e-6) == pytest.approx(400000.0)


def test_capacity_ten_km():
    c = link_capacity(10.0, 0.2, 0.2, 1e-6)
    assert abs(c - 252382) <= 1
    assert c == pytest.approx(252382.93779207728)


def test_capacity_multiplex_exactly_linear():
    c1 = link_capacity(10.0, 0.2, 0.2, 1e-6, multiplex=1)
    c3 = link_capacity(10.0, 0.2, 0.2, 1e-6, multiplex=3)
    assert c3 == 3.0 * c1


def test_capacity_domain_errors():
    for alpha in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ValueError):
            link_capacity(10.0, alpha, 0.2, 1e-6)
    with pytest.raises(ValueError):
        link_capacity(10.0, 0.2, 0.2, 0.0)
    with pytest.raises(ValueError):
        link_capacity(10.0, 0.2, -0.2, 1e-6)
    with pytest.raises(ValueError):
        link_capacity(-1.0, 0.2, 0.2, 1e-6)


def test_capacity_monotonicity_random_triples():
    rng = np.random.default_rng(42)
    for _ in range(200):
        d = float(rng.uniform(0.0, 80.0))
        alpha = float(rng.uniform(0.05, 0.95))
        base = link_capacity(d, alpha, 0.2, 1e-6)
        assert link_capacity(d + 1.0, alpha, 0.2, 1e-6) < base
        assert link_capacity(d, min(alpha + 0.01, 0.999), 0.2, 1e-6) > base
        assert link_capacity(d, alpha, 0.2, 1e-6, multiplex=2) > base


# repeater engineering

def _simple_graph(length):
    nodes = (NodeSpec("A", position=(0.0, 0.0)), NodeSpec("B", position=(length, 0.0)))
    return NetworkGraph(nodes=nodes, links=(make_link("A", "B", length),))


def test_engineer_short_link_unchanged():
    g = _simple_graph(10.0)
    assert engineer_repeaters(g, 20.0, 10.0) == g


def test_engineer_exact_threshold_unchanged():
    # "exceeding" is strict: a link of exactly the threshold stays
    g = _simple_graph(20.0)
    assert engineer_repeaters(g, 20.0, 10.0) == g


def test_engineer_25km_three_segments():
    g = engineer_repeaters(_simple_graph(25.0), 20.0, 10.0)
    reps = [n for n in g.nodes if n.is_repeater]
    assert len(reps) == 2
    assert len(g.links) == 3
    lengths = sorted(l.length_km for l in g.links)
    assert lengths == pytest.approx([5.0, 10.0, 10.0])


def test_engineer_idempotent():
    g = engineer_repeaters(_simple_graph(47.0), 20.0, 10.0)
    assert engineer_repeaters(g, 20.0, 10.0) == g


@pytest.mark.parametrize("length, spacing, segments", [(2.1, 0.7, 3), (2.1, 0.3, 7),
                                                       (4.2, 1.4, 3)])
def test_engineer_a_length_rounding_past_a_multiple_adds_no_hop(length, spacing, segments):
    # 2.1 / 0.7 is 3.0000000000000004, whose ceil asks for a fourth segment
    # of 4.4e-16 km (a 400,000 EPR/s link); 2.1 at 0.3 asks for one of 0.0 km
    g = engineer_repeaters(_simple_graph(length), spacing, spacing)
    lengths = [l.length_km for l in g.links]
    assert len(lengths) == segments
    assert all(0 < d <= spacing for d in lengths)
    assert sum(lengths) == pytest.approx(length, rel=1e-12)
    assert engineer_repeaters(g, spacing, spacing) == g


def test_engineer_preserves_total_length():
    rng = np.random.default_rng(7)
    for _ in range(50):
        length = float(rng.uniform(20.1, 200.0))
        g = engineer_repeaters(_simple_graph(length), 20.0, 10.0)
        assert abs(sum(l.length_km for l in g.links) - length) < 1e-9


def test_engineer_segments_have_higher_capacity():
    original = _simple_graph(95.0)
    engineered = engineer_repeaters(original, 20.0, 10.0)
    floor = original.links[0].capacity_eprps
    for l in engineered.links:
        assert l.capacity_eprps >= floor


def test_engineer_positions_interpolated():
    g = engineer_repeaters(_simple_graph(30.0), 20.0, 10.0)
    reps = sorted((n for n in g.nodes if n.is_repeater), key=lambda n: n.id)
    xs = [n.position[0] for n in reps]
    assert xs == pytest.approx([10.0, 20.0])


def test_min_hop_distances(triangle):
    dist = min_hop_distances(triangle, "A")
    assert dist == {"A": 0, "B": 1, "C": 1}


def test_adjacency_sorted(triangle):
    assert [n for n, _ in triangle.adjacency["A"]] == ["B", "C"]
