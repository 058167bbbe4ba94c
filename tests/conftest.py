import pytest

from qvpn.topology import NetworkGraph, NodeSpec, make_link
from qvpn.workload import Organization, UserPair, Workload


@pytest.fixture
def triangle():
    """A-B direct plus A-C-B detour; all links 10 km, capacity ~252383 EPR/s."""
    nodes = (NodeSpec("A"), NodeSpec("B"), NodeSpec("C", is_repeater=True))
    links = (make_link("A", "B", 10.0), make_link("A", "C", 10.0), make_link("C", "B", 10.0))
    return NetworkGraph(nodes=nodes, links=links)


@pytest.fixture
def one_pair_workload():
    org = Organization("org0", 1.0)
    pair = UserPair("org0", ("A", "B"), weight=0.5, fidelity_threshold=0.7,
                    r_min=0.0, r_max=1e9)
    return Workload(organizations=(org,), user_pairs=(pair,), seed=0)
