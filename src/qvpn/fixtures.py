"""Access to the bundled data files (synthetic topologies)."""

from importlib.resources import files

from .topology import load_topology

TOPOLOGY_50 = "synthetic50.topo"
TOPOLOGY_10 = "synthetic10.topo"


def fixture_text(name: str) -> str:
    return (files("qvpn") / "data" / name).read_text()


def bundled_topology(name: str = TOPOLOGY_50):
    return load_topology(fixture_text(name))

