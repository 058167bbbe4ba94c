"""Helpers shared by the tests under tests/ (a unique module name, so no
other directory's conftest shadows it)."""

import json
import os
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import qvpn
from qvpn.topology import NetworkGraph, NodeSpec, make_link
from qvpn.workload import Organization, UserPair, Workload

# the relative slack the GA oracles of conftest allow HiGHS's tolerances
ORACLE_RTOL = 1e-9


def fresh_python(code, cwd):
    """Run code in a new interpreter importing qvpn from this source tree;
    return the JSON its last output line holds."""
    env = dict(os.environ, PYTHONPATH=str(Path(qvpn.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd, env=env,
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def assert_no_child_process():
    """Fail if this process has a child process left, running or unreaped."""
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError(f"child process {pid} is left (wait status {status})"
                         if pid else "a child process is still running")


def three_fidelity_copy(graph, rng):
    """graph with each link's alpha drawn from 0.1, 0.15 and 0.2 by rng, so
    the links of a path differ in base fidelity."""
    return NetworkGraph(nodes=graph.nodes, links=tuple(
        make_link(*l.endpoints, l.length_km, l.multiplex,
                  alpha=float(rng.choice([0.1, 0.15, 0.2])))
        for l in graph.links))


def make_pair(org_id, a, b, weight=0.5, threshold=0.7, r_min=0.0, r_max=1e9):
    return UserPair(org_id, (a, b), weight=weight, fidelity_threshold=threshold,
                    r_min=r_min, r_max=r_max)


def one_hot_init(problem, hidden, seed):
    """The policy weights as PolicyNetwork.init drew them when the state was
    one-hot over P*P inputs: W0 is P*P wide and the state read columns i*P + i."""
    rng = np.random.default_rng([seed, 0xC0FFEE])
    dims = [problem.num_pairs ** 2, *hidden, problem.output_dim]
    return [rng.normal(0.0, np.sqrt(2.0 / (fan_in + fan_out)), size=(fan_out, fan_in))
            for fan_in, fan_out in zip(dims, dims[1:])]


def policy_blob(*arrays, magic=b"QVPNPOL2"):
    """A policy checkpoint holding arrays in the given order."""
    out = magic + struct.pack("<I", len(arrays))
    for arr in arrays:
        a = np.asarray(arr, dtype="<f8")
        out += struct.pack(f"<{a.ndim + 1}I", a.ndim, *a.shape) + a.tobytes()
    return out


def dead_link_case():
    """A triangle A-B-C plus a user node D whose one link, C-D, is 25,000 km
    long: its capacity underflows to 0, so only the hop scheme reaches D.
    Returns (graph, workload of the pairs (A, B) and (A, D))."""
    nodes = (NodeSpec("A"), NodeSpec("B"), NodeSpec("C", is_repeater=True), NodeSpec("D"))
    links = (make_link("A", "B", 10.0), make_link("A", "C", 10.0), make_link("C", "B", 10.0),
             make_link("C", "D", 25_000.0))
    graph = NetworkGraph(nodes=nodes, links=links)
    assert graph.link_by_key[("C", "D")].capacity_eprps == 0.0
    pairs = (make_pair("org0", "A", "B"), make_pair("org0", "A", "D"))
    return graph, Workload(organizations=(Organization("org0", 1.0),), user_pairs=pairs, seed=0)
