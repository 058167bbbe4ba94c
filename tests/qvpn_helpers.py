"""Helpers shared by the tests under tests/ (a unique module name, so no
other directory's conftest shadows it)."""

from qvpn.workload import UserPair


def make_pair(org_id, a, b, weight=0.5, threshold=0.7, r_min=0.0, r_max=1e9):
    return UserPair(org_id, (a, b), weight=weight, fidelity_threshold=threshold,
                    r_min=r_min, r_max=r_max)
