"""Organization/user-pair workloads: generation, serialization, validation.

Generation mirrors the evaluation setup: K organizations with uniform random
weights, a fixed number of pairs per organization drawn among non-repeater
nodes within a hop cap, per-pair weights and fidelity thresholds uniform in
configured ranges, and fixed or uniformly drawn rate bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import InputError, check_id, check_int, check_real, made, number, records
from .topology import NetworkGraph


class WorkloadError(InputError):
    """Malformed or inconsistent workload document."""


@dataclass(frozen=True)
class Organization:
    id: str
    weight: float  # w_k

    def __post_init__(self):
        check_real(f"org {self.id!r}: weight", self.weight, open_low=True, error=WorkloadError)


@dataclass(frozen=True)
class UserPair:
    org_id: str
    endpoints: tuple  # (a, b) node ids
    weight: float  # lambda^k_u
    fidelity_threshold: float  # F^k_u
    r_min: float
    r_max: float

    def __post_init__(self):
        a, b = self.endpoints
        if a == b:
            raise WorkloadError(f"pair in org {self.org_id!r}: endpoints must differ, got {a!r}")
        where = f"pair {a!r}-{b!r}:"
        check_real(f"{where} weight", self.weight, open_low=True, error=WorkloadError)
        check_real(f"{where} fidelity threshold", self.fidelity_threshold, 0.25, 1,
                   open_low=True, error=WorkloadError)
        # an infinite R_max leaves a pair unbounded; an infinite R_min row
        # could never be met, and no LP takes a non-finite bound
        check_real(f"{where} R_min", self.r_min, error=WorkloadError)
        check_real(f"{where} R_max", self.r_max, open_high=False, error=WorkloadError)
        if self.r_min > self.r_max:
            raise WorkloadError(f"{where} need R_min <= R_max, got {self.r_min}, {self.r_max}")

    @property
    def key(self):
        return (self.org_id, self.endpoints[0], self.endpoints[1])


@dataclass(frozen=True)
class WorkloadParams:
    num_orgs: int = 3
    pairs_per_org: int = 50
    org_weight_range: tuple = (0.1, 1.0)
    pair_weight_range: tuple = (0.3, 0.7)
    fidelity_range: tuple = (0.75, 0.90)
    hop_cap: int = 7
    r_min: float = 10.0
    r_max: float = 1000.0
    random_r_max: bool = False  # draw R_max ~ Unif[10, r_max] per pair

    def __post_init__(self):
        for name in ("num_orgs", "pairs_per_org", "hop_cap"):
            check_int(name, getattr(self, name))
        for name in ("org_weight_range", "pair_weight_range", "fidelity_range"):
            bounds = getattr(self, name)
            if not isinstance(bounds, (tuple, list)) or len(bounds) != 2:
                raise InputError(f"{name} must be two numbers, got {bounds!r}")
            # a tuple, so that a JSON list reprs (and hashes) as the default does
            object.__setattr__(self, name, tuple(check_real(name, b, open_low=True)
                                                 for b in bounds))
        check_real("r_min", self.r_min)
        check_real("r_max", self.r_max, open_low=True, open_high=False)  # inf: no R_max rows
        if not isinstance(self.random_r_max, bool):
            raise InputError(f"random_r_max must be true or false, got {self.random_r_max!r}")
        if self.random_r_max:
            # each pair draws R_max ~ Unif[10, r_max], which must not fall below r_min
            check_real("r_min with random_r_max", self.r_min, high=10.0, open_high=False)
            check_real("r_max with random_r_max", self.r_max, 10.0)


@dataclass(frozen=True)
class Workload:
    organizations: tuple
    user_pairs: tuple
    seed: int | None = None

    def __post_init__(self):
        conflict = _conflict(self.organizations, self.user_pairs)
        if conflict is not None:
            raise WorkloadError(conflict[1])

    def org_by_id(self, org_id):
        for o in self.organizations:
            if o.id == org_id:
                return o
        raise KeyError(org_id)


def _conflict(organizations, user_pairs):
    """(index into organizations + user_pairs, message) of the first entry
    that repeats an org id or a pair, or whose org none declares; None when
    no entry does."""
    known = set()
    for i, o in enumerate(organizations):
        if o.id in known:
            return i, f"duplicate organization id {o.id!r}"
        known.add(o.id)
    keys = set()
    for i, p in enumerate(user_pairs, len(organizations)):
        if p.org_id not in known:
            return i, f"pair {p.endpoints} references unknown org {p.org_id!r}"
        if p.key in keys:
            return i, f"duplicate pair {p.key}"
        keys.add(p.key)
    return None


def generate_workload(graph: NetworkGraph, params: WorkloadParams, seed: int) -> Workload:
    """Seeded random workload on the given graph.

    Candidate endpoints are non-repeater nodes whose min-hop distance is
    within params.hop_cap; each organization samples its pairs without
    replacement (orgs may share pairs). Raises WorkloadError if the graph
    cannot supply pairs_per_org qualifying pairs.
    """
    rng = np.random.default_rng(seed)
    qualifying = [(a, b) for a, b, hops in graph.user_pair_hops if 0 < hops <= params.hop_cap]
    if len(qualifying) < params.pairs_per_org:
        raise WorkloadError(
            f"graph supplies only {len(qualifying)} pairs within hop cap "
            f"{params.hop_cap}, need {params.pairs_per_org}"
        )

    orgs = []
    pairs = []
    lo_w, hi_w = params.org_weight_range
    lo_l, hi_l = params.pair_weight_range
    lo_f, hi_f = params.fidelity_range
    for knum in range(params.num_orgs):
        org_id = f"org{knum + 1}"
        orgs.append(Organization(id=org_id, weight=float(rng.uniform(lo_w, hi_w))))
    for org in orgs:
        chosen = rng.permutation(len(qualifying))[: params.pairs_per_org]
        for idx in sorted(chosen):
            a, b = qualifying[idx]
            r_max = params.r_max
            if params.random_r_max:
                r_max = float(rng.uniform(10.0, params.r_max))
            pairs.append(
                UserPair(
                    org_id=org.id,
                    endpoints=(a, b),
                    weight=float(rng.uniform(lo_l, hi_l)),
                    fidelity_threshold=float(rng.uniform(lo_f, hi_f)),
                    r_min=params.r_min,
                    r_max=r_max,
                )
            )
    return Workload(organizations=tuple(orgs), user_pairs=tuple(pairs), seed=seed)


def load_workload(source: str, graph: NetworkGraph) -> Workload:
    """Parse a workload document, header `qvpn-workload v1`, against the
    graph it runs on: a pair may name only the graph's nodes."""
    orgs = []
    pairs = []
    org_lines, pair_lines = [], []
    seed = seed_line = None
    for lineno, parts in records(source, "qvpn-workload v1", WorkloadError):
        where = f"line {lineno}:"
        if parts[0] == "org":
            if len(parts) != 3:
                raise WorkloadError(f"{where} org line expects '<id> <weight>'")
            check_id(f"{where} org id", parts[1], WorkloadError)
            orgs.append(made(where, WorkloadError, Organization, parts[1],
                             number(parts[2], f"{where} org weight", float, WorkloadError)))
            org_lines.append(lineno)
        elif parts[0] == "pair":
            if len(parts) != 8:
                raise WorkloadError(
                    f"{where} pair line expects '<org> <a> <b> <lambda> <Fth> <Rmin> <Rmax>'")
            for token in parts[1:4]:
                check_id(f"{where} pair id", token, WorkloadError)
            for node in parts[2:4]:
                if node not in graph.node_by_id:
                    raise WorkloadError(f"{where} pair names node {node!r}, "
                                        "which the topology lacks")
            numbers = (number(token, f"{where} pair {name}", float, WorkloadError)
                       for token, name in zip(parts[4:], ("lambda", "Fth", "Rmin", "Rmax")))
            pairs.append(made(where, WorkloadError, UserPair, parts[1], (parts[2], parts[3]),
                              *numbers))
            pair_lines.append(lineno)
        elif parts[0] == "seed":
            if len(parts) != 2:
                raise WorkloadError(f"{where} seed line expects '<n>'")
            if seed_line is not None:
                raise WorkloadError(f"{where} seed repeated, first set on line {seed_line}")
            seed_line = lineno
            seed = check_int(f"{where} seed", number(parts[1], f"{where} seed", int, WorkloadError),
                             low=0, error=WorkloadError)
        else:
            raise WorkloadError(f"{where} unknown directive {parts[0]!r}")
    try:
        return Workload(organizations=tuple(orgs), user_pairs=tuple(pairs), seed=seed)
    except WorkloadError:  # a conflict; name the line of the entry it is found at
        entry, message = _conflict(orgs, pairs)
        raise WorkloadError(f"line {(org_lines + pair_lines)[entry]}: {message}") from None


def save_workload(wl: Workload) -> str:
    """Serialize to the line format; floats use repr so round-trips are exact."""
    out = ["qvpn-workload v1"]
    if wl.seed is not None:
        out.append(f"seed {wl.seed}")
    for o in wl.organizations:
        out.append(f"org {o.id} {o.weight!r}")
    for p in wl.user_pairs:
        a, b = p.endpoints
        out.append(
            f"pair {p.org_id} {a} {b} {p.weight!r} {p.fidelity_threshold!r} "
            f"{p.r_min!r} {p.r_max!r}"
        )
    return "\n".join(out) + "\n"
