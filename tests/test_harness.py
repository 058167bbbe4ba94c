import math
import os
import re
import signal
from dataclasses import astuple, replace

import numpy as np
import pytest

from qvpn.allocation_lp import LpCompiler, build_problem, solve
from qvpn.fixtures import TOPOLOGY_10, bundled_topology
from qvpn import forking, ga_optimizer, harness, pathfinding
from qvpn.ga_optimizer import GaConfig
from qvpn.harness import (
    OPTIMIZERS,
    DegenerateVarianceError,
    Scenario,
    fairness_report,
    load_selection,
    pearson,
    point_workload,
    run_scenario,
    save_selection,
    scenario_hash,
    search,
)
from qvpn.pathfinding import (
    BASELINE_SCHEMES,
    PathFinder,
    baseline_selection,
    build_candidate_sets,
    nearest_strategy_index,
    path_from_nodes,
)
from qvpn.quantum_math import DistillationStrategy, default_strategy_catalog
from qvpn.rl_optimizer import TrainConfig
from qvpn.topology import NetworkGraph, NodeSpec
from qvpn.workload import Organization, Workload, WorkloadParams, generate_workload

from qvpn_helpers import assert_no_child_process, dead_link_case, make_pair


# ---------------------------------------------------------------- pearson

def test_pearson_perfect_lines():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert pearson(xs, [2 * x + 1 for x in xs]) == pytest.approx(1.0, abs=1e-15)
    assert pearson(xs, [-x for x in xs]) == pytest.approx(-1.0, abs=1e-15)


def test_pearson_hand_computed():
    # sxy=6, sxx=10, syy=6 -> r = 6/sqrt(60)
    r = pearson((1, 2, 3, 4, 5), (2, 4, 5, 4, 5))
    assert abs(r - 0.7745966692414834) < 1e-12


def test_pearson_errors():
    with pytest.raises(ValueError, match="length"):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(DegenerateVarianceError):
        pearson([1], [2])
    with pytest.raises(DegenerateVarianceError):
        pearson([3, 3, 3], [1, 2, 3])
    with pytest.raises(DegenerateVarianceError):
        pearson([1, 2, 3], [5, 5, 5])


def test_pearson_treats_rounding_noise_as_zero_variance():
    # spread of 1e-4 around 1e6 is below the relative noise floor
    xs = [1e6, 1e6 + 1e-4, 1e6, 1e6, 1e6]
    with pytest.raises(DegenerateVarianceError):
        pearson(xs, [1.0, 2.0, 3.0, 4.0, 5.0])


def test_pearson_invariant_under_affine_maps():
    rng = np.random.default_rng(12)
    xs = rng.normal(size=30)
    ys = rng.normal(size=30)
    base = pearson(xs, ys)
    assert pearson(3.0 * xs + 7.0, ys) == pytest.approx(base, abs=1e-12)
    assert pearson(xs, -2.0 * ys + 1.0) == pytest.approx(-base, abs=1e-12)


# ---------------------------------------------------------------- scenarios

def _scenario(triangle, wl, **kw):
    kw.setdefault("name", "t")
    kw.setdefault("catalog", tuple(default_strategy_catalog(4)))
    return Scenario(graph=triangle, workload=wl, **kw)


def test_scenario_validation(triangle, one_pair_workload):
    wl = one_pair_workload
    with pytest.raises(ValueError, match="exactly one"):
        Scenario(name="x", graph=triangle)
    with pytest.raises(ValueError, match="exactly one"):
        Scenario(name="x", graph=triangle, workload=wl,
                 workload_params=WorkloadParams())
    with pytest.raises(ValueError, match="unknown optimizer"):
        _scenario(triangle, wl, optimizer="sa")
    with pytest.raises(ValueError, match="seeds"):
        _scenario(triangle, wl, repetitions=2, seeds=(0,))
    with pytest.raises(ValueError, match="distinct"):
        _scenario(triangle, wl, repetitions=2, seeds=(4, 4))
    with pytest.raises(ValueError, match="increasing"):
        _scenario(triangle, wl, sweep_axis="p_max", sweep_values=(2, 2, 3))
    with pytest.raises(ValueError, match="unknown sweep axis"):
        _scenario(triangle, wl, sweep_axis="moon_phase", sweep_values=(1,))
    with pytest.raises(ValueError, match="without a sweep_axis"):
        _scenario(triangle, wl, sweep_values=(1, 2))
    with pytest.raises(ValueError, match="sweep_values empty"):
        _scenario(triangle, wl, sweep_axis="p_max")
    with pytest.raises(ValueError, match="workload_params"):
        _scenario(triangle, wl, sweep_axis="pairs_per_org", sweep_values=(2, 4))
    # k and p_max, and their sweep values, must be integers >= 1
    for kw, text in (
        ({"k": 0}, "k must be an integer >= 1, got 0"),
        ({"p_max": 0}, "p_max must be an integer >= 1, got 0"),
        ({"p_max": True}, "p_max must be an integer >= 1, got True"),
        ({"k": 2.0}, "k must be an integer >= 1, got 2.0"),
        ({"sweep_axis": "p_max", "sweep_values": (0, 1)},
         "p_max sweep value must be an integer >= 1, got 0"),
        ({"sweep_axis": "k", "sweep_values": (-1, 2)},
         "k sweep value must be an integer >= 1, got -1"),
        ({"sweep_axis": "k", "sweep_values": (1, 2.5)},
         "k sweep value must be an integer >= 1, got 2.5"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            _scenario(triangle, wl, **kw)


def test_scenario_hash_stability_and_sensitivity(triangle, one_pair_workload):
    a = _scenario(triangle, one_pair_workload)
    b = _scenario(triangle, one_pair_workload)
    assert scenario_hash(a) == scenario_hash(b)
    assert len(scenario_hash(a)) == 64
    assert scenario_hash(_scenario(triangle, one_pair_workload, k=7)) != scenario_hash(a)
    assert scenario_hash(_scenario(triangle, one_pair_workload,
                                   catalog=tuple(default_strategy_catalog(5)))) != scenario_hash(a)
    assert scenario_hash(_scenario(triangle, one_pair_workload,
                                   baseline_threshold=0.9)) != scenario_hash(a)
    other_wl = Workload(organizations=(Organization("org0", 1.0),),
                        user_pairs=(make_pair("org0", "A", "C"),), seed=0)
    assert scenario_hash(_scenario(triangle, other_wl)) != scenario_hash(a)


def test_point_workload_r_max_axis(triangle, one_pair_workload):
    sc = _scenario(triangle, one_pair_workload, sweep_axis="r_max",
                   sweep_values=(10.0, 100.0))
    wl = point_workload(sc, 100.0, seed=0)
    assert all(p.r_max == 100.0 for p in wl.user_pairs)
    assert wl.organizations == one_pair_workload.organizations
    # the scenario's own workload is untouched
    assert one_pair_workload.user_pairs[0].r_max == 1e9


def test_point_workload_pairs_per_org_axis():
    net10 = bundled_topology(TOPOLOGY_10)
    params = WorkloadParams(num_orgs=2, pairs_per_org=3, hop_cap=4, r_min=0.0)
    sc = Scenario(name="t", graph=net10, workload_params=params,
                  sweep_axis="pairs_per_org", sweep_values=(2, 4), seeds=(5,))
    wl = point_workload(sc, 4, seed=5)
    assert len(wl.user_pairs) == 8
    assert point_workload(sc, 4, seed=5) == wl  # regeneration is seeded


def test_run_scenario_baseline_p_max_sweep(triangle, one_pair_workload):
    sc = _scenario(triangle, one_pair_workload, optimizer="baseline-hop",
                   sweep_axis="p_max", sweep_values=(1, 2, 3),
                   repetitions=2, seeds=(0, 1))
    result = run_scenario(sc)
    assert len(result.points) == 6
    # axis-major, repetition-minor ordering
    assert [(p.axis_value, p.repetition) for p in result.points] == \
           [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)]
    assert all(p.status == "optimal" for p in result.points)
    for rep in (0, 1):
        ws = [p.wegr for p in result.points if p.repetition == rep]
        assert ws[0] < ws[1]  # the detour path adds disjoint capacity
        assert ws[2] >= ws[1] - 1e-9 * abs(ws[1])
    assert [p.seed for p in result.points] == [0, 1] * 3


def test_run_scenario_repeatable_across_worker_counts(triangle, one_pair_workload):
    sc = _scenario(triangle, one_pair_workload, optimizer="baseline-inv-egr",
                   sweep_axis="p_max", sweep_values=(1, 2, 3))
    serial = run_scenario(sc)
    again = run_scenario(sc)
    assert [p.wegr for p in serial.points] == [p.wegr for p in again.points]
    assert serial.points[0].selection == again.points[0].selection
    for workers in (2, 3):
        forked = run_scenario(sc, max_workers=workers)
        assert [p.wegr for p in forked.points] == [p.wegr for p in serial.points]
        assert [p.selection for p in forked.points] == [p.selection for p in serial.points]
        assert forked.config_hash == serial.config_hash
    # more workers than points: one process per point
    assert [p.wegr for p in run_scenario(sc, max_workers=8).points] == \
        [p.wegr for p in serial.points]


def test_run_scenario_ga_workers_match_serial():
    # GA points solve their LPs in two and three worker processes at once
    net10 = bundled_topology(TOPOLOGY_10)
    sc = Scenario(name="ga-workers", graph=net10,
                  workload_params=WorkloadParams(num_orgs=2, pairs_per_org=4, r_min=0.0),
                  optimizer="ga", ga_config=GaConfig(population_size=8, generations=4),
                  sweep_axis="p_max", sweep_values=(1, 2, 3),
                  catalog=tuple(default_strategy_catalog(4)))
    serial = run_scenario(sc, max_workers=1)
    assert all(p.status == "optimal" for p in serial.points)
    for workers in (2, 3):
        forked = run_scenario(sc, max_workers=workers)
        for a, b in zip(serial.points, forked.points, strict=True):
            assert a.wegr == b.wegr
            assert a.trace.best_fitness == b.trace.best_fitness
            assert a.trace.mean_fitness == b.trace.mean_fitness
            assert a.trace.lp_solves == b.trace.lp_solves
            assert save_selection(a.selection) == save_selection(b.selection)


def _point_view(point):
    return (point.axis_value, point.seed, point.status, point.wegr,
            save_selection(point.selection))


def _share_scenario(net50):
    return Scenario(name="share", graph=net50,
                    workload_params=WorkloadParams(num_orgs=3, pairs_per_org=4, r_min=0.0),
                    optimizer="baseline-inv-egr", sweep_axis="pairs_per_org",
                    sweep_values=(4, 8, 12), repetitions=2, seeds=(3, 4),
                    catalog=tuple(default_strategy_catalog(4)))


def test_shared_path_finder_changes_no_point():
    # one finder shared by every point (serially, or copied into two or
    # three worker processes) and a fresh finder per point give one sweep
    net50 = bundled_topology()
    sc = _share_scenario(net50)
    serial = run_scenario(sc, max_workers=1)
    fresh = [run_scenario(replace(sc, sweep_values=(p.axis_value,), repetitions=1,
                                  seeds=(p.seed,))).points[0]
             for p in serial.points]
    want = [_point_view(p) for p in fresh]
    assert all(p.status == "optimal" for p in fresh)
    assert [_point_view(p) for p in serial.points] == want
    for workers in (2, 3):
        finder = PathFinder(net50)
        forked = run_scenario(sc, max_workers=workers, finder=finder)
        assert [_point_view(p) for p in forked.points] == want
        # the workers' counts reach the caller's finder; later points reuse
        # earlier searches (pairs_per_org=4 pairs recur at 8 and 12)
        assert 0 < finder.yen_runs < finder.queries


def test_forked_run_counts_are_repeatable():
    # the points are shared out statically, so each worker asks the same
    # queries of its memo in every run
    net50 = bundled_topology()
    sc = _share_scenario(net50)
    counts = []
    for _ in range(2):
        finder = PathFinder(net50)
        run_scenario(sc, max_workers=2, finder=finder)
        counts.append((finder.queries, finder.yen_runs))
    assert counts[0] == counts[1]
    serial = PathFinder(net50)
    run_scenario(sc, finder=serial)
    assert counts[0][0] == serial.queries  # every query is counted once


def test_no_worker_outlives_run_scenario(triangle, one_pair_workload):
    sc = _scenario(triangle, one_pair_workload, optimizer="baseline-hop",
                   sweep_axis="strategy_count", sweep_values=(1, 2, 50))
    result = run_scenario(sc, max_workers=2)
    assert [p.status for p in result.points] == ["optimal", "optimal", "error"]
    assert "strategy count 50" in result.points[2].error
    assert_no_child_process()


def test_a_dead_worker_fails_the_run(triangle, one_pair_workload, monkeypatch):
    # a worker that exits without sending its points must fail the sweep,
    # not hang it or return a sweep with points missing
    parent = os.getpid()
    real = harness._run_point

    def dies_in_child(scenario, axis_value, *args):
        if os.getpid() != parent and axis_value == 3:  # the last of three workers
            os._exit(3)
        return real(scenario, axis_value, *args)

    monkeypatch.setattr(harness, "_run_point", dies_in_child)
    sc = _scenario(triangle, one_pair_workload, optimizer="baseline-hop",
                   sweep_axis="p_max", sweep_values=(1, 2, 3))

    def hung(signum, frame):
        raise TimeoutError("run_scenario still waiting 60 s after a worker died")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(RuntimeError, match="exited with code 3"):
            run_scenario(sc, max_workers=3)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert_no_child_process()
    # serially the same points run in this process and succeed
    assert [p.status for p in run_scenario(sc).points] == ["optimal"] * 3


def test_ga_sweep_points_match_across_worker_counts(monkeypatch):
    # a GA point forks its fitness helper when run in this process, and
    # scores serially inside a sweep worker: no helper starts there
    parent = os.getpid()
    started = []
    real_start = forking.Forks.start

    def start(self, name, *args):
        if os.getpid() != parent:
            raise AssertionError(f"{name} started inside a sweep worker")
        started.append(name)
        return real_start(self, name, *args)

    monkeypatch.setattr(forking.Forks, "start", start)
    # the helper route even where this machine has one CPU
    monkeypatch.setattr(ga_optimizer, "_usable_cpus", lambda: 2)
    sc = Scenario(name="ga", graph=bundled_topology(TOPOLOGY_10),
                  workload_params=WorkloadParams(num_orgs=2, pairs_per_org=2, r_min=0.0),
                  optimizer="ga", ga_config=GaConfig(population_size=8, generations=3),
                  sweep_axis="pairs_per_org", sweep_values=(2, 3), repetitions=2,
                  seeds=(0, 1), catalog=tuple(default_strategy_catalog(4)))

    def view(point):
        trace = point.trace
        return (_point_view(point), trace.best_fitness, trace.mean_fitness, trace.lp_solves)

    serial = run_scenario(sc, max_workers=1)
    assert started == ["GA fitness helper"] * 4
    assert all(p.status == "optimal" and p.trace.fitness_helper for p in serial.points)
    started.clear()
    forked = run_scenario(sc, max_workers=2)
    assert started == ["sweep worker 0", "sweep worker 1"]
    assert [p.error for p in forked.points] == [None] * 4
    assert not any(p.trace.fitness_helper for p in forked.points)
    assert [view(p) for p in forked.points] == [view(p) for p in serial.points]
    assert_no_child_process()


def test_traced_yen_sees_every_finder_run(monkeypatch):
    # a trace counts Yen runs by wrapping the module attribute
    # pathfinding.yen_k_shortest, so every memo miss must go through it; and
    # the paths the finder tags from its store must equal freshly built ones
    calls = []
    real = pathfinding.yen_k_shortest

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(pathfinding, "yen_k_shortest", counting)
    net50 = bundled_topology()
    sc = Scenario(name="trace", graph=net50,
                  workload_params=WorkloadParams(num_orgs=3, pairs_per_org=4, r_min=0.0),
                  optimizer="baseline-hop", sweep_axis="pairs_per_org", sweep_values=(4, 8),
                  catalog=tuple(default_strategy_catalog(4)))
    finder = PathFinder(net50)
    result = run_scenario(sc, max_workers=1, finder=finder)
    assert [p.status for p in result.points] == ["optimal", "optimal"]
    assert 0 < finder.yen_runs < finder.queries
    assert len(calls) == finder.yen_runs
    workload = point_workload(sc, 8, 0)
    runs = finder.yen_runs
    shared = build_candidate_sets(net50, workload, k=sc.k, finder=finder)
    # the hop baseline searched its own scheme to p_max only, so the
    # three-scheme union at k runs new searches, and the trace sees each one
    assert finder.yen_runs > runs
    assert len(calls) == finder.yen_runs
    fresh = build_candidate_sets(net50, workload, k=sc.k)
    assert shared.keys() == fresh.keys()
    for key, paths in shared.items():
        assert [astuple(p) for p in paths] == [astuple(p) for p in fresh[key]]
        assert [astuple(p) for p in paths] == \
            [astuple(path_from_nodes(net50, p.nodes)) for p in paths]


def test_k_below_p_max_still_errors_with_a_warm_finder():
    # the memo holds 8 paths per scheme for every pair, but a k=1 or k=2
    # point must still see only its k paths and fail as it does without one
    net50 = bundled_topology()
    sc = Scenario(name="k", graph=net50,
                  workload_params=WorkloadParams(num_orgs=2, pairs_per_org=4, r_min=0.0),
                  optimizer="baseline-inv-egr", sweep_axis="k", sweep_values=(1, 2, 3),
                  p_max=3, catalog=tuple(default_strategy_catalog(4)))
    finder = PathFinder(net50)
    build_candidate_sets(net50, point_workload(sc, 1, 0), k=8, finder=finder)
    runs = finder.yen_runs
    warm = run_scenario(sc, finder=finder)
    assert finder.yen_runs == runs  # every query was answered from the memo
    cold = run_scenario(sc)
    message = ("ValueError: baseline path for pair ('org1', 'n06', 'n23') missing from "
               "its candidate set; build candidates with this scheme and k >= p_max")
    for result in (warm, cold):
        assert [p.status for p in result.points] == ["error", "error", "optimal"]
        assert [p.error for p in result.points[:2]] == [message, message]
    assert warm.points[2].wegr == cold.points[2].wegr


def test_run_scenario_records_errors_and_continues(triangle, one_pair_workload):
    sc = _scenario(triangle, one_pair_workload,
                   sweep_axis="strategy_count", sweep_values=(1, 50))
    result = run_scenario(sc)
    ok, bad = result.points
    assert ok.status == "optimal"
    assert bad.status == "error"
    assert math.isnan(bad.wegr)
    assert "strategy count 50" in bad.error


def test_run_scenario_r_max_sweep_monotone(triangle, one_pair_workload):
    sc = _scenario(triangle, one_pair_workload, optimizer="baseline-hop",
                   sweep_axis="r_max", sweep_values=(10.0, 200.0, 5000.0))
    ws = [p.wegr for p in run_scenario(sc).points]
    assert ws[0] == pytest.approx(0.5 * 10.0, rel=1e-9)
    assert ws[0] <= ws[1] <= ws[2]


def test_run_scenario_ga_beats_its_seeded_baselines(triangle):
    org = Organization("org0", 1.0)
    pairs = (make_pair("org0", "A", "B"), make_pair("org0", "A", "C", weight=0.3))
    wl = Workload(organizations=(org,), user_pairs=pairs, seed=0)
    base_ws = []
    for opt in ("baseline-hop", "baseline-inv-egr", "baseline-inv-egr-sq"):
        base_ws.append(run_scenario(_scenario(triangle, wl, optimizer=opt)).points[0].wegr)
    ga_sc = _scenario(triangle, wl, optimizer="ga",
                      ga_config=GaConfig(population_size=6, generations=2))
    ga_point = run_scenario(ga_sc).points[0]
    assert ga_point.status == "optimal"
    assert ga_point.trace is not None
    assert len(ga_point.trace.best_fitness) == 3
    # heuristic seeding plus elitism: never worse than any baseline
    assert all(ga_point.wegr >= w - 1e-9 * abs(w) for w in base_ws)


def test_run_scenario_rl_smoke(triangle, one_pair_workload):
    sc = _scenario(triangle, one_pair_workload, optimizer="rl",
                   rl_config=TrainConfig(epochs=4, batch_size=2))
    point = run_scenario(sc).points[0]
    assert point.status == "optimal"
    assert len(point.trace) == 4
    assert point.wegr > 0
    # rewards seen during training are real allocation values
    assert all(r >= 0 for r in point.trace)


def test_search_serves_every_optimizer_from_one_finder(triangle, one_pair_workload):
    finder = PathFinder(triangle)
    common = dict(k=3, p_max=2, catalog=default_strategy_catalog(), finder=finder,
                  hidden=(4,), ga_config=GaConfig(population_size=6, generations=2),
                  rl_config=TrainConfig(epochs=2, batch_size=2))
    results = {name: search(triangle, one_pair_workload, name, 5, **common)
               for name in ("baseline-hop", "ga", "rl")}
    # baseline-hop: 1 candidate query (hop at p_max=2) and 1 baseline query;
    # ga: 3 candidate queries at k=3 and 3 baseline queries; rl: 3 candidate
    # queries. Yen runs: hop at 2, hop again at 3 (2 < 3 paths, not known to be
    # all), inv-egr and inv-egr-sq at 3; the rl queries are answered from the memo
    assert finder.queries == (1 + 1) + (3 + 3) + 3
    assert finder.yen_runs == 4
    base, ga_run, rl_run = results.values()
    assert base.trace is None and base.policy is None and base.lp_solves == 0
    assert ga_run.lp_solves == ga_run.trace.lp_solves > 0
    assert ga_run.solution.wegr == ga_run.trace.best_wegr
    assert len(rl_run.trace) == 2 and rl_run.lp_solves >= 1
    assert [w.shape[0] for w in rl_run.policy.weights[:-1]] == [4]
    for result in results.values():
        assert result.solution.status == "optimal"
        assert result.seconds >= 0.0
        assert result.solution == solve(build_problem(triangle, one_pair_workload,
                                                      result.selection, p_max=2))
    with pytest.raises(ValueError, match="unknown optimizer"):
        search(triangle, one_pair_workload, "baseline-shortest", 0, **common)


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_search_builds_one_compiler(monkeypatch, triangle, one_pair_workload, optimizer):
    # the final solve goes through the compiler the search already holds:
    # the GA's, the RL reward's, or a baseline's one
    built = []
    real_init = LpCompiler.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(LpCompiler, "__init__", counting_init)
    result = search(triangle, one_pair_workload, optimizer, 5, k=3, p_max=2,
                    catalog=default_strategy_catalog(), hidden=(4,),
                    ga_config=GaConfig(population_size=6, generations=2),
                    rl_config=TrainConfig(epochs=2, batch_size=2))
    assert len(built) == 1
    monkeypatch.undo()
    want = solve(build_problem(triangle, one_pair_workload, result.selection, p_max=2))
    assert result.solution == want
    assert list(result.solution.rates.items()) == list(want.rates.items())


@pytest.mark.parametrize("optimizer", ["baseline-inv-egr", "ga", "rl"])
def test_search_solution_is_the_one_shot_solve_on_net50(optimizer):
    # the GA's final solve reads its best genome's pool ids, a baseline's
    # and RL's the column_ids of the selection: each gives the allocation
    # of a one-shot build_problem of the selection, rates in the same order
    net50 = bundled_topology()
    workload = generate_workload(
        net50, WorkloadParams(num_orgs=3, pairs_per_org=10, r_min=0.0), 0)
    result = search(net50, workload, optimizer, 3, k=5, p_max=3,
                    catalog=default_strategy_catalog(), hidden=(4,),
                    ga_config=GaConfig(population_size=6, generations=2),
                    rl_config=TrainConfig(epochs=2, batch_size=2))
    want = solve(build_problem(net50, workload, result.selection, p_max=3))
    assert result.solution == want
    assert want.status == "optimal" and len(want.rates) > 1
    assert list(result.solution.rates.items()) == list(want.rates.items())


@pytest.mark.parametrize("optimizer", ["baseline-hop", "ga", "rl"])
def test_search_rejects_k_or_p_max_below_one(triangle, one_pair_workload, optimizer):
    # a p_max of 0 used to fail as "k must be >= 1" (baseline) or as a numpy
    # reshape error (ga), or to return an empty "optimal" selection (rl)
    finder = PathFinder(triangle)
    common = dict(catalog=default_strategy_catalog(), finder=finder, hidden=(4,),
                  ga_config=GaConfig(population_size=6, generations=2),
                  rl_config=TrainConfig(epochs=2, batch_size=2))
    for name, k, p_max in (("k", 0, 2), ("p_max", 3, 0), ("p_max", 3, -1), ("k", 2.0, 2),
                           ("p_max", 3, True)):
        bad = k if name == "k" else p_max
        with pytest.raises(ValueError,
                           match=f"^{name} must be an integer >= 1, got {re.escape(repr(bad))}$"):
            search(triangle, one_pair_workload, optimizer, 0, k=k, p_max=p_max, **common)
    assert finder.queries == 0  # raised before any search


BASELINES = ("baseline-hop", "baseline-inv-egr", "baseline-inv-egr-sq")


def _union_baseline(graph, workload, optimizer, k, p_max, catalog, finder):
    """A baseline's picks looked up in the three-scheme k-path union, then
    solved: the route search took for every baseline before it searched only
    the baseline's own scheme."""
    candidates = build_candidate_sets(graph, workload, k=k, finder=finder)
    selection = baseline_selection(
        graph, workload, candidates, BASELINE_SCHEMES[optimizer.removeprefix("baseline-")],
        p_max=p_max, strategy_index=nearest_strategy_index(catalog, 0.992), catalog=catalog,
        finder=finder)
    return selection, solve(build_problem(graph, workload, selection, p_max=p_max))


def _lp_view(problem):
    lp = problem.lp
    return (tuple(map(problem.compiler.choice, problem.ids.tolist())), lp.row_labels,
            *(a.tobytes() for a in (lp.objective, lp.indptr, lp.indices, lp.data,
                                    lp.row_bounds)))


@pytest.mark.parametrize("seed", [0, 1])
def test_baseline_search_matches_the_union_route(seed):
    net50 = bundled_topology()
    workload = generate_workload(
        net50, WorkloadParams(num_orgs=3, pairs_per_org=4, r_min=0.0), seed)
    catalog = tuple(default_strategy_catalog(4))
    finder, union_finder = PathFinder(net50), PathFinder(net50)
    outcomes = []
    for optimizer in BASELINES:
        for k in (1, 2, 3, 5):
            for p_max in (1, 2, 3):
                args = (net50, workload, optimizer)
                try:
                    want_selection, want = _union_baseline(*args, k, p_max, catalog,
                                                           union_finder)
                except ValueError as exc:
                    # k < p_max: a pick outside the k-path union fails the point
                    with pytest.raises(ValueError) as raised:
                        search(*args, seed, k=k, p_max=p_max, catalog=catalog, finder=finder)
                    assert str(raised.value) == str(exc)
                    outcomes.append("error")
                    continue
                got = search(*args, seed, k=k, p_max=p_max, catalog=catalog, finder=finder)
                assert got.selection == want_selection
                assert save_selection(got.selection) == save_selection(want_selection)
                assert got.solution.status == want.status == "optimal"
                assert got.solution.wegr.hex() == want.wegr.hex()
                assert got.solution.rates == want.rates
                outcomes.append(got.solution.status)
    assert "error" in outcomes and "optimal" in outcomes


def test_baseline_search_runs_yen_for_its_own_scheme_only(monkeypatch):
    calls = []
    real = pathfinding.yen_k_shortest

    def counting(graph, src, dst, k, scheme, *args, **kwargs):
        calls.append((scheme, k))
        return real(graph, src, dst, k, scheme, *args, **kwargs)

    monkeypatch.setattr(pathfinding, "yen_k_shortest", counting)
    net50 = bundled_topology()
    workload = generate_workload(
        net50, WorkloadParams(num_orgs=3, pairs_per_org=4, r_min=0.0), 0)
    endpoints = {pair.endpoints for pair in workload.user_pairs}
    catalog = tuple(default_strategy_catalog(4))
    for optimizer in BASELINES:
        scheme = BASELINE_SCHEMES[optimizer.removeprefix("baseline-")]
        for k, p_max in ((3, 3), (5, 2), (8, 1)):
            calls.clear()
            search(net50, workload, optimizer, 0, k=k, p_max=p_max, catalog=catalog)
            # one run per endpoint pair, on a fresh finder: own scheme, p_max paths
            assert calls == [(scheme, p_max)] * len(endpoints)


def test_dead_link_pair_leaves_a_capacity_baseline_selection():
    # only the hop scheme reaches D: the three-scheme union held hop paths
    # for (A, D), so a capacity-weighted baseline kept the pair with no paths;
    # now it searches its own scheme, finds none, and leaves the pair out.
    # The LP, the selection text and the solution are the same either way.
    graph, workload = dead_link_case()
    dead = ("org0", "A", "D")
    catalog = tuple(default_strategy_catalog(4))
    for optimizer in BASELINES:
        want_selection, want = _union_baseline(graph, workload, optimizer, 5, 3, catalog,
                                               PathFinder(graph))
        got = search(graph, workload, optimizer, 0, k=5, p_max=3, catalog=catalog)
        if optimizer == "baseline-hop":
            assert got.selection == want_selection
            assert [p.nodes for p, _ in got.selection[dead]] == [("A", "C", "D"),
                                                                  ("A", "B", "C", "D")]
        else:
            assert want_selection[dead] == []
            assert dead not in got.selection
            assert {**got.selection, dead: []} == want_selection
        assert save_selection(got.selection) == save_selection(want_selection)
        assert _lp_view(build_problem(graph, workload, got.selection, p_max=3)) == \
            _lp_view(build_problem(graph, workload, want_selection, p_max=3))
        assert got.solution == want
        assert want.status == "optimal" and want.wegr > 0


# ---------------------------------------------------------------- fairness

EASY = DistillationStrategy(0.8)


def _solved(triangle, wl, selection, p_max=3):
    return solve(build_problem(triangle, wl, selection, p_max=p_max))


def test_fairness_report_structure(triangle):
    org = Organization("org0", 1.0)
    p1 = make_pair("org0", "A", "B", weight=0.5)
    p2 = make_pair("org0", "A", "C", weight=0.6, r_max=100.0)
    wl = Workload(organizations=(org,), user_pairs=(p1, p2), seed=0)
    sel = {p1.key: [(path_from_nodes(triangle, ("A", "B")), EASY)],
           p2.key: [(path_from_nodes(triangle, ("A", "C")), EASY)]}
    sol = _solved(triangle, wl, sel)
    rep = fairness_report(sol, wl, sel)

    assert [r.pair_key for r in rep.pair_rows] == [p1.key, p2.key]  # EGR descending
    cap = triangle.link_by_key[("A", "B")].capacity_eprps
    assert rep.pair_rows[0].true_egr == pytest.approx(cap, rel=1e-9)
    assert rep.pair_rows[1].true_egr == pytest.approx(100.0, rel=1e-9)
    assert rep.pair_rows[0].min_hops == 1.0
    assert rep.pair_rows[0].composite == pytest.approx(1.0 * 0.5 / (0.7 * 1.0))
    assert rep.zero_rate_pairs == 0
    assert rep.total_wegr == sol.wegr
    # same threshold and same hop count on both: those metrics are degenerate
    assert rep.degenerate_metrics == ("fidelity", "hops")
    assert math.isnan(rep.corr_fidelity) and math.isnan(rep.corr_hops)
    # higher demand weight went to the pair with *less* rate here
    assert rep.corr_demand == pytest.approx(-1.0, abs=1e-12)
    assert rep.corr_composite == pytest.approx(-1.0, abs=1e-12)


def test_fairness_org_sums_match_solution(triangle):
    orgs = (Organization("orgA", 0.3), Organization("orgB", 0.9))
    p1 = make_pair("orgA", "A", "B", weight=0.5)
    p2 = make_pair("orgB", "A", "C", weight=0.4)
    p3 = make_pair("orgB", "B", "C", weight=0.6)
    wl = Workload(organizations=orgs, user_pairs=(p1, p2, p3), seed=0)
    sel = {p.key: [(path_from_nodes(triangle, p.endpoints), EASY)]
           for p in (p1, p2, p3)}
    sol = _solved(triangle, wl, sel)
    rep = fairness_report(sol, wl, sel)
    org_true = dict(rep.org_true_egr)
    assert org_true["orgA"] == pytest.approx(sol.true_egr_per_pair[p1.key], rel=1e-12)
    assert org_true["orgB"] == pytest.approx(
        sol.true_egr_per_pair[p2.key] + sol.true_egr_per_pair[p3.key], rel=1e-12)
    assert sum(dict(rep.org_weighted_egr).values()) == pytest.approx(rep.total_wegr, rel=1e-6)
    assert [oid for oid, _ in rep.org_true_egr] == ["orgA", "orgB"]


def test_fairness_counts_zero_rate_pairs(triangle):
    org = Organization("org0", 1.0)
    p1 = make_pair("org0", "A", "B", weight=0.5)
    p2 = make_pair("org0", "A", "C", weight=0.6)
    p3 = make_pair("org0", "B", "C", weight=0.4, r_max=0.0)  # pinned to zero
    wl = Workload(organizations=(org,), user_pairs=(p1, p2, p3), seed=0)
    sel = {p.key: [(path_from_nodes(triangle, p.endpoints), EASY)]
           for p in (p1, p2, p3)}
    rep = fairness_report(_solved(triangle, wl, sel), wl, sel)
    assert rep.zero_rate_pairs == 1
    starved = [r for r in rep.pair_rows if r.pair_key == p3.key][0]
    assert starved.true_egr == 0.0
    assert math.isnan(starved.min_hops) and math.isnan(starved.composite)
    assert rep.pair_rows[-1].pair_key == p3.key  # zero EGR sorts last


def test_fairness_needs_two_active_pairs(triangle, one_pair_workload):
    pair = one_pair_workload.user_pairs[0]
    sel = {pair.key: [(path_from_nodes(triangle, ("A", "B")), EASY)]}
    sol = _solved(triangle, one_pair_workload, sel)
    with pytest.raises(DegenerateVarianceError, match="at least 2"):
        fairness_report(sol, one_pair_workload, sel)


def test_fairness_rejects_non_optimal(triangle):
    pair = make_pair("org0", "A", "B", r_min=1e8)  # far above link capacity
    wl = Workload(organizations=(Organization("org0", 1.0),),
                  user_pairs=(pair,), seed=0)
    sel = {pair.key: [(path_from_nodes(triangle, ("A", "B")), EASY)]}
    sol = _solved(triangle, wl, sel)
    assert sol.status == "infeasible"
    with pytest.raises(ValueError, match="optimal"):
        fairness_report(sol, wl, sel)


def test_fairness_rejects_selection_mismatch(triangle):
    org = Organization("org0", 1.0)
    p1 = make_pair("org0", "A", "B")
    p2 = make_pair("org0", "A", "C")
    wl = Workload(organizations=(org,), user_pairs=(p1, p2), seed=0)
    sel = {p.key: [(path_from_nodes(triangle, p.endpoints), EASY)]
           for p in (p1, p2)}
    sol = _solved(triangle, wl, sel)
    with pytest.raises(ValueError, match="absent from selection"):
        fairness_report(sol, wl, {p1.key: sel[p1.key]})


# ---------------------------------------------------------------- selections

def test_selection_save_load_round_trip(triangle):
    k1 = ("org0", "A", "B")
    k2 = ("org0", "A", "C")
    sel = {
        k1: [(path_from_nodes(triangle, ("A", "B")), DistillationStrategy(0.9)),
             (path_from_nodes(triangle, ("A", "C", "B")), DistillationStrategy(0.85, 7))],
        k2: [(path_from_nodes(triangle, ("A", "C")), EASY)],
    }
    text = save_selection(sel)
    assert text.startswith("qvpn-selection v1\n")
    back, first_lines = load_selection(text, triangle)
    assert first_lines == {k1: 2, k2: 4}
    assert set(back) == {k1, k2}
    assert [(p.nodes, s.link_threshold, s.max_rounds) for p, s in back[k1]] == \
           [(("A", "B"), 0.9, 20), (("A", "C", "B"), 0.85, 7)]
    assert save_selection(back) == text  # byte-stable round trip


def test_selection_load_ignores_comments(triangle):
    text = ("qvpn-selection v1\n"
            "# chosen by hand\n"
            "\n"
            "select org0 A B path A C B threshold 0.9 max_rounds 5  # detour\n")
    sel, first_lines = load_selection(text, triangle)
    assert first_lines == {("org0", "A", "B"): 4}
    [(path, strategy)] = sel[("org0", "A", "B")]
    assert path.nodes == ("A", "C", "B")
    assert strategy.max_rounds == 5


def test_selection_load_errors(triangle):
    with pytest.raises(ValueError, match="header"):
        load_selection("select org0 A B path A B threshold 0.9 max_rounds 2\n", triangle)
    with pytest.raises(ValueError, match="line 2"):
        load_selection("qvpn-selection v1\nchoose org0 A B path A B threshold 0.9 max_rounds 2\n",
                       triangle)
    # path must start and end on the pair's endpoints
    with pytest.raises(ValueError, match="line 2"):
        load_selection("qvpn-selection v1\nselect org0 A B path A C threshold 0.9 max_rounds 2\n",
                       triangle)
    # malformed threshold value
    with pytest.raises(ValueError, match="line 3"):
        load_selection("qvpn-selection v1\n\nselect org0 A B path A B threshold high max_rounds 2\n",
                       triangle)
    with pytest.raises(ValueError, match="max_rounds"):
        load_selection("qvpn-selection v1\nselect org0 A B path A B threshold 0.9 rounds 2\n",
                       triangle)
    # the strategy is the last four tokens: nothing may follow them
    with pytest.raises(ValueError, match="line 2: expected 'select"):
        load_selection("qvpn-selection v1\n"
                       "select org0 A B path A B threshold 0.9 max_rounds 2 extra\n", triangle)
    # a pair may not repeat a path, whatever its strategy
    with pytest.raises(ValueError, match=r"line 3: pair \('org0', 'A', 'B'\) repeats path A B"):
        load_selection("qvpn-selection v1\n"
                       "select org0 A B path A B threshold 0.8 max_rounds 2\n"
                       "select org0 A B path A B threshold 0.9 max_rounds 2\n", triangle)
    # unknown link in the path
    bare = NetworkGraph(nodes=(NodeSpec("A"), NodeSpec("B")), links=())
    with pytest.raises(ValueError, match="line 2"):
        load_selection("qvpn-selection v1\nselect org0 A B path A B threshold 0.9 max_rounds 2\n",
                       bare)
