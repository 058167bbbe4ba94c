"""Per-layer metrics: which qvpn names the traced run wraps, and how its
spans turn into the per-layer figures.

PER_LAYER is the single list of per-layer metrics: name, unit, better, and
the end-to-end metric and workload each should move. BENCHMARK.json lists
the same names (a test checks that).
"""

from __future__ import annotations

from collections import defaultdict

import benchstats
from spans import self_times, union_length

ALL = "ga-net50, rl-net50, sweep-net50"

# name, unit, better, what it should move
PER_LAYER = [
    ("topology.load_ms", "ms", "lower", f"setup_s on {ALL}"),
    ("workload.generate_ms", "ms", "lower", f"setup_s on {ALL}"),
    ("pathfinding.candidate_sets_s", "s", "lower",
     "wall_s, iter_ms_* on sweep-net50; setup_s on ga-net50, rl-net50"),
    ("pathfinding.yen_calls", "count", "lower",
     "wall_s, iter_ms_* on sweep-net50; setup_s on ga-net50, rl-net50"),
    ("pathfinding.yen_ms_mean", "ms", "lower",
     "wall_s, iter_ms_* on sweep-net50; setup_s on ga-net50, rl-net50"),
    ("pathfinding.baseline_s", "s", "lower",
     "wall_s, iter_ms_* on sweep-net50; setup_s on ga-net50"),
    ("pathfinding.paths_per_pair", "count", "lower",
     "wall_s on sweep-net50; setup_s on ga-net50, rl-net50"),
    ("pathfinding.self_share", "ratio", "lower", "wall_s on sweep-net50"),
    ("quantum_math.overhead_calls", "count", "lower",
     "wall_s on sweep-net50; setup_s and the first iteration on ga-net50, rl-net50"),
    ("quantum_math.overhead_s", "s", "lower",
     "wall_s on sweep-net50; setup_s and the first iteration on ga-net50, rl-net50"),
    ("quantum_math.self_share", "ratio", "lower", "wall_s on sweep-net50"),
    ("allocation_lp.build_calls", "count", "lower",
     "wall_s, iter_ms_p50 on ga-net50, a quarter of rl-net50; sweep-net50 unchanged"),
    ("allocation_lp.build_s", "s", "lower",
     "wall_s, iter_ms_p50 on ga-net50, a quarter of rl-net50; sweep-net50 unchanged"),
    ("allocation_lp.build_ms_p50", "ms", "lower",
     "iter_ms_p50 on ga-net50, rl-net50; sweep-net50 unchanged"),
    ("allocation_lp.solve_lp_calls", "count", "lower",
     "wall_s, iter_ms_p50 on ga-net50, rl-net50; sweep-net50 unchanged"),
    ("allocation_lp.solve_lp_s", "s", "lower",
     "wall_s, iter_ms_p50 on ga-net50, a quarter of rl-net50; sweep-net50 unchanged"),
    ("allocation_lp.solve_lp_ms_p50", "ms", "lower",
     "iter_ms_p50 on ga-net50, rl-net50; sweep-net50 unchanged"),
    ("allocation_lp.rows_mean", "count", "lower", "iter_ms_p50 on ga-net50, rl-net50"),
    ("allocation_lp.cols_mean", "count", "lower", "iter_ms_p50 on ga-net50, rl-net50"),
    ("allocation_lp.nnz_mean", "count", "lower", "iter_ms_p50 on ga-net50, rl-net50"),
    ("allocation_lp.infeasible_ratio", "ratio", "lower", "wegr_share on ga-net50, rl-net50"),
    ("allocation_lp.solver_errors", "count", "lower", f"error rate on {ALL}"),
    ("allocation_lp.self_share", "ratio", "lower", "wall_s on ga-net50, rl-net50"),
    ("ga_optimizer.fitness_calls", "count", "lower", "wall_s, iter_ms_* on ga-net50 only"),
    ("ga_optimizer.lp_solves", "count", "lower", "wall_s, iter_ms_* on ga-net50 only"),
    ("ga_optimizer.cache_hit_ratio", "ratio", "higher", "wall_s, iter_ms_* on ga-net50 only"),
    ("ga_optimizer.fitness_s", "s", "lower", "wall_s, iter_ms_* on ga-net50 only"),
    ("ga_optimizer.self_s", "s", "lower", "wall_s, iter_ms_* on ga-net50 only"),
    ("ga_optimizer.self_share", "ratio", "lower", "wall_s on ga-net50 only"),
    ("rl_optimizer.forward_s", "s", "lower", "wall_s, iter_ms_* on rl-net50 only"),
    ("rl_optimizer.backward_s", "s", "lower", "wall_s, iter_ms_* on rl-net50 only"),
    ("rl_optimizer.update_s", "s", "lower", "wall_s, iter_ms_* on rl-net50 only"),
    ("rl_optimizer.sample_self_s", "s", "lower", "wall_s, iter_ms_* on rl-net50 only"),
    ("rl_optimizer.env_s", "s", "lower", "wall_s, iter_ms_* on rl-net50 only"),
    ("rl_optimizer.env_calls", "count", "lower", "wall_s on rl-net50 only"),
    ("rl_optimizer.reward_cache_hit_ratio", "ratio", "higher", "wall_s on rl-net50 only"),
    ("rl_optimizer.params", "count", "lower", "peak_rss_mb, iter_ms_* on rl-net50 only"),
    ("rl_optimizer.active_input_ratio", "ratio", "higher", "iter_ms_* on rl-net50 only"),
    ("rl_optimizer.grad_bytes_per_epoch", "bytes", "lower",
     "iter_ms_*, peak_rss_mb on rl-net50 only"),
    ("rl_optimizer.self_share", "ratio", "lower", "wall_s on rl-net50 only"),
    ("harness.points", "count", "higher", "wall_s on sweep-net50"),
    ("harness.error_points", "count", "lower", "error rate on sweep-net50"),
    ("harness.point_s_sum", "s", "lower", "wall_s on sweep-net50"),
    ("harness.fairness_s", "s", "lower", "wall_s on sweep-net50"),
    ("harness.busy_ratio", "ratio", "higher", "wall_s on sweep-net50"),
    ("harness.self_share", "ratio", "lower", "wall_s on sweep-net50"),
    ("bench.trace_overhead_ratio", "ratio", "lower", "none: tracing cost"),
    ("bench.uncovered_s", "s", "lower", "none: traced time outside every span"),
]

SHARE_MODULES = ("pathfinding", "quantum_math", "allocation_lp", "ga_optimizer",
                 "rl_optimizer", "harness")


def _candidates(result, args, kwargs):
    return {"pairs": len(result), "paths": sum(len(v) for v in result.values())}


def _problem(result, args, kwargs):
    rows, cols = result.lp.row_coeffs.shape
    return {"rows": rows, "cols": cols,
            "nnz": int((result.lp.row_coeffs != 0).sum())}


def _solution(result, args, kwargs):
    return {"infeasible": result.status == "infeasible"}


def _grads(result, args, kwargs):
    grads_w, grads_b = result
    return {"nbytes": sum(g.nbytes for g in grads_w) + sum(g.nbytes for g in grads_b)}


def targets():
    """(owner, attribute, span name, describe) for every wrapped call site."""
    from qvpn import (allocation_lp, ga_optimizer, harness, pathfinding, rl_optimizer,
                      topology, workload)
    ga_problem = ga_optimizer.GaProblem
    policy = rl_optimizer.PolicyNetwork
    return [
        (topology, "load_topology", "topology.load_topology", None),
        (workload, "generate_workload", "workload.generate_workload", None),
        (harness, "generate_workload", "workload.generate_workload", None),
        (pathfinding, "yen_k_shortest", "pathfinding.yen_k_shortest", None),
        (pathfinding, "build_candidate_sets", "pathfinding.build_candidate_sets", _candidates),
        (harness, "build_candidate_sets", "pathfinding.build_candidate_sets", _candidates),
        (pathfinding, "baseline_selection", "pathfinding.baseline_selection", None),
        (harness, "baseline_selection", "pathfinding.baseline_selection", None),
        (allocation_lp, "path_overhead_per_link", "quantum_math.path_overhead_per_link", None),
        (allocation_lp, "build_problem", "allocation_lp.build_problem", _problem),
        (harness, "build_problem", "allocation_lp.build_problem", _problem),
        (allocation_lp, "solve", "allocation_lp.solve", _solution),
        (harness, "solve", "allocation_lp.solve", _solution),
        (allocation_lp, "solve_lp", "allocation_lp.solve_lp", None),
        (ga_optimizer, "wegr_of_selection", "allocation_lp.wegr_of_selection", None),
        (ga_optimizer, "initialize_population", "ga_optimizer.initialize_population", None),
        (ga_optimizer, "evolve", "ga_optimizer.evolve", None),
        (ga_problem, "fitness", "ga_optimizer.fitness", None),
        (rl_optimizer, "train", "rl_optimizer.train", None),
        (rl_optimizer, "sample_action", "rl_optimizer.sample_action", None),
        (rl_optimizer, "greedy_selection", "rl_optimizer.greedy_selection", None),
        (policy, "init", "rl_optimizer.init", None),
        (policy, "forward", "rl_optimizer.forward", None),
        (policy, "backward", "rl_optimizer.backward", _grads),
        (policy, "apply_update", "rl_optimizer.apply_update", None),
        (harness, "fairness_report", "harness.fairness_report", None),
    ]


def summarize(spans, facts, start, end):
    """Additive raw figures of one traced repetition.

    Every value is a number or a list, so summaries of several instances
    combine by adding numbers and concatenating lists (see combine).
    """
    selfs = self_times(spans)
    raw = defaultdict(float)
    lists = defaultdict(list)
    for s in spans:
        raw[f"n:{s.name}"] += 1
        raw[f"t:{s.name}"] += s.duration
        raw[f"self:{s.name}"] += selfs[s.span_id]
        raw[f"module:{s.name.split('.', 1)[0]}"] += selfs[s.span_id]
        for key, value in s.attrs.items():
            if key == "error":
                raw[f"err:{s.name}"] += 1
            else:
                raw[f"a:{s.name}:{key}"] += float(value)
        if s.name in ("allocation_lp.build_problem", "allocation_lp.solve_lp"):
            lists[f"d:{s.name}"].append(s.duration)
    covered = union_length([(max(s.start, start), min(s.end, end)) for s in spans
                            if s.end > start and s.start < end])
    raw["wall"] = end - start
    raw["uncovered"] = end - start - covered
    raw["self_total"] = sum(selfs.values()) + raw["uncovered"]
    for key, value in facts.items():
        raw[f"f:{key}"] += float(value)
    out = dict(raw)
    out.update(lists)
    return out


def combine(summaries):
    total = {}
    for summary in summaries:
        for key, value in summary.items():
            if isinstance(value, list):
                total.setdefault(key, []).extend(value)
            else:
                total[key] = total.get(key, 0.0) + value
    return total


def _ratio(num, den):
    return num / den if den else 0.0


def derive(raw, untraced_wall):
    """Per-layer metrics from combined summaries; layers that did not run
    report 0. untraced_wall is the matching untraced wall time."""
    g = lambda key: raw.get(key, 0.0)

    def p50_ms(name):
        durations = raw.get(f"d:{name}", [])
        return 1000 * benchstats.median(durations) if durations else 0.0

    fitness_calls = g("n:ga_optimizer.fitness")
    lp_solves = g("n:allocation_lp.wegr_of_selection")
    builds = g("n:allocation_lp.build_problem")
    yen_calls = g("n:pathfinding.yen_k_shortest")
    epochs = g("f:epochs")
    rl_instances = g("f:rl_instances")
    env_calls = g("f:env_calls")
    m = {
        "topology.load_ms": 1000 * g("t:topology.load_topology"),
        "workload.generate_ms": 1000 * g("t:workload.generate_workload"),
        "pathfinding.candidate_sets_s": g("t:pathfinding.build_candidate_sets"),
        "pathfinding.yen_calls": yen_calls,
        "pathfinding.yen_ms_mean": 1000 * _ratio(g("t:pathfinding.yen_k_shortest"), yen_calls),
        "pathfinding.baseline_s": g("t:pathfinding.baseline_selection"),
        "pathfinding.paths_per_pair": _ratio(g("a:pathfinding.build_candidate_sets:paths"),
                                             g("a:pathfinding.build_candidate_sets:pairs")),
        "quantum_math.overhead_calls": g("n:quantum_math.path_overhead_per_link"),
        "quantum_math.overhead_s": g("t:quantum_math.path_overhead_per_link"),
        "allocation_lp.build_calls": builds,
        "allocation_lp.build_s": g("t:allocation_lp.build_problem"),
        "allocation_lp.build_ms_p50": p50_ms("allocation_lp.build_problem"),
        "allocation_lp.solve_lp_calls": g("n:allocation_lp.solve_lp"),
        "allocation_lp.solve_lp_s": g("t:allocation_lp.solve_lp"),
        "allocation_lp.solve_lp_ms_p50": p50_ms("allocation_lp.solve_lp"),
        "allocation_lp.rows_mean": _ratio(g("a:allocation_lp.build_problem:rows"), builds),
        "allocation_lp.cols_mean": _ratio(g("a:allocation_lp.build_problem:cols"), builds),
        "allocation_lp.nnz_mean": _ratio(g("a:allocation_lp.build_problem:nnz"), builds),
        "allocation_lp.infeasible_ratio": _ratio(g("a:allocation_lp.solve:infeasible"),
                                                 g("n:allocation_lp.solve")),
        "allocation_lp.solver_errors": g("err:allocation_lp.solve_lp"),
        "ga_optimizer.fitness_calls": fitness_calls,
        "ga_optimizer.lp_solves": lp_solves,
        "ga_optimizer.cache_hit_ratio": 1 - _ratio(lp_solves, fitness_calls)
        if fitness_calls else 0.0,
        "ga_optimizer.fitness_s": g("t:ga_optimizer.fitness"),
        "ga_optimizer.self_s": g("t:ga_optimizer.evolve") - g("t:ga_optimizer.fitness"),
        "rl_optimizer.forward_s": g("t:rl_optimizer.forward"),
        "rl_optimizer.backward_s": g("t:rl_optimizer.backward"),
        "rl_optimizer.update_s": g("t:rl_optimizer.apply_update"),
        "rl_optimizer.sample_self_s": g("self:rl_optimizer.sample_action"),
        "rl_optimizer.env_s": g("t:bench.rl_environment"),
        "rl_optimizer.env_calls": env_calls,
        "rl_optimizer.reward_cache_hit_ratio": 1 - _ratio(g("f:env_misses"), env_calls)
        if env_calls else 0.0,
        "rl_optimizer.params": _ratio(g("f:params"), rl_instances),
        "rl_optimizer.active_input_ratio": _ratio(g("f:active_inputs"), g("f:input_dim")),
        "rl_optimizer.grad_bytes_per_epoch": _ratio(g("a:rl_optimizer.backward:nbytes"), epochs),
        "harness.points": g("f:points"),
        "harness.error_points": g("f:error_points"),
        "harness.point_s_sum": g("f:point_s_sum"),
        "harness.fairness_s": g("t:harness.fairness_report"),
        "harness.busy_ratio": _ratio(g("f:point_s_sum"), g("f:worker_s")),
        "bench.trace_overhead_ratio": _ratio(g("wall"), untraced_wall) - 1,
        "bench.uncovered_s": g("uncovered"),
    }
    for module in SHARE_MODULES:
        m[f"{module}.self_share"] = _ratio(g(f"module:{module}"), g("self_total"))
    return m
