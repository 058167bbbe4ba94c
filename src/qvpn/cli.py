"""Command-line front end.

    qvpn <capacity|paths|allocate|ga|rl|report> --config <file> --out <dir>

Configs are JSON documents with a versioned schema: every config carries
{"version": 1, "seed": <int>} plus command-specific keys (see README).
All randomness derives from the top-level seed. Outputs are CSV files
(floats printed with repr for byte-stable reruns) plus a machine-readable
manifest.json; wall-clock timings live in the manifest only, never in CSV.
Pass "emit_plots": true to also write gnuplot scripts next to the CSVs.
The library types check every value they take; the CLI checks the JSON
shape and reports any InputError as a config error (exit 2).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .checks import InputError, check_int
from .topology import load_topology, engineer_repeaters
from .quantum_math import catalog_prefix, default_strategy_catalog, load_strategy_catalog
from .pathfinding import PathFinder, build_candidate_sets
from .workload import WorkloadParams, generate_workload, load_workload
from .allocation_lp import LpCompiler, lp_backend
from . import ga_optimizer as ga
from . import rl_optimizer as rl
from .harness import (
    DEFAULT_BASELINE_THRESHOLD,
    DEFAULT_HIDDEN,
    DEFAULT_K,
    DEFAULT_OPTIMIZER,
    DEFAULT_P_MAX,
    DegenerateVarianceError,
    Scenario,
    fairness_report,
    load_selection,
    point_workload,
    run_scenario,
    save_selection,
    search,
)


class ConfigError(InputError):
    """A config document of the wrong JSON shape: an object or a list where
    none belongs, a missing key, a file that cannot be read. The library
    types check every number and value in it."""


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    text = str(value)
    if "," in text or "\n" in text:
        raise ValueError(f"CSV cell may not contain commas or newlines: {text!r}")
    return text


def _write_csv(out_dir: Path, name: str, header, rows, config_hash: str, comments=()):
    lines = [f"# config_hash={config_hash}"]
    lines.extend(f"# {c}" for c in comments)
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    (out_dir / name).write_text("\n".join(lines) + "\n")
    return name


def _write_manifest(out_dir: Path, payload: dict):
    (out_dir / "manifest.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_plot(out_dir: Path, outputs: list, config: dict, name: str, script: str):
    """Write a gnuplot script and list it in outputs, if the config emits plots."""
    if config.get("emit_plots", False):
        (out_dir / name).write_text(_GNUPLOT_PRELUDE + script)
        outputs.append(name)


_GNUPLOT_PRELUDE = (
    'set datafile separator ","\n'
    'set datafile commentschars "#"\n'
    "set key autotitle columnhead\n"
    "set grid\n"
)


def _load_config(path: str) -> dict:
    try:
        config = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    if config.get("version") != 1:
        raise ConfigError(f"unsupported config version {config.get('version')!r}, expected 1")
    check_int("seed", config.get("seed"), low=0)  # every command's, so no library type's
    _config_bool(config, "emit_plots", False)
    return config


def _config_bool(config: dict, key: str, default: bool) -> bool:
    value = config.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{key!r} must be true or false, got {value!r}")
    return value


def _require(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"config is missing required key {key!r}")
    return config[key]


def _load_ref(config: dict, key: str, hasher, parse, *args):
    """parse(text, *args) of the file that config key `key` names, its
    text added to the hash; a rule the file breaks is reported with its path."""
    path = _require(config, key)
    if not isinstance(path, str):
        raise ConfigError(f"{key} must be a file path, got {path!r}")
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {key} file {path!r}: {exc}") from None
    hasher.update(f"\n--{key}--\n".encode())
    hasher.update(text.encode())
    try:
        return parse(text, *args)
    except InputError as exc:
        raise InputError(f"{key} file {path!r}: {exc}") from None


def _block(config: dict, key: str, cls):
    """cls(**the config's `key` object); an unknown field is a config error."""
    raw = config[key]
    if not isinstance(raw, dict):
        raise ConfigError(f"{key} block must be a JSON object, got {raw!r}")
    try:
        return cls(**raw)
    except TypeError as exc:
        raise ConfigError(f"bad {key} block: {exc}") from None


def _load_graph(config, hasher):
    graph = _load_ref(config, "topology", hasher, load_topology)
    eng = config.get("engineer")
    if eng is not None:
        if not isinstance(eng, dict):
            raise ConfigError(f"engineer block must be a JSON object, got {eng!r}")
        graph = engineer_repeaters(graph, eng.get("threshold_km"), eng.get("spacing_km"))
    return graph


def _workload_source(config, graph, hasher):
    """(workload read from its file against graph, None) or (None, generator
    parameters)."""
    has_file = "workload" in config
    if has_file == ("workload_params" in config):
        raise ConfigError("config needs exactly one of \"workload\" / \"workload_params\"")
    if has_file:
        return _load_ref(config, "workload", hasher, load_workload, graph), None
    params = _block(config, "workload_params", WorkloadParams)
    hasher.update(f"\n--workload_params--\n{params!r}".encode())
    return None, params


def _load_workload(config, graph, hasher):
    workload, params = _workload_source(config, graph, hasher)
    return workload if params is None else generate_workload(graph, params, config["seed"])


def _load_catalog(config, hasher):
    catalog = (_load_ref(config, "strategies", hasher, load_strategy_catalog)
               if "strategies" in config else default_strategy_catalog())
    count = config.get("strategy_count")
    return tuple(catalog if count is None else catalog_prefix(catalog, count))


def _load_inputs(config, hasher):
    """The config's graph, workload and strategy catalog, hashed in that order."""
    graph = _load_graph(config, hasher)
    workload = _load_workload(config, graph, hasher)
    return graph, workload, _load_catalog(config, hasher)


def _optimizer_config(config, name: str, cls):
    """The config's `name` block as a cls (GaConfig / TrainConfig), None when
    absent or empty. The top-level seed seeds the search, so the block may
    not carry its own."""
    if not config.get(name):
        return None
    if isinstance(config[name], dict) and "seed" in config[name]:
        raise ConfigError(f"{name} block may not carry its own seed; use the top-level seed")
    return _block(config, name, cls)


def _hasher(config) -> "hashlib._Hash":
    # max_workers says how a report runs, not what it computes
    h = hashlib.sha256()
    h.update(json.dumps({key: value for key, value in config.items() if key != "max_workers"},
                        sort_keys=True).encode())
    return h


def _rates_outputs(out_dir, config, workload, selection, solution, config_hash):
    rate_rows = []
    for pair_key in sorted(selection):
        org, a, b = pair_key
        for path, strategy in selection[pair_key]:
            rate = solution.rates.get((pair_key, path.nodes), 0.0)
            rate_rows.append((org, a, b, ">".join(path.nodes),
                              strategy.link_threshold, strategy.max_rounds, rate))
    outputs = [_write_csv(out_dir, "rates.csv",
                          ("org", "src", "dst", "path", "link_threshold", "max_rounds",
                           "rate_eprps"),
                          rate_rows, config_hash)]
    pair_rows = []
    for pair in workload.user_pairs:
        true_egr = solution.true_egr_per_pair.get(pair.key, 0.0)
        pair_rows.append((*pair.key, pair.weight, pair.fidelity_threshold, true_egr))
    outputs.append(_write_csv(out_dir, "pairs.csv",
                              ("org", "src", "dst", "demand_weight", "fidelity_threshold",
                               "true_egr"),
                              pair_rows, config_hash))
    _write_plot(out_dir, outputs, config, "rates.gp",
                "set style data histograms\nset style fill solid 0.7\n"
                "set xtics rotate by -45\nset ylabel 'true EGR (EPR/s)'\n"
                "plot 'pairs.csv' using "
                "6:xtic(stringcolumn(1).'-'.stringcolumn(2).'-'.stringcolumn(3)) "
                "title 'true EGR'\n")
    return outputs


def _search(config, optimizer, baseline_threshold, **options):
    """(config hash, workload, SearchResult) of the one harness.search over
    the config's inputs; options (ga_config, rl_config, hidden) go to it."""
    hasher = _hasher(config)
    graph, workload, catalog = _load_inputs(config, hasher)
    result = search(graph, workload, optimizer, config["seed"],
                    k=config.get("k", DEFAULT_K), p_max=config.get("p_max", DEFAULT_P_MAX),
                    catalog=catalog, baseline_threshold=baseline_threshold, **options)
    return hasher.hexdigest(), workload, result


def _search_outputs(out_dir, config, outputs, config_hash, workload, result):
    """Write a search's selection.txt, rates.csv, pairs.csv (and rates.gp)
    after the outputs written so far; returns the manifest keys every
    search command shares."""
    (out_dir / "selection.txt").write_text(save_selection(result.selection))
    outputs += ["selection.txt", *_rates_outputs(out_dir, config, workload, result.selection,
                                                 result.solution, config_hash)]
    return {"config_hash": config_hash, "status": result.solution.status,
            "wegr": result.solution.wegr, "lp_solves": result.lp_solves,
            "seconds": result.seconds, "outputs": outputs}


def cmd_capacity(config, out_dir):
    hasher = _hasher(config)
    graph = _load_graph(config, hasher)
    config_hash = hasher.hexdigest()
    rows = [(l.endpoints[0], l.endpoints[1], l.length_km, l.multiplex, l.alpha,
             l.base_fidelity, l.capacity_eprps) for l in graph.links]
    outputs = [_write_csv(out_dir, "links.csv",
                          ("src", "dst", "length_km", "multiplex", "alpha", "base_fidelity",
                           "capacity_eprps"),
                          rows, config_hash)]
    _write_plot(out_dir, outputs, config, "links.gp",
                "set xlabel 'length (km)'\nset ylabel 'capacity (EPR/s)'\nset logscale y\n"
                "plot 'links.csv' using 3:7 with points pt 7 title 'links'\n")
    return {
        "config_hash": config_hash,
        "num_nodes": len(graph.nodes),
        "num_repeaters": sum(1 for n in graph.nodes if n.is_repeater),
        "num_links": len(graph.links),
        "outputs": outputs,
    }


def cmd_paths(config, out_dir):
    hasher = _hasher(config)
    graph = _load_graph(config, hasher)
    workload = _load_workload(config, graph, hasher)
    config_hash = hasher.hexdigest()
    k = config.get("k", DEFAULT_K)
    candidates = build_candidate_sets(graph, workload, k=k)
    rows = []
    for pair in workload.user_pairs:
        for rank, path in enumerate(candidates[pair.key]):
            rows.append((*pair.key, rank, path.hop_count, path.bottleneck_capacity,
                         ">".join(path.nodes)))
    outputs = [_write_csv(out_dir, "paths.csv",
                          ("org", "src", "dst", "rank", "hops", "bottleneck_eprps", "path"),
                          rows, config_hash)]
    return {
        "config_hash": config_hash,
        "k": k,
        "num_pairs": len(workload.user_pairs),
        "num_paths": len(rows),
        "outputs": outputs,
    }


def cmd_allocate(config, out_dir):
    source = _require(config, "source")
    if not isinstance(source, dict):
        raise ConfigError(f"source must be a JSON object, got {source!r}")
    if "selection" not in source:
        if "baseline" not in source:
            raise ConfigError("source must contain \"selection\" (file) or \"baseline\" (scheme)")
        return _search_outputs(out_dir, config, [], *_search(
            config, f"baseline-{source['baseline']}",
            source.get("threshold", DEFAULT_BASELINE_THRESHOLD)))
    hasher = _hasher(config)
    graph, workload, _ = _load_inputs(config, hasher)
    compiler = LpCompiler(graph, workload, p_max=config.get("p_max", DEFAULT_P_MAX))

    def parse(text):
        # ids pair by pair, so a pair the workload lacks or over p_max names its line
        selection, first_lines = load_selection(text, graph)
        ids = []
        for pair_key, choices in selection.items():
            try:
                ids += compiler.column_ids({pair_key: choices}).tolist()
            except InputError as exc:
                raise InputError(f"line {first_lines[pair_key]}: {exc}") from None
        return selection, ids

    selection, ids = _load_ref(source, "selection", hasher, parse)
    solution = compiler.solve(ids)
    config_hash = hasher.hexdigest()
    outputs = _rates_outputs(out_dir, config, workload, selection, solution, config_hash)
    return {"config_hash": config_hash, "status": solution.status, "wegr": solution.wegr,
            "outputs": outputs}


def cmd_ga(config, out_dir):
    ga_config = _optimizer_config(config, "ga", ga.GaConfig) or ga.GaConfig()
    config_hash, workload, result = _search(
        config, "ga", config.get("baseline_threshold", DEFAULT_BASELINE_THRESHOLD),
        ga_config=ga_config)
    trace = result.trace
    outputs = [_write_csv(out_dir, "trace.csv", ("generation", "best_wegr", "mean_fitness"),
                          zip(range(len(trace.best_fitness)), trace.best_fitness,
                              trace.mean_fitness), config_hash)]
    manifest = _search_outputs(out_dir, config, outputs, config_hash, workload, result)
    _write_plot(out_dir, outputs, config, "trace.gp",
                "set xlabel 'generation'\nset ylabel 'W-EGR'\n"
                "plot 'trace.csv' using 1:2 with lines lw 2 title 'best', "
                "'trace.csv' using 1:3 with lines title 'population mean'\n")
    manifest.update({
        "fitness_calls": trace.fitness_calls,  # the cache hit rate is 1 - lp_solves / this
        "fitness_helper": trace.fitness_helper,
        "generations": ga_config.generations,
        "pool_fill_seconds": trace.pool_fill_seconds,  # part of seconds: GaProblem's columns
        "generation_seconds": trace.seconds,
        "breed_seconds": trace.breed_seconds,
    })
    return manifest


def cmd_rl(config, out_dir):
    rl_config = _optimizer_config(config, "rl", rl.TrainConfig) or rl.TrainConfig()
    hidden = config.get("hidden", list(DEFAULT_HIDDEN))
    if not isinstance(hidden, list):
        raise ConfigError(f"'hidden' must be a list of layer widths, got {hidden!r}")
    # the RL search seeds no greedy baseline, so no threshold of the config applies
    config_hash, workload, result = _search(config, "rl", DEFAULT_BASELINE_THRESHOLD,
                                            rl_config=rl_config, hidden=tuple(hidden))
    outputs = [_write_csv(out_dir, "trace.csv", ("epoch", "mean_reward"),
                          enumerate(result.trace), config_hash)]
    manifest = _search_outputs(out_dir, config, outputs, config_hash, workload, result)
    (out_dir / "policy.bin").write_bytes(rl.save_policy(result.policy))
    outputs.append("policy.bin")
    _write_plot(out_dir, outputs, config, "trace.gp",
                "set xlabel 'epoch'\nset ylabel 'mean reward (W-EGR)'\n"
                "plot 'trace.csv' using 1:2 with lines lw 2 title 'reward'\n")
    manifest["epochs"] = rl_config.epochs
    return manifest


def cmd_report(config, out_dir):
    hasher = _hasher(config)
    graph = _load_graph(config, hasher)
    catalog = _load_catalog(config, hasher)
    workload, params = _workload_source(config, graph, hasher)
    sweep = config.get("sweep") or {}
    if not isinstance(sweep, dict) or not isinstance(sweep.get("values", []), list):
        raise ConfigError(f"sweep must be an object with a list of values, got {sweep!r}")
    repetitions = config.get("repetitions", 1)
    if "seeds" in config:
        seeds = config["seeds"]
        if not isinstance(seeds, list):
            raise ConfigError(f"'seeds' must be a list of integers, got {seeds!r}")
    else:  # one per repetition from the top-level seed; Scenario refuses a bad count
        seeds = range(config["seed"], config["seed"] + repetitions) \
            if isinstance(repetitions, int) else ()
    if "hidden" in config:
        raise ConfigError(f"report trains the default {DEFAULT_HIDDEN} policy; "
                          "\"hidden\" is read by `qvpn rl` only")
    fairness = _config_bool(config, "fairness", True)
    scenario = Scenario(
        name=config.get("name", "report"),
        graph=graph,
        workload=workload,
        workload_params=params,
        optimizer=config.get("optimizer", DEFAULT_OPTIMIZER),
        ga_config=_optimizer_config(config, "ga", ga.GaConfig),
        rl_config=_optimizer_config(config, "rl", rl.TrainConfig),
        sweep_axis=sweep.get("axis"),
        sweep_values=tuple(sweep.get("values", ())),
        repetitions=repetitions,
        seeds=tuple(seeds),
        k=config.get("k", DEFAULT_K),
        p_max=config.get("p_max", DEFAULT_P_MAX),
        catalog=catalog,
        baseline_threshold=config.get("baseline_threshold", DEFAULT_BASELINE_THRESHOLD),
    )
    config_hash = hasher.hexdigest()

    finder = PathFinder(graph)
    result = run_scenario(scenario, max_workers=config.get("max_workers", 1), finder=finder)
    # a CSV cell holds no commas or newlines; the manifest keeps the full error
    sweep_rows = [
        (p.axis_value if p.axis_value is not None else "", p.repetition, p.seed,
         p.status, p.wegr, (p.error or "").replace(",", ";").replace("\n", " "))
        for p in result.points
    ]
    comments = (f"scenario_hash={result.config_hash}",)
    outputs = [_write_csv(out_dir, "sweep.csv",
                          ("axis_value", "repetition", "seed", "status", "wegr", "error"),
                          sweep_rows, config_hash, comments)]
    _write_plot(out_dir, outputs, config, "sweep.gp",
                f"set xlabel '{scenario.sweep_axis or 'run'}'\nset ylabel 'W-EGR'\n"
                "plot 'sweep.csv' using 1:5 with linespoints lw 2 title 'W-EGR'\n")

    manifest = {
        "config_hash": config_hash,
        "scenario_hash": result.config_hash,
        "points": [
            {"axis_value": p.axis_value, "repetition": p.repetition, "seed": p.seed,
             "status": p.status,
             "wegr": None if math.isnan(p.wegr) else p.wegr,
             "seconds": p.seconds, "error": p.error}
            for p in result.points
        ],
        # path searches asked, Yen runs done and the shortest-path searches run
        # inside them; each worker process keeps its own memo, so the last two
        # depend on max_workers and all three stay out of every CSV
        **finder.counts(),
        "outputs": outputs,
    }

    if fairness:
        final = result.points[-1]
        if final.status == "optimal":
            try:
                final_workload = point_workload(scenario, final.axis_value, final.seed)
                report = fairness_report(final.solution, final_workload, final.selection)
            except DegenerateVarianceError as exc:
                manifest["fairness_skipped"] = str(exc)
            else:
                pair_rows = [(*r.pair_key, r.true_egr, r.weighted_egr, r.demand_weight,
                              r.fidelity_threshold, r.min_hops, r.composite)
                             for r in report.pair_rows]
                outputs.append(_write_csv(
                    out_dir, "fairness.csv",
                    ("org", "src", "dst", "true_egr", "weighted_egr", "demand_weight",
                     "fidelity_threshold", "min_hops", "composite"),
                    pair_rows, config_hash,
                    (f"zero_rate_pairs={report.zero_rate_pairs}",)))
                outputs.append(_write_csv(
                    out_dir, "correlations.csv", ("metric", "pearson_r"),
                    [("demand_weight", report.corr_demand),
                     ("fidelity_threshold", report.corr_fidelity),
                     ("min_hops", report.corr_hops),
                     ("composite", report.corr_composite)],
                    config_hash))
                outputs.append(_write_csv(
                    out_dir, "orgs.csv", ("org", "true_egr", "weighted_egr"),
                    [(org, true, dict(report.org_weighted_egr)[org])
                     for org, true in report.org_true_egr],
                    config_hash))
                manifest["total_wegr"] = report.total_wegr
                manifest["zero_rate_pairs"] = report.zero_rate_pairs
                _write_plot(out_dir, outputs, config, "fairness.gp",
                            "set xlabel 'user pair (descending true EGR)'\n"
                            "set ylabel 'EPR/s'\nset logscale y\n"
                            "plot 'fairness.csv' using 0:4 with steps lw 2 title 'true EGR', "
                            "'fairness.csv' using 0:5 with steps title 'weighted EGR'\n")
        else:
            manifest["fairness_skipped"] = f"final point status {final.status!r}"
    return manifest


_LP_COMMANDS = ("allocate", "ga", "rl", "report")

_COMMANDS = {
    "capacity": cmd_capacity,
    "paths": cmd_paths,
    "allocate": cmd_allocate,
    "ga": cmd_ga,
    "rl": cmd_rl,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qvpn",
        description="qVPN resource management: capacities, candidate paths, "
                    "rate allocation, GA/RL selection search, sweep reports.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("capacity", "derive per-link EPR capacities from a topology file"),
        ("paths", "enumerate candidate paths for a workload"),
        ("allocate", "solve the rate-allocation LP for a selection or baseline"),
        ("ga", "genetic search over joint path/strategy selections"),
        ("rl", "policy-gradient search over path selections"),
        ("report", "scenario sweep with fairness statistics"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory (created if missing)")
    args = parser.parse_args(argv)

    out_dir = Path(args.out)
    start = time.perf_counter()
    try:
        config = _load_config(args.config)
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest = _COMMANDS[args.command](config, out_dir)
    except InputError as exc:  # a rule that the config or a file it names breaks
        print(f"qvpn: config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"qvpn: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    manifest.update({
        "command": args.command,
        "version": 1,
        "seed": config["seed"],
        "total_seconds": time.perf_counter() - start,
    })
    if args.command in _LP_COMMANDS:
        manifest["lp_backend"] = lp_backend()  # which solver route produced the run
    _write_manifest(out_dir, manifest)
    status = manifest.get("status")
    wegr = manifest.get("wegr", manifest.get("total_wegr"))
    summary = f"qvpn {args.command}: wrote {len(manifest['outputs'])} outputs to {out_dir}"
    if status is not None:
        summary += f" (status={status}"
        summary += f", wegr={wegr})" if wegr is not None else ")"
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
