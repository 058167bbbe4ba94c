"""End-to-end runs of the qvpn command line driver on tiny configs."""

import json
from pathlib import Path

import numpy as np
import pytest

from qvpn import ga_optimizer as ga
from qvpn import rl_optimizer as rl
from qvpn.allocation_lp import LpCompiler, build_problem, solve
from qvpn.cli import _fmt, _rates_outputs, main
from qvpn.harness import Scenario, load_selection, run_scenario, save_selection
from qvpn.pathfinding import (
    WeightScheme,
    baseline_selection,
    build_candidate_sets,
    nearest_strategy_index,
)
from qvpn.quantum_math import default_strategy_catalog
from qvpn.rl_optimizer import load_policy
from qvpn.topology import NetworkGraph, NodeSpec, load_topology, make_link, save_topology
from qvpn.workload import Organization, UserPair, Workload, load_workload, save_workload

from qvpn_helpers import dead_link_case


def _triangle_graph():
    nodes = (NodeSpec("A"), NodeSpec("B"), NodeSpec("C", is_repeater=True))
    links = (make_link("A", "B", 10.0), make_link("A", "C", 10.0),
             make_link("C", "B", 10.0))
    return NetworkGraph(nodes=nodes, links=links)


def _triangle_files(tmp_path):
    """Write a 3-node topology and a 2-pair workload; return their paths.

    The heavier pair is r_max-capped; without the cap the LP hands every
    link to it (a detour costs nothing at q=1) and the other pair starves.
    """
    topo = tmp_path / "net.topo"
    topo.write_text(save_topology(_triangle_graph()))
    wl = Workload(
        organizations=(Organization("org1", 0.8), Organization("org2", 1.0)),
        user_pairs=(
            UserPair("org1", ("A", "B"), weight=0.5, fidelity_threshold=0.7,
                     r_min=0.0, r_max=1e9),
            UserPair("org2", ("A", "C"), weight=0.9, fidelity_threshold=0.75,
                     r_min=0.0, r_max=1000.0),
        ),
        seed=0,
    )
    wlf = tmp_path / "demo.workload"
    wlf.write_text(save_workload(wl))
    return topo, wlf


def _config(tmp_path, name, base, **extra):
    cfg = dict(base)
    cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def _base(topo, workload=None, seed=0):
    cfg = {"version": 1, "seed": seed, "topology": str(topo)}
    if workload is not None:
        cfg["workload"] = str(workload)
    return cfg


def _manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def _csv_rows(path):
    """Split a CSV into (comment lines, header cells, data rows)."""
    lines = path.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    header = body[0].split(",")
    rows = [l.split(",") for l in body[1:]]
    return comments, header, rows


def test_capacity_links_csv_and_manifest(tmp_path, capsys):
    topo, _ = _triangle_files(tmp_path)
    cfg = _config(tmp_path, "cap.json", _base(topo))
    out = tmp_path / "out"
    assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == 0

    manifest = _manifest(out)
    assert manifest["command"] == "capacity"
    assert manifest["version"] == 1
    assert manifest["seed"] == 0
    assert manifest["num_nodes"] == 3
    assert manifest["num_repeaters"] == 1
    assert manifest["num_links"] == 3
    assert "links.csv" in manifest["outputs"]
    assert manifest["total_seconds"] >= 0.0

    comments, header, rows = _csv_rows(out / "links.csv")
    assert comments == [f"# config_hash={manifest['config_hash']}"]
    assert header == ["src", "dst", "length_km", "multiplex", "alpha",
                      "base_fidelity", "capacity_eprps"]
    assert len(rows) == 3
    for row in rows:
        assert float(row[6]) == pytest.approx(252382.93779207728, abs=1e-6)
        assert float(row[5]) == 0.8
    assert "qvpn capacity" in capsys.readouterr().out


def test_capacity_engineer_splits_long_links(tmp_path):
    graph = NetworkGraph(
        nodes=(NodeSpec("D"), NodeSpec("E")),
        links=(make_link("D", "E", 25.0),),
    )
    topo = tmp_path / "long.topo"
    topo.write_text(save_topology(graph))
    cfg = _config(tmp_path, "cap.json", _base(topo),
                  engineer={"threshold_km": 20.0, "spacing_km": 10.0})
    out = tmp_path / "out"
    assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = _manifest(out)
    # ceil(25/10) = 3 segments, so 2 inserted repeaters
    assert manifest["num_nodes"] == 4
    assert manifest["num_repeaters"] == 2
    assert manifest["num_links"] == 3


def test_link_at_or_below_a_quarter_fidelity_drops_its_columns(tmp_path):
    # alpha 0.8 gives a link of base fidelity 0.2, which no round distills:
    # its columns leave the LP as those of an alpha 0.6 link (F 0.4) do, so
    # the two topologies give the same rates. allocate and ga used to exit 1
    # with "input fidelity must lie in (0.25,1]"
    _, wlf = _triangle_files(tmp_path)
    bodies = {}
    for alpha in (0.6, 0.8):
        topo = tmp_path / f"weak-{alpha}.topo"
        topo.write_text("qvpn-topology v1\nnode A\nnode B\nnode C repeater\n"
                        f"link A B 10.0 alpha={alpha}\nlink A C 10.0\nlink C B 10.0\n")
        for command, extra in (("capacity", {}), ("allocate", {"source": {"baseline": "hop"}}),
                               ("ga", {"ga": {"population_size": 4, "generations": 2}})):
            cfg = _config(tmp_path, f"{command}.json", _base(topo, wlf), **extra)
            out = tmp_path / f"{command}-{alpha}"
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0, (command, alpha)
            if command != "capacity":
                assert _manifest(out)["status"] == "optimal"
                for name in ("rates.csv", "pairs.csv"):
                    bodies.setdefault((command, name), []).append(_csv_rows(out / name)[1:])
        _, _, rows = _csv_rows(tmp_path / f"allocate-{alpha}" / "rates.csv")
        assert [float(r[6]) for r in rows if r[3] == "A>B"] == [0.0]
        assert any(float(r[6]) > 0 for r in rows)
    for key, (weak, separable) in bodies.items():
        assert weak == separable, key


def test_engineer_spacing_past_the_threshold_exits_2(tmp_path, capsys):
    # threshold 5, spacing 8 turned a 10 km link into 8 km and 2 km segments
    graph = NetworkGraph(nodes=(NodeSpec("D"), NodeSpec("E")),
                         links=(make_link("D", "E", 10.0),))
    topo = tmp_path / "long.topo"
    topo.write_text(save_topology(graph))
    out = tmp_path / "out"
    for spacing, code in ((8.0, 2), (5.0, 0)):
        cfg = _config(tmp_path, "cap.json", _base(topo),
                      engineer={"threshold_km": 5, "spacing_km": spacing})
        assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == code, spacing
    assert "spacing_km must be a number in (0, 5], got 8.0" in capsys.readouterr().err
    _, _, rows = _csv_rows(out / "links.csv")
    assert [float(r[2]) for r in rows] == [5.0, 5.0]


def test_ids_with_commas_exit_2_naming_the_line(tmp_path, capsys):
    # such ids loaded, then every command writing CSVs exited 1 with
    # "CSV cell may not contain commas"
    topo, wlf = _triangle_files(tmp_path)
    out = tmp_path / "out"
    bad_topo = tmp_path / "comma.topo"
    bad_topo.write_text("qvpn-topology v1\nnode A\nnode B,1\n")
    cfg = _config(tmp_path, "cap.json", _base(bad_topo))
    assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == 2
    assert "line 3: node id may not contain a comma, got 'B,1'" in capsys.readouterr().err
    for lines, where in (("org org,1 1.0\npair org,1 A B 0.5 0.7 0.0 10.0", "line 2: org id"),
                         ("org org1 1.0\npair org1 A B,1 0.5 0.7 0.0 10.0", "line 3: pair id")):
        bad_wl = tmp_path / "comma.workload"
        bad_wl.write_text(f"qvpn-workload v1\n{lines}\n")
        cfg = _config(tmp_path, "alloc.json", _base(topo, bad_wl), source={"baseline": "hop"})
        assert main(["allocate", "--config", str(cfg), "--out", str(out)]) == 2, lines
        assert f"{where} may not contain a comma" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_paths_rows_match_manifest(tmp_path):
    topo, wlf = _triangle_files(tmp_path)
    cfg = _config(tmp_path, "paths.json", _base(topo, wlf), k=4)
    out = tmp_path / "out"
    assert main(["paths", "--config", str(cfg), "--out", str(out)]) == 0

    manifest = _manifest(out)
    assert manifest["k"] == 4
    assert manifest["num_pairs"] == 2
    _, header, rows = _csv_rows(out / "paths.csv")
    assert header == ["org", "src", "dst", "rank", "hops", "bottleneck_eprps", "path"]
    assert len(rows) == manifest["num_paths"]
    # each pair's ranks count up from 0 and every path string starts at src
    by_pair = {}
    for row in rows:
        by_pair.setdefault((row[0], row[1], row[2]), []).append(row)
    assert set(by_pair) == {("org1", "A", "B"), ("org2", "A", "C")}
    for key, group in by_pair.items():
        assert [int(r[3]) for r in group] == list(range(len(group)))
        for r in group:
            nodes = r[6].split(">")
            assert (nodes[0], nodes[-1]) == (key[1], key[2])
            assert int(r[4]) == len(nodes) - 1


def test_allocate_baseline_writes_rates(tmp_path):
    topo, wlf = _triangle_files(tmp_path)
    cfg = _config(tmp_path, "alloc.json", _base(topo, wlf),
                  source={"baseline": "hop"})
    out = tmp_path / "out"
    assert main(["allocate", "--config", str(cfg), "--out", str(out)]) == 0

    manifest = _manifest(out)
    assert manifest["status"] == "optimal"
    assert manifest["wegr"] > 0.0
    comments, header, rows = _csv_rows(out / "rates.csv")
    assert comments[0].startswith("# config_hash=")
    assert header == ["org", "src", "dst", "path", "link_threshold",
                      "max_rounds", "rate_eprps"]
    assert all(float(r[6]) >= 0.0 for r in rows)

    _, pair_header, pair_rows = _csv_rows(out / "pairs.csv")
    assert len(pair_rows) == 2
    assert pair_header[:3] == ["org", "src", "dst"]


def test_manifest_names_the_lp_backend(tmp_path, monkeypatch):
    from qvpn import allocation_lp
    topo, wlf = _triangle_files(tmp_path)
    cfg = _config(tmp_path, "alloc.json", _base(topo, wlf), source={"baseline": "hop"})
    fast = tmp_path / "fast"
    assert main(["allocate", "--config", str(cfg), "--out", str(fast)]) == 0
    assert _manifest(fast)["lp_backend"] == allocation_lp.lp_backend()
    monkeypatch.setattr(allocation_lp, "_highs", None)
    slow = tmp_path / "slow"
    assert main(["allocate", "--config", str(cfg), "--out", str(slow)]) == 0
    assert _manifest(slow)["lp_backend"] == "linprog"
    # the route is recorded in the manifest only; the CSVs do not change
    for name in _manifest(slow)["outputs"]:
        assert (fast / name).read_bytes() == (slow / name).read_bytes(), name
    paths = tmp_path / "paths"
    assert main(["paths", "--config", str(_config(tmp_path, "p.json", _base(topo, wlf))),
                 "--out", str(paths)]) == 0
    assert "lp_backend" not in _manifest(paths)


def test_allocate_unknown_baseline_is_config_error(tmp_path, capsys):
    topo, wlf = _triangle_files(tmp_path)
    cfg = _config(tmp_path, "alloc.json", _base(topo, wlf),
                  source={"baseline": "shortest"})
    out = tmp_path / "out"
    assert main(["allocate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "shortest" in err


def test_allocate_selection_that_breaks_the_workload_is_config_error(tmp_path, capsys):
    # a pair the workload lacks, and more paths than p_max for one it has
    topo, wlf = _triangle_files(tmp_path)
    header = "qvpn-selection v1\n"
    cases = {
        "unknown": ("select org9 A B path A B threshold 0.9 max_rounds 8\n", 3,
                    "selection references unknown pair ('org9', 'A', 'B')"),
        "over_cap": ("select org1 A B path A B threshold 0.9 max_rounds 8\n"
                     "select org1 A B path A C B threshold 0.9 max_rounds 8\n", 1,
                     "pair ('org1', 'A', 'B') selects 2 paths, cap is 1"),
    }
    for name, (lines, p_max, message) in cases.items():
        sel = tmp_path / f"{name}.sel"
        sel.write_text(header + lines)
        cfg = _config(tmp_path, f"{name}.json", _base(topo, wlf), p_max=p_max,
                      source={"selection": str(sel)})
        assert main(["allocate", "--config", str(cfg), "--out", str(tmp_path / name)]) == 2
        err = capsys.readouterr().err
        # named with the file, as the selection's own rules are
        assert f"config error: selection file {str(sel)!r}: {message}" in err, err


def test_ga_outputs_then_allocate_from_selection(tmp_path):
    """ga writes a selection file that allocate can replay to the same W-EGR."""
    topo, wlf = _triangle_files(tmp_path)
    ga_cfg = _config(tmp_path, "ga.json", _base(topo, wlf),
                     p_max=2, strategy_count=4,
                     ga={"population_size": 8, "generations": 3})
    ga_out = tmp_path / "ga_out"
    assert main(["ga", "--config", str(ga_cfg), "--out", str(ga_out)]) == 0

    manifest = _manifest(ga_out)
    assert manifest["generations"] == 3
    # seconds is the whole search, as in rl's manifest; generation 0 is timed too
    assert isinstance(manifest["seconds"], float)
    assert len(manifest["generation_seconds"]) == 3 + 1
    # the layout's columns are computed once, inside seconds, before generation 0
    assert 0 < manifest["pool_fill_seconds"] < manifest["seconds"]
    # breeding and keying are part of each generation's time
    assert len(manifest["breed_seconds"]) == 3 + 1
    assert all(0 <= b <= g for b, g in zip(manifest["breed_seconds"],
                                            manifest["generation_seconds"]))
    assert 0 < manifest["lp_solves"] < manifest["fitness_calls"] == 8 * (3 + 1)
    assert isinstance(manifest["fitness_helper"], bool)
    assert manifest["status"] == "optimal"
    _, header, rows = _csv_rows(ga_out / "trace.csv")
    assert header == ["generation", "best_wegr", "mean_fitness"]
    assert len(rows) == 4
    best = [float(r[1]) for r in rows]
    assert best == sorted(best)

    sel_path = ga_out / "selection.txt"
    text = sel_path.read_text()
    assert text.startswith("qvpn-selection v1")
    load_selection(text, _triangle_graph())

    alloc_cfg = _config(tmp_path, "replay.json", _base(topo, wlf),
                        p_max=2, source={"selection": str(sel_path)})
    alloc_out = tmp_path / "replay_out"
    assert main(["allocate", "--config", str(alloc_cfg), "--out", str(alloc_out)]) == 0
    replay = _manifest(alloc_out)
    assert replay["status"] == "optimal"
    assert replay["wegr"] == pytest.approx(manifest["wegr"], rel=1e-9)


def test_ga_rerun_is_byte_identical(tmp_path):
    topo, wlf = _triangle_files(tmp_path)
    cfg = _config(tmp_path, "ga.json", _base(topo, wlf),
                  p_max=2, strategy_count=4,
                  ga={"population_size": 6, "generations": 2})
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["ga", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["ga", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("trace.csv", "selection.txt", "rates.csv", "pairs.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_rl_outputs_and_policy_checkpoint(tmp_path):
    topo, wlf = _triangle_files(tmp_path)
    cfg = _config(tmp_path, "rl.json", _base(topo, wlf),
                  p_max=1, strategy_count=2, hidden=[8],
                  rl={"epochs": 5, "batch_size": 2})
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["rl", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["rl", "--config", str(cfg), "--out", str(out2)]) == 0

    manifest = _manifest(out1)
    assert manifest["epochs"] == 5
    assert isinstance(manifest["seconds"], float)
    assert manifest["lp_solves"] >= 1
    _, header, rows = _csv_rows(out1 / "trace.csv")
    assert header == ["epoch", "mean_reward"]
    assert len(rows) == 5

    blob = (out1 / "policy.bin").read_bytes()
    policy = load_policy(blob)
    assert policy.num_parameters() > 0
    assert blob == (out2 / "policy.bin").read_bytes()
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    # the reloaded policy picks the selection the run wrote
    graph = load_topology(topo.read_text())
    workload = load_workload(wlf.read_text(), graph)
    problem = rl.RlProblem(workload, build_candidate_sets(graph, workload, k=5),
                           default_strategy_catalog()[0], p_max=1)
    selection = rl.greedy_selection(policy, problem)
    assert save_selection(selection) == (out1 / "selection.txt").read_text()

    # the untrained policy, through a checkpoint, trains to the run's trace
    # and policy.bin
    fresh = load_policy(rl.save_policy(rl.PolicyNetwork.init(problem, hidden=(8,), seed=0)))
    _, trace, _ = rl.train(fresh, problem, rl.TrainConfig(epochs=5, batch_size=2, seed=0),
                           rl.cached_reward(LpCompiler(graph, workload, p_max=1)))
    assert trace == [float(row[1]) for row in rows]
    assert rl.save_policy(fresh) == blob


def test_report_sweep_fairness_and_rerun(tmp_path):
    topo, wlf = _triangle_files(tmp_path)
    cfg = _config(tmp_path, "report.json", _base(topo, wlf),
                  optimizer="baseline-hop", repetitions=2,
                  sweep={"axis": "p_max", "values": [1, 2]})
    out = tmp_path / "out"
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0

    manifest = _manifest(out)
    points = manifest["points"]
    assert [(p["axis_value"], p["repetition"]) for p in points] == [
        (1, 0), (1, 1), (2, 0), (2, 1)]
    assert [p["seed"] for p in points] == [0, 1, 0, 1]
    assert all(p["status"] == "optimal" for p in points)
    assert len(manifest["scenario_hash"]) == 64
    assert manifest["zero_rate_pairs"] == 0
    assert manifest["total_wegr"] > 0.0

    comments, header, rows = _csv_rows(out / "sweep.csv")
    assert any(c == f"# scenario_hash={manifest['scenario_hash']}" for c in comments)
    assert header == ["axis_value", "repetition", "seed", "status", "wegr", "error"]
    assert len(rows) == 4

    _, corr_header, corr_rows = _csv_rows(out / "correlations.csv")
    assert corr_header == ["metric", "pearson_r"]
    assert [r[0] for r in corr_rows] == [
        "demand_weight", "fidelity_threshold", "min_hops", "composite"]

    fair_comments, _, fair_rows = _csv_rows(out / "fairness.csv")
    assert any(c.startswith("# zero_rate_pairs=") for c in fair_comments)
    assert len(fair_rows) == 2
    _, org_header, org_rows = _csv_rows(out / "orgs.csv")
    assert org_header == ["org", "true_egr", "weighted_egr"]
    assert sorted(r[0] for r in org_rows) == ["org1", "org2"]

    out2 = tmp_path / "again"
    assert main(["report", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("sweep.csv", "fairness.csv", "correlations.csv", "orgs.csv"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_report_manifest_counts_path_searches(tmp_path):
    # 4 points x 2 pairs: 1 candidate query (hop at p_max) and 1 baseline query
    # each. Serially (so the counts are exact) Yen runs once per pair for
    # p_max=1 and again for p_max=2; the second repetition reuses them
    topo, wlf = _triangle_files(tmp_path)
    cfg = _config(tmp_path, "report.json", _base(topo, wlf),
                  optimizer="baseline-hop", repetitions=2,
                  sweep={"axis": "p_max", "values": [1, 2]})
    out = tmp_path / "out"
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = _manifest(out)
    assert manifest["path_queries"] == 16
    assert manifest["yen_runs"] == 4
    # every search, k=1 too, is answered from its destination's
    # shortest-path tree
    assert manifest["spur_searches"] == 0
    for name in manifest["outputs"]:
        for count in ("yen_runs", "path_queries", "spur_searches"):
            assert count not in (out / name).read_text()
    # two workers, one repetition each: each runs both p_max values' 4 searches
    cfg = _config(tmp_path, "report2.json", _base(topo, wlf),
                  optimizer="baseline-hop", repetitions=2,
                  sweep={"axis": "p_max", "values": [1, 2]}, max_workers=2)
    assert main(["report", "--config", str(cfg), "--out", str(tmp_path / "out2")]) == 0
    manifest = _manifest(tmp_path / "out2")
    assert (manifest["path_queries"], manifest["yen_runs"], manifest["spur_searches"]) == \
        (16, 8, 0)


def test_report_outputs_do_not_depend_on_max_workers(tmp_path):
    # worker processes change how the sweep runs, not one byte of its CSVs
    topo, wlf = _triangle_files(tmp_path)
    outputs = []
    for workers in (1, 2, 3):
        cfg = _config(tmp_path, f"report{workers}.json", _base(topo, wlf),
                      optimizer="ga", ga={"population_size": 4, "generations": 2},
                      repetitions=2, sweep={"axis": "p_max", "values": [1, 2]},
                      max_workers=workers)
        out = tmp_path / f"out{workers}"
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = _manifest(out)
        outputs.append((manifest["config_hash"],
                        {name: (out / name).read_bytes() for name in manifest["outputs"]}))
    assert len(outputs[0][1]) == 4
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_report_error_text_with_commas_fits_the_csv(tmp_path):
    # k=1 leaves the second hop-ranked path out of the candidate sets, so the
    # baseline fails at that point with an error naming the pair-key tuple
    topo, wlf = _triangle_files(tmp_path)
    cfg = _config(tmp_path, "report.json", _base(topo, wlf),
                  optimizer="baseline-hop", sweep={"axis": "k", "values": [1, 2]})
    out = tmp_path / "out"
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = _manifest(out)
    error = manifest["points"][0]["error"]
    assert "('org1', 'A', 'B') missing from its candidate set" in error
    assert manifest["points"][1]["status"] == "optimal"
    _, header, rows = _csv_rows(out / "sweep.csv")
    assert [len(r) for r in rows] == [len(header)] * 2
    assert rows[0][3] == "error"
    assert rows[0][5] == error.replace(",", ";")
    assert rows[1][5] == ""


def test_allocate_dead_link_pair_writes_the_same_csvs(tmp_path):
    # D's only link has capacity 0, so an inv-egr baseline now leaves the
    # pair (A, D) out of its selection, where the three-scheme candidate union
    # kept it with no paths; rates.csv and pairs.csv keep every byte
    graph, workload = dead_link_case()
    topo, wlf = tmp_path / "dead.topo", tmp_path / "dead.workload"
    topo.write_text(save_topology(graph))
    wlf.write_text(save_workload(workload))
    config = dict(_base(topo, wlf), source={"baseline": "inv-egr"})
    cfg = _config(tmp_path, "allocate.json", config)
    out = tmp_path / "out"
    assert main(["allocate", "--config", str(cfg), "--out", str(out)]) == 0

    graph = load_topology(topo.read_text())
    workload = load_workload(wlf.read_text(), graph)
    catalog = default_strategy_catalog()
    candidates = build_candidate_sets(graph, workload, k=5)
    selection = baseline_selection(graph, workload, candidates, WeightScheme.INV_EGR, p_max=3,
                                   strategy_index=nearest_strategy_index(catalog, 0.992),
                                   catalog=catalog)
    assert selection[("org0", "A", "D")] == []
    union = tmp_path / "union"
    union.mkdir()
    solution = solve(build_problem(graph, workload, selection, p_max=3))
    assert _rates_outputs(union, config, workload, selection, solution,
                          _manifest(out)["config_hash"]) == ["rates.csv", "pairs.csv"]
    for name in ("rates.csv", "pairs.csv"):
        assert (out / name).read_bytes() == (union / name).read_bytes()


def test_report_rejects_hidden(tmp_path, capsys):
    topo, wlf = _triangle_files(tmp_path)
    cfg = _config(tmp_path, "report.json", _base(topo, wlf), optimizer="rl",
                  hidden=[4], rl={"epochs": 2, "batch_size": 2})
    out = tmp_path / "out"
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "hidden" in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command, optimizer, extra", [
    ("allocate", "baseline-inv-egr", {"source": {"baseline": "inv-egr"}}),
    ("ga", "ga", {"ga": {"population_size": 8, "generations": 3}}),
    ("rl", "rl", {"rl": {"epochs": 3, "batch_size": 2}}),
])
def test_cli_matches_the_harness_point(tmp_path, command, optimizer, extra):
    """A command and the one-point scenario of the same search agree."""
    topo, wlf = _triangle_files(tmp_path)
    config = dict(_base(topo, wlf, seed=3), p_max=2, k=4, strategy_count=5, **extra)
    cfg = _config(tmp_path, f"{command}.json", config)
    out = tmp_path / command
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0

    graph = load_topology(topo.read_text())
    scenario = Scenario(
        name=command, graph=graph,
        workload=load_workload(wlf.read_text(), graph), optimizer=optimizer,
        ga_config=ga.GaConfig(**extra["ga"]) if "ga" in extra else None,
        rl_config=rl.TrainConfig(**extra["rl"]) if "rl" in extra else None,
        seeds=(3,), k=4, p_max=2, catalog=tuple(default_strategy_catalog()[:5]))
    (point,) = run_scenario(scenario).points
    assert point.status == "optimal"
    assert _manifest(out)["wegr"] == point.wegr
    assert (out / "selection.txt").read_text() == save_selection(point.selection)
    _, _, rows = _csv_rows(out / "rates.csv")
    assert [tuple(r[:6]) for r in rows] == [
        (*pk, ">".join(path.nodes), repr(st.link_threshold), str(st.max_rounds))
        for pk in sorted(point.selection) for path, st in point.selection[pk]]


def test_search_commands_share_manifest_keys_and_list_every_output(tmp_path):
    """allocate (baseline source), ga and rl write their selection and rates
    through one route: each manifest carries the shared keys, and its
    outputs name exactly the files the run wrote."""
    topo, wlf = _triangle_files(tmp_path)
    shared = {"config_hash", "status", "wegr", "lp_solves", "seconds", "outputs"}
    for command, extra in (("allocate", {"source": {"baseline": "hop"}}),
                           ("ga", {"ga": {"population_size": 4, "generations": 2}}),
                           ("rl", {"rl": {"epochs": 2, "batch_size": 2}, "hidden": [4]})):
        cfg = _config(tmp_path, f"{command}.json", _base(topo, wlf), emit_plots=True, **extra)
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        manifest = _manifest(out)
        assert shared <= set(manifest), command
        assert manifest["status"] == "optimal"
        written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert sorted(manifest["outputs"]) == written, command
        assert {"selection.txt", "rates.csv", "pairs.csv", "rates.gp"} <= set(written)
    assert "policy.bin" in written


def test_report_single_pair_skips_fairness(tmp_path):
    topo, _ = _triangle_files(tmp_path)
    wl = Workload(
        organizations=(Organization("solo", 1.0),),
        user_pairs=(UserPair("solo", ("A", "B"), weight=0.5,
                             fidelity_threshold=0.7, r_min=0.0, r_max=1e9),),
        seed=0,
    )
    wlf = tmp_path / "solo.workload"
    wlf.write_text(save_workload(wl))
    cfg = _config(tmp_path, "report.json", _base(topo, wlf),
                  optimizer="baseline-hop")
    out = tmp_path / "out"
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = _manifest(out)
    assert "at least 2 pairs" in manifest["fairness_skipped"]
    assert not (out / "fairness.csv").exists()


def test_config_errors_exit_2(tmp_path, capsys):
    topo, wlf = _triangle_files(tmp_path)
    out = tmp_path / "out"

    def rc(command, name, base, **extra):
        cfg = _config(tmp_path, name, base, **extra)
        code = main([command, "--config", str(cfg), "--out", str(out)])
        assert "config error" in capsys.readouterr().err
        return code

    bad_version = dict(_base(topo), version=2)
    assert rc("capacity", "v2.json", bad_version) == 2

    no_seed = {"version": 1, "topology": str(topo)}
    assert rc("capacity", "noseed.json", no_seed) == 2

    str_seed = {"version": 1, "seed": "0", "topology": str(topo)}
    assert rc("capacity", "strseed.json", str_seed) == 2

    assert rc("ga", "gaseed.json", _base(topo, wlf),
              ga={"generations": 2, "seed": 7}) == 2
    assert rc("rl", "rlseed.json", _base(topo, wlf),
              rl={"epochs": 2, "seed": 7}) == 2

    # paths requires exactly one workload source
    assert rc("paths", "nowl.json", _base(topo)) == 2
    both = dict(_base(topo, wlf))
    both["workload_params"] = {"num_orgs": 1, "pairs_per_org": 1}
    assert rc("paths", "bothwl.json", both) == 2
    assert rc("report", "bothwl.json", both) == 2

    missing = dict(_base(topo))
    missing["topology"] = str(tmp_path / "nope.topo")
    assert rc("capacity", "missing.json", missing) == 2

    # random_r_max draws R_max ~ Unif[10, r_max]: these used to exit 1 from
    # numpy, or fail to generate on most seeds
    for params, rule in (({"r_max": 5}, "r_max with random_r_max"),
                         ({"r_max": float("inf")}, "r_max with random_r_max"),
                         ({"r_min": 50}, "r_min with random_r_max")):
        cfg = _config(tmp_path, "rmax.json", _base(topo),
                      workload_params=dict(params, random_r_max=True))
        assert main(["paths", "--config", str(cfg), "--out", str(out)]) == 2, params
        assert rule in capsys.readouterr().err
    # a bare seed line in a workload file used to exit 1 with an IndexError
    bare = tmp_path / "bare.workload"
    bare.write_text(wlf.read_text().replace("seed 0", "seed"))
    assert rc("paths", "bare.json", _base(topo, bare)) == 2

    assert rc("allocate", "badsrc.json", _base(topo, wlf), source={}) == 2
    assert rc("report", "badscen.json", _base(topo, wlf),
              sweep={"axis": "volume", "values": [1, 2]}) == 2
    assert rc("allocate", "badcount.json", _base(topo, wlf),
              source={"baseline": "hop"}, strategy_count=99) == 2
    # strategy files: a repeated threshold would give two catalog entries one LP column
    for name, text in (("repeat.cat", "0.9\n0.9\n0.95\n"), ("desc.cat", "0.95\n0.9\n"),
                       ("word.cat", "0.9\nhigh\n"), ("empty.cat", "# none\n")):
        (tmp_path / name).write_text(text)
        for command in ("ga", "report"):
            assert rc(command, "cat.json", _base(topo, wlf), optimizer="ga",
                      strategies=str(tmp_path / name)) == 2, (name, command)

    # ga / rl blocks: values the dataclass rejects, unknown fields, wrong type
    for command in ("ga", "report"):
        assert rc(command, "gasize.json", _base(topo, wlf), optimizer="ga",
                  ga={"population_size": 0}) == 2
        assert rc(command, "gafield.json", _base(topo, wlf), optimizer="ga",
                  ga={"populaton_size": 8}) == 2
        # the GA is seeded with the three greedy baselines
        assert rc(command, "gatwo.json", _base(topo, wlf), optimizer="ga",
                  ga={"population_size": 2}) == 2
    for command in ("rl", "report"):
        assert rc(command, "rllr.json", _base(topo, wlf), optimizer="rl",
                  rl={"learning_rate": -1}) == 2
        assert rc(command, "rlfield.json", _base(topo, wlf), optimizer="rl",
                  rl={"epoch": 2}) == 2
    assert rc("report", "rlseed.json", _base(topo, wlf), rl={"seed": 7}) == 2
    assert rc("ga", "galist.json", _base(topo, wlf), ga=[8, 3]) == 2
    # integer fields of the ga / rl blocks: bools, floats, values below the minimum
    for block in ({"generations": True, "population_size": 4}, {"generations": 2.0},
                  {"generations": -3}):
        for command in ("ga", "report"):
            assert rc(command, "gaint.json", _base(topo, wlf), optimizer="ga", ga=block) == 2
    for block in ({"epochs": True}, {"epochs": -1}, {"batch_size": 0}, {"batch_size": 2.5},
                  {"lr_decay_every": 0}, {"paths_per_state": 0}):
        for command in ("rl", "report"):
            assert rc(command, "rlint.json", _base(topo, wlf), optimizer="rl", rl=block) == 2
    # real fields of the ga / rl blocks: bools, and JSON's NaN and Infinity
    nan, inf = float("nan"), float("inf")
    for block in ({"mutation_start": True}, {"crossover_end": nan}, {"pool_start": inf}):
        for command in ("ga", "report"):
            assert rc(command, "gareal.json", _base(topo, wlf), optimizer="ga", ga=block) == 2
    for block in ({"learning_rate": nan}, {"learning_rate": True}, {"entropy_beta": nan},
                  {"lr_floor": inf}, {"lr_decay": -1}):
        for command in ("rl", "report"):
            assert rc(command, "rlreal.json", _base(topo, wlf), optimizer="rl", rl=block) == 2

    # integer fields: bools, strings and values below the minimum
    commands = ("capacity", "paths", "allocate", "ga", "rl", "report")
    baseline = {"baseline": "hop"}
    for seed in (-1, True, 1.0):
        for command in commands:
            assert rc(command, "seed.json", _base(topo, wlf, seed=seed), source=baseline) == 2
    assert rc("report", "seeds.json", _base(topo, wlf), repetitions=2, seeds=[-3, -4]) == 2
    assert rc("report", "seedsint.json", _base(topo, wlf), seeds=3) == 2
    assert rc("report", "seedsbool.json", _base(topo, wlf), seeds=[True]) == 2
    for key, value in (("k", True), ("k", 0), ("p_max", 0), ("p_max", "3"),
                       ("strategy_count", True), ("strategy_count", 0),
                       ("strategy_count", "2")):
        readers = ("paths",) if key == "k" else ()
        for command in (*readers, "allocate", "ga", "rl", "report"):
            assert rc(command, "int.json", _base(topo, wlf), source=baseline,
                      **{key: value}) == 2, (command, key, value)
    for key in ("repetitions", "max_workers"):
        for value in ("2", 0, False):
            assert rc("report", "int.json", _base(topo, wlf), **{key: value}) == 2
    # and so do the values of a k or p_max sweep, for every optimizer: a 0 on
    # the p_max axis used to fail as "k must be >= 1" (baseline), as a numpy
    # reshape error (ga), or to give an empty "optimal" point (rl)
    for optimizer, block in (("baseline-hop", {}), ("ga", {"ga": {"generations": 2}}),
                             ("rl", {"rl": {"epochs": 2}})):
        for axis, values in (("p_max", [0, 1]), ("k", [0, 2]), ("p_max", [1, 2.5]),
                             ("k", [True, 2])):
            assert rc("report", "sweepint.json", _base(topo, wlf), optimizer=optimizer,
                      sweep={"axis": axis, "values": values}, **block) == 2, (optimizer, axis)
    for hidden in (128, [0], [True], ["8"]):
        assert rc("rl", "hidden.json", _base(topo, wlf), hidden=hidden) == 2


def test_real_config_keys_exit_2(tmp_path, capsys):
    # real-valued keys: bools, strings, non-finite and non-positive values
    topo, wlf = _triangle_files(tmp_path)
    out = tmp_path / "out"

    def rc(command, **extra):
        cfg = _config(tmp_path, "real.json", _base(topo, wlf), **extra)
        code = main([command, "--config", str(cfg), "--out", str(out)])
        assert "config error" in capsys.readouterr().err, (command, extra)
        return code

    bad = ("high", True, None, 0, -0.5, float("nan"), float("inf"))
    for value in bad:
        for command in ("ga", "report"):
            assert rc(command, optimizer="ga", ga={"generations": 1, "population_size": 4},
                      baseline_threshold=value) == 2, (command, value)
        assert rc("allocate", source={"baseline": "hop", "threshold": value}) == 2, value
    engineer_blocks = [{"threshold_km": 20.0}, {"spacing_km": 10.0}, [20.0, 10.0]]
    engineer_blocks += [{"threshold_km": 20.0, "spacing_km": v} for v in bad]
    engineer_blocks += [{"threshold_km": v, "spacing_km": 10.0} for v in bad]
    for block in engineer_blocks:
        for command in ("capacity", "paths", "allocate"):
            assert rc(command, engineer=block, source={"baseline": "hop"}) == 2, (command, block)
    # JSON integers are numbers too
    for command, extra in (("capacity", {"engineer": {"threshold_km": 20, "spacing_km": 10}}),
                           ("allocate", {"source": {"baseline": "hop", "threshold": 1}})):
        cfg = _config(tmp_path, "real.json", _base(topo, wlf), **extra)
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0


def test_workload_params_and_source_types_exit_2(tmp_path, capsys):
    topo, wlf = _triangle_files(tmp_path)
    out = tmp_path / "out"

    def rc(command, name, base, **extra):
        cfg = _config(tmp_path, name, base, **extra)
        return main([command, "--config", str(cfg), "--out", str(out)])

    valid = {"num_orgs": 1, "pairs_per_org": 1, "r_min": 0, "r_max": 100,
             "fidelity_range": [0.8, 0.9], "org_weight_range": [1, 2],
             "random_r_max": True}
    assert rc("paths", "wl.json", _base(topo), workload_params=valid) == 0
    capsys.readouterr()
    bad = [{"r_min": "x"}, {"r_min": -1.0}, {"r_max": 0}, {"r_max": None},
           {"fidelity_range": [0.9]}, {"fidelity_range": "0.8-0.9"},
           {"pair_weight_range": [0.3, True]}, {"org_weight_range": [0.1, float("nan")]},
           {"num_orgs": True}, {"pairs_per_org": 1.0}, {"hop_cap": 0},
           {"random_r_max": 1}, {"num_org": 1}]
    for params in bad:
        for command in ("paths", "report"):
            assert rc(command, "wl.json", _base(topo),
                      workload_params=dict(valid, **params)) == 2, (command, params)
            assert "config error" in capsys.readouterr().err
    assert rc("paths", "wl.json", _base(topo), workload_params=[1, 1]) == 2
    for source in (["baseline"], "baseline", None):
        assert rc("allocate", "src.json", _base(topo, wlf), source=source) == 2, source
        assert "config error" in capsys.readouterr().err
    # these used to exit 1 with an AttributeError or a TypeError
    for sweep in ([1, 2], {"axis": "k", "values": 5}):
        assert rc("report", "sweep.json", _base(topo, wlf), sweep=sweep) == 2, sweep
        assert "config error" in capsys.readouterr().err
    for key in ("topology", "workload"):
        assert rc("paths", "path.json", dict(_base(topo, wlf), **{key: 5})) == 2, key
        assert "config error" in capsys.readouterr().err


def test_unparseable_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    out = tmp_path / "out"
    assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err


def test_infinite_r_min_workload_exits_2(tmp_path, capsys):
    # no LP can hold an R_min row of inf; the workload file is refused on load
    topo, _ = _triangle_files(tmp_path)
    wlf = tmp_path / "inf.workload"
    wlf.write_text("qvpn-workload v1\norg org1 1.0\npair org1 A B 0.5 0.7 inf inf\n")
    cfg = _config(tmp_path, "alloc.json", _base(topo, wlf), source={"baseline": "hop"})
    out = tmp_path / "out"
    assert main(["allocate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "R_min must be a finite number" in err
    assert not (out / "manifest.json").exists()


def test_rl_paths_per_state_below_pair_count_exits_2(tmp_path, capsys):
    # two pairs cannot each sample a path from one path per state; report
    # records the same failure as an error point
    topo, wlf = _triangle_files(tmp_path)
    cfg = _config(tmp_path, "rl.json", _base(topo, wlf),
                  rl={"epochs": 2, "batch_size": 2, "paths_per_state": 1})
    out = tmp_path / "out"
    assert main(["rl", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "paths_per_state 1" in err and "(2 pairs)" in err
    assert not (out / "manifest.json").exists()
    cfg = _config(tmp_path, "report.json", _base(topo, wlf), optimizer="rl",
                  rl={"epochs": 2, "batch_size": 2, "paths_per_state": 1})
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    point = _manifest(out)["points"][0]
    assert point["status"] == "error"
    assert point["error"].startswith("QuotaError: paths_per_state 1")


def test_runtime_failure_exits_1(tmp_path, capsys):
    # a valid config whose output directory cannot be made: --out is a file
    topo, _ = _triangle_files(tmp_path)
    cfg = _config(tmp_path, "cap.json", _base(topo))
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("qvpn: FileExistsError:")
    assert out.read_text() == ""


def test_workload_pair_off_the_graph_exits_2(tmp_path, capsys):
    # the workload is read against the topology, before any search
    topo, _ = _triangle_files(tmp_path)
    wlf = tmp_path / "bad.workload"
    wlf.write_text("qvpn-workload v1\n"
                   "org org1 1.0\n"
                   "pair org1 A Z 0.5 0.7 0.0 1e9\n")
    cfg = _config(tmp_path, "bad.json", _base(topo, wlf), source={"baseline": "hop"})
    out = tmp_path / "out"
    for command in ("paths", "allocate", "ga"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2, command
        err = capsys.readouterr().err
        assert (f"config error: workload file {str(wlf)!r}: line 3: pair names node 'Z'"
                in err), err
    assert not (out / "manifest.json").exists()


def test_ga_selection_with_a_node_named_threshold_replays(tmp_path):
    # the strategy is read from the last four tokens, so a path may pass a
    # node named after a keyword of the line
    graph = NetworkGraph(nodes=(NodeSpec("A"), NodeSpec("threshold")),
                         links=(make_link("A", "threshold", 10.0),))
    topo = tmp_path / "net.topo"
    topo.write_text(save_topology(graph))
    wlf = tmp_path / "one.workload"
    wlf.write_text(save_workload(Workload(
        organizations=(Organization("o1", 1.0),),
        user_pairs=(UserPair("o1", ("A", "threshold"), 0.5, 0.7, 0.0, 1e9),))))
    ga_cfg = _config(tmp_path, "ga.json", _base(topo, wlf), p_max=1, strategy_count=2,
                     ga={"population_size": 4, "generations": 1})
    assert main(["ga", "--config", str(ga_cfg), "--out", str(tmp_path / "ga")]) == 0
    sel = tmp_path / "ga" / "selection.txt"
    assert " path A threshold threshold " in sel.read_text()
    alloc_cfg = _config(tmp_path, "alloc.json", _base(topo, wlf), p_max=1,
                        source={"selection": str(sel)})
    assert main(["allocate", "--config", str(alloc_cfg), "--out", str(tmp_path / "alloc")]) == 0
    assert ((tmp_path / "alloc" / "rates.csv").read_text().splitlines()[1:]
            == (tmp_path / "ga" / "rates.csv").read_text().splitlines()[1:])


def test_emit_plots_writes_gnuplot_scripts(tmp_path):
    topo, wlf = _triangle_files(tmp_path)
    cap_cfg = _config(tmp_path, "cap.json", _base(topo), emit_plots=True)
    cap_out = tmp_path / "cap_out"
    assert main(["capacity", "--config", str(cap_cfg), "--out", str(cap_out)]) == 0
    manifest = _manifest(cap_out)
    assert "links.gp" in manifest["outputs"]
    script = (cap_out / "links.gp").read_text()
    assert script.startswith('set datafile separator ","')
    assert "links.csv" in script

    alloc_cfg = _config(tmp_path, "alloc.json", _base(topo, wlf),
                        source={"baseline": "hop"}, emit_plots=True)
    alloc_out = tmp_path / "alloc_out"
    assert main(["allocate", "--config", str(alloc_cfg), "--out", str(alloc_out)]) == 0
    assert (alloc_out / "rates.gp").exists()


def test_fmt_cell_rules():
    assert _fmt(True) == "true"
    assert _fmt(False) == "false"
    assert _fmt(None) == ""
    assert _fmt(1.5) == "1.5"
    assert _fmt(np.float64(0.1)) == "0.1"
    assert _fmt(3) == "3"
    with pytest.raises(ValueError):
        _fmt("a,b")
    with pytest.raises(ValueError):
        _fmt("a\nb")


def test_malformed_topology_and_selection_files_exit_2(tmp_path, capsys):
    # both used to exit 1 ("TopologyError: ..." and "ValueError: selection line 2: ...")
    topo, wlf = _triangle_files(tmp_path)
    bad_topo = tmp_path / "bad.topo"
    bad_topo.write_text("qvpn-topology v1\nnode a\nlink a b 5.0\n")
    out = tmp_path / "out"
    cfg = _config(tmp_path, "cap.json", _base(bad_topo))
    assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: topology file" in err and "undeclared node 'b'" in err
    for line in ("select org1 A B path A Z B threshold 0.9 max_rounds 20",
                 "select org1 A B path A B threshold 0.9 max_rounds 2.5",
                 "select org1 A B path A B threshold nan max_rounds 20",
                 "select org1 A B path A B threshold 0.9 max_rounds 20 extra",
                 # a repeated path would print its one rate on both rows of rates.csv
                 "select org1 A B path A B threshold 0.8 max_rounds 20\n"
                 "select org1 A B path A B threshold 0.9 max_rounds 20"):
        sel = tmp_path / "bad.sel"
        sel.write_text(f"qvpn-selection v1\n{line}\n")
        cfg = _config(tmp_path, "alloc.json", _base(topo, wlf), source={"selection": str(sel)})
        assert main(["allocate", "--config", str(cfg), "--out", str(out)]) == 2, line
        err = capsys.readouterr().err
        last = 1 + len(line.splitlines())  # the header is line 1
        assert "config error: selection file" in err and f"line {last}:" in err, err
    assert not (out / "manifest.json").exists()


def test_boolean_keys_need_json_booleans(tmp_path, capsys):
    # "false" used to write the fairness CSVs and "no" the gnuplot scripts
    topo, wlf = _triangle_files(tmp_path)
    for command, key, value in (("report", "fairness", "false"), ("report", "fairness", 0),
                                ("report", "emit_plots", "no"), ("capacity", "emit_plots", 1)):
        out = tmp_path / f"{key}-{value}"
        cfg = _config(tmp_path, "bool.json", _base(topo, wlf), **{key: value})
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2, (key, value)
        assert f"'{key}' must be true or false" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())
    out = tmp_path / "off"
    cfg = _config(tmp_path, "bool.json", _base(topo, wlf), fairness=False, emit_plots=False)
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "sweep.csv"]


def test_values_the_library_refuses_exit_2(tmp_path, capsys):
    # the CLI checks no number itself: each of these is refused by the type
    # that takes it, and reported as a config error before any search
    topo, wlf = _triangle_files(tmp_path)
    params = {"num_orgs": 1, "pairs_per_org": 1}
    out = tmp_path / "out"

    def rc(command, base, **extra):
        cfg = _config(tmp_path, "lib.json", base, **extra)
        code = main([command, "--config", str(cfg), "--out", str(out)])
        assert "config error" in capsys.readouterr().err, (command, extra)
        return code

    for bad in ({"num_orgs": 0}, {"pairs_per_org": 0}, {"pairs_per_org": 2.5},
                {"num_orgs": True}, {"hop_cap": 0}):
        for command in ("paths", "report"):
            assert rc(command, _base(topo), workload_params=dict(params, **bad)) == 2, bad
    for sweep in ({"axis": "pairs_per_org", "values": [0, 1]},
                  {"axis": "r_max", "values": [-1.0, 10.0]},
                  {"axis": "strategy_count", "values": [True, 2]}):
        assert rc("report", _base(topo), workload_params=params, sweep=sweep) == 2, sweep
    assert rc("report", _base(topo, wlf), seeds=[0.5]) == 2
    for value in (float("nan"), -1, True):
        assert rc("ga", _base(topo, wlf), baseline_threshold=value) == 2, value
        assert rc("report", _base(topo, wlf), baseline_threshold=value) == 2, value
    # a weight of nan used to fail at the LP ("LP objective must be finite", exit 1)
    for lines in ("org org1 nan\npair org1 A B 0.5 0.7 0.0 10.0",
                  "org org1 inf\npair org1 A B 0.5 0.7 0.0 10.0",
                  "org org1 1.0\npair org1 A B nan 0.7 0.0 10.0"):
        bad_wl = tmp_path / "bad.workload"
        bad_wl.write_text(f"qvpn-workload v1\n{lines}\n")
        assert rc("allocate", _base(topo, bad_wl), source={"baseline": "hop"}) == 2, lines
    assert not (out / "manifest.json").exists()
