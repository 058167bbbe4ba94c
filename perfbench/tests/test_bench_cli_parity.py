"""The library-driven workloads compute what the `qvpn` CLI computes for
the same config, so the benchmark measures what users run."""

import csv
import json

import workloads
from qvpn.cli import main
from qvpn.fixtures import TOPOLOGY_50, fixture_text

SEED = 2


def _rows(path):
    with open(path) as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))[1:]


def _run_cli(tmp_path, command, config):
    topo = tmp_path / "net.topo"
    topo.write_text(fixture_text(TOPOLOGY_50))
    config = {"version": 1, "seed": SEED, "topology": str(topo), "k": workloads.K,
              "p_max": workloads.P_MAX, **config}
    cfg = tmp_path / f"{command}.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / command
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return out, json.loads((out / "manifest.json").read_text())


def test_ga_matches_cli(tmp_path):
    run = workloads.run_ga(SEED, generations=3)
    out, manifest = _run_cli(tmp_path, "ga", {
        "workload_params": workloads.GA_PARAMS,
        "ga": {"population_size": workloads.GA_POPULATION, "generations": 3},
        "baseline_threshold": workloads.BASELINE_THRESHOLD})
    assert manifest["wegr"] == run.wegr
    assert (out / "selection.txt").read_text() == run.selection_text
    trace = "".join(f"{g} {float(b)!r} {float(m)!r}\n" for g, b, m in _rows(out / "trace.csv"))
    assert trace == run.trace_text


def test_rl_matches_cli(tmp_path):
    run = workloads.run_rl(SEED, epochs=2)
    out, manifest = _run_cli(tmp_path, "rl", {
        "workload_params": workloads.RL_PARAMS, "hidden": list(workloads.RL_HIDDEN),
        "rl": {"epochs": 2}})
    assert manifest["wegr"] == run.wegr
    assert (out / "selection.txt").read_text() == run.selection_text
    trace = "".join(f"{e} {float(r)!r}\n" for e, r in _rows(out / "trace.csv"))
    assert trace == run.trace_text


def test_report_matches_cli(tmp_path):
    values = (10, 20)
    run = workloads.run_sweep(SEED, values=values)
    out, _ = _run_cli(tmp_path, "report", {
        "workload_params": workloads.SWEEP_PARAMS, "optimizer": workloads.SWEEP_OPTIMIZER,
        "sweep": {"axis": "pairs_per_org", "values": list(values)},
        "repetitions": workloads.SWEEP_REPETITIONS, "max_workers": workloads.SWEEP_WORKERS,
        "baseline_threshold": workloads.BASELINE_THRESHOLD})
    rows = _rows(out / "sweep.csv")
    assert len(rows) == len(values) * workloads.SWEEP_REPETITIONS
    trace = "".join(f"{v} {r} {s} {st} {float(w)!r}\n" for v, r, s, st, w, _ in rows)
    assert trace == run.trace_text
