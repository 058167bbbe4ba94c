"""qvpn benchmark: GA LP loop, RL epoch and pathfinding sweep.

    python3 perfbench/run.py --workload ga-net50|rl-net50|sweep-net50|all \
        [--seed 0] [--seconds 35] [--trace 0|1]

Run from the root of a source checkout; qvpn is imported from ./src. Each
workload runs a fixed list of instances derived from --seed, one fresh
process per repetition, cycling through the list while another repetition
fits in --seconds (every instance runs at least once). Closed loop: a repetition
starts when the previous one has ended. BLAS is pinned to one thread, since
sweep-net50 already fills two cores with worker threads.

--trace 0 prints the end-to-end metrics; --trace 1 runs each repetition
once untraced and once with timing wrappers on the qvpn layers, and prints
the per-layer metrics. The last line of standard output is one JSON object
{correct, attempted, failed, metrics}. The exit code is 0 only when every
repetition ran, every final allocation passed the independent verifier and
every repetition of an instance produced the same determinism digest.
Records (environment, per-instance results, spans) go to perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import benchstats  # noqa: E402  (needs HERE on sys.path)
import layers  # noqa: E402

# instances per run; the iteration count of one pass fixes the tail percentile
WORKLOADS = {
    "ga-net50": {"instances": 8},
    "rl-net50": {"instances": 4},
    "sweep-net50": {"instances": 3},
}
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("iter_ms_p50", "ms"),
              ("iter_ms_tail", "ms"), ("wegr_share", "ratio"), ("peak_rss_mb", "MB")]
DEFAULT_SECONDS = 35
DEADLINE_S = 165  # a run must end within 180 s; no repetition starts past this
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def instance_seeds(seed, count):
    """Workload seeds of one run. Even and spaced by two, because the sweep
    uses seed and seed + 1 for its two repetitions."""
    return [16 * seed + 2 * i for i in range(count)]


class RepetitionError(RuntimeError):
    pass


def run_worker(workload, instance_seed, trace, bound, spans_out, timeout):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--instance-seed", str(instance_seed)]
    if trace:
        cmd.append("--trace")
    if bound:
        cmd.append("--bound")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    env = dict(os.environ, **BLAS_ENV)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise RepetitionError(f"{workload} seed {instance_seed}: timed out") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RepetitionError(
            f"{workload} seed {instance_seed}: exit {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment_record(seed):
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_build = blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_build = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_build": blas_build,
        "blas_threads": int(BLAS_ENV["OPENBLAS_NUM_THREADS"]),
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "none"


def source_digest():
    """SHA-256 over the package sources, which identifies the code measured
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "qvpn")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".topo", ".txt")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns (result line, record for perfbench/out)."""
    seeds = instance_seeds(seed, WORKLOADS[name]["instances"])
    reps = {s: {"plain": [], "traced": []} for s in seeds}
    errors = []
    spans_dir = os.path.join(OUT, "spans")
    if trace:
        os.makedirs(spans_dir, exist_ok=True)
    start = time.perf_counter()
    step = 0
    while True:
        s = seeds[step % len(seeds)]
        first_pass = step < len(seeds)
        remaining = DEADLINE_S - (time.perf_counter() - start)
        try:
            reps[s]["plain"].append(
                run_worker(name, s, False, first_pass and not trace, None, remaining))
            if trace:
                spans_out = os.path.join(spans_dir, f"{name}-seed{seed}-inst{s}-rep{step}.jsonl")
                reps[s]["traced"].append(run_worker(
                    name, s, True, False, spans_out, DEADLINE_S - (time.perf_counter() - start)))
        except RepetitionError as exc:
            errors.append(str(exc))
            break
        step += 1
        elapsed = time.perf_counter() - start
        # after the first pass, start a repetition only if it fits the budget
        if step >= len(seeds) and elapsed + elapsed / step > min(seconds, DEADLINE_S):
            break
    return summarize(name, seed, seeds, reps, errors, trace)


def summarize(name, seed, seeds, reps, errors, trace):
    all_runs = [r for s in seeds for kind in ("plain", "traced") for r in reps[s][kind]]
    attempted = sum(r["lp_attempts"] + r["verifications"] for r in all_runs) + len(errors)
    failed = sum(r["failures"] + len(r["verify_problems"]) for r in all_runs) + len(errors)
    problems = list(errors)
    for s in seeds:
        runs = reps[s]["plain"] + reps[s]["traced"]
        for r in runs:
            problems.extend(f"seed {s}: {p}" for p in r["verify_problems"])
        if len({(r["digest"], r["wegr"]) for r in runs}) > 1:
            failed += 1
            problems.append(f"seed {s}: repetitions disagree on the determinism digest")
    complete = not errors and all(reps[s]["plain"] for s in seeds)
    if trace:
        complete = complete and all(reps[s]["traced"] for s in seeds)
    lines = [f"workload {name}: instance seeds {seeds}, "
             f"repetitions {[len(reps[s]['plain']) for s in seeds]}"]
    metrics = {}
    record = {"workload": name, "seed": seed, "instances": {}}
    if complete:
        plain = [r for s in seeds for r in reps[s]["plain"]]
        digest = hashlib.sha256("".join(reps[s]["plain"][0]["digest"] for s in seeds)
                                .encode()).hexdigest()
        wegr = sum(reps[s]["plain"][0]["wegr"] for s in seeds)
        lines.append(f"digest {digest}")
        lines.append(f"wegr {wegr!r} (sum over instances)")
        for s in seeds:
            first = reps[s]["plain"][0]
            record["instances"][s] = {"digest": first["digest"], "wegr": first["wegr"],
                                      "bound": first.get("bound")}
        record["digest"] = digest
        if trace:
            metrics = layer_metrics(seeds, reps)
        else:
            metrics, extra = end_to_end(seeds, reps, plain)
            lines.extend(extra)
    error_rate = failed / attempted if attempted else 1.0
    lines.append(f"error_rate {error_rate!r} ({failed} failed of {attempted} attempted)")
    lines.extend(f"problem: {p}" for p in problems[:20])
    correct = complete and not problems and failed == 0
    units = dict(END_TO_END)
    units.update((n, u) for n, u, _, _ in layers.PER_LAYER)
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record.update(result)
    record["report"] = lines
    return result, record


def end_to_end(seeds, reps, plain):
    one_pass = sum(len(reps[s]["plain"][0]["iterations"]) for s in seeds)
    pct = benchstats.tail_percentile(one_pass)
    iterations = [1000 * t for r in plain for t in r["iterations"]]
    metrics = {
        "setup_s": benchstats.median([r["setup_s"] for r in plain]),
        "wall_s": benchstats.median([r["wall_s"] for r in plain]),
        "iter_ms_p50": benchstats.median(iterations),
        "iter_ms_tail": benchstats.percentile(iterations, pct),
        "wegr_share": (sum(reps[s]["plain"][0]["wegr"] for s in seeds)
                       / sum(reps[s]["plain"][0]["bound"] for s in seeds)),
        "peak_rss_mb": benchstats.median([r["peak_rss_mb"] for r in plain]),
    }
    extra = [f"iter_ms_tail is p{pct} of {len(iterations)} iterations "
             f"({benchstats.samples_beyond(iterations, pct)} beyond it)"]
    return metrics, extra


def layer_metrics(seeds, reps):
    def median_wall(runs):
        return benchstats.median([r["wall_s"] for r in runs])

    chosen = []
    for s in seeds:
        traced = sorted(reps[s]["traced"], key=lambda r: r["wall_s"])
        chosen.append(traced[(len(traced) - 1) // 2]["layers"])
    untraced = sum(median_wall(reps[s]["plain"]) for s in seeds)
    return layers.derive(layers.combine(chosen), untraced)


def _terminate(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps the worker
    sys.exit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "qvpn", "__init__.py")):
        print(f"run.py: no qvpn sources under {os.path.join(ROOT, 'src')}; "
              "run from a source checkout", file=sys.stderr)
        return 2

    env = environment_record(args.seed)
    print("environment " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    os.makedirs(OUT, exist_ok=True)
    for name in names:
        result, record = run_workload(name, args.seed, args.seconds, args.trace)
        record["environment"] = env
        path = os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        for line in record["report"]:
            print(line)
        for metric, entry in result["metrics"].items():
            print(f"{name} {metric} {entry['value']!r} {entry['unit']}")
        results[name] = result

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
