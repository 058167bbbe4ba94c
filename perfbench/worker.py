"""One repetition of one workload instance, in a fresh process.

    python3 perfbench/worker.py --workload ga-net50 --instance-seed 0 [--trace] [--bound]

The clock starts just before the first `import qvpn`, so setup_s includes
the package import. After the timed region (and with any wrappers taken
off again) the final allocations are verified independently, the
relaxation bound is computed when asked, and one JSON object is printed as
the last line of standard output. run.py starts this script; it is not
meant to be run by hand except for debugging.
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--instance-seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--bound", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import qvpn
    t_import = time.perf_counter()
    if not os.path.abspath(qvpn.__file__).startswith(SRC + os.sep):
        print(f"worker: qvpn imported from {qvpn.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    tracer = restore = None
    kwargs = {}
    if args.trace:
        import layers
        import spans
        tracer = spans.Tracer(f"{args.workload}/{args.instance_seed}")
        tracer.record("bench.import", t0, t_import)
        restore = spans.install(tracer, layers.targets())
        if args.workload == "rl-net50":
            kwargs["wrap_env"] = lambda env: (
                lambda selection: tracer.call("bench.rl_environment", env, (selection,), {}))
    try:
        run = workloads.RUNNERS[args.workload](args.instance_seed, **kwargs)
    finally:
        if restore is not None:
            restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import verifier
    problems = []
    for alloc in run.allocations:
        verdict = verifier.verify_allocation(alloc.graph, alloc.workload, alloc.selection,
                                             alloc.solution)
        problems.extend(verdict.problems)
    out = {
        "workload": args.workload,
        "instance_seed": args.instance_seed,
        "traced": args.trace,
        "setup_s": run.setup_end - t0,
        "wall_s": run.end - t0,
        "iterations": run.iterations,
        "wegr": run.wegr,
        "digest": run.digest(),
        "lp_attempts": run.lp_attempts,
        "failures": run.failures,
        "verifications": len(run.allocations),
        "verify_problems": problems,
        "peak_rss_mb": peak_rss_mb,
        "facts": run.facts,
    }
    if args.bound:
        from qvpn.pathfinding import build_candidate_sets
        out["bound"] = sum(
            verifier.relaxation_bound(
                a.graph, a.workload,
                a.candidates if a.candidates is not None
                else build_candidate_sets(a.graph, a.workload, k=workloads.K),
                a.strategies)
            for a in run.allocations)
    if tracer is not None:
        kept = [s for s in tracer.spans if s.start < run.end]
        out["layers"] = layers.summarize(kept, run.facts, t0, run.end)
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                for s in kept:
                    fh.write(json.dumps({
                        "id": s.span_id, "name": s.name, "start": s.start - t0,
                        "end": s.end - t0, "parent": s.parent, "thread": s.thread,
                        "run": s.run_id, "attrs": s.attrs}) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
