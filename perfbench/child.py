"""One workload in one process: a closed loop of whole passes, one caller.

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
    python3 perfbench/child.py --workload NAME --seed N --seconds S --workdir DIR --setup-only

run.py starts this script; it prints one JSON object as its last line.
--setup-only times a fresh import of cpintegral plus building the
workload's program objects, and nothing else.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

WORKLOADS = {"cli_jobs": "wl_cli", "product_pairing": "wl_product", "poisson_smoothing": "wl_poisson"}


def setup_only(args):
    t0 = time.perf_counter()
    import cpintegral  # noqa: F401

    imported = time.perf_counter() - t0
    wl = __import__(WORKLOADS[args.workload])
    params = wl.inputs(args.seed)
    t1 = time.perf_counter()
    wl.program(params, args.workdir)
    built = time.perf_counter() - t1
    return {"setup_s": imported + built, "import_s": imported, "build_s": built}


def measure(args):
    from common import KNOWN_FAULTS, build_ops, check_pass, run_pass

    ops = build_ops(__import__(WORKLOADS[args.workload]), args.seed, args.workdir)
    # the peak after the references are built: peak_rss_mb only shows the
    # program while its passes reach above this
    refs_rss_mb = _peak_rss_mb()

    run_pass(ops)  # warm-up, untimed and unchecked

    tracer = None
    untraced, traced, layer_rows = [], [], []
    attempted, failed, digits, failures = 0, 0, [], {}
    group_s = {}
    deadline = time.perf_counter() + args.seconds
    switch = time.perf_counter() + args.seconds / 2
    while True:
        if args.trace and tracer is None and untraced and time.perf_counter() >= switch:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        if tracer is not None:
            tracer.reset()
        wall, outputs, per_op = run_pass(ops)
        (traced if tracer is not None else untraced).append(wall)
        if tracer is not None:
            row = dict(tracer.totals)
            row["cli.stdout_bytes"] = sum(len(o.stdout.encode()) for o in outputs.values() if hasattr(o, "stdout"))
            layer_rows.append(row)
        if tracer is None:
            for op in ops:
                group_s[op.group] = group_s.get(op.group, 0.0) + per_op[op.name]
        bad, acc = check_pass(ops, outputs)
        attempted += len(ops)
        failed += len(bad)
        for name, problems in bad.items():
            failures.setdefault(name, problems)
        if acc:
            digits.append(min(acc.values()))
        done = time.perf_counter() >= deadline
        if done and (not args.trace or tracer is not None):
            break

    result = {
        "correct": set(failures) <= set(KNOWN_FAULTS),
        "attempted": attempted,
        "failed": failed,
        "pass_s": statistics.median(untraced),
        "passes": len(untraced),
        "pass_times": untraced,
        "min_digits": min(digits) if digits else None,
        "peak_rss_mb": _peak_rss_mb(),
        "refs_rss_mb": refs_rss_mb,
        "failures": failures,
        "group_share": {g: s / sum(untraced) for g, s in group_s.items()},
        "ops": len(ops),
    }
    if args.trace:
        import tracing

        result["layers"] = {m: statistics.median(row.get(m, 0.0) for row in layer_rows)
                            for m in tracing.METRICS}
        result["traced_pass_s"] = statistics.median(traced)
        result["traced_passes"] = len(traced)
    return result


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    result = setup_only(args) if args.setup_only else measure(args)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
