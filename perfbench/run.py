"""cpintegral benchmark: one workload per call, or all of them in turn.

    python3 perfbench/run.py --workload cli_jobs --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src.  The
last line of stdout is one JSON object: correct, attempted, failed and the
metrics (the end-to-end ones with --trace 0, the per-layer ones with
--trace 1).  A summary goes to stderr.

setup_s is the median over SETUP_STARTS fresh interpreters, each importing
cpintegral and building the workload's program objects; half of them start
before the measured child and half after it, so that they sample the host
at both ends of the run.  The workload runs in one child process: one
caller, one thread, whole passes over its operations until --seconds have
passed, after an untimed warm-up pass.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("cli_jobs", "product_pairing", "poisson_smoothing")
SETUP_STARTS = 10
CHILD_TIMEOUT_S = 150
# nproc is 2: keep every BLAS / OpenMP pool to the one calling thread
THREAD_CAPS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                     "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB", "min_digits": "digits"}


class BenchError(Exception):
    pass


def _child(args, env):
    proc = subprocess.run([sys.executable, CHILD, *args], env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {' '.join(args[:2])} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, workdir):
    env = dict(os.environ, **THREAD_CAPS)
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--workdir", workdir]
    starts = 0 if trace else SETUP_STARTS // 2

    def setups():
        return [_child([*common, "--setup-only"], env)["setup_s"] for _ in range(starts)]

    before = setups()
    res = _child([*common, "--trace", str(trace)], env)
    after = setups()
    if trace:
        import tracing

        metrics = {name: {"value": res["layers"][name], "unit": unit} for name, unit in tracing.METRICS.items()}
        metrics["trace.traced_pass_s"] = {"value": res["traced_pass_s"], "unit": "s"}
        metrics["trace.untraced_pass_s"] = {"value": res["pass_s"], "unit": "s"}
    else:
        values = {"setup_s": statistics.median(before + after), "pass_s": res["pass_s"],
                  "peak_rss_mb": res["peak_rss_mb"], "min_digits": res["min_digits"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    summary = {"passes": res["passes"], "ops": res["ops"], "group_share": res["group_share"],
               "failures": res["failures"], "refs_rss_mb": res["refs_rss_mb"]}
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}, summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cpintegral", "__init__.py")):
        print(f"error: no cpintegral sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            result, summary = run_workload(name, args.seed, args.seconds, args.trace, workdir)
            results[name] = result
            _report(name, result, summary)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


def _report(name, result, summary):
    err = sys.stderr
    print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} passes={summary['passes']} ops/pass={summary['ops']}", file=err)
    for metric, m in result["metrics"].items():
        print(f"   {metric:28s} {m['value']!s:>24} {m['unit']}", file=err)
    print(f"   peak rss before the passes (imports, program objects, references): "
          f"{summary['refs_rss_mb']:.1f} MB", file=err)
    shares = ", ".join(f"{g} {s:.1%}" for g, s in summary["group_share"].items())
    print(f"   pass share by group: {shares}", file=err)
    for op, problems in summary["failures"].items():
        print(f"   failed: {op}: {problems[0]}", file=err)


if __name__ == "__main__":
    sys.exit(main())
