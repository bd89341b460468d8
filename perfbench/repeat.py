"""Repeat the benchmark and print each end-to-end metric's spread against its bound.

    python3 perfbench/repeat.py             # 10 runs per workload, one set
    python3 perfbench/repeat.py --sets 2    # two sets, compared

Each run is a fresh `perfbench/run.py` process of BENCHMARK.json's
run_seconds with its own seed (set k uses seeds 100 k + 1 ... 100 k + 10);
every workload runs in each round, in an order that alternates from one
round to the next.  For every workload and metric it prints the median,
the quartiles (statistics.quantiles, n=4), the spread (Q3 - Q1) / median
and the bound from BENCHMARK.json; with two sets, also how far the second
median moved in the worse direction, and whether the failed share matches.
Raw results go to .perfbench/results/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10  # per workload and set


def run_once(workload, seed, seconds):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run.py {workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(statistics.median(values))}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = ap.parse_args()

    rows = {}  # (set, workload) -> list of results
    for s in range(args.sets):
        for i in range(RUNS):
            order = names if i % 2 == 0 else names[::-1]
            for w in order:
                seed = 100 * s + i + 1
                t0 = time.time()
                res = run_once(w, seed, bench["run_seconds"])
                rows.setdefault((s, w), []).append(res)
                vals = " ".join(f"{k}={m['value']:.4g}" for k, m in res["metrics"].items())
                print(f"set {s + 1} {w:18s} seed {seed:4d} {time.time() - t0:5.1f}s "
                      f"failed {res['failed']}/{res['attempted']} {vals}", file=sys.stderr, flush=True)

    out_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, time.strftime("repeat-%Y%m%d-%H%M%S.json"))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({f"{s + 1}/{w}": r for (s, w), r in rows.items()}, fh, indent=1)

    ok = True
    for w in names:
        print(f"\n{w}")
        shares = {s: {r["failed"] / r["attempted"] for r in rows[(s, w)]} for s in range(args.sets)}
        for m in bench["end_to_end"]:
            line = f"  {m['name']:12s} {m['unit']:7s}"
            meds = []
            for s in range(args.sets):
                st = summarize([r["metrics"][m["name"]]["value"] for r in rows[(s, w)]])
                meds.append(st["median"])
                steady = st["spread"] <= m["bound"] / 3
                ok &= st["spread"] <= m["bound"]
                line += (f" | set {s + 1}: median {st['median']:.5g} q1 {st['q1']:.5g} q3 {st['q3']:.5g}"
                         f" spread {st['spread']:.2%}{'' if steady else ' (above bound/3)'}")
            line += f" | bound {m['bound']:.0%}"
            if args.sets == 2:
                sign = 1 if m["better"] == "lower" else -1
                worse = sign * (meds[1] - meds[0]) / abs(meds[0])
                ok &= worse <= m["bound"]
                line += f" | second median worse by {worse:+.2%}"
            print(line)
        same = len(set().union(*shares.values())) == 1
        ok &= same
        print(f"  failed share: {sorted(set().union(*shares.values()))} ({'identical' if same else 'DIFFERS'})")
    print(f"\nraw results: {os.path.relpath(path, ROOT)}")
    print("within bounds" if ok else "NOT within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
