#!/usr/bin/env python3
"""Steadiness report: runs each workload once per seed and prints, for every
metric with its unit, the median and the quartile spread (Q3 - Q1) / median.

    python3 perfbench/steadiness.py --workloads mode network --seeds 0 1 2 3 4
    python3 perfbench/steadiness.py --seeds 0 0 --trace 0 1

Run it from the repository root. The second form prints every end-to-end
and per-layer metric of every workload, and checks that the traced counts
(`*_per_run`) repeat exactly for a repeated seed. Bounds and run length
come from BENCHMARK.json; an end-to-end metric is steady when its spread
stays below a third of its bound (setup_s is reported, but only its median
is compared between runs). Exits non-zero if a run failed its correctness
check or a traced count did not repeat.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    result = json.loads(done.stdout.strip().split("\n")[-1])
    return done.returncode == 0 and result["correct"], result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(10)))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", nargs="+", type=int, choices=[0, 1],
                        default=[0])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for trace in args.trace:
        for workload in args.workloads:
            values = {}
            units = {}
            by_seed = {}
            for seed in args.seeds:
                correct, result = run_once(workload, seed, args.seconds, trace)
                ok &= correct
                print(f"{workload} trace {trace} seed {seed}: "
                      f"correct={result['correct']} "
                      f"attempted={result['attempted']} "
                      f"failed={result['failed']}", flush=True)
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
                    if name.endswith("_per_run"):
                        by_seed.setdefault((name, seed), set()).add(
                            metric["value"])
            print(f"\n{workload} (trace {trace}): {len(args.seeds)} runs of "
                  f"{args.seconds} s")
            print(f"{'metric':<32}{'unit':>7}{'median':>13}{'q1':>13}"
                  f"{'q3':>13}{'spread':>8}{'bound':>6}  verdict")
            for name, vals in values.items():
                med = statistics.median(vals)
                q1, _, q3 = (statistics.quantiles(vals, n=4)
                             if len(vals) > 1 else (vals[0], 0, vals[0]))
                spread = (q3 - q1) / abs(med) if med else 0.0
                bound = bounds.get(name)
                verdict = ""
                if bound is not None and name != "setup_s":
                    verdict = ("steady" if spread < bound / 3 else
                               "within bound" if spread <= bound else
                               "UNSTEADY")
                if any(len(v) > 1 for (n, _), v in by_seed.items()
                       if n == name):
                    verdict = "COUNT DID NOT REPEAT"
                    ok = False
                print(f"{name:<32}{units[name]:>7}{med:>13.6g}{q1:>13.6g}"
                      f"{q3:>13.6g}{spread:>8.4f}"
                      f"{bound if bound is not None else '':>6}  {verdict}")
            print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
