#!/usr/bin/env python3
"""Run one workload over several seeds and check its spread against the bounds.

    python3 perfbench/seeds.py --workload flow_large --seeds 101-110

Runs perfbench/run.py once per seed (end-to-end metrics, tracing off) and
prints, per metric, the median, the quartiles and the spread: the quartile
distance as a share of the median. It flags any spread above the metric's
bound in BENCHMARK.json and marks any spread above a third of it. Use it to
recheck a claim on seeds it was not developed on. Exits 1 when a run fails
or a spread exceeds its bound.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True
import stats as S  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="101-110",
                    help="comma-separated seeds or ranges, e.g. 1,5,101-110")
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    args = ap.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {name: [] for name in bounds}
    ok = True
    for seed in parse_seeds(args.seeds):
        r = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            check=False)
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            print(f"seed {seed}: run failed (exit {r.returncode})")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        metrics = result["metrics"]
        for name in bounds:
            values[name].append(metrics[name]["value"])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} " +
              " ".join(f"{k}={metrics[k]['value']:.6g}" for k in bounds),
              flush=True)

    print(f"{'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = S.quartiles(vals)
        spread = S.spread(vals)
        mark = ""
        if spread > bounds[name]:
            mark, ok = "  OVER BOUND", False
        elif spread > bounds[name] / 3:
            mark = "  over a third of the bound"
        print(f"{name:16s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {bounds[name]:6.2f}{mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
