"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/stability.py [--workloads certify,orders] [--runs 10]
                                   [--trajectory LABEL]

For each workload, runs ``run.py --workload W --seed s`` for s = 1..runs,
one after another, and prints per end-to-end metric, and for the raw wall_s
and failed_frac, the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median next to the
metric's bound from BENCHMARK.json.
With --trajectory, appends these figures and the machine information to
trajectory.json under LABEL.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int) -> tuple[dict, dict, dict]:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=400)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    env = json.loads(next(ln for ln in lines if ln.startswith("# env "))[6:])
    res = json.loads(lines[-1])
    # the raw wall_s and failed_frac are in the run's full record only
    with open(os.path.join(HERE, "out", f"{workload}-seed{seed}-trace0.json"),
              encoding="utf-8") as fh:
        full = json.load(fh)
    return res, env, {"wall_s": full["wall_s"], "failed_frac": full["failed_frac"]}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trajectory", default=None)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    entry = {"label": args.trajectory, "runs": args.runs,
             "seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for w in args.workloads.split(","):
        values: dict[str, list] = {}
        for seed in range(1, args.runs + 1):
            res, env, extra = run_once(w, seed)
            if not res["correct"]:
                print(f"{w} seed {seed}: {res['failed']}/{res['attempted']} failed")
                ok = False
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, value in extra.items():
                values.setdefault(name, []).append(value)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k} {m['value']:.4f}" for k, m in res["metrics"].items()), flush=True)
        entry["env"] = env
        entry["workloads"][w] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            verdict = "no bound"
            if name in bounds:
                steady = spread <= bounds[name] / 3
                verdict = f"bound {bounds[name]}, {'steady' if steady else 'NOT steady'}"
            print(f"{w} {name}: median {med:.4f} Q1 {q1:.4f} Q3 {q3:.4f} "
                  f"spread {spread:.3f} ({verdict})")
            entry["workloads"][w][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "values": vals}
    if args.trajectory:
        path = os.path.join(HERE, "trajectory.json")
        trajectory = []
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                trajectory = json.load(fh)
        trajectory.append(entry)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(trajectory, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
