"""sympgen benchmark: end-to-end and per-layer metrics for four workloads.

Usage (from the repository root):

    python3 perfbench/run.py [--workload certify|identities|orders|fields|all]
                             [--seed N] [--seconds S] [--trace 0|1]

--seconds defaults to run_seconds in BENCHMARK.json.

Each pass runs the workload's item list once in a fresh worker process
(worker.py), with sympgen imported from ./src and every cache cold, as on a
command-line call.  Workers run one after another, never two at once, and
the harness starts no threads.

--trace 0 (end-to-end): passes until the next one would end after
--seconds, with set-up spawns that only import sympgen before and after
them.  Reports the medians over passes of wall_s (one pass of the item
list) and of wall_ref (the same time in units of a fixed reference loop
probed between items; see worker.Meter), the median setup_s (spawn until
``import sympgen`` returns), the median peak_rss_mb (the worker's
ru_maxrss), and failed_frac.  BENCHMARK.json's time metric is wall_ref:
on a machine whose cores other tenants share, the speed of interpreted
code drifts by up to 2x over tens of seconds, and wall_s with it, while
wall_ref follows the work done.  setup_s stays in raw seconds: set-up time
follows the machine's load less closely than the probe does, and on a
2-core Intel Xeon virtual machine, scaling each sample by a probe taken just
before its spawn moved the median over ten seeds by 9-18% between two sets
of runs, against 6-13% unscaled.

--trace 1 (per-layer): one untraced pass, then one pass with sympgen's
public functions wrapped (layers.py).  Reports per-layer counts, inclusive
and self times, cache hit ratios and trace.overhead, the traced wall_ref
over the untraced one; the spans go to perfbench/out/.

Every output is checked: certify, identities and fields against the
outputs recorded in expected.json, byte for byte; orders by an independent
order check after the timed region (worker.py).  The last line of output
is one JSON object with the keys correct, attempted, failed and metrics.
Its metrics are BENCHMARK.json's end_to_end metrics (--trace 0) or its
per_layer metrics (--trace 1); with --workload all, each is named
``<workload>.<metric>``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
SETUP_SPAWNS = 8
# A run of one workload must end within 180 s, so no worker may outlive
# this budget; a run of all of them gets it once per workload.
RUN_BUDGET_S = 170


class HarnessError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def spawn(job: dict, deadline: float) -> dict:
    """Run one worker to completion; add its set-up and elapsed times."""
    env = dict(os.environ)
    env.pop("SYMPGEN_THREADS", None)
    env.update(job.get("env", {}))
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise HarnessError("run budget exhausted")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, ROOT, json.dumps(job)],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise HarnessError(f"{job['workload']} worker exceeded the run budget")
    elapsed = time.perf_counter() - start
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{job['workload']} worker exited with {proc.returncode}")
    res = json.loads(lines[-1])
    res["setup_s"] = res["ready"] - start
    res["elapsed_s"] = elapsed
    if not 0 < res["setup_s"] <= elapsed:
        raise HarnessError("worker clock does not match the harness clock")
    return res


def failures(workload: str, job: dict, res: dict, expected: dict, reference):
    """Reasons per failed item of one pass (item id -> reason)."""
    bad = {}
    if workload == "orders":
        ids = workloads.order_item_ids(job)
        for i, (item_id, rec) in enumerate(zip(ids, res["items"])):
            if rec.get("error"):
                reason = rec["error"]
            elif reference is None:  # the checked pass
                reason = rec.get("bad", "unchecked")
            elif rec["out"] != reference[i].get("out"):
                reason = "differs from the checked pass"
            else:
                reason = None
            if reason:
                bad[item_id] = reason
        return bad
    for item, rec in zip(job["items"], res["items"]):
        reason = rec["error"] or workloads.check_cli_output(
            expected[workload], item["id"], rec["rc"], rec["out"])
        if reason:
            bad[item["id"]] = reason
    return bad


def environment(sympgen_file: str) -> dict:
    """Machine and software facts recorded with every result; the path
    sympgen was imported from is relative to the checkout's root."""
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = os.path.join(ROOT, "src", "sympgen")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "sympy": version("sympy"),
            "numpy": importlib.util.find_spec("numpy") is not None,
            "commit": commit, "src_sha256": digest.hexdigest()[:16],
            "sympgen_file": os.path.relpath(sympgen_file, ROOT)}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 expected: dict, deadline: float) -> dict:
    job = workloads.plan(workload, seed)
    passes, attempted, bad, setups = [], 0, {}, []
    reference = None

    def one_pass(**extra):
        nonlocal attempted, reference
        res = spawn(dict(job, check=reference is None, **extra), deadline)
        attempted += len(res["items"])
        fails = failures(workload, job, res, expected, reference)
        res["failed"] = len(fails)
        for item_id, reason in fails.items():
            bad.setdefault(item_id, reason)
        if reference is None:
            reference = res["items"]
        setups.append(res["setup_s"])
        passes.append(res)
        return res

    if trace:
        plain = one_pass()
        os.makedirs(OUT, exist_ok=True)
        traced = one_pass(trace=True, spans_path=os.path.join(
            OUT, f"spans-{workload}-seed{seed}.tsv"))
        overhead = traced["wall_ref"] / plain["wall_ref"]
        metrics = layers.layer_metrics(traced["layers"], traced["hit_ratio"], overhead)
        extra = {"layers": traced["layers"], "tree": traced["tree"],
                 "overhead": overhead}
    else:
        # set-up samples before and after the passes, so that they see the
        # machine at more than one moment
        for _ in range(SETUP_SPAWNS // 2):
            setups.append(spawn({"workload": "setup"}, deadline)["setup_s"])
        start = time.perf_counter()
        while True:
            res = one_pass()
            elapsed = time.perf_counter() - start
            if elapsed + res["elapsed_s"] > seconds:
                break
        for _ in range(SETUP_SPAWNS - SETUP_SPAWNS // 2):
            setups.append(spawn({"workload": "setup"}, deadline)["setup_s"])
        metrics = {name: {"value": statistics.median(p[name] for p in passes),
                          "unit": unit}
                   for name, unit in (("wall_ref", "ref"), ("peak_rss_mb", "MB"))}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        extra = {}
    failed = sum(p["failed"] for p in passes)
    return {"workload": workload, "seed": seed, "trace": trace,
            "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted, "failures": bad,
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "passes": [{k: p[k] for k in ("wall_s", "wall_ref", "setup_s",
                                          "peak_rss_mb", "elapsed_s", "probes")}
                       for p in passes],
            "setup_samples": setups, "metrics": metrics,
            "sympgen_file": passes[0]["sympgen_file"], **extra}


def print_report(res: dict) -> None:
    w = res["workload"]
    walls = ", ".join(f"{p['wall_s']:.3f} s = {p['wall_ref']:.1f} ref"
                      for p in res["passes"])
    print(f"# {w}: seed {res['seed']}, {len(res['passes'])} passes "
          f"({walls}), {len(res['setup_samples'])} set-up samples")
    if res["trace"]:
        wall = res["passes"][-1]["wall_s"]
        print(f"# {w}: traced wall_s {wall:.3f} s, trace.overhead "
              f"{res['overhead']:.3f}")
        print(f"# {w}: call paths taking >= 5% of traced wall_s (inclusive):")
        for path, calls, s in res["tree"]:
            print(f"#   {s / wall:6.1%} {s:9.3f} s {calls:>8d} calls  "
                  f"{'  ' * (len(path) - 1)}{path[-1]}")
        print(f"# {w}: layers by self time:")
        ranked = sorted(res["layers"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, rec in ranked[:12]:
            print(f"#   {rec['self_s'] / wall:6.1%} {rec['self_s']:9.3f} s "
                  f"{rec['calls']:>8d} calls  {name} (inclusive {rec['s']:.3f} s)")
        moves = {m[0]: m[3] for m in layers.PER_LAYER}
        for name, m in res["metrics"].items():
            print(f"{w} {name} {m['value']:.6g} {m['unit']}  [moves {moves[name]}]")
    else:
        print(f"{w} wall_s {res['wall_s']:.6f} s")
        for name, m in res["metrics"].items():
            print(f"{w} {name} {m['value']:.6f} {m['unit']}")
    print(f"{w} failed_frac {res['failed_frac']:.6f} "
          f"({res['failed']}/{res['attempted']} items)")
    for item_id, reason in sorted(res["failures"].items()):
        print(f"# FAILED {w} {item_id}: {reason}")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all",
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sympgen", "__init__.py")):
        print("error: no sympgen sources under src/", file=sys.stderr)
        return 2
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    results = []
    deadline = time.perf_counter() + RUN_BUDGET_S * len(chosen)
    try:
        for w in chosen:
            results.append(run_workload(w, args.seed, args.seconds,
                                        bool(args.trace), expected, deadline))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = environment(results[0]["sympgen_file"])
    print("# env " + json.dumps(env, sort_keys=True))
    os.makedirs(OUT, exist_ok=True)
    for res in results:
        print_report(res)
        name = f"{res['workload']}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
            json.dump(dict(res, env=env), fh, indent=1, sort_keys=True)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
