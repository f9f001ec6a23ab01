"""Record the outputs the benchmark compares certify, identities and fields
against, byte for byte, into expected.json.

Usage (from the repository root): python3 perfbench/record_expected.py

Each workload's items run once, in canonical order, in one fresh worker.
The file notes the commit the outputs came from.  Re-record only when an
output is meant to change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import run
import workloads


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip()
    out = {"commit": commit}
    for w in ("certify", "identities", "fields"):
        items = [{"id": i, "argv": a} for i, a in workloads.cli_items(w)]
        res = run.spawn({"workload": w, "items": items},
                        time.perf_counter() + run.RUN_BUDGET_S)
        out[w] = {}
        for item, rec in zip(items, res["items"]):
            if rec["error"] or rec["rc"] != 0:
                print(f"error: {item['id']}: rc {rec['rc']} {rec['error']}",
                      file=sys.stderr)
                return 1
            out[w][item["id"]] = rec["out"]
    with open(os.path.join(run.HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
