"""One benchmark pass in a fresh interpreter, so every sympgen cache is cold.

Usage: python3 worker.py ROOT JOB_JSON

Imports sympgen from ROOT/src, runs the job's items once, and prints one
JSON line: the time.perf_counter() reading when ``import sympgen`` returned,
the time of the item list in seconds and in probe units (Meter), the peak
resident memory and each item's output.  On Linux perf_counter reads
CLOCK_MONOTONIC, which all processes share, so the parent subtracts its own
reading taken before the spawn to get the set-up time.

A job with workload "setup" only imports sympgen.  With "trace" set, the
pass runs under the tracer of layers.py, on the Meter's clock, and also
reports per-layer aggregates; with "check" set, an ``orders`` pass checks
every order after the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


PROBE_ROW = list(range(32))
# seconds between probes during a pass
PROBE_EVERY_S = 0.4


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop (a dot-product kernel).

    The speed of interpreted code on a machine whose cores other tenants
    share drifts by up to 2x within seconds; the probe's time measures that
    speed at one moment.
    """
    start = time.perf_counter()
    acc, row = 0, PROBE_ROW
    for i in range(10_000):
        acc = (acc + sum(a * b for a, b in zip(row, row)) + i) % 1000003
    return time.perf_counter() - start


class Meter:
    """Times a pass in seconds and in probe units.

    Between ``start()`` and ``finish()`` an interval timer interrupts the
    work every PROBE_EVERY_S seconds to run a probe.  ``clock()`` is a clock
    that stops while a probe runs, so neither the pass time nor a traced
    span includes probe time.  As the probes are evenly spaced in time, the
    mean of their speeds (1 / probe time) is the machine's mean speed over
    the pass; the pass time times that speed is the pass's length in probe
    units, which follows the work done rather than the machine's speed.
    """

    def __init__(self):
        self.probes: list[float] = []
        self.paused = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def _probe(self) -> None:
        start = time.perf_counter()
        self.probes.append(probe())
        self.paused += time.perf_counter() - start

    def _on_alarm(self, signum, frame) -> None:
        self._probe()
        # re-armed only now, so a slow probe can never overlap the next one
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    def start(self) -> None:
        self._probe()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)
        self.t0 = self.clock()

    def finish(self) -> dict:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = self.clock() - self.t0
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()
        speed = statistics.mean(1 / p for p in self.probes)
        return {"wall_s": wall, "wall_ref": wall * speed, "probes": self.probes}


def run_cli(job, meter):
    from sympgen import cli

    outs = []
    meter.start()
    for item in job["items"]:
        buf = io.StringIO()
        rc, err = None, None
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(item["argv"])
        except SystemExit as exc:  # argparse rejected the arguments
            rc, err = exc.code, _error(exc)
        except Exception as exc:
            err = _error(exc)
        outs.append({"rc": rc, "out": buf.getvalue(), "error": err})
    return meter.finish(), outs


def run_orders(job, meter):
    from sympgen import Mat, build, closure_bfs, element_order, standard_field
    from sympgen.construct import g3_displayed

    outs, built = [], []
    meter.start()
    for (recipe, n, q), words in job["pairs"]:
        try:
            field = standard_field(q)
            pair = build(recipe, n, q, field.gen(), field)
            letters = {"x": pair.x, "y": pair.y, "Y": pair.y * pair.y}
        except Exception as exc:
            outs += [{"error": _error(exc)}] * len(words)
            built.append(None)
            continue
        built.append((field, pair))
        for word in words:
            try:
                g = letters[word[0]]
                for c in word[1:]:
                    g = g * letters[c]
                outs.append({"out": element_order(g).to_json()})
            except Exception as exc:
                outs.append({"error": _error(exc)})
    for group, q in job["closures"]:
        try:
            field = standard_field(q)
            if group == "sl2":
                gens = [Mat(field, [[1, 1], [0, 1]]),
                        Mat(field, [[1, 0], [field.gen(), 1]])]
            else:
                gens = list(g3_displayed(field, field.elem(-1), "G3"))
            outs.append({"out": closure_bfs(gens)})
        except Exception as exc:
            outs.append({"error": _error(exc)})
    times = meter.finish()
    if job.get("check"):
        _check_orders(job, built, outs)
    return times, outs


def _check_orders(job, built, outs):
    """Set each item's "bad" to the reason its output is wrong, or None."""
    from workloads import SmallField, check_order, closure_size, word_matrix

    k = 0
    for (_pair, words), fp in zip(job["pairs"], built):
        if fp is None:
            k += len(words)
            continue
        field, pair = fp
        small = SmallField(field.p, field.f, field.modulus)

        def plain(m):
            return [[sum(c * field.p**i for i, c in enumerate(field.coeffs(v)))
                     for v in row] for row in m.rows_raw()]

        y = plain(pair.y)
        letters = {"x": plain(pair.x), "y": y, "Y": small.matmul(y, y)}
        for word in words:
            rec = outs[k]
            k += 1
            if "out" in rec:
                factors = [(int(p), e) for p, e in rec["out"].items()]
                rec["bad"] = check_order(small, word_matrix(small, letters, word),
                                         factors)
    for group, q in job["closures"]:
        rec = outs[k]
        k += 1
        if "out" in rec:
            want = closure_size(group, q)
            rec["bad"] = None if rec["out"] == want else f"size {rec['out']} != {want}"


def main() -> int:
    root, job = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, os.path.join(root, "src"))
    import sympgen
    ready = time.perf_counter()

    result = {"ready": ready, "sympgen_file": sympgen.__file__}
    if job["workload"] != "setup":
        meter = Meter()
        tracer = caches = None
        if job.get("trace"):
            import layers
            from spans import Tracer

            tracer = Tracer(clock=meter.clock)
            caches = layers.install(tracer)
        run = run_orders if job["workload"] == "orders" else run_cli
        times, result["items"] = run(job, meter)
        result.update(times)
        if tracer is not None:
            from spans import aggregate, call_tree

            spans = tracer.named_spans()
            result["layers"] = aggregate(spans)
            # call paths that take at least 5% of the pass, for the report
            floor = 0.05 * result["wall_s"]
            result["tree"] = sorted([list(path), calls, s] for path, (calls, s)
                                    in call_tree(spans).items() if s >= floor)
            result["hit_ratio"] = {name: layers.hit_ratio(fn)
                                   for name, fn in caches.items()}
            tracer.write_tsv(job["spans_path"])
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
