"""Run one benchmark workload in this (fresh) process.

Usage, from the root of a graphfields checkout, with ``src`` on PYTHONPATH:

    python3 benchmark/worker.py --workload NAME --seed N --seconds S --mode MODE

``--mode setup`` generates the inputs, imports graphfields, makes the
workload's one-time library calls and reports the set-up time.  ``--mode
run`` then runs the timed closed loop and checks every output outside the
timed region.  ``--mode trace`` traces set-up and a fixed number of
requests through ``tracer.Tracer``, then runs the same loop untraced to
measure the tracing overhead.  The last line of standard output is one JSON
object.

Timing protocol.  The machines this runs on are shared: other tenants slow
every request on the box by up to 60 % in bursts lasting seconds.  In
``run`` mode the loop therefore sends its requests once (checking each
output), then sends the same sequence again ``passes - 1`` times (a
workload attribute), and times each request as the best of its sends;
passes lie seconds apart, so a burst rarely covers every send of one
request.  Slower drift of the machine's
speed, 20-35 % over minutes, still reaches the figures, and the bounds in
BENCHMARK.json allow for it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import numpy as np

from tracer import Tracer
from workloads import WORKLOADS

# The p90 latency needs at least ten samples above it.
MIN_REQUESTS = 100


class Loop:
    """Latencies, inputs and failures of the requests of one closed loop."""

    def __init__(self):
        self.prepared: list = []
        self.latencies: list[float] = []
        self.labels: list = []
        self.failures: list[str] = []
        self.sent = 0

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def percentile_ms(latencies: list[float], q: int) -> float:
    if len(latencies) < 2:
        return 1000.0 * latencies[0]
    return 1000.0 * statistics.quantiles(latencies, n=100)[q - 1]


def _send(wl, loop: Loop, i: int, prepared) -> tuple[float, object]:
    start = time.perf_counter()
    try:
        out = wl.request(prepared)
    except Exception:
        traceback.print_exc()
        loop.failures.append(f"request {i}: raised")
        out = None
    loop.sent += 1
    return time.perf_counter() - start, out


def run_loop(wl, first: int, deadline: float, *, count=None, seconds=None, tracer=None) -> Loop:
    """Send requests ``first, first + 1, ...`` until ``count`` are done, or
    until ``seconds`` of request time and MIN_REQUESTS have passed at the
    end of a workload cycle, or the deadline (a perf_counter value) passes."""
    loop = Loop()
    label = getattr(wl, "label", lambda i: None)
    i = first
    while True:
        prepared = wl.prepare(i)
        failures = len(loop.failures)
        elapsed, out = _send(wl, loop, i, prepared)
        if len(loop.failures) == failures:
            if tracer is not None:
                tracer.paused = True
            try:
                error = wl.check(i, prepared, out)
            except Exception:
                traceback.print_exc()
                error = "output check raised"
            finally:
                if tracer is not None:
                    tracer.paused = False
            if error is not None:
                loop.failures.append(f"request {i}: {error}")
        loop.prepared.append(prepared)
        loop.latencies.append(elapsed)
        loop.labels.append(label(i))
        i += 1
        done = i - first
        if count is not None:
            if done >= count:
                return loop
        elif done % wl.cycle == 0 and loop.busy_s >= seconds and done >= MIN_REQUESTS:
            return loop
        if time.perf_counter() > deadline:
            return loop


def resend(wl, loop: Loop, deadline: float) -> None:
    """Send the loop's requests again in order, keeping each one's best time."""
    for k, prepared in enumerate(loop.prepared):
        if time.perf_counter() > deadline:
            return
        elapsed, _ = _send(wl, loop, k, prepared)
        loop.latencies[k] = min(loop.latencies[k], elapsed)


def _import_graphfields(root: str):
    gf = importlib.import_module("graphfields")
    src = os.path.join(os.path.realpath(root), "src", "")
    if not os.path.realpath(gf.__file__).startswith(src):
        raise SystemExit(f"graphfields was imported from {gf.__file__}, not from {src}")
    return gf


def _info(seed: int) -> dict:
    import scipy

    threads = {
        k: os.environ.get(k)
        for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threads,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    parser.add_argument("--wall-limit", type=float, default=120.0,
                        help="stop sending requests after this many wall-clock seconds")
    args = parser.parse_args(argv)

    root = os.getcwd()
    scratch = os.path.join(root, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        tracer = Tracer() if args.mode == "trace" else None

        start = time.perf_counter()
        deadline = start + args.wall_limit
        gf = _import_graphfields(root)
        if tracer is not None:
            tracer.install()
        wl.setup(gf)
        setup_s = time.perf_counter() - start
        result = {"setup_s": setup_s}
        if args.mode == "setup":
            print(json.dumps(result))
            return 0

        loops = []
        if tracer is not None:
            traced = run_loop(wl, 0, deadline, count=wl.trace_requests, tracer=tracer)
            tracer.uninstall()
            loops.append(traced)
            timed = run_loop(wl, wl.trace_requests, deadline, seconds=args.seconds)
        else:
            timed = run_loop(wl, 0, deadline, seconds=args.seconds / wl.passes)
            for _ in range(wl.passes - 1):
                resend(wl, timed, deadline)
        loops.append(timed)

        failures = [f for loop in loops for f in loop.failures]
        attempted = sum(loop.sent for loop in loops)
        pooled_error = wl.finish()
        if pooled_error is not None:
            failures.append(f"pooled check: {pooled_error}")
        for line in failures[:20]:
            print(f"FAILED {line}", file=sys.stderr)
        failed = attempted if pooled_error is not None else min(len(failures), attempted)

        result.update(
            attempted=attempted,
            failed=failed,
            requests=len(timed.latencies),
            latency_p50_ms=percentile_ms(timed.latencies, 50),
            latency_p90_ms=percentile_ms(timed.latencies, 90),
            throughput_rps=len(timed.latencies) / timed.busy_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            info=_info(args.seed),
        )
        if tracer is not None:
            result["trace"] = {k: list(v) for k, v in tracer.metrics().items()}
            result["trace_absent"] = tracer.absent
            result["trace_overhead_ratio"] = (len(traced.latencies) / traced.busy_s) / (
                len(timed.latencies) / timed.busy_s
            )
            by_label: dict = {}
            for lab, lat in zip(timed.labels, timed.latencies):
                if lab is not None:
                    by_label.setdefault(lab, []).append(lat)
            result["label_p50_ms"] = {
                lab: 1000.0 * statistics.median(v) for lab, v in by_label.items()
            }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
