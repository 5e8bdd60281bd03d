"""Benchmark of graphfields: end-to-end metrics, or per-layer metrics when traced.

Run from the root of a graphfields checkout:

    python3 benchmark/run.py --workload cov_sites --seed 1 --seconds 10 --trace 0
    python3 benchmark/run.py --workload all --seed 1

Each workload runs in fresh child processes, one at a time, with the BLAS
and OpenMP thread counts set to BLAS_THREADS and ``src`` on the import
path.  With ``--trace 0`` the run reports the end-to-end metrics:
``setup_s`` is the median over SETUP_RUNS fresh processes (import plus the
workload's one-time library calls); latency, throughput and peak memory come
from the last of them, which runs the timed loop (see ``worker.py`` for how
requests are timed).  With ``--trace 1`` it reports the per-layer metrics
of ``tracer.py`` and ``cli.import_s``, the median wall time of fresh
``python -c "import graphfields"`` processes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the run's environment and every metric by name with its unit, and the
failure ratio.  The exit code is 0 when the benchmark ran, whatever the
checks found, and non-zero without a result when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cov_sites", "field_sim", "cli_mix")
SETUP_RUNS = 7
IMPORT_RUNS = 5
# One client runs one request at a time.  A second BLAS thread gives these
# matrix sizes little, and on a shared 2-core machine it stalls LAPACK calls
# while another process holds the other core: a first 600 x 600 Cholesky
# took 480 ms with two threads and 8 ms with one.
BLAS_THREADS = 1
# Every run must end within 180 s; leave room for reporting.
RUN_BUDGET_S = 170.0

E2E_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

CLI_LABELS = (
    "validate", "blocks", "forbidden-check", "dist.resistance", "dist.geodesic",
    "distmatrix.resistance", "distmatrix.geodesic", "cov", "psd-check",
    "simulate.canonical", "simulate.kernel", "variogram", "star-check",
)


class BenchError(Exception):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Fixed string hashing, so set iteration order is the same in every run.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(cmd: list, env: dict, deadline: float) -> tuple[str, float]:
    """Run one child to completion; return its standard output and wall time."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted before " + " ".join(cmd[1:3]))
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out after {timeout:.0f} s: {' '.join(cmd)}") from exc
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}: {' '.join(cmd)}")
    return proc.stdout, wall


def run_worker(cmd: list, env: dict, deadline: float) -> dict:
    """Run one worker; return the JSON object on the last line of its output."""
    lines = run_child(cmd, env, deadline)[0].strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"child printed no result: {' '.join(cmd)}") from exc


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict, deadline: float):
    worker = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
              "--seed", str(seed), "--seconds", str(seconds)]
    metrics: dict = {}
    if trace:
        imports = [
            run_child([sys.executable, "-c", "import graphfields"], env, deadline)[1]
            for _ in range(IMPORT_RUNS)
        ]
        metrics["cli.import_s"] = (statistics.median(imports), "s")
    setups = []
    if not trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(run_worker([*worker, "--mode", "setup"], env, deadline)["setup_s"])
    wall_limit = max(deadline - time.monotonic() - 30.0, 1.0)
    result = run_worker(
        [*worker, "--mode", "trace" if trace else "run", "--wall-limit", f"{wall_limit:.1f}"],
        env,
        deadline,
    )
    if trace:
        for key, (value, unit) in result["trace"].items():
            metrics[key] = (value, unit)
        labels = result.get("label_p50_ms", {})
        for label in CLI_LABELS:
            metrics[f"cli.{label}.p50_ms"] = (labels.get(label, 0.0), "ms")
        metrics["trace.overhead_ratio"] = (result["trace_overhead_ratio"], "ratio")
    else:
        setups.append(result["setup_s"])
        metrics["setup_s"] = (statistics.median(setups), "s")
        for key in ("latency_p50_ms", "latency_p90_ms", "throughput_rps", "peak_rss_mb"):
            metrics[key] = (result[key], E2E_UNITS[key])
    info = dict(result["info"], workload=name, requests=result["requests"])
    if trace and result.get("trace_absent"):
        info["absent"] = result["trace_absent"]
    return metrics, result["attempted"], result["failed"], info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "graphfields", "__init__.py")):
        print("benchmark: run from the root of a graphfields checkout "
              "(src/graphfields not found)", file=sys.stderr)
        return 2
    env = child_env(root)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict = {}
    attempted = failed = 0
    for name in names:
        try:
            w_metrics, w_attempted, w_failed, info = run_workload(
                name, args.seed, args.seconds, bool(args.trace), env,
                time.monotonic() + RUN_BUDGET_S,
            )
        except BenchError as exc:
            print(f"benchmark: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({"info": info}))
        prefix = f"{name}." if len(names) > 1 else ""
        for key, (value, unit) in w_metrics.items():
            print(f"{name:10s} {key:45s} {value!r:>24} {unit}")
            metrics[prefix + key] = {"value": value, "unit": unit}
        print(f"{name:10s} {'fail_ratio':45s} {w_failed / w_attempted!r:>24} "
              f"({w_failed}/{w_attempted} requests)")
        attempted += w_attempted
        failed += w_failed
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
