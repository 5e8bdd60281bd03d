"""Wall time and peak memory of graphfields at its scale walls, to compare
two trees.

Run from the root of a graphfields checkout:

    python3 tools/walls.py --metric geodesic [--side 141] [--sites 500]

It runs in a fresh child process with the BLAS and OpenMP thread counts
set to one, ``src`` on the import path and fixed string hashing, as
``benchmark/run.py`` runs its workloads (its ``child_env``), so
``ru_maxrss`` is the run's own.  It reaches the library through its public
API only, and takes its inputs from ``benchmark/workloads.py``, as
``tools/digest.py`` does.

It times several queries on one graph: it builds ``jittered_grid`` (rng
``[1, 0]``) with ``--side`` vertices a side, then answers four
``distance_matrix`` queries of ``--metric`` on that one graph.  Queries 0
to 2 are at ``--sites`` fresh ``random_sites`` (rng ``[1, 1, k]`` for query
``k``), so they time cold queries; query 3 repeats query 0's sites, so it
times what a query gains from the rows an earlier query stored (nothing,
for a geodesic query that searches from its points).  After each query it prints one JSON line: ``metric``,
``query``, its ``seconds``, the process's ``ru_maxrss_mb`` so far, ``n``
(vertices), ``m`` (points) and ``ends`` (the distinct endpoint vertices of
the points).

To compare a change with its parent, run it in both checkouts in
alternating order, several pairs, and compare the pairs.  No time is
checked here.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "benchmark"))

from run import child_env  # noqa: E402

def reuse(metric: str, side: int, sites: int):
    """One JSON-ready record per query."""
    import numpy as np

    import graphfields as gf
    from workloads import jittered_grid, random_sites

    vertices, edges = jittered_grid(np.random.default_rng([1, 0]), side)
    g = gf.build_graph(vertices, edges)
    ends_of = {eid: (u, v) for eid, u, v, _ in edges}
    for k, key in enumerate((0, 1, 2, 0)):
        chosen = random_sites(np.random.default_rng([1, 1, key]), edges, sites)
        points = [gf.edge_point(eid, off) for eid, off in chosen]
        start = time.perf_counter()
        gf.distance_matrix(g, points, metric)
        seconds = time.perf_counter() - start
        yield {
            "metric": metric,
            "query": k,
            "seconds": round(seconds, 6),
            "ru_maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "n": len(vertices),
            "m": len(points),
            "ends": len({x for eid, _ in chosen for x in ends_of[eid]}),
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--metric", choices=("geodesic", "resistance"), required=True)
    parser.add_argument("--side", type=int, default=141)
    parser.add_argument("--sites", type=int, default=500)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.child:
        cmd = [sys.executable, os.path.abspath(__file__), *(argv or sys.argv[1:]), "--child"]
        return subprocess.run(cmd, env=child_env(ROOT)).returncode
    for record in reuse(args.metric, args.side, args.sites):
        print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
