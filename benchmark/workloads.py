"""The three benchmark workloads: inputs, requests and output checks.

Each workload is a closed loop: one client in one process sends request
``i + 1`` only after request ``i`` has returned, and each request is timed
as the best of ``passes`` sends (see ``worker.py``).  Inputs come from the
seed alone and are generated with numpy and json only, outside every timed
region.  ``setup`` holds the one-time library calls a user process pays
before it can serve its first request; ``request`` is the timed call;
``check`` and ``finish`` compare outputs with references that share no code
with the path under test, and run outside the timed region.

Graph sizes sit on either side of the package's 2000-vertex switch between
a materialized inverse of the conductance matrix and per-column solves:
``cov_sites`` (600 vertices) and ``cli_mix`` (900) below it, ``field_sim``
(2500) above it.  ``field_sim`` is not listed in BENCHMARK.json: its
requests stream a 50 MB dense factor, and on a shared 2-core machine the
spread of its p90 latency over ten seeds (0.26-0.28 of the median) exceeded
the largest bound the benchmark may set.  Run it by name to measure that
side of the switch.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

FAMILIES = ("power_exponential", "matern", "generalized_cauchy", "dagum")
METRICS = ("resistance", "geodesic")


# -- input generation (numpy only) ---------------------------------------------


def cactus_graph(rng, n_vertices: int):
    """Random cactus: bridges and simple cycles glued at single vertices.

    Edge lengths lie in [0.8, 1.2], so on every cycle (at least three edges)
    no edge exceeds half the circumference and the graph is distance
    consistent.
    """
    edges = []
    n = 1
    while n < n_vertices:
        anchor = int(rng.integers(n))
        room = n_vertices - n
        if room < 2 or rng.random() < 0.3:
            ring = [anchor, n]
        else:
            k = int(min(rng.integers(3, 9), room + 1))
            ring = [anchor, *range(n, n + k - 1)]
        n += len(ring) - 1
        closing = len(ring) if len(ring) > 2 else 1
        for a in range(closing):
            b = (a + 1) % len(ring)
            length = float(rng.uniform(0.8, 1.2))
            edges.append((f"e{len(edges)}", f"v{ring[a]}", f"v{ring[b]}", length))
    return [f"v{k}" for k in range(n)], edges


def jittered_grid(rng, side: int):
    """``side`` x ``side`` grid, edge lengths uniform in [0.8, 1.2]."""
    vertices = [f"{r}_{c}" for r in range(side) for c in range(side)]
    edges = []
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                edges.append((f"h{r}_{c}", f"{r}_{c}", f"{r}_{c + 1}"))
            if r + 1 < side:
                edges.append((f"v{r}_{c}", f"{r}_{c}", f"{r + 1}_{c}"))
    lengths = rng.uniform(0.8, 1.2, size=len(edges))
    return vertices, [(*e, float(w)) for e, w in zip(edges, lengths)]


def random_sites(rng, edges, m: int):
    """``m`` distinct interior edge sites as (edge id, offset) pairs."""
    sites: set = set()
    while len(sites) < m:
        k = int(rng.integers(len(edges)))
        eid, _, _, length = edges[k]
        sites.add((eid, float(rng.uniform(0.02, 0.98) * length)))
    return sorted(sites)


def kernel_params(rng, family: str) -> dict:
    """Seeded parameters inside the family's range of validity."""
    params = {
        "family": family,
        "alpha": float(rng.uniform(0.1, 0.5) if family == "matern" else rng.uniform(0.3, 1.0)),
        "beta": float(rng.uniform(0.3, 2.0)),
    }
    if family == "generalized_cauchy":
        params["xi"] = float(rng.uniform(0.3, 2.0))
    elif family == "dagum":
        params["xi"] = float(rng.uniform(0.3, 1.0))
    return params


# -- independent references -----------------------------------------------------


def reference_profile(params: dict, t):
    """The four radial families evaluated from their textbook formulas."""
    # scipy is imported here, after set-up, so that its import cost stays
    # inside the measured import of graphfields.
    import scipy.special

    t = np.asarray(t, dtype=float)
    alpha, beta = params["alpha"], params["beta"]
    family = params["family"]
    if family == "power_exponential":
        return np.exp(-beta * t**alpha)
    if family == "matern":
        z = beta * np.maximum(t, 1e-300)
        out = z**alpha * scipy.special.kv(alpha, z) / (2.0 ** (alpha - 1.0) * math.gamma(alpha))
        return np.where(t > 0, out, 1.0)
    s = beta * t**alpha
    if family == "generalized_cauchy":
        return (s + 1.0) ** (-params["xi"] / alpha)
    return 1.0 - (s / (1.0 + s)) ** (params["xi"] / alpha)


def reference_geodesic(vertices, edges, sites, pairs):
    """Geodesic distances between site pairs by plain Dijkstra on the graph
    subdivided at every site involved."""
    import scipy.sparse
    import scipy.sparse.csgraph

    index = {v: k for k, v in enumerate(vertices)}
    involved = sorted({s for pair in pairs for s in pair})
    node = {site: len(vertices) + k for k, site in enumerate(involved)}
    cuts: dict = {}
    for site in involved:
        cuts.setdefault(site[0], []).append(site)
    rows, cols, weights = [], [], []
    for eid, u, v, length in edges:
        prev, prev_off = index[u], 0.0
        for site in sorted(cuts.get(eid, []), key=lambda s: s[1]):
            rows.append(prev), cols.append(node[site]), weights.append(site[1] - prev_off)
            prev, prev_off = node[site], site[1]
        rows.append(prev), cols.append(index[v]), weights.append(length - prev_off)
    size = len(vertices) + len(involved)
    adjacency = scipy.sparse.csr_matrix((weights, (rows, cols)), shape=(size, size))
    sources = sorted({node[p] for p, _ in pairs})
    dist = scipy.sparse.csgraph.dijkstra(adjacency, directed=False, indices=sources)
    row = {s: k for k, s in enumerate(sources)}
    return [float(dist[row[node[p]], node[q]]) for p, q in pairs]


def _square(matrix, m: int) -> bool:
    arr = np.asarray(matrix, dtype=float)
    return arr.shape == (m, m) and bool(np.isfinite(arr).all())


# -- workloads ------------------------------------------------------------------


class CovSites:
    """Certified covariance matrices over fresh edge sites of a cactus graph.

    Requests alternate between the two metrics and cycle through the four
    families, so one cycle of eight covers every (metric, family) pair.
    """

    name = "cov_sites"
    cycle = 8
    passes = 2
    trace_requests = 48
    N_VERTICES = 600
    N_SITES = 500
    RESISTANCE_CHECKS = 1
    GEODESIC_CHECKS = 8
    TOL = 1e-7

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.vertices, self.edges = cactus_graph(
            np.random.default_rng([seed, 0]), self.N_VERTICES
        )

    def setup(self, gf) -> None:
        self.gf = gf
        self.graph = gf.build_graph(self.vertices, self.edges)

    def prepare(self, i: int):
        rng = np.random.default_rng([self.seed, 1, i])
        sites = random_sites(rng, self.edges, self.N_SITES)
        params = kernel_params(rng, FAMILIES[(i // 2) % len(FAMILIES)])
        spec = self.gf.KernelSpec(
            self.gf.KernelFamily(params["family"]), params["alpha"], params["beta"], params.get("xi")
        )
        points = [self.gf.edge_point(eid, off) for eid, off in sites]
        return sites, params, spec, points, METRICS[i % 2]

    def request(self, prepared):
        _, _, spec, points, metric = prepared
        return self.gf.covariance_matrix(self.graph, points, spec, metric)

    def check(self, i: int, prepared, out):
        sites, params, _, points, metric = prepared
        m = len(sites)
        values = np.asarray(out.values, dtype=float)
        if not _square(values, m) or len(out.labels) != m:
            return "covariance matrix has the wrong shape or non-finite entries"
        if not out.psd_certificate.is_psd:
            return f"certificate is not psd (min_eig {out.psd_certificate.min_eig})"
        if not np.allclose(values, values.T, rtol=0.0, atol=1e-12):
            return "covariance matrix is not symmetric"
        if not np.allclose(np.diag(values), 1.0, rtol=0.0, atol=1e-12):
            return "covariance matrix has no unit diagonal"
        rng = np.random.default_rng([self.seed, 2, i])
        n_pairs = self.RESISTANCE_CHECKS if metric == "resistance" else self.GEODESIC_CHECKS
        idx = [tuple(rng.choice(m, size=2, replace=False)) for _ in range(n_pairs)]
        if metric == "resistance":
            ref = [
                self.gf.oracle_effective_resistance(self.graph, points[a], points[b])
                for a, b in idx
            ]
        else:
            ref = reference_geodesic(
                self.vertices, self.edges, sites, [(sites[a], sites[b]) for a, b in idx]
            )
        expected = reference_profile(params, ref)
        got = np.array([values[a, b] for a, b in idx])
        worst = float(np.max(np.abs(got - expected)))
        if worst > self.TOL:
            return f"{metric} covariance entries differ from the reference by {worst:g}"
        return None

    def finish(self):
        return None


class FieldSim:
    """Exact draws of the canonical field at fixed sites of a 50 x 50 grid.

    The graph, the resistance context and the model d_R matrix are built at
    set-up; each request draws 300 realizations and their empirical
    variogram.  The same 320 sites (8 on each of 40 edges) repeat across
    requests.
    """

    name = "field_sim"
    cycle = 1
    # Every request does the same memory-bound work, so its latency spread
    # is interference alone; a third send keeps bursts out of the p90.
    passes = 3
    trace_requests = 40
    SIDE = 50
    N_SITE_EDGES = 40
    SITES_PER_EDGE = 8
    DRAWS = 300
    # The pooled variogram must match d_R entrywise within this many
    # standard errors of a Gaussian sample variance, sqrt(2 / (draws - 1)).
    N_STANDARD_ERRORS = 6.0

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 0])
        self.seed = seed
        self.vertices, self.edges = jittered_grid(rng, self.SIDE)
        chosen = rng.choice(len(self.edges), size=self.N_SITE_EDGES, replace=False)
        self.sites = []
        for k in sorted(chosen):
            eid, _, _, length = self.edges[k]
            fracs = (np.arange(self.SITES_PER_EDGE) + rng.uniform(0.2, 0.8, self.SITES_PER_EDGE))
            self.sites += [(eid, float(f / self.SITES_PER_EDGE * length)) for f in fracs]
        self.pooled = np.zeros((len(self.sites), len(self.sites)))
        self.pooled_draws = 0
        self.pooled_requests = 0

    def setup(self, gf) -> None:
        self.gf = gf
        self.graph = gf.build_graph(self.vertices, self.edges)
        self.ctx = gf.build_resistance_context(self.graph)
        self.points = [gf.edge_point(eid, off) for eid, off in self.sites]
        self.model = gf.distance_matrix(self.graph, self.points, "resistance", ctx=self.ctx)

    def prepare(self, i: int):
        return self.seed * 1_000_003 + i

    def request(self, prepared):
        sample = self.gf.sample_canonical_field(self.ctx, self.points, self.DRAWS, prepared)
        return sample, self.gf.empirical_variogram(sample)

    def check(self, i: int, prepared, out):
        sample, vario = out
        m = len(self.sites)
        if np.shape(sample.draws) != (self.DRAWS, m) or len(sample.labels) != m:
            return "sample has the wrong shape"
        if not _square(vario, m) or not np.allclose(np.diag(vario), 0.0):
            return "variogram has the wrong shape, non-finite entries or a nonzero diagonal"
        self.pooled += vario
        self.pooled_draws += self.DRAWS - 1
        self.pooled_requests += 1
        return None

    def finish(self):
        if not self.pooled_requests:
            return None
        off = ~np.eye(len(self.sites), dtype=bool)
        pooled = self.pooled[off] / self.pooled_requests
        model = np.asarray(self.model)[off]
        worst = float(np.max(np.abs(pooled - model) / model))
        tol = self.N_STANDARD_ERRORS * math.sqrt(2.0 / self.pooled_draws)
        if worst > tol:
            return f"pooled variogram differs from d_R by {worst:.4f} (tolerance {tol:.4f})"
        return None


class CliMix:
    """Every CLI command once per cycle, called in process over JSON files.

    Each command parses its files and rebuilds the graph; interpreter
    start-up is left out of the request and measured on its own.
    """

    name = "cli_mix"
    passes = 2
    trace_requests = 52
    SIDE = 30
    N_POINTS = 200

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 0])
        self.seed = seed
        vertices, edges = jittered_grid(rng, self.SIDE)
        self.n_vertices, self.n_edges = len(vertices), len(edges)
        path = lambda name: os.path.join(workdir, name)  # noqa: E731
        files = {"graph": path("graph.json"), "kernel": path("kernel.json")}
        self._write(files["graph"], {
            "vertices": vertices,
            "edges": [{"id": e, "u": u, "v": v, "length": w} for e, u, v, w in edges],
        })
        self._write(files["kernel"], kernel_params(rng, "power_exponential"))
        self.labels = {}
        for name in ("a", "b", "c", "d"):
            sites = random_sites(rng, edges, self.N_POINTS)
            files[name] = path(f"points_{name}.json")
            self._write(files[name], [{"edge": e, "offset": off} for e, off in sites])
            self.labels[name] = [f"{e}@{off!r}" for e, off in sites]
        (e1, o1), (e2, o2) = random_sites(rng, edges, 2)
        ends = ["--from", json.dumps({"edge": e1, "offset": o1}),
                "--to", json.dumps({"edge": e2, "offset": o2})]
        g, k = ["--graph", files["graph"]], ["--kernel", files["kernel"]]
        pts = {name: ["--points", files[name]] for name in "abcd"}
        self.commands = [
            ("validate", ["validate", *g]),
            ("blocks", ["blocks", *g]),
            ("forbidden-check", ["forbidden-check", *g]),
            ("dist.resistance", ["dist", *g, "--metric", "resistance", *ends]),
            ("dist.geodesic", ["dist", *g, "--metric", "geodesic", *ends]),
            ("distmatrix.resistance", ["distmatrix", *g, *pts["a"], "--metric", "resistance"]),
            ("distmatrix.geodesic", ["distmatrix", *g, *pts["b"], "--metric", "geodesic"]),
            ("cov", ["cov", *g, *pts["c"], *k]),
            ("psd-check", ["psd-check", *g, *pts["c"], *k]),
            ("simulate.canonical", ["simulate", *g, *pts["d"], "--n", "50", "--seed", str(seed)]),
            ("simulate.kernel", ["simulate", *g, *pts["c"], *k, "--n", "50", "--seed", str(seed)]),
            ("variogram", ["variogram", *g, *pts["d"], "--n", "2000", "--seed", str(seed)]),
            ("star-check", ["star-check", *k, "--n", "3"]),
        ]
        self.out_paths = [path(f"out_{k}.json") for k in range(len(self.commands))]
        self.cycle = len(self.commands)
        self.last_resistance = None

    @staticmethod
    def _write(path: str, obj) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)

    def setup(self, gf) -> None:
        import graphfields.cli

        self.cli = graphfields.cli

    def label(self, i: int) -> str:
        return self.commands[i % self.cycle][0]

    def prepare(self, i: int):
        k = i % self.cycle
        return k, [*self.commands[k][1], "--out", self.out_paths[k]]

    def request(self, prepared):
        return self.cli.main(prepared[1])

    def check(self, i: int, prepared, code):
        k = prepared[0]
        if code != 0:
            return f"exit code {code}"
        try:
            with open(self.out_paths[k], encoding="utf-8") as fh:
                out = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            return f"output does not parse: {exc}"
        return getattr(self, "_check_" + self.commands[k][0].split(".")[0].replace("-", "_"))(
            self.commands[k][0], out
        )

    def _matrix(self, out, points: str, metric: str):
        labels = self.labels[points]
        if out.get("labels") != labels or out.get("metric") != metric:
            return None
        matrix = np.asarray(out.get("matrix"), dtype=float)
        return matrix if _square(matrix, len(labels)) else None

    def _check_validate(self, name, out):
        if out.get("valid") is not True or (out.get("n_vertices"), out.get("n_edges")) != (
            self.n_vertices, self.n_edges
        ):
            return "validate reports the wrong graph size"
        return None

    def _check_blocks(self, name, out):
        blocks = out.get("blocks", [])
        if sum(len(b["edges"]) for b in blocks) != self.n_edges:
            return "blocks do not partition the edges"
        if out.get("class") != "ForbiddenForGeodesic":
            return "a grid must be forbidden for geodesic kernels"
        return None

    def _check_forbidden_check(self, name, out):
        witness = out.get("witness") or {}
        if out.get("class") != "ForbiddenForGeodesic" or not witness.get("quadratic_form", 0.0) < 0.0:
            return "forbidden-check gives no negative witness on a grid"
        return None

    def _check_dist(self, name, out):
        value = out.get("value")
        if not isinstance(value, float) or not value > 0.0:
            return "distance is not a positive number"
        if name == "dist.resistance":
            self.last_resistance = value
        elif self.last_resistance is not None and self.last_resistance > value * (1.0 + 1e-9):
            return "resistance distance exceeds geodesic distance"
        return None

    def _check_distmatrix(self, name, out):
        metric = name.split(".")[1]
        matrix = self._matrix(out, "a" if metric == "resistance" else "b", metric)
        if matrix is None:
            return "distance matrix has the wrong labels or shape"
        if not np.allclose(matrix, matrix.T, rtol=0.0, atol=1e-9) or np.any(np.diag(matrix) != 0.0):
            return "distance matrix is not symmetric with a zero diagonal"
        return None

    def _check_cov(self, name, out):
        matrix = self._matrix(out, "c", "resistance")
        if matrix is None or not np.allclose(np.diag(matrix), 1.0, rtol=0.0, atol=1e-12):
            return "covariance matrix has the wrong labels, shape or diagonal"
        if out.get("psd_certificate", {}).get("verdict") != "psd":
            return "covariance certificate is not psd"
        return None

    def _check_psd_check(self, name, out):
        return None if out.get("verdict") == "psd" else "psd-check verdict is not psd"

    def _check_simulate(self, name, out):
        points = "d" if name == "simulate.canonical" else "c"
        draws = np.asarray(out.get("draws"), dtype=float)
        if out.get("labels") != self.labels[points] or draws.shape != (50, self.N_POINTS):
            return "sample has the wrong labels or shape"
        if out.get("model") != name.split(".")[1] or not np.isfinite(draws).all():
            return "sample has the wrong model or non-finite draws"
        return None

    def _check_variogram(self, name, out):
        matrix = self._matrix(out, "d", "empirical_variogram")
        if matrix is None or out.get("n") != 2000 or np.any(np.diag(matrix) != 0.0):
            return "variogram has the wrong labels, shape, draw count or diagonal"
        return None

    def _check_star_check(self, name, out):
        results = out.get("results", [])
        if len(results) != 20 or out.get("all_pass") != all(r["passed"] for r in results):
            return "star-check results are incomplete or inconsistent"
        return None

    def finish(self):
        return None


WORKLOADS = {cls.name: cls for cls in (CovSites, FieldSim, CliMix)}
