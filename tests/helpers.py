"""Fixture graphs, seeded random generators, and brute-force oracles."""

from __future__ import annotations

import math

import numpy as np

import graphfields as gf


# -- fixed fixtures -----------------------------------------------------------


def single_edge():
    return gf.build_graph(["0", "1"], [("e1", "0", "1", 1.0)])


def path_abc():
    """A--B--C with lengths 1 and 2."""
    return gf.build_graph(
        ["A", "B", "C"], [("ab", "A", "B", 1.0), ("bc", "B", "C", 2.0)]
    )


def unit_triangle():
    return gf.build_graph(
        ["A", "B", "C"],
        [("ab", "A", "B", 1.0), ("bc", "B", "C", 1.0), ("ca", "C", "A", 1.0)],
    )


def unit_square():
    return gf.build_graph(
        ["A", "B", "C", "D"],
        [
            ("ab", "A", "B", 1.0),
            ("bc", "B", "C", 1.0),
            ("cd", "C", "D", 1.0),
            ("da", "D", "A", 1.0),
        ],
    )


def figure_eight():
    """Two unit triangles sharing vertex A."""
    return gf.build_graph(
        ["A", "B", "C", "D", "E"],
        [
            ("ab", "A", "B", 1.0),
            ("bc", "B", "C", 1.0),
            ("ca", "C", "A", 1.0),
            ("ad", "A", "D", 1.0),
            ("de", "D", "E", 1.0),
            ("ea", "E", "A", 1.0),
        ],
    )


def unit_star(n_edges: int):
    return gf.build_graph(
        ["O"] + [f"L{i}" for i in range(1, n_edges + 1)],
        [(f"s{i}", "O", f"L{i}", 1.0) for i in range(1, n_edges + 1)],
    )


def theta_graph():
    """Two junctions joined by three disjoint two-edge routes of length 2."""
    return gf.build_graph(
        ["x", "y", "m1", "m2", "m3"],
        [
            ("p1a", "x", "m1", 1.0),
            ("p1b", "m1", "y", 1.0),
            ("p2a", "x", "m2", 1.0),
            ("p2b", "m2", "y", 1.0),
            ("p3a", "x", "m3", 1.0),
            ("p3b", "m3", "y", 1.0),
        ],
    )


# -- random generators --------------------------------------------------------


def vertex_distance(g: gf.EuclideanGraph, u: str, v: str) -> float:
    """Shortest-route distance between two vertices, as the graph's row
    store gives it to geodesic queries."""
    idx = np.unique([g.vertex_index(u), g.vertex_index(v)])
    return float(g._distance_block(idx)[0, -1])


def has_edge_between(g: gf.EuclideanGraph, u: str, v: str) -> bool:
    return any({e.u, e.v} == {u, v} for e in g.edges)


def random_tree(rng: np.random.Generator, n_vertices: int) -> gf.EuclideanGraph:
    labels = [f"v{i:03d}" for i in range(n_vertices)]
    edges = []
    for i in range(1, n_vertices):
        parent = int(rng.integers(0, i))
        length = float(rng.uniform(0.5, 2.0))
        edges.append((f"t{i:03d}", labels[parent], labels[i], length))
    return gf.build_graph(labels, edges)


def random_graph(
    rng: np.random.Generator, n_vertices: int, n_chords: int
) -> gf.EuclideanGraph:
    """Random tree plus chords, kept distance consistent.

    A chord of length exactly the current endpoint distance never breaks
    consistency; shorter chords are attempted first and rolled back when
    validation rejects them.
    """
    g = random_tree(rng, n_vertices)
    added = 0
    attempts = 0
    while added < n_chords and attempts < 50 * n_chords:
        attempts += 1
        i, j = rng.choice(len(g.vertices), size=2, replace=False)
        u, v = g.vertices[int(i)], g.vertices[int(j)]
        if has_edge_between(g, u, v):
            continue
        base = vertex_distance(g, u, v)
        for delta in (float(rng.uniform(0.7, 1.0)), 1.0):
            try:
                g = gf.build_graph(
                    g.vertices,
                    list(g.edges) + [(f"c{added:03d}", u, v, delta * base)],
                )
                added += 1
                break
            except gf.DistanceInconsistentError:
                continue
    assert added == n_chords, "chord construction failed"
    return g


def jittered_grid(rng: np.random.Generator, side: int) -> gf.EuclideanGraph:
    """``side`` x ``side`` grid with edge lengths uniform in [0.8, 1.2]; any
    detour around a square is at least 2.4, so every edge is consistent."""
    label = [[f"v{i}_{j}" for j in range(side)] for i in range(side)]
    edges = [
        (f"h{i}_{j}", label[i][j], label[i][j + 1], float(rng.uniform(0.8, 1.2)))
        for i in range(side)
        for j in range(side - 1)
    ] + [
        (f"v{i}_{j}", label[i][j], label[i + 1][j], float(rng.uniform(0.8, 1.2)))
        for i in range(side - 1)
        for j in range(side)
    ]
    return gf.build_graph([x for row in label for x in row], edges)


def random_cycle_lengths(rng: np.random.Generator, size: int) -> list[float]:
    # Range chosen so no edge can exceed half the circumference.
    return [float(rng.uniform(0.8, 1.2)) for _ in range(size)]


def random_onesum(rng: np.random.Generator, n_blocks: int) -> gf.EuclideanGraph:
    """Sequential gluing of random cycles and paths at shared vertices."""
    vertices = ["seed"]
    edges: list[tuple[str, str, str, float]] = []
    part = 0

    def fresh(k: int) -> str:
        return f"g{part}v{k}"

    for part in range(n_blocks):
        attach = vertices[int(rng.integers(0, len(vertices)))]
        if rng.random() < 0.5:
            size = int(rng.integers(3, 7))
            ring = [attach] + [fresh(k) for k in range(1, size)]
            vertices.extend(ring[1:])
            lengths = random_cycle_lengths(rng, size)
            for k in range(size):
                edges.append(
                    (f"g{part}e{k}", ring[k], ring[(k + 1) % size], lengths[k])
                )
        else:
            size = int(rng.integers(1, 4))
            prev = attach
            for k in range(size):
                nxt = fresh(k)
                vertices.append(nxt)
                edges.append((f"g{part}e{k}", prev, nxt, float(rng.uniform(0.5, 2.0))))
                prev = nxt
    g = gf.build_graph(vertices, edges)
    assert gf.block_decomposition(g).validity is gf.GeodesicValidity.SAFE
    return g


def random_points(
    rng: np.random.Generator,
    g: gf.EuclideanGraph,
    count: int,
    vertex_share: float = 0.4,
) -> list[gf.GraphPoint]:
    """Distinct canonical points, a mix of vertices and edge interiors."""
    points: list[gf.GraphPoint] = []
    seen: set = set()
    guard = 0
    while len(points) < count:
        guard += 1
        assert guard < 100 * count, "could not find enough distinct points"
        if rng.random() < vertex_share or not g.edges:
            label = g.vertices[int(rng.integers(0, len(g.vertices)))]
            p = gf.vertex_point(label)
        else:
            e = g.edges[int(rng.integers(0, len(g.edges)))]
            p = gf.edge_point(e.id, float(rng.uniform(0.02, 0.98)) * e.length)
        p = gf.canonicalize(g, p)
        key = (p.vertex, p.edge, p.offset)
        if key in seen:
            continue
        seen.add(key)
        points.append(p)
    return points


# -- brute-force oracles ------------------------------------------------------


def r_graph(ctx: gf.ResistanceContext, p: gf.GraphPoint, q: gf.GraphPoint) -> float:
    """Covariance of the canonical field between two points."""
    pts = [gf.canonicalize(ctx.graph, x) for x in (p, q)]
    return float(gf.r_graph_matrix(ctx, pts)[0, 1])


def tree_kernel_closed_form(
    ctx: gf.ResistanceContext, p: gf.GraphPoint, q: gf.GraphPoint
) -> float:
    """Closed form of the canonical-field covariance on a tree: half the
    rooted-path overlap plus one."""
    g = ctx.graph
    assert len(g.edges) == len(g.vertices) - 1, "closed form requires a tree"
    o = gf.vertex_point(ctx.origin)
    overlap = (
        gf.geodesic_distance(g, p, o)
        + gf.geodesic_distance(g, q, o)
        - gf.geodesic_distance(g, p, q)
    )
    return 0.5 * overlap + 1.0


def embedding_gram(g: gf.EuclideanGraph, points, base_index: int, kind) -> np.ndarray:
    """Gram matrix (d(p_i, x0) + d(p_j, x0) - d(p_i, p_j)) / 2 with x0 the
    base point: PSD exactly when the square root of the metric embeds in a
    Hilbert space, which holds for every graph under the resistance metric
    and only for bridge/cycle assemblies under the geodesic metric."""
    dm = gf.distance_matrix(g, points, kind)
    col = dm[:, base_index]
    return 0.5 * (col[:, None] + col[None, :] - dm)


def brute_force_vertex_distance(g: gf.EuclideanGraph, u: str, v: str) -> float:
    """Minimum length over all simple vertex paths, by full enumeration."""
    best = math.inf
    neighbors: dict[str, list[tuple[str, float]]] = {x: [] for x in g.vertices}
    for e in g.edges:
        neighbors[e.u].append((e.v, e.length))
        neighbors[e.v].append((e.u, e.length))

    def descend(cur: str, acc: float, visited: frozenset) -> None:
        nonlocal best
        if acc >= best:
            return
        if cur == v:
            best = acc
            return
        for nxt, length in neighbors[cur]:
            if nxt not in visited:
                descend(nxt, acc + length, visited | {nxt})

    descend(u, 0.0, frozenset({u}))
    return best


def brute_force_point_distance(
    g: gf.EuclideanGraph, p: gf.GraphPoint, q: gf.GraphPoint
) -> float:
    """Geodesic oracle for points built on the path-enumeration distances."""
    p = gf.canonicalize(g, p)
    q = gf.canonicalize(g, q)
    if p == q:
        return 0.0

    def legs(point):
        if point.is_vertex:
            return [(point.vertex, 0.0)]
        e = g.edge(point.edge)
        return [(e.u, point.offset), (e.v, e.length - point.offset)]

    best = math.inf
    if not p.is_vertex and not q.is_vertex and p.edge == q.edge:
        best = abs(p.offset - q.offset)
    for x, leg_p in legs(p):
        for y, leg_q in legs(q):
            best = min(best, leg_p + brute_force_vertex_distance(g, x, y) + leg_q)
    return best


def dense_canonical_covariance(g: gf.EuclideanGraph, origin: str, points):
    """The canonical covariance at canonical points, built densely from the
    definition and returned as its two parts ``(mu, bridge)``.

    ``mu = W inv(L) W^T`` is the vertex field (covariance ``inv(L)``, with
    ``L`` the conductance Laplacian plus a unit bump at ``origin``)
    interpolated by relative position, and ``bridge`` is the Brownian bridge
    ``(min(a, b) - a b) length`` between interior points on one edge.
    """
    n = len(g.vertices)
    lap = np.zeros((n, n))
    for e in g.edges:
        i, j = g.vertex_index(e.u), g.vertex_index(e.v)
        c = 1.0 / e.length
        lap[[i, j, i, j], [i, j, j, i]] += [c, c, -c, -c]
    lap[g.vertex_index(origin), g.vertex_index(origin)] += 1.0
    m = len(points)
    weights = np.zeros((m, n))
    bridge = np.zeros((m, m))
    for k, p in enumerate(points):
        if p.is_vertex:
            weights[k, g.vertex_index(p.vertex)] = 1.0
            continue
        e = g.edge(p.edge)
        a = p.offset / e.length
        weights[k, g.vertex_index(e.u)] = 1.0 - a
        weights[k, g.vertex_index(e.v)] = a
        for j, q in enumerate(points):
            if not q.is_vertex and q.edge == p.edge:
                b = q.offset / e.length
                bridge[k, j] = (min(a, b) - a * b) * e.length
    return weights @ np.linalg.inv(lap) @ weights.T, bridge


def isomorphic_by_labels(
    g1: gf.EuclideanGraph, g2: gf.EuclideanGraph, tol: float = 1e-12
) -> bool:
    """Same vertex labels and the same endpoint-pair/length multiset."""
    if set(g1.vertices) != set(g2.vertices):
        return False
    if len(g1.edges) != len(g2.edges):
        return False
    def signature(g):
        return sorted(
            (tuple(sorted((e.u, e.v))), e.length) for e in g.edges
        )
    for (pair1, len1), (pair2, len2) in zip(signature(g1), signature(g2)):
        if pair1 != pair2 or abs(len1 - len2) > tol:
            return False
    return True
