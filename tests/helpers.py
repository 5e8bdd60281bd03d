"""Fixture graphs, seeded random generators, and brute-force oracles."""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

import graphfields as gf
from graphfields.graph import _as_float, _edge_fields, _locate, _unique_label


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
    return float(gf.metrics._distance_block(g, idx)[0, -1])


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


def graded_grid(rng: np.random.Generator, side: int, orders: float = 6.5):
    """Vertices and edge tuples of a ``side`` x ``side`` grid whose column and
    row spacings grow geometrically over ``orders`` orders of magnitude
    (times a jitter in [0.8, 1.2]).  Every edge of a row has the same
    length, so any detour adds two rungs, and the grid is consistent."""

    def spacing():
        ramp = 10.0 ** np.linspace(-orders / 2, orders / 2, side - 1)
        return ramp * rng.uniform(0.8, 1.2, side - 1)

    dx, dy = spacing(), spacing()
    vertices = [f"{r}_{c}" for r in range(side) for c in range(side)]
    edges = [
        (f"h{r}_{c}", f"{r}_{c}", f"{r}_{c + 1}", float(dx[c]))
        for r in range(side)
        for c in range(side - 1)
    ] + [
        (f"v{r}_{c}", f"{r}_{c}", f"{r + 1}_{c}", float(dy[r]))
        for r in range(side - 1)
        for c in range(side)
    ]
    return vertices, edges


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


def factored_conductance(g: gf.EuclideanGraph) -> np.ndarray:
    """The dense matrix the graph's kept factor of ``L`` factors, multiplied
    back out: ``Pr^T F U Pc^T`` for ``Pr L Pc = F U``."""
    lu = gf.metrics._conductance_lu(g)
    n = lu.shape[0]
    rows, cols = np.zeros((n, n)), np.zeros((n, n))
    rows[lu.perm_r, np.arange(n)] = 1.0
    cols[np.arange(n), lu.perm_c] = 1.0
    return rows.T @ (lu.L @ lu.U).toarray() @ cols.T


def exact_resistance_matrix(g: gf.EuclideanGraph, points, digits: int = 40) -> np.ndarray:
    """The resistance distances of canonical points, as the variogram of the
    canonical covariance of :func:`dense_canonical_covariance` (origin at
    the first vertex) evaluated in ``digits``-digit arithmetic from the
    float lengths and offsets, then rounded: the subtractions that lose
    digits on the scale of the origin lose them far below float precision.
    """
    with mpmath.workdps(digits):
        n = len(g.vertices)
        lap = mpmath.zeros(n, n)
        for e in g.edges:
            i, j = g.vertex_index(e.u), g.vertex_index(e.v)
            c = 1 / mpmath.mpf(e.length)
            lap[i, i] += c
            lap[j, j] += c
            lap[i, j] -= c
            lap[j, i] -= c
        lap[0, 0] += 1
        inv = lap**-1
        # Each point as (vertex weights, edge id, relative position a).
        parts = []
        for p in points:
            if p.is_vertex:
                parts.append(({g.vertex_index(p.vertex): mpmath.mpf(1)}, None, None))
                continue
            e = g.edge(p.edge)
            a = mpmath.mpf(p.offset) / mpmath.mpf(e.length)
            parts.append(({g.vertex_index(e.u): 1 - a, g.vertex_index(e.v): a}, e, a))

        def cov(x, y):
            (wx, ex, ax), (wy, ey, ay) = x, y
            out = mpmath.fsum(wi * wj * inv[i, j] for i, wi in wx.items() for j, wj in wy.items())
            if ex is not None and ex == ey:
                out += (min(ax, ay) - ax * ay) * mpmath.mpf(ex.length)
            return out

        var = [cov(x, x) for x in parts]
        m = len(points)
        out = np.zeros((m, m))
        for k in range(m):
            for j in range(k + 1, m):
                out[k, j] = out[j, k] = float(var[k] + var[j] - 2 * cov(parts[k], parts[j]))
    return out


def exact_matern(nu: float, z: float, digits: int = 40) -> float:
    """The Matern profile z^nu K_nu(z) / (2^(nu-1) Gamma(nu)) at the exact
    float ``nu`` and ``z``, in ``digits``-digit arithmetic, then rounded."""
    with mpmath.workdps(digits):
        nu, z = mpmath.mpf(nu), mpmath.mpf(z)
        return float(z**nu * mpmath.besselk(nu, z) / (2 ** (nu - 1) * mpmath.gamma(nu)))


def split_edge(g: gf.EuclideanGraph, p: gf.GraphPoint) -> tuple[gf.EuclideanGraph, str]:
    """Split an edge at an interior point, returning (new graph, new vertex).

    The replaced edge ``e`` becomes two edges with ids ``e.id + ":a"`` (the
    side containing ``e.u``) and ``e.id + ":b"``; the new vertex is labelled
    ``"{e.id}@{offset}"``.  Each label gets a ``~k`` suffix if it is taken.
    All other edges are untouched and both metrics on the point continuum
    are unchanged by this operation.
    """
    at, off = _locate(g, p)
    if off is None:
        raise gf.OffsetOutOfRangeError(
            "split point must lie strictly inside an edge", vertex=g.vertices[at]
        )
    edges = list(g._edge_records())
    eid, u, v, length = edges.pop(at)
    w = _unique_label(f"{eid}@{off!r}", g._vindex)
    # The new ids extend ``eid``, so neither can be ``eid`` or the other.
    left_id = _unique_label(f"{eid}:a", g._edge_pos)
    right_id = _unique_label(f"{eid}:b", g._edge_pos)
    edges += [(left_id, u, w, off), (right_id, w, v, length - off)]
    return gf.EuclideanGraph([*g.vertices, w], edges), w


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


def reference_build_error(vertices, edges):
    """The error construction raises for ``vertices`` and ``edges``, or None,
    by the record-by-record validation: each record becomes an
    :class:`~graphfields.Edge`, checked in input order against the edges
    before it, then connectivity, then a Dijkstra from blocks of source
    rows to the longest edge of the graph for consistency."""
    try:
        _reference_build(vertices, edges)
    except gf.GraphFieldsError as exc:
        return exc
    return None


def _reference_build(vertices, edges) -> None:
    vlabels = [str(v) for v in vertices]
    if not vlabels:
        raise gf.InvalidGraphError("vertex list must be non-empty")
    vindex = {v: i for i, v in enumerate(sorted(vlabels))}
    if len(vindex) != len(vlabels):
        raise gf.InvalidGraphError("duplicate vertex labels")

    records = [_edge_fields(raw) for raw in edges]
    explicit = {eid for eid, *_ in records if eid is not None}
    normalized: list[gf.Edge] = []
    edge_pos: dict[str, int] = {}
    seen_pairs: set[frozenset[str]] = set()
    for k, (eid, u, v, length) in enumerate(records):
        if eid is None:
            eid = _unique_label(f"e{k + 1}", explicit)
        try:
            length = _as_float(length)
        except (TypeError, ValueError) as exc:
            raise gf.InvalidGraphError(
                f"edge {eid!r} must have a numeric length, got {length!r}"
            ) from exc
        e = gf.Edge(eid, str(u), str(v), length)
        if e.id in edge_pos:
            raise gf.InvalidGraphError(f"duplicate edge id {e.id!r}")
        for endpoint in (e.u, e.v):
            if endpoint not in vindex:
                raise gf.UnknownVertexError(
                    f"edge {e.id!r} references unknown vertex {endpoint!r}",
                    vertex=endpoint,
                    edge_id=e.id,
                )
        if e.u == e.v:
            raise gf.MultiEdgeOrLoopError(
                f"edge {e.id!r} is a loop at {e.u!r}", edge_id=e.id
            )
        pair = frozenset((e.u, e.v))
        if pair in seen_pairs:
            raise gf.MultiEdgeOrLoopError(
                f"edge {e.id!r} duplicates another edge between "
                f"{e.u!r} and {e.v!r}",
                edge_id=e.id,
            )
        if not math.isfinite(e.length) or e.length <= 0.0:
            raise gf.InvalidGraphError(
                f"edge {e.id!r} must have positive finite length, got {e.length}"
            )
        edge_pos[e.id] = k
        seen_pairs.add(pair)
        normalized.append(e)

    n = len(vindex)
    iu = np.array([vindex[e.u] for e in normalized], dtype=np.intp)
    iv = np.array([vindex[e.v] for e in normalized], dtype=np.intp)
    lengths = np.array([e.length for e in normalized], dtype=float)
    weights = csr_matrix(
        (np.concatenate((lengths, lengths)),
         (np.concatenate((iu, iv)), np.concatenate((iv, iu)))),
        shape=(n, n),
    )
    if connected_components(weights, directed=False)[0] > 1:
        raise gf.NotConnectedError("graph is not connected")
    if not normalized:
        return
    shortest = blocked_route_lengths(weights, iu, iv)
    bad = np.flatnonzero(shortest < lengths - gf.graph.DISTANCE_TOL_SCALE * lengths)
    if bad.size:
        e = normalized[bad[0]]
        raise gf.DistanceInconsistentError(
            f"edge {e.id!r} has length {e.length} but a route of "
            f"length {shortest[bad[0]]} connects its endpoints",
            edge_id=e.id,
            shortest=float(shortest[bad[0]]),
        )


def blocked_route_lengths(weights, iu, iv) -> np.ndarray:
    """Shortest route between the ends of each edge: the minimum of the
    directed searches from both ends, each over the whole graph and stopped
    at its longest edge, from blocks of 2**21 // n source rows."""
    n = weights.shape[0]
    max_len = float(weights.data.max())
    shortest = np.full(len(iu), np.inf)
    step = max(1, (1 << 21) // n)
    for start in range(0, n, step):
        stop = min(start + step, n)
        dist = dijkstra(
            weights, directed=True, indices=np.arange(start, stop), limit=max_len
        )
        for src, dst in ((iu, iv), (iv, iu)):
            here = np.flatnonzero((src >= start) & (src < stop))
            shortest[here] = np.minimum(shortest[here], dist[src[here] - start, dst[here]])
    return shortest


def point_frame(g: gf.EuclideanGraph, points):
    """Reference point table of canonical points, one point at a time:
    ``(lo, hi, off, elen, eidx)``, the vertex indices of the low and high
    endpoints, the offset from the low endpoint, the edge length, and the
    edge's position in the edge table (-1, with ``lo == hi`` and zero offset
    and length, for a vertex)."""
    m = len(points)
    # The vertex index of a vertex, the edge position of an interior point.
    pos = np.empty(m, dtype=np.intp)
    off = np.zeros(m)
    eidx = np.full(m, -1, dtype=np.intp)
    for k, p in enumerate(points):
        if p.is_vertex:
            pos[k] = g.vertex_index(p.vertex)
        else:
            pos[k] = g._edge_pos[p.edge]
            off[k] = p.offset
            eidx[k] = pos[k]
    inner = eidx >= 0
    at = pos[inner]
    lo, hi, elen = pos.copy(), pos.copy(), np.zeros(m)
    lo[inner], hi[inner], elen[inner] = g._u[at], g._v[at], g._length[at]
    return lo, hi, off, elen, eidx


def four_pairing_geodesic(g: gf.EuclideanGraph, points) -> np.ndarray:
    """Pairwise geodesic distances of canonical points read through the four
    endpoint pairings, one gather each, plus the direct segment between
    points on one edge."""
    lo, hi, to_lo, elen, eidx = point_frame(g, points)
    ends, where = np.unique(np.concatenate((lo, hi)), return_inverse=True)
    dist = gf.metrics._distance_block(g, ends)
    lo, hi = where[: len(lo)], where[len(lo) :]
    to_hi = elen - to_lo
    best = to_lo[:, None] + dist[np.ix_(lo, lo)] + to_lo[None, :]
    np.minimum(best, to_lo[:, None] + dist[np.ix_(lo, hi)] + to_hi[None, :], out=best)
    np.minimum(best, to_hi[:, None] + dist[np.ix_(hi, lo)] + to_lo[None, :], out=best)
    np.minimum(best, to_hi[:, None] + dist[np.ix_(hi, hi)] + to_hi[None, :], out=best)
    shared_edge = (eidx[:, None] == eidx[None, :]) & (eidx[:, None] >= 0)
    if shared_edge.any():
        direct = np.abs(to_lo[:, None] - to_lo[None, :])
        best = np.where(shared_edge, np.minimum(best, direct), best)
    np.fill_diagonal(best, 0.0)
    return np.minimum(best, best.T)


def four_pairing_resistance(g: gf.EuclideanGraph, points) -> np.ndarray:
    """Pairwise resistance distances of canonical points, one pair at a
    time, in the order of the two-gather assembly: the row point's ends
    summed first, then the column point's, plus the bridge terms, averaged
    with the transposed pair; points on one edge take the series-parallel
    form.  Python floats round as numpy's do, so the result is bit for bit
    that of a vectorized assembly in the same order."""
    lo, hi, off, elen, eidx = point_frame(g, points)
    ends, where = np.unique(np.concatenate((lo, hi)), return_inverse=True)
    R = gf.metrics._resistance_block(g, ends).tolist()
    m = len(points)
    ends_of = [(int(where[p]), int(where[m + p])) for p in range(m)]
    weights = [
        ((elen[p] - off[p]) / elen[p], off[p] / elen[p]) if elen[p] > 0.0 else (1.0, 0.0)
        for p in range(m)
    ]
    h = [
        weights[p][0] * weights[p][1] * (elen[p] - R[a][b])
        for p, (a, b) in enumerate(ends_of)
    ]

    def gathered(p, q):
        (a, b), (c, d) = ends_of[p], ends_of[q]
        (wa, wb), (wc, wd) = weights[p], weights[q]
        near = R[a][c] * wa + R[b][c] * wb
        far = R[a][d] * wa + R[b][d] * wb
        return near * wc + far * wd + (h[p] + h[q])

    out = np.zeros((m, m))
    for p in range(m):
        for q in range(m):
            if p == q:
                continue
            if eidx[p] >= 0 and eidx[p] == eidx[q]:
                gap, length = abs(off[p] - off[q]), elen[p]
                frac = gap / length
                a, b = ends_of[p]
                out[p, q] = gap * (length - gap) / length + frac * frac * R[a][b]
            else:
                out[p, q] = (gathered(p, q) + gathered(q, p)) * 0.5
    return out


def two_pass_variogram(draws: np.ndarray) -> np.ndarray:
    """``c_ii + c_jj - 2 c_ij`` of ``np.cov`` of the draws, which subtracts
    the column means before it forms products, with a zero diagonal."""
    cov = np.atleast_2d(np.cov(draws, rowvar=False, ddof=1))
    var = np.diag(cov)
    out = var[:, None] + var - 2.0 * cov
    np.fill_diagonal(out, 0.0)
    return out
