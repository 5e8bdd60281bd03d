"""Geodesic and resistance metrics on the full point continuum of a graph.

The geodesic distance between two points is the length of the shortest route
between them; for vertices this is the usual weighted shortest-path metric,
and point queries reduce to lookups among the endpoint vertices of the
points, whose Dijkstra rows are computed on demand and kept on the graph.
A query whose points have more endpoints than there are points searches
once from each point instead, and keeps nothing (see
:func:`geodesic_matrix`).

The resistance metric is the variogram of a canonical Gaussian field: a
multivariate Gaussian on the vertices with covariance ``L^-1`` (where ``L``
is the conductance Laplacian, conductance = 1/length, plus a unit bump at an
origin vertex that makes it strictly positive definite), linearly
interpolated along edges, plus an independent Brownian bridge on each edge.
The distance coincides with classical effective resistance on the vertices,
is invariant to the origin choice and to splitting edges, and never exceeds
the geodesic distance, with equality exactly on trees.

Because the field is the interpolated vertex field plus bridges, the field
at the points is one linear map ``W`` of its values at their endpoint
vertices (:class:`_PointTable`), and point distances are ``W R W^T`` plus
bridge terms (:func:`resistance_matrix`), over a block ``R`` of vertex
resistances read from columns of ``L^-1`` for one fixed ground (vertex 0),
solved on demand and kept.  So a distance query takes the graph and no
origin.  The geodesic metric reads the same ends through one min-plus stage.

This module owns that vertex-row engine; the graph only holds empty slots
for its caches: the row stores of both metrics, maps from a vertex to its
read-only row (:func:`_stored_block`), and the one factor of ``L``
(:func:`_conductance_lu`), which canonical draws read too, through
:func:`_vertex_coloring`, the one reader of its layout.  This module draws
no random numbers, and neither its block sizes nor what the stores hold
decide output bits.

Only the canonical sampler depends on the origin ``o``, where the field
has unit variance, so only it takes a :class:`ResistanceContext`, the graph
and an origin checked against it.  It colors white noise by
:func:`_vertex_coloring` and shifts it to ``o`` (:mod:`graphfields.simulate`).

A query locates each point on the edge table once, in input order
(``graph._locate``), in :func:`canonical_points`.  Its point table holds the
canonical points, their endpoint indices, offsets, edge lengths, edge positions
and labels, the first repeated point, the distinct endpoint vertices ``ends``
and the interpolation map ``W``.  Both metrics, kernel covariances and the
canonical sampler read that table; a table passed back in is kept.

``oracle_effective_resistance`` is an independent cross-check: it assembles
the plain conductance Laplacian of the network with the query points added
as nodes and evaluates the resistance through an eigenvalue pseudoinverse.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.sparse import csc_array, csr_array, csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.sparse.linalg import SuperLU, splu, spsolve_triangular

from .errors import DuplicatePointsError, FactorizationFailedError
from .graph import EuclideanGraph, GraphPoint, point_label
from .graph import _canonicalize, _first_repeat, _locate, _point_at

# Relative eigenvalue cutoff identifying the null space of the combinatorial
# Laplacian in the oracle's pseudoinverse.
_PINV_RTOL = 1e-12

# A graph keeps the vertex rows its metric queries compute (Dijkstra rows
# for the geodesic metric, columns of L^-1 for the resistance metric) in
# stores of at most this many bytes in all: 256 MiB holds both full n x n
# tables up to n = 4096, so a graph of that size that serves repeated
# queries computes each row once, while a store on a larger graph stays far
# below its n x n tables (1687 rows of 19881 floats).  Rows beyond the
# budget serve their query and are dropped.  A store grows by adding rows
# and never copies what it holds, so it never holds more than the budget.
_ROW_STORE_BYTES = 256 << 20

# Rows are added to the stores under this lock, so concurrent queries keep
# the budget; readers take no lock.
_STORE_LOCK = threading.Lock()

# Rows are computed and right-hand sides solved at most this many at a
# time: a block that stays in cache solves two to three times faster than
# one wide block, and a block bounds what a query holds beside the stores.
_SOLVE_COLUMNS = 64

# Columns of L^-1 are solved as many at a time as fill this many bytes of
# right-hand side, but at least 8.  Per column, blocks of 8 to 12 solved
# fastest on grids of 4900 to 40000 vertices, 1.3 to 2.5 times faster than
# blocks of 64, and blocks of 24 to 32 at 900 vertices.
_SOLVE_BLOCK_BYTES = 1 << 18


class MetricKind(str, Enum):
    GEODESIC = "geodesic"
    RESISTANCE = "resistance"


# -- point bookkeeping -------------------------------------------------------


class _PointTable(tuple):
    """The canonical points of a list on ``graph``, each located once.

    Beside the points, in input order, it holds per point: the vertex
    indices ``lo``/``hi`` of the ``u``/``v`` ends of its edge (its own index
    twice for a vertex), its offset ``off`` from ``lo`` and edge length
    ``elen`` (0 for a vertex), the position ``eidx`` of its edge in the edge
    table (-1 for a vertex), and its ``labels``; ``repeat`` is the position
    of the first point equal to an earlier one (``len`` if none).  The
    arrays are read-only.

    ``ends`` lists the distinct endpoint vertices, sorted, and the CSR map
    ``W`` (a row per point, a column per end) reads the field at the points
    from its values at ``ends``: row ``p`` holds ``w_lo = (l - s) / l`` at
    its ``lo`` end's column, then ``w_hi = s / l`` at its ``hi`` end's, for
    offset ``s`` on an edge of length ``l`` (``1``, then ``0``, at a
    vertex's own column).  Both come by division, as ``1 - s / l`` would
    cancel near ``v``.
    """


def canonical_points(g: EuclideanGraph, points) -> _PointTable:
    """The point table of ``points``; a table of ``g`` is returned as it is."""
    if isinstance(points, _PointTable) and points.graph is g:
        return points
    return _point_table(g, points)


def _point_table(g: EuclideanGraph, points) -> _PointTable:
    located = [_locate(g, p) for p in points]
    table = _PointTable(_point_at(g, at, off) for at, off in located)
    pos = np.array([at for at, _ in located], dtype=np.intp)
    off = np.array([x for _, x in located], dtype=float)  # None (a vertex) is NaN
    inner = ~np.isnan(off)
    off[~inner] = 0.0
    edge = pos[inner]
    eidx = np.full(len(pos), -1, dtype=np.intp)
    eidx[inner] = edge
    lo, hi, elen = pos.copy(), pos.copy(), np.zeros(len(pos))
    lo[inner], hi[inner], elen[inner] = g._u[edge], g._v[edge], g._length[edge]
    ends, at = np.unique(np.concatenate((lo, hi)), return_inverse=True)
    w_lo = np.divide(elen - off, elen, out=np.ones_like(elen), where=inner)
    w_hi = np.divide(off, elen, out=np.zeros_like(elen), where=inner)
    at, w = at.reshape(2, -1).T.ravel(), np.column_stack((w_lo, w_hi)).ravel()
    W = csr_array((w, at, np.arange(0, at.size + 1, 2)), shape=(len(pos), ends.size))
    for a in (lo, hi, off, elen, eidx, ends, W.data, W.indices, W.indptr):
        a.flags.writeable = False
    vars(table).update(graph=g, lo=lo, hi=hi, off=off, elen=elen, eidx=eidx, ends=ends, W=W)
    table.labels = tuple(map(point_label, table))
    table.repeat = _first_repeat(located)
    return table


def _same_edge_pairs(eidx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ordered pairs ``(i[k], j[k])``, ``i != j``, of points that share
    an edge, listed by sorting the edge positions ``eidx``."""
    order = np.argsort(eidx, kind="stable")
    order = order[eidx[order] >= 0]
    start = np.flatnonzero(np.diff(eidx[order], prepend=-1))
    size = np.diff(start, append=order.size)
    # Each point pairs with every point of its edge's run of ``order``.
    run = np.repeat(size, size)
    i = np.repeat(order, run)
    offset = np.arange(i.size) - np.repeat(np.cumsum(run) - run, run)
    j = order[np.repeat(np.repeat(start, size), run) + offset]
    keep = i != j
    return i[keep], j[keep]


def _min_plus(rows: np.ndarray, pts: _PointTable) -> np.ndarray:
    """Row ``p``: the smaller of ``rows[lo_p] + s_p`` and ``rows[hi_p] +
    (l_p - s_p)``, ends read through the columns of ``pts.W``; the geodesic
    ``W rows``.  Points are taken ``_SOLVE_COLUMNS`` at a time."""
    at_lo, at_hi = pts.W.indices[0::2], pts.W.indices[1::2]
    to_lo, to_hi = pts.off, pts.elen - pts.off
    out = np.empty((len(pts), rows.shape[1]))
    for s in range(0, len(pts), _SOLVE_COLUMNS):
        k = slice(s, s + _SOLVE_COLUMNS)
        near = rows[at_lo[k]] + to_lo[k, None]
        np.minimum(near, rows[at_hi[k]] + to_hi[k, None], out=out[k])
    return out


# -- vertex rows -------------------------------------------------------------


def _stores(g: EuclideanGraph) -> dict:
    """The row stores of ``g`` by metric, made on first use: a store maps
    a vertex index to that vertex's read-only row of ``n`` floats."""
    stores = g._row_stores
    if stores is None:
        stores = g._row_stores = {"geodesic": {}, "resistance": {}}
    return stores


def _stored_block(
    g: EuclideanGraph, kind: str, idx: np.ndarray, compute, step: int
) -> np.ndarray:
    """The block ``X[idx][:, idx]`` of the rows ``X`` of the store
    ``kind``, for distinct vertex indices ``idx``.

    Rows the store lacks come from ``compute(rows)``, ``step`` at a time;
    under ``_STORE_LOCK``, each the store still lacks is kept while the
    stores hold at most ``_ROW_STORE_BYTES`` in all.  ``compute`` must give
    a row the same bits whichever rows it is computed with, so no result
    depends on what was stored.  A row is added whole, in a copy that holds
    only kept rows, read-only and never replaced: concurrent queries read
    consistent stores, and a race at worst computes a row twice."""
    stores = _stores(g)
    store = stores[kind]
    block = np.empty((idx.size, idx.size))
    held = list(map(store.get, idx.tolist()))
    for k, row in enumerate(held):
        if row is not None:
            block[k] = row[idx]
    fresh = np.flatnonzero([row is None for row in held])
    cap = _ROW_STORE_BYTES // (8 * len(g.vertices))
    for s in range(0, fresh.size, step):
        at = fresh[s : s + step]
        new = compute(idx[at])
        block[at] = new[:, idx]
        with _STORE_LOCK:
            room = max(cap - sum(map(len, stores.values())), 0)
            take = [k for k, i in enumerate(idx[at].tolist()) if i not in store][:room]
            if take:
                kept = new[take]
                kept.flags.writeable = False
                store.update(zip(idx[at[take]].tolist(), kept))
    return block


def _distance_block(g: EuclideanGraph, idx: np.ndarray) -> np.ndarray:
    """Shortest-route distances between the vertices with the distinct
    indices ``idx``: the symmetric block ``minimum(B, B.T)`` of
    ``B = D[idx][:, idx]``, where row ``i`` of ``D`` is the Dijkstra search
    from vertex ``i`` over the symmetric matrix of edge lengths that the
    graph's consistency check searches too.
    """
    block = _stored_block(
        g, "geodesic", idx, lambda rows: dijkstra(g._weights, directed=True, indices=rows),
        _SOLVE_COLUMNS,
    )
    return np.minimum(block, block.T)


def _point_rows(g: EuclideanGraph, pts: _PointTable) -> np.ndarray:
    """Shortest-route distances from each point of the table ``pts`` to
    its endpoint vertices ``ends``, one Dijkstra search per point,
    ``_SOLVE_COLUMNS`` points at a time; nothing is stored.

    A vertex point searches from itself.  An interior point searches from
    a node of its own joined to its ends ``lo`` and ``hi`` by ``off`` and
    ``elen - off``; no edge enters such a node, so no route passes through
    one.
    """
    lo, hi, off, elen = pts.lo, pts.hi, pts.off, pts.elen
    n = len(g.vertices)
    inner = np.flatnonzero(elen > 0.0)
    source = lo.copy()
    source[inner] = n + np.arange(inner.size)
    w = g._weights
    size = n + inner.size
    joins = np.column_stack((lo[inner], hi[inner])).ravel()
    lengths = np.column_stack((off[inner], elen[inner] - off[inner])).ravel()
    joined = csr_matrix(
        (np.concatenate((w.data, lengths)),
         np.concatenate((w.indices, joins)),
         np.concatenate((w.indptr, w.indptr[-1] + 2 * np.arange(1, inner.size + 1)))),
        shape=(size, size),
    )
    out = np.empty((lo.size, pts.ends.size))
    for s in range(0, lo.size, _SOLVE_COLUMNS):
        rows = dijkstra(joined, directed=True, indices=source[s : s + _SOLVE_COLUMNS])
        out[s : s + _SOLVE_COLUMNS] = rows[:, pts.ends]
    return out


def _resistance_block(g: EuclideanGraph, idx: np.ndarray) -> np.ndarray:
    """Effective resistances between the vertices with the distinct
    indices ``idx``: ``C_ii + C_jj - 2 C_ij`` on the symmetric part of
    the block ``C[idx][:, idx]`` of ``C = L^-1``, where ``L`` is the
    conductance matrix (conductance = 1/length) plus a unit at vertex 0.

    The result does not depend on the ground, so one ``L`` serves every
    origin.  It is exactly symmetric with a zero diagonal.
    """
    n = len(g.vertices)

    def columns(rows: np.ndarray) -> np.ndarray:
        # Columns ``rows`` of L^-1, as rows.
        rhs = np.zeros((n, rows.size))
        rhs[rows, np.arange(rows.size)] = 1.0
        return _conductance_lu(g).solve(rhs).T

    step = min(_SOLVE_COLUMNS, max(8, _SOLVE_BLOCK_BYTES // (8 * n)))
    block = _stored_block(g, "resistance", idx, columns, step)
    # Twice the symmetric part; halving and doubling are exact.
    block += block.T
    diag = 0.5 * block.diagonal()
    out = diag[:, None] + diag
    out -= block
    return out


def _conductance_lu(g: EuclideanGraph) -> SuperLU:
    """The symmetric-mode sparse LU ``L = P^T F D F^T P`` of ``L``, the
    conductance matrix (conductance = 1/length) plus a unit at vertex 0,
    with fill-reducing ``P`` (``perm_r == perm_c``), unit lower ``F`` and
    positive pivots ``D``.  It is read off the edge table on the first call
    and kept; a race at worst factors twice.

    Raises :class:`FactorizationFailedError` when that structure fails,
    which signals a numerically singular L, and, before dividing, naming
    the first edge whose ``1/length`` overflows (length <= ``1/DBL_MAX``).
    """
    lu = g._conductance_factor
    if lu is not None:
        return lu
    short = np.flatnonzero(g._length <= 1.0 / np.finfo(float).max)
    if short.size:
        eid = g._ids[short[0]]
        raise FactorizationFailedError(
            f"edge {eid!r} is too short: 1/length overflows", edge_id=eid)
    n = len(g.vertices)
    ends = np.concatenate((g._u, g._v, g._u, g._v, [0]))
    other = np.concatenate((g._u, g._v, g._v, g._u, [0]))
    c = 1.0 / g._length
    L = csc_array((np.concatenate((c, c, -c, -c, [1.0])), (ends, other)), shape=(n, n))
    try:
        lu = splu(
            L,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise FactorizationFailedError(
            f"conductance matrix is numerically singular: {exc}"
        ) from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise FactorizationFailedError("factorization of L pivoted off the diagonal")
    if not np.all(lu.U.diagonal() > 0):
        raise FactorizationFailedError("conductance matrix is not positive definite")
    g._conductance_factor = lu
    return lu


def _vertex_coloring(g: EuclideanGraph, idx):
    """The map of white noise ``w``, ``(len(g.vertices), k)`` with a
    column per draw, to ``k`` draws with covariance ``L^-1`` at the vertex
    indices ``idx``, ``(len(idx), k)``; ``L`` is factored on the call.

    The one reader of the factor's layout: for ``L = P^T F D F^T P``, it
    solves ``F^T x = D^(-1/2) w`` in the memory of ``w``, so ``x`` has
    covariance ``P L^-1 P^T`` and vertex ``i`` is row ``perm_r[i]``.
    ``F^T`` is a copy of ``lu.L.T`` (CSR) with sorted indices, made once on
    the call and solved in place, so the factor kept on the graph, which
    every reader shares, is never written.
    """
    lu = _conductance_lu(g)
    upper, root, rows = lu.L.T.sorted_indices(), np.sqrt(lu.U.diagonal()), lu.perm_r[idx]

    def color(white: np.ndarray) -> np.ndarray:
        white /= root[:, None]
        return spsolve_triangular(
            upper, white, lower=False, unit_diagonal=True, overwrite_A=True, overwrite_b=True
        )[rows]

    return color


# -- geodesic metric ---------------------------------------------------------


def geodesic_distance(g: EuclideanGraph, p: GraphPoint, q: GraphPoint) -> float:
    """Length of the shortest route between two points of the continuum."""
    return float(geodesic_matrix(g, (p, q))[0, 1])


# -- resistance metric -------------------------------------------------------


@dataclass(frozen=True)
class ResistanceContext:
    """An origin vertex checked against its graph.

    The origin is the vertex of unit variance of canonical draws, which
    read only the graph's one factor of ``L`` (grounded at vertex 0),
    through :func:`_vertex_coloring`.  Distances do not depend on it.  The
    context is frozen and holds no cache.
    """

    graph: EuclideanGraph
    origin: str


def build_resistance_context(
    g: EuclideanGraph, origin: str | None = None
) -> ResistanceContext:
    """Check the origin against the graph; it defaults to the smallest label.

    The context is the argument of
    :func:`~graphfields.simulate.sample_canonical_field`.  It stays a
    separate step, not an ``origin=`` keyword, because ``benchmark/``
    calls this function by name.
    """
    origin = g.vertices[0] if origin is None else origin
    g.vertex_index(origin)
    return ResistanceContext(g, origin)


def resistance_distance(ctx: ResistanceContext, p: GraphPoint, q: GraphPoint) -> float:
    """Variogram of the canonical field between two points.

    Equals classical effective resistance (conductance = 1/length) on the
    vertices, and on the graph subdivided at the two points.  Only the
    context's graph is read; the context stays the first argument because
    ``benchmark/tracer.py`` reads its graph.
    """
    return float(resistance_matrix(ctx.graph, (p, q))[0, 1])


# -- independent oracle ------------------------------------------------------


def oracle_effective_resistance(
    g: EuclideanGraph, p: GraphPoint, q: GraphPoint
) -> float:
    """Effective resistance via the Laplacian pseudoinverse, for testing.

    Interior query points are materialized as extra nodes subdividing their
    edge; the combinatorial Laplacian (conductance = 1/segment length) is
    assembled from scratch and ``(e_p - e_q)^T K^+ (e_p - e_q)`` evaluated
    through an eigendecomposition, treating eigenvalues below a relative
    cutoff as the null space.  Deliberately shares no code with
    :func:`resistance_distance`.
    """
    p = _canonicalize(g, p)
    q = _canonicalize(g, q)
    if p == q:
        return 0.0

    labels = list(g.vertices)
    index = {v: i for i, v in enumerate(labels)}

    def node_for(point: GraphPoint, tag: str) -> int:
        if point.is_vertex:
            return index[point.vertex]
        index[tag] = len(labels)
        labels.append(tag)
        return index[tag]

    cuts: dict[str, list[tuple[float, int]]] = {}
    ip = node_for(p, "@p")
    if not p.is_vertex:
        cuts.setdefault(p.edge, []).append((p.offset, ip))
    iq = node_for(q, "@q")
    if not q.is_vertex:
        cuts.setdefault(q.edge, []).append((q.offset, iq))

    segments: list[tuple[int, int, float]] = []
    for e in g.edges:
        prev_node = index[e.u]
        prev_off = 0.0
        for off, node in sorted(cuts.get(e.id, [])):
            segments.append((prev_node, node, off - prev_off))
            prev_node, prev_off = node, off
        segments.append((prev_node, index[e.v], e.length - prev_off))

    n = len(labels)
    lap = np.zeros((n, n))
    for a, b, seg_len in segments:
        c = 1.0 / seg_len
        lap[a, a] += c
        lap[b, b] += c
        lap[a, b] -= c
        lap[b, a] -= c

    eigenvalues, eigenvectors = np.linalg.eigh(lap)
    cutoff = _PINV_RTOL * eigenvalues[-1]
    rhs = np.zeros(n)
    rhs[ip] = 1.0
    rhs[iq] = -1.0
    coeffs = eigenvectors.T @ rhs
    keep = eigenvalues > cutoff
    return float(np.sum(coeffs[keep] ** 2 / eigenvalues[keep]))


# -- pairwise matrices -------------------------------------------------------


def geodesic_matrix(g: EuclideanGraph, points) -> np.ndarray:
    """Pairwise geodesic distances of points (vectorized).

    Routes through the four endpoint pairings are compared by one min-plus
    stage (:func:`_min_plus`) applied twice, to vertex rows and then to the
    transpose of its result, plus the direct within-edge segment when both
    points lie on the same edge (required for correctness on cycles, where
    the around route can be longer).  Vertex distances come from the
    geodesic row store's block over the endpoint vertices ``ends`` of the
    point table (:func:`_distance_block`), so a query costs one Dijkstra row
    per endpoint the graph has not searched from before, and never an
    ``n x n`` table.  A query whose points have more endpoints than there
    are points searches once from each point instead (:func:`_point_rows`):
    each search gives that point's row of the first stage, and nothing is
    stored.  The rule reads only the point table, so the matrix is a
    function of the graph and the points, bit for bit, whatever the graph
    answered before; the two paths round differently, within about
    ``n 2^-53`` relative of each other.  A two-point
    :func:`geodesic_distance` searches from its points when they have
    three or four endpoints.
    """
    pts = canonical_points(g, points)
    if pts.ends.size > len(pts):
        reach = _point_rows(g, pts)
    else:
        reach = _min_plus(_distance_block(g, pts.ends), pts)
    # Rounding is monotone, so fl(min(a, b) + c) = min(fl(a + c), fl(b + c)):
    # the nearer end of each row point first, then of each column point,
    # gives the minimum over the four pairings bit for bit.
    best = _min_plus(np.ascontiguousarray(reach.T), pts)
    off = pts.off
    i, j = _same_edge_pairs(pts.eidx)
    best[i, j] = np.minimum(best[i, j], np.abs(off[i] - off[j]))
    np.fill_diagonal(best, 0.0)
    return np.minimum(best, best.T)


def resistance_matrix(g: EuclideanGraph, points) -> np.ndarray:
    """Pairwise resistance distances of points (vectorized).

    At a point ``p`` at offset ``s`` of edge ``(u, v)`` of length ``l`` the
    canonical field is ``w_lo Z(u) + w_hi Z(v)`` plus the edge's Brownian
    bridge, with the weights of the point table's map ``W``
    (:class:`_PointTable`).  So points on different edges are ``X_pq + h_p +
    h_q`` apart, where ``X = W (W R)^T`` sums ``w_i w_j R(i, j)`` over an
    end ``i`` of ``p`` and an end ``j`` of ``q``, and ``h = w_lo w_hi (l -
    R(u, v))``.  Two points on one edge, a gap ``d`` apart, take the
    series-parallel form ``d (l - d) / l + (d / l)^2 R(u, v)``.  Every term
    is nonnegative, so nothing cancels on the scale of the distance to a
    ground.  Vertex resistances ``R`` come from the graph's block over the
    endpoint vertices ``ends`` of the point table, so a query solves one
    column of ``L^-1`` per endpoint the graph has not solved for before.
    """
    pts = canonical_points(g, points)
    W, off, elen = pts.W, pts.off, pts.elen
    R = _resistance_block(g, pts.ends)
    r_uv = R[W.indices[0::2], W.indices[1::2]]
    h = W.data[0::2] * W.data[1::2] * (elen - r_uv)
    dist = W @ (W @ R).T
    dist += h[:, None] + h
    dist += dist.T
    dist *= 0.5
    i, j = _same_edge_pairs(pts.eidx)
    gap = np.abs(off[i] - off[j])
    dist[i, j] = gap * (elen[i] - gap) / elen[i] + (gap / elen[i]) ** 2 * r_uv[i]
    np.fill_diagonal(dist, 0.0)
    return dist


def distance_matrix(
    g: EuclideanGraph,
    points,
    kind: MetricKind,
    *,
    ctx: ResistanceContext | None = None,
) -> np.ndarray:
    """Symmetric matrix of pairwise distances under the chosen metric.

    Points must be pairwise distinct after canonicalization.  Neither
    metric depends on an origin.  A context, if given, is only checked to
    be of ``g``; the keyword stays because ``benchmark/workloads.py``
    passes one.
    """
    kind = MetricKind(kind)
    if ctx is not None and ctx.graph is not g:
        raise ValueError("context was built for a different graph")
    pts = canonical_points(g, points)
    if pts.repeat < len(pts):
        raise DuplicatePointsError(f"duplicate point {pts.labels[pts.repeat]!r}")
    if kind is MetricKind.GEODESIC:
        return geodesic_matrix(g, pts)
    return resistance_matrix(g, pts)
