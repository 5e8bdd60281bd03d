"""Geodesic and resistance metrics on the full point continuum of a graph.

The geodesic distance between two points is the length of the shortest route
between them; for vertices this is the usual weighted shortest-path metric,
and point queries reduce to lookups among the endpoint vertices of the
points, whose Dijkstra rows the graph computes on demand and keeps.

The resistance metric is the variogram of a canonical Gaussian field: a
multivariate Gaussian on the vertices with covariance ``L^-1`` (where ``L``
is the conductance Laplacian, conductance = 1/length, plus a unit bump at an
origin vertex that makes it strictly positive definite), linearly
interpolated along edges, plus an independent Brownian bridge on each edge.
The distance coincides with classical effective resistance on the vertices,
is invariant to the origin choice and to splitting edges, and never exceeds
the geodesic distance, with equality exactly on trees.

Because the field is the interpolated vertex field plus bridges, point
distances are weighted sums of vertex resistances among the endpoints of
the points, plus bridge terms (see :func:`resistance_matrix`): the same two
gathers as the geodesic metric, over a block of vertex resistances that the
graph reads from columns of ``L^-1`` for one fixed ground (vertex 0), solves
on demand and keeps.  So a distance query takes the graph and no origin,
and subtracts nothing on an origin's scale.

Only the covariance (``r_graph_matrix``) and the canonical sampler depend
on the origin ``o``, where the field has unit variance, so only they take
a :class:`ResistanceContext`, the graph and an origin checked against it.
The covariance is ``1 + (d_R(p, o) + d_R(q, o) - d_R(p, q)) / 2``, read
from one distance query over the points and ``o``, and the sampler draws
the vertex field from the graph's one factor of ``L`` and shifts it to
``o`` (see :mod:`graphfields.simulate`).

A query locates each point on the edge table once, in input order
(``graph._locate``), in :func:`canonical_points`.  Its point table holds the
canonical points, their endpoint indices, offsets, edge lengths, edge positions
and labels, and the first repeated point.  Both metrics, the covariance and
the canonical sampler read that table; a table passed back in is kept.

``oracle_effective_resistance`` is an independent cross-check: it assembles
the plain conductance Laplacian of the network with the query points added
as nodes and evaluates the resistance through an eigenvalue pseudoinverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DuplicatePointsError
from .graph import EuclideanGraph, GraphPoint, canonicalize, point_label, vertex_point
from .graph import _SOLVE_COLUMNS, _first_repeat, _locate, _point_at

# Relative eigenvalue cutoff identifying the null space of the combinatorial
# Laplacian in the oracle's pseudoinverse.
_PINV_RTOL = 1e-12


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
    for a in (lo, hi, off, elen, eidx):
        a.flags.writeable = False
    labels = tuple(map(point_label, table))
    vars(table).update(graph=g, lo=lo, hi=hi, off=off, elen=elen, eidx=eidx, labels=labels)
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


def _two_gathers(block, lo, hi, a, b, scale, combine) -> np.ndarray:
    """``combine(scale(block[lo_p], a_p), scale(block[hi_p], b_p))`` for
    each point ``p``, then the same on the columns of that: a point to point
    matrix read from a vertex block through both ends of each point, with
    the ends ``lo``/``hi`` given as rows of ``block``.  Points are taken
    ``_SOLVE_COLUMNS`` rows at a time, so each stage holds its source, its
    result and one block of rows.
    """
    m = lo.size
    reach = np.empty((m, block.shape[1]))
    out = np.empty((m, m))
    for s in range(0, m, _SOLVE_COLUMNS):
        rows = slice(s, s + _SOLVE_COLUMNS)
        near = scale(block[lo[rows]], a[rows, None])
        combine(near, scale(block[hi[rows]], b[rows, None]), out=reach[rows])
    for s in range(0, m, _SOLVE_COLUMNS):
        rows = slice(s, s + _SOLVE_COLUMNS)
        near = reach[rows]
        combine(scale(near[:, lo], a), scale(near[:, hi], b), out=out[rows])
    return out


# -- geodesic metric ---------------------------------------------------------


def geodesic_distance(g: EuclideanGraph, p: GraphPoint, q: GraphPoint) -> float:
    """Length of the shortest route between two points of the continuum."""
    return float(geodesic_matrix(g, (p, q))[0, 1])


# -- resistance metric -------------------------------------------------------


@dataclass(frozen=True)
class ResistanceContext:
    """An origin vertex checked against its graph.

    The origin is the vertex of unit variance of the covariance and of
    canonical draws, which read the graph's one factor of ``L`` (grounded
    at vertex 0) and its vertex resistances.  Distances do not depend on
    it.  The context is frozen and holds no cache.
    """

    graph: EuclideanGraph
    origin: str


def build_resistance_context(
    g: EuclideanGraph, origin: str | None = None
) -> ResistanceContext:
    """Check the origin against the graph; it defaults to the smallest label.

    The context is the argument of :func:`r_graph_matrix` and
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
    p = canonicalize(g, p)
    q = canonicalize(g, q)
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

    Routes through the four endpoint pairings are compared, in two gathers,
    plus the direct within-edge segment when both points lie on the same
    edge (required for correctness on cycles, where the around route can be
    longer).  Vertex distances come from the graph's block over the distinct
    endpoint vertices of the points, so a query costs one Dijkstra row per
    endpoint the graph has not searched from before, and never an ``n x n``
    table.
    """
    pts = canonical_points(g, points)
    lo, hi, to_lo, elen, eidx = pts.lo, pts.hi, pts.off, pts.elen, pts.eidx
    ends, where = np.unique(np.concatenate((lo, hi)), return_inverse=True)
    dist = g._distance_block(ends)
    lo, hi = where[: len(lo)], where[len(lo) :]
    to_hi = elen - to_lo
    # Rounding is monotone, so fl(min(a, b) + c) = min(fl(a + c), fl(b + c)):
    # the nearer end of each row point first, then of each column point,
    # gives the minimum over the four pairings bit for bit.
    best = _two_gathers(dist, lo, hi, to_lo, to_hi, np.add, np.minimum)
    i, j = _same_edge_pairs(eidx)
    best[i, j] = np.minimum(best[i, j], np.abs(to_lo[i] - to_lo[j]))
    np.fill_diagonal(best, 0.0)
    return np.minimum(best, best.T)


def r_graph_matrix(ctx: ResistanceContext, points) -> np.ndarray:
    """Canonical-field covariance matrix of points (vectorized).

    The field has unit variance at the origin ``o`` and variogram ``d_R``,
    so the covariance is ``1 + (d_R(p, o) + d_R(q, o) - d_R(p, q)) / 2``,
    read from one :func:`resistance_matrix` over the points and ``o``.
    """
    pts = canonical_points(ctx.graph, points)
    dist = resistance_matrix(ctx.graph, [*pts, vertex_point(ctx.origin)])
    to_origin = dist[-1, :-1]
    cov = to_origin[:, None] + to_origin
    cov -= dist[:-1, :-1]
    cov *= 0.5
    cov += 1.0
    return cov


def _interpolation_weights(pts: _PointTable) -> tuple[np.ndarray, np.ndarray]:
    """``w_lo = (l - s) / l`` and ``w_hi = s / l`` of each point at offset
    ``s`` of an edge of length ``l`` (``1`` and ``0`` at a vertex): the
    weights of the field at the ``lo`` and ``hi`` ends.  Both come by
    division, since ``1 - s / l`` would cancel near ``v``."""
    elen, inner = pts.elen, pts.elen > 0.0
    w_lo = np.divide(elen - pts.off, elen, out=np.ones_like(elen), where=inner)
    w_hi = np.divide(pts.off, elen, out=np.zeros_like(elen), where=inner)
    return w_lo, w_hi


def resistance_matrix(g: EuclideanGraph, points) -> np.ndarray:
    """Pairwise resistance distances of points (vectorized).

    At a point ``p`` at offset ``s`` of edge ``(u, v)`` of length ``l`` the
    canonical field is ``w_lo Z(u) + w_hi Z(v)`` plus the edge's Brownian
    bridge (:func:`_interpolation_weights`).  So points on different edges
    are ``X_pq + h_p + h_q`` apart, where ``X_pq`` sums ``w_i w_j R(i, j)``
    over an end ``i`` of ``p`` and an end ``j`` of ``q``, in two gathers,
    and ``h = w_lo w_hi (l - R(u, v))``.  Two points on one edge, a gap ``d``
    apart, take the series-parallel form ``d (l - d) / l + (d / l)^2
    R(u, v)``.  Every term is nonnegative, so nothing cancels on the scale
    of the distance to a ground.  Vertex resistances ``R`` come from the
    graph's block over the distinct endpoint vertices of the points, so a
    query solves one column of ``L^-1`` per endpoint the graph has not
    solved for before.
    """
    pts = canonical_points(g, points)
    lo, hi, off, elen = pts.lo, pts.hi, pts.off, pts.elen
    ends, where = np.unique(np.concatenate((lo, hi)), return_inverse=True)
    R = g._resistance_block(ends)
    lo, hi = where[: len(lo)], where[len(lo) :]
    w_lo, w_hi = _interpolation_weights(pts)
    r_uv = R[lo, hi]
    h = w_lo * w_hi * (elen - r_uv)
    dist = _two_gathers(R, lo, hi, w_lo, w_hi, np.multiply, np.add)
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
    pts = canonical_points(g, points)
    if pts.repeat < len(pts):
        raise DuplicatePointsError(f"duplicate point {pts.labels[pts.repeat]!r}")
    if kind is MetricKind.GEODESIC:
        return geodesic_matrix(g, pts)
    if ctx is not None and ctx.graph is not g:
        raise ValueError("context was built for a different graph")
    return resistance_matrix(g, pts)
