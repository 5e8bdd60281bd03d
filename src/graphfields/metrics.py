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
The field is invariant to splitting edges, so at a finite point set it is
the vertex field of the graph subdivided there: its covariance matrix
(``r_graph_matrix``) is read from one sparse factorization of ``L'``, the
conductance matrix of the subdivided graph (same origin bump) in unknowns
that keep short segments exact (see ``_subdivided``), assembled from the
edge table the graph builds once; a :class:`ResistanceContext` is just the
graph and an origin checked against it.  The distance
coincides with classical effective resistance on the vertices, is invariant
to the origin choice and to splitting edges, and never exceeds the geodesic
distance, with equality exactly on trees.

``oracle_effective_resistance`` is an independent cross-check: it assembles
the plain conductance Laplacian of the network with the query points added
as nodes and evaluates the resistance through an eigenvalue pseudoinverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import SuperLU, splu

from .errors import DuplicatePointsError, FactorizationFailedError
from .graph import EuclideanGraph, GraphPoint, canonicalize, point_label

# Relative eigenvalue cutoff identifying the null space of the combinatorial
# Laplacian in the oracle's pseudoinverse.
_PINV_RTOL = 1e-12

# Right-hand sides are solved, and canonical realizations drawn, this many
# columns at a time: a block that stays in cache solves two to three times
# faster than one wide block, and a block of draws bounds the noise held.
_SOLVE_COLUMNS = 64


class MetricKind(str, Enum):
    GEODESIC = "geodesic"
    RESISTANCE = "resistance"


# -- point bookkeeping -------------------------------------------------------


def canonical_points(g: EuclideanGraph, points) -> list[GraphPoint]:
    return [canonicalize(g, p) for p in points]


def _point_frame(g: EuclideanGraph, points):
    """Decompose canonical points into endpoint indices and edge coordinates.

    Returns arrays (lo, hi, off, elen, eidx): the vertex indices of the low
    and high endpoints, the offset from the low endpoint, the containing edge
    length, and a label that points on the same edge share (-1 for
    vertices).  Vertices have ``lo == hi`` and zero offset and length.
    """
    m = len(points)
    # The vertex index of a vertex, the edge position of an interior point.
    pos = np.empty(m, dtype=np.intp)
    off = np.zeros(m)
    eidx = np.full(m, -1, dtype=np.intp)
    slots: dict[str, int] = {}
    for k, p in enumerate(points):
        if p.is_vertex:
            pos[k] = g.vertex_index(p.vertex)
        else:
            pos[k] = g._edge_pos[p.edge]
            off[k] = p.offset
            eidx[k] = slots.setdefault(p.edge, len(slots))
    inner = eidx >= 0
    at = pos[inner]
    lo, hi, elen = pos.copy(), pos.copy(), np.zeros(m)
    lo[inner], hi[inner], elen[inner] = g._u[at], g._v[at], g._length[at]
    return lo, hi, off, elen, eidx


def _shared_edge(eidx: np.ndarray) -> np.ndarray:
    return (eidx[:, None] == eidx[None, :]) & (eidx[:, None] >= 0)


# -- geodesic metric ---------------------------------------------------------


def geodesic_distance(g: EuclideanGraph, p: GraphPoint, q: GraphPoint) -> float:
    """Length of the shortest route between two points of the continuum."""
    return float(geodesic_matrix(g, canonical_points(g, (p, q)))[0, 1])


# -- resistance metric -------------------------------------------------------


@dataclass(frozen=True)
class ResistanceContext:
    """An origin vertex checked against its graph.

    Every query assembles the conductance matrix ``L'`` of the graph
    subdivided at its points from the graph's edge table and factors it.
    The context is frozen and holds no cache.
    """

    graph: EuclideanGraph
    origin: str


def build_resistance_context(
    g: EuclideanGraph, origin: str | None = None
) -> ResistanceContext:
    """Check the origin against the graph; it defaults to the smallest label."""
    origin = g.vertices[0] if origin is None else origin
    g.vertex_index(origin)
    return ResistanceContext(g, origin)


def _subdivided(ctx: ResistanceContext, frame):
    """Conductance matrix ``L'`` (CSC) of the graph subdivided at the points
    of ``frame`` (see :func:`_point_frame`), the map ``T`` (CSR) from its
    unknowns ``y`` to node potentials ``x = T y``, and the node of each point.

    Conductance is 1/length, plus a unit on the diagonal at the origin.
    Each distinct interior point becomes a node, numbered after the vertices
    in (edge, offset) order, that cuts its edge into consecutive segments;
    vertex points and repeated points share a node.  In plain potentials a
    segment much shorter than its neighbours rounds their conductance away
    in the diagonal they share: a leak of ``eps/length`` to ground.  So all
    segments of a cut edge but the longest join its nodes, shortest first;
    of two joined runs, the one without a vertex (else the smaller) hangs
    from the other's lead, and its own lead's unknown becomes the difference
    of the two leads' potentials.  A conductance then reaches only unknowns
    of its own and shorter joins, and a row of ``T`` is the node, its
    O(log k) leads and a vertex, all with weight 1.  Vertices keep theirs.
    """
    g = ctx.graph
    n = len(g.vertices)
    lo, hi, off, elen, eidx = frame
    inner = np.flatnonzero(eidx >= 0)
    keys = np.column_stack([eidx[inner], off[inner]])
    _, first_seen, rank = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    node = lo.copy()
    node[inner] = n + rank
    cut = inner[first_seen]
    # The first cut on an edge hangs from u, each later one from the cut
    # before it, and the last one also runs on to v.
    first = np.diff(eidx[cut], prepend=-1) != 0
    last = cut[np.diff(eidx[cut], append=-1) != 0]
    prev_node = np.where(first, lo[cut], np.roll(node[cut], 1))
    prev_off = np.where(first, 0.0, np.roll(off[cut], 1))
    # A simple graph has one edge per endpoint pair, so the pairs name the
    # edges that are cut.
    kept = ~np.isin(g._u * n + g._v, lo[cut] * n + hi[cut])
    a = np.concatenate([g._u[kept], prev_node, node[last]])
    b = np.concatenate([g._v[kept], node[cut], hi[last]])
    length = np.concatenate([g._length[kept], off[cut] - prev_off, elen[last] - off[last]])
    # The cut segments of each edge, shortest first and without the longest.
    edge = np.concatenate([np.full(np.count_nonzero(kept), -1), eidx[cut], eidx[last]])
    order = np.lexsort((length, edge))
    joins = order[(edge[order] >= 0) & (np.diff(edge[order], append=-2) == 0)]
    lead = list(range(n + cut.size))
    weight = [math.inf] * n + [1] * cut.size
    for p, q in zip(a[joins].tolist(), b[joins].tolist()):
        keep, moved = _lead(lead, p), _lead(lead, q)
        if weight[keep] < weight[moved]:
            keep, moved = moved, keep
        lead[moved] = keep
        weight[keep] += weight[moved]
    # Row k of T: node k and each lead above it, up to a vertex.
    lead = np.asarray(lead)
    row = col = np.arange(lead.size)
    rows, cols = [row], [col]
    while (up := lead[col] != col).any():
        row, col = row[up], lead[col[up]]
        rows.append(row)
        cols.append(col)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    T = scipy.sparse.csr_array((np.ones(rows.size), (rows, cols)), shape=(lead.size,) * 2)
    io = g.vertex_index(ctx.origin)
    W = scipy.sparse.vstack([T[a] - T[b], T[[io]]], format="csr")
    c = scipy.sparse.diags_array(np.append(1.0 / length, 1.0))
    return (W.T @ (c @ W)).tocsc(), T, node


def _lead(lead: list[int], k: int) -> int:
    """The lead of the run that holds node ``k``."""
    while lead[k] != k:
        k = lead[k]
    return k


def _factor(L: scipy.sparse.csc_array) -> SuperLU:
    """Symmetric-mode sparse LU ``L = P^T F D F^T P`` of a conductance
    matrix: fill-reducing ``P`` (``perm_r == perm_c``), unit lower ``F`` and
    positive pivots ``D``.

    Raises :class:`FactorizationFailedError` when that structure fails,
    which signals a numerically singular L.
    """
    try:
        factor = splu(
            L,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise FactorizationFailedError(
            f"conductance matrix is numerically singular: {exc}"
        ) from exc
    if not np.array_equal(factor.perm_r, factor.perm_c):
        raise FactorizationFailedError("factorization of L pivoted off the diagonal")
    if not np.all(factor.U.diagonal() > 0):
        raise FactorizationFailedError("conductance matrix is not positive definite")
    return factor


def _solve(ctx: ResistanceContext, frame, u=(), v=()):
    """Factor ``L'`` once and read ``L'^-1`` through the rows of ``T`` at
    the point nodes and at each vertex pair ``(u[k], v[k])``.

    Returns the symmetric covariance among the distinct point nodes, the
    row of each point in it, and the resistance of each vertex pair.
    """
    L, T, node = _subdivided(ctx, frame)
    needed, where = np.unique(node, return_inverse=True)
    u, v = np.asarray(u, dtype=np.intp), np.asarray(v, dtype=np.intp)
    # Vertex potentials are unknowns of their own, so T[u] - T[v] = e_u - e_v.
    readout = scipy.sparse.vstack([T[needed], T[u] - T[v]], format="csr")
    rhs = readout.T.tocsc()
    lu = _factor(L)
    blocks = range(0, rhs.shape[1], _SOLVE_COLUMNS)
    out = np.hstack([readout @ lu.solve(rhs[:, s : s + _SOLVE_COLUMNS].toarray()) for s in blocks])
    block = out[: needed.size, : needed.size]
    # Repairs last-ulp asymmetry of the solved columns of L'^-1.
    return 0.5 * (block + block.T), where, np.diag(out)[needed.size :]


def resistance_distance(ctx: ResistanceContext, p: GraphPoint, q: GraphPoint) -> float:
    """Variogram of the canonical field between two points.

    Equals classical effective resistance (conductance = 1/length) on the
    vertices, and on the graph subdivided at the two points.
    """
    return float(resistance_matrix(ctx, canonical_points(ctx.graph, (p, q)))[0, 1])


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


def _require_distinct(points: list[GraphPoint]) -> None:
    seen = set()
    for p in points:
        key = (p.vertex, p.edge, p.offset)
        if key in seen:
            raise DuplicatePointsError(f"duplicate point {point_label(p)!r}")
        seen.add(key)


def geodesic_matrix(g: EuclideanGraph, points) -> np.ndarray:
    """Pairwise geodesic distances for canonical points (vectorized).

    Routes through the four endpoint pairings are compared, plus the direct
    within-edge segment when both points lie on the same edge (required for
    correctness on cycles, where the around route can be longer).  Vertex
    distances come from the graph's block over the distinct endpoint
    vertices of the points, so a query costs one Dijkstra row per endpoint
    the graph has not searched from before, and never an ``n x n`` table.
    """
    lo, hi, to_lo, elen, eidx = _point_frame(g, points)
    ends, where = np.unique(np.concatenate((lo, hi)), return_inverse=True)
    dist = g._distance_block(ends)
    lo, hi = where[: len(lo)], where[len(lo) :]
    to_hi = elen - to_lo
    best = to_lo[:, None] + dist[np.ix_(lo, lo)] + to_lo[None, :]
    np.minimum(best, to_lo[:, None] + dist[np.ix_(lo, hi)] + to_hi[None, :], out=best)
    np.minimum(best, to_hi[:, None] + dist[np.ix_(hi, lo)] + to_lo[None, :], out=best)
    np.minimum(best, to_hi[:, None] + dist[np.ix_(hi, hi)] + to_hi[None, :], out=best)
    shared_edge = _shared_edge(eidx)
    if shared_edge.any():
        direct = np.abs(to_lo[:, None] - to_lo[None, :])
        best = np.where(shared_edge, np.minimum(best, direct), best)
    np.fill_diagonal(best, 0.0)
    return np.minimum(best, best.T)


def r_graph_matrix(ctx: ResistanceContext, points) -> np.ndarray:
    """Canonical-field covariance matrix for canonical points (vectorized)."""
    block, where, _ = _solve(ctx, _point_frame(ctx.graph, points))
    return block[np.ix_(where, where)]


def _variogram(cov: np.ndarray) -> np.ndarray:
    """Variogram ``cov_ii + cov_jj - 2 cov_ij`` of a covariance matrix, with
    an exact zero diagonal."""
    diag = np.diag(cov)
    out = diag[:, None] + diag[None, :] - 2.0 * cov
    np.fill_diagonal(out, 0.0)
    return out


def resistance_matrix(ctx: ResistanceContext, points) -> np.ndarray:
    """Pairwise resistance distances for canonical points.

    The variogram subtracts covariances on the scale of the distance to the
    origin, which loses nearby points far from it, so pairs on one edge
    ``(u, v)`` of length ``l`` at gap ``d`` take the exact series-parallel
    form ``d (l - d) / l + (d / l)^2 R(u, v)`` instead.
    """
    frame = _point_frame(ctx.graph, points)
    lo, hi, off, elen, eidx = frame
    shared = _shared_edge(eidx)
    np.fill_diagonal(shared, False)
    i, j = np.nonzero(shared)
    _, first, edge_of = np.unique(eidx[i], return_index=True, return_inverse=True)
    block, where, r_uv = _solve(ctx, frame, lo[i[first]], hi[i[first]])
    dist = _variogram(block[np.ix_(where, where)])
    gap = np.abs(off[i] - off[j])
    dist[i, j] = gap * (elen[i] - gap) / elen[i] + (gap / elen[i]) ** 2 * r_uv[edge_of]
    return dist


def distance_matrix(
    g: EuclideanGraph,
    points,
    kind: MetricKind,
    *,
    origin: str | None = None,
    ctx: ResistanceContext | None = None,
) -> np.ndarray:
    """Symmetric matrix of pairwise distances under the chosen metric.

    Points must be pairwise distinct after canonicalization.  For the
    resistance metric an existing context can be passed to reuse its origin.
    """
    kind = MetricKind(kind)
    pts = canonical_points(g, points)
    _require_distinct(pts)
    if kind is MetricKind.GEODESIC:
        return geodesic_matrix(g, pts)
    if ctx is None:
        ctx = build_resistance_context(g, origin)
    elif ctx.graph is not g:
        raise ValueError("context was built for a different graph")
    return resistance_matrix(ctx, pts)
