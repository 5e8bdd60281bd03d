"""Geodesic and resistance metrics on the full point continuum of a graph.

The geodesic distance between two points is the length of the shortest route
between them; for vertices this is the usual weighted shortest-path metric,
and point queries reduce to lookups in the cached all-pairs vertex table.

The resistance metric is the variogram of a canonical Gaussian field: a
multivariate Gaussian on the vertices with covariance ``L^-1`` (where ``L``
is the conductance Laplacian, conductance = 1/length, plus a unit bump at an
origin vertex that makes it strictly positive definite), linearly
interpolated along edges, plus an independent Brownian bridge on each edge.
Its kernels ``r_mu``/``r_edge``/``r_graph`` are evaluated here through one
sparse factorization of ``L``, and the induced distance coincides with
classical effective resistance on the vertices.  The distance is invariant
to the origin choice and to splitting or merging edges, and never exceeds
the geodesic distance, with equality exactly on trees.

``oracle_effective_resistance`` is an independent cross-check: it assembles
the plain conductance Laplacian of the network with the query points added
as nodes and evaluates the resistance through an eigenvalue pseudoinverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import SuperLU, splu

from .errors import (
    DuplicatePointsError,
    FactorizationFailedError,
    NotATreeError,
)
from .graph import (
    EuclideanGraph,
    GraphPoint,
    canonicalize,
    is_tree,
    vertex_point,
)

# Relative eigenvalue cutoff identifying the null space of the combinatorial
# Laplacian in the oracle's pseudoinverse.
_PINV_RTOL = 1e-12


class MetricKind(str, Enum):
    GEODESIC = "geodesic"
    RESISTANCE = "resistance"


# -- point bookkeeping -------------------------------------------------------


def canonical_points(g: EuclideanGraph, points) -> list[GraphPoint]:
    return [canonicalize(g, p) for p in points]


def _point_frame(g: EuclideanGraph, points):
    """Decompose canonical points into endpoint indices and edge coordinates.

    Returns arrays (lo, hi, frac, off, elen, eidx): the vertex indices of the
    low and high endpoints, the relative position in [0, 1), the offset from
    the low endpoint, the containing edge length, and a label that points on
    the same edge share (-1 for vertices).  Vertices have ``lo == hi`` and
    zero position, offset and length.
    """
    m = len(points)
    lo = np.empty(m, dtype=np.intp)
    hi = np.empty(m, dtype=np.intp)
    off = np.zeros(m)
    elen = np.zeros(m)
    eidx = np.full(m, -1, dtype=np.intp)
    slots: dict[str, int] = {}
    for k, p in enumerate(points):
        if p.is_vertex:
            lo[k] = hi[k] = g.vertex_index(p.vertex)
        else:
            e = g.edge(p.edge)
            lo[k] = g.vertex_index(e.u)
            hi[k] = g.vertex_index(e.v)
            off[k] = p.offset
            elen[k] = e.length
            eidx[k] = slots.setdefault(e.id, len(slots))
    frac = np.divide(off, elen, out=np.zeros(m), where=eidx >= 0)
    return lo, hi, frac, off, elen, eidx


def _shared_edge(eidx: np.ndarray) -> np.ndarray:
    return (eidx[:, None] == eidx[None, :]) & (eidx[:, None] >= 0)


def relative_position(g: EuclideanGraph, p: GraphPoint) -> float:
    """Position of a point along its edge as a proportion of the length.

    Vertices return 0; an interior point at ``offset`` on an edge of length
    ``L`` returns ``offset / L``.
    """
    p = canonicalize(g, p)
    if p.is_vertex:
        return 0.0
    return p.offset / g.edge(p.edge).length


# -- geodesic metric ---------------------------------------------------------


def geodesic_distance(g: EuclideanGraph, p: GraphPoint, q: GraphPoint) -> float:
    """Length of the shortest route between two points of the continuum."""
    return float(geodesic_matrix(g, canonical_points(g, (p, q)))[0, 1])


# -- resistance metric -------------------------------------------------------


@dataclass(frozen=True)
class ResistanceContext:
    """Origin choice plus the sparse factorization of L.

    ``L`` (CSC) is the conductance Laplacian of the network (conductance of
    an edge is 1/length) with an extra unit added on the diagonal at the
    origin vertex, which makes it strictly positive definite.  ``factor`` is
    its symmetric-mode sparse LU: with the fill-reducing permutation ``P``
    (``perm_r == perm_c``), unit lower factor ``F`` and positive pivots ``D``,
    ``L = P^T F D F^T P``.  The context is frozen and holds no cache; every
    query solves against ``factor``.
    """

    graph: EuclideanGraph
    origin: str
    L: scipy.sparse.csc_array
    factor: SuperLU = field(repr=False)

    @property
    def origin_index(self) -> int:
        return self.graph.vertex_index(self.origin)


def build_resistance_context(
    g: EuclideanGraph, origin: str | None = None
) -> ResistanceContext:
    """Assemble and factor L; the origin defaults to the smallest label.

    Raises :class:`FactorizationFailedError` if the factorization fails or
    its pivots are not symmetric and positive, which signals a numerically
    singular L and should be impossible for a validated graph.
    """
    if origin is None:
        origin = g.vertices[0]
    io = g.vertex_index(origin)
    n = len(g.vertices)
    u = np.array([g.vertex_index(e.u) for e in g.edges], dtype=np.intp)
    v = np.array([g.vertex_index(e.v) for e in g.edges], dtype=np.intp)
    c = 1.0 / np.array([e.length for e in g.edges], dtype=float)
    # Duplicate (row, col) pairs are summed, so each diagonal entry is the
    # sum of its incident conductances.
    L = scipy.sparse.csc_array(
        (
            np.concatenate([-c, -c, c, c, [1.0]]),
            (np.concatenate([u, v, u, v, [io]]), np.concatenate([v, u, u, v, [io]])),
        ),
        shape=(n, n),
    )
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
    return ResistanceContext(graph=g, origin=origin, L=L, factor=factor)


def _vertex_covariance(ctx: ResistanceContext, lo, hi, frac) -> np.ndarray:
    """Covariance of the interpolated vertex field between point frames.

    All the columns of ``L^-1`` the frames touch come from one solve.
    """
    needed, where = np.unique(np.concatenate([lo, hi]), return_inverse=True)
    rhs = np.zeros((ctx.L.shape[0], needed.size))
    rhs[needed, np.arange(needed.size)] = 1.0
    block = ctx.factor.solve(rhs)[needed]
    ilo, ihi = where[: lo.size], where[lo.size :]
    a = frac
    one_m = 1.0 - frac
    t12 = np.outer(a, a) * block[np.ix_(ihi, ihi)] + np.outer(
        one_m, one_m
    ) * block[np.ix_(ilo, ilo)]
    t34 = np.outer(a, one_m) * block[np.ix_(ihi, ilo)] + np.outer(
        one_m, a
    ) * block[np.ix_(ilo, ihi)]
    return t12 + t34


def _bridge_covariance(frac, elen, eidx) -> np.ndarray:
    """Brownian-bridge covariance ``(min(a, b) - a*b) * length`` between
    interior points sharing an edge, zero elsewhere."""
    bridge = (np.minimum.outer(frac, frac) - np.outer(frac, frac)) * elen[:, None]
    return np.where(_shared_edge(eidx), bridge, 0.0)


def r_mu(ctx: ResistanceContext, p: GraphPoint, q: GraphPoint) -> float:
    """Covariance of the interpolated vertex field between two points."""
    lo, hi, frac, _, _, _ = _point_frame(
        ctx.graph, canonical_points(ctx.graph, (p, q))
    )
    return float(_vertex_covariance(ctx, lo, hi, frac)[0, 1])


def r_edge(g: EuclideanGraph, p: GraphPoint, q: GraphPoint) -> float:
    """Brownian-bridge covariance; nonzero only for interior points sharing
    an edge, where it equals ``(min(a, b) - a*b) * length`` in relative
    positions ``a``, ``b``."""
    _, _, frac, _, elen, eidx = _point_frame(g, canonical_points(g, (p, q)))
    return float(_bridge_covariance(frac, elen, eidx)[0, 1])


def r_graph(ctx: ResistanceContext, p: GraphPoint, q: GraphPoint) -> float:
    """Covariance of the canonical field: vertex part plus bridge part."""
    return float(r_graph_matrix(ctx, canonical_points(ctx.graph, (p, q)))[0, 1])


def resistance_distance(ctx: ResistanceContext, p: GraphPoint, q: GraphPoint) -> float:
    """Variogram of the canonical field between two points.

    Equals classical effective resistance (conductance = 1/length) on the
    vertices, and extends it to edge points without re-assembling L.
    """
    return float(resistance_matrix(ctx, canonical_points(ctx.graph, (p, q)))[0, 1])


def tree_kernel_closed_form(
    ctx: ResistanceContext, p: GraphPoint, q: GraphPoint
) -> float:
    """Closed form of the canonical-field covariance valid on trees only:
    half the rooted-path overlap plus one."""
    g = ctx.graph
    if not is_tree(g):
        raise NotATreeError("closed form requires a tree")
    o = vertex_point(ctx.origin)
    return (
        0.5
        * (
            geodesic_distance(g, p, o)
            + geodesic_distance(g, q, o)
            - geodesic_distance(g, p, q)
        )
        + 1.0
    )


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
            from .graph import point_label

            raise DuplicatePointsError(f"duplicate point {point_label(p)!r}")
        seen.add(key)


def geodesic_matrix(g: EuclideanGraph, points) -> np.ndarray:
    """Pairwise geodesic distances for canonical points (vectorized).

    Routes through the four endpoint pairings are compared, plus the direct
    within-edge segment when both points lie on the same edge (required for
    correctness on cycles, where the around route can be longer).
    """
    lo, hi, _, to_lo, elen, eidx = _point_frame(g, points)
    dist = g.vertex_distances
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
    lo, hi, frac, _, elen, eidx = _point_frame(ctx.graph, points)
    cov = _vertex_covariance(ctx, lo, hi, frac) + _bridge_covariance(frac, elen, eidx)
    # Repairs last-ulp asymmetry of the solved columns of L^-1.
    return 0.5 * (cov + cov.T)


def _variogram(cov: np.ndarray) -> np.ndarray:
    """Variogram ``cov_ii + cov_jj - 2 cov_ij`` of a covariance matrix, with
    an exact zero diagonal."""
    diag = np.diag(cov)
    out = diag[:, None] + diag[None, :] - 2.0 * cov
    np.fill_diagonal(out, 0.0)
    return out


def resistance_matrix(ctx: ResistanceContext, points) -> np.ndarray:
    return _variogram(r_graph_matrix(ctx, points))


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
    resistance metric an existing context can be passed to reuse its
    factorization.
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
