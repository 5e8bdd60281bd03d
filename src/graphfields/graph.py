"""Graphs with Euclidean edges: construction, validation, and structure.

A graph with Euclidean edges is a finite simple connected graph whose edges
carry a positive length and an internal coordinate running from 0 (at the
``u`` endpoint) to ``length`` (at ``v``), so that points in the interior of
an edge are addressable.  Construction additionally enforces *distance
consistency*: every edge must itself be a shortest route between its
endpoints.  On a cycle this is exactly the requirement that no edge exceeds
half the circumference.

The vertices, edges and lengths of a graph are fixed once it is built;
:func:`split_edge` returns a new graph.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.sparse import csc_array, csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra, reverse_cuthill_mckee
from scipy.sparse.linalg import SuperLU, splu

from .errors import (
    DistanceInconsistentError,
    FactorizationFailedError,
    InvalidGraphError,
    MultiEdgeOrLoopError,
    NotConnectedError,
    OffsetOutOfRangeError,
    UnknownEdgeError,
    UnknownVertexError,
)

# An edge fails the distance-consistency check when a route between its
# endpoints is shorter than its length by more than this factor times that
# length.  A shorter route sums lengths below the edge's own, so its rounding
# is on that scale, and a verdict does not depend on the other edges.
DISTANCE_TOL_SCALE = 1e-9

# The consistency check searches from chunks of this many sources, each on
# its halo (see ``_route_lengths``).  Each chunk pays one O(n) search for its
# halo; larger chunks pay fewer but hold larger halos.  On graded grids of
# 19881 and 99856 vertices whose edges span six orders of magnitude, 128 to
# 512 were slower and 1024 to 4096 within run-to-run noise of each other.
_CHECK_CHUNK = 2048

# A search fills at most this many float64 entries (4 MB) with distances, so
# a chunk whose halo is most of the graph stays O(rows * n) in memory.
_CHECK_BLOCK_ENTRIES = 1 << 19

# A graph keeps the vertex rows its metric queries compute (Dijkstra rows
# for the geodesic metric, columns of L^-1 for the resistance metric) in
# stores of at most this many bytes in all: 256 MiB holds both full n x n
# tables up to n = 4096, so a graph of that size that serves repeated
# queries computes each row once, while a store on a larger graph stays far
# below its n x n tables (1688 rows of 19881 floats).  Rows beyond the
# budget serve their query and are dropped.
_ROW_STORE_BYTES = 256 << 20

# Rows are computed, right-hand sides solved and canonical realizations
# drawn at most this many at a time: a block that stays in cache solves two
# to three times faster than one wide block, and a block bounds what a query
# holds beside the stores.
_SOLVE_COLUMNS = 64

# Columns of L^-1 are solved as many at a time as fill this many bytes of
# right-hand side, but at least 8.  Per column, blocks of 8 to 12 solved
# fastest on grids of 4900 to 40000 vertices, 1.3 to 2.5 times faster than
# blocks of 64, and blocks of 24 to 32 at 900 vertices.
_SOLVE_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class Edge:
    """Undirected edge with a positive length; offsets run from u (0) to v."""

    id: str
    u: str
    v: str
    length: float


@dataclass(frozen=True, slots=True)
class GraphPoint:
    """A location on the graph continuum: a vertex or an (edge, offset) pair.

    Canonical points satisfy: either ``vertex`` is set, or ``edge`` and
    ``offset`` are set with the offset strictly inside (0, length).  Offsets
    of exactly 0 or the full edge length normalize to the endpoint vertex,
    so point equality is well defined.  A point has slots and no
    ``__dict__``: callers hold points by the thousand.
    """

    vertex: str | None = None
    edge: str | None = None
    offset: float | None = None

    @property
    def is_vertex(self) -> bool:
        return self.vertex is not None


def vertex_point(label: str) -> GraphPoint:
    return GraphPoint(vertex=str(label))


def edge_point(edge_id: str, offset: float) -> GraphPoint:
    """The point at ``offset`` along edge ``edge_id``; the offset must be a
    number (see :func:`_as_float`)."""
    try:
        offset = _as_float(offset)
    except (TypeError, ValueError) as exc:
        raise OffsetOutOfRangeError(f"offset must be a number, got {offset!r}") from exc
    return GraphPoint(edge=str(edge_id), offset=offset)


def point_label(p: GraphPoint) -> str:
    """Stable display label: the vertex label, or ``edgeid@offset``."""
    if p.is_vertex:
        return p.vertex
    return f"{p.edge}@{p.offset!r}"


def _as_float(x) -> float:
    """``float(x)``, except that a bool (JSON ``true``), a string and bytes
    (JSON ``"2.5"``) are not numbers, and a number too large for a float
    (JSON ``1`` and 400 zeros) is infinite, as the literal ``1e400`` is."""
    if isinstance(x, (bool, str, bytes, bytearray)):
        raise TypeError(f"{x!r} is not a number")
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _edge_fields(raw) -> tuple:
    """``(id, u, v, length)`` of an edge record as given; the id is a string,
    or None when a dict has no ``"id"``."""
    if isinstance(raw, Edge):
        return str(raw.id), raw.u, raw.v, raw.length
    if isinstance(raw, dict):
        eid = str(raw["id"]) if "id" in raw else None
        try:
            return eid, raw["u"], raw["v"], raw["length"]
        except KeyError as exc:
            raise InvalidGraphError(f"edge record missing field {exc}") from exc
    if isinstance(raw, (tuple, list)):
        if len(raw) != 4:
            raise InvalidGraphError("edge tuples must be (id, u, v, length)")
        eid, u, v, length = raw
        return str(eid), u, v, length
    raise InvalidGraphError(f"cannot interpret edge record {raw!r}")


def _edge_columns(edges: list) -> tuple:
    """The id, ``u``, ``v`` and length columns of the edge records, each
    read as :func:`_edge_fields` reads it, which raises for the first record
    it cannot read.  Records that are all dicts, or all 4-tuples, are read a
    column at a time."""
    kinds = set(map(type, edges))
    if kinds == {dict}:
        try:
            us, vs = [raw["u"] for raw in edges], [raw["v"] for raw in edges]
            lengths = [raw["length"] for raw in edges]
        except KeyError:
            pass  # read record by record below, to name the first bad one
        else:
            return [str(raw["id"]) if "id" in raw else None for raw in edges], us, vs, lengths
    if kinds == {tuple} and set(map(len, edges)) == {4}:
        ids, us, vs, lengths = zip(*edges)
        return list(map(str, ids)), us, vs, lengths
    records = [_edge_fields(raw) for raw in edges]
    return tuple(zip(*records)) if records else ((), (), (), ())


def _lengths(raw) -> tuple[np.ndarray, int]:
    """The lengths ``raw`` as floats (see :func:`_as_float`), and the position
    of the first that is not a number (``len(raw)`` if none); from that
    position on the array holds NaN."""
    if set(map(type, raw)) <= {float}:
        return np.array(raw, dtype=float), len(raw)
    values = []
    try:
        for x in raw:
            values.append(_as_float(x))
    except (TypeError, ValueError):
        pass
    out = np.full(len(raw), np.nan)
    out[: len(values)] = values
    return out, len(values)


def _first_repeat(items) -> int:
    """The position of the first item equal to an earlier one."""
    seen = set()
    for k, x in enumerate(items):
        if x in seen:
            return k
        seen.add(x)
    return len(items)


def _unknown_vertex(eid: str, endpoint) -> UnknownVertexError:
    endpoint = str(endpoint)
    return UnknownVertexError(
        f"edge {eid!r} references unknown vertex {endpoint!r}", vertex=endpoint, edge_id=eid
    )


class EuclideanGraph:
    """Validated graph with Euclidean edges.

    Use :func:`build_graph` (or the constructor directly): validation runs
    once at construction and covers simplicity, connectivity, and distance
    consistency.  Consistency needs distances only up to the longest edge at
    each vertex, so construction never forms the all-pairs table.

    The graph keeps its edges as a table of arrays: endpoint vertex indices
    ``_u``/``_v`` and lengths ``_length`` in input order, with the ids in
    ``_ids`` and the position of each id in ``_edge_pos``.  The
    :class:`Edge` tuple :attr:`edges` is built from that table on first
    access.

    Vertices, edges and lengths never change after construction.  The
    state that does is the row stores of the two metrics, a flag set by the
    first geodesic query with points, and the one factor of ``L``
    (:meth:`_conductance_lu`), made on first use and kept, which resistance
    queries and canonical draws read.  Geodesic queries read
    vertex distances through :meth:`_distance_block` (rows of single-source
    Dijkstra searches) and resistance queries read vertex resistances
    through :meth:`_resistance_block` (columns of ``L^-1``).  Each
    computes only the rows its store lacks and keeps them while all stores
    hold at most ``_ROW_STORE_BYTES``.  Each growth publishes fresh
    (position map, rows) pairs in one attribute assignment and writes to no
    array a reader may hold, so concurrent queries always read consistent
    stores, and a race at worst computes a row twice.  No result depends on
    which rows were stored before, except the graph's first geodesic
    query, which may search from its points instead (within ``n 2^-53``
    relative; see :meth:`_searches_from_points`).
    """

    def __init__(self, vertices, edges):
        vlabels = [str(v) for v in vertices]
        if not vlabels:
            raise InvalidGraphError("vertex list must be non-empty")
        self.vertices: tuple[str, ...] = tuple(sorted(vlabels))
        self._vindex = {v: i for i, v in enumerate(self.vertices)}
        if len(self._vindex) != len(vlabels):
            raise InvalidGraphError("duplicate vertex labels")

        ids, ends_u, ends_v, raw_lengths = _edge_columns(list(edges))
        m = len(ids)
        if None in ids:
            explicit = {eid for eid in ids if eid is not None}
            ids = [
                _unique_label(f"e{k + 1}", explicit) if eid is None else eid
                for k, eid in enumerate(ids)
            ]
        # Each rule an edge must pass, in the order one edge is checked, runs
        # over all edges at once and marks the edges that fail it.  The first
        # edge that fails any rule raises the error of its first failing rule.
        length, numeric = _lengths(raw_lengths)
        iu, iv = (self._vertex_indices(ends) for ends in (ends_u, ends_v))
        self._edge_pos: dict[str, int] = dict(zip(ids, range(m)))
        repeat = _first_repeat(ids) if len(self._edge_pos) < m else m
        pair = np.minimum(iu, iv) * len(self.vertices) + np.maximum(iu, iv)
        _, first_seen, which = np.unique(pair, return_index=True, return_inverse=True)
        at = np.arange(m)
        rules = (
            (at >= numeric, lambda k: InvalidGraphError(
                f"edge {ids[k]!r} must have a numeric length, got {raw_lengths[k]!r}")),
            (at == repeat, lambda k: InvalidGraphError(f"duplicate edge id {ids[k]!r}")),
            (iu < 0, lambda k: _unknown_vertex(ids[k], ends_u[k])),
            (iv < 0, lambda k: _unknown_vertex(ids[k], ends_v[k])),
            (iu == iv, lambda k: MultiEdgeOrLoopError(
                f"edge {ids[k]!r} is a loop at {str(ends_u[k])!r}", edge_id=ids[k])),
            (first_seen[which] != at, lambda k: MultiEdgeOrLoopError(
                f"edge {ids[k]!r} duplicates another edge between "
                f"{str(ends_u[k])!r} and {str(ends_v[k])!r}", edge_id=ids[k])),
            (~(np.isfinite(length) & (length > 0.0)), lambda k: InvalidGraphError(
                f"edge {ids[k]!r} must have positive finite length, got {float(length[k])}")),
        )
        bad = np.logical_or.reduce([fails for fails, _ in rules])
        if bad.any():
            k = int(np.argmax(bad))
            raise next(error(k) for fails, error in rules if fails[k])

        # The edge table, in input order.
        self._ids: tuple[str, ...] = tuple(ids)
        self._u, self._v, self._length = iu, iv, length
        self._weights = self._check_connected_and_consistent()
        # Per metric, row k of its store holds the row of the vertex whose
        # position is k; vertices without a row have position -1.
        n = len(self.vertices)
        empty = (np.full(n, -1, dtype=np.intp), np.empty((0, n)))
        self._row_stores = {"geodesic": empty, "resistance": empty}
        # Set by the first geodesic query with points; only a query before
        # it may search from its points, so later queries warm the store.
        self._geodesic_answered = False
        self._conductance_factor: SuperLU | None = None

    def _vertex_indices(self, labels) -> np.ndarray:
        """The index of the vertex ``str(label)`` for each label, or -1."""
        if not set(map(type, labels)) <= {str}:
            labels = list(map(str, labels))
        index = self._vindex.get
        return np.fromiter(map(index, labels, itertools.repeat(-1)), np.intp, len(labels))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edges in input order, built from the edge table on first
        access; the CLI and the functions it calls read the table."""
        return tuple(itertools.starmap(Edge, self._edge_records()))

    def _edge_records(self):
        """The ``(id, u, v, length)`` record of each edge, in input order."""
        ends = (map(self.vertices.__getitem__, a.tolist()) for a in (self._u, self._v))
        return zip(self._ids, *ends, self._length.tolist())

    # -- validation -----------------------------------------------------

    def _check_connected_and_consistent(self) -> csr_matrix:
        """Raise unless the graph is connected and every edge is a shortest
        route between its endpoints; return the symmetric sparse matrix of
        edge lengths.

        Connectivity is checked first.  The route lengths come from
        :func:`_route_lengths`, which never forms the all-pairs table.
        """
        n = len(self.vertices)
        iu, iv, lengths = self._u, self._v, self._length
        weights = csr_matrix(
            (np.concatenate((lengths, lengths)),
             (np.concatenate((iu, iv)), np.concatenate((iv, iu)))),
            shape=(n, n),
        )
        n_components, _ = connected_components(weights, directed=False)
        if n_components > 1:
            raise NotConnectedError("graph is not connected")
        if not lengths.size:
            return weights
        shortest = _route_lengths(weights, iu, iv, lengths)
        bad = np.flatnonzero(shortest < lengths - DISTANCE_TOL_SCALE * lengths)
        if bad.size:
            k = bad[0]
            raise DistanceInconsistentError(
                f"edge {self._ids[k]!r} has length {float(lengths[k])} but a route "
                f"of length {shortest[k]} connects its endpoints",
                edge_id=self._ids[k],
                shortest=float(shortest[k]),
            )
        return weights

    def _distance_block(self, idx: np.ndarray) -> np.ndarray:
        """Shortest-route distances between the vertices with the distinct
        indices ``idx``: the symmetric block ``minimum(B, B.T)`` of
        ``B = D[idx][:, idx]``, where row ``i`` of ``D`` is the Dijkstra
        search from vertex ``i`` over the symmetric matrix of edge lengths
        that :meth:`_check_connected_and_consistent` searches too.
        """
        block = self._stored_block("geodesic", idx, self._dijkstra_rows, _SOLVE_COLUMNS)
        return np.minimum(block, block.T)

    def _dijkstra_rows(self, idx: np.ndarray) -> np.ndarray:
        return dijkstra(self._weights, directed=True, indices=idx)

    def _searches_from_points(self, ends: np.ndarray, m: int) -> bool:
        """Whether a geodesic query of ``m`` points, whose distinct endpoint
        vertices are ``ends``, searches once per point (see
        :meth:`_point_rows`) instead of reading stored rows: only while the
        graph has answered no geodesic query with points (the flag
        ``_geodesic_answered``, which
        :func:`~graphfields.metrics.geodesic_matrix` sets), and only when
        the rows its store lacks outnumber its points.  It changes
        nothing."""
        if self._geodesic_answered:
            return False
        pos, _ = self._row_stores["geodesic"]
        return np.count_nonzero(pos[ends] < 0) > m

    def _point_rows(self, lo, hi, off, elen, cols: np.ndarray) -> np.ndarray:
        """Shortest-route distances from each point to the vertices
        ``cols``, one Dijkstra search per point, ``_SOLVE_COLUMNS`` points
        at a time; nothing is stored.

        A point is given as in the point table: the ends ``lo``/``hi`` of
        its edge, its offset ``off`` from ``lo`` and the edge length
        ``elen`` (0 for a vertex, which searches from itself).  An interior
        point searches from a node of its own joined to ``lo`` and ``hi`` by
        ``off`` and ``elen - off``; no edge enters such a node, so no route
        passes through one.
        """
        n = len(self.vertices)
        inner = np.flatnonzero(elen > 0.0)
        source = lo.copy()
        source[inner] = n + np.arange(inner.size)
        w = self._weights
        size = n + inner.size
        joins = np.column_stack((lo[inner], hi[inner])).ravel()
        lengths = np.column_stack((off[inner], elen[inner] - off[inner])).ravel()
        joined = csr_matrix(
            (np.concatenate((w.data, lengths)),
             np.concatenate((w.indices, joins)),
             np.concatenate((w.indptr, w.indptr[-1] + 2 * np.arange(1, inner.size + 1)))),
            shape=(size, size),
        )
        out = np.empty((lo.size, cols.size))
        for s in range(0, lo.size, _SOLVE_COLUMNS):
            rows = dijkstra(joined, directed=True, indices=source[s : s + _SOLVE_COLUMNS])
            out[s : s + _SOLVE_COLUMNS] = rows[:, cols]
        return out

    def _resistance_block(self, idx: np.ndarray) -> np.ndarray:
        """Effective resistances between the vertices with the distinct
        indices ``idx``: ``C_ii + C_jj - 2 C_ij`` on the symmetric part of
        the block ``C[idx][:, idx]`` of ``C = L^-1``, where ``L`` is the
        conductance matrix (conductance = 1/length) plus a unit at vertex 0.

        The result does not depend on the ground, so one ``L`` serves every
        origin.  It is exactly symmetric with a zero diagonal.
        """
        n = len(self.vertices)
        step = min(_SOLVE_COLUMNS, max(8, _SOLVE_BLOCK_BYTES // (8 * n)))
        block = self._stored_block("resistance", idx, self._conductance_columns, step)
        # Twice the symmetric part; halving and doubling are exact.
        block += block.T
        diag = 0.5 * block.diagonal()
        out = diag[:, None] + diag
        out -= block
        return out

    def _conductance_columns(self, idx: np.ndarray) -> np.ndarray:
        """Columns ``idx`` of ``L^-1`` (see :meth:`_resistance_block`), as
        rows."""
        rhs = np.zeros((len(self.vertices), idx.size))
        rhs[idx, np.arange(idx.size)] = 1.0
        return self._conductance_lu().solve(rhs).T

    def _conductance_lu(self) -> SuperLU:
        """The factor (see :func:`_factor`) of ``L``, the conductance matrix
        (conductance = 1/length) plus a unit at vertex 0, read off the edge
        table on the first call and kept; a race at worst factors twice."""
        lu = self._conductance_factor
        if lu is None:
            n = len(self.vertices)
            ends = np.concatenate((self._u, self._v, self._u, self._v, [0]))
            other = np.concatenate((self._u, self._v, self._v, self._u, [0]))
            c = 1.0 / self._length
            L = csc_array((np.concatenate((c, c, -c, -c, [1.0])), (ends, other)), shape=(n, n))
            lu = self._conductance_factor = _factor(L)
        return lu

    def _stored_block(self, kind: str, idx: np.ndarray, compute, step: int) -> np.ndarray:
        """The block ``X[idx][:, idx]`` of the table ``X`` of the store
        ``kind``, for distinct vertex indices ``idx``.

        Rows the store lacks come from ``compute(rows)``, ``step`` at a
        time; each is kept while the stores hold at most
        ``_ROW_STORE_BYTES`` in all, else it serves this block only.
        ``compute`` must give a row the same bits whichever rows it is
        computed with, so no result depends on what was stored.
        """
        stores = self._row_stores
        pos, rows = stores[kind]
        at = pos[idx]
        block = np.empty((idx.size, idx.size))
        block[at >= 0] = rows[np.ix_(at[at >= 0], idx)]
        fresh = np.flatnonzero(at < 0)
        n, top = len(self.vertices), len(rows)
        used = sum(stored.nbytes for _, stored in stores.values())
        kept = min(fresh.size, max(0, (_ROW_STORE_BYTES - used) // (8 * n)))
        if kept:
            grown = np.empty((top + kept, n))
            grown[:top] = rows
        for s in range(0, fresh.size, step):
            part = fresh[s : s + step]
            new = compute(idx[part])
            block[part] = new[:, idx]
            if s < kept:
                grown[top + s : top + kept][: part.size] = new[: kept - s]
        if kept:
            pos = pos.copy()
            pos[idx[fresh[:kept]]] = np.arange(top, top + kept)
            self._row_stores = {**stores, kind: (pos, grown)}
        return block

    # -- lookups ----------------------------------------------------------

    def vertex_index(self, label: str) -> int:
        try:
            return self._vindex[label]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {label!r}", vertex=label)

    def _edge_position(self, edge_id: str) -> int:
        try:
            return self._edge_pos[edge_id]
        except KeyError:
            raise UnknownEdgeError(f"unknown edge {edge_id!r}", edge_id=edge_id)

    def edge(self, edge_id: str) -> Edge:
        k = self._edge_position(edge_id)
        labels = self.vertices
        return Edge(
            self._ids[k], labels[self._u[k]], labels[self._v[k]], float(self._length[k])
        )

    @property
    def total_length(self) -> float:
        return float(sum(self._length.tolist()))

    def __repr__(self) -> str:
        return (
            f"EuclideanGraph({len(self.vertices)} vertices, "
            f"{len(self._ids)} edges)"
        )


def _route_lengths(
    weights: csr_matrix, iu: np.ndarray, iv: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """The length of the shortest route between the ends of each edge
    ``(iu[k], iv[k])``, of length ``lengths[k]``, in the connected graph
    whose symmetric matrix of edge lengths is ``weights``: the minimum of
    the directed searches from either end, as
    :meth:`EuclideanGraph._distance_block` reads them.

    Any other route leaves one end and enters the other by other edges.  So
    an edge is its own route, with no search, when it is a shortest edge at
    one of its ends, or when it is no longer than the shortest edges at its
    two ends together.  Routes are searched for the other edges only; they
    are no longer than the edge, so each search stops at the longest such
    edge of its source.  Sources are taken in chunks of ``_CHECK_CHUNK``, by
    the power of two of that limit and then in reverse Cuthill-McKee order,
    which keeps a chunk compact.  One ``min_only`` search from the whole
    chunk, to its longest limit, finds the chunk's halo.  Every route a
    search from the chunk follows lies in the halo, so the searches run on
    the halo's induced subgraph and give what searches over the whole graph
    give, bit for bit.
    """
    n = weights.shape[0]
    # Rounding never takes a sum of positive lengths below one of its terms,
    # and takes less than n 2^-53 of it along a route of fewer than n edges,
    # so a route found this way is never shorter than the edge either.
    least = np.minimum.reduceat(weights.data, weights.indptr[:-1])
    at_u, at_v = least[iu], least[iv]
    shortest = lengths.copy()
    todo = np.flatnonzero(
        (at_u < lengths) & (at_v < lengths) & ((at_u + at_v) * (1.0 - n * 2.0**-52) < lengths)
    )
    if not todo.size:
        return shortest
    iu, iv = iu[todo], iv[todo]
    reach = np.zeros(n)
    np.maximum.at(reach, iu, lengths[todo])
    np.maximum.at(reach, iv, lengths[todo])
    order = reverse_cuthill_mckee(weights, symmetric_mode=True).astype(np.intp)
    order = order[reach[order] > 0]
    # Sources whose limits share a power of two go together, so that a short
    # limit does not search the halo of a long one.
    order = order[np.argsort(np.frexp(reach[order])[1], kind="stable")]
    # Within a chunk, sources by their longest edge: each search stops at
    # the longest edge of its own rows.
    order = order[np.lexsort((reach[order], np.arange(order.size) // _CHECK_CHUNK))]
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(order.size)
    # Each edge from both ends: edges sorted by the rank of the end the
    # search starts from, that rank, and the other end.
    sides = []
    for src, dst in ((iu, iv), (iv, iu)):
        by = np.argsort(rank[src], kind="stable")
        sides.append((by, rank[src[by]], dst[by]))
    routes = np.full(todo.size, np.inf)
    for start in range(0, order.size, _CHECK_CHUNK):
        stop = min(start + _CHECK_CHUNK, order.size)
        near = dijkstra(
            weights,
            directed=True,
            indices=order[start:stop],
            limit=reach[order[stop - 1]],
            min_only=True,
        )
        halo = np.flatnonzero(np.isfinite(near))
        sub = weights[halo][:, halo]
        # Row blocks fit the entry budget and share a power of two of limit.
        rows = max(1, _CHECK_BLOCK_ENTRIES // halo.size)
        same = np.flatnonzero(np.diff(np.frexp(reach[order[start:stop]])[1])) + start + 1
        for first, last in _blocks([start, *same.tolist(), stop], rows):
            dist = dijkstra(
                sub,
                directed=True,
                indices=np.searchsorted(halo, order[first:last]),
                limit=reach[order[last - 1]],
            )
            for by, key, dst in sides:
                a, b = np.searchsorted(key, (first, last))
                routes[by[a:b]] = np.minimum(
                    routes[by[a:b]],
                    dist[key[a:b] - first, np.searchsorted(halo, dst[a:b])],
                )
    shortest[todo] = routes
    return shortest


def _blocks(bounds: list[int], size: int):
    """Consecutive ``(first, last)`` ranges of at most ``size`` that cover
    each range between neighbouring ``bounds``."""
    for lo, hi in zip(bounds, bounds[1:]):
        for first in range(lo, hi, size):
            yield first, min(first + size, hi)


def _factor(L: csc_array) -> SuperLU:
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


def build_graph(vertices, edges) -> EuclideanGraph:
    """Construct and validate a graph with Euclidean edges.

    Edges may be given as :class:`Edge` instances, dicts with keys
    ``id``/``u``/``v``/``length``, or tuples ``(id, u, v, length)``.  A dict
    without ``id`` is edge ``e{k}`` for its position ``k`` from 1, with a
    ``~2`` (``~3``, ...) suffix when an explicit id in the input is ``e{k}``.
    """
    return EuclideanGraph(vertices, edges)


def _locate(g: EuclideanGraph, p: GraphPoint) -> tuple[int, float | None]:
    """Where ``p`` lies on ``g``: ``(vertex index, None)``, or ``(edge
    position, offset)`` strictly inside the edge.  Offsets of exactly 0 and
    the length locate the ``u`` and ``v`` ends.  Refuses a malformed point:
    a vertex with an edge or offset, or an edge point without both."""
    if p.vertex is not None and p.edge is None and p.offset is None:
        return g.vertex_index(p.vertex), None
    if p.vertex is not None or p.edge is None or p.offset is None:
        raise OffsetOutOfRangeError(f"malformed point {p!r}")
    k = g._edge_position(p.edge)
    eid, length = g._ids[k], float(g._length[k])
    off = float(p.offset)
    if not math.isfinite(off) or off < 0.0 or off > length:
        raise OffsetOutOfRangeError(
            f"offset {off} outside [0, {length}] on edge {eid!r}",
            edge_id=eid,
            offset=off,
        )
    if off == 0.0:
        return int(g._u[k]), None
    if off == length:
        return int(g._v[k]), None
    return k, off


def _point_at(g: EuclideanGraph, at: int, off: float | None) -> GraphPoint:
    """The canonical point at a place :func:`_locate` returned."""
    if off is None:
        return GraphPoint(vertex=g.vertices[at])
    return GraphPoint(edge=g._ids[at], offset=off)


def canonicalize(g: EuclideanGraph, p: GraphPoint) -> GraphPoint:
    """Normalize a point: boundary offsets become the endpoint vertex."""
    return _point_at(g, *_locate(g, p))


def _unique_label(base: str, taken) -> str:
    if base not in taken:
        return base
    k = 2
    while f"{base}~{k}" in taken:
        k += 1
    return f"{base}~{k}"


def split_edge(g: EuclideanGraph, p: GraphPoint) -> tuple[EuclideanGraph, str]:
    """Split an edge at an interior point, returning (new graph, new vertex).

    The replaced edge ``e`` becomes two edges with ids ``e.id + ":a"`` (the
    side containing ``e.u``) and ``e.id + ":b"``; the new vertex is labelled
    ``"{e.id}@{offset}"``.  Each label gets a ``~k`` suffix if it is taken.
    All other edges are untouched and both metrics on the point continuum
    are unchanged by this operation.
    """
    at, off = _locate(g, p)
    if off is None:
        raise OffsetOutOfRangeError(
            "split point must lie strictly inside an edge", vertex=g.vertices[at]
        )
    edges = list(g._edge_records())
    eid, u, v, length = edges.pop(at)
    w = _unique_label(f"{eid}@{off!r}", g._vindex)
    # The new ids extend ``eid``, so neither can be ``eid`` or the other.
    left_id = _unique_label(f"{eid}:a", g._edge_pos)
    right_id = _unique_label(f"{eid}:b", g._edge_pos)
    edges += [(left_id, u, w, off), (right_id, w, v, length - off)]
    return EuclideanGraph([*g.vertices, w], edges), w


# -- block structure -------------------------------------------------------


class BlockKind(str, Enum):
    BRIDGE = "Bridge"
    CYCLE = "Cycle"
    COMPLEX = "Complex"


class GeodesicValidity(str, Enum):
    SAFE = "SafeForGeodesic"
    FORBIDDEN = "ForbiddenForGeodesic"


@dataclass(frozen=True)
class Block:
    edge_ids: frozenset[str]
    vertices: frozenset[str]
    kind: BlockKind


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple[Block, ...]
    articulation_vertices: frozenset[str]

    @property
    def validity(self) -> GeodesicValidity:
        """Safe when every block is a bridge or a simple cycle.

        On such graphs the usual decaying radial profiles remain valid under
        the geodesic metric; a Complex block makes the graph forbidden for
        the exponential class under that metric.
        """
        if any(block.kind is BlockKind.COMPLEX for block in self.blocks):
            return GeodesicValidity.FORBIDDEN
        return GeodesicValidity.SAFE


def block_decomposition(g: EuclideanGraph) -> BlockDecomposition:
    """Biconnected components with a kind per block.

    Kinds are exhaustive and exclusive: Bridge (single edge), Cycle (as many
    edges as vertices within the block, i.e. a simple ring), Complex (more
    edges than vertices, i.e. the block contains two points joined by three
    internally disjoint routes).  An iterative depth-first search from the
    first vertex walks the edge table by integer positions; each vertex
    meets its edges in input order, which fixes the block order.
    """
    n, m = len(g.vertices), len(g._ids)
    # The edges at vertex v are entries start[v]:start[v + 1] of nbr_edge
    # (edge positions, ascending) and nbr_vertex (the other endpoints).
    ends, pos = np.concatenate((g._u, g._v)), np.tile(np.arange(m), 2)
    order = np.lexsort((pos, ends))
    nbr_edge = pos[order].tolist()
    nbr_vertex = np.concatenate((g._v, g._u))[order].tolist()
    start = np.searchsorted(ends[order], np.arange(n + 1)).tolist()

    disc, low = [-1] * n, [0] * n
    disc[0] = counter = 0
    edge_stack: list[int] = []
    raw_blocks: list[list[int]] = []
    cuts: list[int] = []  # the vertex at which each raw block closed
    # A frame is [vertex, edge it was entered by, next incidence entry].
    frames = [[0, -1, start[0]]]
    while frames:
        frame = frames[-1]
        v, parent_e, first = frame
        for k in range(first, start[v + 1]):
            e, w = nbr_edge[k], nbr_vertex[k]
            if e == parent_e:
                continue
            if disc[w] < 0:
                edge_stack.append(e)
                counter += 1
                disc[w] = low[w] = counter
                frame[2] = k + 1
                frames.append([w, e, start[w]])
                break
            if disc[w] < disc[v]:
                edge_stack.append(e)
                low[v] = min(low[v], disc[w])
        else:
            frames.pop()
            if not frames:
                break
            u = frames[-1][0]
            low[u] = min(low[u], low[v])
            if low[v] >= disc[u]:
                block = [edge_stack.pop()]
                while block[-1] != parent_e:
                    block.append(edge_stack.pop())
                raw_blocks.append(block)
                cuts.append(u)
    articulation = {u for u in cuts if u != 0}
    if cuts.count(0) >= 2:  # the root separates two blocks that close at it
        articulation.add(0)

    labels, iu, iv = g.vertices, g._u.tolist(), g._v.tolist()
    blocks = []
    for block in raw_blocks:
        vertices = frozenset(labels[x] for e in block for x in (iu[e], iv[e]))
        if len(block) == 1:
            kind = BlockKind.BRIDGE
        elif len(block) == len(vertices):
            kind = BlockKind.CYCLE
        else:
            kind = BlockKind.COMPLEX
        edge_ids = frozenset(g._ids[e] for e in block)
        blocks.append(Block(edge_ids, vertices, kind))
    return BlockDecomposition(
        tuple(blocks), frozenset(labels[x] for x in articulation)
    )


# -- JSON wire format --------------------------------------------------------


def graph_to_json(g: EuclideanGraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [
            {"id": eid, "u": u, "v": v, "length": length}
            for eid, u, v, length in g._edge_records()
        ],
    }


def graph_from_json(obj: dict) -> EuclideanGraph:
    if not isinstance(obj, dict) or not all(
        isinstance(obj.get(key), list) for key in ("vertices", "edges")
    ):
        raise InvalidGraphError('graph JSON must have "vertices" and "edges" arrays')
    return build_graph(obj["vertices"], obj["edges"])


def point_from_json(g: EuclideanGraph, obj: dict) -> GraphPoint:
    return canonicalize(g, _point_fields(obj))


def _point_fields(obj) -> GraphPoint:
    """The point a JSON object names, not yet located on a graph."""
    if not isinstance(obj, dict):
        raise OffsetOutOfRangeError(f"point JSON must be an object, got {obj!r}")
    if "vertex" in obj:
        return vertex_point(obj["vertex"])
    if "edge" in obj and "offset" in obj:
        return edge_point(obj["edge"], obj["offset"])
    raise OffsetOutOfRangeError(
        'point JSON must be {"vertex": ...} or {"edge": ..., "offset": ...}'
    )
