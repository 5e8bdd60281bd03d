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

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from .errors import (
    DistanceInconsistentError,
    InvalidGraphError,
    MultiEdgeOrLoopError,
    NotConnectedError,
    OffsetOutOfRangeError,
    UnknownEdgeError,
    UnknownVertexError,
)

# Absolute tolerance for the distance-consistency check is this factor times
# the largest edge length; the check itself is scale covariant.
DISTANCE_TOL_SCALE = 1e-9

# The consistency check runs Dijkstra from as many source rows at a time as
# fill this many float64 entries (16 MB), so its memory stays O(rows * n)
# and never reaches the n x n table.
_CHECK_BLOCK_ENTRIES = 1 << 21


@dataclass(frozen=True)
class Edge:
    """Undirected edge with a positive length; offsets run from u (0) to v."""

    id: str
    u: str
    v: str
    length: float


@dataclass(frozen=True)
class GraphPoint:
    """A location on the graph continuum: a vertex or an (edge, offset) pair.

    Canonical points satisfy: either ``vertex`` is set, or ``edge`` and
    ``offset`` are set with the offset strictly inside (0, length).  Offsets
    of exactly 0 or the full edge length normalize to the endpoint vertex,
    so point equality is well defined.
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
    return GraphPoint(edge=str(edge_id), offset=float(offset))


def point_label(p: GraphPoint) -> str:
    """Stable display label: the vertex label, or ``edgeid@offset``."""
    if p.is_vertex:
        return p.vertex
    return f"{p.edge}@{p.offset!r}"


def _as_float(x) -> float:
    """``float(x)``, except that a bool (JSON ``true``) is not a number."""
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is not a number")
    return float(x)


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


class EuclideanGraph:
    """Validated graph with Euclidean edges.

    Use :func:`build_graph` (or the constructor directly): validation runs
    once at construction and covers simplicity, connectivity, and distance
    consistency.  Consistency needs distances only up to the longest edge,
    so construction never forms the all-pairs table.

    Vertices, edges and lengths never change after construction.  The one
    state that does is a store of single-source Dijkstra rows: geodesic
    queries read vertex distances through :meth:`_distance_block`, which
    computes only the rows it has not computed before and keeps them.  Each
    growth publishes a fresh (position map, rows) pair in one attribute
    assignment and writes to no array a reader may hold, so concurrent
    queries always read a consistent store, and a race at worst computes a
    row twice.  No result depends on which rows were stored before.
    """

    def __init__(self, vertices, edges):
        vlabels = [str(v) for v in vertices]
        if not vlabels:
            raise InvalidGraphError("vertex list must be non-empty")
        self.vertices: tuple[str, ...] = tuple(sorted(vlabels))
        self._vindex = {v: i for i, v in enumerate(self.vertices)}
        if len(self._vindex) != len(vlabels):
            raise InvalidGraphError("duplicate vertex labels")

        records = [_edge_fields(raw) for raw in edges]
        explicit = {eid for eid, *_ in records if eid is not None}
        normalized: list[Edge] = []
        self._edge_pos: dict[str, int] = {}
        seen_pairs: set[frozenset[str]] = set()
        for k, (eid, u, v, length) in enumerate(records):
            if eid is None:
                eid = _unique_label(f"e{k + 1}", explicit)
            try:
                length = _as_float(length)
            except (TypeError, ValueError) as exc:
                raise InvalidGraphError(
                    f"edge {eid!r} must have a numeric length, got {length!r}"
                ) from exc
            e = Edge(eid, str(u), str(v), length)
            if e.id in self._edge_pos:
                raise InvalidGraphError(f"duplicate edge id {e.id!r}")
            for endpoint in (e.u, e.v):
                if endpoint not in self._vindex:
                    raise UnknownVertexError(
                        f"edge {e.id!r} references unknown vertex {endpoint!r}",
                        vertex=endpoint,
                        edge_id=e.id,
                    )
            if e.u == e.v:
                raise MultiEdgeOrLoopError(
                    f"edge {e.id!r} is a loop at {e.u!r}", edge_id=e.id
                )
            pair = frozenset((e.u, e.v))
            if pair in seen_pairs:
                raise MultiEdgeOrLoopError(
                    f"edge {e.id!r} duplicates another edge between "
                    f"{e.u!r} and {e.v!r}",
                    edge_id=e.id,
                )
            if not math.isfinite(e.length) or e.length <= 0.0:
                raise InvalidGraphError(
                    f"edge {e.id!r} must have positive finite length, got {e.length}"
                )
            self._edge_pos[e.id] = k
            seen_pairs.add(pair)
            normalized.append(e)

        self.edges: tuple[Edge, ...] = tuple(normalized)
        # The edge table: endpoint vertex indices and length of each edge,
        # in the order of ``edges``.
        self._u = np.array([self._vindex[e.u] for e in self.edges], dtype=np.intp)
        self._v = np.array([self._vindex[e.v] for e in self.edges], dtype=np.intp)
        self._length = np.array([e.length for e in self.edges], dtype=float)
        self._weights = self._check_connected_and_consistent()
        n = len(self.vertices)
        # Row k of the store holds the distances from the vertex whose
        # position is k; vertices without a row have position -1.
        self._row_store = (np.full(n, -1, dtype=np.intp), np.empty((0, n)))

    # -- validation -----------------------------------------------------

    def _check_connected_and_consistent(self) -> csr_matrix:
        """Raise unless the graph is connected and every edge is a shortest
        route between its endpoints; return the symmetric sparse matrix of
        edge lengths.

        A route shorter than an edge is shorter than the longest edge, so
        Dijkstra stops at that distance and runs over blocks of source rows.
        An edge's route length is the minimum over both directions, as in
        :meth:`_distance_block`, whose directed search reads the same matrix.
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
        if not self.edges:
            return weights

        max_len = float(lengths.max())
        shortest = np.full(len(lengths), np.inf)
        step = max(1, _CHECK_BLOCK_ENTRIES // n)
        for start in range(0, n, step):
            stop = min(start + step, n)
            dist = dijkstra(
                weights, directed=True, indices=np.arange(start, stop), limit=max_len
            )
            for src, dst in ((iu, iv), (iv, iu)):
                here = np.flatnonzero((src >= start) & (src < stop))
                shortest[here] = np.minimum(
                    shortest[here], dist[src[here] - start, dst[here]]
                )

        tol = DISTANCE_TOL_SCALE * max_len
        bad = np.flatnonzero(shortest < lengths - tol)
        if bad.size:
            e = self.edges[bad[0]]
            raise DistanceInconsistentError(
                f"edge {e.id!r} has length {e.length} but a route of "
                f"length {shortest[bad[0]]} connects its endpoints",
                edge_id=e.id,
                shortest=float(shortest[bad[0]]),
            )
        return weights

    def _distance_block(self, idx: np.ndarray) -> np.ndarray:
        """Shortest-route distances between the vertices with the distinct
        indices ``idx``: the symmetric block ``minimum(B, B.T)`` of
        ``B = D[idx][:, idx]``, where row ``i`` of ``D`` is the Dijkstra
        search from vertex ``i`` over the symmetric matrix of edge lengths
        that :meth:`_check_connected_and_consistent` searches too.

        Rows not yet in the store are computed in one call and appended.
        """
        pos, rows = self._row_store
        missing = idx[pos[idx] < 0]
        if missing.size:
            new = dijkstra(self._weights, directed=True, indices=missing)
            pos = pos.copy()
            pos[missing] = np.arange(len(rows), len(rows) + len(missing))
            rows = np.concatenate((rows, new)) if len(rows) else new
            self._row_store = (pos, rows)
        block = rows[np.ix_(pos[idx], idx)]
        return np.minimum(block, block.T)

    # -- lookups ----------------------------------------------------------

    def vertex_index(self, label: str) -> int:
        try:
            return self._vindex[label]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {label!r}", vertex=label)

    def edge(self, edge_id: str) -> Edge:
        try:
            return self.edges[self._edge_pos[edge_id]]
        except KeyError:
            raise UnknownEdgeError(f"unknown edge {edge_id!r}", edge_id=edge_id)

    @property
    def total_length(self) -> float:
        return float(sum(e.length for e in self.edges))

    def __repr__(self) -> str:
        return (
            f"EuclideanGraph({len(self.vertices)} vertices, "
            f"{len(self.edges)} edges)"
        )


def build_graph(vertices, edges) -> EuclideanGraph:
    """Construct and validate a graph with Euclidean edges.

    Edges may be given as :class:`Edge` instances, dicts with keys
    ``id``/``u``/``v``/``length``, or tuples ``(id, u, v, length)``.  A dict
    without ``id`` is edge ``e{k}`` for its position ``k`` from 1, with a
    ``~2`` (``~3``, ...) suffix when an explicit id in the input is ``e{k}``.
    """
    return EuclideanGraph(vertices, edges)


def canonicalize(g: EuclideanGraph, p: GraphPoint) -> GraphPoint:
    """Normalize a point: boundary offsets become the endpoint vertex."""
    if p.is_vertex:
        g.vertex_index(p.vertex)
        return GraphPoint(vertex=p.vertex)
    if p.edge is None or p.offset is None:
        raise OffsetOutOfRangeError(f"malformed point {p!r}")
    e = g.edge(p.edge)
    off = float(p.offset)
    if not math.isfinite(off) or off < 0.0 or off > e.length:
        raise OffsetOutOfRangeError(
            f"offset {off} outside [0, {e.length}] on edge {e.id!r}",
            edge_id=e.id,
            offset=off,
        )
    if off == 0.0:
        return GraphPoint(vertex=e.u)
    if off == e.length:
        return GraphPoint(vertex=e.v)
    return GraphPoint(edge=e.id, offset=off)


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
    p = canonicalize(g, p)
    if p.is_vertex:
        raise OffsetOutOfRangeError(
            "split point must lie strictly inside an edge", vertex=p.vertex
        )
    e = g.edge(p.edge)
    w = _unique_label(f"{e.id}@{p.offset!r}", set(g.vertices))
    taken_edges = set(g._edge_pos) - {e.id}
    left_id = _unique_label(f"{e.id}:a", taken_edges)
    right_id = _unique_label(f"{e.id}:b", taken_edges | {left_id})

    edges = [other for other in g.edges if other.id != e.id]
    edges.append(Edge(left_id, e.u, w, p.offset))
    edges.append(Edge(right_id, w, e.v, e.length - p.offset))
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
    meets its edges in the order of ``g.edges``, which fixes the block order.
    """
    n, m = len(g.vertices), len(g.edges)
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
        edge_ids = frozenset(g.edges[e].id for e in block)
        blocks.append(Block(edge_ids, vertices, kind))
    return BlockDecomposition(
        tuple(blocks), frozenset(labels[x] for x in articulation)
    )


# -- JSON wire format --------------------------------------------------------


def graph_to_json(g: EuclideanGraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [
            {"id": e.id, "u": e.u, "v": e.v, "length": e.length} for e in g.edges
        ],
    }


def graph_from_json(obj: dict) -> EuclideanGraph:
    if not isinstance(obj, dict) or not all(
        isinstance(obj.get(key), list) for key in ("vertices", "edges")
    ):
        raise InvalidGraphError('graph JSON must have "vertices" and "edges" arrays')
    return build_graph(obj["vertices"], obj["edges"])


def point_to_json(p: GraphPoint) -> dict:
    if p.is_vertex:
        return {"vertex": p.vertex}
    return {"edge": p.edge, "offset": p.offset}


def point_from_json(g: EuclideanGraph, obj: dict) -> GraphPoint:
    if not isinstance(obj, dict):
        raise OffsetOutOfRangeError(f"point JSON must be an object, got {obj!r}")
    if "vertex" in obj:
        return canonicalize(g, vertex_point(obj["vertex"]))
    if "edge" in obj and "offset" in obj:
        try:
            offset = _as_float(obj["offset"])
        except (TypeError, ValueError) as exc:
            raise OffsetOutOfRangeError(
                f"offset must be a number, got {obj['offset']!r}"
            ) from exc
        return canonicalize(g, edge_point(obj["edge"], offset))
    raise OffsetOutOfRangeError(
        'point JSON must be {"vertex": ...} or {"edge": ..., "offset": ...}'
    )
