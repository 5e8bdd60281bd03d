"""Graphs with Euclidean edges: construction, validation, and structure.

A graph with Euclidean edges is a finite simple connected graph whose edges
carry a positive length and an internal coordinate running from 0 (at the
``u`` endpoint) to ``length`` (at ``v``), so that points in the interior of
an edge are addressable.  Construction additionally enforces *distance
consistency*: every edge must itself be a shortest route between its
endpoints.  On a cycle this is exactly the requirement that no edge exceeds
half the circumference.

The vertices, edges and lengths of a graph are fixed once it is built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, depth_first_order, dijkstra
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import (
    DistanceInconsistentError,
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
    """The point at ``offset`` along edge ``edge_id`` (see :func:`_offset`)."""
    return GraphPoint(edge=str(edge_id), offset=_offset(offset))


def _offset(x) -> float:
    """An offset as a float (see :func:`_as_float`), else an
    ``OffsetOutOfRangeError``; :func:`_locate` reads each point's offset by it."""
    try:
        return _as_float(x)
    except (TypeError, ValueError) as exc:
        raise OffsetOutOfRangeError(f"offset must be a number, got {x!r}") from exc


def point_label(p: GraphPoint) -> str:
    """Stable display label: the vertex label, or ``edgeid@offset``."""
    if p.is_vertex:
        return p.vertex
    return f"{p.edge}@{p.offset!r}"


def _as_float(x) -> float:
    """``float(x)``, except that a bool (JSON ``true``, or numpy's), a string
    and bytes (JSON ``"2.5"``) are not numbers, and a number too large for a
    float (JSON ``1`` and 400 zeros) is infinite, as the literal ``1e400`` is."""
    if isinstance(x, (bool, np.bool_, str, bytes, bytearray)):
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

    Vertices, edges and lengths never change after construction.  What
    does is the caches that :mod:`graphfields.metrics` alone fills and
    reads: the row stores and the factor of ``L``.
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
        # Empty slots for the caches that graphfields.metrics alone fills.
        self._row_stores = self._conductance_factor = None

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
        ends = (map(self.vertices.__getitem__, a.tolist()) for a in (self._u, self._v))
        return tuple(itertools.starmap(Edge, zip(self._ids, *ends, self._length.tolist())))

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
    :func:`graphfields.metrics._distance_block` reads them.

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
    off = _offset(p.offset)
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


def _canonicalize(g: EuclideanGraph, p: GraphPoint) -> GraphPoint:
    """Normalize a point: boundary offsets become the endpoint vertex."""
    return _point_at(g, *_locate(g, p))


def _unique_label(base: str, taken) -> str:
    if base not in taken:
        return base
    k = 2
    while f"{base}~{k}" in taken:
        k += 1
    return f"{base}~{k}"


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
    internally disjoint routes).  Tarjan's lowpoint rule splits the tree of
    scipy's depth-first search from the first vertex, in which each vertex
    meets its neighbours in the input order of its edges.  Blocks come in
    the order Tarjan's search closes them, as before the search was scipy's.
    """
    n, m = len(g.vertices), len(g._ids)
    # Row v lists v's neighbours in the input order of the edges.
    ends, nbrs = np.concatenate((g._u, g._v)), np.concatenate((g._v, g._u))
    order = np.lexsort((np.tile(np.arange(m), 2), ends))
    indptr = np.searchsorted(ends[order], np.arange(n + 1))
    adjacency = csr_matrix((np.ones(2 * m), nbrs[order], indptr), shape=(n, n))
    preorder, parent = depth_first_order(adjacency, 0, return_predecessors=True)
    rank = np.argsort(preorder)
    # An edge outside the tree joins a vertex to an ancestor, and lowers the
    # lowpoint of its deeper end to the ancestor's rank.
    deep = np.where(rank[g._u] > rank[g._v], g._u, g._v)
    high = g._u + g._v - deep
    back = parent[deep] != high
    low = rank.copy()
    np.minimum.at(low, deep[back], rank[high[back]])
    # Lowpoints and subtree sizes carried up the tree, deepest first.
    low, size, up = low.tolist(), [1] * n, parent.tolist()
    for x in preorder[:0:-1].tolist():
        low[up[x]] = min(low[up[x]], low[x])
        size[up[x]] += size[x]
    low, size = np.array(low), np.array(size)
    # The tree edge into x starts a block when no edge below x reaches
    # above its parent; every other tree edge is in its parent's block.
    child = preorder[1:]
    starts = low[child] >= rank[parent[child]]
    joined = child[~starts]
    _, component = connected_components(
        csr_matrix((np.ones(joined.size), (joined, parent[joined])), shape=(n, n)),
        directed=False,
    )
    # A block closes when the search finishes the vertex that starts it: at
    # the end of that vertex's subtree, after deeper vertices ending there.
    first = child[starts]
    first = first[np.lexsort((-rank[first], rank[first] + size[first]))]
    slot = np.empty(n, dtype=np.intp)
    slot[component[first]] = np.arange(first.size)
    # Each edge is in the block of its deeper end.
    of_edge = slot[component[deep]]
    by_block = np.argsort(of_edge, kind="stable").tolist()
    bounds = np.cumsum(np.bincount(of_edge, minlength=first.size)).tolist()
    # The parent of a block's first vertex is an articulation vertex; the
    # root is one only when it is the parent of two such vertices.
    cuts = np.bincount(parent[first], minlength=n)
    cuts[0] -= 1
    labels, iu, iv = g.vertices, g._u.tolist(), g._v.tolist()
    # A block has one edge fewer than its vertices (a bridge), as many (a
    # simple cycle) or more.
    kinds = (BlockKind.BRIDGE, BlockKind.CYCLE, BlockKind.COMPLEX)
    blocks = []
    for lo, hi in zip([0, *bounds], bounds):
        block = by_block[lo:hi]
        vertices = frozenset(labels[x] for e in block for x in (iu[e], iv[e]))
        kind = kinds[min(len(block) - len(vertices), 1) + 1]
        blocks.append(Block(frozenset(g._ids[e] for e in block), vertices, kind))
    articulation = frozenset(labels[x] for x in np.flatnonzero(cuts > 0).tolist())
    return BlockDecomposition(tuple(blocks), articulation)


# -- JSON wire format --------------------------------------------------------


def graph_from_json(obj: dict) -> EuclideanGraph:
    if not isinstance(obj, dict) or not all(
        isinstance(obj.get(key), list) for key in ("vertices", "edges")
    ):
        raise InvalidGraphError('graph JSON must have "vertices" and "edges" arrays')
    return build_graph(obj["vertices"], obj["edges"])


def point_from_json(g: EuclideanGraph, obj: dict) -> GraphPoint:
    return _canonicalize(g, _point_fields(obj))


def _point_fields(obj) -> GraphPoint:
    """The point a JSON object names, not yet located on a graph; an object
    that mixes the two forms names no point."""
    if not isinstance(obj, dict):
        raise OffsetOutOfRangeError(f"point JSON must be an object, got {obj!r}")
    on_edge = "edge" in obj or "offset" in obj
    if "vertex" in obj and not on_edge:
        return vertex_point(obj["vertex"])
    if "vertex" not in obj and "edge" in obj and "offset" in obj:
        return edge_point(obj["edge"], obj["offset"])
    raise OffsetOutOfRangeError(
        'point JSON must be either {"vertex": ...} or {"edge": ..., "offset": ...}'
    )
