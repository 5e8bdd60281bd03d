"""Construction, validation, splitting, and block structure of graphs."""

from __future__ import annotations

import heapq
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

import graphfields as gf
from graphfields.graph import _canonicalize
from .helpers import (
    blocked_route_lengths,
    figure_eight,
    graded_grid,
    graph_to_json,
    has_edge_between,
    isomorphic_by_labels,
    jittered_grid,
    path_abc,
    random_graph,
    random_onesum,
    reference_build_error,
    single_edge,
    split_edge,
    theta_graph,
    unit_square,
    vertex_distance,
)


# -- build_graph --------------------------------------------------------------


def test_single_edge_valid():
    g = single_edge()
    assert g.vertices == ("0", "1")
    assert len(g.edges) == 1
    assert g.total_length == 1.0


def test_triangle_inequality_violation_rejected():
    with pytest.raises(gf.DistanceInconsistentError) as info:
        gf.build_graph(
            ["A", "B", "C"],
            [("ab", "A", "B", 1.0), ("bc", "B", "C", 1.0), ("ca", "C", "A", 3.0)],
        )
    assert info.value.detail["edge_id"] == "ca"
    assert info.value.detail["shortest"] == 2.0
    # Of two offending edges, the first in edge order is named.
    square = [("ab", "A", "B", 1.0), ("bc", "B", "C", 1.0), ("cd", "C", "D", 1.0)]
    with pytest.raises(gf.DistanceInconsistentError) as info:
        gf.build_graph(
            ["A", "B", "C", "D"],
            square + [("bd", "B", "D", 3.0), ("da", "D", "A", 1.0), ("ac", "A", "C", 2.5)],
        )
    assert info.value.detail["edge_id"] == "bd"
    assert info.value.detail["shortest"] == 2.0


def test_square_cycle_valid_and_distances_match_enumeration():
    from .helpers import brute_force_vertex_distance

    g = unit_square()
    for u in g.vertices:
        for v in g.vertices:
            expected = brute_force_vertex_distance(g, u, v)
            got = vertex_distance(g, u, v)
            assert got == pytest.approx(expected, abs=1e-12)


def test_loop_rejected():
    with pytest.raises(gf.MultiEdgeOrLoopError):
        gf.build_graph(["A", "B"], [("aa", "A", "A", 1.0)])


def test_parallel_edge_rejected():
    with pytest.raises(gf.MultiEdgeOrLoopError):
        gf.build_graph(
            ["A", "B"], [("e1", "A", "B", 1.0), ("e2", "B", "A", 2.0)]
        )


def test_disconnected_rejected():
    with pytest.raises(gf.NotConnectedError):
        gf.build_graph(["A", "B", "C"], [("ab", "A", "B", 1.0)])
    # Without edges only a single vertex is connected.
    with pytest.raises(gf.NotConnectedError):
        gf.build_graph(["a", "b"], [])
    assert vertex_distance(gf.build_graph(["a"], []), "a", "a") == 0.0
    # Connectivity is checked before distance consistency.
    with pytest.raises(gf.NotConnectedError):
        gf.build_graph(
            ["A", "B", "C", "D"],
            [("ab", "A", "B", 1.0), ("bc", "B", "C", 1.0), ("ca", "C", "A", 3.0)],
        )


def test_unknown_endpoint_rejected():
    with pytest.raises(gf.UnknownVertexError):
        gf.build_graph(["A"], [("ax", "A", "X", 1.0)])


def test_bad_lengths_and_duplicate_ids_rejected():
    with pytest.raises(gf.InvalidGraphError):
        gf.build_graph(["A", "B"], [("ab", "A", "B", 0.0)])
    with pytest.raises(gf.InvalidGraphError):
        gf.build_graph(["A", "B"], [("ab", "A", "B", float("nan"))])
    with pytest.raises(gf.InvalidGraphError):
        gf.build_graph(
            ["A", "B", "C"], [("e", "A", "B", 1.0), ("e", "B", "C", 1.0)]
        )
    with pytest.raises(gf.InvalidGraphError):
        gf.build_graph([], [])


def test_auto_edge_ids_avoid_explicit_ones():
    # The first edge would be e1, which the second edge names explicitly.
    g = gf.build_graph(
        ["A", "B", "C"],
        [{"u": "A", "v": "B", "length": 1.0}, {"id": "e1", "u": "B", "v": "C", "length": 1.0}],
    )
    assert tuple(e.id for e in g.edges) == ("e1~2", "e1")
    g = gf.build_graph(["A", "B", "C"], [{"u": "A", "v": "B", "length": 1.0}, ("x", "B", "C", 1.0)])
    assert tuple(e.id for e in g.edges) == ("e1", "x")
    with pytest.raises(gf.InvalidGraphError, match="duplicate edge id"):
        gf.build_graph(
            ["A", "B", "C"],
            [{"id": "e1", "u": "A", "v": "B", "length": 1.0}, ("e1", "B", "C", 1.0)],
        )


def test_edge_distance_consistency_holds_exactly_per_edge():
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = random_graph(rng, 12, 2)
        for e in g.edges:
            d = vertex_distance(g, e.u, e.v)
            assert d == pytest.approx(e.length, abs=1e-9 * e.length)


def _outcome(vertices, edges):
    """Class, message and detail of the construction error, or None."""
    try:
        gf.build_graph(vertices, edges)
    except gf.GraphFieldsError as exc:
        return type(exc), str(exc), exc.detail
    return None


def _all_pairs_reference(vertices, edges) -> dict:
    """Dijkstra from every vertex with a binary heap; route lengths are
    summed from the source outwards."""
    adjacent = {v: [] for v in vertices}
    for _, u, v, length in edges:
        adjacent[u].append((v, length))
        adjacent[v].append((u, length))
    table = {}
    for source in vertices:
        dist, done, heap = {source: 0.0}, set(), [(0.0, source)]
        while heap:
            d, x = heapq.heappop(heap)
            if x in done:
                continue
            done.add(x)
            for y, length in adjacent[x]:
                if y not in done and d + length < dist.get(y, math.inf):
                    dist[y] = d + length
                    heapq.heappush(heap, (dist[y], y))
        table[source] = dist
    return table


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_vertices=st.integers(6, 12),
    n_chords=st.integers(0, 3),
    factor=st.one_of(
        st.just(1.0),
        st.floats(0.01, 1.0, exclude_max=True),
        st.floats(1.0, 3.0, exclude_min=True),
    ),
    position=st.integers(0, 2**16),
)
def test_consistency_errors_match_all_pairs_reference(
    seed, n_vertices, n_chords, factor, position
):
    # One more chord, shorter than its endpoints' distance, equal to it or
    # longer, goes anywhere in the edge order.  Construction must raise
    # exactly when some edge is longer than its endpoints' distance minus its
    # own tolerance, naming the first such edge and that distance.
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_vertices, n_chords)
    free = [
        (a, b)
        for a, b in itertools.combinations(g.vertices, 2)
        if not has_edge_between(g, a, b)
    ]
    u, v = free[int(rng.integers(len(free)))]
    base = vertex_distance(g, u, v)
    edges = [(e.id, e.u, e.v, e.length) for e in g.edges]
    edges.insert(position % (len(edges) + 1), ("chord", u, v, factor * base))

    error = reference_build_error(g.vertices, edges)
    expected = None if error is None else (type(error), str(error), error.detail)
    assert _outcome(g.vertices, edges) == expected
    reference = _all_pairs_reference(g.vertices, edges)
    scale = gf.graph.DISTANCE_TOL_SCALE
    offending = [
        (eid, reference[a][b])
        for eid, a, b, length in edges
        if reference[a][b] < length - scale * length
    ]
    if not offending:
        gf.build_graph(g.vertices, edges)
        return
    with pytest.raises(gf.DistanceInconsistentError) as info:
        gf.build_graph(g.vertices, edges)
    edge_id, shortest = offending[0]
    assert info.value.detail["edge_id"] == edge_id
    assert abs(info.value.detail["shortest"] - shortest) <= 4 * np.spacing(shortest)


def _build_verdict(vertices, edges):
    """None if the graph builds, else the inconsistent edge and its route."""
    try:
        gf.build_graph(vertices, edges)
    except gf.DistanceInconsistentError as exc:
        return exc.detail["edge_id"], exc.detail["shortest"]
    return None


def test_consistency_tolerance_is_per_edge():
    # A route 4.8 % shorter than the edge ab is refused whatever else the
    # graph holds; a tolerance scaled by the longest edge let the pendant
    # edge ad hide it.
    triangle = [("ab", "a", "b", 2.1e-3), ("ac", "a", "c", 1e-3), ("cb", "c", "b", 1e-3)]
    refused = ("ab", 2e-3)
    assert _build_verdict(["a", "b", "c"], triangle) == refused
    pendant = [*triangle, ("ad", "a", "d", 1e6)]
    assert _build_verdict(["a", "b", "c", "d"], pendant) == refused


@settings(max_examples=100)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_vertices=st.integers(4, 10),
    shortfall=st.sampled_from([0.0, 2e-10, 8e-10, 1.2e-9, 5e-9, 1e-3]),
    pendant=st.floats(1.0, 1e9),
)
def test_long_pendant_edge_never_changes_a_verdict(seed, n_vertices, shortfall, pendant):
    # A chord a little longer than its endpoints' distance, by a relative
    # shortfall on both sides of the tolerance, keeps its verdict when a
    # long pendant edge is attached anywhere.
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_vertices, 1)
    free = [
        (a, b)
        for a, b in itertools.combinations(g.vertices, 2)
        if not has_edge_between(g, a, b)
    ]
    u, v = free[int(rng.integers(len(free)))]
    chord = vertex_distance(g, u, v) / (1.0 - shortfall)
    edges = [(e.id, e.u, e.v, e.length) for e in g.edges] + [("chord", u, v, chord)]
    at = g.vertices[int(rng.integers(len(g.vertices)))]
    verdict = _build_verdict(g.vertices, edges)
    assert verdict == _build_verdict(
        [*g.vertices, "far"], [*edges, ("pendant", at, "far", pendant)]
    )


# Lengths that are refused (a string or bytes even where float() reads it),
# then numbers.
_ODD_LENGTHS = (
    0.0, -1.0, float("nan"), float("inf"), -float("inf"), True, False, "abc", None, [1.0],
    "1.5", " 2 ", b"2", 3, np.float64(1.25),
)
_MALFORMED = (
    ("x", "a", "b"), {"id": "x", "v": "a", "length": 1.0}, {"id": "x", "u": "a", "length": 1.0},
    {"u": "a", "v": "b"}, 7, "e",
)
_DEFECTS = (
    "duplicate_id", "unknown_u", "unknown_v", "loop", "multi_edge", "length",
    "malformed", "auto_id", "auto_id_collision", "chord", "odd_label",
)


def _with_defects(rng, g, defects):
    """The vertices and edge records of ``g`` with each defect injected at
    a random place, each record a tuple, dict, id-less dict or Edge."""
    rows = [[e.id, e.u, e.v, e.length] for e in g.edges]
    no_id, malformed, picked = set(), [], []

    def at():
        return int(rng.integers(len(rows) + 1))

    def pick():
        # Half the time the row of the defect before, so that checks of one
        # edge meet and their precedence shows.
        if not (picked and rng.random() < 0.5):
            picked.append(rows[int(rng.integers(len(rows)))])
        return picked[-1]

    for k, defect in enumerate(defects):
        if defect == "malformed":
            malformed.append((at(), _MALFORMED[int(rng.integers(len(_MALFORMED)))]))
        elif defect == "chord":
            free = [
                (a, b)
                for a, b in itertools.combinations(g.vertices, 2)
                if not has_edge_between(g, a, b)
            ]
            if free:
                u, v = free[int(rng.integers(len(free)))]
                factor = (float(rng.uniform(0.3, 1.0)), 1.0, float(rng.uniform(1.0, 2.0)))
                chord = factor[int(rng.integers(3))] * vertex_distance(g, u, v)
                rows.insert(at(), [f"c{k}", u, v, chord])
        elif not rows:
            continue
        elif defect == "duplicate_id" and len(rows) > 1:
            row = pick()
            others = [other for other in rows if other is not row]
            row[0] = others[int(rng.integers(len(others)))][0]
        elif defect == "unknown_u":
            pick()[1] = "zz"
        elif defect == "unknown_v":
            pick()[2] = "zz"
        elif defect == "loop":
            row = pick()
            row[2] = row[1]
        elif defect == "multi_edge":
            _, u, v, length = pick()
            rows.insert(at(), [f"m{k}", *((v, u) if rng.random() < 0.5 else (u, v)), length])
        elif defect == "length":
            pick()[3] = _ODD_LENGTHS[int(rng.integers(len(_ODD_LENGTHS)))]
        elif defect == "odd_label":
            row = pick()
            side = int(rng.integers(1, 3))
            row[side] = ([row[side]], (row[side],), 7, None)[int(rng.integers(4))]
        elif defect == "auto_id":
            no_id.add(id(pick()))
        elif defect == "auto_id_collision":
            j = int(rng.integers(len(rows)))
            no_id.add(id(rows[j]))
            pick()[0] = f"e{j + 1}" if rng.random() < 0.7 else f"e{j + 1}~2"
    records = []
    for row in rows:
        eid, u, v, length = row
        style = "nodict" if id(row) in no_id else ("tuple", "dict", "edge")[int(rng.integers(3))]
        if style == "nodict":
            records.append({"u": u, "v": v, "length": length})
        elif style == "dict":
            records.append({"id": eid, "u": u, "v": v, "length": length})
        elif style == "edge":
            records.append(gf.Edge(eid, u, v, length))
        else:
            records.append((eid, u, v, length))
    for position, record in malformed:
        records.insert(min(position, len(records)), record)
    return list(g.vertices), records


@settings(max_examples=400)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_vertices=st.integers(2, 10),
    n_chords=st.integers(0, 3),
    n_defects=st.integers(0, 4),
    homogeneous=st.sampled_from([None, "tuple", "dict"]),
)
def test_construction_errors_match_record_by_record_reference(
    seed, n_vertices, n_chords, n_defects, homogeneous
):
    # Random graphs with defects injected anywhere, alone or together: the
    # first failing edge raises the class, message and detail the
    # record-by-record validation raised, with its precedence between
    # checks and edges.  Homogeneous inputs take the column-wise reading.
    rng = np.random.default_rng(seed)
    n_chords = min(n_chords, (n_vertices - 1) * (n_vertices - 2) // 2)
    g = random_graph(rng, n_vertices, n_chords)
    defects = [_DEFECTS[k] for k in rng.integers(len(_DEFECTS), size=n_defects)]
    vertices, records = _with_defects(rng, g, defects)
    if homogeneous == "tuple":
        records = [r for r in records if isinstance(r, tuple) and len(r) == 4] or records
    elif homogeneous == "dict":
        records = [r for r in records if isinstance(r, dict)] or records
    error = reference_build_error(vertices, records)
    expected = None if error is None else (type(error), str(error), error.detail)
    assert _outcome(vertices, records) == expected


@pytest.mark.parametrize("length", ["2.5", b"2", bytearray(b"2"), np.True_], ids=repr)
def test_string_lengths_are_not_numbers(length):
    # JSON "2.5" is text, not the number 2.5, and numpy's True is a bool.
    with pytest.raises(gf.InvalidGraphError, match="must have a numeric length"):
        gf.build_graph(["a", "b"], [{"id": "ab", "u": "a", "v": "b", "length": length}])


@pytest.mark.parametrize("offset", ["0.5", b"0.5", True, False, np.True_, None], ids=repr)
def test_string_offsets_are_not_numbers(offset):
    # Python points take the same coercion as JSON points, and a directly
    # built point is read by the same rule when it is located (an edge
    # point without an offset is malformed).
    g = gf.build_graph(["a", "b"], [("ab", "a", "b", 1.0)])
    with pytest.raises(gf.OffsetOutOfRangeError, match="offset must be a number"):
        gf.point_from_json(g, {"edge": "ab", "offset": offset})
    with pytest.raises(gf.OffsetOutOfRangeError, match="offset must be a number"):
        gf.edge_point("ab", offset)
    direct = gf.GraphPoint(edge="ab", offset=offset)
    message = "malformed point" if offset is None else "offset must be a number"
    with pytest.raises(gf.OffsetOutOfRangeError, match=message):
        _canonicalize(g, direct)
    for kind in gf.MetricKind:
        with pytest.raises(gf.OffsetOutOfRangeError, match=message):
            gf.distance_matrix(g, [gf.vertex_point("a"), direct], kind)


@pytest.mark.parametrize("length", _ODD_LENGTHS, ids=repr)
def test_odd_lengths_match_record_by_record_reference(length):
    # Each odd length on each edge of a path, in each record style, alone
    # and among float lengths only (the column-wise reading).
    base = [("ab", "a", "b", 1.0), ("bc", "b", "c", 2.0), ("cd", "c", "d", 0.5)]
    styles = (
        lambda r: r,
        lambda r: {"id": r[0], "u": r[1], "v": r[2], "length": r[3]},
        lambda r: {"u": r[1], "v": r[2], "length": r[3]},
        lambda r: gf.Edge(*r),
    )
    for k, style in itertools.product(range(len(base)), styles):
        edges = [style(r) for r in base]
        edges[k] = style((*base[k][:3], length))
        error = reference_build_error("abcd", edges)
        expected = None if error is None else (type(error), str(error), error.detail)
        assert _outcome("abcd", edges) == expected


def _multiscale_table(rng, n_vertices, n_chords, orders):
    """Edge matrix and ends of a random connected graph, consistent or not,
    with lengths log-uniform over ``orders`` orders of magnitude."""
    pairs = [(int(rng.integers(k)), k) for k in range(1, n_vertices)]
    free = sorted(set(itertools.combinations(range(n_vertices), 2)) - set(pairs))
    pairs += [free[k] for k in rng.permutation(len(free))[:n_chords]]
    iu, iv = (np.array(ends, dtype=np.intp) for ends in zip(*pairs))
    lengths = 10.0 ** rng.uniform(0, orders, len(iu)) * rng.uniform(0.5, 1.5, len(iu))
    weights = csr_matrix(
        (np.concatenate((lengths, lengths)), (np.concatenate((iu, iv)), np.concatenate((iv, iu)))),
        shape=(n_vertices, n_vertices),
    )
    return weights, iu, iv, lengths


@settings(max_examples=100)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_vertices=st.integers(2, 40),
    n_chords=st.integers(0, 30),
    orders=st.sampled_from([0.0, 3.0, 8.0]),
    chunk=st.integers(1, 12),
    entries=st.sampled_from([1, 7, 1 << 20]),
)
def test_route_lengths_bit_equal_a_search_over_the_whole_graph(
    seed, n_vertices, n_chords, orders, chunk, entries
):
    # Small chunks and row budgets make halos and row blocks of every size;
    # lengths over many orders of magnitude make the limits differ between
    # and within chunks, and chords may be shorter or longer than the route
    # they close.  The routes equal those of searches over the whole graph
    # to its longest edge, bit for bit.
    weights, iu, iv, lengths = _multiscale_table(
        np.random.default_rng(seed), n_vertices, n_chords, orders
    )
    expected = blocked_route_lengths(weights, iu, iv)
    with mock.patch.multiple(gf.graph, _CHECK_CHUNK=chunk, _CHECK_BLOCK_ENTRIES=entries):
        got = gf.graph._route_lengths(weights, iu, iv, lengths)
    assert got.tobytes() == expected.tobytes()


def test_graded_grid_routes_bit_equal_a_search_over_the_whole_graph():
    # Six and a half orders of magnitude of edge length on one grid, with
    # more vertices than a chunk.
    vertices, edges = graded_grid(np.random.default_rng(3), 40)
    g = gf.build_graph(vertices, edges)
    lengths = g._length
    assert lengths.max() / lengths.min() > 1e6
    expected = blocked_route_lengths(g._weights, g._u, g._v)
    with mock.patch.object(gf.graph, "_CHECK_CHUNK", 100):
        got = gf.graph._route_lengths(g._weights, g._u, g._v, g._length)
    assert got.tobytes() == expected.tobytes()
    assert np.array_equal(got, lengths)


def _assert_orientation_moves_no_verdict(weights, iu, iv, lengths):
    # Swapping every edge's ends searches each route from its other end:
    # the same verdict, naming the same edge, and every route within
    # n 2^-53 of it, relative.
    n = weights.shape[0]
    vertices = [f"x{k}" for k in range(n)]
    edges = [
        (f"e{k}", vertices[a], vertices[b], float(length))
        for k, (a, b, length) in enumerate(zip(iu, iv, lengths))
    ]
    swapped = [(eid, v, u, length) for eid, u, v, length in edges]
    there, back = _build_verdict(vertices, edges), _build_verdict(vertices, swapped)
    assert (there is None) == (back is None)
    if there is not None:
        assert back[0] == there[0]
        assert abs(back[1] - there[1]) <= n * 2.0**-53 * there[1]
    forth = gf.graph._route_lengths(weights, iu, iv, lengths)
    reverse = gf.graph._route_lengths(weights, iv, iu, lengths)
    assert np.all(np.abs(reverse - forth) <= n * 2.0**-53 * forth)


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_vertices=st.integers(2, 40),
    n_chords=st.integers(0, 30),
    orders=st.sampled_from([0.0, 3.0, 8.0]),
)
def test_swapping_edge_ends_moves_no_verdict(seed, n_vertices, n_chords, orders):
    _assert_orientation_moves_no_verdict(
        *_multiscale_table(np.random.default_rng(seed), n_vertices, n_chords, orders)
    )


def test_swapping_edge_ends_of_a_graded_grid_moves_no_verdict():
    g = gf.build_graph(*graded_grid(np.random.default_rng(3), 40))
    _assert_orientation_moves_no_verdict(g._weights, g._u, g._v, g._length)


def test_edges_are_built_on_first_access():
    # The library's own paths read the edge table, so none of these builds
    # the Edge tuple; the first access builds it once.
    g = jittered_grid(np.random.default_rng(4), 6)
    pts = [gf.edge_point(eid, 0.5) for eid in g._ids[::6]] + [gf.vertex_point("v0_0")]
    for metric in ("geodesic", "resistance"):
        gf.distance_matrix(g, pts, metric)
    gf.block_decomposition(g)
    _canonicalize(g, gf.edge_point("h0_0", 0.5))
    assert g.edge("h0_0").id == "h0_0" and repr(g) and g.total_length > 0
    assert "edges" not in vars(g)
    edges = g.edges
    assert edges is g.edges and len(edges) == len(g._ids) == 60
    assert edges[3] == gf.Edge(g._ids[3], edges[3].u, edges[3].v, float(g._length[3]))
    assert g.total_length == sum(e.length for e in edges)


def test_overflowing_length_raises_where_the_reference_does():
    # A length too large for a float reads as inf, as the JSON literal 1e400
    # does: an earlier failing edge is still named first, and otherwise the
    # edge is refused for its length.
    loop_first = [("ab", "a", "b", 1.0), ("aa", "a", "a", 1.0), ("bc", "b", "c", 10**400)]
    error = reference_build_error("abc", loop_first)
    assert _outcome("abc", loop_first) == (type(error), str(error), error.detail)
    for edges, shown in (
        ([("ab", "a", "b", 10**400)], "inf"),
        ([{"u": "a", "v": "b", "length": -(10**400)}], "-inf"),
    ):
        error = reference_build_error("ab", edges)
        assert _outcome("ab", edges) == (type(error), str(error), error.detail)
        assert isinstance(error, gf.InvalidGraphError)
        assert str(error).endswith(f"must have positive finite length, got {shown}")


def test_large_grid_builds_without_all_pairs_table():
    # 100 x 100 grids: the n x n float table alone would take 800 MB.  On the
    # jittered grid every edge is its own route without a search; on the
    # graded one, whose lengths span six orders of magnitude, most edges
    # are searched for.
    side = 100
    rng = np.random.default_rng(5)
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
    vertices = [x for row in label for x in row]
    # Source blocks of 16 MB against the whole graph peaked near 49 MB on
    # both; the halo check holds a few MB.
    table_bytes = (side * side) ** 2 * 8
    for graph in ((vertices, edges), graded_grid(rng, side)):
        tracemalloc.start()
        try:
            g = gf.build_graph(*graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table_bytes / 32
        assert g._row_stores is None and g._conductance_factor is None


# -- points and canonicalization ----------------------------------------------


def test_boundary_offsets_canonicalize_to_vertices():
    g = single_edge()
    assert _canonicalize(g, gf.edge_point("e1", 0.0)) == gf.vertex_point("0")
    assert _canonicalize(g, gf.edge_point("e1", 1.0)) == gf.vertex_point("1")
    interior = _canonicalize(g, gf.edge_point("e1", 0.25))
    assert not interior.is_vertex and interior.offset == 0.25


def test_out_of_range_offsets_rejected():
    g = single_edge()
    for bad in (-0.1, 1.5, float("nan")):
        with pytest.raises(gf.OffsetOutOfRangeError):
            _canonicalize(g, gf.edge_point("e1", bad))
    # An integer too large for a float reads as infinite, in a point built
    # directly as in edge_point, and lies outside the edge.
    for huge in (10**400, -(10**400)):
        for p in (gf.edge_point("e1", huge), gf.GraphPoint(edge="e1", offset=huge)):
            with pytest.raises(gf.OffsetOutOfRangeError, match="outside"):
                _canonicalize(g, p)
    with pytest.raises(gf.UnknownEdgeError):
        _canonicalize(g, gf.edge_point("nope", 0.5))
    with pytest.raises(gf.UnknownVertexError):
        _canonicalize(g, gf.vertex_point("Z"))


def test_malformed_points_rejected():
    g = single_edge()
    for bad in (
        gf.GraphPoint(vertex="0", edge="e1", offset=0.5),
        gf.GraphPoint(vertex="0", edge="e1"),
        gf.GraphPoint(vertex="0", offset=0.0),
        gf.GraphPoint(edge="e1"),
        gf.GraphPoint(offset=0.5),
        gf.GraphPoint(),
    ):
        with pytest.raises(gf.OffsetOutOfRangeError, match="^malformed point "):
            _canonicalize(g, bad)
        with pytest.raises(gf.OffsetOutOfRangeError, match="^malformed point "):
            split_edge(g, bad)
        with pytest.raises(gf.OffsetOutOfRangeError, match="^malformed point "):
            gf.distance_matrix(g, [gf.vertex_point("1"), bad], gf.MetricKind.GEODESIC)


def test_point_json_round_trip():
    g = single_edge()
    for p, obj in (
        (gf.vertex_point("0"), {"vertex": "0"}),
        (gf.edge_point("e1", 0.3), {"edge": "e1", "offset": 0.3}),
    ):
        assert gf.point_from_json(g, obj) == _canonicalize(g, p) == p


def test_point_json_mixing_both_forms_is_refused():
    # Such an object was read as its vertex, and its edge point dropped.
    g = single_edge()
    for obj in (
        {"vertex": "0", "edge": "e1", "offset": 0.5},
        {"vertex": "0", "edge": "e1"},
        {"vertex": "0", "offset": 0.5},
    ):
        with pytest.raises(gf.OffsetOutOfRangeError, match="either"):
            gf.point_from_json(g, obj)


def test_graph_json_round_trip():
    g = figure_eight()
    again = gf.graph_from_json(graph_to_json(g))
    assert isomorphic_by_labels(g, again)
    assert [e.id for e in again.edges] == [e.id for e in g.edges]


# -- split -------------------------------------------------------------------


def test_split_partitions_length():
    g = single_edge()
    g2, w = split_edge(g, gf.edge_point("e1", 0.25))
    assert len(g2.edges) == 2 and len(g2.vertices) == 3
    lengths = sorted(e.length for e in g2.edges)
    assert lengths == [0.25, 0.75]
    assert sum(w in (e.u, e.v) for e in g2.edges) == 2


def test_split_square_midpoint_revalidates_as_cycle():
    g = unit_square()
    g2, _ = split_edge(g, gf.edge_point("ab", 0.5))
    assert len(g2.vertices) == 5 and len(g2.edges) == 5
    blocks = gf.block_decomposition(g2).blocks
    assert len(blocks) == 1 and blocks[0].kind is gf.BlockKind.CYCLE


def test_split_and_json_keep_the_edge_records():
    # The split graph keeps the edge order, ids and labels of splitting the
    # Edge records, and its JSON lists those records in that order.
    g = theta_graph()
    eid, off = g._ids[1], 0.3 * float(g._length[1])
    h, w = split_edge(g, gf.edge_point(eid, off))
    payload = graph_to_json(h)
    e = g.edge(eid)
    expected = [x for x in g.edges if x.id != eid]
    expected += [gf.Edge(f"{eid}:a", e.u, w, off), gf.Edge(f"{eid}:b", w, e.v, e.length - off)]
    assert w == f"{eid}@{off!r}" and h.vertices == tuple(sorted([*g.vertices, w]))
    assert list(h.edges) == expected
    assert payload == {
        "vertices": list(h.vertices),
        "edges": [{"id": x.id, "u": x.u, "v": x.v, "length": x.length} for x in expected],
    }


def test_split_labels_avoid_taken_ones():
    g = gf.build_graph(
        ["a", "b", "c", "e@0.5"],
        [("e", "a", "b", 1.0), ("e:a", "b", "c", 1.0), ("e:b~2", "c", "e@0.5", 1.0),
         ("e:b", "e@0.5", "a", 1.5)],
    )
    h, w = split_edge(g, gf.edge_point("e", 0.5))
    assert w == "e@0.5~2"
    assert h._ids == ("e:a", "e:b~2", "e:b", "e:a~2", "e:b~3")


def test_split_at_vertex_rejected():
    g = single_edge()
    with pytest.raises(gf.OffsetOutOfRangeError):
        split_edge(g, gf.vertex_point("0"))


# -- blocks and geodesic validity -----------------------------------------------


def test_tree_blocks_are_bridges():
    g = path_abc()
    g2, _ = split_edge(g, gf.edge_point("bc", 1.0))
    decomposition = gf.block_decomposition(g2)
    assert len(decomposition.blocks) == 3
    assert all(b.kind is gf.BlockKind.BRIDGE for b in decomposition.blocks)


def test_figure_eight_blocks():
    decomposition = gf.block_decomposition(figure_eight())
    kinds = sorted(b.kind for b in decomposition.blocks)
    assert kinds == [gf.BlockKind.CYCLE, gf.BlockKind.CYCLE]
    assert decomposition.articulation_vertices == frozenset({"A"})


def test_theta_graph_is_one_complex_block():
    decomposition = gf.block_decomposition(theta_graph())
    assert len(decomposition.blocks) == 1
    assert decomposition.blocks[0].kind is gf.BlockKind.COMPLEX
    assert decomposition.articulation_vertices == frozenset()


def test_validity_classification():
    safe, forbidden = gf.GeodesicValidity.SAFE, gf.GeodesicValidity.FORBIDDEN
    for g, expected in ((path_abc(), safe), (figure_eight(), safe), (theta_graph(), forbidden)):
        assert gf.block_decomposition(g).validity is expected


def test_blocks_partition_edges_and_kinds_are_consistent():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = random_graph(rng, 14, int(rng.integers(0, 4)))
        decomposition = gf.block_decomposition(g)
        all_edges = [eid for b in decomposition.blocks for eid in b.edge_ids]
        assert sorted(all_edges) == sorted(e.id for e in g.edges)
        for b in decomposition.blocks:
            if b.kind is gf.BlockKind.BRIDGE:
                assert len(b.edge_ids) == 1
            elif b.kind is gf.BlockKind.CYCLE:
                assert len(b.edge_ids) == len(b.vertices) > 1
            else:
                assert len(b.edge_ids) > len(b.vertices)
        has_complex = any(
            b.kind is gf.BlockKind.COMPLEX for b in decomposition.blocks
        )
        expected = (
            gf.GeodesicValidity.FORBIDDEN if has_complex else gf.GeodesicValidity.SAFE
        )
        assert decomposition.validity is expected


def _assert_blocks_match_networkx(g):
    """Block edge sets, in order, and articulation vertices equal
    networkx's, which shares no code with the decomposition under test.
    With the vertices added in label order and the edges in input order,
    networkx lists blocks in the order Tarjan's search closes them."""
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    edge_id = {}
    for e in g.edges:
        h.add_edge(e.u, e.v)
        edge_id[frozenset((e.u, e.v))] = e.id
    expected = [
        frozenset(edge_id[frozenset(pair)] for pair in component)
        for component in nx.biconnected_component_edges(h)
    ]
    decomposition = gf.block_decomposition(g)
    got = [b.edge_ids for b in decomposition.blocks]
    assert got == expected
    assert decomposition.articulation_vertices == frozenset(nx.articulation_points(h))


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_vertices=st.integers(2, 30),
    n_chords=st.integers(0, 8),
)
def test_blocks_match_networkx_on_random_graphs(seed, n_vertices, n_chords):
    rng = np.random.default_rng(seed)
    n_chords = min(n_chords, (n_vertices - 1) * (n_vertices - 2) // 2)
    _assert_blocks_match_networkx(random_graph(rng, n_vertices, n_chords))


def test_blocks_match_networkx_on_grid_and_cactus():
    rng = np.random.default_rng(29)
    _assert_blocks_match_networkx(jittered_grid(rng, 12))
    _assert_blocks_match_networkx(random_onesum(rng, 40))


def test_duplicate_vertex_labels_are_refused():
    with pytest.raises(gf.InvalidGraphError, match="duplicate vertex labels"):
        gf.build_graph(["a", "a"], [])
