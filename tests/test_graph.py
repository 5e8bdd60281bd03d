"""Construction, validation, splitting, and block structure of graphs."""

from __future__ import annotations

import heapq
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphfields as gf
from .helpers import (
    figure_eight,
    has_edge_between,
    isomorphic_by_labels,
    path_abc,
    random_graph,
    single_edge,
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
    # exactly when some edge is longer than its endpoints' distance minus the
    # tolerance, naming the first such edge and that distance.
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

    reference = _all_pairs_reference(g.vertices, edges)
    tol = gf.graph.DISTANCE_TOL_SCALE * max(length for *_, length in edges)
    offending = [
        (eid, shortest)
        for eid, a, b, length in edges
        for shortest in [min(reference[a][b], reference[b][a])]
        if shortest < length - tol
    ]
    if not offending:
        gf.build_graph(g.vertices, edges)
        return
    with pytest.raises(gf.DistanceInconsistentError) as info:
        gf.build_graph(g.vertices, edges)
    edge_id, shortest = offending[0]
    assert info.value.detail["edge_id"] == edge_id
    assert abs(info.value.detail["shortest"] - shortest) <= 4 * np.spacing(shortest)


def test_large_grid_builds_without_all_pairs_table():
    # A 100 x 100 grid: the n x n float table alone would take 800 MB.
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
    tracemalloc.start()
    try:
        g = gf.build_graph(vertices, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = (side * side) ** 2 * 8
    assert peak < table_bytes / 8
    assert g._row_store[1].shape[0] == 0


# -- points and canonicalization ----------------------------------------------


def test_boundary_offsets_canonicalize_to_vertices():
    g = single_edge()
    assert gf.canonicalize(g, gf.edge_point("e1", 0.0)) == gf.vertex_point("0")
    assert gf.canonicalize(g, gf.edge_point("e1", 1.0)) == gf.vertex_point("1")
    interior = gf.canonicalize(g, gf.edge_point("e1", 0.25))
    assert not interior.is_vertex and interior.offset == 0.25


def test_out_of_range_offsets_rejected():
    g = single_edge()
    for bad in (-0.1, 1.5, float("nan")):
        with pytest.raises(gf.OffsetOutOfRangeError):
            gf.canonicalize(g, gf.edge_point("e1", bad))
    with pytest.raises(gf.UnknownEdgeError):
        gf.canonicalize(g, gf.edge_point("nope", 0.5))
    with pytest.raises(gf.UnknownVertexError):
        gf.canonicalize(g, gf.vertex_point("Z"))


def test_point_json_round_trip():
    g = single_edge()
    for p in (gf.vertex_point("0"), gf.edge_point("e1", 0.3)):
        p = gf.canonicalize(g, p)
        assert gf.point_from_json(g, gf.point_to_json(p)) == p


def test_graph_json_round_trip():
    g = figure_eight()
    again = gf.graph_from_json(gf.graph_to_json(g))
    assert isomorphic_by_labels(g, again)
    assert [e.id for e in again.edges] == [e.id for e in g.edges]


# -- split -------------------------------------------------------------------


def test_split_partitions_length():
    g = single_edge()
    g2, w = gf.split_edge(g, gf.edge_point("e1", 0.25))
    assert len(g2.edges) == 2 and len(g2.vertices) == 3
    lengths = sorted(e.length for e in g2.edges)
    assert lengths == [0.25, 0.75]
    assert len(g2.adjacency[w]) == 2


def test_split_square_midpoint_revalidates_as_cycle():
    g = unit_square()
    g2, _ = gf.split_edge(g, gf.edge_point("ab", 0.5))
    assert len(g2.vertices) == 5 and len(g2.edges) == 5
    blocks = gf.block_decomposition(g2).blocks
    assert len(blocks) == 1 and blocks[0].kind is gf.BlockKind.CYCLE


def test_split_at_vertex_rejected():
    g = single_edge()
    with pytest.raises(gf.OffsetOutOfRangeError):
        gf.split_edge(g, gf.vertex_point("0"))


# -- blocks and geodesic validity -----------------------------------------------


def test_tree_blocks_are_bridges():
    g = path_abc()
    g2, _ = gf.split_edge(g, gf.edge_point("bc", 1.0))
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
