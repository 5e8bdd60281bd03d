"""Geodesic and resistance metrics, field kernels, and the resistance oracle."""

from __future__ import annotations

import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

import graphfields as gf
from graphfields import MetricKind
from graphfields.graph import _canonicalize
from graphfields.metrics import canonical_points, resistance_matrix
from .helpers import (
    brute_force_point_distance,
    dense_canonical_covariance,
    exact_resistance_matrix,
    factored_conductance,
    figure_eight,
    four_pairing_geodesic,
    four_pairing_resistance,
    jittered_grid,
    path_abc,
    point_frame,
    r_graph,
    r_graph_matrix,
    random_cycle_lengths,
    random_graph,
    random_onesum,
    random_points,
    random_tree,
    single_edge,
    split_edge,
    tree_kernel_closed_form,
    unit_square,
    unit_triangle,
)


def _vp(label):
    return gf.vertex_point(label)


def _ep(edge, offset):
    return gf.edge_point(edge, offset)


# -- point table -----------------------------------------------------------------


def _raw_points(rng, g, invalid: bool) -> list:
    """Points as a caller gives them: vertices, offsets of exactly 0 and the
    edge length, several points on one edge, offsets as ints and numpy
    floats, repeats (also of one point named two ways), and with
    ``invalid`` one to two points that do not lie on ``g``."""
    labels, edges = g.vertices, g.edges
    points = []
    for _ in range(int(rng.integers(0, 9))):
        kind = int(rng.integers(0, 6 if edges else 1))
        e = edges[int(rng.integers(len(edges)))] if edges else None
        if kind == 0:
            points.append(gf.vertex_point(labels[int(rng.integers(len(labels)))]))
        elif kind == 1:
            points.append(gf.edge_point(e.id, [0.0, e.length][int(rng.integers(2))]))
        elif kind == 2:
            for off in rng.uniform(0.0, e.length, size=int(rng.integers(1, 4))):
                points.append(gf.edge_point(e.id, off))
        elif kind == 3:
            points.append(gf.GraphPoint(edge=e.id, offset=np.float64(rng.uniform(0.0, e.length))))
        elif kind == 4:
            points.append(gf.GraphPoint(edge=e.id, offset=0 if rng.random() < 0.5 else 1))
        elif points:
            points.append(points[int(rng.integers(len(points)))])
    for _ in range(int(rng.integers(1, 3)) if invalid else 0):
        e = edges[0] if edges else gf.Edge("x", labels[0], labels[0], 1.0)
        bad = [
            gf.vertex_point("no such vertex"),
            gf.edge_point("no such edge", 0.5),
            gf.edge_point(e.id, -0.25),
            gf.edge_point(e.id, 1.5 * e.length),
            gf.edge_point(e.id, float("nan")),
            gf.edge_point(e.id, float("inf")),
            gf.GraphPoint(vertex=labels[0], edge=e.id, offset=0.5),
            gf.GraphPoint(edge=e.id),
        ][int(rng.integers(8))]
        points.insert(int(rng.integers(len(points) + 1)), bad)
    return points


@settings(max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_vertices=st.integers(1, 8),
    n_chords=st.integers(0, 2),
    invalid=st.booleans(),
)
def test_point_table_equals_per_point_reference(seed, n_vertices, n_chords, invalid):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_vertices, min(n_chords, n_vertices - 2) if n_vertices > 2 else 0)
    points = _raw_points(rng, g, invalid)
    try:
        expected = [_canonicalize(g, p) for p in points]
    except gf.GraphFieldsError as exc:
        with pytest.raises(type(exc)) as raised:
            canonical_points(g, points)
        assert str(raised.value) == str(exc) and raised.value.detail == exc.detail
        return
    table = canonical_points(g, iter(points))
    assert list(table) == expected
    got = (table.lo, table.hi, table.off, table.elen, table.eidx)
    for a, b in zip(got, point_frame(g, expected), strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert table.labels == tuple(map(gf.point_label, expected))
    keys = [(p.vertex, p.edge, p.offset) for p in expected]
    assert table.repeat == next(
        (k for k, key in enumerate(keys) if key in keys[:k]), len(keys)
    )
    assert canonical_points(g, table) is table
    other = canonical_points(gf.build_graph(g.vertices, g.edges), table)
    assert other is not table and list(other) == expected


def test_distinct_points_may_share_a_label():
    # A vertex may be named like an edge point; they are still two points.
    g = gf.build_graph(["a", "b", "e@0.5"], [("e", "a", "b", 1.0), ("f", "b", "e@0.5", 1.0)])
    pts = [_vp("e@0.5"), _ep("e", 0.5)]
    assert gf.distance_matrix(g, pts, MetricKind.GEODESIC)[0, 1] == 1.5
    with pytest.raises(gf.DuplicatePointsError, match="^duplicate point 'e@0.5'$"):
        gf.distance_matrix(g, [*pts, _ep("e", 0.25), _ep("e", 0.5)], MetricKind.GEODESIC)


# -- geodesic ------------------------------------------------------------------


def test_geodesic_on_path():
    g = path_abc()
    assert gf.geodesic_distance(g, _vp("A"), _vp("C")) == 3.0


def test_geodesic_square_opposite_corners():
    g = unit_square()
    assert gf.geodesic_distance(g, _vp("A"), _vp("C")) == 2.0


def test_geodesic_same_edge_direct_beats_around():
    g = unit_square()
    assert gf.geodesic_distance(g, _ep("ab", 0.1), _ep("ab", 0.9)) == pytest.approx(
        0.8, abs=1e-15
    )


def test_geodesic_matches_brute_force_enumeration():
    rng = np.random.default_rng(21)
    for _ in range(6):
        g = random_graph(rng, 7, int(rng.integers(0, 3)))
        pts = random_points(rng, g, 5)
        for i, p in enumerate(pts):
            for q in pts[i:]:
                got = gf.geodesic_distance(g, p, q)
                expected = brute_force_point_distance(g, p, q)
                assert got == pytest.approx(expected, abs=1e-12)


def _few_end_points(rng, g, n_edges, per_edge, n_vertex_points=0) -> list:
    """``per_edge`` points inside each of up to ``n_edges`` edges of a
    matching of ``g``, then up to ``n_vertex_points`` distinct vertex points
    at their ends: with ``per_edge >= 2`` the points have no more endpoint
    vertices than there are points."""
    pts, used = [], set()
    for k in rng.permutation(len(g.edges)):
        e = g.edges[k]
        if len(used) < 2 * n_edges and not used & {e.u, e.v}:
            used |= {e.u, e.v}
            pts += [_ep(e.id, float(x) * e.length) for x in rng.uniform(0.02, 0.98, per_edge)]
    ends = rng.choice(sorted(used), min(n_vertex_points, len(used)), replace=False)
    return pts + [_vp(str(v)) for v in ends]


def _all_pairs_geodesic(g, pts) -> np.ndarray:
    """Reference: scipy's all-pairs Dijkstra on an edge matrix built here,
    symmetrized as ``minimum(D, D.T)``, read through the four endpoint
    pairings plus the direct segment between points on one edge."""
    n = len(g.vertices)
    iu = [g.vertex_index(e.u) for e in g.edges]
    iv = [g.vertex_index(e.v) for e in g.edges]
    weights = csr_matrix(([e.length for e in g.edges], (iu, iv)), shape=(n, n))
    table = dijkstra(weights, directed=False)
    table = np.minimum(table, table.T)
    m = len(pts)
    lo, hi = np.empty(m, dtype=np.intp), np.empty(m, dtype=np.intp)
    to_lo, to_hi = np.zeros(m), np.zeros(m)
    for k, p in enumerate(pts):
        if p.is_vertex:
            lo[k] = hi[k] = g.vertex_index(p.vertex)
        else:
            e = g.edge(p.edge)
            lo[k], hi[k] = g.vertex_index(e.u), g.vertex_index(e.v)
            to_lo[k], to_hi[k] = p.offset, e.length - p.offset
    best = to_lo[:, None] + table[np.ix_(lo, lo)] + to_lo[None, :]
    pairings = ((to_lo, lo, to_hi, hi), (to_hi, hi, to_lo, lo), (to_hi, hi, to_hi, hi))
    for a, ia, b, ib in pairings:
        best = np.minimum(best, a[:, None] + table[np.ix_(ia, ib)] + b[None, :])
    shared = np.array(
        [[p.edge is not None and p.edge == q.edge for q in pts] for p in pts], dtype=bool
    ).reshape(m, m)
    direct = np.abs(to_lo[:, None] - to_lo[None, :])
    best = np.where(shared, np.minimum(best, direct), best)
    np.fill_diagonal(best, 0.0)
    return np.minimum(best, best.T)


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_vertices=st.integers(1, 10),
    n_chords=st.integers(0, 3),
)
# The fresh set has 7 endpoint vertices for 5 points; one instance asks it
# first, the other after sets that stored some of its ends.
@example(seed=0, n_vertices=10, n_chords=1)
def test_geodesic_matrix_bit_equals_all_pairs_reference(seed, n_vertices, n_chords):
    # Several point sets in turn on one graph: a cold row store, then a warm
    # one, overlapping sets, a subset and the empty set.  A second instance
    # of the same graph asks them in the reverse order, and both give each
    # set the same bits, so no number depends on what the graph answered
    # before.  A set with no more endpoint vertices than points reads vertex
    # rows and equals the reference bit for bit; one with more searches from
    # its points, which rounds differently.
    rng = np.random.default_rng(seed)
    n_chords = min(n_chords, (n_vertices - 1) * (n_vertices - 2) // 2)
    g = random_graph(rng, n_vertices, n_chords)
    if g.edges:
        first = _points_sharing_edges(rng, g)[:-1]
        if not any(p.is_vertex for p in first):
            first.append(_vp(g.vertices[0]))
        fresh = random_points(rng, g, int(rng.integers(1, 8)))
        overlap = [p for p in first if p not in fresh][::2] + fresh
        subset = first[1::2]
    else:
        first = fresh = overlap = [_vp(g.vertices[0])]
        subset = []
    sets = [first, overlap, subset, [], fresh]
    again = gf.build_graph(g.vertices, g.edges)
    got = {k: gf.distance_matrix(g, sets[k], MetricKind.GEODESIC) for k in range(len(sets))}
    for k in reversed(range(len(sets))):
        assert gf.distance_matrix(again, sets[k], MetricKind.GEODESIC).tobytes() == (
            got[k].tobytes()
        )
    for k, pts in enumerate(sets):
        expected = _all_pairs_geodesic(g, pts)
        if canonical_points(g, pts).ends.size <= len(pts):
            assert np.array_equal(got[k], expected)
        else:
            np.testing.assert_allclose(got[k], expected, rtol=1e-12, atol=0.0)


def _crowded_points(seed, cycle, n_vertices, n_chords, vertex_share):
    """A random graph or cycle with points on edges and at vertices, several
    on one edge and one repeated."""
    rng = np.random.default_rng(seed)
    if cycle:
        size = max(n_vertices, 3)
        ring = [f"r{k}" for k in range(size)]
        lengths = random_cycle_lengths(rng, size)
        g = gf.build_graph(
            ring, [(f"c{k}", ring[k], ring[(k + 1) % size], lengths[k]) for k in range(size)]
        )
    else:
        n_chords = min(n_chords, (n_vertices - 1) * (n_vertices - 2) // 2)
        g = random_graph(rng, n_vertices, n_chords)
    count = min(int(rng.integers(1, 8)), len(g.vertices))
    pts = random_points(rng, g, count, vertex_share=vertex_share)
    e = g.edges[int(rng.integers(len(g.edges)))]
    offsets = rng.uniform(0.0, 1.0, size=int(rng.integers(0, 5))) * e.length
    pts += [_canonicalize(g, gf.edge_point(e.id, float(off))) for off in offsets]
    pts.append(pts[int(rng.integers(len(pts)))])
    return g, pts


_CROWDED = dict(
    seed=st.integers(0, 2**32 - 1),
    cycle=st.booleans(),
    n_vertices=st.integers(2, 12),
    n_chords=st.integers(0, 4),
    vertex_share=st.sampled_from([0.0, 0.3, 1.0]),
)


@settings(max_examples=100)
@given(**_CROWDED)
def test_geodesic_matrix_bit_equal_four_pairings(seed, cycle, n_vertices, n_chords, vertex_share):
    # The nearer end of one point, then of the other, gives the minimum
    # over the four pairings of vertex rows bit for bit.  Points with more
    # endpoint vertices than points search from themselves instead, which
    # rounds differently.
    g, pts = _crowded_points(seed, cycle, n_vertices, n_chords, vertex_share)
    expected = four_pairing_geodesic(g, pts)
    got = gf.metrics.geodesic_matrix(g, pts)
    if canonical_points(g, pts).ends.size <= len(pts):
        assert got.tobytes() == expected.tobytes()
    else:
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


@settings(max_examples=100, derandomize=True)
@given(**_CROWDED)
def test_resistance_matrix_bit_equal_four_pairing_resistance(
    seed, cycle, n_vertices, n_chords, vertex_share
):
    # W (W R)^T adds each pair's terms in the order of the per-pair
    # reference, so the matrices agree bit for bit.
    g, pts = _crowded_points(seed, cycle, n_vertices, n_chords, vertex_share)
    expected = four_pairing_resistance(g, pts)
    assert resistance_matrix(g, pts).tobytes() == expected.tobytes()


def test_concurrent_queries_read_consistent_row_stores(monkeypatch):
    # More threads than cores grow one graph's row stores at once, both
    # metrics interleaved, switching every microsecond, on ten fresh
    # instances with the default budget and five whose budget holds four
    # rows; a row is added whole, so a reader sees all of it or none, and
    # rows that race past the small budget are dropped, so those stores hold
    # at most four rows.  Matrices equal those of one thread on another
    # instance bit for bit, whichever rows were stored.  Each geodesic set
    # has no more endpoint vertices than points, so it reads and grows the
    # store, which under the default budget ends up holding all their ends.
    # Beside the resistance queries, canonical draws of 70 (two blocks) read
    # the factor of L that those queries solve with, and equal serial draws
    # bit for bit.
    rng = np.random.default_rng(12)
    base = random_graph(rng, 40, 6)
    kinds = [(MetricKind.GEODESIC, MetricKind.RESISTANCE)[k % 3 == 1] for k in range(24)]
    sets = [
        random_points(rng, base, int(rng.integers(2, 12)))
        if kind is MetricKind.RESISTANCE
        else _few_end_points(rng, base, int(rng.integers(1, 6)), int(rng.integers(2, 4)))
        for kind in kinds
    ]
    geodesic_ends = set()
    for pts, kind in zip(sets, kinds):
        if kind is MetricKind.GEODESIC:
            table = canonical_points(base, pts)
            assert table.ends.size <= len(pts)
            geodesic_ends.update(table.ends.tolist())
    alone = gf.build_graph(base.vertices, base.edges)
    expected = [gf.distance_matrix(alone, pts, kind) for pts, kind in zip(sets, kinds)]

    def draw(g, k):
        return gf.sample_canonical_field(gf.build_resistance_context(g), sets[k], 70, seed=k).draws

    expected_draws = {k: draw(alone, k) for k in range(2, len(sets), 3)}

    def work(g, first, results, draws):
        for k in range(first, len(sets), 8):
            if k in expected_draws:
                draws[k] = draw(g, k)
            results[k] = gf.distance_matrix(g, sets[k], kinds[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        small = 4 * 8 * len(base.vertices)
        for budget in (gf.metrics._ROW_STORE_BYTES,) * 10 + (small,) * 5:
            monkeypatch.setattr(gf.metrics, "_ROW_STORE_BYTES", budget)
            g = gf.build_graph(base.vertices, base.edges)
            results, draws = [None] * len(sets), {}
            threads = [
                threading.Thread(target=work, args=(g, k, results, draws)) for k in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            for got, want in zip(results, expected):
                assert np.array_equal(got, want)
            assert {k: d.tobytes() for k, d in draws.items()} == {
                k: d.tobytes() for k, d in expected_draws.items()
            }
            assert _stored_bytes(g) <= budget
            if budget > small:
                assert sorted(gf.metrics._stores(g)["geodesic"]) == sorted(geodesic_ends)
    finally:
        sys.setswitchinterval(interval)


def _stored_bytes(g) -> int:
    """The bytes of the arrays that hold the stored rows of ``g``, each
    counted once: a row is a view of the copy its kept rows were made
    into, so this is what the stores hold, dropped or replaced rows too."""
    held = {}
    for store in gf.metrics._stores(g).values():
        for row in store.values():
            base = row if row.base is None else row.base
            held[id(base)] = base.nbytes
    return sum(held.values())


def test_a_growing_store_copies_nothing_and_holds_at_most_its_budget(monkeypatch):
    # On a 900-vertex grid with a budget of 200 rows, a store filled to
    # half of it grows by 4 rows with a peak far below the 100 rows it
    # holds, where a store that copied itself to grow would peak above
    # them.  Then 196 more ends cross the budget: rows are kept up to it,
    # copied out of their block, so no dropped row stays alive beside a
    # kept one, and the stored rows are read-only.
    g = jittered_grid(np.random.default_rng(7), 30)
    row = 8 * len(g.vertices)
    monkeypatch.setattr(gf.metrics, "_ROW_STORE_BYTES", 200 * row)
    pts = random_points(np.random.default_rng(8), g, 300, vertex_share=1.0)
    numpy_data = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)

    def array_bytes():
        # numpy's data buffers traced since tracing started, still alive.
        return sum(t.size for t in tracemalloc.take_snapshot().filter_traces([numpy_data]).traces)

    for kind in MetricKind:
        small = gf.build_graph(g.vertices, g.edges)
        gf.distance_matrix(small, pts[:100], kind)
        held = _stored_bytes(small)
        assert held == 100 * row
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            gf.distance_matrix(small, pts[100:104], kind)
            assert tracemalloc.get_traced_memory()[1] - start < held / 2
            gf.distance_matrix(small, pts[104:], kind)
            assert held + array_bytes() <= 200 * row
        finally:
            tracemalloc.stop()
        store = gf.metrics._stores(small)[kind.value]
        assert len(store) == 200 and _stored_bytes(small) == 200 * row
        assert not any(r.flags.writeable or not r.flags.c_contiguous for r in store.values())


def test_a_row_kept_by_a_racing_query_is_not_replaced(monkeypatch):
    # A query computes rows 3 and 7 while another query keeps rows 1, 2
    # and 3, as two threads may: the first keeps only row 7, so row 3 stays
    # the one kept first and the stores hold exactly the 4 rows they count,
    # under a budget of 5.
    g = jittered_grid(np.random.default_rng(7), 4)
    n = len(g.vertices)
    monkeypatch.setattr(gf.metrics, "_ROW_STORE_BYTES", 5 * 8 * n)

    def compute(rows):
        return np.add.outer(1000.0 * rows, np.arange(n))

    def racing(rows):
        gf.metrics._stored_block(g, "geodesic", np.array([1, 2, 3]), compute, 64)
        return compute(rows)

    block = gf.metrics._stored_block(g, "geodesic", np.array([3, 7]), racing, 64)
    assert np.array_equal(block, compute(np.array([3, 7]))[:, [3, 7]])
    store = gf.metrics._stores(g)["geodesic"]
    assert sorted(store) == [1, 2, 3, 7]
    assert store[3].base is store[1].base
    assert _stored_bytes(g) == 4 * 8 * n


@settings(max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_vertices=st.integers(2, 40),
    n_chords=st.integers(0, 6),
    budget_rows=st.integers(0, 12),
)
def test_matrices_are_bit_equal_cold_warm_and_past_the_store_budget(
    seed, n_vertices, n_chords, budget_rows
):
    # Several point sets in turn on one graph with the default budget (cold,
    # then warm, overlapping sets, a repeat of the first), and in reverse
    # order on an instance whose stores may hold only budget_rows rows in
    # all: each matrix is the same bits, and the stores keep their bound.
    # The first set has no more endpoint vertices than points, so its
    # geodesic queries read and grow the store.
    rng = np.random.default_rng(seed)
    n_chords = min(n_chords, (n_vertices - 1) * (n_vertices - 2) // 2)
    g = random_graph(rng, n_vertices, n_chords)
    first = _few_end_points(rng, g, int(rng.integers(1, 5)), int(rng.integers(2, 4)))
    assert canonical_points(g, first).ends.size <= len(first)
    fresh = random_points(rng, g, int(rng.integers(1, 12)))
    mixed = first[::2] + [p for p in fresh[1::2] if p not in first[::2]]
    sets = [first, fresh, mixed, [], first]
    small = gf.build_graph(g.vertices, g.edges)
    for kind in MetricKind:
        expected = [gf.distance_matrix(g, pts, kind) for pts in sets]
        assert np.array_equal(expected[0], expected[-1])
        budget = budget_rows * 8 * len(g.vertices)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gf.metrics, "_ROW_STORE_BYTES", budget)
            for k in reversed(range(len(sets))):
                got = gf.distance_matrix(small, sets[k], kind)
                assert got.tobytes() == expected[k].tobytes()
                assert _stored_bytes(small) <= budget


def test_rows_past_the_budget_equal_stored_rows_on_a_grid(monkeypatch):
    # Hundreds of endpoints, so rows are computed in several blocks, each
    # with other rows than on the instance that stores them all.  Two
    # points inside each edge of a matching, and vertex points at some of
    # their ends, so the points have no more endpoints than points and
    # geodesic queries read rows too.
    g = jittered_grid(np.random.default_rng(3), 20)
    pts = _few_end_points(np.random.default_rng(4), g, 100, 2, 20)
    ends = canonical_points(g, pts).ends
    assert 2 * gf.metrics._SOLVE_COLUMNS < ends.size <= len(pts)
    expected = {kind: gf.distance_matrix(g, pts, kind) for kind in MetricKind}
    assert sorted(gf.metrics._stores(g)["geodesic"]) == ends.tolist()
    monkeypatch.setattr(gf.metrics, "_ROW_STORE_BYTES", 5 * 8 * len(g.vertices))
    small = gf.build_graph(g.vertices, g.edges)
    for kind in MetricKind:
        for _ in range(2):
            assert gf.distance_matrix(small, pts[::-1], kind)[::-1, ::-1].tobytes() == (
                expected[kind].tobytes()
            )
    assert _stored_bytes(small) == 5 * 8 * len(g.vertices)


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_vertices=st.integers(16, 40),
    n_chords=st.integers(1, 6),
    n_same=st.integers(1, 4),
    n_vertex_points=st.integers(1, 3),
)
def test_geodesic_query_with_many_ends_searches_from_points(
    seed, n_vertices, n_chords, n_same, n_vertex_points
):
    # Graphs with cycles; one point inside each edge of a maximal matching,
    # more on one of those edges, vertex points and a repeated point, so the
    # points have more endpoint vertices than there are points.  Every query
    # of them searches from them, stores nothing and gives the same bits,
    # also on an instance whose store holds every endpoint's row.
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_vertices, n_chords)
    pts, used = [], set()
    for k in rng.permutation(len(g.edges)):
        e = g.edges[k]
        if not used & {e.u, e.v}:
            used |= {e.u, e.v}
            pts.append(_ep(e.id, float(rng.uniform(0.02, 0.98)) * e.length))
    e = g.edge(pts[0].edge)
    pts += [_ep(e.id, float(x) * e.length) for x in rng.uniform(0.02, 0.98, n_same)]
    pts += [_vp(g.vertices[int(k)]) for k in rng.integers(len(g.vertices), size=n_vertex_points)]
    pts.append(pts[int(rng.integers(len(pts)))])
    ends = canonical_points(g, pts).ends
    assume(ends.size > len(pts))

    first = gf.metrics.geodesic_matrix(g, pts)
    np.testing.assert_allclose(first, _all_pairs_geodesic(g, pts), rtol=1e-12, atol=0.0)
    assert np.array_equal(first, first.T) and not first.diagonal().any()
    warm = gf.build_graph(g.vertices, g.edges)
    gf.metrics._distance_block(warm, ends)
    for graph in (g, warm, gf.build_graph(g.vertices, g.edges)):
        assert gf.metrics.geodesic_matrix(graph, pts).tobytes() == first.tobytes()
    assert not gf.metrics._stores(g)["geodesic"]
    assert sorted(gf.metrics._stores(warm)["geodesic"]) == ends.tolist()


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_vertices=st.integers(8, 40),
    n_chords=st.integers(0, 6),
    n_edges=st.integers(1, 4),
    per_edge=st.integers(2, 4),
    n_vertex_points=st.integers(0, 3),
)
def test_geodesic_query_with_few_ends_reads_and_stores_rows(
    seed, n_vertices, n_chords, n_edges, per_edge, n_vertex_points
):
    # The cov_sites shape: the points have no more endpoint vertices than
    # points (several points inside each edge of a matching, and vertex
    # points at their ends; equality when there are none), so a query on a
    # fresh instance reads rows, stores every one it computes and equals
    # the all-pairs reference bit for bit, and a repeat reads those rows.
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_vertices, n_chords)
    pts = _few_end_points(rng, g, n_edges, per_edge, n_vertex_points)
    ends = canonical_points(g, pts).ends
    assert ends.size <= len(pts)
    first = gf.metrics.geodesic_matrix(g, pts)
    assert sorted(gf.metrics._stores(g)["geodesic"]) == ends.tolist()
    assert first.tobytes() == _all_pairs_geodesic(g, pts).tobytes()
    assert gf.metrics.geodesic_matrix(g, pts).tobytes() == first.tobytes()


def test_geodesic_queries_on_large_grid_stay_far_below_all_pairs_table():
    # A 100 x 100 grid: the n x n float table alone would take 800 MB.
    side = 100
    g = jittered_grid(np.random.default_rng(5), side)
    pts = random_points(np.random.default_rng(6), g, 50, vertex_share=0.0)
    tracemalloc.start()
    try:
        d = gf.geodesic_distance(g, pts[0], pts[1])
        dm = gf.distance_matrix(g, pts, MetricKind.GEODESIC)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (side * side) ** 2 * 8 / 8
    assert d == dm[0, 1] and np.isfinite(dm).all()


# -- resistance context ---------------------------------------------------------


def test_single_edge_conductance_matrix():
    g = single_edge()
    ctx = gf.build_resistance_context(g)
    assert ctx.origin == "0"
    L = factored_conductance(g)
    assert np.array_equal(L, np.array([[2.0, -1.0], [-1.0, 1.0]]))
    expected_inverse = np.array([[1.0, 1.0], [1.0, 2.0]])
    assert np.allclose(np.linalg.inv(L), expected_inverse, atol=1e-12)


def test_L_strictly_positive_definite_on_random_graphs():
    rng = np.random.default_rng(5)
    for _ in range(8):
        g = random_graph(rng, 12, int(rng.integers(0, 3)))
        assert np.linalg.eigvalsh(factored_conductance(g))[0] > 0


def test_context_is_frozen():
    ctx = gf.build_resistance_context(single_edge())
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.origin = "1"


def test_r_graph_matrix_locates_each_point_once(monkeypatch):
    g = path_abc()
    ctx = gf.build_resistance_context(g, "C")
    points = [gf.vertex_point("A"), gf.edge_point("ab", 1.0), gf.edge_point("bc", 0.5)]
    seen = []
    real = gf.metrics._locate
    monkeypatch.setattr(gf.metrics, "_locate", lambda g, p: seen.append(p) or real(g, p))
    r_graph_matrix(ctx, points)
    assert seen == [*points, gf.vertex_point("C")]


def test_factor_columns_match_dense_inverse():
    rng = np.random.default_rng(9)
    g = random_graph(rng, 10, 2)
    pts = random_points(rng, g, 8)
    ctx = gf.build_resistance_context(g, g.vertices[3])
    # L^-1 from the definition, with its unit at vertex 0.
    dense, _ = dense_canonical_covariance(g, g.vertices[0], list(map(gf.vertex_point, g.vertices)))
    columns = gf.metrics._conductance_lu(g).solve(np.eye(len(g.vertices)))
    assert np.allclose(columns, dense, rtol=0.0, atol=1e-12)
    # The same covariance assembled by hand from the definition.
    mu, bridge = dense_canonical_covariance(g, ctx.origin, pts)
    got = r_graph_matrix(ctx, pts)
    assert np.allclose(got, mu + bridge, rtol=0.0, atol=1e-12)


def _points_sharing_edges(rng, g):
    """Random points plus several more on one edge and one repeat."""
    pts = random_points(rng, g, int(rng.integers(1, 7)), vertex_share=0.3)
    e = g.edges[int(rng.integers(0, len(g.edges)))]
    offsets = rng.uniform(0.02, 0.98, size=int(rng.integers(2, 5))) * e.length
    pts += [gf.edge_point(e.id, float(off)) for off in offsets]
    return pts + [pts[int(rng.integers(0, len(pts)))]]


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_vertices=st.integers(4, 10),
    n_chords=st.integers(0, 3),
)
# Two points 3.7e-4 l apart on one edge.
@example(seed=88997, n_vertices=4, n_chords=0)
def test_covariance_is_the_canonical_law(seed, n_vertices, n_chords):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_vertices, n_chords)
    pts = _points_sharing_edges(rng, g)
    origin = g.vertices[int(rng.integers(0, n_vertices))]
    ctx = gf.build_resistance_context(g, origin)
    mu, bridge = dense_canonical_covariance(g, origin, pts)
    expected = mu + bridge
    diag = np.diag(expected)
    variogram = diag[:, None] + diag[None, :] - 2.0 * expected
    scale = np.max(diag)
    assert np.max(np.abs(r_graph_matrix(ctx, pts) - expected)) <= 1e-13 * scale
    assert np.max(np.abs(resistance_matrix(g, pts) - variogram)) <= 1e-12


@pytest.mark.parametrize("gap", [1e-9, 1e-12])
def test_near_duplicate_points_keep_other_pairs_exact(gap):
    # Every pair with at most one point on the crowded edge stays exact,
    # here for a close pair inside the edge and for a point that close to a
    # vertex, also against that vertex.  The reference subtracts
    # covariances in 40 digits, so its own cancellation stays far below
    # the bound.
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = random_graph(rng, 12, 3)
        e = g.edges[int(rng.integers(0, len(g.edges)))]
        crowded = [
            _ep(e.id, 0.37 * e.length),
            _ep(e.id, (0.37 + gap) * e.length),
            _ep(e.id, gap * e.length),
        ]
        others = [
            p
            for p in random_points(rng, g, 8)
            if p.is_vertex or p.edge != e.id
        ]
        if _vp(e.u) not in others:
            others.append(_vp(e.u))
        pts = crowded + others
        expected = exact_resistance_matrix(g, pts)
        got = resistance_matrix(g, pts)
        off_edge = np.ones_like(got, dtype=bool)
        off_edge[:3, :3] = False
        np.fill_diagonal(off_edge, False)
        rel = np.abs(got - expected)[off_edge] / expected[off_edge]
        assert np.max(rel) <= 1e-12


def test_large_tree_resistance_equals_geodesic():
    # Larger than every other fixture: trees must keep d_R == d_G at scale.
    rng = np.random.default_rng(9)
    g = random_tree(rng, 2100)
    pts = random_points(rng, g, 40)
    geo = gf.distance_matrix(g, pts, MetricKind.GEODESIC)
    res = gf.distance_matrix(g, pts, MetricKind.RESISTANCE)
    assert np.max(np.abs(geo - res)) <= 1e-9


def _path(ab: float, bc: float):
    """The path a--b--c with the edges ``ab`` and ``bc`` of these lengths."""
    return gf.build_graph(["a", "b", "c"], [("ab", "a", "b", ab), ("bc", "b", "c", bc)])


def _extreme(ab, bc, raises, what):
    reason = f"{what}; ROADMAP items 13 (exact small differences) and 16 (per-block factors)"
    return pytest.param(
        ab, bc, marks=pytest.mark.xfail(strict=True, raises=raises, reason=reason),
        id=f"ab={ab:g}-bc={bc:g}",
    )


@pytest.mark.parametrize("ab, bc", [
    _extreme(1.0, 1e-300, AssertionError, "d_R(a, b) is 0.5 where d_G is 1"),
    _extreme(1e-300, 1.0, AssertionError, "d_R(a, b) is 1.49e-300 where d_G is 1e-300"),
    _extreme(1e300, 1.0, gf.FactorizationFailedError, "L is numerically singular"),
    _extreme(1e-200, 1.0, gf.FactorizationFailedError, "L is numerically singular"),
])
def test_paths_with_extreme_lengths_keep_resistance_equal_to_geodesic(ab, bc):
    # On a tree d_R equals d_G, whatever the lengths.
    g = _path(ab, bc)
    pts = [gf.vertex_point(v) for v in "abc"]
    geo = gf.distance_matrix(g, pts, MetricKind.GEODESIC)
    res = gf.distance_matrix(g, pts, MetricKind.RESISTANCE)
    assert np.allclose(res, geo, rtol=1e-12, atol=0.0)


def _short_side(eps, raises, what):
    return pytest.param(
        eps, marks=pytest.mark.xfail(strict=True, raises=raises, reason=f"{what}; ROADMAP item 16"),
        id=f"eps={eps:g}",
    )


@pytest.mark.parametrize("eps", [
    pytest.param(0.5, id="eps=0.5"),
    pytest.param(1e-3, id="eps=0.001"),
    _short_side(1e-9, AssertionError, "d_R is 8.3e-8 off relative"),
    _short_side(1e-13, AssertionError, "d_R is 8.0e-4 off relative"),
    _short_side(1e-200, gf.FactorizationFailedError, "factorization of L pivoted off the diagonal"),
])
def test_a_short_side_of_a_triangle_keeps_its_series_parallel_resistance(eps):
    # Across a side of length eps, parallel to a route of length 2 over the
    # two unit sides, d_R is 2 eps / (2 + eps).
    g = gf.build_graph(
        ["a", "b", "c"], [("ab", "a", "b", 1.0), ("bc", "b", "c", 1.0), ("ca", "c", "a", eps)]
    )
    res = gf.distance_matrix(g, [gf.vertex_point("c"), gf.vertex_point("a")], MetricKind.RESISTANCE)
    assert res[0, 1] == pytest.approx(2.0 * eps / (2.0 + eps), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("short", [5e-324, 1.0 / np.finfo(float).max])
def test_an_edge_whose_conductance_overflows_is_refused_by_name(short):
    # 1 / length overflows: resistance and covariance refuse the edge before
    # dividing, so no RuntimeWarning (an error in this suite) is raised.
    # Geodesic distances do not divide by lengths and keep their answers.
    g = _path(short, 1.0)
    pts = [*map(gf.vertex_point, "abc"), gf.edge_point("bc", 0.5)]
    ctx = gf.build_resistance_context(g)
    for query in (lambda: resistance_matrix(g, pts), lambda: r_graph_matrix(ctx, pts)):
        with pytest.raises(gf.FactorizationFailedError, match="'ab' is too short") as info:
            query()
        assert info.value.detail == {"edge_id": "ab"}
    geo = gf.distance_matrix(g, pts, MetricKind.GEODESIC)
    assert geo[0].tolist() == [0.0, short, 1.0, 0.5]


# -- field kernels on the single edge -------------------------------------------


def test_field_kernels_single_edge_values():
    g = single_edge()
    ctx = gf.build_resistance_context(g)
    p25, p75 = _ep("e1", 0.25), _ep("e1", 0.75)
    mu, bridge = dense_canonical_covariance(g, "0", [p25, p75, _vp("0"), _vp("1")])
    assert mu[0, 0] == pytest.approx(1.0625, abs=1e-12)
    assert mu[0, 1] == pytest.approx(1.1875, abs=1e-12)
    assert mu[2, 2] == pytest.approx(1.0, abs=1e-12)
    assert bridge[0, 1] == 0.0625
    assert bridge[0, 0] == 0.1875
    assert bridge[2, 0] == 0.0
    assert bridge[2, 3] == 0.0
    assert r_graph(ctx, p25, p75) == pytest.approx(1.25, abs=1e-12)
    assert r_graph(ctx, p25, p25) == pytest.approx(1.25, abs=1e-12)
    assert r_graph(ctx, _vp("0"), _vp("0")) == pytest.approx(1.0, abs=1e-12)
    assert gf.resistance_distance(ctx, p25, p75) == pytest.approx(0.5, abs=1e-12)


def _chain(n_edges: int, length: float, closed: bool):
    """A path, or a cycle when ``closed``, of equal edges with the origin
    "v0000" at one end, and the edge farthest from it."""
    labels = [f"v{i:04d}" for i in range(n_edges + (0 if closed else 1))]
    edges = [
        (f"e{i:04d}", labels[i], labels[(i + 1) % len(labels)], length)
        for i in range(n_edges)
    ]
    far = edges[n_edges // 2 if closed else -1][0]
    return gf.build_graph(labels, edges), far


@pytest.mark.parametrize("length", [1.0, 1000.0])
@pytest.mark.parametrize("gap", [1e-6, 1e-9, 1e-12])
def test_same_edge_pair_far_from_origin_is_exact(length, gap):
    # d_R == d_G on a path, and d (l - d) / l on a cycle of length l.
    for closed in (False, True):
        g, far = _chain(1000, length, closed)
        p, q = _ep(far, 0.3 * length), _ep(far, (0.3 + gap) * length)
        got = gf.resistance_distance(gf.build_resistance_context(g), p, q)
        d = gf.geodesic_distance(g, p, q)
        if closed:
            d = d * (1000 * length - d) / (1000 * length)
        assert abs(got - d) <= 1e-12 * d


@pytest.mark.parametrize("length", [1.0, 1000.0])
@pytest.mark.parametrize("gap", [1e-9, 1e-12])
def test_near_duplicate_pair_far_from_origin_leaves_other_distances_exact(length, gap):
    # The close pair shares its edge with two more points (one gap * l from
    # a vertex) and is matched against points elsewhere on the chain.
    for closed in (False, True):
        g, far = _chain(1000, length, closed)
        pts = [
            _ep(far, 0.3 * length),
            _ep(far, (0.3 + gap) * length),
            _ep(far, 0.7 * length),
            _ep(far, gap * length),
            _ep("e0100", 0.5 * length),
            _vp("v0000"),
        ]
        got = gf.distance_matrix(g, pts, MetricKind.RESISTANCE)
        d = gf.distance_matrix(g, pts, MetricKind.GEODESIC)
        if closed:
            d = d * (1000 * length - d) / (1000 * length)
        off = ~np.eye(len(pts), dtype=bool)
        assert np.max(np.abs(got - d)[off] / d[off]) <= 1e-12


def _across_far_vertex(g, gap: float):
    """Points ``gap * l / 2`` either side of the vertex ``w`` farthest from
    vertex 0 among those with two edges, on its first two edges, ``l`` the
    shorter of them; returns ``w`` and per point its edge and distance to
    ``w``."""
    n = len(g.vertices)
    degree = np.bincount(np.concatenate((g._u, g._v)), minlength=n)
    far = dijkstra(g._weights, indices=0)
    w = int(np.argmax(np.where(degree >= 2, far, -1.0)))
    first, second = np.flatnonzero((g._u == w) | (g._v == w))[:2]
    half = 0.5 * gap * min(g._length[first], g._length[second])
    sides = []
    for k in (first, second):
        e = g.edges[k]
        off = half if g._u[k] == w else e.length - half
        # The distance to w exactly as the point has it.
        sides.append((e, gf.edge_point(e.id, off), off if g._u[k] == w else e.length - off))
    return w, sides


def _block_sum_reference(g, sides) -> float:
    """d_R between the two points of :func:`_across_far_vertex` on a graph
    of bridges and cycles: the sum of the pieces in each block, a route of
    length ``d`` in a cycle of length ``c`` being ``d (c - d) / c``."""
    blocks = gf.block_decomposition(g).blocks
    (e1, _, d1), (e2, _, d2) = sides
    b1, b2 = (next(b for b in blocks if e.id in b.edge_ids) for e in (e1, e2))

    def piece(block, d):
        if block.kind is gf.BlockKind.BRIDGE:
            return d
        c = math.fsum(g.edge(eid).length for eid in block.edge_ids)
        return d * (c - d) / c

    return piece(b1, d1 + d2) if b1 is b2 else piece(b1, d1) + piece(b2, d2)


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["path", "cycle", "grid", "onesum"]),
    size=st.integers(2, 300),
    exponent=st.floats(-12.0, -6.0),
)
@example(seed=0, shape="path", size=300, exponent=-12.0)
@example(seed=0, shape="cycle", size=300, exponent=-12.0)
def test_pairs_across_a_far_vertex_are_exact(seed, shape, size, exponent):
    # Two points either side of a vertex far from the ground, and that
    # vertex: exact to 1e-12 relative at gaps down to 1e-12 l, against
    # block sums on paths, cycles and one-sums and a 40-digit reference on
    # grids.
    rng = np.random.default_rng(seed)
    labels = [f"v{k:03d}" for k in range(size + 1)]
    if shape == "path":
        lengths = rng.uniform(0.5, 2.0, size)
        g = gf.build_graph(labels, [(f"e{k}", labels[k], labels[k + 1], x) for k, x in enumerate(lengths)])
    elif shape == "cycle":
        lengths = random_cycle_lengths(rng, size + 1)
        ring = [(f"e{k}", labels[k], labels[(k + 1) % (size + 1)], x) for k, x in enumerate(lengths)]
        g = gf.build_graph(labels, ring)
    elif shape == "grid":
        g = jittered_grid(rng, 2 + size % 5)
    else:
        g = random_onesum(rng, 2 + size % 11)
    w, sides = _across_far_vertex(g, 10.0**exponent)
    pts = [sides[0][1], sides[1][1], _vp(g.vertices[w])]
    got = gf.distance_matrix(g, pts, MetricKind.RESISTANCE)
    if shape == "grid":
        expected = exact_resistance_matrix(g, pts)
    else:
        (_, _, d1), (_, _, d2) = sides
        expected = np.zeros((3, 3))
        expected[0, 1] = _block_sum_reference(g, sides)
        expected[0, 2] = _block_sum_reference(g, [sides[0], (sides[1][0], None, 0.0)])
        expected[1, 2] = _block_sum_reference(g, [(sides[0][0], None, 0.0), sides[1]])
        expected += expected.T
    off = ~np.eye(3, dtype=bool)
    assert np.max(np.abs(got - expected)[off] / expected[off]) <= 1e-12


def test_resistance_on_triangle_and_square():
    tri = unit_triangle()
    ctx = gf.build_resistance_context(tri)
    assert gf.resistance_distance(ctx, _vp("A"), _vp("B")) == pytest.approx(
        2.0 / 3.0, abs=1e-12
    )
    sq = unit_square()
    ctxs = gf.build_resistance_context(sq)
    assert gf.resistance_distance(ctxs, _vp("A"), _vp("C")) == pytest.approx(
        1.0, abs=1e-12
    )


# -- tree closed form ------------------------------------------------------------


def test_tree_closed_form_examples():
    g = single_edge()
    ctx = gf.build_resistance_context(g)
    assert tree_kernel_closed_form(ctx, _vp("0"), _vp("0")) == 1.0
    assert tree_kernel_closed_form(ctx, _ep("e1", 0.25), _ep("e1", 0.75)) == 1.25


def test_tree_closed_form_matches_field_kernel_on_random_tree():
    rng = np.random.default_rng(17)
    g = random_tree(rng, 12)
    ctx = gf.build_resistance_context(g)
    pts = random_points(rng, g, 20)
    for i, p in enumerate(pts):
        for q in pts[i:]:
            assert tree_kernel_closed_form(ctx, p, q) == pytest.approx(
                r_graph(ctx, p, q), abs=1e-9
            )


# -- effective resistance oracle --------------------------------------------------


def test_oracle_single_resistor():
    g = single_edge()
    assert gf.oracle_effective_resistance(g, _vp("0"), _vp("1")) == pytest.approx(
        1.0, abs=1e-12
    )


def test_oracle_triangle():
    g = unit_triangle()
    assert gf.oracle_effective_resistance(g, _vp("A"), _vp("B")) == pytest.approx(
        2.0 / 3.0, abs=1e-12
    )


def test_oracle_agrees_with_resistance_distance():
    rng = np.random.default_rng(29)
    for _ in range(30):
        g = random_graph(rng, int(rng.integers(5, 13)), int(rng.integers(0, 3)))
        ctx = gf.build_resistance_context(g)
        p, q = random_points(rng, g, 2, vertex_share=0.3)
        assert gf.resistance_distance(ctx, p, q) == pytest.approx(
            gf.oracle_effective_resistance(g, p, q), abs=1e-9
        )


# -- distance matrices -------------------------------------------------------------


def test_distance_matrix_single_point():
    g = single_edge()
    dm = gf.distance_matrix(g, [_vp("0")], MetricKind.GEODESIC)
    assert dm.shape == (1, 1) and dm[0, 0] == 0.0


def test_distance_matrix_path_both_metrics():
    g = path_abc()
    pts = [_vp("A"), _vp("B"), _vp("C")]
    expected = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
    geo = gf.distance_matrix(g, pts, MetricKind.GEODESIC)
    assert np.array_equal(geo, expected)
    res = gf.distance_matrix(g, pts, MetricKind.RESISTANCE)
    assert np.allclose(res, expected, atol=1e-9)


def test_distance_matrix_rejects_duplicates():
    g = single_edge()
    with pytest.raises(gf.DuplicatePointsError):
        gf.distance_matrix(
            g, [_vp("0"), _ep("e1", 0.0)], MetricKind.GEODESIC
        )


def test_matrix_matches_scalar_queries():
    rng = np.random.default_rng(41)
    g = random_graph(rng, 10, 2)
    ctx = gf.build_resistance_context(g)
    pts = random_points(rng, g, 7)
    geo = gf.distance_matrix(g, pts, MetricKind.GEODESIC)
    res = gf.distance_matrix(g, pts, MetricKind.RESISTANCE, ctx=ctx)
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            assert geo[i, j] == pytest.approx(
                gf.geodesic_distance(g, p, q), abs=1e-12
            )
            assert res[i, j] == pytest.approx(
                gf.resistance_distance(ctx, p, q), abs=1e-12
            )


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_vertices=st.integers(2, 10),
    n_chords=st.integers(0, 3),
)
def test_distance_matrix_is_exactly_symmetric(seed, n_vertices, n_chords):
    # _covariance_from_distances reads one triangle only, so both metrics
    # must give d(p, q) and d(q, p) bit for bit, also where several points
    # on one edge take the same-edge closed form.
    rng = np.random.default_rng(seed)
    n_chords = min(n_chords, (n_vertices - 1) * (n_vertices - 2) // 2)
    g = random_graph(rng, n_vertices, n_chords)
    pts = _points_sharing_edges(rng, g)[:-1]
    for kind in MetricKind:
        dm = gf.distance_matrix(g, pts, kind)
        assert np.array_equal(dm, dm.T), kind


# -- metric properties ----------------------------------------------------------


def _metric_axioms(dm: np.ndarray) -> None:
    assert np.array_equal(dm, dm.T)
    assert np.all(np.diag(dm) == 0.0)
    off = dm[~np.eye(dm.shape[0], dtype=bool)]
    assert np.all(off > 0.0)
    m = dm.shape[0]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                assert dm[i, j] <= dm[i, k] + dm[k, j] + 1e-9


def test_metric_axioms_on_random_graphs():
    rng = np.random.default_rng(31)
    for _ in range(4):
        g = random_graph(rng, 9, int(rng.integers(0, 3)))
        pts = random_points(rng, g, 6)
        _metric_axioms(gf.distance_matrix(g, pts, MetricKind.GEODESIC))
        _metric_axioms(gf.distance_matrix(g, pts, MetricKind.RESISTANCE))


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=37)
def test_resistance_below_geodesic_with_tree_equality(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, 14)
    pts = random_points(rng, tree, 10)
    geo = gf.distance_matrix(tree, pts, MetricKind.GEODESIC)
    res = gf.distance_matrix(tree, pts, MetricKind.RESISTANCE)
    assert np.max(np.abs(geo - res)) <= 1e-9

    cyclic = random_graph(rng, 12, 2)
    pts = random_points(rng, cyclic, 10)
    geo = gf.distance_matrix(cyclic, pts, MetricKind.GEODESIC)
    res = gf.distance_matrix(cyclic, pts, MetricKind.RESISTANCE)
    assert np.all(res <= geo + 1e-12)
    assert np.max(geo - res) > 1e-9


@settings(max_examples=300)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=43)
def test_origin_invariance_of_resistance(seed):
    # The origin enters only the covariance, as the variance 1 + d_R(p, o).
    # At two origins, its variogram C_pp + C_qq - 2 C_pq is the one
    # distance matrix, which takes none.
    rng = np.random.default_rng(seed)
    g = random_graph(rng, 10, 2)
    pts = random_points(rng, g, 8)
    dist = gf.distance_matrix(g, pts, MetricKind.RESISTANCE)
    for origin in (g.vertices[0], g.vertices[int(rng.integers(1, len(g.vertices)))]):
        cov = r_graph_matrix(gf.build_resistance_context(g, origin), pts)
        var = np.diag(cov)
        o = gf.vertex_point(origin)
        to_origin = [gf.oracle_effective_resistance(g, p, o) for p in pts]
        assert np.allclose(var, np.add(to_origin, 1.0), rtol=0.0, atol=1e-9)
        variogram = var[:, None] + var - 2.0 * cov
        assert np.max(np.abs(variogram - dist)) <= 1e-13 * np.max(var)


def _remap_after_split(points, edge, offset, left_id, right_id, new_vertex):
    remapped = []
    for p in points:
        if p.is_vertex or p.edge != edge.id:
            remapped.append(p)
        elif p.offset < offset:
            remapped.append(gf.edge_point(left_id, p.offset))
        elif p.offset > offset:
            remapped.append(gf.edge_point(right_id, p.offset - offset))
        else:
            remapped.append(gf.vertex_point(new_vertex))
    return remapped


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=47)
def test_split_invariance_of_both_metrics(seed):
    rng = np.random.default_rng(seed)
    for _ in range(5):
        g = random_graph(rng, 9, int(rng.integers(1, 3)))
        pts = random_points(rng, g, 7)
        e = g.edges[int(rng.integers(0, len(g.edges)))]
        offset = float(rng.uniform(0.3, 0.7)) * e.length
        g2, w = split_edge(g, gf.edge_point(e.id, offset))
        pts2 = _remap_after_split(pts, e, offset, f"{e.id}:a", f"{e.id}:b", w)
        for kind in (MetricKind.GEODESIC, MetricKind.RESISTANCE):
            before = gf.distance_matrix(g, pts, kind)
            after = gf.distance_matrix(g2, pts2, kind)
            assert np.max(np.abs(before - after)) <= 1e-9


def test_onesum_additivity_through_articulation():
    # Two unit triangles glued at A: routes between the halves pass through A.
    g = figure_eight()
    ctx = gf.build_resistance_context(g)
    hub = _vp("A")
    left = [_vp("B"), _ep("bc", 0.4)]
    right = [_vp("D"), _ep("de", 0.7)]
    for p in left:
        for q in right:
            for dist in (
                lambda a, b: gf.geodesic_distance(g, a, b),
                lambda a, b: gf.resistance_distance(ctx, a, b),
            ):
                assert dist(p, q) == pytest.approx(
                    dist(p, hub) + dist(hub, q), abs=1e-9
                )


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=53)
def test_resistance_is_negative_type(seed):
    rng = np.random.default_rng(seed)
    for _ in range(5):
        g = random_graph(rng, 10, int(rng.integers(0, 3)))
        pts = random_points(rng, g, 8)
        dm = gf.distance_matrix(g, pts, MetricKind.RESISTANCE)
        weights = rng.standard_normal(len(pts))
        weights -= weights.mean()
        assert float(weights @ dm @ weights) <= 1e-9


@pytest.mark.parametrize("kind", list(MetricKind))
def test_context_for_wrong_graph_rejected(kind):
    g1 = single_edge()
    g2 = unit_triangle()
    ctx = gf.build_resistance_context(g1)
    with pytest.raises(ValueError):
        gf.distance_matrix(g2, [_vp("A"), _vp("B")], kind, ctx=ctx)
