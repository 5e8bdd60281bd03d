"""Geodesic and resistance metrics, field kernels, and the resistance oracle."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import graphfields as gf
from graphfields import MetricKind
from .helpers import (
    brute_force_point_distance,
    figure_eight,
    path_abc,
    random_graph,
    random_points,
    random_tree,
    single_edge,
    unit_square,
    unit_triangle,
)


def _vp(label):
    return gf.vertex_point(label)


def _ep(edge, offset):
    return gf.edge_point(edge, offset)


# -- relative position ---------------------------------------------------------


def test_relative_position():
    g = path_abc()
    assert gf.relative_position(g, _vp("A")) == 0.0
    assert gf.relative_position(g, _ep("bc", 0.3)) == pytest.approx(0.15, abs=1e-15)
    assert gf.relative_position(g, _ep("bc", 1.5)) == pytest.approx(0.75, abs=1e-15)


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


# -- resistance context ---------------------------------------------------------


def test_single_edge_conductance_matrix():
    ctx = gf.build_resistance_context(single_edge())
    assert ctx.origin == "0"
    assert np.array_equal(ctx.L.toarray(), np.array([[2.0, -1.0], [-1.0, 1.0]]))
    expected_inverse = np.array([[1.0, 1.0], [1.0, 2.0]])
    assert np.allclose(np.linalg.inv(ctx.L.toarray()), expected_inverse, atol=1e-12)


def test_L_strictly_positive_definite_on_random_graphs():
    rng = np.random.default_rng(5)
    for _ in range(8):
        g = random_graph(rng, 12, int(rng.integers(0, 3)))
        ctx = gf.build_resistance_context(g)
        assert np.linalg.eigvalsh(ctx.L.toarray())[0] > 0


def test_context_is_frozen():
    ctx = gf.build_resistance_context(single_edge())
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.origin = "1"


def test_factor_columns_match_dense_inverse():
    rng = np.random.default_rng(9)
    g = random_graph(rng, 10, 2)
    pts = random_points(rng, g, 8)
    ctx = gf.build_resistance_context(g)
    dense = np.linalg.inv(ctx.L.toarray())
    columns = ctx.factor.solve(np.eye(len(g.vertices)))
    assert np.allclose(columns, dense, rtol=0.0, atol=1e-12)
    # The same entries assembled by hand from the dense inverse.
    lo, hi, a = [], [], []
    for p in pts:
        if p.is_vertex:
            lo.append(g.vertex_index(p.vertex))
            hi.append(lo[-1])
            a.append(0.0)
        else:
            e = g.edge(p.edge)
            lo.append(g.vertex_index(e.u))
            hi.append(g.vertex_index(e.v))
            a.append(p.offset / e.length)
    lo, hi, a = np.array(lo), np.array(hi), np.array(a)
    weights = np.zeros((len(pts), len(g.vertices)))
    np.add.at(weights, (np.arange(len(pts)), lo), 1.0 - a)
    np.add.at(weights, (np.arange(len(pts)), hi), a)
    expected_mu = weights @ dense @ weights.T
    got_mu = np.array([[gf.r_mu(ctx, p, q) for q in pts] for p in pts])
    assert np.allclose(got_mu, expected_mu, rtol=0.0, atol=1e-12)


def test_large_tree_resistance_equals_geodesic():
    # Larger than every other fixture: trees must keep d_R == d_G at scale.
    rng = np.random.default_rng(9)
    g = random_tree(rng, 2100)
    pts = random_points(rng, g, 40)
    geo = gf.distance_matrix(g, pts, MetricKind.GEODESIC)
    res = gf.distance_matrix(g, pts, MetricKind.RESISTANCE)
    assert np.max(np.abs(geo - res)) <= 1e-9


# -- field kernels on the single edge -------------------------------------------


def test_field_kernels_single_edge_values():
    g = single_edge()
    ctx = gf.build_resistance_context(g)
    p25, p75 = _ep("e1", 0.25), _ep("e1", 0.75)
    assert gf.r_mu(ctx, p25, p25) == pytest.approx(1.0625, abs=1e-12)
    assert gf.r_mu(ctx, p25, p75) == pytest.approx(1.1875, abs=1e-12)
    assert gf.r_mu(ctx, _vp("0"), _vp("0")) == pytest.approx(1.0, abs=1e-12)
    assert gf.r_edge(g, p25, p75) == 0.0625
    assert gf.r_edge(g, p25, p25) == 0.1875
    assert gf.r_edge(g, _vp("0"), p25) == 0.0
    assert gf.r_edge(g, _vp("0"), _vp("1")) == 0.0
    assert gf.r_graph(ctx, p25, p75) == pytest.approx(1.25, abs=1e-12)
    assert gf.r_graph(ctx, p25, p25) == pytest.approx(1.25, abs=1e-12)
    assert gf.r_graph(ctx, _vp("0"), _vp("0")) == pytest.approx(1.0, abs=1e-12)
    assert gf.resistance_distance(ctx, p25, p75) == pytest.approx(0.5, abs=1e-12)


def test_r_edge_zero_across_edges():
    g = unit_square()
    assert gf.r_edge(g, _ep("ab", 0.5), _ep("bc", 0.5)) == 0.0


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
    assert gf.tree_kernel_closed_form(ctx, _vp("0"), _vp("0")) == 1.0
    assert gf.tree_kernel_closed_form(ctx, _ep("e1", 0.25), _ep("e1", 0.75)) == 1.25


def test_tree_closed_form_matches_field_kernel_on_random_tree():
    rng = np.random.default_rng(17)
    g = random_tree(rng, 12)
    ctx = gf.build_resistance_context(g)
    pts = random_points(rng, g, 20)
    for i, p in enumerate(pts):
        for q in pts[i:]:
            assert gf.tree_kernel_closed_form(ctx, p, q) == pytest.approx(
                gf.r_graph(ctx, p, q), abs=1e-9
            )


def test_tree_closed_form_requires_tree():
    ctx = gf.build_resistance_context(unit_triangle())
    with pytest.raises(gf.NotATreeError):
        gf.tree_kernel_closed_form(ctx, _vp("A"), _vp("B"))


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


def test_resistance_below_geodesic_with_tree_equality():
    rng = np.random.default_rng(37)
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


def test_origin_invariance_of_resistance():
    rng = np.random.default_rng(43)
    g = random_graph(rng, 10, 2)
    pts = random_points(rng, g, 8)
    first = gf.distance_matrix(g, pts, MetricKind.RESISTANCE, origin=g.vertices[0])
    last = gf.distance_matrix(g, pts, MetricKind.RESISTANCE, origin=g.vertices[-1])
    assert np.max(np.abs(first - last)) <= 1e-9


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


def test_split_invariance_of_both_metrics():
    rng = np.random.default_rng(47)
    for _ in range(5):
        g = random_graph(rng, 9, int(rng.integers(1, 3)))
        pts = random_points(rng, g, 7)
        e = g.edges[int(rng.integers(0, len(g.edges)))]
        offset = float(rng.uniform(0.3, 0.7)) * e.length
        g2, w = gf.split_edge(g, gf.edge_point(e.id, offset))
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


def test_resistance_is_negative_type():
    rng = np.random.default_rng(53)
    for _ in range(5):
        g = random_graph(rng, 10, int(rng.integers(0, 3)))
        pts = random_points(rng, g, 8)
        dm = gf.distance_matrix(g, pts, MetricKind.RESISTANCE)
        weights = rng.standard_normal(len(pts))
        weights -= weights.mean()
        assert float(weights @ dm @ weights) <= 1e-9


def test_context_for_wrong_graph_rejected():
    g1 = single_edge()
    g2 = unit_triangle()
    ctx = gf.build_resistance_context(g1)
    with pytest.raises(ValueError):
        gf.distance_matrix(g2, [_vp("A"), _vp("B")], MetricKind.RESISTANCE, ctx=ctx)
