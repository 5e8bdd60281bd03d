"""Sampling of Gaussian fields and empirical variograms."""

from __future__ import annotations

import hashlib
import warnings

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve_triangular

import graphfields as gf
from graphfields import MetricKind
from graphfields.graph import _canonicalize
from graphfields.metrics import canonical_points
from graphfields.simulate import _stream
from .helpers import (
    dense_canonical_covariance,
    figure_eight,
    jittered_grid,
    r_graph_matrix,
    random_graph,
    random_points,
    single_edge,
    two_pass_variogram,
    unit_square,
)


def certified(values, labels=None) -> gf.CovarianceMatrix:
    """``values`` as a covariance matrix with its eigen-certificate."""
    values = np.asarray(values, dtype=float)
    if labels is None:
        labels = tuple(str(k) for k in range(len(values)))
    return gf.CovarianceMatrix(labels, values, gf.psd_check(values))


def test_identity_covariance_monte_carlo():
    sample = gf.sample_from_covariance(certified(np.eye(4)), 10000, seed=7)
    empirical = np.cov(sample.draws, rowvar=False)
    assert np.max(np.abs(empirical - np.eye(4))) < 0.05


def test_scalar_covariance_draws_are_standard_normal():
    sample = gf.sample_from_covariance(certified([[1.0]]), 10000, seed=3)
    assert abs(float(sample.draws.mean())) < 0.03
    assert float(sample.draws.std()) == pytest.approx(1.0, abs=0.05)


def test_fixed_seed_is_bitwise_reproducible():
    a = gf.sample_from_covariance(certified(np.eye(3)), 17, seed=42)
    b = gf.sample_from_covariance(certified(np.eye(3)), 17, seed=42)
    assert a.draws.tobytes() == b.draws.tobytes()
    c = gf.sample_from_covariance(certified(np.eye(3)), 17, seed=43)
    assert a.draws.tobytes() != c.draws.tobytes()


def test_draws_of_an_empty_covariance_have_no_columns():
    # As the canonical sampler's draws at no points: n rows of no values.
    g = unit_square()
    spec = gf.KernelSpec(gf.KernelFamily.POWER_EXPONENTIAL, 1.0, 1.0)
    cov = gf.covariance_matrix(g, [], spec, MetricKind.RESISTANCE)
    sample = gf.sample_from_covariance(cov, 5, seed=1)
    canonical = gf.sample_canonical_field(gf.build_resistance_context(g), [], 5, seed=1)
    assert sample.draws.shape == canonical.draws.shape == (5, 0)
    assert sample.labels == canonical.labels == () and sample.jitter == 0.0


def test_not_psd_rejected():
    with pytest.raises(gf.NotPSDError):
        gf.sample_from_covariance(certified([[1.0, 2.0], [2.0, 1.0]]), 5, seed=0)


def test_sampler_reads_the_certificate_not_the_values():
    # Cholesky would factor these values; the certificate says not PSD.
    cov = gf.CovarianceMatrix(("a", "b"), np.eye(2), gf.PsdReport(-0.5, 1.0, False))
    with pytest.raises(gf.NotPSDError, match=r"^covariance is not PSD \(min eigenvalue -0.5\)$"):
        gf.sample_from_covariance(cov, 5, seed=0)


def test_singular_psd_gets_reported_jitter():
    cov = np.ones((2, 2))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sample = gf.sample_from_covariance(certified(cov), 1000, seed=1)
    assert sample.jitter > 0.0
    assert sample.jitter <= 1e-10 * cov.diagonal().max()
    assert any("jitter" in str(w.message) for w in caught)
    # perfectly correlated components
    assert np.max(np.abs(sample.draws[:, 0] - sample.draws[:, 1])) < 1e-4


def test_canonical_vertex_sample_covariance_matches_inverse():
    g = figure_eight()
    ctx = gf.build_resistance_context(g)
    pts = [gf.vertex_point(v) for v in g.vertices]
    n = 20000
    sample = gf.sample_canonical_field(ctx, pts, n, seed=5)
    empirical = np.cov(sample.draws, rowvar=False)
    target, _ = dense_canonical_covariance(g, ctx.origin, pts)
    sd = np.sqrt(
        (np.outer(np.diag(target), np.diag(target)) + target**2) / n
    )
    assert np.all(np.abs(empirical - target) <= 3.0 * sd + 1e-12)


def test_canonical_single_edge_point_covariance():
    g = single_edge()
    ctx = gf.build_resistance_context(g)
    pts = [gf.edge_point("e1", 0.25), gf.edge_point("e1", 0.75)]
    sample = gf.sample_canonical_field(ctx, pts, 20000, seed=9)
    empirical = np.cov(sample.draws, rowvar=False)
    target = np.array([[1.25, 1.25], [1.25, 1.75]])
    assert np.max(np.abs(empirical - target)) < 0.06


def test_constructive_and_covariance_routes_agree():
    g = unit_square()
    ctx = gf.build_resistance_context(g)
    pts = [
        gf.vertex_point("A"),
        gf.vertex_point("C"),
        gf.edge_point("ab", 0.4),
        gf.edge_point("cd", 0.6),
    ]
    n = 20000
    constructive = gf.sample_canonical_field(ctx, pts, n, seed=13)
    target = r_graph_matrix(ctx, [_canonicalize(g, p) for p in pts])
    direct = gf.sample_from_covariance(
        certified(target, constructive.labels), n, seed=14
    )
    cov_a = np.cov(constructive.draws, rowvar=False)
    cov_b = np.cov(direct.draws, rowvar=False)
    sd = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / n)
    assert np.all(np.abs(cov_a - target) <= 3.0 * sd + 1e-12)
    assert np.all(np.abs(cov_b - target) <= 3.0 * sd + 1e-12)


def test_canonical_field_is_seed_deterministic():
    g = figure_eight()
    ctx = gf.build_resistance_context(g)
    pts = [gf.vertex_point("A"), gf.edge_point("bc", 0.3), gf.edge_point("de", 0.9)]
    a = gf.sample_canonical_field(ctx, pts, 50, seed=77)
    b = gf.sample_canonical_field(ctx, pts, 50, seed=77)
    assert a.draws.tobytes() == b.draws.tobytes()
    assert a.labels == b.labels


def _per_block_draws(ctx, pts, n, seed):
    """Canonical draws with ``F^T`` and ``sqrt(D)`` taken from the graph's
    factor again for every block of 64 draws, and the bridges drawn one
    edge and one point at a time."""
    g = ctx.graph
    lu = gf.metrics._conductance_lu(g)
    rng = _stream(seed, n)
    io = g.vertex_index(ctx.origin)
    # The distinct interior points by edge position, then offset.
    cuts = sorted({(g._edge_pos[p.edge], p.offset) for p in pts if not p.is_vertex})
    blocks = []
    for start in range(0, n, 64):
        k = min(64, n - start)
        white = rng.standard_normal((k, lu.shape[0])).T
        white /= np.sqrt(lu.U.diagonal())[:, None]
        x = spsolve_triangular(lu.L.T, white, lower=False, unit_diagonal=True, overwrite_b=True)
        z = x[lu.perm_r]
        z = z - z[io] + rng.standard_normal(k)
        normals = rng.standard_normal((k, len(cuts)))
        bridge, prev = {}, (None, 0.0)
        for j, (pos, s) in enumerate(cuts):
            length = float(g._length[pos])
            s_prev = prev[1] if prev[0] == pos else 0.0
            sd = np.sqrt((s - s_prev) * (length - s) / (length - s_prev))
            b = sd * normals[:, j]
            if prev[0] == pos:
                b += (length - s) / (length - s_prev) * bridge[prev]
            bridge[pos, s], prev = b, (pos, s)
        block = np.empty((k, len(pts)))
        for c, p in enumerate(pts):
            if p.is_vertex:
                i = g.vertex_index(p.vertex)
                block[:, c] = 1.0 * z[i] + 0.0 * z[i] + 0.0
                continue
            e = g.edge(p.edge)
            u, v = g.vertex_index(e.u), g.vertex_index(e.v)
            w_lo, w_hi = (e.length - p.offset) / e.length, p.offset / e.length
            block[:, c] = w_lo * z[u] + w_hi * z[v] + bridge[g._edge_pos[p.edge], p.offset]
        blocks.append(block)
    return np.vstack(blocks)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 2000])
def test_canonical_draws_equal_per_block_whitening(n):
    # Around the block size of 64 and over many blocks, with several points
    # on one edge and a repeated point.
    rng = np.random.default_rng(8)
    g = jittered_grid(rng, 7)
    crowded = g.edges[17]
    pts = random_points(rng, g, 26)
    pts += [gf.edge_point(crowded.id, f * crowded.length) for f in (0.9, 0.2, 0.55)]
    pts = canonical_points(g, pts + [pts[3]])
    ctx = gf.build_resistance_context(g, g.vertices[5])
    got = gf.sample_canonical_field(ctx, pts, n, seed=21).draws
    expected = _per_block_draws(ctx, pts, n, seed=21)
    assert got.shape == (n, 30)
    assert hashlib.sha256(got.tobytes()).digest() == hashlib.sha256(expected.tobytes()).digest()


def test_canonical_draws_refuse_an_edge_whose_conductance_overflows():
    # 1 / 5e-324 overflows; the edge is named before anything is divided
    # or drawn, with no RuntimeWarning (an error in this suite).
    g = gf.build_graph(["a", "b", "c"], [("ab", "a", "b", 5e-324), ("bc", "b", "c", 1.0)])
    ctx = gf.build_resistance_context(g)
    with pytest.raises(gf.FactorizationFailedError, match="'ab' is too short") as info:
        gf.sample_canonical_field(ctx, [gf.vertex_point("c"), gf.edge_point("bc", 0.5)], 5, 1)
    assert info.value.detail == {"edge_id": "ab"}


def test_canonical_draws_leave_the_factor_of_the_graph_as_they_found_it():
    # Every reader of the graph shares its factor of L.  The unit factor's
    # row indices come unsorted here, and a draw that solved against it in
    # place would sort them and its values, under a concurrent reader too.
    g = jittered_grid(np.random.default_rng(5), 12)
    lu = gf.metrics._conductance_lu(g)
    before = [a.copy() for a in (lu.L.data, lu.L.indices, lu.L.indptr)]
    assert not lu.L.has_sorted_indices
    pts = [gf.vertex_point(v) for v in g.vertices[:5]]
    gf.sample_canonical_field(gf.build_resistance_context(g), pts, 70, seed=3)
    for old, new in zip(before, (lu.L.data, lu.L.indices, lu.L.indptr)):
        assert np.array_equal(old, new)


# Sixty checks at 3 sigma fail together about one time in seven, and a
# derandomized test draws new examples whenever its source changes.  This
# seed is the digest of the test's source before its covariance reference
# moved to tests/helpers.py, so it draws the same twenty examples as then.
@hypothesis.seed(0xF2A242812F48D80510AD9865E7AEB797FBC8A007F5164011719BCAD8934D2D26E5F90AB67D76BC5D85B1E82EED8A53D8)
@settings(max_examples=20)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_vertices=st.integers(4, 9),
    n_chords=st.integers(0, 2),
)
def test_canonical_draws_match_the_covariance(seed, n_vertices, n_chords):
    # Many points on one edge, among them a pair 1e-9 l apart, a repeated
    # point and an origin other than vertex 0.  The draws are zero-mean, so
    # the mean square of a projection a estimates a^T C a with a standard
    # error of sqrt(2 / n) a^T C a.
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_vertices, n_chords)
    e = g.edges[int(rng.integers(0, len(g.edges)))]
    offsets = [*rng.uniform(0.02, 0.98, size=6), 0.4, 0.4 + 1e-9]
    crowded = [gf.edge_point(e.id, float(f) * e.length) for f in offsets]
    pts = random_points(rng, g, 4) + crowded
    pts = canonical_points(g, pts + [pts[int(rng.integers(0, len(pts)))]])
    ctx = gf.build_resistance_context(g, g.vertices[int(rng.integers(1, n_vertices))])
    n = 4000
    draws = gf.sample_canonical_field(ctx, pts, n, seed=seed).draws
    assert draws[:, -1].tobytes() == draws[:, pts.index(pts[-1])].tobytes()
    cov = r_graph_matrix(ctx, pts)
    on_edge = np.zeros(len(pts))
    on_edge[4:12] = rng.standard_normal(8)
    on_edge[4:12] -= on_edge[4:12].mean()
    pair = np.zeros(len(pts))
    pair[[10, 11]] = 1.0, -1.0
    for a in (rng.standard_normal(len(pts)), on_edge, pair):
        expected = a @ cov @ a
        got = np.mean((draws @ a) ** 2)
        assert abs(got - expected) <= 3.0 * np.sqrt(2.0 / n) * expected


def test_stream_matches_spawned_child():
    for seed in (0, 1, 77, 2**40):
        child = np.random.SeedSequence(seed).spawn(1)[0]
        expected = np.random.Generator(np.random.Philox(child)).standard_normal(64)
        assert _stream(seed, 64).standard_normal(64).tobytes() == expected.tobytes()


def test_variogram_diagonal_is_zero_and_needs_two_draws():
    g = single_edge()
    ctx = gf.build_resistance_context(g)
    pts = [gf.vertex_point("0"), gf.edge_point("e1", 0.5)]
    sample = gf.sample_canonical_field(ctx, pts, 100, seed=2)
    vario = gf.empirical_variogram(sample)
    assert np.all(np.diag(vario) == 0.0)
    one = gf.sample_canonical_field(ctx, pts, 1, seed=2)
    with pytest.raises(gf.TooFewSamplesError):
        gf.empirical_variogram(one)


def test_variogram_estimates_resistance_distance():
    g = unit_square()
    ctx = gf.build_resistance_context(g)
    pts = [gf.vertex_point(v) for v in "ABCD"] + [gf.edge_point("ab", 0.5)]
    sample = gf.sample_canonical_field(ctx, pts, 20000, seed=19)
    vario = gf.empirical_variogram(sample)
    dr = gf.distance_matrix(g, pts, MetricKind.RESISTANCE, ctx=ctx)
    mask = dr >= 0.1
    rel = np.abs(vario[mask] - dr[mask]) / dr[mask]
    assert rel.max() <= 0.05


def test_variogram_single_edge_pair_value():
    g = single_edge()
    ctx = gf.build_resistance_context(g)
    pts = [gf.edge_point("e1", 0.25), gf.edge_point("e1", 0.75)]
    sample = gf.sample_canonical_field(ctx, pts, 20000, seed=23)
    vario = gf.empirical_variogram(sample)
    assert vario[0, 1] == pytest.approx(0.5, rel=0.05)


@settings(max_examples=25)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_vertices=st.integers(4, 9),
    n_chords=st.integers(0, 2),
    n=st.sampled_from([2, 3, 63, 64, 65, 200, 1000]),
)
def test_variogram_matches_a_two_pass_reference(seed, n_vertices, n_chords, n):
    # The one-pass block update against np.cov of the same draws, with an
    # origin other than vertex 0 and a pair 1e-9 l apart, which is summed
    # directly.
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_vertices, n_chords)
    pts = random_points(rng, g, int(rng.integers(1, 40)))
    e = g.edges[int(rng.integers(0, len(g.edges)))]
    pts += [gf.edge_point(e.id, 0.5 * e.length), gf.edge_point(e.id, (0.5 + 1e-9) * e.length)]
    ctx = gf.build_resistance_context(g, g.vertices[int(rng.integers(0, len(g.vertices)))])
    sample = gf.sample_canonical_field(ctx, pts, n, seed)
    reference = two_pass_variogram(sample.draws)
    largest = np.max(np.var(sample.draws, axis=0, ddof=1))
    assert np.max(np.abs(gf.empirical_variogram(sample) - reference)) <= 1e-12 * largest


def test_variogram_of_near_points_far_from_the_origin_is_their_difference_variance():
    # Two points 1e-12 apart on the far edge of a chain of 101 unit edges:
    # a_ii + a_jj - 2 a_ij of their variances near 101 would lose about
    # 6 % here, so the pair's entry is the variance of Z_i - Z_j itself.
    labels = [str(k) for k in range(102)]
    g = gf.build_graph(labels, [(f"e{k}", str(k), str(k + 1), 1.0) for k in range(101)])
    ctx = gf.build_resistance_context(g, "0")
    pts = [gf.edge_point("e100", 0.5), gf.edge_point("e100", 0.5 + 1e-12)]
    sample = gf.sample_canonical_field(ctx, pts, 20000, seed=7)
    expected = np.var(sample.draws[:, 0] - sample.draws[:, 1], ddof=1)
    got = gf.empirical_variogram(sample)
    assert got[0, 1] == got[1, 0] == pytest.approx(expected, rel=1e-9)
    assert got[0, 1] == pytest.approx(1e-12, rel=0.05)


def test_draw_count_validation():
    with pytest.raises(gf.TooFewSamplesError):
        gf.sample_from_covariance(certified(np.eye(2)), 0, seed=1)
    g = single_edge()
    ctx = gf.build_resistance_context(g)
    with pytest.raises(gf.TooFewSamplesError):
        gf.sample_canonical_field(ctx, [gf.vertex_point("0")], 0, seed=1)


@pytest.mark.parametrize("seed", [-1, -(2**70), 1.0, 1.5, True, False, "1", None])
def test_samplers_refuse_a_seed_that_is_not_a_non_negative_integer(seed):
    ctx = gf.build_resistance_context(single_edge())
    for sample in (
        lambda: gf.sample_from_covariance(certified(np.eye(2)), 5, seed=seed),
        lambda: gf.sample_canonical_field(ctx, [gf.edge_point("e1", 0.5)], 5, seed=seed),
    ):
        with pytest.raises(gf.ParamOutOfRangeError) as caught:
            sample()
        assert caught.value.field == "seed"


def test_samplers_take_numpy_integer_seeds_and_check_the_draw_count_first():
    cov = certified(np.eye(2))
    ctx = gf.build_resistance_context(single_edge())
    pts = [gf.edge_point("e1", 0.5)]
    for seed in (0, 2**40):
        for sample in (
            lambda s: gf.sample_from_covariance(cov, 3, seed=s),
            lambda s: gf.sample_canonical_field(ctx, pts, 3, seed=s),
        ):
            assert sample(np.int64(seed)).draws.tobytes() == sample(seed).draws.tobytes()
    with pytest.raises(gf.TooFewSamplesError):
        gf.sample_from_covariance(cov, 0, seed=-1)
    with pytest.raises(gf.TooFewSamplesError):
        gf.sample_canonical_field(ctx, pts, 0, seed=-1)
