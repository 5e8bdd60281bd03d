"""Radial families, PSD certification, witnesses, and star restrictions."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphfields as gf
from graphfields import KernelFamily, KernelSpec, MetricKind, kernels
from .helpers import (
    embedding_gram,
    path_abc,
    random_graph,
    random_onesum,
    random_points,
    random_tree,
    single_edge,
    unit_star,
)

IN_RANGE_SPECS = [
    KernelSpec(KernelFamily.POWER_EXPONENTIAL, 1.0, 1.0),
    KernelSpec(KernelFamily.POWER_EXPONENTIAL, 0.5, 0.6),
    KernelSpec(KernelFamily.MATERN, 0.5, 1.0),
    KernelSpec(KernelFamily.MATERN, 0.25, 2.0),
    KernelSpec(KernelFamily.GENERALIZED_CAUCHY, 1.0, 1.0, 1.0),
    KernelSpec(KernelFamily.GENERALIZED_CAUCHY, 0.5, 2.0, 0.3),
    KernelSpec(KernelFamily.DAGUM, 1.0, 1.0, 1.0),
    KernelSpec(KernelFamily.DAGUM, 0.7, 2.0, 0.5),
]


# -- parameter validation ------------------------------------------------------


def test_validate_params_examples():
    KernelSpec(KernelFamily.POWER_EXPONENTIAL, 1.0, 2.0)
    with pytest.raises(gf.ParamOutOfRangeError) as info:
        KernelSpec(KernelFamily.MATERN, 0.7, 1.0)
    assert info.value.field == "alpha"
    with pytest.raises(gf.ParamOutOfRangeError):
        KernelSpec(KernelFamily.DAGUM, 1.0, 1.0, 1.5)


def test_validate_params_edges():
    with pytest.raises(gf.ParamOutOfRangeError):
        KernelSpec(KernelFamily.POWER_EXPONENTIAL, 1.2, 1.0)
    with pytest.raises(gf.ParamOutOfRangeError):
        KernelSpec(KernelFamily.POWER_EXPONENTIAL, 1.0, 0.0)
    with pytest.raises(gf.ParamOutOfRangeError):
        KernelSpec(KernelFamily.GENERALIZED_CAUCHY, 1.0, 1.0)
    with pytest.raises(gf.ParamOutOfRangeError):
        KernelSpec(KernelFamily.POWER_EXPONENTIAL, 1.0, 1.0, 0.5)
    with pytest.raises(gf.ParamOutOfRangeError):
        KernelSpec(KernelFamily.DAGUM, 1.0, 1.0, 0.0)


def _in_range(family, alpha, beta, xi) -> bool:
    """The validity ranges written out independently of KernelSpec."""
    if not all(math.isfinite(x) for x in (alpha, beta, xi) if x is not None):
        return False
    alpha_max = 0.5 if family is KernelFamily.MATERN else 1.0
    if not (beta > 0 and 0 < alpha <= alpha_max):
        return False
    if family in (KernelFamily.POWER_EXPONENTIAL, KernelFamily.MATERN):
        return xi is None
    if family is KernelFamily.GENERALIZED_CAUCHY:
        return xi is not None and xi > 0
    return xi is not None and 0 < xi <= 1


_PARAM = st.floats(-1.0, 2.0) | st.sampled_from([0.5, 1.0, math.inf, math.nan])


@settings(max_examples=400)
@given(
    family=st.sampled_from(list(KernelFamily)),
    as_text=st.booleans(),
    alpha=_PARAM,
    beta=_PARAM,
    xi=st.none() | _PARAM,
)
def test_spec_constructs_exactly_in_range(family, as_text, alpha, beta, xi):
    name = family.value if as_text else family
    if _in_range(family, alpha, beta, xi):
        spec = KernelSpec(name, alpha, beta, xi)
        assert spec.family is family
        assert gf.radial_profile(spec, 0.0) == 1.0
    else:
        with pytest.raises(gf.ParamOutOfRangeError):
            KernelSpec(name, alpha, beta, xi)


# -- radial profiles ------------------------------------------------------------


def test_all_families_are_one_at_zero():
    for spec in IN_RANGE_SPECS:
        assert gf.radial_profile(spec, 0.0) == 1.0


def test_power_exponential_halves_at_log_two():
    spec = KernelSpec(KernelFamily.POWER_EXPONENTIAL, 1.0, 1.0)
    assert gf.radial_profile(spec, math.log(2.0)) == pytest.approx(0.5, abs=1e-15)


def test_matern_half_matches_exponential():
    t = np.linspace(0.005, 10.0, 100)
    for beta in (0.5, 1.0, 2.0):
        matern = gf.radial_profile(KernelSpec(KernelFamily.MATERN, 0.5, beta), t)
        assert np.max(np.abs(matern - np.exp(-beta * t))) <= 1e-10


def test_dagum_value():
    spec = KernelSpec(KernelFamily.DAGUM, 1.0, 1.0, 1.0)
    assert gf.radial_profile(spec, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_profiles_strictly_decreasing_and_positive():
    t = np.linspace(0.0, 12.0, 400)
    for spec in IN_RANGE_SPECS:
        values = gf.radial_profile(spec, t)
        assert np.all(values > 0.0)
        assert np.all(np.diff(values) < 0.0)
        assert np.all(values <= 1.0)


def test_profiles_reject_negative_distance_and_bad_spec():
    with pytest.raises(ValueError):
        gf.radial_profile(KernelSpec(KernelFamily.POWER_EXPONENTIAL, 1.0, 1.0), -0.5)
    with pytest.raises(gf.ParamOutOfRangeError):
        gf.radial_profile(KernelSpec(KernelFamily.MATERN, 0.9, 1.0), 1.0)


# -- covariance matrices ----------------------------------------------------------


def test_covariance_single_point():
    g = single_edge()
    cm = gf.covariance_matrix(
        g,
        [gf.vertex_point("0")],
        KernelSpec(KernelFamily.POWER_EXPONENTIAL, 1.0, 1.0),
        MetricKind.GEODESIC,
    )
    assert np.array_equal(cm.values, np.array([[1.0]]))
    assert cm.psd_certificate.is_psd


def test_covariance_path_exponential_geodesic():
    g = path_abc()
    cm = gf.covariance_matrix(
        g,
        [gf.vertex_point(v) for v in "ABC"],
        KernelSpec(KernelFamily.POWER_EXPONENTIAL, 1.0, 1.0),
        MetricKind.GEODESIC,
    )
    expected = np.exp(-np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]]))
    np.fill_diagonal(expected, 1.0)
    assert np.array_equal(cm.values, expected)
    assert cm.labels == ("A", "B", "C")


def test_covariance_random_graph_resistance_is_psd():
    rng = np.random.default_rng(61)
    g = random_graph(rng, 12, 3)
    pts = random_points(rng, g, 25)
    for spec in IN_RANGE_SPECS:
        cm = gf.covariance_matrix(g, pts, spec, MetricKind.RESISTANCE)
        assert cm.psd_certificate.is_psd, (spec, cm.psd_certificate)


def test_covariance_min_separation_guard():
    g = single_edge()
    pts = [gf.edge_point("e1", 0.5), gf.edge_point("e1", 0.5 + 1e-13)]
    with pytest.raises(gf.DuplicatePointsError):
        gf.covariance_matrix(
            g,
            pts,
            KernelSpec(KernelFamily.POWER_EXPONENTIAL, 1.0, 1.0),
            MetricKind.GEODESIC,
            min_separation=1e-12,
        )


def test_covariance_from_distances_reads_upper_triangle_only():
    # Three row blocks; a negative distance below the diagonal would raise
    # if it were read.
    x = np.random.default_rng(7).uniform(0.0, 5.0, size=2 * kernels._ROW_BLOCK + 6)
    dm = np.abs(x[:, None] - x[None, :])
    upper = dm.copy()
    upper[np.tril_indices(len(x), -1)] = -1.0
    for spec in IN_RANGE_SPECS:
        cov = gf.covariance_from_distances(upper, spec)
        assert np.array_equal(cov, cov.T)
        assert np.array_equal(cov, gf.covariance_from_distances(dm, spec))


def test_covariance_from_distances_rejects_non_square():
    for shape in ((2, 3), (4,), (2, 2, 2)):
        with pytest.raises(ValueError):
            gf.covariance_from_distances(np.zeros(shape), IN_RANGE_SPECS[0])


@pytest.mark.parametrize("kind", list(MetricKind))
def test_covariance_matrix_equals_entrywise_profile_across_row_blocks(kind):
    # Sizes on both sides of the first row blocks of the upper triangle.
    block = kernels._ROW_BLOCK
    sizes = sorted({1, 2, 63, 64, 65, 130, block - 1, block, block + 1})
    rng = np.random.default_rng(19)
    g = random_graph(rng, 30, 5)
    pts = random_points(rng, g, max(sizes), vertex_share=0.2)
    for m in sizes:
        dm = gf.distance_matrix(g, pts[:m], kind)
        for spec in IN_RANGE_SPECS[1::2]:
            expected = gf.radial_profile(spec, dm)
            np.fill_diagonal(expected, 1.0)
            cov = gf.covariance_matrix(g, pts[:m], spec, kind)
            assert np.array_equal(cov.values, expected), (m, spec)


def test_matern_covariance_peaks_below_two_matrices():
    # Per row block, the temporaries stay far below one m x m matrix
    # beside the result.
    m = 1000
    x = np.random.default_rng(3).uniform(0.0, 10.0, size=m)
    dm = np.abs(x[:, None] - x[None, :])
    tracemalloc.start()
    try:
        cov = gf.covariance_from_distances(dm, KernelSpec(KernelFamily.MATERN, 0.25, 2.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * m * m * 8
    assert cov.shape == (m, m) and np.all(np.diag(cov) == 1.0)


# -- psd_check ---------------------------------------------------------------------


def test_psd_check_identity():
    report = gf.psd_check(np.eye(3))
    assert report.is_psd and report.min_eig == pytest.approx(1.0)


def test_psd_check_indefinite():
    report = gf.psd_check(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert not report.is_psd
    assert report.min_eig == pytest.approx(-1.0, abs=1e-12)
    assert report.max_eig == pytest.approx(3.0, abs=1e-12)


def test_psd_check_zero_boundary():
    report = gf.psd_check(np.array([[0.0]]))
    assert report.is_psd and report.min_eig == 0.0


def test_psd_check_rejects_non_finite():
    with pytest.raises(gf.NonFiniteError):
        gf.psd_check(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_psd_check_rejects_empty_and_non_square():
    for shape in ((0, 0), (2, 3), (4,)):
        with pytest.raises(ValueError):
            gf.psd_check(np.zeros(shape))


def test_psd_check_symmetrizes():
    asym = np.array([[1.0, 0.2], [0.0, 1.0]])
    report = gf.psd_check(asym)
    assert report.is_psd
    assert report.max_eig == pytest.approx(1.1, abs=1e-12)


@pytest.mark.parametrize("rel_tol", [float("nan"), -5.0, -1e-300, float("inf")])
def test_psd_check_rejects_band_that_is_not_finite_and_nonnegative(rel_tol):
    # A NaN or negative band used to report this positive definite matrix
    # (min_eig 0.632) as not PSD.
    positive_definite = np.array([[1.0, math.exp(-0.5)], [math.exp(-0.5), 1.0]])
    with pytest.raises(gf.ParamOutOfRangeError) as info:
        gf.psd_check(positive_definite, rel_tol)
    assert info.value.field == "rel_tol"
    assert gf.psd_check(positive_definite, 0.0).is_psd


# -- embedding gram -----------------------------------------------------------------


def test_embedding_gram_resistance_always_psd():
    rng = np.random.default_rng(67)
    for _ in range(5):
        g = random_graph(rng, 10, int(rng.integers(0, 4)))
        pts = random_points(rng, g, 8)
        gram = embedding_gram(g, pts, 0, MetricKind.RESISTANCE)
        assert gf.psd_check(gram).is_psd


def test_embedding_gram_tree_geodesic_equals_resistance():
    rng = np.random.default_rng(71)
    g = random_tree(rng, 10)
    pts = random_points(rng, g, 8)
    geo = embedding_gram(g, pts, 2, MetricKind.GEODESIC)
    res = embedding_gram(g, pts, 2, MetricKind.RESISTANCE)
    assert gf.psd_check(geo).is_psd
    assert np.allclose(geo, res, atol=1e-9)


def test_embedding_gram_theta_config_not_psd():
    g, pts = gf.theta_witness_graph(0.5, 1.0)
    gram = embedding_gram(g, pts, 0, MetricKind.GEODESIC)
    assert not gf.psd_check(gram).is_psd


# -- forbidden certificate ------------------------------------------------------------


def test_witness_distances_realize_stated_matrix():
    rng = np.random.default_rng(73)
    for _ in range(10):
        t = float(rng.uniform(0.05, 0.5))
        r = float(rng.uniform(t, 1.0))
        g, pts = gf.theta_witness_graph(t, r)
        dm = gf.distance_matrix(g, pts, MetricKind.GEODESIC)
        stated = np.array(
            [
                [0, t, 1, r + 1, 1, t + 1],
                [t, 0, 1 - t, r - t + 1, t + 1, 1],
                [1, 1 - t, 0, r, 2 * t, t],
                [r + 1, r - t + 1, r, 0, r, r + t],
                [1, t + 1, 2 * t, r, 0, t],
                [t + 1, 1, t, r + t, t, 0],
            ]
        )
        assert np.allclose(dm, stated, atol=1e-12)


def test_forbidden_certificate_quadratic_form_values():
    w = gf.forbidden_certificate(0.5, 1.0)
    assert w.quadratic_form == -0.25
    assert w.xi_value == 0.5
    w2 = gf.forbidden_certificate(0.25, 1.0)
    assert w2.quadratic_form == pytest.approx(-0.0625, abs=1e-15)


def test_forbidden_certificate_negative_for_all_valid_parameters():
    rng = np.random.default_rng(79)
    for _ in range(10):
        t = float(rng.uniform(0.05, 0.5))
        r = float(rng.uniform(t, 1.0))
        w = gf.forbidden_certificate(t, r)
        assert w.quadratic_form == pytest.approx(-t * t / r, abs=1e-12)
        assert w.quadratic_form < 0


def test_forbidden_certificate_beta_scan_finds_failure():
    w = gf.forbidden_certificate(0.5, 1.0)
    assert w.beta_found is not None
    assert w.negative_eigenvalue is not None and w.negative_eigenvalue < -1e-8


def test_forbidden_certificate_rejects_bad_parameters():
    for t, r in [(0.0, 1.0), (0.6, 1.0), (0.5, 0.0), (0.5, 1.5), (0.5, 0.4)]:
        with pytest.raises(gf.ParamOutOfRangeError):
            gf.forbidden_certificate(t, r)


# -- smoothness bound and star inequalities --------------------------------------------


def test_smoothness_bound_values():
    assert gf.smoothness_bound(2) == 2.0
    assert gf.smoothness_bound(3) == pytest.approx(math.log(3.0) / math.log(2.0))
    assert gf.smoothness_bound(10**6) == pytest.approx(1.0, abs=1e-5)


def test_smoothness_bound_rejects_bad_n():
    for bad in (1, 0, -3, 2.5, True):
        with pytest.raises(gf.NOutOfRangeError):
            gf.smoothness_bound(bad)


def test_star_inequalities_exponential_example():
    results = gf.star_inequality_check(lambda t: math.exp(-t), 3, [1.0])
    (res,) = results
    assert res.passed
    # the reported quantities at t=1: C(2t)=e^-2 >= -1/2 and (3e^-2-1)/2 <= e^-2
    assert math.exp(-2.0) >= -0.5
    assert (3.0 * math.exp(-2.0) - 1.0) / 2.0 <= math.exp(-2.0)


def test_star_inequalities_constant_profile_passes():
    for n in (2, 5, 9):
        results = gf.star_inequality_check(lambda t: 1.0, n, [0.1, 1.0, 3.0])
        assert all(r.passed for r in results)


def test_star_inequalities_bounded_linear_fails():
    profile = lambda t: max(1.0 - t, 0.0)  # noqa: E731
    (res,) = gf.star_inequality_check(profile, 7, [0.6])
    assert not res.passed
    assert res.lower_ok and res.upper_ok and not res.cross_ok


def test_star_inequalities_bad_n():
    with pytest.raises(gf.NOutOfRangeError):
        gf.star_inequality_check(lambda t: 1.0, 1, [0.5])


def test_out_of_range_exponent_fails_near_star_hub():
    g = unit_star(4)
    pts = [gf.vertex_point("O")] + [gf.edge_point(f"s{i}", 0.05) for i in range(1, 5)]
    dm = gf.distance_matrix(g, pts, MetricKind.GEODESIC)
    bad = np.exp(-(dm**1.5))
    np.fill_diagonal(bad, 1.0)
    assert gf.psd_check(bad).min_eig < -1e-10
    good = gf.covariance_matrix(
        g, pts, KernelSpec(KernelFamily.POWER_EXPONENTIAL, 1.0, 1.0), MetricKind.GEODESIC
    )
    assert good.psd_certificate.is_psd


# -- PSD sweeps on random graphs ---------------------------------------------------------


def test_kernels_valid_under_resistance_on_random_graphs():
    rng = np.random.default_rng(83)
    for _ in range(50):
        g = random_graph(rng, int(rng.integers(8, 22)), int(rng.integers(0, 4)))
        pts = random_points(rng, g, 200, vertex_share=0.2)
        dm = gf.distance_matrix(g, pts, MetricKind.RESISTANCE)
        for spec in IN_RANGE_SPECS:
            cov = gf.covariance_from_distances(dm, spec)
            assert gf.psd_check(cov).is_psd, spec


def test_kernels_valid_under_geodesic_on_onesums():
    rng = np.random.default_rng(89)
    for _ in range(50):
        g = random_onesum(rng, int(rng.integers(2, 5)))
        pts = random_points(rng, g, 200, vertex_share=0.2)
        dm = gf.distance_matrix(g, pts, MetricKind.GEODESIC)
        for spec in IN_RANGE_SPECS:
            cov = gf.covariance_from_distances(dm, spec)
            assert gf.psd_check(cov).is_psd, spec


# -- kernel JSON ---------------------------------------------------------------------


def test_kernel_json_round_trip_and_aliases():
    spec = KernelSpec(KernelFamily.GENERALIZED_CAUCHY, 0.5, 2.0, 0.3)
    assert gf.kernel_spec_from_json(gf.kernel_spec_to_json(spec)) == spec
    parsed = gf.kernel_spec_from_json({"family": "cauchy", "alpha": 0.5, "beta": 1.0, "xi": 1.0})
    assert parsed.family is KernelFamily.GENERALIZED_CAUCHY
    parsed = gf.kernel_spec_from_json({"family": " Cauchy ", "alpha": 0.5, "beta": 1.0, "xi": 1.0})
    assert parsed.family is KernelFamily.GENERALIZED_CAUCHY
    for name in ("exponential", "power-exponential", "generalizedcauchy"):
        with pytest.raises(gf.ParamOutOfRangeError):
            gf.kernel_spec_from_json({"family": name, "alpha": 1.0, "beta": 1.0, "xi": 1.0})
    parsed = gf.kernel_spec_from_json({"family": "matern", "alpha": 0.5, "beta": 1.0})
    assert parsed.family is KernelFamily.MATERN and parsed.xi is None


def test_kernel_json_rejects_unknown_family_and_bad_params():
    with pytest.raises(gf.ParamOutOfRangeError):
        gf.kernel_spec_from_json({"family": "gaussian", "alpha": 1.0, "beta": 1.0})
    with pytest.raises(gf.ParamOutOfRangeError):
        gf.kernel_spec_from_json({"family": "matern", "alpha": 0.7, "beta": 1.0})
    with pytest.raises(gf.ParamOutOfRangeError):
        gf.kernel_spec_from_json({"family": "matern", "alpha": 0.5})
