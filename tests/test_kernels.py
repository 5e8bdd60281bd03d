"""Radial families, PSD certification, witnesses, and star restrictions."""

from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import graphfields as gf
from graphfields import KernelFamily, KernelSpec, MetricKind, kernels
from graphfields.kernels import _covariance_from_distances, _theta_witness_graph
from .helpers import (
    embedding_gram,
    exact_matern,
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


def test_spec_refuses_bools_and_stores_plain_floats():
    for args in ((True, 1.0), (1.0, False), (1.0, np.True_), (0.5, 1.0, True)):
        family = KernelFamily.DAGUM if len(args) == 3 else KernelFamily.POWER_EXPONENTIAL
        with pytest.raises(gf.ParamOutOfRangeError, match="a number"):
            KernelSpec(family, *args)
    with pytest.raises(gf.ParamOutOfRangeError, match="a number"):
        KernelSpec(KernelFamily.MATERN, "half", 1.0)
    spec = KernelSpec(KernelFamily.DAGUM, np.float32(0.75), np.int64(2), np.float64(0.5))
    assert spec == KernelSpec(KernelFamily.DAGUM, 0.75, 2.0, 0.5)
    assert all(type(x) is float for x in (spec.alpha, spec.beta, spec.xi))
    assert gf.kernel_spec_from_json(json.loads(json.dumps(gf.kernel_spec_to_json(spec)))) == spec
    # A float32 nu is its own float value, one key of the Matern table cache.
    matern = KernelSpec(KernelFamily.MATERN, np.float32(0.3), 1.0)
    assert type(matern.alpha) is float and matern.alpha == float(np.float32(0.3))


@pytest.mark.parametrize("name", ["alpha", "beta", "xi"])
def test_spec_refuses_strings_and_bytes(name):
    # A JSON "0.25" is text, not the number 0.25.
    params = {"alpha": 0.5, "beta": 1.0, "xi": 0.5}
    text = str(params[name])
    for value in (text, text.encode()):
        with pytest.raises(gf.ParamOutOfRangeError, match=f"'{name}' outside allowed range a number"):
            KernelSpec(KernelFamily.DAGUM, **{**params, name: value})
    with pytest.raises(gf.ParamOutOfRangeError, match="a number"):
        gf.kernel_spec_from_json({"family": "dagum", **params, name: text})


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
        assert np.array_equal(matern, np.exp(-beta * t))


def _kv_matern(nu, z):
    """The Matern profile from one scipy.special.kv call per entry."""
    z = np.asarray(z, dtype=float)
    tiny = np.maximum(z, 1e-300)
    out = tiny**nu * scipy.special.kv(nu, tiny) / (2.0 ** (nu - 1.0) * scipy.special.gamma(nu))
    return np.where(z > 0, out, 1.0)


# The band edges 2^k of the Matern evaluator (z_0 = 2 is the first) with
# both float neighbours, then z = 700, and the profile there at beta = 1:
# mpmath 1.3 (40 digits) of z^nu besselk(nu, z) / (2^(nu-1) gamma(nu)) at
# the exact float z and nu.
MATERN_Z = np.array(
    [f(2.0**k) for k in range(1, 10) for f in (
        lambda e: np.nextafter(e, 0.0), lambda e: e, lambda e: np.nextafter(e, np.inf)
    )] + [700.0]
)
MATERN_MPMATH = {
    1e-06: (
        2.2778787698161971e-07, 2.2778787698161965e-07, 2.2778787698161952e-07,
        2.2319380525383956e-08, 2.2319380525383943e-08, 2.2319380525383923e-08,
        2.9294198563936856e-10, 2.9294198563936825e-10, 2.9294198563936773e-10,
        6.9988419213665968e-14, 6.998841921366583e-14, 6.9988419213665577e-14,
        5.5901337633427073e-21, 5.590133763342687e-21, 5.5901337633426463e-21,
        5.0154874876660331e-35, 5.0154874876659978e-35, 5.0154874876659261e-35,
        5.6933888996078047e-63, 5.6933888996077226e-63, 5.6933888996075607e-63,
        1.0360323032665593e-118, 1.0360323032665298e-118, 1.0360323032664708e-118,
        4.8481600946881423e-230, 4.8481600946878659e-230, 4.848160094687314e-230,
        9.3396129649695044e-312,
    ),
    0.05: (
        0.011705435476699605, 0.011705435476699602, 0.011705435476699595,
        0.0011871000735961383, 0.0011871000735961376, 0.0011871000735961363,
        1.6127981341587107e-05, 1.6127981341587093e-05, 1.6127981341587063e-05,
        3.9888215723207049e-09, 3.9888215723206974e-09, 3.9888215723206826e-09,
        3.2981894486974836e-16, 3.2981894486974718e-16, 3.2981894486974481e-16,
        3.0634405525445834e-30, 3.0634405525445617e-30, 3.0634405525445179e-30,
        3.600096668051533e-58, 3.6000966680514821e-58, 3.6000966680513795e-58,
        6.7821235868673345e-114, 6.7821235868671412e-114, 6.7821235868667545e-114,
        3.2856363658606693e-225, 3.2856363658604821e-225, 3.2856363658601084e-225,
        6.4292809967830384e-307,
    ),
    0.25: (
        0.063646271806136606, 0.063646271806136592, 0.063646271806136565,
        0.0073724181519448278, 0.0073724181519448243, 0.0073724181519448173,
        0.00011468775970047272, 0.00011468775970047261, 0.00011468775970047241,
        3.2526684438678942e-08, 3.2526684438678882e-08, 3.2526684438678763e-08,
        3.0866498544333799e-15, 3.0866498544333689e-15, 3.0866498544333468e-15,
        3.2917606039138117e-29, 3.2917606039137887e-29, 3.2917606039137416e-29,
        4.4426114342790446e-57, 4.4426114342789818e-57, 4.442611434278855e-57,
        9.612697319700224e-113, 9.6126973196999504e-113, 9.6126973196994034e-113,
        5.3490873670538669e-224, 5.3490873670535636e-224, 5.3490873670529551e-224,
        1.1142467986488878e-305,
    ),
    0.4999: (
        0.13530591755681962, 0.13530591755681959, 0.13530591755681953,
        0.018310567674709493, 0.018310567674709486, 0.018310567674709469,
        0.0003353482863934212, 0.00033534828639342088, 0.00033534828639342028,
        1.1248934257370766e-07, 1.1248934257370746e-07, 1.1248934257370707e-07,
        1.2658149306352673e-14, 1.2658149306352629e-14, 1.2658149306352539e-14,
        1.6029390964127388e-28, 1.6029390964127273e-28, 1.6029390964127045e-28,
        2.5706339833328064e-56, 2.5706339833327698e-56, 2.5706339833326969e-56,
        6.611751801786113e-112, 6.6117518017859246e-112, 6.6117518017855488e-112,
        4.3742048149065852e-223, 4.3742048149063364e-223, 4.3742048149058396e-223,
        9.8519669225595008e-305,
    ),
}


@pytest.mark.parametrize("nu", sorted(MATERN_MPMATH))
def test_matern_profile_matches_mpmath_at_band_edges(nu):
    spec = KernelSpec(KernelFamily.MATERN, nu, 1.0)
    got = gf.radial_profile(spec, MATERN_Z)
    ref = np.array(MATERN_MPMATH[nu])
    # z = 700 at nu = 1e-6 is subnormal: no float is nearer than its spacing.
    err = np.abs(got - ref) - np.finfo(float).smallest_subnormal
    assert np.all(err <= 5e-14 * ref)
    assert gf.radial_profile(spec, 800.0) == 0.0


def _within_mpmath(got, nu, z, rel):
    """Whether each value is within ``rel`` relative of 40-digit mpmath; a
    value that underflows may be off by the subnormal spacing as well."""
    ref = np.array([exact_matern(nu, zi) for zi in np.atleast_1d(z)])
    return np.abs(got - ref) <= rel * ref + np.finfo(float).smallest_subnormal


@pytest.mark.parametrize("nu", [1e-6, 0.05, 0.25, 0.4999, 0.5])
def test_matern_profile_follows_kv_densely(nu):
    z = np.concatenate([[0.0], np.geomspace(1e-3, 1100.0, 40001)])
    got = gf.radial_profile(KernelSpec(KernelFamily.MATERN, nu, 1.0), z)
    kv = _kv_matern(nu, z)
    far, low = z >= 2.0, z < 2.0**-5
    assert np.max(np.abs(got[far] - kv[far])) <= 1e-15
    # Below 2^-5 the profile is exp(-z)'s bit for bit at nu = 1/2, and
    # otherwise the series at 0, held to mpmath at every 40th point (kv is
    # off by more than 1e-15 there).
    assert got[0] == 1.0
    if nu == 0.5:
        assert np.array_equal(got[low], np.exp(-z[low]))
    else:
        near = np.flatnonzero(low)[1::40]
        assert np.all(_within_mpmath(got[near], nu, z[near], 1e-15))
    # In between kv's series is off by up to 6e-14 at these nu, so every
    # 40th point is held to mpmath instead.
    mid = np.flatnonzero(~far & ~low)[::40]
    assert np.all(_within_mpmath(got[mid], nu, z[mid], 4e-15))


# Below nu = 1e-12 the reference slows to seconds a value: mpmath's besselk
# repairs the cancellation of I_-nu - I_nu by raising its precision.
@settings(max_examples=300)
@given(
    nu=st.floats(1e-12, 0.5, exclude_max=True),
    z=st.floats(2.0**-5, 700.0),
)
def test_matern_profile_within_4e_15_of_mpmath(nu, z):
    got = gf.radial_profile(KernelSpec(KernelFamily.MATERN, nu, 1.0), z)
    assert _within_mpmath(got, nu, z, 4e-15).all()


# Below 2^-5 the profile reads its series at 0.
@settings(max_examples=400)
@given(
    nu=st.floats(1e-12, 0.5, exclude_max=True),
    z=st.floats(5e-324, 2.0**-5, exclude_max=True),
)
def test_matern_profile_near_zero_within_1e_15_of_mpmath(nu, z):
    got = gf.radial_profile(KernelSpec(KernelFamily.MATERN, nu, 1.0), z)
    assert _within_mpmath(got, nu, z, 1e-15).all()


@pytest.mark.parametrize("nu", [1e-12, 1e-6, 0.05, 0.3, 0.4999])
def test_matern_profile_is_finite_and_at_most_1_near_zero(nu):
    # kv overflows below about 1e-305; 1e-300 once read 1.000000000000001.
    # At beta = 2 the last t is z = 2^-5, where the table takes over.
    t = np.array([5e-324, 1e-320, 1e-307, 1e-300, 1e-100, 2.0**-29, 2.0**-28, 2.0**-27,
                  2.0**-20, 2.0**-12, 2.0**-8, 2.0**-7, 0.99 * 2.0**-6, 2.0**-6])
    got = gf.radial_profile(KernelSpec(KernelFamily.MATERN, nu, 2.0), t)
    assert np.all(np.isfinite(got)) and np.all(got <= 1.0)
    assert np.all(np.diff(got) <= 0.0)


@pytest.mark.parametrize("nu", [1e-6, 0.05, 0.25, 0.4999])
def test_matern_profile_decreases_across_band_edges(nu):
    # Every edge of the table's octaves and cells from 2^-5 (where the
    # series hands over) to 700.  From 2^-5 on |d ln C / d ln z| >= 0.03 at
    # these nu, so steps of 1e-11 relative move the profile by at least
    # 3e-13 relative, far more than the evaluator's error on either side of
    # an edge.
    cells = 2.0 ** np.arange(-5, 10)[:, None] * (1.0 + np.arange(32) / 32.0)
    edges = cells[cells <= 700.0]
    steps = 1.0 + 1e-11 * np.arange(-3, 4)
    values = gf.radial_profile(KernelSpec(KernelFamily.MATERN, nu, 1.0), np.outer(edges, steps))
    moves = -np.diff(values, axis=1)
    assert np.all(moves >= 1e-13 * values[:, 1:]), edges[np.any(moves < 1e-13 * values[:, 1:], axis=1)]


def test_matern_table_is_built_once_per_nu():
    kernels._matern_table.cache_clear()
    spec = KernelSpec(KernelFamily.MATERN, 0.3, 4.0)
    rng = np.random.default_rng(29)
    g = random_graph(rng, 12, 3)
    pts = random_points(rng, g, 3 * kernels._ROW_BLOCK)
    for kind in MetricKind:
        gf.covariance_matrix(g, pts, spec, kind)
    assert kernels._matern_table.cache_info().misses == 1
    # Scalar calls, as star_inequality_check makes them, read the same table.
    results = gf.star_inequality_check(lambda t: gf.radial_profile(spec, t), 4, [0.1, 1.0, 10.0])
    assert all(r.passed for r in results)
    info = kernels._matern_table.cache_info()
    assert info.misses == 1 and info.hits >= 9


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


@pytest.mark.parametrize("spec", IN_RANGE_SPECS)
def test_profiles_refuse_nan_and_vanish_at_infinity(spec):
    # Every family, Matern at alpha = 1/2 and below; warnings are errors.
    for t in (math.nan, np.array([0.5, math.nan]), np.array([[1.0], [math.nan]])):
        with pytest.raises(ValueError, match="nonnegative"):
            gf.radial_profile(spec, t)
    assert gf.radial_profile(spec, math.inf) == 0.0
    got = gf.radial_profile(spec, np.array([0.0, 1.5, math.inf]))
    assert got[0] == 1.0 and 0.0 < got[1] < 1.0 and got[2] == 0.0


@pytest.mark.parametrize(
    "spec",
    [
        gf.KernelSpec(gf.KernelFamily.POWER_EXPONENTIAL, 1.0, 10.0),
        gf.KernelSpec(gf.KernelFamily.MATERN, 0.5, 10.0),
        gf.KernelSpec(gf.KernelFamily.MATERN, 0.25, 10.0),
        gf.KernelSpec(gf.KernelFamily.GENERALIZED_CAUCHY, 1.0, 10.0, 0.5),
        gf.KernelSpec(gf.KernelFamily.DAGUM, 1.0, 10.0, 0.5),
    ],
)
def test_profiles_reach_their_limit_where_beta_t_overflows(spec):
    # beta t = 1e309 overflows to inf, the limit t -> inf, with no warning
    # (warnings are errors).
    assert gf.radial_profile(spec, 1e308) == 0.0
    got = gf.radial_profile(spec, np.array([1e308, math.inf, 0.0]))
    assert got.tolist() == [0.0, 0.0, 1.0]


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
        cov = _covariance_from_distances(upper, spec)
        assert np.array_equal(cov, cov.T)
        assert np.array_equal(cov, _covariance_from_distances(dm, spec))


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
        # The last spec puts z = beta t between 0.08 and about 105, across
        # eleven octaves of the Matern table.
        for spec in [*IN_RANGE_SPECS[1::2], KernelSpec(KernelFamily.MATERN, 0.3, 9.0)]:
            expected = gf.radial_profile(spec, dm)
            np.fill_diagonal(expected, 1.0)
            cov = gf.covariance_matrix(g, pts[:m], spec, kind)
            assert np.array_equal(cov.values, expected), (m, spec)


@pytest.mark.parametrize("kind", list(MetricKind))
def test_covariance_matrix_of_no_points_is_empty_and_proved(kind):
    # distance_matrix gives an empty matrix for no points;
    # an empty matrix is vacuously positive definite, so it gets the proof.
    g = gf.build_graph(
        ["a", "b", "c"], [("ab", "a", "b", 1.0), ("bc", "b", "c", 1.0), ("ca", "c", "a", 1.0)]
    )
    for spec in IN_RANGE_SPECS:
        cov = gf.covariance_matrix(g, [], spec, kind, min_separation=1.0)
        assert cov.labels == () and cov.values.shape == (0, 0)
        assert cov.psd_certificate == gf.PsdReport(None, None, True)


def test_covariance_matrix_canonicalizes_each_point_once(monkeypatch):
    seen = []
    real = gf.metrics._locate
    monkeypatch.setattr(gf.metrics, "_locate", lambda g, p: seen.append(p) or real(g, p))
    g = path_abc()
    points = [gf.vertex_point("A"), gf.edge_point("ab", 1.0), gf.edge_point("bc", 0.5)]
    cov = gf.covariance_matrix(g, points, IN_RANGE_SPECS[3], MetricKind.RESISTANCE)
    assert seen == points and cov.labels == ("A", "B", "bc@0.5")


def test_matern_covariance_peaks_below_two_matrices():
    # Per row block, the temporaries stay far below one m x m matrix
    # beside the result.
    m = 1000
    x = np.random.default_rng(3).uniform(0.0, 10.0, size=m)
    dm = np.abs(x[:, None] - x[None, :])
    tracemalloc.start()
    try:
        cov = _covariance_from_distances(dm, KernelSpec(KernelFamily.MATERN, 0.25, 2.0))
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


# -- positive definiteness proof -----------------------------------------------------


def test_proof_refuses_theta_witness_matrices_with_a_negative_eigenvalue():
    # exp(-beta d_G) on the six witness points is indefinite over the low
    # end of the forbidden_certificate scan and proved above it.
    g, points = _theta_witness_graph(0.5, 1.0)
    dm = gf.distance_matrix(g, points, MetricKind.GEODESIC)
    negative = 0
    for beta in np.geomspace(*kernels._BETA_SCAN_RANGE, kernels._BETA_SCAN_COUNT):
        cov = gf.covariance_matrix(
            g, points, KernelSpec(KernelFamily.POWER_EXPONENTIAL, 1.0, beta),
            MetricKind.GEODESIC,
        )
        assert np.array_equal(cov.values, np.exp(-beta * dm))
        report = gf.psd_check(cov.values)
        if report.min_eig < 0:
            negative += 1
            assert not kernels._proves_positive_definite(cov.values), beta
            assert cov.psd_certificate == report
        else:
            assert cov.psd_certificate == gf.PsdReport(None, None, True), beta
    assert negative > 50


@pytest.mark.parametrize("exponent", [33, 43, 50])
def test_proof_refuses_planted_negative_eigenvalue(exponent):
    # H diag(lam) H^T / 16 for the 16 x 16 Hadamard matrix H is dense and
    # exact: every lam is a multiple of 2^-50 below 1/2, so each inner
    # product stays within 53 bits.  Its eigenvalues are lam exactly, the
    # smallest -2^-exponent (-1.2e-10, -1.1e-13, -8.9e-16).  With that sign
    # flipped the matrix is positive definite, and it is proved when the
    # eigenvalue clears the shift, about 1.1e-14 here.
    hadamard = scipy.linalg.hadamard(16).astype(float)
    lam = np.random.default_rng(exponent).integers(4, 9, size=16) / 16.0
    for smallest in (-(2.0**-exponent), 2.0**-exponent):
        lam[0] = smallest
        a = (hadamard * lam) @ hadamard.T / 16.0
        assert np.array_equal(a, a.T)
        report = gf.psd_check(a)
        # The 1e-9 band admits every one of them.
        assert abs(report.min_eig - smallest) < 1e-14 and report.is_psd
        proved = smallest > 1e-13
        assert kernels._proves_positive_definite(a) is proved
        assert kernels._certificate(a) == (
            gf.PsdReport(None, None, True) if proved else report
        )


def test_proof_refuses_zero_diagonal_and_non_finite_entries():
    # Zero diagonals, and a singular matrix that is only semi-definite.
    for a in ([[0.0]], [[0.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]],
              [[1.0, -1.0], [-1.0, 1.0]]):
        assert not kernels._proves_positive_definite(np.array(a))
    assert not kernels._proves_positive_definite(np.zeros((0, 0)))
    # [[0]] and the singular all-ones matrix still read psd through the band.
    assert kernels._certificate(np.zeros((1, 1))) == gf.PsdReport(0.0, 0.0, True)
    assert kernels._certificate(np.ones((2, 2))).is_psd
    # OpenBLAS's dpotrf completes on a NaN pivot; the proof does not.
    nan = np.array([[1.0, np.nan], [np.nan, 1.0]])
    assert scipy.linalg.lapack.dpotrf(nan, lower=1)[1] == 0
    assert not kernels._proves_positive_definite(nan)
    assert not kernels._proves_positive_definite(np.array([[1.0, np.inf], [np.inf, 1.0]]))
    assert not kernels._proves_positive_definite(np.array([[np.inf]]))
    # Finite but indefinite: row 4 overflows to inf, inf * 0 leaves a NaN
    # pivot, and dpotrf again reports success.
    overflow = np.diag([1e-100] * 4)
    overflow[3, 0] = overflow[0, 3] = 1e300
    assert scipy.linalg.lapack.dpotrf(overflow, lower=1)[1] == 0
    assert not kernels._proves_positive_definite(overflow)


def test_proof_leaves_the_matrix_unchanged():
    x = np.linspace(0.0, 3.0, 40)
    a = np.exp(-np.abs(x[:, None] - x[None, :]))
    before = a.copy()
    assert kernels._proves_positive_definite(a)
    assert np.array_equal(a, before)


@settings(max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    spec=st.sampled_from(IN_RANGE_SPECS),
    beta_scale=st.sampled_from([1e-3, 0.1, 1.0, 10.0]),
    kind=st.sampled_from(list(MetricKind)),
    gap=st.sampled_from([None, 1e-6, 1e-10, 1e-13]),
)
def test_certificate_verdict_equals_eigenvalue_verdict(seed, spec, beta_scale, kind, gap):
    # Random graphs (geodesic kernels on their complex blocks can be
    # indefinite), flat and steep kernels, and twins of some edge points a
    # relative gap apart: a proof and the band agree on every verdict, and
    # an unproved matrix carries exactly psd_check's report.
    rng = np.random.default_rng(seed)
    g = random_graph(rng, int(rng.integers(4, 14)), int(rng.integers(0, 4)))
    points = random_points(rng, g, int(rng.integers(2, 30)), vertex_share=0.2)
    if gap is not None:
        for p in points[: int(rng.integers(1, 4))]:
            if not p.is_vertex:
                twin = p.offset * (1.0 + gap)
                if twin < g.edge(p.edge).length:
                    points.append(gf.edge_point(p.edge, twin))
    spec = KernelSpec(spec.family, spec.alpha, spec.beta * beta_scale, spec.xi)
    cov = gf.covariance_matrix(g, points, spec, kind)
    report = gf.psd_check(cov.values)
    assert cov.psd_certificate.is_psd == report.is_psd
    if cov.psd_certificate.min_eig is not None:
        assert cov.psd_certificate == report


def test_random_positive_definite_corpus_is_proved():
    rng = np.random.default_rng(83)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(8, 22)), int(rng.integers(0, 4)))
        points = random_points(rng, g, 100, vertex_share=0.2)
        for spec in IN_RANGE_SPECS:
            cov = gf.covariance_matrix(g, points, spec, MetricKind.RESISTANCE)
            assert cov.psd_certificate == gf.PsdReport(None, None, True), spec


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
    g, pts = _theta_witness_graph(0.5, 1.0)
    gram = embedding_gram(g, pts, 0, MetricKind.GEODESIC)
    assert not gf.psd_check(gram).is_psd


# -- forbidden certificate ------------------------------------------------------------


def test_witness_distances_realize_stated_matrix():
    rng = np.random.default_rng(73)
    for _ in range(10):
        t = float(rng.uniform(0.05, 0.5))
        r = float(rng.uniform(t, 1.0))
        g, pts = _theta_witness_graph(t, r)
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


# -- star inequalities -------------------------------------------------------


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
            cov = _covariance_from_distances(dm, spec)
            assert gf.psd_check(cov).is_psd, spec


def test_kernels_valid_under_geodesic_on_onesums():
    rng = np.random.default_rng(89)
    for _ in range(50):
        g = random_onesum(rng, int(rng.integers(2, 5)))
        pts = random_points(rng, g, 200, vertex_share=0.2)
        dm = gf.distance_matrix(g, pts, MetricKind.GEODESIC)
        for spec in IN_RANGE_SPECS:
            cov = _covariance_from_distances(dm, spec)
            assert gf.psd_check(cov).is_psd, spec


# -- kernel JSON ---------------------------------------------------------------------


def test_kernel_json_round_trip_and_aliases():
    for spec in IN_RANGE_SPECS:
        wire = json.loads(json.dumps(gf.kernel_spec_to_json(spec)))
        assert gf.kernel_spec_from_json(wire) == spec
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
    with pytest.raises(gf.ParamOutOfRangeError, match="a number"):
        gf.kernel_spec_from_json({"family": "power_exponential", "alpha": True, "beta": 1.0})


def test_star_inequality_check_refuses_a_profile_that_is_not_finite_at_0():
    with pytest.raises(gf.NonFiniteError):
        gf.star_inequality_check(lambda t: float("nan"), 3, [0.1])
