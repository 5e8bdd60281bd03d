"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances and runtime budgets are fixed here and
are not calibration knobs.
"""

from __future__ import annotations

import math
import time

import numpy as np

import graphfields as gf
from graphfields import KernelFamily, KernelSpec, MetricKind
from .helpers import (
    figure_eight,
    r_graph,
    random_graph,
    random_onesum,
    random_points,
    random_tree,
    single_edge,
    split_edge,
    unit_square,
    unit_star,
)

KERNEL_SWEEP = [
    KernelSpec(KernelFamily.POWER_EXPONENTIAL, 1.0, 1.0),
    KernelSpec(KernelFamily.POWER_EXPONENTIAL, 0.5, 0.6),
    KernelSpec(KernelFamily.POWER_EXPONENTIAL, 0.8, 2.0),
    KernelSpec(KernelFamily.MATERN, 0.5, 1.0),
    KernelSpec(KernelFamily.MATERN, 0.25, 2.0),
    KernelSpec(KernelFamily.MATERN, 0.4, 0.7),
    KernelSpec(KernelFamily.GENERALIZED_CAUCHY, 1.0, 1.0, 1.0),
    KernelSpec(KernelFamily.GENERALIZED_CAUCHY, 0.5, 2.0, 0.3),
    KernelSpec(KernelFamily.GENERALIZED_CAUCHY, 0.8, 0.5, 2.0),
    KernelSpec(KernelFamily.DAGUM, 1.0, 1.0, 1.0),
    KernelSpec(KernelFamily.DAGUM, 0.7, 2.0, 0.5),
    KernelSpec(KernelFamily.DAGUM, 0.3, 0.5, 0.9),
]


def _finish(number: int, name: str, passed: bool, elapsed: float, budget: float, detail: str):
    in_time = elapsed <= budget
    verdict = "PASS" if (passed and in_time) else "FAIL"
    print(
        f"ACCEPTANCE {number:02d} [{name}]: {verdict} "
        f"({detail}; {elapsed:.2f}s of {budget:.0f}s budget)"
    )
    assert passed, f"criterion {number}: {detail}"
    assert in_time, f"criterion {number}: took {elapsed:.2f}s, budget {budget:.0f}s"


def test_criterion_01_tree_equality():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(25):
        g = random_tree(rng, int(rng.integers(5, 31)))
        pts = random_points(rng, g, 20)
        geo = gf.distance_matrix(g, pts, MetricKind.GEODESIC)
        res = gf.distance_matrix(g, pts, MetricKind.RESISTANCE)
        worst = max(worst, float(np.max(np.abs(geo - res))))
    _finish(
        1, "tree equality", worst <= 1e-9, time.perf_counter() - start, 5.0,
        f"max |d_R - d_G| = {worst:.3e} <= 1e-9",
    )


def test_criterion_02_dominance():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    max_violation = -math.inf
    min_strict_gap = math.inf
    for _ in range(25):
        g = random_graph(rng, int(rng.integers(8, 21)), int(rng.integers(1, 4)))
        pts = random_points(rng, g, 15)
        geo = gf.distance_matrix(g, pts, MetricKind.GEODESIC)
        res = gf.distance_matrix(g, pts, MetricKind.RESISTANCE)
        max_violation = max(max_violation, float(np.max(res - geo)))
        min_strict_gap = min(min_strict_gap, float(np.max(geo - res)))
    passed = max_violation <= 1e-12 and min_strict_gap > 1e-9
    _finish(
        2, "dominance", passed, time.perf_counter() - start, 5.0,
        f"max(d_R - d_G) = {max_violation:.3e} <= 1e-12, "
        f"strict gap per graph >= {min_strict_gap:.3e} > 1e-9",
    )


def test_criterion_03_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = 0.0
    for case in range(100):
        g = random_graph(rng, int(rng.integers(5, 14)), int(rng.integers(0, 4)))
        ctx = gf.build_resistance_context(g)
        # force edge-interior points into half of the cases
        share = 0.0 if case % 2 == 0 else 0.5
        p, q = random_points(rng, g, 2, vertex_share=share)
        got = gf.resistance_distance(ctx, p, q)
        expected = gf.oracle_effective_resistance(g, p, q)
        worst = max(worst, abs(got - expected))
    _finish(
        3, "oracle equivalence", worst <= 1e-9, time.perf_counter() - start, 10.0,
        f"max |d_R - oracle| = {worst:.3e} <= 1e-9 over 100 instances",
    )


def test_criterion_04_origin_and_split_invariance():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    worst_origin = 0.0
    worst_split = 0.0
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(8, 16)), int(rng.integers(1, 3)))
        pts = random_points(rng, g, 10)
        base = gf.distance_matrix(g, pts, MetricKind.RESISTANCE)
        # Only the covariance reads the origin; its variogram at either
        # origin is the distance, relative to the largest variance.
        for origin in (g.vertices[0], g.vertices[-1]):
            cov = gf.r_graph_matrix(gf.build_resistance_context(g, origin), pts)
            var = np.diag(cov)
            dev = np.max(np.abs(var[:, None] + var - 2.0 * cov - base)) / np.max(var)
            worst_origin = max(worst_origin, float(dev))

        e = g.edges[int(rng.integers(0, len(g.edges)))]
        offset = float(rng.uniform(0.25, 0.75)) * e.length
        g2, w = split_edge(g, gf.edge_point(e.id, offset))
        remapped = []
        for p in pts:
            if p.is_vertex or p.edge != e.id:
                remapped.append(p)
            elif p.offset < offset:
                remapped.append(gf.edge_point(f"{e.id}:a", p.offset))
            elif p.offset > offset:
                remapped.append(gf.edge_point(f"{e.id}:b", p.offset - offset))
            else:
                remapped.append(gf.vertex_point(w))
        after = gf.distance_matrix(g2, remapped, MetricKind.RESISTANCE)
        worst_split = max(worst_split, float(np.max(np.abs(base - after))))
    passed = worst_origin <= 1e-13 and worst_split <= 1e-9
    _finish(
        4, "origin/split invariance", passed, time.perf_counter() - start, 5.0,
        f"origin variogram dev {worst_origin:.3e} <= 1e-13 of the largest variance, "
        f"split dev {worst_split:.3e} <= 1e-9",
    )


def test_criterion_05_closed_form_single_edge():
    start = time.perf_counter()
    g = single_edge()
    ctx = gf.build_resistance_context(g, "0")
    p25 = gf.edge_point("e1", 0.25)
    p75 = gf.edge_point("e1", 0.75)
    checks = {
        "r_graph(0.25,0.75)=1.25": abs(r_graph(ctx, p25, p75) - 1.25),
        "r_graph(0.75,0.75)=1.75": abs(r_graph(ctx, p75, p75) - 1.75),
        "d_R(0.25,0.75)=0.5": abs(gf.resistance_distance(ctx, p25, p75) - 0.5),
    }
    worst = max(checks.values())
    _finish(
        5, "closed form", worst <= 1e-12, time.perf_counter() - start, 5.0,
        f"max deviation {worst:.3e} <= 1e-12",
    )


def _psd_sweep(graphs_points, kind: MetricKind):
    """Returns (all_psd, first failing spec, smallest min_eig/max_eig seen)."""
    worst_ratio = math.inf
    for g, pts in graphs_points:
        dm = gf.distance_matrix(g, pts, kind)
        for spec in KERNEL_SWEEP:
            cov = gf.covariance_from_distances(dm, spec)
            report = gf.psd_check(cov)
            ratio = report.min_eig / max(report.max_eig, 1.0)
            worst_ratio = min(worst_ratio, ratio)
            if report.min_eig < -1e-9 * report.max_eig:
                return False, spec, ratio
    return True, None, worst_ratio


def test_criterion_06_table_families_valid_under_resistance():
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    cases = []
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(10, 26)), int(rng.integers(1, 5)))
        cases.append((g, random_points(rng, g, 100)))
    ok, bad_spec, ratio = _psd_sweep(cases, MetricKind.RESISTANCE)
    detail = (
        f"all 12 settings PSD on 20 graphs x 100 points (worst min_eig/max_eig {ratio:.1e})"
        if ok
        else f"failed for {bad_spec} with min/max eigenvalue ratio {ratio:.3e}"
    )
    _finish(6, "families valid under resistance", ok, time.perf_counter() - start, 60.0, detail)


def test_criterion_07_table_families_valid_under_geodesic_onesums():
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    cases = []
    for _ in range(20):
        g = random_onesum(rng, int(rng.integers(2, 6)))
        cases.append((g, random_points(rng, g, 100)))
    ok, bad_spec, ratio = _psd_sweep(cases, MetricKind.GEODESIC)
    detail = (
        f"all 12 settings PSD on 20 one-sums x 100 points (worst min_eig/max_eig {ratio:.1e})"
        if ok
        else f"failed for {bad_spec} with min/max eigenvalue ratio {ratio:.3e}"
    )
    _finish(7, "families valid under geodesic on one-sums", ok, time.perf_counter() - start, 60.0, detail)


def test_criterion_08_forbidden_witness():
    start = time.perf_counter()
    witness = gf.forbidden_certificate(0.5, 1.0)
    passed = (
        witness.quadratic_form == -0.25
        and witness.beta_found is not None
        and witness.negative_eigenvalue is not None
        and witness.negative_eigenvalue <= -1e-8
    )
    _finish(
        8, "forbidden witness", passed, time.perf_counter() - start, 2.0,
        f"quadratic form {witness.quadratic_form!r} (exact -0.25), "
        f"beta {witness.beta_found}, eigenvalue {witness.negative_eigenvalue:.3e} <= -1e-8",
    )


def test_criterion_09_star_restriction_demo():
    start = time.perf_counter()
    g = unit_star(4)
    pts = [gf.vertex_point("O")] + [
        gf.edge_point(f"s{i}", 0.05) for i in range(1, 5)
    ]
    dm = gf.distance_matrix(g, pts, MetricKind.GEODESIC)
    out_of_range = np.exp(-(dm**1.5))
    np.fill_diagonal(out_of_range, 1.0)
    bad_eig = gf.psd_check(out_of_range).min_eig
    in_range = gf.covariance_matrix(
        g, pts, KernelSpec(KernelFamily.POWER_EXPONENTIAL, 1.0, 1.0), MetricKind.GEODESIC
    )
    passed = bad_eig < -1e-10 and in_range.psd_certificate.is_psd
    _finish(
        9, "star restriction demo", passed, time.perf_counter() - start, 1.0,
        f"alpha=1.5 min_eig {bad_eig:.3e} < -1e-10; alpha=1.0 verdict "
        f"{in_range.psd_certificate.verdict}",
    )


def test_criterion_10_variogram_identity():
    start = time.perf_counter()
    fixtures = []
    edge = single_edge()
    fixtures.append(
        (edge, [gf.vertex_point("0"), gf.edge_point("e1", 0.25), gf.edge_point("e1", 0.75), gf.vertex_point("1")])
    )
    square = unit_square()
    fixtures.append(
        (square, [gf.vertex_point(v) for v in "ABCD"] + [gf.edge_point("ab", 0.5), gf.edge_point("cd", 0.3)])
    )
    eight = figure_eight()
    fixtures.append(
        (eight, [gf.vertex_point(v) for v in "ABCDE"] + [gf.edge_point("bc", 0.4), gf.edge_point("de", 0.7)])
    )
    worst = 0.0
    for seed, (g, pts) in enumerate(fixtures, start=1010):
        ctx = gf.build_resistance_context(g)
        sample = gf.sample_canonical_field(ctx, pts, 20000, seed=seed)
        vario = gf.empirical_variogram(sample)
        dr = gf.distance_matrix(g, pts, MetricKind.RESISTANCE, ctx=ctx)
        mask = dr >= 0.1
        rel = np.abs(vario[mask] - dr[mask]) / dr[mask]
        worst = max(worst, float(rel.max()))
    _finish(
        10, "variogram identity", worst <= 0.05, time.perf_counter() - start, 60.0,
        f"max relative error {worst:.4f} <= 0.05 at n=20000 on 3 fixtures",
    )


def test_criterion_11_matern_boundary_identity():
    start = time.perf_counter()
    t = np.linspace(0.1, 10.0, 100)
    worst = 0.0
    for beta in (0.5, 1.0, 2.0):
        matern = gf.radial_profile(KernelSpec(KernelFamily.MATERN, 0.5, beta), t)
        worst = max(worst, float(np.max(np.abs(matern - np.exp(-beta * t)))))
    _finish(
        11, "Matern boundary identity", worst <= 1e-10, time.perf_counter() - start, 5.0,
        f"max |matern(1/2) - exp| = {worst:.3e} <= 1e-10 at 100 points",
    )


def test_criterion_12_star_inequalities():
    start = time.perf_counter()
    t_values = [round(0.1 * k, 10) for k in range(1, 21)]
    all_in_range_pass = True
    for spec in KERNEL_SWEEP:
        profile = lambda t, s=spec: gf.radial_profile(s, t)  # noqa: E731
        for n in range(2, 11):
            results = gf.star_inequality_check(profile, n, t_values)
            all_in_range_pass &= all(r.passed for r in results)
    bounded_linear = lambda t: max(1.0 - t, 0.0)  # noqa: E731
    (bl,) = gf.star_inequality_check(bounded_linear, 7, [0.6])
    passed = all_in_range_pass and not bl.passed
    _finish(
        12, "star inequalities", passed, time.perf_counter() - start, 60.0,
        f"in-range kernels pass n=2..10, t=0.1..2.0: {all_in_range_pass}; "
        f"bounded linear model fails at n=7, t=0.6: {not bl.passed}",
    )
