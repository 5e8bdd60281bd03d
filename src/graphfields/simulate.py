"""Gaussian field simulation on graphs and empirical variograms.

Two samplers are provided.  ``sample_from_covariance`` draws from any PSD
covariance matrix through a triangular factorization.  The constructive
``sample_canonical_field`` never forms the point covariance: it draws the
vertex field by a triangular solve against the sparse factor of the
conductance matrix, interpolates linearly along edges, and adds an
independent Brownian-bridge contribution per edge evaluated exactly at the
sampled offsets.  The empirical variogram of such samples converges to the
resistance distance, which is how the metric is verified end to end.

Reproducibility: stream ``k`` of a seed is the Philox generator over
``numpy.random.SeedSequence(seed, spawn_key=(k,))``, which is the ``k``-th
child that ``SeedSequence(seed).spawn`` would return.  Stream derivation is
fixed by convention -- stream 0 drives the vertex field (or the covariance
sampler), and stream 1 + k drives the bridge on the k-th edge in sorted
edge-id order -- so results are bit-identical for a given seed regardless of
how the work is ordered or parallelized, and only the streams a draw uses
are built.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import spsolve_triangular

from .errors import NotPSDError, TooFewSamplesError
from .graph import point_label
from .metrics import (
    ResistanceContext,
    _bridge_covariance,
    _point_frame,
    _variogram,
    canonical_points,
)
from .kernels import psd_check

# Jitter added to a covariance diagonal when its factorization is borderline;
# never exceeds this factor times the largest diagonal entry.
JITTER_SCALE = 1e-10


@dataclass(frozen=True)
class FieldSample:
    """Draws of a zero-mean Gaussian field at a labeled point set.

    ``draws`` has one row per independent realization and one column per
    point.  ``jitter`` records any diagonal regularization that was applied
    before factorizing a covariance (0.0 for the constructive sampler's
    vertex stage unless its bridge factorizations needed it).
    """

    labels: tuple[str, ...]
    draws: np.ndarray
    seed: int
    jitter: float = 0.0


def _chol_with_jitter(cov: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    if not cov.any():
        return np.zeros_like(cov), 0.0
    try:
        return np.linalg.cholesky(cov), 0.0
    except np.linalg.LinAlgError:
        pass
    jitter = JITTER_SCALE * max(float(np.max(np.diag(cov))), 0.0)
    if jitter > 0.0:
        try:
            factor = np.linalg.cholesky(cov + jitter * np.eye(cov.shape[0]))
            warnings.warn(
                f"added diagonal jitter {jitter:g} to factorize {what}",
                stacklevel=3,
            )
            return factor, jitter
        except np.linalg.LinAlgError:
            pass
    raise NotPSDError(f"{what} is not positive semi-definite enough to factorize")


def _stream(seed: int, k: int) -> np.random.Generator:
    """Stream ``k`` of ``seed``; see the module docstring."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(k,)))
    )


def sample_from_covariance(cov, n: int, seed: int, *, labels=None) -> FieldSample:
    """Draw ``n`` independent zero-mean vectors with the given covariance."""
    cov = np.asarray(cov, dtype=float)
    if n < 1:
        raise TooFewSamplesError(f"need at least 1 draw, got {n}")
    report = psd_check(cov)
    if not report.is_psd:
        raise NotPSDError(
            f"covariance is not PSD (min eigenvalue {report.min_eig:g})"
        )
    factor, jitter = _chol_with_jitter(cov, "covariance matrix")
    normals = _stream(seed, 0).standard_normal((n, cov.shape[0]))
    draws = normals @ factor.T
    if labels is None:
        labels = tuple(f"p{k}" for k in range(cov.shape[0]))
    return FieldSample(labels=tuple(labels), draws=draws, seed=int(seed), jitter=jitter)


def _vertex_field(
    ctx: ResistanceContext, rng: np.random.Generator, n: int
) -> np.ndarray:
    """``n`` draws of the vertex field, one per column, rows in factor order.

    With ``L = P^T F D F^T P`` (see :class:`ResistanceContext`) and ``x``
    solving ``F^T x = D^(-1/2) w`` for white noise ``w``, ``P^T x`` has
    covariance exactly ``L^-1``: the value at vertex ``i`` is row
    ``perm_r[i]`` of the result.  One row of ``n_vertices`` normals is drawn
    per realization.
    """
    lu = ctx.factor
    white = rng.standard_normal((n, lu.shape[0])).T
    white /= np.sqrt(lu.U.diagonal())[:, None]
    return spsolve_triangular(
        lu.L.T, white, lower=False, unit_diagonal=True, overwrite_b=True
    )


def sample_canonical_field(
    ctx: ResistanceContext, points, n: int, seed: int
) -> FieldSample:
    """Constructively sample the canonical field at a finite point set.

    Vertex values are drawn with covariance equal to the inverse conductance
    matrix by one triangular solve against the sparse factor of ``L`` (no
    explicit inverse), interpolated to edge points by relative position, and
    each edge with sampled interior points receives an independent bridge
    draw whose covariance is the exact bridge kernel at those offsets.  The
    resulting finite-dimensional law has exactly the canonical covariance.
    """
    if n < 1:
        raise TooFewSamplesError(f"need at least 1 draw, got {n}")
    g = ctx.graph
    pts = canonical_points(g, points)

    x = _vertex_field(ctx, _stream(seed, 0), n)
    lo, hi, frac, _, elen, eidx = _point_frame(g, pts)
    rows = ctx.factor.perm_r
    draws = (
        (1.0 - frac)[:, None] * x[rows[lo]] + frac[:, None] * x[rows[hi]]
    ).T
    by_edge: dict[str, list[int]] = {}
    for k, p in enumerate(pts):
        if not p.is_vertex:
            by_edge.setdefault(p.edge, []).append(k)

    sorted_edge_ids = sorted(e.id for e in g.edges)
    total_jitter = 0.0
    for eid in sorted(by_edge):
        cols = by_edge[eid]
        bridge_cov = _bridge_covariance(frac[cols], elen[cols], eidx[cols])
        factor, jitter = _chol_with_jitter(bridge_cov, f"bridge covariance on {eid!r}")
        total_jitter = max(total_jitter, jitter)
        rng = _stream(seed, 1 + bisect_left(sorted_edge_ids, eid))
        bridge = rng.standard_normal((n, len(cols))) @ factor.T
        draws[:, cols] += bridge

    return FieldSample(
        labels=tuple(point_label(p) for p in pts),
        draws=draws,
        seed=int(seed),
        jitter=total_jitter,
    )


def empirical_variogram(sample: FieldSample) -> np.ndarray:
    """Matrix of sample variances of Z(p_i) - Z(p_j) across draws."""
    draws = sample.draws
    if draws.shape[0] < 2:
        raise TooFewSamplesError(
            f"variogram needs at least 2 draws, got {draws.shape[0]}"
        )
    return _variogram(np.atleast_2d(np.cov(draws, rowvar=False, ddof=1)))
