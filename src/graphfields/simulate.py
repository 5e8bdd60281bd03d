"""Gaussian field simulation on graphs and empirical variograms.

Two samplers are provided.  ``sample_from_covariance`` draws from a certified
``CovarianceMatrix``: it reads the PSD certificate that ``covariance_matrix``
computed (a proof, or an eigenvalue band where the proof does not hold) and
factors the values by the proof's Cholesky routine.  The constructive
``sample_canonical_field`` never forms the point covariance: it builds the
canonical field as the paper defines it, a vertex field with covariance
``L^-1``, shifted to the origin, linearly interpolated along each edge, plus
an independent Brownian bridge on each edge.  The vertex field comes from a
triangular solve against the graph's one sparse factor of ``L``.  The
empirical variogram of such samples converges to the resistance distance,
which verifies the metric end to end.

Reproducibility: every draw takes all its normals from one stream, the
Philox generator over ``SeedSequence(seed, spawn_key=(0,))`` (the first
child of ``SeedSequence(seed).spawn``), so draws are bit-identical for a
given seed.  The canonical sampler takes them a block of at most
``_SOLVE_COLUMNS`` draws at a time, in this order: the vertex normals (one
row per draw, one normal per vertex, in the factor's order), one normal
``xi`` per draw for the origin, then the bridge normals (one row per draw,
one normal per distinct interior point, by edge position, then offset).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.linalg import SuperLU, spsolve_triangular

from .errors import NotPSDError, ParamOutOfRangeError, TooFewSamplesError
from .graph import _SOLVE_COLUMNS
from .kernels import CovarianceMatrix, _cholesky
from .metrics import ResistanceContext, _PointTable, canonical_points

# Jitter added to a covariance diagonal when its factorization is borderline;
# never exceeds this factor times the largest diagonal entry.
JITTER_SCALE = 1e-10


@dataclass(frozen=True)
class FieldSample:
    """Draws of a zero-mean Gaussian field at a labeled point set.

    ``draws`` has one row per independent realization and one column per
    point.  ``jitter`` records any diagonal regularization that
    ``sample_from_covariance`` applied before factorizing its covariance;
    the constructive sampler factors no dense covariance and reports 0.0.
    """

    labels: tuple[str, ...]
    draws: np.ndarray
    seed: int
    jitter: float = 0.0


def _chol_with_jitter(cov: np.ndarray) -> tuple[np.ndarray, float]:
    if not cov.any():
        return np.zeros_like(cov), 0.0
    jitter = JITTER_SCALE * max(float(np.max(np.diag(cov))), 0.0)
    for added in (0.0, jitter):
        factor = _cholesky(cov, -added)
        if factor is not None:
            if added:
                warnings.warn(
                    f"added diagonal jitter {added:g} to factorize covariance matrix",
                    stacklevel=3,
                )
            return np.triu(factor), added
    raise NotPSDError("covariance matrix is not positive semi-definite enough to factorize")


def _stream(seed: int, n: int) -> np.random.Generator:
    """The one stream of ``seed`` for ``n`` draws; see the module docstring.
    Both samplers call it first: it refuses fewer than one draw, and a seed
    that is not a non-negative integer (a bool is not one)."""
    if n < 1:
        raise TooFewSamplesError(f"need at least 1 draw, got {n}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParamOutOfRangeError(
            "seed", "an integer >= 0", f"seed must be a non-negative integer, got {seed!r}"
        )
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(0,)))
    )


def sample_from_covariance(cov: CovarianceMatrix, n: int, seed: int) -> FieldSample:
    """Draw ``n`` independent zero-mean vectors with the covariance ``cov``.

    A not-PSD ``cov.psd_certificate`` is refused without decomposing the
    values again; only an eigenvalue report can say not PSD, so the error
    quotes its smallest eigenvalue.  The Cholesky factor, with bounded
    diagonal jitter reported in ``FieldSample.jitter``, guards the values.
    Draws carry ``cov.labels``.
    """
    rng = _stream(seed, n)
    report = cov.psd_certificate
    if not report.is_psd:
        raise NotPSDError(
            f"covariance is not PSD (min eigenvalue {report.min_eig:g})"
        )
    factor, jitter = _chol_with_jitter(cov.values)
    normals = rng.standard_normal((n, cov.values.shape[0]))
    return FieldSample(
        labels=cov.labels, draws=normals @ factor, seed=int(seed), jitter=jitter
    )


def _vertex_field(
    upper: csr_array, root: np.ndarray, rng: np.random.Generator, n: int
) -> np.ndarray:
    """``n`` draws with covariance ``L^-1`` for ``L = P^T F D F^T P`` (see
    :func:`graph._factor`), one per column: ``x`` solving
    ``F^T x = D^(-1/2) w`` for white noise ``w`` (one normal per unknown)
    has covariance ``P L^-1 P^T``, so unknown ``i`` is row ``perm_r[i]``.

    ``upper`` is ``F^T`` as a CSR matrix with sorted indices and ``root`` is
    ``sqrt(D)``, both prepared once per factor by :func:`_whitening`; the
    solve reads ``upper`` in place and changes none of its values.
    """
    white = rng.standard_normal((n, root.size)).T
    white /= root[:, None]
    return spsolve_triangular(
        upper, white, lower=False, unit_diagonal=True, overwrite_A=True, overwrite_b=True
    )


def _whitening(lu: SuperLU) -> tuple[csr_array, np.ndarray]:
    """``F^T`` (CSR, sorted indices) and ``sqrt(D)`` of a factor, as
    :func:`_vertex_field` reads them."""
    upper = csr_array(lu.L.T)
    upper.sort_indices()
    return upper, np.sqrt(lu.U.diagonal())


def _bridges(pts: _PointTable):
    """The Brownian bridge of each edge at the points of ``pts``, drawn in
    offset order by the Markov step: from ``b_prev`` at ``s_prev`` (0 at
    ``u``), the bridge at the next distinct offset ``s`` has mean
    ``b_prev (l - s) / (l - s_prev)`` and variance
    ``(s - s_prev)(l - s) / (l - s_prev)``, which does not cancel near ``v``
    as ``W(s) - (s / l) W(l)`` would.

    Returns ``carry`` (the factor of ``b_prev``) and ``sd`` per distinct
    interior point, by edge position and then offset; the column ``col`` of
    each point among them (one past the last for a vertex); and the columns
    of each step after the first on every edge.
    """
    inner = np.flatnonzero(pts.eidx >= 0)
    keys = np.column_stack((pts.eidx[inner], pts.off[inner]))
    keys, at, where = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    col = np.full(len(pts), len(keys))
    col[inner] = where.ravel()
    s, length, k = keys[:, 1], pts.elen[inner[at]], np.arange(len(keys))
    first = np.diff(keys[:, 0], prepend=-1.0) != 0.0
    s_prev = np.where(first, 0.0, np.roll(s, 1))
    rest, span = length - s, length - s_prev
    rank = k - np.maximum.accumulate(np.where(first, k, 0))
    by = np.argsort(rank, kind="stable")
    steps = np.split(by, np.flatnonzero(np.diff(rank[by])) + 1)[1:]
    return rest / span, np.sqrt((s - s_prev) * rest / span), col, steps


def sample_canonical_field(
    ctx: ResistanceContext, points, n: int, seed: int
) -> FieldSample:
    """Constructively sample the canonical field at a finite point set.

    Per block of at most ``_SOLVE_COLUMNS`` draws, the vertex field ``Z_0``
    (covariance ``L^-1``, grounded at vertex 0) comes from one triangular
    solve against the graph's factor of ``L`` (:func:`_vertex_field`).  It
    is shifted to the origin ``o``, ``Z = Z_0 - Z_0(o) + xi`` with
    ``xi ~ N(0, 1)``, and read at the points as ``W Z`` over the endpoint
    vertices ``ends`` of the point table: ``w_lo Z(u) + w_hi Z(v)`` at
    offset ``s`` of an edge ``(u, v)`` of length ``l``, through the map
    ``W`` that :func:`metrics.resistance_matrix` reads too
    (``metrics._PointTable``), plus the edge's bridge (:func:`_bridges`).
    The normals are taken in the order of the module docstring, and the
    points have exactly the canonical covariance.
    """
    rng = _stream(seed, n)
    g = ctx.graph
    pts = canonical_points(g, points)
    carry, sd, col, steps = _bridges(pts)
    lu = g._conductance_lu()
    upper, root = _whitening(lu)
    # Vertex i is row perm_r[i] of a block of vertex draws.
    ends = lu.perm_r[pts.ends]
    origin = lu.perm_r[g.vertex_index(ctx.origin)]
    draws = np.empty((n, len(pts)))
    for s in range(0, n, _SOLVE_COLUMNS):
        k = min(_SOLVE_COLUMNS, n - s)
        x = _vertex_field(upper, root, rng, k)
        z = x[ends]
        z -= x[origin]
        z += rng.standard_normal(k)
        bridge = np.zeros((k, sd.size + 1))
        bridge[:, :-1] = rng.standard_normal((k, sd.size)) * sd
        for at in steps:
            bridge[:, at] += carry[at] * bridge[:, at - 1]
        draws[s : s + k] = (pts.W @ z).T + bridge[:, col]
    return FieldSample(labels=pts.labels, draws=draws, seed=int(seed))


def empirical_variogram(sample: FieldSample) -> np.ndarray:
    """Matrix of sample variances of Z(p_i) - Z(p_j) across draws, with an
    exact zero diagonal."""
    draws = sample.draws
    if draws.shape[0] < 2:
        raise TooFewSamplesError(
            f"variogram needs at least 2 draws, got {draws.shape[0]}"
        )
    cov = np.atleast_2d(np.cov(draws, rowvar=False, ddof=1))
    diag = np.diag(cov)
    out = diag[:, None] + diag[None, :] - 2.0 * cov
    np.fill_diagonal(out, 0.0)
    return out
