"""Gaussian field simulation on graphs and empirical variograms.

Two samplers are provided.  ``sample_from_covariance`` draws from a certified
``CovarianceMatrix``: it reads the PSD certificate that ``covariance_matrix``
computed (a proof, or an eigenvalue band where the proof does not hold) and
factors the values by Cholesky.  The constructive
``sample_canonical_field`` never forms the point covariance: it draws the
vertex field of the graph subdivided at the sampled points, which has the
canonical law there, by a triangular solve against the sparse factor of its
conductance matrix ``L'`` and the map ``T`` from the unknowns of ``L'`` to
node potentials.  The empirical variogram of such samples
converges to the resistance distance, which verifies the metric end to end.

Reproducibility: every draw takes all its normals from one stream, the
Philox generator over ``SeedSequence(seed, spawn_key=(0,))`` (the first
child of ``SeedSequence(seed).spawn``), so draws are bit-identical for a
given seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.linalg import SuperLU, spsolve_triangular

from .errors import NotPSDError, TooFewSamplesError
from .graph import _SOLVE_COLUMNS, _factor
from .kernels import CovarianceMatrix
from .metrics import ResistanceContext, _subdivided, canonical_points

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
    try:
        return np.linalg.cholesky(cov), 0.0
    except np.linalg.LinAlgError:
        pass
    jitter = JITTER_SCALE * max(float(np.max(np.diag(cov))), 0.0)
    if jitter > 0.0:
        try:
            factor = np.linalg.cholesky(cov + jitter * np.eye(cov.shape[0]))
            warnings.warn(
                f"added diagonal jitter {jitter:g} to factorize covariance matrix",
                stacklevel=3,
            )
            return factor, jitter
        except np.linalg.LinAlgError:
            pass
    raise NotPSDError("covariance matrix is not positive semi-definite enough to factorize")


def _stream(seed: int) -> np.random.Generator:
    """The one stream of ``seed``; see the module docstring."""
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
    if n < 1:
        raise TooFewSamplesError(f"need at least 1 draw, got {n}")
    report = cov.psd_certificate
    if not report.is_psd:
        raise NotPSDError(
            f"covariance is not PSD (min eigenvalue {report.min_eig:g})"
        )
    factor, jitter = _chol_with_jitter(cov.values)
    normals = _stream(seed).standard_normal((n, cov.values.shape[0]))
    return FieldSample(
        labels=cov.labels, draws=normals @ factor.T, seed=int(seed), jitter=jitter
    )


def _vertex_field(
    upper: csr_array, root: np.ndarray, rng: np.random.Generator, n: int
) -> np.ndarray:
    """``n`` draws with covariance ``L^-1`` for ``L = P^T F D F^T P`` (see
    :func:`metrics._factor`), one per column: ``x`` solving
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


def sample_canonical_field(
    ctx: ResistanceContext, points, n: int, seed: int
) -> FieldSample:
    """Constructively sample the canonical field at a finite point set.

    The graph is subdivided at the points, and the vertex field of the
    subdivided graph is drawn by one triangular solve against the sparse
    factor of its conductance matrix ``L'`` (no explicit inverse), mapped to
    the points by the rows of ``T``.  The points have exactly the canonical
    covariance.
    """
    if n < 1:
        raise TooFewSamplesError(f"need at least 1 draw, got {n}")
    pts = canonical_points(ctx.graph, points)
    L, T, node = _subdivided(ctx, pts)
    lu = _factor(L)
    upper, root = _whitening(lu)
    rng, step = _stream(seed), _SOLVE_COLUMNS
    # Unknown i of L' is row perm_r[i] of a block of draws.
    rows = T[node][:, np.argsort(lu.perm_r)]
    blocks = [
        (rows @ _vertex_field(upper, root, rng, min(step, n - s))).T
        for s in range(0, n, step)
    ]
    return FieldSample(
        labels=pts.labels,
        draws=np.vstack(blocks),
        seed=int(seed),
    )


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
