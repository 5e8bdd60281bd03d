"""Gaussian field simulation on graphs and empirical variograms.

Two samplers are provided.  ``sample_from_covariance`` draws from a certified
``CovarianceMatrix``: it reads the PSD certificate that ``covariance_matrix``
computed (a proof, or an eigenvalue band where the proof does not hold) and
factors the values by the proof's Cholesky routine.  The constructive
``sample_canonical_field`` never forms the point covariance: it builds the
canonical field as the paper defines it, a vertex field with covariance
``L^-1``, shifted to the origin, linearly interpolated along each edge, plus
an independent Brownian bridge on each edge.  Its vertex field is white
noise colored by ``metrics._vertex_coloring``, the one reader of the layout
of the graph's factor of ``L``.  The empirical variogram of such samples
converges to the resistance distance, which verifies the metric end to end.
It is accumulated in one pass over blocks of draws, in memory that grows
with the square of the point count and not with the number of draws; the
CLI ``variogram`` feeds it the canonical sampler's blocks as they are drawn
and never holds the draws.

Reproducibility: every draw takes all its normals from one stream, the
Philox generator over ``SeedSequence(seed, spawn_key=(0,))`` (the first
child of ``SeedSequence(seed).spawn``), so draws are bit-identical for a
given seed; this module makes every call on it.  The canonical sampler
takes them ``_DRAW_BLOCK`` draws at a time (fewer in the last block), in
this order: the vertex normals (one row per draw, one normal per vertex, in
the factor's order), one normal ``xi`` per draw for the origin, then the
bridge normals (one row per draw, one normal per distinct interior point, by
edge position, then offset).  No other block size decides output bits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsyr as _dsyr, dsyrk as _dsyrk

from .errors import NotPSDError, ParamOutOfRangeError, TooFewSamplesError
from .kernels import CovarianceMatrix, _cholesky
from .metrics import ResistanceContext, _PointTable, _vertex_coloring, canonical_points

# Jitter added to a covariance diagonal when its factorization is borderline;
# never exceeds this factor times the largest diagonal entry.
JITTER_SCALE = 1e-10

# Canonical draws are made and variograms folded this many at a time; the
# stream's layout depends on it, so a new value changes every canonical draw.
_DRAW_BLOCK = 64


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
            for i in range(1, len(factor)):
                factor[i, :i] = 0.0
            return factor, added
    raise NotPSDError("covariance matrix is not positive semi-definite enough to factorize")


def _stream(seed: int, n: int) -> np.random.Generator:
    """The one stream of ``seed`` for ``n`` draws; see the module docstring.
    Both samplers call it first: it refuses an ``n`` that is not an integer
    >= 1 and a seed that is not one >= 0 (a bool is not an integer)."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ParamOutOfRangeError("n", "an integer >= 1", f"n must be an integer, got {n!r}")
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


def _canonical_blocks(ctx: ResistanceContext, points, n: int, seed: int):
    """The point table of ``points`` and a generator of ``n`` canonical
    draws at its points, in blocks of at most ``_DRAW_BLOCK`` rows.

    The seed and ``n`` are checked, and the factor and bridges prepared,
    before this returns; no normal is drawn until the first block is asked
    for.  Per block, white noise colored by :func:`metrics._vertex_coloring`
    gives the vertex field ``Z_0`` (covariance ``L^-1``, grounded at vertex
    0).  It is shifted to the origin ``o``, ``Z = Z_0 - Z_0(o) + xi`` with
    ``xi ~ N(0, 1)``, and read at the points as ``W Z`` over the endpoint
    vertices ``ends`` of the point table: ``w_lo Z(u) + w_hi Z(v)`` at
    offset ``s`` of an edge ``(u, v)`` of length ``l``, through the map
    ``W`` that :func:`metrics.resistance_matrix` reads too, plus the edge's
    bridge (:func:`_bridges`).  The normals are taken in the order of the
    module docstring, and the points have exactly the canonical covariance.
    """
    rng = _stream(seed, n)
    g = ctx.graph
    pts = canonical_points(g, points)
    carry, sd, col, steps = _bridges(pts)
    color = _vertex_coloring(g, [*pts.ends, g.vertex_index(ctx.origin)])

    def blocks():
        for s in range(0, n, _DRAW_BLOCK):
            k = min(_DRAW_BLOCK, n - s)
            x = color(rng.standard_normal((k, len(g.vertices))).T)  # the ends, then the origin
            z = x[:-1]
            z -= x[-1]
            z += rng.standard_normal(k)
            bridge = np.zeros((k, sd.size + 1))
            bridge[:, :-1] = rng.standard_normal((k, sd.size)) * sd
            for at in steps:
                bridge[:, at] += carry[at] * bridge[:, at - 1]
            block = bridge[:, col]
            block += (pts.W @ z).T
            yield block

    return pts, blocks()


def sample_canonical_field(
    ctx: ResistanceContext, points, n: int, seed: int
) -> FieldSample:
    """Constructively sample the canonical field at a finite point set:
    the blocks of :func:`_canonical_blocks`, one row per draw."""
    pts, blocks = _canonical_blocks(ctx, points, n, seed)
    draws = np.empty((n, len(pts)))
    for s, block in zip(range(0, n, _DRAW_BLOCK), blocks):
        draws[s : s + _DRAW_BLOCK] = block
    return FieldSample(labels=pts.labels, draws=draws, seed=int(seed))


# A pair whose variogram is below this fraction of its larger variance is
# summed directly; see _near_pairs.
_NEAR = 1e-6


def _near_pairs(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs ``i < j`` whose ``a_ii + a_jj - 2 a_ij`` is below
    ``_NEAR * max(a_ii, a_jj)``, read from the upper triangle of ``gram``.

    Formed from an accumulated Gram, a variogram entry carries an absolute
    rounding error of about ``u (k + n / k) max(a_ii, a_jj)`` for unit
    roundoff ``u`` and blocks of ``k`` draws: each entry sums ``k``
    products per block and then one term per block.  Above the threshold
    that is at most ``1.1e-16 (k + n / k) / _NEAR`` of the entry: 4e-8 at
    ``n = 20000``, and below the sampling error ``sqrt(2 / n)`` for ``n`` up
    to about ``1e8``.  So only pairs below it are worth a direct sum.  On
    the benchmark's 30 x 30 grid, the closest two of 200 random sites have
    a variogram 3e-4 of their variance (seeds 1 to 20), and none is flagged.
    """
    d = gram.diagonal()
    rows, cols = [], []
    for s in range(0, len(d), _DRAW_BLOCK):
        e = min(s + _DRAW_BLOCK, len(d))
        lost = d[:e, None] + d[s:e]
        lost -= 2.0 * gram[:e, s:e]
        i, j = np.nonzero(lost < _NEAR * np.maximum(d[:e, None], d[s:e]))
        j += s
        upper = i < j
        rows.append(i[upper])
        cols.append(j[upper])
    return np.concatenate(rows), np.concatenate(cols)


def _variogram(n: int, blocks) -> np.ndarray:
    """The sample variogram of ``n`` draws given as row blocks of at most
    ``_DRAW_BLOCK`` rows, in one pass and ``O(m^2)`` memory for ``m``
    points, whatever ``n``; fewer than two draws are refused before the
    first block is read.

    This is the shifted block update of Chan, Golub and LeVeque (Am. Stat.
    37, 1983): each block ``x`` is shifted by the first block's column means
    ``c`` and folded, in place by BLAS ``dsyrk``, into the upper triangle of
    one Gram ``A = sum (x - c)^T (x - c)``, beside the column sums
    ``t = sum (x - c)``.  The covariance is ``a = (A - t t^T / n) / (n - 1)``
    and the variogram ``a_ii + a_jj - 2 a_ij``, with a zero diagonal.  The
    pairs that subtraction would leave with few digits (:func:`_near_pairs`
    of the first block) instead take the shifted sums of squares of
    ``Z_i - Z_j``, accumulated directly.
    """
    if n < 2:
        raise TooFewSamplesError(f"variogram needs at least 2 draws, got {n}")
    gram = None
    for block in blocks:
        # Reductions over a block are summed in its memory order.
        block = np.ascontiguousarray(block, dtype=float)
        first = gram is None
        if first:
            m = block.shape[1]
            if not m:
                return np.zeros((0, 0))
            shift, total = block.mean(axis=0), np.zeros(m)
            gram, buf = np.zeros((m, m), order="F"), np.empty((_DRAW_BLOCK, m))
        y = np.subtract(block, shift, out=buf[: len(block)])
        total += y.sum(axis=0)
        gram = _dsyrk(1.0, y.T, beta=1.0, c=gram, overwrite_c=1)
        if first:
            i, j = _near_pairs(gram)
            near_shift, squares, sums = np.empty(len(i)), np.zeros(len(i)), np.zeros(len(i))
        for at in range(0, len(i), m):
            part = slice(at, at + m)
            diff = block[:, i[part]] - block[:, j[part]]
            if first:
                near_shift[part] = diff.mean(axis=0)
            diff -= near_shift[part]
            sums[part] += diff.sum(axis=0)
            squares[part] += (diff * diff).sum(axis=0)
    gram = _dsyr(-1.0 / n, total, a=gram, overwrite_a=1)
    # The C-ordered transpose holds the covariance in its lower triangle;
    # each row block takes its upper part from the rows below it.
    out = gram.T
    out *= 1.0 / (n - 1)
    d = out.diagonal().copy()
    for s in range(0, m, _DRAW_BLOCK):
        e = min(s + _DRAW_BLOCK, m)
        rows = out[s:e]
        rows[:, e:] = out[e:, s:e].T
        rows[:, s:e] += np.tril(rows[:, s:e], -1).T
        rows *= -2.0
        rows += d[s:e, None] + d
    out[i, j] = out[j, i] = (squares - sums * sums / n) / (n - 1)
    np.fill_diagonal(out, 0.0)
    return out


def empirical_variogram(sample: FieldSample) -> np.ndarray:
    """Matrix of sample variances of Z(p_i) - Z(p_j) across draws, with an
    exact zero diagonal.

    The draws are read in blocks of ``_DRAW_BLOCK`` rows by
    :func:`_variogram`, in one pass, which needs two draws or more.  A pair
    whose variogram is tiny beside its variances (two points close together
    far from the origin) takes the variance of its differences directly,
    not the difference of covariances that would cancel.  The CLI
    ``variogram`` feeds the canonical sampler's blocks to the same function,
    so its matrix is this one of ``sample_canonical_field``'s draws, bit for
    bit.
    """
    draws, n = sample.draws, len(sample.draws)
    return _variogram(n, (draws[s : s + _DRAW_BLOCK] for s in range(0, n, _DRAW_BLOCK)))


def _canonical_variogram(ctx: ResistanceContext, points, n: int, seed: int):
    """The labels of ``points`` and the empirical variogram of ``n``
    canonical draws at them, folded block by block as they are drawn, so no
    ``n x m`` array is held; the matrix is
    ``empirical_variogram(sample_canonical_field(ctx, points, n, seed))``
    bit for bit.  What either refuses, this refuses before the first normal
    is drawn."""
    pts, blocks = _canonical_blocks(ctx, points, n, seed)
    return pts.labels, _variogram(n, blocks)
