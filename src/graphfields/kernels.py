"""Radial covariance families, validity certificates, and structure checks.

Four parametric families of radial profiles are provided (power exponential,
Matern, generalized Cauchy, Dagum), each normalized so C(0) = 1 and each
restricted to the parameter ranges under which ``C(distance)`` stays a valid
covariance on every graph when distance is the resistance metric, and on
graphs assembled purely from bridges and simple cycles when distance is the
geodesic metric.  A covariance matrix evaluates its profile once per
unordered pair, on row blocks of the upper triangle of the (exactly
symmetric) distance matrix, and mirrors each block below the diagonal; the
values equal the entrywise evaluation bit for bit.

The Matern profile z^nu K_nu(z) / (2^(nu-1) Gamma(nu)), z = beta t, is
exactly exp(-z) at nu = 1/2.  Otherwise entries with z below ``_KV_Z0`` = 2
call ``scipy.special.kv``, and the others sum a trapezoidal rule for
e^z K_nu(z) whose step is fixed per octave band [2^k, 2^(k+1)) of z: one
``exp`` and about three multiply-adds per node, 17 to 23 nodes, instead of
one library call per entry.  The sum stays within 2e-15 relative of
mpmath's ``besselk``, and each entry's band comes from its own value, so a
value does not depend on the other entries.  z_0 = 2 is where ``kv`` leaves
its small-z series, which is off by up to 2e-13 relative just below 2;
above 2 the two agree within 2e-16 absolute in the profile, so the
covariances move by no more than that.

Beyond kernel evaluation the module certifies covariance matrices.  A
covariance matrix is proved positive definite by one Cholesky factorization
of a slightly shifted copy (Rump's test, :func:`_proves_positive_definite`);
only a matrix that the proof does not cover gets :func:`psd_check`, a
relative band around its ``eigvalsh`` eigenvalues.  The module also
constructs an explicit six-point witness showing that graphs containing
three disjoint routes between two points break the exponential family under
the geodesic metric, and implements the degree-based bound and covariance
inequalities that any valid radial profile must satisfy on star-shaped
networks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg.lapack import dpotrf as _dpotrf
from scipy.special import gamma as _gamma
from scipy.special import kv as _bessel_kv

from .errors import (
    DuplicatePointsError,
    NonFiniteError,
    NOutOfRangeError,
    ParamOutOfRangeError,
)
from .graph import EuclideanGraph, _as_float, build_graph, vertex_point
from .metrics import MetricKind, ResistanceContext, canonical_points, distance_matrix

PSD_REL_TOL = 1e-9

# Rows of the upper triangle that covariance_from_distances hands to one
# radial_profile call.  The square diagonal block of each call is evaluated
# on both sides of the diagonal, m * _ROW_BLOCK / 2 profile values in all;
# 32 keeps that waste at 6 % of the m^2 / 2 pairs at m = 500 while the
# per-call overhead stays below the noise for the cheap families.
_ROW_BLOCK = 32
_BELOW_DIAGONAL = np.tri(_ROW_BLOCK, k=-1, dtype=bool)

_BETA_SCAN_RANGE = (1e-3, 1e3)
_BETA_SCAN_COUNT = 200


class KernelFamily(str, Enum):
    POWER_EXPONENTIAL = "power_exponential"
    MATERN = "matern"
    GENERALIZED_CAUCHY = "generalized_cauchy"
    DAGUM = "dagum"


@dataclass(frozen=True)
class KernelSpec:
    """One radial family with its parameters; ``xi`` only applies to the
    generalized Cauchy and Dagum families.

    A spec is valid by construction: ``family`` is coerced to
    :class:`KernelFamily` and the parameters are checked once, so every
    existing spec lies in its family's validity range.
    """

    family: KernelFamily
    alpha: float
    beta: float
    xi: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", KernelFamily(self.family))
        self._validate()

    def _validate(self) -> None:
        """Reject parameters outside the family's validity range."""
        family, alpha, beta, xi = self.family, self.alpha, self.beta, self.xi
        if not all(math.isfinite(x) for x in (alpha, beta, xi) if x is not None):
            raise ParamOutOfRangeError("alpha/beta/xi", "finite numbers")
        _check_range(beta > 0, "beta", "beta > 0")
        if family is KernelFamily.POWER_EXPONENTIAL:
            _check_range(0 < alpha <= 1, "alpha", "0 < alpha <= 1")
            _check_range(xi is None, "xi", "not used by power_exponential")
        elif family is KernelFamily.MATERN:
            _check_range(0 < alpha <= 0.5, "alpha", "0 < alpha <= 1/2")
            _check_range(xi is None, "xi", "not used by matern")
        elif family is KernelFamily.GENERALIZED_CAUCHY:
            _check_range(0 < alpha <= 1, "alpha", "0 < alpha <= 1")
            _check_range(xi is not None and xi > 0, "xi", "xi > 0")
        elif family is KernelFamily.DAGUM:
            _check_range(0 < alpha <= 1, "alpha", "0 < alpha <= 1")
            _check_range(xi is not None and 0 < xi <= 1, "xi", "0 < xi <= 1")


def _check_range(ok: bool, fieldname: str, allowed: str) -> None:
    if not ok:
        raise ParamOutOfRangeError(fieldname, allowed)


def radial_profile(spec: KernelSpec, t):
    """Evaluate C(t) for a spec; C(0) = 1 for every family.

    Accepts scalars or arrays of nonnegative distances (NaN is refused); at
    ``t = inf`` every family is 0.  The Matern form is divided by its own
    limit at 0 so that it is a correlation like the other families; at
    t = 0 the product form is a removable singularity and is evaluated as
    exactly 1.
    """
    family = spec.family
    arr = np.asarray(t, dtype=float)
    if not (arr >= 0).all():
        raise ValueError("distances must be nonnegative")
    alpha, beta, xi = spec.alpha, spec.beta, spec.xi
    # Every family is a function of s = beta t^alpha (Matern: z = beta t);
    # an s that overflows to inf is the limit t -> inf, where every family
    # is 0.
    with np.errstate(over="ignore"):
        s = beta * (arr if family is KernelFamily.MATERN else arr**alpha)
    if family is KernelFamily.POWER_EXPONENTIAL:
        out = np.exp(-s)
    elif family is KernelFamily.MATERN:
        out = _matern(alpha, s.ravel()).reshape(arr.shape)
    elif family is KernelFamily.GENERALIZED_CAUCHY:
        out = (s + 1.0) ** (-xi / alpha)
    else:
        # s / (1 + s) tends to 1 as s grows; at s = inf it would be NaN.
        ratio = np.divide(s, 1.0 + s, out=np.ones_like(s), where=s < np.inf)
        out = 1.0 - ratio ** (xi / alpha)
    return float(out) if np.isscalar(t) else out


# -- Matern profile -----------------------------------------------------------

# Below _KV_Z0 the Matern profile calls scipy's K_nu (AMOS).  AMOS leaves its
# small-z series at 2, and that series is off by up to 2e-13 relative just
# below 2 (6.4e-14 at nu = 1/4, 1.8e-13 at nu = 0.108); from 2 on, AMOS and
# the trapezoidal rule of _scaled_kv agree within 2e-16 absolute in the
# profile.  So moving z_0 below 2 would move covariances by up to 1e-14.
_KV_Z0 = 2.0
# Step h and node count n of the trapezoidal rule on the octave bands
# [2, 4), [4, 8), ..., [512, 1024) of z.  Each h is the largest, and then
# each n the smallest, for which the rule, summed in 40-digit arithmetic,
# stays within 1e-17 relative of mpmath's besselk at nu = 1e-6, 0.1, 0.25
# and 0.4999 on nine points of its band: the rule's own error is far below
# the rounding of the float sum.  Past the last band e^-z has underflowed
# (at z = 745), and the profile is 0.
_KV_BANDS = (
    (0.1869, 23),
    (0.1586, 19),
    (0.1219, 17),
    (0.0874, 17),
    (0.0620, 17),
    (0.0439, 17),
    (0.0310, 17),
    (0.0219, 17),
    (0.0155, 17),
)
_KV_ZMAX = _KV_Z0 * 2.0 ** len(_KV_BANDS)


def _band_nodes(h: float, n: int):
    """A band's rule without its nu part: h^2, and at the nodes u = j h
    (j = 0..n) asinh(u / sqrt 2) and h g(u) / cosh(2 nu asinh(u / sqrt 2))
    = 2 h / sqrt(u^2 + 2), halved at u = 0 (see :func:`_scaled_kv`)."""
    u = h * np.arange(n + 1)
    weight = 2.0 * h / np.sqrt(u * u + 2.0)
    weight[0] /= 2.0
    return h * h, np.arcsinh(u / math.sqrt(2.0)), weight


_KV_NODES = tuple(_band_nodes(h, n) for h, n in _KV_BANDS)


def _scaled_kv(nu: float, z: np.ndarray) -> np.ndarray:
    """e^z K_nu(z) on a 1-D array of z in [_KV_Z0, _KV_ZMAX).

    With cosh t = 1 + u^2, K_nu(z) = int_0^inf e^(-z cosh t) cosh(nu t) dt
    becomes e^-z int_0^inf e^(-z u^2) g(u) du with
    g(u) = 2 cosh(2 nu asinh(u / sqrt 2)) / sqrt(u^2 + 2), which is even and
    analytic for |Im u| < sqrt 2.  The trapezoidal rule
    h (g(0) / 2 + sum_j e^(-z h^2 j^2) g(j h)) therefore converges
    geometrically in 1/h (Trefethen and Weideman, SIAM Rev. 56, 2014), and
    the Gaussian factor bounds the number of nodes.  Each z takes the step
    and node count of its own octave band, so its value does not depend on
    the other entries.  The weights w_j = q^(j^2), q = e^(-z h^2), come from
    w_(j+1) = w_j r_j and r_(j+1) = r_j q^2, with r_j = q^(2j+1).
    """
    band = (np.frexp(z)[1] - 2).astype(np.int8)
    order = np.argsort(band, kind="stable")
    zs = z[order]
    sums = np.empty_like(zs)
    start = 0
    counts = np.bincount(band, minlength=len(_KV_NODES))
    for (h2, asinh_u, weight), count in zip(_KV_NODES, counts):
        if not count:
            continue
        zb = zs[start : start + count]
        c = weight * np.cosh((2.0 * nu) * asinh_u)
        q = np.exp(-h2 * zb)
        q2 = q * q
        w = q.copy()
        r = q2 * q
        acc = c[1] * w
        acc += c[0]
        for cj in c[2:]:
            w *= r
            r *= q2
            acc += cj * w
        sums[start : start + count] = acc
        start += count
    out = np.empty_like(z)
    out[order] = sums
    return out


def _matern(nu: float, z: np.ndarray) -> np.ndarray:
    """z^nu K_nu(z) / (2^(nu-1) Gamma(nu)) on a 1-D array of z >= 0, with
    its limit 1 at z = 0; exactly exp(-z) at nu = 1/2."""
    if nu == 0.5:
        return np.exp(-z)
    norm = 2.0 ** (nu - 1.0) * _gamma(nu)
    # 1 at z = 0, and 0 from _KV_ZMAX on, where e^-z has underflowed.
    out = np.where(z > 0, 0.0, 1.0)
    near = (z > 0) & (z < _KV_Z0)
    zn = z[near]
    out[near] = zn**nu * _bessel_kv(nu, zn) / norm
    far = (z >= _KV_Z0) & (z < _KV_ZMAX)
    zf = z[far]
    out[far] = zf**nu * _scaled_kv(nu, zf) / norm * np.exp(-zf)
    return out


# -- PSD certification -------------------------------------------------------

# Unit roundoff and smallest positive (subnormal) number of float64.
_U = 2.0**-53
_ETA = 2.0**-1074


@dataclass(frozen=True)
class PsdReport:
    """A PSD verdict.  With eigenvalues it is :func:`psd_check`'s band
    verdict; without (``min_eig`` and ``max_eig`` None) it is a proof that
    the matrix is positive definite."""

    min_eig: float | None
    max_eig: float | None
    is_psd: bool

    @property
    def verdict(self) -> str:
        return "psd" if self.is_psd else "not_psd"


def _check_rel_tol(rel_tol: float) -> None:
    _check_range(
        math.isfinite(rel_tol) and rel_tol >= 0, "rel_tol", "finite and >= 0"
    )


def psd_check(m, rel_tol: float = PSD_REL_TOL) -> PsdReport:
    """Certify positive semi-definiteness up to a relative eigenvalue band.

    The input is symmetrized as (M + M^T)/2 first; the verdict is PSD when
    its ``eigvalsh`` estimate min_eig >= -rel_tol * max(|max_eig|, 1).  The
    report always carries both eigenvalues.  ``rel_tol`` must be finite and
    nonnegative: a NaN or negative band would report a positive definite
    matrix as not PSD.
    """
    _check_rel_tol(rel_tol)
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteError("matrix contains non-finite entries")
    sym = 0.5 * (arr + arr.T)
    eigenvalues = np.linalg.eigvalsh(sym)
    min_eig = float(eigenvalues[0])
    max_eig = float(eigenvalues[-1])
    return PsdReport(min_eig, max_eig, min_eig >= -rel_tol * max(abs(max_eig), 1.0))


def _proves_positive_definite(a: np.ndarray) -> bool:
    """True only if the exactly symmetric float matrix ``a`` is positive
    definite: LAPACK's Cholesky of H = fl(A - cI) ran to completion.

    Let m be the order, u = 2^-53, gamma = gamma_(m+1) with
    gamma_k = k u / (1 - k u), and eta = 2^-1074.  If the Cholesky factor R
    of H is computed without underflow, R^T R = H + dH with
    |dH| <= gamma |R^T| |R| entrywise (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Thm 10.3).  Write r_i for column i of R.
    By Cauchy-Schwarz |r_i|^T |r_j| <= ||r_i|| ||r_j||, so for a unit
    vector x, |x^T dH x| <= gamma (sum_i ||r_i|| |x_i|)^2
    <= gamma sum_i ||r_i||^2; and ||r_i||^2 = h_ii + dh_ii gives
    ||r_i||^2 <= h_ii / (1 - gamma).  A pivot <= 0 stops the factorization,
    so h_ii > 0 and a_ii > c, and h_ii = (a_ii - c)(1 + d_i) with
    |d_i| <= u.  Together,

        x^T A x = x^T R^T R x - x^T dH x + c - sum_i (a_ii - c) d_i x_i^2
               >= c - gamma / (1 - gamma) (1 + u) tr(A) - u max_i a_ii.

    Underflow adds at most eta to a product and nothing to a sum, so at
    most tau = (2m + 2 + max_i a_ii) eta to an entry of dH: 2m eta through
    an inner product, and eta times the pivot's root r_jj <= 1 + max_i a_ii
    through a division by it.  That is m tau more on |x^T dH x|, and at most
    m tau more through ||r_i||^2 <= (h_ii + tau) / (1 - gamma).  Hence A is
    positive definite when

        c > gamma / (1 - gamma) (1 + u) tr(A) + u max_i a_ii
            + 2m (2m + 2 + max_i a_ii) eta,

    which is about 2.8e-11 for a unit diagonal at m = 500.  ``c`` is that
    sum, with the trace summed by ``math.fsum``, times 1 + 2^-40, which
    covers the factor 1 + u and the rounding of the dozen operations that
    form it.  This is Rump's test (Verification of positive definiteness,
    BIT 46, 2006), whose corollary takes a shift of this form.  The bound
    assumes IEEE round to nearest with gradual underflow, and holds for any
    order of summation, so for the blocked and recursive factorizations
    that LAPACK's ``dpotrf`` runs; for a division by a pivot taken as a
    multiplication by its reciprocal, one more rounding that gamma_(m+1)
    leaves room for; and for fused multiply-adds, which only remove
    roundings.

    An empty matrix, one with a non-finite entry and one with a diagonal
    entry <= 0 are not proved.  OpenBLAS's ``dpotrf`` stops on a pivot <= 0
    but not on a NaN one, which an overflow could leave, so the pivots it
    leaves on the diagonal must be finite too.  The test reads one
    triangle; ``a`` is left unchanged.
    """
    m = a.shape[0]
    diag = a.diagonal()
    if not m or not np.isfinite(a).all() or not (diag > 0.0).all():
        return False
    gamma = (m + 1) * _U / (1.0 - (m + 1) * _U)
    dmax = float(diag.max())
    shift = (1.0 + 2.0**-40) * (
        gamma / (1.0 - gamma) * math.fsum(diag.tolist())
        + _U * dmax
        + 2.0 * m * (2.0 * m + 2.0 + dmax) * _ETA
    )
    if not math.isfinite(shift):
        return False
    h = a.copy()
    h.flat[:: m + 1] -= shift
    # h is symmetric, so h.T is the same matrix in the Fortran order that
    # dpotrf factors in place.
    _, info = _dpotrf(h.T, lower=1, clean=0, overwrite_a=1)
    return info == 0 and bool(np.isfinite(h.diagonal()).all())


def _certificate(values: np.ndarray, rel_tol: float) -> PsdReport:
    """The proof of :func:`_proves_positive_definite` when it holds, else
    :func:`psd_check`; ``rel_tol`` is checked either way."""
    _check_rel_tol(rel_tol)
    if _proves_positive_definite(values):
        return PsdReport(min_eig=None, max_eig=None, is_psd=True)
    return psd_check(values, rel_tol)


@dataclass(frozen=True)
class CovarianceMatrix:
    """A covariance matrix over labeled points with its PSD certificate.

    ``psd_certificate`` is computed once, when the matrix is built: a proof
    of positive definiteness without eigenvalues when the shifted Cholesky
    test holds, else :func:`psd_check` of ``values``.  A proof implies the
    band verdict at any ``rel_tol`` above ``eigvalsh``'s own error, about
    m u times the largest eigenvalue.  :func:`sample_from_covariance` reads
    the certificate instead of decomposing the matrix again.
    """

    labels: tuple[str, ...]
    values: np.ndarray
    psd_certificate: PsdReport


def covariance_from_distances(dm: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Apply a radial profile to a square distance matrix; unit diagonal.

    Like ``numpy.linalg.eigvalsh``, this reads only the upper triangle of
    ``dm`` (diagonal included): the profile is evaluated once per unordered
    pair, in blocks of ``_ROW_BLOCK`` rows of the upper triangle, and each
    block is mirrored below the diagonal.  The result is exactly symmetric,
    and for a symmetric ``dm`` (as ``distance_matrix`` returns) it equals
    the entrywise profile with a unit diagonal bit for bit.
    """
    dm = np.asarray(dm, dtype=float)
    if dm.ndim != 2 or dm.shape[0] != dm.shape[1]:
        raise ValueError(f"expected a square distance matrix, got shape {dm.shape}")
    m = dm.shape[0]
    out = np.empty((m, m))
    for s in range(0, m, _ROW_BLOCK):
        e = min(s + _ROW_BLOCK, m)
        rows = dm[s:e, s:].copy()
        square = rows[:, : e - s]
        np.copyto(square, square.T, where=_BELOW_DIAGONAL[: e - s, : e - s])
        block = radial_profile(spec, rows)
        out[s:e, s:] = block
        out[e:, s:e] = block[:, e - s :].T
    np.fill_diagonal(out, 1.0)
    return out


def covariance_matrix(
    g: EuclideanGraph,
    points,
    spec: KernelSpec,
    kind: MetricKind,
    *,
    origin: str | None = None,
    ctx: ResistanceContext | None = None,
    rel_tol: float = PSD_REL_TOL,
    min_separation: float | None = None,
) -> CovarianceMatrix:
    """Covariance matrix C(d(p_i, p_j)) over a point set with a certificate.

    ``origin`` and ``ctx`` are passed to :func:`distance_matrix`, which
    reads the point table built here without building it again.
    ``min_separation`` optionally rejects point pairs closer than the given
    distance, which a caller may use to keep near-duplicates from producing
    numerically borderline certificates.
    """
    pts = canonical_points(g, points)
    dm = distance_matrix(g, pts, kind, origin=origin, ctx=ctx)
    if min_separation is not None and len(pts) > 1:
        off_diag = dm[~np.eye(len(pts), dtype=bool)]
        closest = float(off_diag.min())
        if closest < min_separation:
            raise DuplicatePointsError(
                f"two points are at distance {closest}, below the required "
                f"separation {min_separation}"
            )
    values = covariance_from_distances(dm, spec)
    return CovarianceMatrix(
        labels=pts.labels,
        values=values,
        psd_certificate=_certificate(values, rel_tol),
    )


# -- six-point witness against the geodesic exponential family ---------------


@dataclass(frozen=True)
class ForbiddenWitness:
    """Explicit certificate that a graph with three disjoint routes between
    two points admits no exponential covariance under the geodesic metric.

    ``quadratic_form`` is the value of the witness vector's quadratic form in
    the embedding Gram matrix of the six-point configuration; a negative
    value certifies the failure.  ``beta_found`` records the smallest rate in
    a log-spaced scan for which exp(-beta * distance) on the six points has a
    clearly negative eigenvalue (None if the bounded scan found none, which
    is reported rather than treated as validity).
    """

    t: float
    r: float
    xi_value: float
    quadratic_form: float
    beta_found: float | None
    negative_eigenvalue: float | None


def theta_witness_graph(t: float, r: float) -> tuple[EuclideanGraph, list]:
    """Theta graph and the six labeled points of the witness configuration.

    Two junction vertices are joined by three internally disjoint routes of
    lengths 2 (through two subdivision points), 2t, and 2r; requires
    0 < t <= 1/2 and t <= r <= 1 so that every quoted pairwise distance is
    realized as a geodesic.
    """
    _check_range(0 < t <= 0.5, "t", "0 < t <= 1/2")
    _check_range(0 < r <= 1, "r", "0 < r <= 1")
    _check_range(t <= r, "t", "t <= r (longer middle route would reroute the witness distances)")
    g = build_graph(
        ["u1", "u2", "u3", "u4", "u5", "u6"],
        [
            ("a12", "u1", "u2", t),
            ("a23", "u2", "u3", 1.0 - t),
            ("a15", "u1", "u5", 1.0),
            ("b36", "u3", "u6", t),
            ("b65", "u6", "u5", t),
            ("c34", "u3", "u4", r),
            ("c45", "u4", "u5", r),
        ],
    )
    points = [vertex_point(f"u{k}") for k in range(1, 7)]
    return g, points


def forbidden_certificate(t: float, r: float) -> ForbiddenWitness:
    """Build the six-point witness and scan for a failing exponential rate.

    The Gram matrix is formed over the five non-base points, the witness
    vector is (-1, -xi, xi, -1, 1) with xi = t/r (the midpoint of the open
    interval of working values, maximizing the negative margin t^2/r), and
    exp(-beta * d) is scanned over a log grid of rates for a negative
    eigenvalue.
    """
    g, points = theta_witness_graph(t, r)
    dm = distance_matrix(g, points, MetricKind.GEODESIC)
    sigma = 0.5 * (dm[1:, 0][:, None] + dm[0, 1:][None, :] - dm[1:, 1:])
    xi = t / r
    witness = np.array([-1.0, -xi, xi, -1.0, 1.0])
    quadratic_form = float(witness @ sigma @ witness)

    beta_found = None
    negative_eigenvalue = None
    lo, hi = _BETA_SCAN_RANGE
    for beta in np.geomspace(lo, hi, _BETA_SCAN_COUNT):
        report = psd_check(np.exp(-beta * dm))
        if not report.is_psd:
            beta_found = float(beta)
            negative_eigenvalue = report.min_eig
            break
    return ForbiddenWitness(
        t=float(t),
        r=float(r),
        xi_value=xi,
        quadratic_form=quadratic_form,
        beta_found=beta_found,
        negative_eigenvalue=negative_eigenvalue,
    )


# -- star-shaped restriction checks ------------------------------------------


def smoothness_bound(n: int) -> float:
    """Largest small-distance variogram exponent a field can have around a
    degree-n junction: log2(2n / (n - 1))."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 2:
        raise NOutOfRangeError(f"n must be an integer >= 2, got {n!r}")
    return math.log2(2.0 * n / (n - 1.0))


@dataclass(frozen=True)
class StarInequalityResult:
    t: float
    lower_ok: bool
    upper_ok: bool
    cross_ok: bool

    @property
    def passed(self) -> bool:
        return self.lower_ok and self.upper_ok and self.cross_ok


def star_inequality_check(profile, n: int, t_values) -> list[StarInequalityResult]:
    """Necessary inequalities for a radial profile on an n-edge star.

    For points at distance t along each of the n arms:
        -C(0)/(n-1) <= C(2t) <= C(0)
        (n*C(t)^2 - C(0)^2) / (n-1) <= C(0)*C(2t)
    Violations demonstrate the profile cannot be a covariance on that star
    (e.g. any compactly supported profile fails for large enough n).
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 2:
        raise NOutOfRangeError(f"n must be an integer >= 2, got {n!r}")
    c0 = float(profile(0.0))
    if not math.isfinite(c0):
        raise NonFiniteError("profile is not finite at 0")
    slack = 1e-12 * max(1.0, abs(c0))
    results = []
    for t in t_values:
        t = float(t)
        ct = float(profile(t))
        c2t = float(profile(2.0 * t))
        lower_ok = -c0 / (n - 1) <= c2t + slack
        upper_ok = c2t <= c0 + slack
        cross_ok = (n * ct * ct - c0 * c0) / (n - 1) <= c0 * c2t + slack
        results.append(StarInequalityResult(t, lower_ok, upper_ok, cross_ok))
    return results


# -- JSON wire format ---------------------------------------------------------


# The family spellings accepted on the wire, after strip/lower: the four
# canonical names plus "cauchy", the README's short name.
_WIRE_FAMILIES = {f.value: f for f in KernelFamily} | {
    "cauchy": KernelFamily.GENERALIZED_CAUCHY
}


def kernel_spec_to_json(spec: KernelSpec) -> dict:
    out = {"family": spec.family.value, "alpha": spec.alpha, "beta": spec.beta}
    if spec.xi is not None:
        out["xi"] = spec.xi
    return out


def _number(obj: dict, key: str) -> float:
    try:
        return _as_float(obj[key])
    except KeyError as exc:
        raise ParamOutOfRangeError(key, "required") from exc
    except (TypeError, ValueError) as exc:
        raise ParamOutOfRangeError(key, "a number") from exc


def kernel_spec_from_json(obj: dict) -> KernelSpec:
    family = None
    if isinstance(obj, dict) and "family" in obj:
        family = _WIRE_FAMILIES.get(str(obj["family"]).strip().lower())
    if family is None:
        raise ParamOutOfRangeError(
            "family", "one of " + ", ".join(sorted(f.value for f in KernelFamily))
        )
    alpha, beta = _number(obj, "alpha"), _number(obj, "beta")
    xi = _number(obj, "xi") if obj.get("xi") is not None else None
    return KernelSpec(family=family, alpha=alpha, beta=beta, xi=xi)
