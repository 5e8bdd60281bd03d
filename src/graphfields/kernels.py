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
exactly exp(-z) at nu = 1/2.  Otherwise it reads a table of
z^nu e^z K_nu(z), built once per nu and cached: each octave of z from 2^-5
to 2^10 is cut into 32 cells, each holding the degree-6 polynomial that
interpolates a trapezoidal rule for e^z K_nu(z) at its Chebyshev points.
An entry costs seven table reads and multiply-adds and one ``exp``; its
cell comes from its own bits, so a value does not depend on the other
entries.  On [2^-5, 700] the table is within 1.2e-15 relative of 40-digit
mpmath.  Below 2^-5 every entry sums the first five terms of the series of
K_nu at 0, each bracket taken by ``expm1`` so that nothing cancels at
small nu; it is within 4.5e-16 relative of mpmath down to the smallest
subnormal, and exactly 1 at z = 0.  From 2^10 on the profile is 0: e^-z
underflows past 745.  Only this table and series read special functions
(``Gamma`` and ``zeta``), so ``scipy.special`` is imported on the first
Matern evaluation at nu other than 1/2, not when the module loads.

Beyond kernel evaluation the module certifies covariance matrices.  A
covariance matrix is proved positive definite by one Cholesky factorization
of a slightly shifted copy (Rump's test, :func:`_proves_positive_definite`);
only a matrix that the proof does not cover gets :func:`psd_check`, a
relative band around its ``eigvalsh`` eigenvalues.  :func:`_cholesky` is
the one Cholesky routine of the package: the proof and the draws of
``simulate.sample_from_covariance`` both run it.  The module also
constructs an explicit six-point witness showing that graphs containing
three disjoint routes between two points break the exponential family under
the geodesic metric, and checks the covariance inequalities that any valid
radial profile must satisfy on star-shaped networks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg.lapack import dpotrf as _dpotrf

from .errors import (
    DuplicatePointsError,
    NonFiniteError,
    NOutOfRangeError,
    ParamOutOfRangeError,
)
from .graph import EuclideanGraph, _as_float, build_graph, vertex_point
from .metrics import MetricKind, canonical_points, distance_matrix

PSD_REL_TOL = 1e-9

# Rows of the upper triangle that _covariance_from_distances hands to one
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
    :class:`KernelFamily`, the parameters to plain floats (a bool is not a
    number), and they are checked once, so every existing spec lies in its
    family's validity range.
    """

    family: KernelFamily
    alpha: float
    beta: float
    xi: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", KernelFamily(self.family))
        for name in ("alpha", "beta", "xi"):
            value = getattr(self, name)
            if value is None and name == "xi":
                continue
            try:
                object.__setattr__(self, name, _as_float(value))
            except (TypeError, ValueError) as exc:
                raise ParamOutOfRangeError(name, "a number") from exc
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

# The Matern table covers the octaves [2^e, 2^(e+1)) of z for e in _OCTAVES,
# from _TABLE_Z0 on; below it the profile is the series of :func:`_matern`,
# and past the last octave e^-z has underflowed (at z = 745) and the profile
# is 0.  Each octave is cut into _CELLS equal cells, each holding a
# polynomial of degree _DEGREE in a local x in [-1, 1].  _CELLS is a power
# of two, so the cell of a float z is its bits shifted right by _CELL_BITS,
# less the shifted bits of _TABLE_Z0, and x comes from the bits below.
_OCTAVES = range(-5, 10)
_TABLE_Z0 = 2.0**_OCTAVES.start
_CELLS = 32
_DEGREE = 6
_CELL_BITS = 52 - int(math.log2(_CELLS))
_CELL_BASE = int(np.float64(_TABLE_Z0).view(np.int64)) >> _CELL_BITS

# The series below _TABLE_Z0 keeps the terms q^k, k < _SERIES_TERMS, of
# q = z^2 / 4 < 2^-12; the first one dropped is below 2^-70 of the sum.
# ln Gamma(1-nu) - ln Gamma(1+nu) = 2 (gamma nu + sum over odd k >= 3 of
# zeta(k) nu^k / k) does not cancel at small nu; past k = 53 the terms are
# below 2^-53 of the sum.
_SERIES_TERMS = 5
_ODD_K = np.arange(53, 2, -2)

# Interpolation at the Chebyshev points x_n = cos(theta_n) of a cell: the
# DCT-II that takes values there to Chebyshev coefficients.
_THETA = np.pi * (np.arange(_DEGREE + 1) + 0.5) / (_DEGREE + 1)
_DCT = 2.0 / (_DEGREE + 1) * np.cos(np.outer(_THETA, np.arange(_DEGREE + 1)))
_DCT[:, 0] /= 2.0


@functools.cache
def _special() -> tuple:
    """What only the Matern table and series read, imported and built on
    first use, so that a process that evaluates neither never loads
    ``scipy.special``: ``Gamma``, zeta(k) / k for the odd k of _ODD_K, and
    the matrix whose row j holds the monomial coefficients of T_j."""
    from numpy.polynomial.chebyshev import cheb2poly
    from scipy.special import gamma, zeta

    zeta_odd = zeta(_ODD_K) / _ODD_K
    cheb_to_mono = np.array(
        [np.pad(p, (0, _DEGREE + 1 - len(p))) for p in map(cheb2poly, np.eye(_DEGREE + 1))]
    )
    zeta_odd.flags.writeable = cheb_to_mono.flags.writeable = False
    return gamma, zeta_odd, cheb_to_mono


@functools.cache
def _rule() -> tuple:
    """The part of the trapezoidal rule for e^z K_nu(z) that does not depend
    on nu, at the Chebyshev points z of every cell of the table.

    With cosh t = 1 + u^2, K_nu(z) = int_0^inf e^(-z cosh t) cosh(nu t) dt
    becomes e^-z int_0^inf e^(-z u^2) g(u) du with
    g(u) = 2 cosh(2 nu asinh(u / sqrt 2)) / sqrt(u^2 + 2), which is even and
    analytic for |Im u| < sqrt 2.  The trapezoidal rule
    h (g(0) / 2 + sum_j e^(-z h^2 j^2) g(j h)) therefore converges
    geometrically in 1/h (Trefethen and Weideman, SIAM Rev. 56, 2014), and
    the Gaussian factor bounds the number of nodes.  On the octave from z_lo
    the step is h = min(0.18, 0.4 / sqrt(2 z_lo)) and the nodes run to
    u = sqrt(40 / z_lo), where e^(-z u^2) <= e^-40: the rule's own error is
    below 1e-17 relative, far below the rounding of its float sum.

    One tuple per octave: the points z, the factors e^(-z u^2) (a row per
    point), and at the nodes u the weights 2 h / sqrt(u^2 + 2), halved at
    u = 0, and asinh(u / sqrt 2).
    """
    x = np.cos(_THETA)
    octaves = []
    for e in _OCTAVES:
        z_lo = 2.0**e
        h = min(0.18, 0.4 / math.sqrt(2.0 * z_lo))
        u = h * np.arange(math.ceil(math.sqrt(40.0 / z_lo) / h) + 2)
        width = z_lo / _CELLS
        z = ((z_lo + width * np.arange(_CELLS))[:, None] + (0.5 * width) * (x + 1.0)).ravel()
        factors = np.multiply.outer(-z, u * u)
        np.exp(factors, out=factors)
        weight = 2.0 * h / np.sqrt(u * u + 2.0)
        weight[0] /= 2.0
        octave = (z, factors, weight, np.arcsinh(u / math.sqrt(2.0)))
        for a in octave:
            a.flags.writeable = False
        octaves.append(octave)
    return tuple(octaves)


def _matern_norm(nu: float) -> float:
    """The profile's limit 2^(nu-1) Gamma(nu) of z^nu K_nu(z) at z = 0."""
    gamma, _, _ = _special()
    return 2.0 ** (nu - 1.0) * gamma(nu)


@functools.lru_cache(maxsize=16)
def _matern_table(nu: float) -> np.ndarray:
    """Coefficients of the table of z^nu e^z K_nu(z) / norm: row k holds
    the coefficient of x^(_DEGREE - k) in every cell, highest degree first.

    Each cell's polynomial interpolates the trapezoidal rule of :func:`_rule`
    at its Chebyshev points.  The DCT runs on the values less their mean,
    which rounds the Chebyshev coefficients to the mean's precision instead
    of the cosines'.
    """
    values = np.concatenate(
        [
            z**nu * (factors * (weight * np.cosh((2.0 * nu) * asinh))).sum(axis=1)
            for z, factors, weight, asinh in _rule()
        ]
    ).reshape(-1, _DEGREE + 1) / _matern_norm(nu)
    mean = values.mean(axis=1, keepdims=True)
    cheb = (values - mean) @ _DCT
    cheb[:, 0] += mean[:, 0]
    _, _, cheb_to_mono = _special()
    table = np.ascontiguousarray((cheb @ cheb_to_mono)[:, ::-1].T)
    table.flags.writeable = False
    return table


def _matern(nu: float, z: np.ndarray) -> np.ndarray:
    """z^nu K_nu(z) / (2^(nu-1) Gamma(nu)) on a 1-D float array of z >= 0,
    with its limit 1 at z = 0; exactly exp(-z) at nu = 1/2.

    An entry z >= _TABLE_Z0 evaluates its cell's polynomial by Horner's
    rule and multiplies by e^-z.  The bits of z give the cell (its octave
    and the leading mantissa bits) and x (the rest of the mantissa) exactly.
    Past the last octave the index is clipped to the last cell, and e^-z
    is 0.  Entries below _TABLE_Z0 read :func:`_matern_series`.
    """
    if nu == 0.5:
        return np.exp(-z)
    table = _matern_table(nu)
    bits = z.view(np.int64)
    cell = bits >> _CELL_BITS
    cell -= _CELL_BASE
    x = (bits & ((1 << _CELL_BITS) - 1)).astype(float)
    x *= 2.0 ** (1 - _CELL_BITS)
    x -= 1.0
    out = table[0].take(cell, mode="clip")
    for row in table[1:]:
        out *= x
        out += row.take(cell, mode="clip")
    out *= np.exp(-z)
    if z.size and z.min() < _TABLE_Z0:
        near = z < _TABLE_Z0
        out[near] = _matern_series(nu, z[near])
    return out


def _matern_series(nu: float, z: np.ndarray) -> np.ndarray:
    """The profile at 0 <= z < _TABLE_Z0, 0 < nu < 1/2, by the series of
    K_nu = pi (I_-nu - I_nu) / (2 sin nu pi) at 0 (DLMF 10.27.4, 10.25.2):
    with q = z^2 / 4 it is the sum over k of q^k a_k (1 - exp(L + c_k)),
    a_k = 1 / (k! (1 - nu)_k), L = ln(Gamma(1 - nu) / Gamma(1 + nu))
    + 2 nu ln(z / 2), and c_k = sum over 1 <= j <= k of
    log1p(-2 nu / (j + nu)), the log of (1 - nu)_k / (1 + nu)_k.  Every
    term is positive and each bracket is taken by ``expm1``, so nothing
    cancels at small nu; at z = 0, L = -inf and q = 0 give exactly 1.
    Within 4.5e-16 relative of 40-digit mpmath for nu in [1e-12, 0.4999]
    and z from 5e-324 up to _TABLE_Z0.
    """
    k = np.arange(1, _SERIES_TERMS)
    a = np.cumprod(np.concatenate(([1.0], 1.0 / (k * (k - nu)))))
    c = np.cumsum(np.concatenate(([0.0], np.log1p(-2.0 * nu / (k + nu)))))
    _, zeta_odd, _ = _special()
    log_ratio = 2.0 * (np.euler_gamma * nu + np.sum(zeta_odd * nu**_ODD_K))
    with np.errstate(divide="ignore"):
        lead = log_ratio + 2.0 * nu * (np.log(z) - math.log(2.0))
    q = 0.25 * z * z
    out = np.zeros_like(z)
    for a_k, c_k in zip(a[::-1], c[::-1]):
        out *= q
        out -= a_k * np.expm1(lead + c_k)
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


def psd_check(m, rel_tol: float = PSD_REL_TOL) -> PsdReport:
    """Certify positive semi-definiteness up to a relative eigenvalue band.

    The input is symmetrized as (M + M^T)/2 first; the verdict is
    :func:`_band` of its ``eigvalsh`` estimate, PSD when min_eig >= -rel_tol
    * max(|max_eig|, 1).  The report always carries both eigenvalues.
    ``rel_tol`` must be finite and nonnegative: a NaN or negative band would
    report a positive definite matrix as not PSD.
    """
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteError("matrix contains non-finite entries")
    sym = 0.5 * (arr + arr.T)
    eigenvalues = np.linalg.eigvalsh(sym)
    return _band(float(eigenvalues[0]), float(eigenvalues[-1]), rel_tol)


def _band(min_eig: float, max_eig: float, rel_tol: float) -> PsdReport:
    """The one band rule: PSD when min_eig >= -rel_tol * max(|max_eig|, 1).
    The CLI bands a certificate's eigenvalues again by it at ``--tol``."""
    _check_range(math.isfinite(rel_tol) and rel_tol >= 0, "rel_tol", "finite and >= 0")
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
    return math.isfinite(shift) and _cholesky(a, shift) is not None


def _cholesky(a: np.ndarray, shift: float) -> np.ndarray | None:
    """A copy of the exactly symmetric float matrix ``a`` whose upper
    triangle is overwritten by the Cholesky factor R, R^T R = fl(a - shift
    I), by LAPACK's ``dpotrf``; None where a pivot is <= 0 or not finite.
    Only the upper triangle is read, and the lower one is left as it was."""
    m = a.shape[0]
    r = np.array(a, dtype=float, order="C")
    r.flat[:: m + 1] -= shift
    # r is symmetric, so r.T is the same matrix in the Fortran order that
    # dpotrf factors in place; its lower factor there is R in r.
    _, info = _dpotrf(r.T, lower=1, clean=0, overwrite_a=1)
    if info != 0 or not np.isfinite(r.diagonal()).all():
        return None
    return r


def _certificate(values: np.ndarray) -> PsdReport:
    """The proof of :func:`_proves_positive_definite` when it holds, else
    :func:`psd_check` at ``PSD_REL_TOL``; an empty matrix is vacuously
    positive definite, so it gets the proof."""
    if not values.size or _proves_positive_definite(values):
        return PsdReport(min_eig=None, max_eig=None, is_psd=True)
    return psd_check(values)


@dataclass(frozen=True)
class CovarianceMatrix:
    """A covariance matrix over labeled points with its PSD certificate.

    ``psd_certificate`` is computed once, when the matrix is built: a proof
    of positive definiteness without eigenvalues when the shifted Cholesky
    test holds, else :func:`psd_check` of ``values`` at ``PSD_REL_TOL``.  A
    proof implies the band verdict at any ``rel_tol`` above ``eigvalsh``'s
    own error, about m u times the largest eigenvalue; the CLI prints
    :func:`_band` at ``--tol`` instead.  :func:`sample_from_covariance`
    reads the certificate instead of running ``eigvalsh``, and factors
    ``values`` for its draws by the same routine as the proof, :func:`_cholesky`.
    """

    labels: tuple[str, ...]
    values: np.ndarray
    psd_certificate: PsdReport


def _covariance_from_distances(dm: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Apply a radial profile to a square distance matrix; unit diagonal.

    This reads only the strict upper triangle of ``dm``: the profile is
    evaluated once per unordered pair, in blocks of ``_ROW_BLOCK`` rows of
    the upper triangle, and each block is mirrored below the diagonal.  The
    diagonal is 1 whatever ``dm`` holds there.  The result is exactly
    symmetric, and for a symmetric ``dm`` (as ``distance_matrix`` returns)
    it equals the entrywise profile with a unit diagonal bit for bit.
    """
    m = dm.shape[0]
    out = np.empty((m, m))
    for s in range(0, m, _ROW_BLOCK):
        e = min(s + _ROW_BLOCK, m)
        rows = dm[s:e, s:].copy()
        square = rows[:, : e - s]
        np.copyto(square, square.T, where=_BELOW_DIAGONAL[: e - s, : e - s])
        # Every family is exactly 0 at inf, and the diagonal is set to 1.
        np.fill_diagonal(square, np.inf)
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
    min_separation: float | None = None,
) -> CovarianceMatrix:
    """Covariance matrix C(d(p_i, p_j)) over a point set, certified at
    ``PSD_REL_TOL`` (the CLI prints :func:`_band` at ``--tol``).

    Neither metric depends on an origin, so neither does the matrix, and
    :func:`distance_matrix` reads the point table built here.
    ``min_separation`` optionally rejects point pairs closer than the given
    distance, which keeps near-duplicates from producing numerically
    borderline certificates.
    """
    pts = canonical_points(g, points)
    dm = distance_matrix(g, pts, kind)
    if min_separation is not None and len(pts) > 1:
        # The profile ignores the diagonal, so it may hold the identity of min.
        np.fill_diagonal(dm, np.inf)
        closest = float(dm.min())
        if closest < min_separation:
            raise DuplicatePointsError(
                f"two points are at distance {closest}, below the required "
                f"separation {min_separation}"
            )
    values = _covariance_from_distances(dm, spec)
    del dm
    return CovarianceMatrix(
        labels=pts.labels,
        values=values,
        psd_certificate=_certificate(values),
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


def _theta_witness_graph(t: float, r: float) -> tuple[EuclideanGraph, list]:
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
    g, points = _theta_witness_graph(t, r)
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


def kernel_spec_from_json(obj: dict) -> KernelSpec:
    family = None
    if isinstance(obj, dict) and "family" in obj:
        family = _WIRE_FAMILIES.get(str(obj["family"]).strip().lower())
    if family is None:
        raise ParamOutOfRangeError(
            "family", "one of " + ", ".join(sorted(f.value for f in KernelFamily))
        )
    for key in ("alpha", "beta"):
        if key not in obj:
            raise ParamOutOfRangeError(key, "required")
    return KernelSpec(family, obj["alpha"], obj["beta"], obj.get("xi"))
