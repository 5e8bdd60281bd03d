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

Beyond kernel evaluation the module certifies positive semi-definiteness of
matrices numerically, constructs an explicit six-point witness showing that
graphs containing three disjoint routes between two points break the
exponential family under the geodesic metric, and implements the
degree-based bound and covariance inequalities that any valid radial profile
must satisfy on star-shaped networks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import gamma as _gamma
from scipy.special import kv as _bessel_kv

from .errors import (
    DuplicatePointsError,
    NonFiniteError,
    NOutOfRangeError,
    ParamOutOfRangeError,
)
from .graph import EuclideanGraph, _as_float, build_graph, point_label, vertex_point
from .metrics import MetricKind, canonical_points, distance_matrix

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

    Accepts scalars or arrays of nonnegative distances.  The Matern form is
    divided by its own limit at 0 so that it is a correlation like the other
    families; at t = 0 the product form is a removable singularity and is
    evaluated as exactly 1.
    """
    family = spec.family
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise ValueError("distances must be nonnegative")
    alpha, beta, xi = spec.alpha, spec.beta, spec.xi
    if family is KernelFamily.POWER_EXPONENTIAL:
        out = np.exp(-beta * arr**alpha)
    elif family is KernelFamily.MATERN:
        out = np.ones_like(arr)
        pos = arr > 0
        z = beta * arr[pos]
        norm = 2.0 ** (alpha - 1.0) * _gamma(alpha)
        out[pos] = z**alpha * _bessel_kv(alpha, z) / norm
    elif family is KernelFamily.GENERALIZED_CAUCHY:
        out = (beta * arr**alpha + 1.0) ** (-xi / alpha)
    else:
        s = beta * arr**alpha
        out = 1.0 - (s / (1.0 + s)) ** (xi / alpha)
    return float(out) if np.isscalar(t) else out


# -- PSD certification -------------------------------------------------------


@dataclass(frozen=True)
class PsdReport:
    min_eig: float
    max_eig: float
    is_psd: bool

    @property
    def verdict(self) -> str:
        return "psd" if self.is_psd else "not_psd"


def psd_check(m, rel_tol: float = PSD_REL_TOL) -> PsdReport:
    """Certify positive semi-definiteness up to a relative eigenvalue band.

    The input is symmetrized as (M + M^T)/2 first; the verdict is PSD when
    min_eig >= -rel_tol * max(|max_eig|, 1).  ``rel_tol`` must be finite
    and nonnegative: a NaN or negative band would report a positive
    definite matrix as not PSD.
    """
    _check_range(
        math.isfinite(rel_tol) and rel_tol >= 0, "rel_tol", "finite and >= 0"
    )
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteError("matrix contains non-finite entries")
    sym = 0.5 * (arr + arr.T)
    eigenvalues = np.linalg.eigvalsh(sym)
    min_eig = float(eigenvalues[0])
    max_eig = float(eigenvalues[-1])
    return PsdReport(min_eig, max_eig, min_eig >= -rel_tol * max(abs(max_eig), 1.0))


@dataclass(frozen=True)
class CovarianceMatrix:
    labels: tuple[str, ...]
    values: np.ndarray
    metric: MetricKind
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
    rel_tol: float = PSD_REL_TOL,
    min_separation: float | None = None,
) -> CovarianceMatrix:
    """Covariance matrix C(d(p_i, p_j)) over a point set with a certificate.

    ``min_separation`` optionally rejects point pairs closer than the given
    distance, which a caller may use to keep near-duplicates from producing
    numerically borderline certificates.
    """
    pts = canonical_points(g, points)
    dm = distance_matrix(g, pts, kind, origin=origin)
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
        labels=tuple(point_label(p) for p in pts),
        values=values,
        metric=MetricKind(kind),
        psd_certificate=psd_check(values, rel_tol),
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
