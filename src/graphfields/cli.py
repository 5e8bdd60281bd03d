"""Command-line front end over the JSON/CSV interfaces.

Commands read graphs, point lists, and kernel specs from JSON files (or
stdin via ``-``) and write JSON to stdout, or to ``--out``; matrix- and
sample-shaped payloads are written as CSV instead when the ``--out`` path
ends in ``.csv``, and as a NumPy ``.npy`` array of the matrix or draws when
it ends in ``.npy``; other payloads refuse those two.  JSON output is byte
for byte ``json.dumps(payload, indent=2)`` and CSV cells are ``repr`` of
each float, so both are byte-stable; each distinct float of a matrix or
sample is formatted once.
Exit codes: 0 success, 1 I/O or parse errors (an empty points array, an
unwritable or refused ``--out``) and running out of memory, 2 validation
failures (including a not-PSD verdict under ``--strict``).
Errors are emitted as machine-readable JSON objects on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys

import numpy as np

from .errors import GraphFieldsError
from .graph import (
    GeodesicValidity,
    _point_fields,
    block_decomposition,
    graph_from_json,
)
from .kernels import (
    PSD_REL_TOL,
    covariance_matrix,
    forbidden_certificate,
    kernel_spec_from_json,
    kernel_spec_to_json,
    psd_check,
    radial_profile,
    star_inequality_check,
)
from .metrics import (
    MetricKind,
    build_resistance_context,
    canonical_points,
    distance_matrix,
    geodesic_matrix,
    resistance_matrix,
)
from .simulate import empirical_variogram, sample_canonical_field, sample_from_covariance

# Point pairs closer than this are refused in covariance construction so the
# PSD certificate is not dominated by near-duplicate rows.
MIN_POINT_SEPARATION = 1e-12

_STAR_CHECK_DEFAULT_T = [round(0.1 * k, 10) for k in range(1, 21)]


class _CliFailure(Exception):
    def __init__(self, exit_code: int, payload: dict):
        super().__init__(payload.get("message", ""))
        self.exit_code = exit_code
        self.payload = payload


def _read_json(path: str, what: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # bad UTF-8, bad JSON, an over-long integer
        raise _CliFailure(
            1, {"error": "InputError", "message": f"cannot read {what}: {exc}"}
        ) from exc


def _parse_inline_json(text: str, what: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise _CliFailure(
            1, {"error": "InputError", "message": f"cannot parse {what}: {exc}"}
        ) from exc


def _load_graph(path: str):
    return graph_from_json(_read_json(path, "graph"))


def _load_points(g, path: str):
    """The point table of the points in ``path``; each point is read and
    then located before the next is read, so the first bad one is named."""
    raw = _read_json(path, "points")
    if not isinstance(raw, list) or not raw:
        raise _CliFailure(
            1,
            {"error": "InputError", "message": "points file must be a non-empty JSON array"},
        )
    return canonical_points(g, map(_point_fields, raw))


def _load_kernel(path: str):
    return kernel_spec_from_json(_read_json(path, "kernel spec"))


# json's spelling of the non-finite floats -> repr's, which CSV cells keep.
_REPR_SPECIALS = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf"}


def _float_text(a, *, as_repr: bool = False) -> np.ndarray:
    """The text of each entry of the float array ``a``, as ``json`` writes it
    (or ``repr`` with ``as_repr``), in an object array of ``a``'s shape.

    Each distinct bit pattern is formatted once, by one call into json's C
    encoder; keying on bits keeps ``0.0`` and ``-0.0`` apart.  A symmetric
    matrix holds about half as many distinct values as entries.
    """
    a = np.ascontiguousarray(a, dtype=float)
    bits, inverse = np.unique(a.view(np.uint64), return_inverse=True)
    tokens = json.dumps(bits.view(float).tolist())[1:-1].split(", ")
    if as_repr:
        tokens = [_REPR_SPECIALS.get(t, t) for t in tokens]
    return np.array(tokens, dtype=object)[inverse.reshape(a.shape)]


def _matrix_json(a) -> str:
    """A 2-D float array as ``json.dumps(a.tolist(), indent=2)`` writes it one
    level deep, as a value of a top-level key."""
    rows = [
        "[\n      " + ",\n      ".join(row) + "\n    ]" if row else "[]"
        for row in _float_text(a).tolist()
    ]
    return "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"


def _dumps(payload: dict) -> str:
    """Exactly ``json.dumps(payload, indent=2)`` with 2-D float arrays in
    place of nested lists.

    The arrays are laid out by ``_matrix_json``; every other value goes
    through ``json`` and is re-indented one level, which is exact because
    JSON text holds no raw newline.
    """
    items = []
    for key, value in payload.items():
        if isinstance(value, np.ndarray):
            text = _matrix_json(value)
        else:
            text = json.dumps(value, indent=2).replace("\n", "\n  ")
        items.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(items) + "\n}" if items else "{}"


def _emit(args, payload: dict, *, table=None) -> None:
    """Write ``payload`` as JSON, or ``table = (labels, matrix)`` as CSV when
    ``--out`` ends in ``.csv``, or its matrix alone as a ``.npy`` array
    when ``--out`` ends in ``.npy``; without a table, refuse those two."""
    out = args.out
    if not out:
        sys.stdout.write(_dumps(payload) + "\n")
        return
    as_csv, as_npy = out.endswith(".csv"), out.endswith(".npy")
    if table is None and (as_csv or as_npy):
        message = f"cannot write output: {args.command} has no matrix or sample for {out[-4:]}"
        raise _CliFailure(1, {"error": "OutputError", "message": message})
    try:
        if as_npy:
            with open(out, "wb") as fh:
                np.save(fh, np.asarray(table[1], dtype=float), allow_pickle=False)
            return
        with open(out, "w", encoding="utf-8", newline="" if as_csv else None) as fh:
            if as_csv:
                writer = csv.writer(fh)
                writer.writerow(table[0])
                writer.writerows(_float_text(table[1], as_repr=True).tolist())
            else:
                fh.write(_dumps(payload) + "\n")
    except OSError as exc:
        raise _CliFailure(
            1, {"error": "OutputError", "message": f"cannot write output: {exc}"}
        ) from exc


def _matrix_payload(metric: str, labels, matrix, **extra) -> dict:
    payload = {
        "metric": metric,
        "labels": list(labels),
        "matrix": np.asarray(matrix, dtype=float),
    }
    payload.update(extra)
    return payload


def _psd_json(report) -> dict:
    return {
        "verdict": report.verdict,
        "min_eig": report.min_eig,
        "max_eig": report.max_eig,
    }


# -- command implementations --------------------------------------------------


def _cmd_validate(args) -> int:
    g = _load_graph(args.graph)
    _emit(
        args,
        {
            "valid": True,
            "n_vertices": len(g.vertices),
            "n_edges": len(g._ids),
            "total_length": g.total_length,
        },
    )
    return 0


def _cmd_blocks(args) -> int:
    """``blocks`` emits the decomposition, ``forbidden-check`` only its class
    and, for a forbidden graph, the witness on the reference theta graph of
    :func:`forbidden_certificate` (t = 1/2, r = 1), not on the input."""
    decomposition = block_decomposition(_load_graph(args.graph))
    payload = {"class": decomposition.validity.value}
    if not args.validity_only:
        payload["articulation_vertices"] = sorted(decomposition.articulation_vertices)
        payload["blocks"] = [
            {"kind": b.kind.value, "edges": sorted(b.edge_ids), "vertices": sorted(b.vertices)}
            for b in decomposition.blocks
        ]
    elif decomposition.validity is GeodesicValidity.FORBIDDEN:
        payload["witness"] = dataclasses.asdict(forbidden_certificate(0.5, 1.0))
    _emit(args, payload)
    return 0


def _cmd_dist(args) -> int:
    """One point table of the two points, each parsed and then located
    before the next is parsed, as :func:`_load_points` reads a file."""
    g = _load_graph(args.graph)
    kind = MetricKind(args.metric)
    ends = ((args.from_point, "--from point"), (args.to_point, "--to point"))
    pts = canonical_points(g, (_point_fields(_parse_inline_json(*end)) for end in ends))
    pairwise = geodesic_matrix if kind is MetricKind.GEODESIC else resistance_matrix
    payload = {
        "metric": kind.value,
        "from": pts.labels[0],
        "to": pts.labels[1],
        "value": float(pairwise(g, pts)[0, 1]),
    }
    _emit(args, payload)
    return 0


def _cmd_distmatrix(args) -> int:
    g = _load_graph(args.graph)
    kind = MetricKind(args.metric)
    points = _load_points(g, args.points)
    matrix = distance_matrix(g, points, kind)
    _emit(
        args,
        _matrix_payload(kind.value, points.labels, matrix),
        table=(points.labels, matrix),
    )
    return 0


def _cmd_cov(args) -> int:
    """``cov`` emits the certified matrix, ``psd-check`` only its certificate.

    Both print eigenvalues, so a certificate that proved the matrix
    positive definite without them is replaced by ``psd_check``'s report.
    """
    g = _load_graph(args.graph)
    kind = MetricKind(args.metric)
    points = _load_points(g, args.points)
    spec = _load_kernel(args.kernel)
    cov = covariance_matrix(
        g, points, spec, kind, rel_tol=args.tol, min_separation=MIN_POINT_SEPARATION
    )
    report = cov.psd_certificate
    if report.min_eig is None:
        report = psd_check(cov.values, args.tol)
    certificate = _psd_json(report)
    if args.certificate_only:
        _emit(args, certificate)
    else:
        extra = {"kernel": kernel_spec_to_json(spec), "psd_certificate": certificate}
        _emit(
            args,
            _matrix_payload(kind.value, cov.labels, cov.values, **extra),
            table=(cov.labels, cov.values),
        )
    if args.strict and not report.is_psd:
        raise _CliFailure(
            2,
            {
                "error": "NotPSD",
                "message": "covariance matrix failed the PSD check",
                **certificate,
            },
        )
    return 0


def _cmd_star_check(args) -> int:
    spec = _load_kernel(args.kernel)
    profile = lambda t: radial_profile(spec, t)  # noqa: E731
    results = star_inequality_check(profile, args.n, _STAR_CHECK_DEFAULT_T)
    all_pass = all(r.passed for r in results)
    _emit(
        args,
        {
            "kernel": kernel_spec_to_json(spec),
            "n": args.n,
            "results": [{**dataclasses.asdict(r), "passed": r.passed} for r in results],
            "all_pass": all_pass,
        },
    )
    if args.strict and not all_pass:
        raise _CliFailure(
            2,
            {"error": "StarInequalityFailed", "message": "some inequalities failed"},
        )
    return 0


def _cmd_simulate(args) -> int:
    """``simulate`` emits the draws, ``variogram`` only their empirical
    variogram.  Only the canonical field reads ``--origin``, so a kernel
    covariance, which no origin changes, refuses one."""
    if args.kernel and args.origin is not None:
        message = "--origin applies only to the canonical field, not to --kernel"
        raise _CliFailure(2, {"error": "UsageError", "message": message})
    g = _load_graph(args.graph)
    points = _load_points(g, args.points)
    if args.kernel:
        kind = MetricKind(args.metric)
        spec = _load_kernel(args.kernel)
        cov = covariance_matrix(g, points, spec, kind, min_separation=MIN_POINT_SEPARATION)
        sample = sample_from_covariance(cov, args.n, args.seed)
        model = {"model": "kernel", "kernel": kernel_spec_to_json(spec), "metric": kind.value}
    else:
        ctx = build_resistance_context(g, args.origin)
        sample = sample_canonical_field(ctx, points, args.n, args.seed)
        model = {"model": "canonical", "origin": ctx.origin}
    n = int(sample.draws.shape[0])
    if args.variogram:
        table = (sample.labels, empirical_variogram(sample))
        payload = _matrix_payload(
            "empirical_variogram", *table, n=n, seed=sample.seed, origin=ctx.origin
        )
    else:
        table = (sample.labels, sample.draws)
        payload = {
            "labels": list(sample.labels),
            "seed": sample.seed,
            "n": n,
            "draws": np.asarray(sample.draws, dtype=float),
            **model,
        }
    _emit(args, payload, table=table)
    return 0


# -- parser -------------------------------------------------------------------


def _add_common(p, *, points=False, metric=False, kernel=False, origin=False):
    p.add_argument("--graph", required=True, help="graph JSON file (or - for stdin)")
    if points:
        p.add_argument("--points", required=True, help="JSON array of point objects")
    if metric:
        p.add_argument(
            "--metric",
            choices=[k.value for k in MetricKind],
            default=MetricKind.RESISTANCE.value,
            help="which metric to use (default: resistance)",
        )
    if kernel:
        p.add_argument("--kernel", required=True, help="kernel spec JSON file")
    if origin:
        p.add_argument(
            "--origin",
            default=None,
            help="origin vertex label of the canonical field, where its variance is 1 "
            "(default: the smallest label); simulate --kernel refuses it",
        )
    p.add_argument("--out", default=None, help="write output here instead of stdout; .csv selects CSV and .npy a NumPy array for matrices/samples")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every subcommand, built on first use and shared by
    later calls."""
    parser = argparse.ArgumentParser(
        prog="graphfields",
        description="metrics, covariance kernels, and Gaussian fields on graphs with Euclidean edges",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a graph file")
    _add_common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("blocks", help="block decomposition and geodesic validity class")
    _add_common(p)
    p.set_defaults(func=_cmd_blocks, validity_only=False)

    p = sub.add_parser("dist", help="distance between two points")
    _add_common(p, metric=True)
    p.add_argument("--from", dest="from_point", required=True, help="point JSON")
    p.add_argument("--to", dest="to_point", required=True, help="point JSON")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("distmatrix", help="pairwise distance matrix over a point set")
    _add_common(p, points=True, metric=True)
    p.set_defaults(func=_cmd_distmatrix)

    for name, helptext, certificate_only in (
        ("cov", "covariance matrix with PSD certificate", False),
        ("psd-check", "PSD certificate for a kernel on a point set", True),
    ):
        p = sub.add_parser(name, help=helptext)
        _add_common(p, points=True, metric=True, kernel=True)
        p.add_argument("--tol", type=float, default=PSD_REL_TOL, help="relative PSD tolerance")
        p.add_argument("--strict", action="store_true", help="exit 2 when not PSD")
        p.set_defaults(func=_cmd_cov, certificate_only=certificate_only)

    p = sub.add_parser(
        "forbidden-check",
        help="geodesic validity class; when forbidden, also the six-point "
        "witness on a reference theta graph, not on the input graph",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_blocks, validity_only=True)

    p = sub.add_parser("star-check", help="star covariance inequalities for a kernel")
    p.add_argument("--kernel", required=True, help="kernel spec JSON file")
    p.add_argument("--n", type=int, required=True, help="number of star edges")
    p.add_argument("--strict", action="store_true", help="exit 2 when any t fails")
    p.add_argument("--out", default=None, help="write output here instead of stdout")
    p.set_defaults(func=_cmd_star_check)

    p = sub.add_parser("simulate", help="sample a Gaussian field at a point set")
    _add_common(p, points=True, metric=True, origin=True)
    p.add_argument("--kernel", default=None, help="sample a kernel covariance instead of the canonical field")
    p.add_argument("--n", type=int, default=1, help="number of draws")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.set_defaults(func=_cmd_simulate, variogram=False)

    p = sub.add_parser("variogram", help="empirical variogram of the canonical field")
    _add_common(p, points=True, origin=True)
    p.add_argument("--n", type=int, default=20000, help="number of draws")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.set_defaults(func=_cmd_simulate, variogram=True, kernel=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliFailure as failure:
        code, payload = failure.exit_code, failure.payload
    except GraphFieldsError as exc:
        code, payload = 2, {"error": exc.code, "message": str(exc), **exc.detail}
    except MemoryError as exc:  # say, draws whose array exceeds the address space
        code, payload = 1, {"error": "OutOfMemory", "message": str(exc) or "out of memory"}
    sys.stderr.write(json.dumps(payload) + "\n")
    return code


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
