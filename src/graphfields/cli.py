"""Command-line front end over the JSON/CSV interfaces.

Commands read graphs, point lists, and kernel specs from JSON files (or
stdin via ``-``) and write JSON to stdout, or to ``--out``; matrix- and
sample-shaped payloads are written as CSV instead when the ``--out`` path
ends in ``.csv``, and as a NumPy ``.npy`` array of the matrix or draws when
it ends in ``.npy``; other payloads refuse those two.  JSON output is byte
for byte ``json.dumps(payload, indent=2)`` and CSV cells are ``repr`` of
each float, so both are byte-stable; each distinct float of a matrix or
sample is formatted once.  Output is formatted in full before its first
byte is written, and then written a row at a time, so a failure writes
nothing and leaves an existing ``--out`` file as it was.
Exit codes: 0 success, 1 I/O or parse errors (an empty points array, an
unwritable or refused ``--out``) and running out of memory, 2 usage errors
and validation failures (including a not-PSD verdict under ``--strict``).
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
    _band,
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
from .simulate import _canonical_variogram, sample_canonical_field, sample_from_covariance

# Point pairs closer than this are refused in covariance construction so the
# PSD certificate is not dominated by near-duplicate rows.
MIN_POINT_SEPARATION = 1e-12

_STAR_CHECK_DEFAULT_T = [round(0.1 * k, 10) for k in range(1, 21)]


class _CliFailure(Exception):
    def __init__(self, exit_code: int, payload: dict):
        super().__init__(payload.get("message", ""))
        self.exit_code = exit_code
        self.payload = payload


class _ArgumentParser(argparse.ArgumentParser):
    """A malformed command line is a ``UsageError``, not usage text."""

    def error(self, message):
        raise _CliFailure(2, {"error": "UsageError", "message": message})


def _read_json(path: str, what: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, deep nesting
        raise _CliFailure(
            1, {"error": "InputError", "message": f"cannot read {what}: {exc}"}
        ) from exc


def _parse_inline_json(text: str, what: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
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


class _FloatText:
    """The text of each entry of a 2-D float array, as ``json`` writes it (or
    ``repr`` with ``as_repr``), read a row at a time.

    Each distinct bit pattern is formatted once, by one call into json's C
    encoder; keying on bits keeps ``0.0`` and ``-0.0`` apart.  A symmetric
    matrix holds about half as many distinct values as entries.  Only the
    distinct texts and each entry's index into them are kept; a row's
    strings are gathered when it is read.
    """

    def __init__(self, a, *, as_repr: bool = False):
        a = np.ascontiguousarray(a, dtype=float)
        bits, inverse = np.unique(a.view(np.uint64), return_inverse=True)
        texts = json.dumps(bits.view(float).tolist())[1:-1].split(", ")
        if as_repr:
            texts = [_REPR_SPECIALS.get(t, t) for t in texts]
        self._texts = np.array(texts, dtype=object)
        self._index = inverse.reshape(a.shape)

    def __iter__(self):
        for row in self._index:
            yield self._texts[row].tolist()


def _write_matrix(fh, rows: _FloatText) -> None:
    """The rows as ``json.dumps(a.tolist(), indent=2)`` writes them one
    level deep, as a value of a top-level key, one row per write."""
    fh.write("[")
    n = 0
    for n, cells in enumerate(rows, 1):
        fh.write(",\n    " if n > 1 else "\n    ")
        fh.write("[\n      " + ",\n      ".join(cells) + "\n    ]" if cells else "[]")
    fh.write("\n  ]" if n else "]")


def _writer(payload: dict, table=None, *, as_csv: bool = False):
    """A function that writes ``payload`` to a text file as exactly
    ``json.dumps(payload, indent=2)`` and a newline, with 2-D float arrays in
    place of nested lists, or with ``as_csv`` the ``table = (labels,
    matrix)`` as CSV, a row at a time.

    Everything is formatted here, before the function is returned, so a
    failure to format writes nothing.  Arrays are read through
    :class:`_FloatText`; every other value goes through ``json`` and is
    re-indented one level, which is exact because JSON text holds no raw
    newline.
    """
    if as_csv:
        labels, rows = list(table[0]), _FloatText(table[1], as_repr=True)

        def write(fh) -> None:
            writer = csv.writer(fh)
            writer.writerow(labels)
            writer.writerows(rows)

        return write
    items = [
        (
            f"  {json.dumps(key)}: ",
            _FloatText(value)
            if isinstance(value, np.ndarray)
            else json.dumps(value, indent=2).replace("\n", "\n  "),
        )
        for key, value in payload.items()
    ]

    def write(fh) -> None:
        fh.write("{")
        for n, (head, value) in enumerate(items):
            fh.write(",\n" + head if n else "\n" + head)
            if isinstance(value, str):
                fh.write(value)
            else:
                _write_matrix(fh, value)
        fh.write("\n}\n" if items else "}\n")

    return write


def _emit(args, payload: dict, *, table=None) -> None:
    """Write ``payload`` as JSON, or ``table = (labels, matrix)`` as CSV when
    ``--out`` ends in ``.csv``, or its matrix alone as a ``.npy`` array
    when ``--out`` ends in ``.npy``; without a table, refuse those two.
    The output is formatted in full before ``--out`` is opened, so a
    failure leaves an existing file as it was."""
    out = args.out
    if not out:
        _writer(payload)(sys.stdout)
        return
    as_csv, as_npy = out.endswith(".csv"), out.endswith(".npy")
    if table is None and (as_csv or as_npy):
        message = f"cannot write output: {args.command} has no matrix or sample for {out[-4:]}"
        raise _CliFailure(1, {"error": "OutputError", "message": message})
    if as_npy:
        matrix = np.asarray(table[1], dtype=float)
    else:
        write = _writer(payload, table, as_csv=as_csv)
    try:
        if as_npy:
            with open(out, "wb") as fh:
                np.save(fh, matrix, allow_pickle=False)
        else:
            with open(out, "w", encoding="utf-8", newline="" if as_csv else None) as fh:
                write(fh)
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
    """``cov`` emits the covariance matrix, ``psd-check`` only its
    certificate.  The library certifies the matrix at ``PSD_REL_TOL``; both
    commands print, and check under ``--strict``, the band at ``--tol`` of
    its eigenvalues: the certificate's, or ``psd_check``'s for a proof.  A
    bad ``--tol`` is refused by that band's rule before any file is read."""
    _band(0.0, 0.0, args.tol)
    g = _load_graph(args.graph)
    kind = MetricKind(args.metric)
    points = _load_points(g, args.points)
    spec = _load_kernel(args.kernel)
    cov = covariance_matrix(g, points, spec, kind, min_separation=MIN_POINT_SEPARATION)
    report = cov.psd_certificate
    if report.min_eig is None:
        report = psd_check(cov.values)
    report = _band(report.min_eig, report.max_eig, args.tol)
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
    """Only the canonical field reads ``--origin`` and only a kernel reads
    ``--metric``; either flag on the other model is refused before any file
    is read."""
    if args.kernel and args.origin is not None:
        message = "--origin applies only to the canonical field, not to --kernel"
        raise _CliFailure(2, {"error": "UsageError", "message": message})
    if not args.kernel and args.metric is not None:
        message = "--metric applies only to --kernel, not to the canonical field"
        raise _CliFailure(2, {"error": "UsageError", "message": message})
    g = _load_graph(args.graph)
    points = _load_points(g, args.points)
    if args.kernel:
        kind = MetricKind(args.metric or MetricKind.RESISTANCE.value)
        spec = _load_kernel(args.kernel)
        cov = covariance_matrix(g, points, spec, kind, min_separation=MIN_POINT_SEPARATION)
        sample = sample_from_covariance(cov, args.n, args.seed)
        model = {"model": "kernel", "kernel": kernel_spec_to_json(spec), "metric": kind.value}
    else:
        ctx = build_resistance_context(g, args.origin)
        sample = sample_canonical_field(ctx, points, args.n, args.seed)
        model = {"model": "canonical", "origin": ctx.origin}
    payload = {
        "labels": list(sample.labels),
        "seed": sample.seed,
        "n": int(sample.draws.shape[0]),
        "draws": np.asarray(sample.draws, dtype=float),
        **model,
    }
    _emit(args, payload, table=(sample.labels, sample.draws))
    return 0


def _cmd_variogram(args) -> int:
    """:func:`simulate._canonical_variogram` folds the sampler's blocks as
    they are drawn, so no ``--n x m`` array of draws is formed; the bits are
    those of ``empirical_variogram(sample_canonical_field(...))``."""
    g = _load_graph(args.graph)
    points = _load_points(g, args.points)
    ctx = build_resistance_context(g, args.origin)
    table = _canonical_variogram(ctx, points, args.n, args.seed)
    payload = _matrix_payload(
        "empirical_variogram", *table, n=args.n, seed=args.seed, origin=ctx.origin
    )
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
    parser = _ArgumentParser(
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
    # No default, so that the canonical field can tell a given --metric.
    p.set_defaults(func=_cmd_simulate, metric=None)

    p = sub.add_parser("variogram", help="empirical variogram of the canonical field")
    _add_common(p, points=True, origin=True)
    p.add_argument("--n", type=int, default=20000, help="number of draws")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.set_defaults(func=_cmd_variogram)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
