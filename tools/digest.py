"""Digest of the outputs of every ``cli_mix`` command and of ``cov_sites``,
to compare two trees.

Run from the root of a graphfields checkout:

    python3 tools/digest.py --seed 1 --seed 2 --seed 3 [--keep DIR]

For each seed it writes the input files of ``benchmark/workloads.CliMix``
and runs its 13 commands in process through ``graphfields.cli.main``: once
to stdout and, for a command whose payload holds a ``matrix`` or ``draws``,
once more for each ``--out`` of ``x.json``, ``x.csv`` and ``x.npy``.  It
also writes the 600-vertex cactus of ``benchmark/workloads.CovSites`` to
``cactus.json`` and runs ``blocks`` and ``forbidden-check`` on it, so the
block order of a graph of many blocks is covered.  It prints one
``<name> <sha256>`` line for the stdout, stderr and exit code of each run
and for each file written: ``1.cov.stdout`` is the stdout of ``cov`` for
seed 1 without ``--out``, ``1.cov.csv.stderr`` its stderr with ``--out
x.csv``, ``1.cov.csv.file`` the file written and ``1.cactus.blocks.stdout``
the stdout of ``blocks`` on the cactus.  Then it serves the first 16
``CovSites`` requests, two of each (metric, family) pair, and prints one
line each for the bytes of the values, the labels and the certificate's
``verdict``, ``min_eig`` and ``max_eig``: ``1.cov_sites.0.values``,
``1.cov_sites.0.labels`` and ``1.cov_sites.0.certificate``.  BLAS runs
one thread, as in ``benchmark/run.py``.

After the seeds, once per run, it prints one line for the bytes of the
Matern ``radial_profile`` (``beta = 1``, so ``t = z``) at each of six nu,
1/2 (the exact ``exp(-z)``) among them, as ``matern.0.25``.  The values are
taken on one fixed grid of ``z``: zero, subnormals up to the smallest
normal, a geometric sweep of the series range below ``2^-5``, 256 points in
each octave of the table (so every cell boundary) with the neighbours of
each octave boundary from ``2^-5`` to ``2^10``, and values past 745, where
``e^-z`` underflows, up to ``inf``.

To check that a change keeps the bytes, run this in both checkouts and
``diff`` the two outputs.  The bits depend on the platform and the BLAS
build, so no digest is kept to compare against.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmark")]

import numpy as np  # noqa: E402

import graphfields.cli  # noqa: E402
from workloads import CliMix, CovSites  # noqa: E402

# The first requests of ``cov_sites``, two for each (metric, family) pair.
COV_SITES_REQUESTS = 16

# The Matern smoothness values of the profile lines, 1/2 among them.
MATERN_NU = (0.5, 0.4999, 0.3, 0.25, 0.1, 1e-6)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list) -> tuple[str, str, int]:
    """Standard output, standard error and exit code of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = graphfields.cli.main(argv)
    return out.getvalue(), err.getvalue(), code


def digest(seed: int, workdir: str):
    """The ``(name, sha256)`` of every output of the seed's commands."""
    sites = CovSites(seed, workdir)
    cactus = os.path.join(workdir, "cactus.json")
    with open(cactus, "w", encoding="utf-8") as fh:
        json.dump({
            "vertices": sites.vertices,
            "edges": [{"id": e, "u": u, "v": v, "length": w} for e, u, v, w in sites.edges],
        }, fh)
    commands = [
        *CliMix(seed, workdir).commands,
        ("cactus.blocks", ["blocks", "--graph", cactus]),
        ("cactus.forbidden-check", ["forbidden-check", "--graph", cactus]),
    ]
    for name, argv in commands:
        stdout, stderr, code = _run(argv)
        runs = [(f"{seed}.{name}", stdout, stderr, code, None)]
        payload = json.loads(stdout) if code == 0 else {}
        if "matrix" in payload or "draws" in payload:
            for ext in ("json", "csv", "npy"):
                path = os.path.join(workdir, f"{name}.{ext}")
                runs.append((f"{seed}.{name}.{ext}", *_run([*argv, "--out", path]), path))
        for head, stdout, stderr, code, path in runs:
            yield f"{head}.stdout", _sha(stdout.encode())
            yield f"{head}.stderr", _sha(stderr.encode())
            yield f"{head}.exit", _sha(str(code).encode())
            if path is not None:
                with open(path, "rb") as fh:
                    yield f"{head}.file", _sha(fh.read())
    sites.setup(graphfields)
    for i in range(COV_SITES_REQUESTS):
        out = sites.request(sites.prepare(i))
        cert = out.psd_certificate
        head = f"{seed}.cov_sites.{i}"
        yield f"{head}.values", _sha(np.ascontiguousarray(out.values, dtype=float).tobytes())
        yield f"{head}.labels", _sha(json.dumps(list(out.labels)).encode())
        yield f"{head}.certificate", _sha(
            json.dumps([cert.verdict, cert.min_eig, cert.max_eig]).encode()
        )


def matern_grid() -> np.ndarray:
    """The fixed ``z`` of the Matern lines; see the module docstring."""
    tiny = np.finfo(float).smallest_normal
    subnormal = np.ldexp(1.0, np.arange(-1074, -1021))
    series = np.geomspace(tiny, 2.0**-5, 512, endpoint=False)
    octave = np.ldexp(1.0, np.arange(-5, 11))
    cells = (octave[:-1, None] * (1.0 + np.arange(256) / 256.0)).ravel()
    edges = np.concatenate((np.nextafter(octave, 0.0), np.nextafter(octave, np.inf)))
    beyond = [700.0, 744.0, 745.0, 745.2, 746.0, 800.0, 1e4, 1e300, np.inf]
    return np.unique(np.concatenate(([0.0], subnormal, series, cells, octave, edges, beyond)))


def matern_lines():
    """The ``(name, sha256)`` of the Matern profile at each of ``MATERN_NU``."""
    z = matern_grid()
    for nu in MATERN_NU:
        spec = graphfields.KernelSpec(graphfields.KernelFamily.MATERN, nu, 1.0)
        values = np.ascontiguousarray(graphfields.radial_profile(spec, z), dtype=float)
        yield f"matern.{nu!r}", _sha(values.tobytes())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--keep", default=None, help="write inputs and outputs here and keep them")
    args = parser.parse_args(argv)
    for seed in args.seed:
        if args.keep:
            workdir = os.path.join(args.keep, f"seed{seed}")
            os.makedirs(workdir, exist_ok=True)
            context = contextlib.nullcontext(workdir)
        else:
            context = tempfile.TemporaryDirectory()
        with context as workdir:
            for name, sha in digest(seed, workdir):
                print(name, sha)
    for name, sha in matern_lines():
        print(name, sha)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
