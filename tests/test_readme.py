"""The README's library quick tour runs, its comments state its results, its
library API list is the package's public names, and its CLI examples parse."""

from __future__ import annotations

import ast
import math
import re
import shlex
from pathlib import Path

import pytest

import graphfields
from graphfields.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    return blocks[0]


def _run_tour(source: str):
    """Execute the tour statement by statement; return its namespace and the
    value of each bare expression, keyed by the expression's source text."""
    namespace: dict = {}
    values = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), README.name, "eval")
            values[ast.get_source_segment(source, node)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], type_ignores=[]), README.name, "exec"), namespace)
    return namespace, values


def test_readme_quick_tour_values():
    namespace, values = _run_tour(_quick_tour())
    assert list(values) == [
        "gf.geodesic_distance(g, p, q)",
        'gf.resistance_distance(ctx, gf.vertex_point("A"), gf.vertex_point("C"))',
        "cov.psd_certificate.verdict",
        "gf.empirical_variogram(sample)[0, 1]",
    ]
    gf = namespace["gf"]
    assert values["gf.geodesic_distance(g, p, q)"] == pytest.approx(0.8, abs=1e-12)
    resistance = 'gf.resistance_distance(ctx, gf.vertex_point("A"), gf.vertex_point("C"))'
    assert values[resistance] == pytest.approx(1.0, abs=1e-12)
    assert values["cov.psd_certificate.verdict"] == "psd"

    # p and q are 0.8 apart on a cycle of length 4: d_R = 0.8 * 3.2 / 4.
    d_r = gf.resistance_distance(namespace["ctx"], namespace["p"], namespace["q"])
    assert d_r == pytest.approx(0.64, abs=1e-12)
    # A sample variance of 20000 Gaussian draws has standard error
    # d_R * sqrt(2 / (n - 1)).
    stderr = d_r * math.sqrt(2.0 / (namespace["sample"].draws.shape[0] - 1))
    assert abs(values["gf.empirical_variogram(sample)[0, 1]"] - d_r) < 4.0 * stderr


def test_readme_library_api_lists_exactly_the_public_names():
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## Library API\n(.*?)^## ", text, re.S | re.M).group(1)
    items = "".join(re.findall(r"^- .*(?:\n  .*)*", section, re.M))
    # Each bullet is "Group (`module`): names"; the module is not a name.
    names = re.findall(r"`(\w+)`", re.sub(r"\(`\w+`\):", "", items))
    assert len(names) == len(set(names)) == len(graphfields.__all__)
    assert sorted(names) == sorted(graphfields.__all__)
    assert f"these {len(names)} names" in section


def test_readme_cli_examples_parse():
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## CLI\n(.*?)^### ", text, re.S | re.M).group(1)
    blocks = re.findall(r"```bash\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    lines = blocks[0].replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.strip()]
    assert commands
    for argv in commands:
        assert argv[0] == "graphfields"
        build_parser().parse_args(argv[1:])
