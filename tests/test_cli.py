"""End-to-end CLI behaviour over the JSON/CSV wire formats."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphfields as gf
from graphfields.cli import _writer, build_parser, main
from graphfields.kernels import PSD_REL_TOL, _theta_witness_graph
from .helpers import (
    figure_eight,
    graph_to_json,
    jittered_grid,
    random_points,
    single_edge,
    theta_graph,
    unit_triangle,
)


@pytest.fixture()
def workdir(tmp_path):
    files = {}
    files["edge"] = tmp_path / "edge.json"
    files["edge"].write_text(json.dumps(graph_to_json(single_edge())))
    files["theta"] = tmp_path / "theta.json"
    files["theta"].write_text(json.dumps(graph_to_json(theta_graph())))
    files["bad_triangle"] = tmp_path / "bad.json"
    files["bad_triangle"].write_text(
        json.dumps(
            {
                "vertices": ["A", "B", "C"],
                "edges": [
                    {"id": "ab", "u": "A", "v": "B", "length": 1.0},
                    {"id": "bc", "u": "B", "v": "C", "length": 1.0},
                    {"id": "ca", "u": "C", "v": "A", "length": 3.0},
                ],
            }
        )
    )
    files["points"] = tmp_path / "points.json"
    files["points"].write_text(
        json.dumps(
            [
                {"vertex": "0"},
                {"edge": "e1", "offset": 0.25},
                {"edge": "e1", "offset": 0.75},
                {"vertex": "1"},
            ]
        )
    )
    files["matern"] = tmp_path / "matern.json"
    files["matern"].write_text(
        json.dumps({"family": "matern", "alpha": 0.5, "beta": 1.0})
    )
    files["flat_exp"] = tmp_path / "flat_exp.json"
    files["flat_exp"].write_text(
        json.dumps({"family": "power_exponential", "alpha": 1.0, "beta": 0.001})
    )
    # the six witness points as vertices of the witness theta graph
    wgraph, wpoints = _theta_witness_graph(0.5, 1.0)
    files["witness_graph"] = tmp_path / "wgraph.json"
    files["witness_graph"].write_text(json.dumps(graph_to_json(wgraph)))
    files["witness_points"] = tmp_path / "wpoints.json"
    files["witness_points"].write_text(
        json.dumps([{"vertex": p.vertex} for p in wpoints])
    )
    files["dir"] = tmp_path
    return files


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys, workdir):
    code, out, err = _run(capsys, ["validate", "--graph", str(workdir["edge"])])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload == {
        "valid": True,
        "n_vertices": 2,
        "n_edges": 1,
        "total_length": 1.0,
    }


def test_validate_distance_inconsistent_exits_2(capsys, workdir):
    code, out, err = _run(capsys, ["validate", "--graph", str(workdir["bad_triangle"])])
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "DistanceInconsistent"
    assert payload["edge_id"] == "ca"
    assert payload["shortest"] == 2.0


def test_missing_file_exits_1(capsys, workdir):
    code, _, err = _run(capsys, ["validate", "--graph", str(workdir["dir"] / "no.json")])
    assert code == 1
    assert json.loads(err)["error"] == "InputError"


def test_malformed_json_exits_1(capsys, workdir):
    broken = workdir["dir"] / "broken.json"
    broken.write_text("{not json")
    code, _, err = _run(capsys, ["validate", "--graph", str(broken)])
    assert code == 1
    assert json.loads(err)["error"] == "InputError"


@pytest.mark.parametrize("kind", ["graph", "points", "kernel", "from", "to"])
def test_deeply_nested_json_is_an_input_error(capsys, workdir, kind):
    # JSON nested 200000 deep exceeds the decoder's recursion limit.
    nested = "[" * 200000 + "]" * 200000
    deep = workdir["dir"] / "deep.json"
    deep.write_text(nested)
    files = {"graph": workdir["edge"], "points": workdir["points"], "kernel": workdir["matern"]}
    ends = {"from": '{"vertex": "0"}', "to": '{"vertex": "1"}'}
    if kind in files:
        files[kind] = deep
    else:
        ends[kind] = nested
    graph, points, kernel = (["--" + k, str(files[k])] for k in ("graph", "points", "kernel"))
    inline = ["--from", ends["from"], "--to", ends["to"]]
    commands = {
        "graph": [["validate", *graph], ["distmatrix", *graph, *points]],
        "points": [["distmatrix", *graph, *points], ["cov", *graph, *points, *kernel]],
        "kernel": [["cov", *graph, *points, *kernel], ["star-check", *kernel, "--n", "3"]],
    }.get(kind, [["dist", *graph, *inline]])
    for argv in commands:
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == "" and err.count("\n") == 1, argv
        assert json.loads(err)["error"] == "InputError"


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_non_utf8_input_exits_1(capsys, workdir, monkeypatch, source):
    raw = b"\xff\xfe{\x00}\x00"
    if source == "file":
        path = workdir["dir"] / "utf16.json"
        path.write_bytes(raw)
        argv = ["validate", "--graph", str(path)]
    else:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
        argv = ["validate", "--graph", "-"]
    code, out, err = _run(capsys, argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "InputError"


def test_dist_refuses_a_string_offset(capsys, workdir):
    ends = ["--from", '{"edge":"e1","offset":"0.5"}', "--to", '{"vertex":"0"}']
    code, out, err = _run(capsys, ["dist", "--graph", str(workdir["edge"]), *ends])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "OffsetOutOfRange"


def test_dist_resistance_tree_equality_example(capsys, workdir):
    code, out, _ = _run(
        capsys,
        [
            "dist",
            "--graph",
            str(workdir["edge"]),
            "--metric",
            "resistance",
            "--from",
            '{"edge":"e1","offset":0.25}',
            "--to",
            '{"edge":"e1","offset":0.75}',
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 0.5
    assert list(payload) == ["metric", "from", "to", "value"]
    assert payload["metric"] == "resistance"


def test_dist_geodesic(capsys, workdir):
    code, out, _ = _run(
        capsys,
        [
            "dist",
            "--graph",
            str(workdir["edge"]),
            "--metric",
            "geodesic",
            "--from",
            '{"vertex":"0"}',
            "--to",
            '{"vertex":"1"}',
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 1.0 and "origin" not in payload


def test_blocks_reports_structure(capsys, workdir):
    code, out, _ = _run(capsys, ["blocks", "--graph", str(workdir["theta"])])
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "ForbiddenForGeodesic"
    assert payload["blocks"][0]["kind"] == "Complex"


def test_forbidden_check_emits_witness(capsys, workdir):
    code, out, _ = _run(capsys, ["forbidden-check", "--graph", str(workdir["theta"])])
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["class", "witness"]
    assert payload["class"] == "ForbiddenForGeodesic"
    witness = payload["witness"]
    assert list(witness) == [
        "t", "r", "xi_value", "quadratic_form", "beta_found", "negative_eigenvalue",
    ]
    assert witness["quadratic_form"] == -0.25
    assert witness["t"] == 0.5 and witness["r"] == 1.0 and witness["xi_value"] == 0.5
    assert witness["beta_found"] == 0.001
    assert witness["negative_eigenvalue"] == pytest.approx(-1.3163341117965497e-4, rel=1e-6)


def test_forbidden_check_safe_graph_has_no_witness(capsys, workdir):
    safe = workdir["dir"] / "safe.json"
    safe.write_text(json.dumps(graph_to_json(unit_triangle())))
    code, out, _ = _run(capsys, ["forbidden-check", "--graph", str(safe)])
    assert code == 0
    assert out == '{\n  "class": "SafeForGeodesic"\n}\n'


def test_distmatrix_json_and_csv_agree(capsys, workdir):
    inputs = ["--graph", str(workdir["edge"]), "--points", str(workdir["points"])]
    cases = [
        (["distmatrix", *inputs, "--metric", "geodesic"], "geodesic"),
        (["cov", *inputs, "--kernel", str(workdir["matern"])], "resistance"),
        (["variogram", *inputs, "--n", "50", "--seed", "3"], "empirical_variogram"),
    ]
    for argv, metric in cases:
        code, out, _ = _run(capsys, argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["metric"] == metric
        assert payload["labels"] == ["0", "e1@0.25", "e1@0.75", "1"]
        matrix = np.array(payload["matrix"])
        assert np.array_equal(matrix, matrix.T)

        out_csv = workdir["dir"] / "dm.csv"
        code, _, _ = _run(capsys, [*argv, "--out", str(out_csv)])
        assert code == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == payload["labels"]
        parsed = np.array([[float(x) for x in row] for row in rows[1:]])
        assert np.array_equal(parsed, matrix)


def test_npy_out_round_trips_bit_for_bit(capsys, workdir):
    # The .npy file holds the matrix or the draws of the JSON payload, rows
    # and columns in the order of the points file; a command without a
    # matrix or sample refuses the path and leaves the file as it was.
    inputs = ["--graph", str(workdir["edge"]), "--points", str(workdir["points"])]
    cases = [
        (["distmatrix", *inputs, "--metric", "geodesic"], "matrix"),
        (["cov", *inputs, "--kernel", str(workdir["matern"])], "matrix"),
        (["simulate", *inputs, "--n", "5", "--seed", "3"], "draws"),
        (["variogram", *inputs, "--n", "50", "--seed", "3"], "matrix"),
    ]
    out_npy = workdir["dir"] / "out.npy"
    for argv, key in cases:
        code, out, _ = _run(capsys, argv)
        assert code == 0
        expected = np.array(json.loads(out)[key], dtype=float)
        code, out, err = _run(capsys, [*argv, "--out", str(out_npy)])
        assert code == 0 and out == "" and err == ""
        got = np.load(out_npy, allow_pickle=False)
        assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()
        assert got.shape == expected.shape
    before = out_npy.read_bytes()
    code, _, _ = _run(capsys, ["validate", "--graph", str(workdir["edge"]), "--out", str(out_npy)])
    assert code == 1 and out_npy.read_bytes() == before


def test_origin_only_on_commands_that_read_it(capsys, workdir):
    inputs = ["--graph", str(workdir["edge"]), "--points", str(workdir["points"])]
    kernel = ["--kernel", str(workdir["matern"])]
    ends = ["--from", '{"vertex":"0"}', "--to", '{"vertex":"1"}']
    for argv in (
        ["validate", "--graph", str(workdir["edge"])],
        ["blocks", "--graph", str(workdir["edge"])],
        ["forbidden-check", "--graph", str(workdir["edge"])],
        ["dist", "--graph", str(workdir["edge"]), *ends],
        ["distmatrix", *inputs],
        ["cov", *inputs, *kernel],
        ["psd-check", *inputs, *kernel],
    ):
        code, out, err = _run(capsys, [*argv, "--origin", "0"])
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "UsageError"
        assert "unrecognized arguments: --origin" in payload["message"]
    code, out, err = _run(capsys, ["simulate", *inputs, *kernel, "--origin", "0"])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "UsageError"
    for argv in (["simulate", *inputs], ["variogram", *inputs, "--n", "10"]):
        code, out, _ = _run(capsys, [*argv, "--origin", "1"])
        assert code == 0 and json.loads(out)["origin"] == "1"


@pytest.mark.parametrize(
    "command", [["cov"], ["psd-check"], ["simulate", "--n", "2", "--seed", "1"]]
)
def test_kernel_commands_build_no_resistance_context(capsys, workdir, monkeypatch, command):
    origins = []
    real = gf.metrics.build_resistance_context

    def counting(g, origin=None):
        origins.append(origin)
        return real(g, origin)

    monkeypatch.setattr(gf.metrics, "build_resistance_context", counting)
    monkeypatch.setattr(gf.cli, "build_resistance_context", counting)
    inputs = ["--graph", str(workdir["edge"]), "--points", str(workdir["points"])]
    argv = [command[0], *inputs, "--kernel", str(workdir["matern"]), *command[1:]]
    for metric in ("resistance", "geodesic"):
        code, _, _ = _run(capsys, [*argv, "--metric", metric])
        assert code == 0 and origins == []
    # The canonical field is the one reader of an origin.
    code, _, _ = _run(capsys, ["simulate", *inputs, "--n", "2"])
    assert code == 0 and origins == [None]


def test_cov_reports_psd_certificate(capsys, workdir):
    code, out, _ = _run(
        capsys,
        [
            "cov",
            "--graph",
            str(workdir["edge"]),
            "--points",
            str(workdir["points"]),
            "--kernel",
            str(workdir["matern"]),
            "--metric",
            "resistance",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["psd_certificate"]["verdict"] == "psd"
    assert payload["kernel"] == {"family": "matern", "alpha": 0.5, "beta": 1.0}
    assert list(payload) == ["metric", "labels", "matrix", "kernel", "psd_certificate"]
    matrix = np.array(payload["matrix"])
    assert np.all(np.diag(matrix) == 1.0)


def test_psd_check_not_psd_and_strict_exit(capsys, workdir):
    args = [
        "psd-check",
        "--graph",
        str(workdir["witness_graph"]),
        "--points",
        str(workdir["witness_points"]),
        "--kernel",
        str(workdir["flat_exp"]),
        "--metric",
        "geodesic",
    ]
    code, out, _ = _run(capsys, args)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "not_psd" and payload["min_eig"] < -1e-8

    code, out, err = _run(capsys, args + ["--strict"])
    assert code == 2
    assert json.loads(err)["error"] == "NotPSD"


@pytest.mark.parametrize("tol", ["nan", "-5"])
def test_psd_check_rejects_bad_tolerance(capsys, workdir, tol):
    # Two points at resistance distance 0.5: exp(-0.5) off the diagonal, a
    # positive definite matrix with min_eig 0.632.
    points = workdir["dir"] / "two.json"
    points.write_text(json.dumps([{"edge": "e1", "offset": 0.25}, {"edge": "e1", "offset": 0.75}]))
    inputs = ["--graph", str(workdir["edge"]), "--points", str(points),
              "--kernel", str(workdir["matern"])]
    code, out, _ = _run(capsys, ["psd-check", *inputs])
    assert code == 0
    assert json.loads(out)["min_eig"] == pytest.approx(1.0 - math.exp(-0.5), abs=1e-12)
    for command in ("psd-check", "cov"):
        for strict in ([], ["--strict"]):
            code, out, err = _run(capsys, [command, *inputs, "--tol", tol, *strict])
            assert code == 2 and out == ""
            payload = json.loads(err)
            assert payload["error"] == "ParamOutOfRange" and payload["field"] == "rel_tol"


def test_psd_band_set_by_tol_decides_a_matrix_the_proof_does_not_cover(capsys, workdir):
    # exp(-0.05 d_G) on the six witness points has min_eig -4.9e-3 against
    # max_eig 5.74: no proof, outside the default band, inside 1e-3.
    kernel = workdir["dir"] / "exp005.json"
    kernel.write_text(json.dumps({"family": "power_exponential", "alpha": 1.0, "beta": 0.05}))
    inputs = ["--graph", str(workdir["witness_graph"]), "--points", str(workdir["witness_points"]),
              "--kernel", str(kernel), "--metric", "geodesic"]
    code, out, _ = _run(capsys, ["psd-check", *inputs])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "not_psd"
    assert payload["min_eig"] == pytest.approx(-4.9e-3, rel=0.02)
    assert payload["max_eig"] == pytest.approx(5.74, rel=1e-3)
    code, out, _ = _run(capsys, ["psd-check", *inputs, "--tol", "1e-3"])
    assert code == 0
    assert json.loads(out) == {**payload, "verdict": "psd"}
    code, out, err = _run(capsys, ["cov", *inputs, "--strict"])
    assert code == 2 and json.loads(err)["error"] == "NotPSD"
    assert json.loads(out)["psd_certificate"] == payload
    code, out, err = _run(capsys, ["cov", *inputs, "--strict", "--tol", "1e-3"])
    assert code == 0 and err == ""
    assert json.loads(out)["psd_certificate"]["verdict"] == "psd"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--graph", "g", "--points", "p", "--seed", "abc"], "invalid int value"),
        (["simulate", "--points", "p"], "the following arguments are required: --graph"),
        (["validate", "--graph", "-", "--bogus"], "unrecognized arguments: --bogus"),
        (["frobnicate", "--graph", "g"], "invalid choice: 'frobnicate'"),
        ([], "the following arguments are required: command"),
    ],
)
def test_usage_errors_are_one_json_line(capsys, argv, message):
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "UsageError" and message in payload["message"]


def test_help_still_exits_zero(capsys):
    for argv in (["--help"], ["cov", "--help"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert "usage: graphfields" in capsys.readouterr().out


def test_psd_tolerance_default_is_the_library_default():
    for command in ("cov", "psd-check"):
        args = build_parser().parse_args(
            [command, "--graph", "g", "--points", "p", "--kernel", "k"]
        )
        assert args.tol == PSD_REL_TOL


def test_psd_check_passes_under_resistance_on_witness_config(capsys, workdir):
    code, out, _ = _run(
        capsys,
        [
            "psd-check",
            "--graph",
            str(workdir["witness_graph"]),
            "--points",
            str(workdir["witness_points"]),
            "--kernel",
            str(workdir["flat_exp"]),
            "--metric",
            "resistance",
        ],
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "psd"


def test_psd_check_matches_cov_certificate(capsys, workdir):
    cases = [
        ("edge", "points", "matern", "resistance"),
        ("witness_graph", "witness_points", "flat_exp", "geodesic"),
    ]
    for graph, points, kernel, metric in cases:
        inputs = [
            "--graph",
            str(workdir[graph]),
            "--points",
            str(workdir[points]),
            "--kernel",
            str(workdir[kernel]),
            "--metric",
            metric,
        ]
        code_cov, out_cov, _ = _run(capsys, ["cov", *inputs])
        code_psd, out_psd, _ = _run(capsys, ["psd-check", *inputs])
        assert code_cov == code_psd == 0
        assert json.loads(out_psd) == json.loads(out_cov)["psd_certificate"]


def test_star_check(capsys, workdir):
    code, out, _ = _run(
        capsys, ["star-check", "--kernel", str(workdir["matern"]), "--n", "4"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert len(payload["results"]) == 20
    assert all(set(r) == {"t", "lower_ok", "upper_ok", "cross_ok", "passed"} for r in payload["results"])


def test_param_out_of_range_exits_2(capsys, workdir):
    bad = workdir["dir"] / "badkernel.json"
    bad.write_text(json.dumps({"family": "matern", "alpha": 0.7, "beta": 1.0}))
    code, _, err = _run(
        capsys, ["star-check", "--kernel", str(bad), "--n", "3"]
    )
    assert code == 2
    assert json.loads(err)["error"] == "ParamOutOfRange"


@pytest.mark.parametrize(
    "command, payload, error",
    [
        ("star-check", {"family": "matern", "alpha": "x", "beta": 1}, "ParamOutOfRange"),
        ("star-check", {"family": "matern", "alpha": None, "beta": 1}, "ParamOutOfRange"),
        ("distmatrix", [{"edge": "e1", "offset": "abc"}], "OffsetOutOfRange"),
        ("validate", {"vertices": ["0", "1"], "edges": [{"u": "0", "v": "1", "length": "z"}]}, "InvalidGraph"),
        # "vertices" and "edges" must be JSON arrays: a string used to give
        # a graph on its characters, a number a TypeError traceback.
        ("validate", {"vertices": 5, "edges": [{"u": "A", "v": "B", "length": 1}]}, "InvalidGraph"),
        ("validate", {"vertices": ["A", "B"], "edges": 7}, "InvalidGraph"),
        ("validate", {"vertices": "AB", "edges": [{"u": "A", "v": "B", "length": 1}]}, "InvalidGraph"),
        # A JSON true is not the number 1.
        ("star-check", {"family": "matern", "alpha": 0.5, "beta": True}, "ParamOutOfRange"),
        ("distmatrix", [{"edge": "e1", "offset": True}], "OffsetOutOfRange"),
        ("validate", {"vertices": ["0", "1"], "edges": [{"u": "0", "v": "1", "length": True}]}, "InvalidGraph"),
        # Nor is a JSON string that reads as a number.
        ("validate", {"vertices": ["0", "1"], "edges": [{"u": "0", "v": "1", "length": "2.5"}]}, "InvalidGraph"),
        ("distmatrix", [{"edge": "e1", "offset": "0.5"}], "OffsetOutOfRange"),
        ("star-check", {"family": "matern", "alpha": "0.25", "beta": 1}, "ParamOutOfRange"),
        ("star-check", {"family": "matern", "alpha": 0.25, "beta": "1e0"}, "ParamOutOfRange"),
        ("star-check", {"family": "dagum", "alpha": 0.5, "beta": 1, "xi": "0.5"}, "ParamOutOfRange"),
    ],
)
def test_non_numeric_json_fields_exit_2(capsys, workdir, command, payload, error):
    path = workdir["dir"] / "input.json"
    path.write_text(json.dumps(payload))
    argv = {
        "star-check": ["star-check", "--kernel", str(path), "--n", "3"],
        "distmatrix": ["distmatrix", "--graph", str(workdir["edge"]), "--points", str(path)],
        "validate": ["validate", "--graph", str(path)],
    }[command]
    code, _, err = _run(capsys, argv)
    assert code == 2
    assert json.loads(err)["error"] == error


# A number too large for a float, written out in full, and the literal 1e400,
# which JSON reads as inf, get the same error.
_HUGE = "1" + "0" * 400


@pytest.mark.parametrize(
    "command, text, error",
    [
        ("validate", '{"vertices": ["0", "1"], "edges": [{"u": "0", "v": "1", "length": X}]}', "InvalidGraph"),
        ("validate", '{"vertices": ["0", "1"], "edges": [{"u": "0", "v": "1", "length": -X}]}', "InvalidGraph"),
        ("dist", '{"edge": "e1", "offset": X}', "OffsetOutOfRange"),
        ("distmatrix", '[{"vertex": "0"}, {"edge": "e1", "offset": X}]', "OffsetOutOfRange"),
        ("star-check", '{"family": "matern", "alpha": X, "beta": 1}', "ParamOutOfRange"),
        ("star-check", '{"family": "matern", "alpha": 0.5, "beta": X}', "ParamOutOfRange"),
        ("star-check", '{"family": "dagum", "alpha": 0.5, "beta": 1, "xi": X}', "ParamOutOfRange"),
        ("cov", '{"family": "power_exponential", "alpha": 1, "beta": X}', "ParamOutOfRange"),
    ],
)
def test_overflowing_json_numbers_exit_2_as_1e400_does(capsys, workdir, command, text, error):
    errors = []
    for number in (_HUGE, "1e400"):
        body = text.replace("X", number)
        path = workdir["dir"] / "input.json"
        path.write_text(body)
        argv = {
            "validate": ["validate", "--graph", str(path)],
            "dist": ["dist", "--graph", str(workdir["edge"]), "--from", body, "--to", '{"vertex": "0"}'],
            "distmatrix": ["distmatrix", "--graph", str(workdir["edge"]), "--points", str(path)],
            "star-check": ["star-check", "--kernel", str(path), "--n", "3"],
            "cov": ["cov", "--graph", str(workdir["edge"]), "--points", str(workdir["points"]), "--kernel", str(path)],
        }[command]
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == error
        errors.append(err)
    assert errors[0] == errors[1]


@pytest.mark.parametrize("source", ["file", "inline"])
def test_json_integer_over_4300_digits_exits_1(capsys, workdir, source):
    text = '{"edge": "e1", "offset": ' + "1" * 5000 + "}"
    if source == "file":
        path = workdir["dir"] / "points.json"
        path.write_text(f"[{text}]")
        argv = ["distmatrix", "--graph", str(workdir["edge"]), "--points", str(path)]
    else:
        argv = ["dist", "--graph", str(workdir["edge"]), "--from", text, "--to", '{"vertex": "0"}']
    code, out, err = _run(capsys, argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "InputError"


def test_simulate_canonical_deterministic(capsys, workdir):
    args = [
        "simulate",
        "--graph",
        str(workdir["edge"]),
        "--points",
        str(workdir["points"]),
        "--n",
        "5",
        "--seed",
        "11",
    ]
    code, out1, _ = _run(capsys, args)
    assert code == 0
    code, out2, _ = _run(capsys, args)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["model"] == "canonical"
    assert len(payload["draws"]) == 5
    assert payload["labels"] == ["0", "e1@0.25", "e1@0.75", "1"]


def test_simulate_from_kernel_covariance(capsys, workdir):
    code, out, _ = _run(
        capsys,
        [
            "simulate",
            "--graph",
            str(workdir["edge"]),
            "--points",
            str(workdir["points"]),
            "--kernel",
            str(workdir["matern"]),
            "--metric",
            "resistance",
            "--n",
            "4",
            "--seed",
            "1",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["model"] == "kernel"
    assert payload["kernel"]["family"] == "matern"
    assert len(payload["draws"]) == 4


def test_simulate_csv_output(capsys, workdir):
    out_csv = workdir["dir"] / "draws.csv"
    code, _, _ = _run(
        capsys,
        [
            "simulate",
            "--graph",
            str(workdir["edge"]),
            "--points",
            str(workdir["points"]),
            "--n",
            "3",
            "--seed",
            "2",
            "--out",
            str(out_csv),
        ],
    )
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["0", "e1@0.25", "e1@0.75", "1"]
    assert len(rows) == 4
    floats = [float(x) for row in rows[1:] for x in row]
    assert all(np.isfinite(floats))


def test_variogram_close_to_resistance(capsys, workdir):
    code, out, _ = _run(
        capsys,
        [
            "variogram",
            "--graph",
            str(workdir["edge"]),
            "--points",
            str(workdir["points"]),
            "--n",
            "20000",
            "--seed",
            "3",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["metric"] == "empirical_variogram"
    vario = np.array(payload["matrix"])
    # distance between the two interior points is 0.5 on this tree
    assert vario[1, 2] == pytest.approx(0.5, rel=0.05)


def _grid_files(tmp_path, side: int, count: int):
    """A jittered grid, ``count`` random points on it, and the ``--graph``
    and ``--points`` arguments of their JSON files."""
    rng = np.random.default_rng(side)
    g = jittered_grid(rng, side)
    pts = random_points(rng, g, count, vertex_share=0.1)
    graph, points = tmp_path / "grid.json", tmp_path / "grid_points.json"
    graph.write_text(json.dumps(graph_to_json(g)))
    points.write_text(json.dumps([
        {"vertex": p.vertex} if p.is_vertex else {"edge": p.edge, "offset": p.offset}
        for p in pts
    ]))
    return g, pts, ["--graph", str(graph), "--points", str(points)]


@pytest.mark.parametrize("seed", [0, 5, 2**40])
def test_variogram_command_equals_the_library_bit_for_bit(tmp_path, seed):
    # The command streams the sampler's blocks; the library stacks them
    # into draws and reads those back in the same blocks.
    g, pts, files = _grid_files(tmp_path, 6, 30)
    ctx = gf.build_resistance_context(g)
    out = tmp_path / "v.npy"
    for n in (2, 130, 2000):
        argv = ["variogram", *files, "--n", str(n), "--seed", str(seed), "--out", str(out)]
        assert main(argv) == 0
        expected = gf.empirical_variogram(gf.sample_canonical_field(ctx, pts, n, seed))
        assert np.load(out).tobytes() == expected.tobytes()


def test_variogram_memory_does_not_grow_with_the_draw_count(tmp_path):
    # Draws of 200 points at n = 40000 would take 64 MB.
    _, _, files = _grid_files(tmp_path, 5, 200)
    argv = ["variogram", *files, "--out", str(tmp_path / "v.npy"), "--n"]

    def peak(n: int) -> int:
        tracemalloc.start()
        try:
            assert main([*argv, str(n)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # what any first call loads and caches
    assert peak(40000) - peak(2000) <= 2**20


def test_variogram_refuses_before_drawing(capsys, workdir, monkeypatch):
    # The draw count, then the seed, then the second draw, all before the
    # first normal.
    def draws(*args):
        raise AssertionError("drew a block")
        yield

    monkeypatch.setattr(gf.simulate, "_vertex_draws", draws)
    inputs = ["variogram", "--graph", str(workdir["edge"]), "--points", str(workdir["points"])]
    for extra, error, message in (
        (["--n", "0", "--seed", "-1"], "TooFewSamples", "need at least 1 draw, got 0"),
        (["--n", "1", "--seed", "-1"], "ParamOutOfRange", None),
        (["--n", "1"], "TooFewSamples", "variogram needs at least 2 draws, got 1"),
    ):
        code, out, err = _run(capsys, [*inputs, *extra])
        payload = json.loads(err)
        assert (code, out, payload["error"]) == (2, "", error)
        assert message in (None, payload["message"])


def test_unknown_point_reference_exits_2(capsys, workdir):
    bad_points = workdir["dir"] / "badpts.json"
    bad_points.write_text(json.dumps([{"vertex": "Z"}]))
    code, _, err = _run(
        capsys,
        [
            "distmatrix",
            "--graph",
            str(workdir["edge"]),
            "--points",
            str(bad_points),
            "--metric",
            "geodesic",
        ],
    )
    assert code == 2
    assert json.loads(err)["error"] == "UnknownVertex"


def test_blocks_payload_is_byte_stable(capsys, workdir):
    g = figure_eight()
    g = gf.build_graph([*g.vertices, "F"], [*g.edges, ("bf", "B", "F", 2.0)])
    path = workdir["dir"] / "eight_bridge.json"
    path.write_text(json.dumps(graph_to_json(g)))
    code, out, _ = _run(capsys, ["blocks", "--graph", str(path)])
    assert code == 0
    assert json.loads(out) == {
        "class": "SafeForGeodesic",
        "articulation_vertices": ["A", "B"],
        "blocks": [
            {"kind": "Bridge", "edges": ["bf"], "vertices": ["B", "F"]},
            {"kind": "Cycle", "edges": ["ab", "bc", "ca"], "vertices": ["A", "B", "C"]},
            {"kind": "Cycle", "edges": ["ad", "de", "ea"], "vertices": ["A", "D", "E"]},
        ],
    }


_POINT_LABELS = ["0", "e1@0.25", "e1@0.75", "1"]


@pytest.mark.parametrize(
    "command, kernel, head, array, tail",
    [
        (
            "variogram",
            False,
            {"metric": "empirical_variogram", "labels": _POINT_LABELS},
            ("matrix", (4, 4)),
            {"n": 3, "seed": 5, "origin": "0"},
        ),
        (
            "simulate",
            False,
            {"labels": _POINT_LABELS, "seed": 5, "n": 3},
            ("draws", (3, 4)),
            {"model": "canonical", "origin": "0"},
        ),
        (
            "simulate",
            True,
            {"labels": _POINT_LABELS, "seed": 5, "n": 3},
            ("draws", (3, 4)),
            {
                "model": "kernel",
                "kernel": {"family": "matern", "alpha": 0.5, "beta": 1.0},
                "metric": "resistance",
            },
        ),
    ],
)
def test_sample_payloads_are_byte_stable(capsys, workdir, command, kernel, head, array, tail):
    argv = [command, "--graph", str(workdir["edge"]), "--points", str(workdir["points"]),
            "--n", "3", "--seed", "5"]
    if kernel:
        argv += ["--kernel", str(workdir["matern"])]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [*head, array[0], *tail]
    assert {k: payload[k] for k in head} == head
    assert np.shape(payload[array[0]]) == array[1]
    assert {k: payload[k] for k in tail} == tail


def test_repeated_main_calls_share_no_state(capsys, workdir):
    assert build_parser() is build_parser()
    cov = ["cov", "--graph", str(workdir["witness_graph"]),
           "--points", str(workdir["witness_points"]),
           "--kernel", str(workdir["flat_exp"]), "--metric", "geodesic"]
    code, _, err = _run(capsys, [*cov, "--strict"])
    assert code == 2 and json.loads(err)["error"] == "NotPSD"
    code, out, err = _run(capsys, cov)
    assert code == 0 and err == ""
    assert json.loads(out)["psd_certificate"]["verdict"] == "not_psd"

    inputs = ["--graph", str(workdir["edge"]), "--points", str(workdir["points"]), "--n", "3"]
    code, out, _ = _run(capsys, ["variogram", *inputs])
    assert code == 0 and json.loads(out)["metric"] == "empirical_variogram"
    code, out, _ = _run(capsys, ["simulate", *inputs])
    assert code == 0
    payload = json.loads(out)
    assert payload["model"] == "canonical" and "draws" in payload and "matrix" not in payload

    code, out, _ = _run(capsys, ["forbidden-check", "--graph", str(workdir["theta"])])
    assert code == 0 and "witness" in json.loads(out)
    code, out, _ = _run(capsys, ["blocks", "--graph", str(workdir["theta"])])
    assert code == 0 and list(json.loads(out)) == ["class", "articulation_vertices", "blocks"]


@pytest.mark.parametrize(
    "command, kernel",
    [
        (["distmatrix", "--metric", "resistance"], False),
        (["distmatrix", "--metric", "geodesic"], False),
        (["cov", "--metric", "resistance"], True),
        (["cov", "--metric", "geodesic"], True),
        (["psd-check", "--metric", "resistance"], True),
        (["psd-check", "--metric", "geodesic"], True),
        (["simulate"], False),
        (["simulate", "--metric", "resistance"], True),
        (["simulate", "--metric", "geodesic"], True),
        (["variogram"], False),
    ],
)
def test_empty_points_file_exits_1(capsys, workdir, command, kernel):
    empty = workdir["dir"] / "empty.json"
    empty.write_text("[]")
    argv = [*command, "--graph", str(workdir["edge"]), "--points", str(empty)]
    if kernel:
        argv += ["--kernel", str(workdir["matern"])]
    code, out, err = _run(capsys, argv)
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "InputError",
        "message": "points file must be a non-empty JSON array",
    }


@pytest.mark.parametrize("suffix", [".json", ".csv", ".npy"])
def test_unwritable_out_exits_1(capsys, workdir, suffix):
    target = workdir["dir"] / "missing" / f"x{suffix}"
    inputs = ["--graph", str(workdir["edge"]), "--out", str(target)]
    for argv in (
        ["validate", *inputs],
        ["distmatrix", *inputs, "--points", str(workdir["points"])],
    ):
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "OutputError"
        assert payload["message"].startswith("cannot write output: ")
        assert not target.exists()


@pytest.mark.parametrize("suffix", [".csv", ".npy"])
def test_out_csv_and_npy_refused_without_a_matrix_or_sample(capsys, workdir, suffix):
    # Only matrices and samples have a CSV or .npy form; the other payloads
    # are refused by name, and no file is written.
    target = workdir["dir"] / f"x{suffix}"
    graph, kernel = ["--graph", str(workdir["theta"])], ["--kernel", str(workdir["matern"])]
    points = ["--points", str(workdir["points"])]
    for argv in (
        ["validate", *graph],
        ["blocks", *graph],
        ["forbidden-check", *graph],
        ["dist", *graph, "--from", '{"vertex": "x"}', "--to", '{"vertex": "y"}'],
        ["psd-check", "--graph", str(workdir["edge"]), *points, *kernel],
        ["star-check", *kernel, "--n", "3"],
    ):
        code, out, err = _run(capsys, [*argv, "--out", str(target)])
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "OutputError"
        assert payload["message"] == (
            f"cannot write output: {argv[0]} has no matrix or sample for {suffix}"
        )
        assert not target.exists()


def test_simulate_kernel_decomposes_the_covariance_once(capsys, workdir, monkeypatch):
    # Each kernel command proves its matrix by one shifted Cholesky, and
    # simulate draws from one more by the same routine; only the commands
    # that print eigenvalues run eigvalsh, once, whether or not the proof
    # holds.  No command runs numpy's Cholesky.
    calls = {"eigvalsh": [], "dpotrf": [], "cholesky": []}

    def counting(name, module, attr):
        real = getattr(module, attr)

        def counted(a, *args, **kwargs):
            calls[name].append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(module, attr, counted)

    counting("eigvalsh", np.linalg, "eigvalsh")
    counting("dpotrf", gf.kernels, "_dpotrf")
    counting("cholesky", np.linalg, "cholesky")
    files = ["--graph", str(workdir["edge"]), "--points", str(workdir["points"]),
             "--kernel", str(workdir["matern"])]
    # exp(-0.05 d_G) on the six witness points: the proof fails, and the
    # certificate's eigenvalues are banded again at --tol.
    kernel = workdir["dir"] / "exp005.json"
    kernel.write_text(json.dumps({"family": "power_exponential", "alpha": 1.0, "beta": 0.05}))
    witness = ["--graph", str(workdir["witness_graph"]), "--points",
               str(workdir["witness_points"]), "--kernel", str(kernel), "--metric", "geodesic"]
    for argv, eigvalsh, dpotrf in (
        (["simulate", *files, "--n", "3"], [], [(4, 4), (4, 4)]),
        (["cov", *files], [(4, 4)], [(4, 4)]),
        (["psd-check", *files], [(4, 4)], [(4, 4)]),
        (["cov", *witness], [(6, 6)], [(6, 6)]),
        (["psd-check", *witness, "--tol", "1e-3"], [(6, 6)], [(6, 6)]),
    ):
        for seen in calls.values():
            seen.clear()
        code, _, _ = _run(capsys, argv)
        assert code == 0
        assert calls == {"eigvalsh": eigvalsh, "dpotrf": dpotrf, "cholesky": []}, argv[0]


@pytest.mark.parametrize(
    "command",
    [
        ["distmatrix", "--metric", "resistance"],
        ["distmatrix", "--metric", "geodesic"],
        ["cov", "--metric", "resistance", "--kernel", "matern"],
        ["psd-check", "--metric", "geodesic", "--kernel", "matern"],
        ["simulate", "--kernel", "matern"],
        ["simulate"],
        ["variogram", "--n", "2"],
    ],
)
def test_loaded_points_are_canonicalized_once(capsys, workdir, monkeypatch, command):
    # One point table per command, which locates each loaded point once.
    located, tables = [], []
    real_locate, real_table = gf.metrics._locate, gf.metrics._point_table

    def counted_locate(g, p):
        located.append(p)
        return real_locate(g, p)

    def counted_table(g, points):
        table = real_table(g, points)
        tables.append(table)
        return table

    monkeypatch.setattr(gf.graph, "_locate", counted_locate)
    monkeypatch.setattr(gf.metrics, "_locate", counted_locate)
    monkeypatch.setattr(gf.metrics, "_point_table", counted_table)
    # The one workdir file named in a command is its kernel.
    argv = [command[0], "--graph", str(workdir["edge"]), "--points", str(workdir["points"])]
    argv += [str(workdir[arg]) if arg in workdir else arg for arg in command[1:]]
    code, _, _ = _run(capsys, argv)
    assert code == 0
    assert located == [
        gf.vertex_point("0"),
        gf.edge_point("e1", 0.25),
        gf.edge_point("e1", 0.75),
        gf.vertex_point("1"),
    ]
    assert len(tables) == 1 and tables[0].labels == ("0", "e1@0.25", "e1@0.75", "1")


@pytest.mark.parametrize("metric", ["geodesic", "resistance"])
def test_dist_locates_each_point_once(capsys, workdir, monkeypatch, metric):
    # One point table of the two points, each point located once; the same
    # point twice is 0 apart.  A bad --from point is named before a --to
    # that does not parse.
    located, tables = [], []
    real_locate, real_table = gf.metrics._locate, gf.metrics._point_table

    def counted_locate(g, p):
        located.append(p)
        return real_locate(g, p)

    def counted_table(g, points):
        tables.append(real_table(g, points))
        return tables[-1]

    monkeypatch.setattr(gf.graph, "_locate", counted_locate)
    monkeypatch.setattr(gf.metrics, "_locate", counted_locate)
    monkeypatch.setattr(gf.metrics, "_point_table", counted_table)
    argv = ["dist", "--graph", str(workdir["edge"]), "--metric", metric]
    for ends, value in (
        (['{"edge": "e1", "offset": 1.0}', '{"edge": "e1", "offset": 0.25}'], 0.75),
        (['{"vertex": "0"}', '{"edge": "e1", "offset": 0.0}'], 0.0),
    ):
        located.clear()
        tables.clear()
        code, out, _ = _run(capsys, [*argv, "--from", ends[0], "--to", ends[1]])
        assert code == 0 and json.loads(out)["value"] == value
        assert len(located) == 2 and len(tables) == 1
    code, _, err = _run(capsys, [*argv, "--from", '{"vertex": "Z"}', "--to", "{"])
    assert code == 2 and json.loads(err)["error"] == "UnknownVertex"


# Floats whose text is easy to get wrong: signed zeros, non-finite values,
# subnormals and both sides of repr's switches to exponent notation.
_EDGE_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e16, 9999999999999998.0, 1e-5, 0.0001, 1e-300, 1.5e300, 0.1, 1.0, -1.0,
]
_FLOATS = st.sampled_from(_EDGE_FLOATS) | st.floats()
_LABELS = st.sampled_from(['"', "\\", ", ", "], [", 'a,"b', "\u00e9t\u00e9", "\u65e5\u672c", "\n"]) | st.text(max_size=6)


@st.composite
def _float_arrays(draw):
    """1 x k, k x 1 or k x k float arrays (k may be 0), square ones possibly
    bit-symmetric; the edge floats make values repeat."""
    shape = draw(st.sampled_from(["row", "column", "square"]))
    k = draw(st.integers(0, 6))
    rows, cols = {"row": (1, k), "column": (k, 1), "square": (k, k)}[shape]
    cells = draw(st.lists(_FLOATS, min_size=rows * cols, max_size=rows * cols))
    a = np.array(cells, dtype=float).reshape(rows, cols)
    if shape == "square" and draw(st.booleans()):
        a = np.where(np.triu(np.ones((k, k), dtype=bool)), a, a.T)
    return a


_PAYLOADS = st.dictionaries(
    _LABELS,
    st.one_of(
        _float_arrays(),
        st.lists(_LABELS, max_size=4),
        _FLOATS,
        st.integers(),
        st.booleans(),
        st.none(),
        st.dictionaries(_LABELS, _FLOATS | _LABELS, max_size=3),
    ),
    max_size=5,
)


@settings(max_examples=300)
@given(_PAYLOADS)
def test_dumps_is_json_dumps_indent_2(payload):
    as_lists = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in payload.items()}
    text = io.StringIO()
    _writer(payload)(text)
    assert text.getvalue() == json.dumps(as_lists, indent=2) + "\n"
    for value in payload.values():
        if isinstance(value, np.ndarray):
            cells = io.StringIO(newline="")
            _writer({}, (["x"] * value.shape[1], value), as_csv=True)(cells)
            rows = list(csv.reader(io.StringIO(cells.getvalue(), newline="")))
            assert rows[1:] == [[repr(float(x)) for x in row] for row in value]


def test_every_command_prints_the_indent_2_layout(capsys, workdir):
    graph = ["--graph", str(workdir["edge"])]
    inputs = [*graph, "--points", str(workdir["points"])]
    kernel = ["--kernel", str(workdir["matern"])]
    ends = ["--from", '{"vertex":"0"}', "--to", '{"edge":"e1","offset":0.25}']
    for argv in (
        ["validate", *graph],
        ["blocks", "--graph", str(workdir["theta"])],
        ["forbidden-check", "--graph", str(workdir["theta"])],
        ["dist", *graph, "--metric", "resistance", *ends],
        ["dist", *graph, "--metric", "geodesic", *ends],
        ["distmatrix", *inputs, "--metric", "resistance"],
        ["distmatrix", *inputs, "--metric", "geodesic"],
        ["cov", *inputs, *kernel],
        ["psd-check", *inputs, *kernel],
        ["star-check", *kernel, "--n", "3"],
        ["simulate", *inputs, "--n", "3", "--seed", "2"],
        ["simulate", *inputs, *kernel, "--n", "3", "--seed", "2"],
        ["variogram", *inputs, "--n", "50", "--seed", "3"],
    ):
        code, out, _ = _run(capsys, argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        out_json = workdir["dir"] / "out.json"
        code, _, _ = _run(capsys, [*argv, "--out", str(out_json)])
        assert code == 0 and out_json.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("suffix", [".json", ".csv"])
def test_a_failed_format_writes_nothing(capsys, workdir, monkeypatch, suffix):
    # The matrix's floats are formatted by one json.dumps call, here out of
    # memory; an --out file opened before it would be left empty.
    dumps = json.dumps

    def out_of_memory(obj, *args, **kwargs):
        if isinstance(obj, list) and obj and isinstance(obj[0], float):
            raise MemoryError
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", out_of_memory)
    out = workdir["dir"] / f"out{suffix}"
    out.write_text("PREVIOUS RESULT")
    argv = ["distmatrix", "--graph", str(workdir["edge"]), "--points", str(workdir["points"])]
    for extra in ([], ["--out", str(out)]):
        code, stdout, err = _run(capsys, [*argv, *extra])
        assert code == 1 and stdout == ""
        assert json.loads(err)["error"] == "OutOfMemory"
    assert out.read_bytes() == b"PREVIOUS RESULT"


@pytest.mark.parametrize(
    "point",
    [
        {"vertex": "0", "edge": "e1", "offset": 0.5},
        {"vertex": "0", "edge": "e1"},
        {"vertex": "0", "offset": 0.5},
    ],
)
def test_a_point_object_mixing_both_forms_exits_2(capsys, workdir, point):
    path = workdir["dir"] / "mixed.json"
    path.write_text(json.dumps([{"vertex": "1"}, point]))
    graph = ["--graph", str(workdir["edge"])]
    text = json.dumps(point)
    for argv in (
        ["distmatrix", *graph, "--points", str(path)],
        ["dist", *graph, "--from", text, "--to", '{"vertex": "1"}'],
        ["dist", *graph, "--from", '{"vertex": "1"}', "--to", text],
    ):
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "OffsetOutOfRange"


_IMPORTS = """
import json, pathlib, sys
import scipy.sparse, scipy.sparse.csgraph, scipy.sparse.linalg, scipy.linalg.lapack

def special():
    return sorted(name for name in sys.modules if name.startswith("scipy.special"))

loaded = {"scipy": special()}
import graphfields.cli
loaded["import"] = special()
graph, points, out, *kernels = sys.argv[1:]
for kernel in kernels:
    code = graphfields.cli.main(
        ["cov", "--graph", graph, "--points", points, "--kernel", kernel, "--out", out]
    )
    assert code == 0, code
    loaded[json.loads(pathlib.Path(kernel).read_text())["family"]] = special()
print(json.dumps(loaded))
"""


def test_only_the_matern_family_loads_scipy_special(workdir):
    # The scipy modules graphfields uses load first, so what the import and
    # the commands add is graphfields' own doing.  At nu = 1/2 the Matern
    # profile is exp(-z) and reads no special function, so nu is 1/4 here.
    matern = workdir["dir"] / "matern_quarter.json"
    matern.write_text(json.dumps({"family": "matern", "alpha": 0.25, "beta": 1.0}))
    env = {**os.environ, "PYTHONPATH": str(Path(gf.__file__).resolve().parents[1])}
    argv = [workdir["edge"], workdir["points"], workdir["dir"] / "cov.json", workdir["flat_exp"], matern]
    done = subprocess.run(
        [sys.executable, "-c", _IMPORTS, *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert loaded["import"] == loaded["power_exponential"] == loaded["scipy"]
    assert "scipy.special" in loaded["matern"]


def test_csv_quotes_labels_and_keeps_repr_text(capsys, workdir):
    g = gf.build_graph(["A", "B"], [('a,"b', "A", "B", 1.0)])
    path = workdir["dir"] / "quoted.json"
    path.write_text(json.dumps(graph_to_json(g)))
    points = workdir["dir"] / "quoted_points.json"
    points.write_text(json.dumps([{"edge": 'a,"b', "offset": x} for x in (0.0, 0.1, 1e-5)]))
    argv = ["distmatrix", "--graph", str(path), "--points", str(points), "--metric", "geodesic"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(payload["labels"])
    for row in payload["matrix"]:
        writer.writerow([repr(float(x)) for x in row])
    out_csv = workdir["dir"] / "quoted.csv"
    code, _, _ = _run(capsys, [*argv, "--out", str(out_csv)])
    assert code == 0
    assert out_csv.read_bytes() == expected.getvalue().encode("utf-8")


_TWO_VERTICES = '{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "length": LENGTH}]}'


@pytest.mark.parametrize(
    "length, code, error",
    [("1", 0, None), ("1" * 5000, 1, "InputError"), (_HUGE, 2, "InvalidGraph")],
)
def test_console_entry_point_exit_codes(length, code, error):
    # The console script's entry point, in a fresh interpreter: a graph on
    # stdin that is valid, that json cannot read, and whose length is too
    # large for a float.  An error is one JSON line on stderr, never a
    # traceback.
    done = _console("validate", "--graph", "-", stdin=_TWO_VERTICES.replace("LENGTH", length))
    if error is None:
        assert done.returncode == 0 and done.stderr == ""
        assert json.loads(done.stdout)["valid"] is True
    else:
        _assert_one_error_line(done, code, error)


def _console(*argv, stdin="", flags=()):
    """Run the console script's entry point in a fresh interpreter, started
    with the interpreter options ``flags``."""
    env = {**os.environ, "PYTHONPATH": str(Path(gf.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, *flags, "-m", "graphfields.cli", *map(str, argv)],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


_TOO_SHORT = json.dumps({"vertices": ["a", "b", "c"], "edges": [
    {"id": "ab", "u": "a", "v": "b", "length": 5e-324},
    {"id": "bc", "u": "b", "v": "c", "length": 1.0},
]})


@pytest.mark.parametrize("flags", [(), ("-W", "error")], ids=["default", "W-error"])
def test_console_refuses_an_edge_whose_conductance_overflows(flags):
    # 1 / 5e-324 overflows.  Under the default warning filters (not this
    # suite's "error") a RuntimeWarning would print before the JSON line,
    # and under -W error it would be a traceback; the edge is refused before
    # dividing.  Geodesic distances still answer.
    ends = ["--from", '{"vertex": "a"}', "--to", '{"edge": "bc", "offset": 0.5}']
    argv = ["dist", "--graph", "-", *ends, "--metric"]
    done = _console(*argv, "resistance", stdin=_TOO_SHORT, flags=flags)
    assert _assert_one_error_line(done, 2, "FactorizationFailed")["edge_id"] == "ab"
    done = _console(*argv, "geodesic", stdin=_TOO_SHORT, flags=flags)
    assert (done.returncode, done.stderr, json.loads(done.stdout)["value"]) == (0, "", 0.5)


def _assert_one_error_line(done, code, error) -> dict:
    assert done.returncode == code
    assert "Traceback" not in done.stderr
    assert done.stdout == "" and done.stderr.count("\n") == 1
    payload = json.loads(done.stderr)
    assert payload["error"] == error
    return payload


def _sampler_argv(workdir, command, points):
    """``simulate`` of the canonical field, ``simulate --kernel`` and
    ``variogram`` on the single edge."""
    kernel = ["--kernel", workdir["matern"]] if command == "simulate --kernel" else []
    return [command.split()[0], "--graph", workdir["edge"], "--points", points, *kernel]


@pytest.mark.parametrize("command", ["simulate", "simulate --kernel", "variogram"])
def test_console_refuses_a_negative_seed(workdir, command):
    done = _console(*_sampler_argv(workdir, command, workdir["points"]), "--seed", "-1")
    assert _assert_one_error_line(done, 2, "ParamOutOfRange")["field"] == "seed"


def test_console_refuses_a_metric_for_the_canonical_field(capsys, workdir):
    # The canonical field has no metric, so a --metric there is refused
    # before any file is read: the files named here do not exist.
    missing = workdir["dir"] / "missing.json"
    for metric in ("geodesic", "resistance"):
        done = _console("simulate", "--graph", missing, "--points", missing, "--metric", metric)
        payload = _assert_one_error_line(done, 2, "UsageError")
        assert payload["message"] == "--metric applies only to --kernel, not to the canonical field"
    # A kernel without --metric reads the resistance metric.
    argv = _sampler_argv(workdir, "simulate --kernel", workdir["points"])
    code, out, _ = _run(capsys, list(map(str, argv)))
    assert code == 0 and json.loads(out)["metric"] == "resistance"


@pytest.mark.parametrize("command", ["simulate", "simulate --kernel"])
def test_console_reports_running_out_of_memory(workdir, command):
    # 10**17 draws of two points take 1.6e18 bytes, more than any user
    # address space, so the allocation fails at once whatever the
    # overcommit setting.
    two = workdir["dir"] / "two.json"
    two.write_text(json.dumps([{"vertex": "0"}, {"edge": "e1", "offset": 0.5}]))
    done = _console(*_sampler_argv(workdir, command, two), "--n", 10**17)
    assert "allocate" in _assert_one_error_line(done, 1, "OutOfMemory")["message"]
