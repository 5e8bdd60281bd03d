"""The public surface of the package, locked by name."""

from __future__ import annotations

import argparse
import dataclasses
import inspect

import graphfields as gf
from graphfields.cli import build_parser
from .helpers import unit_square

# Adding or removing a public name must edit this list on purpose.
PUBLIC_NAMES = [
    "Block",
    "BlockDecomposition",
    "BlockKind",
    "CovarianceMatrix",
    "DistanceInconsistentError",
    "DuplicatePointsError",
    "Edge",
    "EuclideanGraph",
    "FactorizationFailedError",
    "FieldSample",
    "ForbiddenWitness",
    "GeodesicValidity",
    "GraphFieldsError",
    "GraphPoint",
    "InvalidGraphError",
    "KernelFamily",
    "KernelSpec",
    "MetricKind",
    "MultiEdgeOrLoopError",
    "NOutOfRangeError",
    "NonFiniteError",
    "NotConnectedError",
    "NotPSDError",
    "OffsetOutOfRangeError",
    "ParamOutOfRangeError",
    "PsdReport",
    "ResistanceContext",
    "StarInequalityResult",
    "TooFewSamplesError",
    "UnknownEdgeError",
    "UnknownVertexError",
    "block_decomposition",
    "build_graph",
    "build_resistance_context",
    "covariance_matrix",
    "distance_matrix",
    "edge_point",
    "empirical_variogram",
    "forbidden_certificate",
    "geodesic_distance",
    "graph_from_json",
    "kernel_spec_from_json",
    "kernel_spec_to_json",
    "oracle_effective_resistance",
    "point_from_json",
    "point_label",
    "psd_check",
    "radial_profile",
    "resistance_distance",
    "sample_canonical_field",
    "sample_from_covariance",
    "star_inequality_check",
    "vertex_point",
]


def test_public_names_are_exactly_the_locked_list_and_resolve():
    assert len(PUBLIC_NAMES) == 53
    assert sorted(gf.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(gf, name) is not None, name


# The fields, in order, of the public dataclasses, and their other public
# members (properties and methods).  Each change edits these on purpose.
DATACLASS_FIELDS = {
    "CovarianceMatrix": (["labels", "values", "psd_certificate"], []),
    "Edge": (["id", "u", "v", "length"], []),
    "FieldSample": (["labels", "draws", "seed", "jitter"], []),
    "GraphPoint": (["vertex", "edge", "offset"], ["is_vertex"]),
    "KernelSpec": (["family", "alpha", "beta", "xi"], []),
    "PsdReport": (["min_eig", "max_eig", "is_psd"], ["verdict"]),
}

GRAPH_ATTRIBUTES = ["edge", "edges", "total_length", "vertex_index", "vertices"]


def test_dataclass_fields_are_locked():
    for name, (fields, members) in DATACLASS_FIELDS.items():
        cls = getattr(gf, name)
        names = [f.name for f in dataclasses.fields(cls)]
        assert names == fields, name
        public = {a for a in dir(cls) if not a.startswith("_")}
        assert sorted(public - set(names)) == members, name


def test_built_graph_attributes_are_locked():
    g = unit_square()
    assert sorted(a for a in dir(g) if not a.startswith("_")) == GRAPH_ATTRIBUTES


# The public functions that take an origin, or a context that holds one.
# The origin changes the output of sample_canonical_field only;
# distance_matrix and resistance_distance read a context for its graph
# alone, and keep it because benchmark/ passes one.
ORIGIN_PARAMETERS = {
    "build_resistance_context": "origin",
    "distance_matrix": "ctx",
    "resistance_distance": "ctx",
    "sample_canonical_field": "ctx",
}


def test_origin_parameters_are_locked():
    found = {}
    for name in PUBLIC_NAMES:
        obj = getattr(gf, name)
        if inspect.isfunction(obj):
            for param in inspect.signature(obj).parameters:
                if param in ("origin", "ctx"):
                    found[name] = param
    assert found == ORIGIN_PARAMETERS


# The option strings of each subcommand, as PUBLIC_NAMES is for names:
# adding or removing a flag must edit this table on purpose.  Only the
# canonical field reads an origin.
CLI_OPTIONS = {
    "validate": ["--graph", "--out"],
    "blocks": ["--graph", "--out"],
    "dist": ["--from", "--graph", "--metric", "--out", "--to"],
    "distmatrix": ["--graph", "--metric", "--out", "--points"],
    "cov": ["--graph", "--kernel", "--metric", "--out", "--points", "--strict", "--tol"],
    "psd-check": ["--graph", "--kernel", "--metric", "--out", "--points", "--strict", "--tol"],
    "forbidden-check": ["--graph", "--out"],
    "star-check": ["--kernel", "--n", "--out", "--strict"],
    "simulate": [
        "--graph", "--kernel", "--metric", "--n", "--origin", "--out", "--points", "--seed",
    ],
    "variogram": ["--graph", "--n", "--origin", "--out", "--points", "--seed"],
}


def test_cli_options_are_locked():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: sorted(
            flag
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
            for flag in action.option_strings
        )
        for name, parser in sub.choices.items()
    }
    assert options == CLI_OPTIONS
