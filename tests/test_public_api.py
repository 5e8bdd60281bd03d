"""The public surface of the package, locked by name."""

from __future__ import annotations

import graphfields as gf

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
    "canonicalize",
    "covariance_from_distances",
    "covariance_matrix",
    "distance_matrix",
    "edge_point",
    "empirical_variogram",
    "forbidden_certificate",
    "geodesic_distance",
    "graph_from_json",
    "graph_to_json",
    "kernel_spec_from_json",
    "kernel_spec_to_json",
    "oracle_effective_resistance",
    "point_from_json",
    "point_label",
    "point_to_json",
    "psd_check",
    "r_graph_matrix",
    "radial_profile",
    "resistance_distance",
    "sample_canonical_field",
    "sample_from_covariance",
    "smoothness_bound",
    "split_edge",
    "star_inequality_check",
    "theta_witness_graph",
    "vertex_point",
]


def test_public_names_are_exactly_the_locked_list_and_resolve():
    assert len(PUBLIC_NAMES) == 61
    assert sorted(gf.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(gf, name) is not None, name
