"""Knowlton-Graham partition pairs and cable wire identification.

See matrices (0-1 matrices with prescribed sums), partitions (the
partition-pair layer: bounds, representation, construction, verification)
and cable (the two-ended identification protocol simulator).
"""

from .matrices import (
    BinaryMatrix,
    can_construct,
    conjugate,
    construct_matrix,
    enumerate_matrices,
    format_degree_sequence,
    gale_ryser_feasible,
)
from .partitions import (
    Construction,
    ConstructionError,
    InfeasibleOrderError,
    KgPartition,
    Representation,
    construct,
    construct_trace,
    feasible_orders,
    kg_violations,
    matrix_to_partition,
    max_elements,
    min_elements,
    partition_from_json,
    partition_to_json,
    partition_to_matrix,
    represent,
    verify_kg,
)
from .cable import (
    END_A,
    END_B,
    CableInstance,
    ConnectionPlan,
    ProtocolError,
    ProtocolTranscript,
    make_cable,
    probe,
    run_protocol,
    transcript_from_json,
    transcript_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryMatrix",
    "CableInstance",
    "ConnectionPlan",
    "Construction",
    "ConstructionError",
    "END_A",
    "END_B",
    "InfeasibleOrderError",
    "KgPartition",
    "ProtocolError",
    "ProtocolTranscript",
    "Representation",
    "can_construct",
    "conjugate",
    "construct",
    "construct_matrix",
    "construct_trace",
    "enumerate_matrices",
    "feasible_orders",
    "format_degree_sequence",
    "gale_ryser_feasible",
    "kg_violations",
    "make_cable",
    "matrix_to_partition",
    "max_elements",
    "min_elements",
    "partition_from_json",
    "partition_to_json",
    "partition_to_matrix",
    "probe",
    "represent",
    "run_protocol",
    "transcript_from_json",
    "transcript_to_json",
    "verify_kg",
]
