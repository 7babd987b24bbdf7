"""Knowlton-Graham partition pairs and cable wire identification.

See matrices (0-1 matrices with prescribed sums), partitions (the
partition-pair layer: bounds, representation, construction, verification)
and cable (the two-ended identification protocol simulator).
"""

from .matrices import BinaryMatrix, construct_matrix
from .partitions import (
    Construction, ConstructionError, InfeasibleOrderError, KgPartition, Representation, construct,
    construct_trace, feasible_orders, kg_violations, matrix_to_partition, max_elements, min_elements,
    partition_from_json, partition_to_json, represent,
)
from .cable import (
    END_A, END_B, CableInstance, ConnectionPlan, ProtocolError, ProtocolTranscript, make_cable, probe,
    run_protocol, transcript_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryMatrix", "CableInstance", "ConnectionPlan", "Construction", "ConstructionError", "END_A",
    "END_B", "InfeasibleOrderError", "KgPartition", "ProtocolError", "ProtocolTranscript",
    "Representation", "construct", "construct_matrix", "construct_trace", "feasible_orders",
    "kg_violations", "make_cable", "matrix_to_partition", "max_elements", "min_elements",
    "partition_from_json", "partition_to_json", "probe", "represent", "run_protocol",
    "transcript_to_json",
]
