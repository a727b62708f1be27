"""Qubit-to-node partitioning: interaction graphs, mappings and OEE search."""

from .interaction_graph import interaction_graph, interaction_matrix, cut_weight
from .mapping import QubitMapping, round_robin_mapping, block_mapping
from .oee import (oee_partition, oee_repartition, OEEResult,
                  exchange_gain_vector, migration_distance_matrix)
from .oee_reference import (exchange_gain_reference, oee_partition_reference,
                            oee_repartition_reference)

__all__ = [
    "interaction_graph",
    "interaction_matrix",
    "cut_weight",
    "QubitMapping",
    "round_robin_mapping",
    "block_mapping",
    "oee_partition",
    "oee_repartition",
    "OEEResult",
    "exchange_gain_vector",
    "migration_distance_matrix",
    "exchange_gain_reference",
    "oee_partition_reference",
    "oee_repartition_reference",
]
