"""AutoComm core passes: aggregation, assignment, scheduling and the pipeline."""

from .aggregation import AggregationResult, aggregate_communications, CommAggregator
from .aggregation_reference import (
    ReferenceCommAggregator,
    aggregate_communications_reference,
)
from .assignment import AssignmentResult, assign_communications, choose_scheme
from .assignment_reference import (
    assign_communications_reference,
    block_latency_reference,
)
from .scheduling import (
    ScheduleResult,
    ScheduledOp,
    SchedulePlan,
    FusedTPChain,
    MigrationOp,
    schedule_communications,
    schedule_phased_communications,
    plan_schedule,
    plan_phased_schedule,
    fuse_tp_chains,
    compute_boundary_bubble,
)
from .scheduling_reference import (
    plan_schedule_reference,
    schedule_communications_reference,
)
from .metrics import (
    CompilationMetrics,
    comparison_factors,
    burst_distribution,
    distribution_from_loads,
    communication_loads,
)
from .pipeline import (AutoCommConfig, AutoCommCompiler, CompiledPhase,
                       CompiledProgram, compile_autocomm)

__all__ = [
    "AggregationResult",
    "aggregate_communications",
    "CommAggregator",
    "ReferenceCommAggregator",
    "aggregate_communications_reference",
    "AssignmentResult",
    "assign_communications",
    "choose_scheme",
    "assign_communications_reference",
    "block_latency_reference",
    "ScheduleResult",
    "ScheduledOp",
    "SchedulePlan",
    "FusedTPChain",
    "MigrationOp",
    "schedule_communications",
    "schedule_phased_communications",
    "plan_schedule",
    "plan_phased_schedule",
    "fuse_tp_chains",
    "compute_boundary_bubble",
    "plan_schedule_reference",
    "schedule_communications_reference",
    "CompilationMetrics",
    "comparison_factors",
    "burst_distribution",
    "distribution_from_loads",
    "communication_loads",
    "AutoCommConfig",
    "AutoCommCompiler",
    "CompiledPhase",
    "CompiledProgram",
    "compile_autocomm",
]
