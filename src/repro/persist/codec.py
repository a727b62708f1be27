"""Canonical serialization of compiled artifacts.

Every compiler output this repository produces — :class:`~repro.ir.circuit.Circuit`,
:class:`~repro.core.pipeline.CompiledProgram` (static and phase-structured),
:class:`~repro.hardware.network.QuantumNetwork` with its routing table and
link model — converts to a versioned, JSON-ready *payload* and back.
Schedule plans are not serialized: a program rebuilds its plan on demand.
The format is canonical by construction:

* every payload is a plain dict/list/scalar tree with explicit field lists
  (no ``__dict__`` dumps), so two structurally equal objects serialize to
  equal payloads;
* collections with unordered in-memory representations (latency overrides,
  link-model overrides, routes, histograms) are emitted in sorted key
  order — nothing depends on dict insertion, set iteration or
  ``PYTHONHASHSEED``;
* shared-object structure inside a program (the aggregation's blocks are a
  subset of its items; a static program's circuit/mapping are the
  aggregation's) is encoded by *index* or by a ``null`` back-reference, not
  duplicated, so deserialization rebuilds the same sharing the pipeline
  produced.

The behavioural contract (guarded by
``tests/persist/test_roundtrip_equivalence.py``): a deserialized program is
indistinguishable from the freshly compiled one to every consumer —
identical metrics and analytical latency, the same schedule plan, and
bit-identical deterministic-replay and Monte-Carlo streams.
"""

from __future__ import annotations

import gzip
import io
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..comm.blocks import CommBlock, CommPattern, CommScheme
from ..comm.cost import CommCost
from ..core.aggregation import AggregationResult
from ..core.assignment import AssignmentResult
from ..core.metrics import CompilationMetrics
from ..core.pipeline import CompiledPhase, CompiledProgram
from ..core.scheduling import MigrationOp, ScheduleResult, ScheduledOp
from ..hardware.epr import CommResourceTracker
from ..hardware.links import LinkModel
from ..hardware.network import QuantumNetwork
from ..hardware.node import QuantumNode
from ..hardware.routing import EPRRoute, RoutingTable
from ..hardware.timing import LatencyModel
from ..ir.circuit import Circuit
from ..ir.gates import Gate
from ..obs.span import Span
from ..partition.mapping import QubitMapping

__all__ = [
    "SCHEMA_VERSION",
    "canonical_json",
    "circuit_to_payload", "circuit_from_payload",
    "network_to_payload", "network_from_payload",
    "mapping_to_payload", "mapping_from_payload",
    "program_to_payload", "program_from_payload",
    "save_program", "load_program",
    "dumps_program", "loads_program",
]

#: Version of the payload schema.  Bump on any change to field names,
#: orderings or semantics; the compile cache silently ignores entries
#: written under a different version.
#:
#: v2: zero-bubble boundaries — plans carry ``overlap``/``item_phases``,
#: schedules carry ``overlap``/``boundary_bubble``.
SCHEMA_VERSION = 2

Payload = Dict[str, Any]


def canonical_json(payload: Any) -> str:
    """The canonical JSON text of a payload: sorted keys, no whitespace.

    One payload has exactly one canonical text, which is what makes
    serialized artifacts content-addressable (the cache fingerprints hash
    this text).
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# IR: gates, circuits
# ---------------------------------------------------------------------------

def gate_to_payload(gate: Gate) -> List[Any]:
    return [gate.name, list(gate.qubits), list(gate.params)]


def gate_from_payload(payload: List[Any]) -> Gate:
    # The payload is this module's own output (behind the schema check), so
    # every field was validated when the gate was first constructed;
    # from_trusted skips the per-gate re-validation that would otherwise
    # dominate artifact loads.
    name, qubits, params = payload
    return Gate.from_trusted(name, tuple(qubits),
                             tuple(map(float, params)) if params else ())


class GateTable:
    """Value-deduplicated gate rows shared across one program payload.

    The same gates appear several times in a compiled program (the circuit
    gate list, the burst blocks built from it, phased re-partitions);
    storing each distinct ``(name, qubits, params)`` once and referencing
    it by integer index roughly halves both the artifact size and the
    number of gate objects a load has to build.  Rows are appended in
    encoding-traversal order, which is itself canonical, so equal programs
    still produce equal bytes.
    """

    def __init__(self) -> None:
        self.rows: List[List[Any]] = []
        self._index: Dict[Any, int] = {}

    def ref(self, gate: Gate) -> int:
        key = (gate.name, gate.qubits, gate.params)
        position = self._index.get(key)
        if position is None:
            position = len(self.rows)
            self._index[key] = position
            self.rows.append(gate_to_payload(gate))
        return position


def _gate_entry(gate: Gate, table: Optional[GateTable]) -> Any:
    """A gate reference: a table index, or the inline payload standalone."""
    return gate_to_payload(gate) if table is None else table.ref(gate)


def _gate_from(entry: Any, gates: Sequence[Gate]) -> Gate:
    return gates[entry] if type(entry) is int else gate_from_payload(entry)


def circuit_to_payload(circuit: Circuit,
                       table: Optional[GateTable] = None) -> Payload:
    return {
        "num_qubits": circuit.num_qubits,
        "name": circuit.name,
        "gates": [_gate_entry(g, table) for g in circuit.gates],
    }


def circuit_from_payload(payload: Payload,
                         gates: Sequence[Gate] = ()) -> Circuit:
    circuit = Circuit(int(payload["num_qubits"]), name=str(payload["name"]))
    return circuit.extend_trusted(
        _gate_from(g, gates) for g in payload["gates"])


# ---------------------------------------------------------------------------
# Hardware: latency, nodes, links, routing, network
# ---------------------------------------------------------------------------

def latency_to_payload(latency: LatencyModel) -> Payload:
    # Only the five base fields: ``LatencyModel.as_dict`` also reports
    # derived quantities (t_teleport, ...), which the constructor rejects.
    return {"t_1q": latency.t_1q, "t_2q": latency.t_2q,
            "t_measure": latency.t_measure, "t_epr": latency.t_epr,
            "t_classical_bit": latency.t_classical_bit}


def latency_from_payload(payload: Payload) -> LatencyModel:
    return LatencyModel(t_1q=payload["t_1q"], t_2q=payload["t_2q"],
                        t_measure=payload["t_measure"],
                        t_epr=payload["t_epr"],
                        t_classical_bit=payload["t_classical_bit"])


def node_to_payload(node: QuantumNode) -> Payload:
    return {"index": node.index, "num_data_qubits": node.num_data_qubits,
            "num_comm_qubits": node.num_comm_qubits, "name": node.name}


def node_from_payload(payload: Payload) -> QuantumNode:
    return QuantumNode(index=payload["index"],
                       num_data_qubits=payload["num_data_qubits"],
                       num_comm_qubits=payload["num_comm_qubits"],
                       name=payload["name"])


def link_model_to_payload(model: LinkModel) -> Payload:
    # ``as_dict`` is already canonical: every field of every spec is
    # explicit and overrides are keyed by sorted "a-b" strings, so
    # ``from_spec`` reconstructs the model exactly.
    return model.as_dict()


def link_model_from_payload(payload: Payload) -> LinkModel:
    return LinkModel.from_spec(payload,
                               base_t_epr=payload["default"]["t_epr"])


def routing_to_payload(routing: RoutingTable) -> Payload:
    pairs = sorted(routing._routes)
    return {
        "num_nodes": routing.num_nodes,
        "physical_links": [list(link)
                           for link in sorted(routing.physical_links)],
        "weighted": routing.weighted,
        "weights": (None if routing._weights is None else
                    [[a, b, w] for (a, b), w in
                     sorted(routing._weights.items())]),
        "routes": [list(routing._routes[pair].path) for pair in pairs],
        "costs": [routing._costs[pair] for pair in pairs],
    }


def routing_from_payload(payload: Payload) -> RoutingTable:
    # Rebuild the table's internal state directly instead of re-running the
    # shortest-path search: the stored routes *are* the canonical output of
    # that search, and reconstruction must not depend on having the original
    # topology graph at hand.
    table = RoutingTable.__new__(RoutingTable)
    table.num_nodes = int(payload["num_nodes"])
    table.physical_links = frozenset(
        (int(a), int(b)) for a, b in payload["physical_links"])
    table.weighted = bool(payload["weighted"])
    weights = payload["weights"]
    table._weights = (None if weights is None else
                      {(int(a), int(b)): float(w) for a, b, w in weights})
    table._routes = {}
    table._costs = {}
    for path, cost in zip(payload["routes"], payload["costs"]):
        route = EPRRoute(path=tuple(int(n) for n in path))
        table._routes[(route.source, route.target)] = route
        table._costs[(route.source, route.target)] = cost
    return table


def network_to_payload(network: QuantumNetwork) -> Payload:
    return {
        "nodes": [node_to_payload(node) for node in network.nodes],
        "latency": latency_to_payload(network.latency),
        "epr_latency_overrides": [
            [a, b, value] for (a, b), value in
            sorted(network._epr_latency_overrides.items())],
        "topology_kind": network.topology_kind,
        "swap_overhead": network.swap_overhead,
        "routing": (None if network.routing is None
                    else routing_to_payload(network.routing)),
        "link_model": (None if network.link_model is None
                       else link_model_to_payload(network.link_model)),
    }


def network_from_payload(payload: Payload) -> QuantumNetwork:
    network = QuantumNetwork(
        [node_from_payload(n) for n in payload["nodes"]],
        latency=latency_from_payload(payload["latency"]))
    network._epr_latency_overrides = {
        (int(a), int(b)): float(value)
        for a, b, value in payload["epr_latency_overrides"]}
    network.topology_kind = str(payload["topology_kind"])
    network.swap_overhead = float(payload["swap_overhead"])
    if payload["routing"] is not None:
        network.routing = routing_from_payload(payload["routing"])
    if payload["link_model"] is not None:
        network.link_model = link_model_from_payload(payload["link_model"])
    return network


# ---------------------------------------------------------------------------
# Partitioning: qubit mappings
# ---------------------------------------------------------------------------

def mapping_to_payload(mapping: QubitMapping) -> List[int]:
    """Node per qubit, indexed by qubit — mappings cover 0..n-1 exactly."""
    return [mapping.node_of(q) for q in range(mapping.num_qubits)]


def mapping_from_payload(payload: List[int],
                         network: Optional[QuantumNetwork] = None
                         ) -> QubitMapping:
    # The payload is this module's own output: coverage and capacity were
    # validated when the mapping was first built, so skip re-validation —
    # phased programs rebuild one mapping per phase on every load.
    return QubitMapping.from_trusted(dict(enumerate(payload)),
                                     network=network)


# ---------------------------------------------------------------------------
# Communication blocks and pass results
# ---------------------------------------------------------------------------

def block_to_payload(block: CommBlock,
                     table: Optional[GateTable] = None) -> Payload:
    return {
        "hub_qubit": block.hub_qubit,
        "hub_node": block.hub_node,
        "remote_node": block.remote_node,
        "gates": [_gate_entry(g, table) for g in block.gates],
        "scheme": None if block.scheme is None else block.scheme.value,
    }


def block_from_payload(payload: Payload,
                       gates: Sequence[Gate] = ()) -> CommBlock:
    scheme = payload["scheme"]
    return CommBlock(hub_qubit=payload["hub_qubit"],
                     hub_node=payload["hub_node"],
                     remote_node=payload["remote_node"],
                     gates=[_gate_from(g, gates) for g in payload["gates"]],
                     scheme=None if scheme is None else CommScheme(scheme))


def _items_to_payload(items, table: Optional[GateTable] = None
                      ) -> List[List[Any]]:
    """Tagged item list: ``["g", gate]`` or ``["b", block]`` in order."""
    out: List[List[Any]] = []
    for item in items:
        if isinstance(item, CommBlock):
            out.append(["b", block_to_payload(item, table)])
        else:
            out.append(["g", _gate_entry(item, table)])
    return out


def _items_from_payload(payload: List[List[Any]],
                        gates: Sequence[Gate] = ()) -> List[Any]:
    return [block_from_payload(value, gates) if tag == "b"
            else _gate_from(value, gates)
            for tag, value in payload]


def aggregation_to_payload(aggregation: AggregationResult,
                           circuit_ref: Optional[Circuit] = None,
                           mapping_ref: Optional[QubitMapping] = None,
                           table: Optional[GateTable] = None
                           ) -> Payload:
    """Serialize one aggregation result.

    ``circuit_ref``/``mapping_ref`` are the enclosing program's objects;
    when the aggregation shares them (the pipeline threads the same circuit
    and mapping object through its passes) a ``null`` back-reference is
    stored instead of a duplicate payload.  Blocks are stored as *indices*
    into the item list — the pipeline invariant ``blocks`` ⊆ ``items`` (same
    objects, item order) is thereby preserved across a round trip.
    """
    block_indices = []
    block_cursor = 0
    for index, item in enumerate(aggregation.items):
        if (block_cursor < len(aggregation.blocks)
                and aggregation.blocks[block_cursor] is item):
            block_indices.append(index)
            block_cursor += 1
    if block_cursor != len(aggregation.blocks):
        raise ValueError("aggregation blocks are not an ordered subset of "
                         "its items; cannot serialize canonically")
    return {
        "circuit": (None if aggregation.circuit is circuit_ref
                    else circuit_to_payload(aggregation.circuit, table)),
        "mapping": (None if aggregation.mapping is mapping_ref
                    else mapping_to_payload(aggregation.mapping)),
        "items": _items_to_payload(aggregation.items, table),
        "block_indices": block_indices,
    }


def aggregation_from_payload(payload: Payload,
                             circuit_ref: Optional[Circuit],
                             mapping_ref: Optional[QubitMapping],
                             network: Optional[QuantumNetwork],
                             gates: Sequence[Gate] = ()
                             ) -> AggregationResult:
    circuit = (circuit_ref if payload["circuit"] is None
               else circuit_from_payload(payload["circuit"], gates))
    mapping = (mapping_ref if payload["mapping"] is None
               else mapping_from_payload(payload["mapping"], network))
    items = _items_from_payload(payload["items"], gates)
    blocks = [items[i] for i in payload["block_indices"]]
    return AggregationResult(circuit=circuit, mapping=mapping,
                             items=items, blocks=blocks)


def cost_to_payload(cost: CommCost) -> Payload:
    return cost.as_dict()


def cost_from_payload(payload: Payload) -> CommCost:
    return CommCost(total_comm=payload["total_comm"],
                    tp_comm=payload["tp_comm"],
                    cat_comm=payload["cat_comm"],
                    peak_remote_cx=payload["peak_remote_cx"],
                    total_epr_pairs=payload["total_epr_pairs"],
                    total_epr_latency=payload["total_epr_latency"])


def assignment_to_payload(assignment: AssignmentResult) -> Payload:
    """Serialize the assignment's own state (cost + histograms).

    The block list is not stored: ``assign_communications`` returns
    ``blocks = list(aggregation.blocks)`` (the same objects, schemes set in
    place), and each block's scheme travels inside its own payload — the
    deserializer rebuilds the list from the aggregation.
    """
    if assignment.blocks != assignment.aggregation.blocks:
        raise ValueError("assignment blocks differ from the aggregation's; "
                         "cannot serialize canonically")
    return {
        "cost": cost_to_payload(assignment.cost),
        "pattern_histogram": {
            pattern.value: count for pattern, count in
            sorted(assignment.pattern_histogram.items(),
                   key=lambda kv: kv[0].value)},
        "scheme_histogram": {
            scheme.value: count for scheme, count in
            sorted(assignment.scheme_histogram.items(),
                   key=lambda kv: kv[0].value)},
    }


def assignment_from_payload(payload: Payload,
                            aggregation: AggregationResult
                            ) -> AssignmentResult:
    return AssignmentResult(
        aggregation=aggregation,
        blocks=list(aggregation.blocks),
        cost=cost_from_payload(payload["cost"]),
        pattern_histogram={CommPattern(value): count for value, count in
                           payload["pattern_histogram"].items()},
        scheme_histogram={CommScheme(value): count for value, count in
                          payload["scheme_histogram"].items()},
    )


# ---------------------------------------------------------------------------
# Scheduling: ops, results, migrations, plans
# ---------------------------------------------------------------------------

def scheduled_op_to_payload(op: ScheduledOp) -> List[Any]:
    return [op.index, op.kind, op.start, op.end, list(op.nodes),
            op.num_remote_gates, op.num_items]


def scheduled_op_from_payload(payload: List[Any]) -> ScheduledOp:
    index, kind, start, end, nodes, num_remote_gates, num_items = payload
    return ScheduledOp(index, kind, start, end, tuple(nodes),
                       num_remote_gates, num_items)


def schedule_to_payload(schedule: ScheduleResult) -> Payload:
    return {
        "ops": [scheduled_op_to_payload(op) for op in schedule.ops],
        "latency": schedule.latency,
        "num_comm_ops": schedule.num_comm_ops,
        "num_fused_chains": schedule.num_fused_chains,
        "mode": schedule.mode,
        "overlap": schedule.overlap,
        "boundary_bubble": schedule.boundary_bubble,
        "reservations": [[r.node, r.slot, r.start, r.end, r.label]
                         for r in schedule.resources.reservations],
    }


def schedule_from_payload(payload: Payload,
                          network: QuantumNetwork) -> ScheduleResult:
    # Re-book every reservation on its recorded slot in original order: the
    # original bookings were feasible, so explicit-slot re-booking succeeds
    # and reproduces the tracker's schedules and reservation log exactly.
    tracker = CommResourceTracker(network)
    for node, slot, start, end, label in payload["reservations"]:
        tracker.reserve(node, start, end, slot=slot, label=label)
    return ScheduleResult(
        ops=[scheduled_op_from_payload(op) for op in payload["ops"]],
        latency=payload["latency"],
        resources=tracker,
        num_comm_ops=payload["num_comm_ops"],
        num_fused_chains=payload["num_fused_chains"],
        mode=payload["mode"],
        overlap=payload["overlap"],
        boundary_bubble=payload["boundary_bubble"],
    )


def migration_to_payload(move: MigrationOp) -> List[int]:
    return [move.qubit, move.source, move.target]


def migration_from_payload(payload: List[int]) -> MigrationOp:
    qubit, source, target = payload
    return MigrationOp(qubit=qubit, source=source, target=target)


# ---------------------------------------------------------------------------
# Compiled programs
# ---------------------------------------------------------------------------

def _phase_to_payload(phase: CompiledPhase, circuit_ref: Circuit,
                      mapping_ref: QubitMapping,
                      table: Optional[GateTable] = None) -> Payload:
    return {
        "index": phase.index,
        "mapping": (None if phase.mapping is mapping_ref
                    else mapping_to_payload(phase.mapping)),
        "aggregation": aggregation_to_payload(
            phase.aggregation, circuit_ref=circuit_ref,
            mapping_ref=phase.mapping, table=table),
        "assignment": assignment_to_payload(phase.assignment),
    }


def _phase_from_payload(payload: Payload, circuit_ref: Circuit,
                        mapping_ref: QubitMapping,
                        network: QuantumNetwork,
                        gates: Sequence[Gate] = ()) -> CompiledPhase:
    mapping = (mapping_ref if payload["mapping"] is None
               else mapping_from_payload(payload["mapping"], network))
    aggregation = aggregation_from_payload(
        payload["aggregation"], circuit_ref=circuit_ref,
        mapping_ref=mapping, network=network, gates=gates)
    assignment = assignment_from_payload(payload["assignment"], aggregation)
    return CompiledPhase(index=payload["index"], mapping=mapping,
                         aggregation=aggregation, assignment=assignment)


def program_to_payload(program: CompiledProgram) -> Payload:
    # A static program writes its one phase as ``assignment``.
    static = program.migrations is None
    first, *rest = program.phases
    if static and (rest or first.mapping is not program.mapping
                   or first.aggregation is not program.aggregation):
        raise ValueError("a static program must be one phase under its own "
                         "mapping and base aggregation")
    # One deduplicated gate table for the whole payload; every gate in the
    # circuit, blocks and phases becomes an integer reference into it.  The
    # dict literal below fixes the encoding-traversal order (circuit first),
    # which in turn fixes the table's row order canonically.
    table = GateTable()
    payload: Payload = {
        "schema": SCHEMA_VERSION,
        "kind": "compiled-program",
        "name": program.name,
        "compiler": program.compiler,
        "remap": program.remap,
        "circuit": circuit_to_payload(program.circuit, table),
        "mapping": mapping_to_payload(program.mapping),
        "network": network_to_payload(program.network),
        "metrics": program.metrics.as_dict(),
        "aggregation": aggregation_to_payload(
            program.aggregation, circuit_ref=program.circuit,
            mapping_ref=program.mapping, table=table),
        "assignment": (assignment_to_payload(first.assignment)
                       if static else None),
        "schedule": (None if program.schedule is None
                     else schedule_to_payload(program.schedule)),
        "phases": (None if static
                   else [_phase_to_payload(phase, program.circuit,
                                           program.mapping, table)
                         for phase in program.phases]),
        "migrations": (None if program.migrations is None
                       else [[migration_to_payload(m) for m in boundary]
                             for boundary in program.migrations]),
        "spans": (None if program.spans is None
                  else program.spans.as_dict()),
        "blocks_mode": "assignment" if static else "phases",
        "blocks": None,
    }
    payload["gate_table"] = table.rows
    return payload


def _check_schema(payload: Payload, kind: str) -> None:
    if not isinstance(payload, dict):
        raise ValueError(f"payload is {type(payload).__name__}, not an "
                         "object")
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"payload schema {payload.get('schema')!r} does not match "
            f"supported version {SCHEMA_VERSION}")
    if payload.get("kind") != kind:
        raise ValueError(f"payload kind {payload.get('kind')!r} is not "
                         f"{kind!r}")


def program_from_payload(payload: Payload) -> CompiledProgram:
    """Rebuild a program whose shape follows ``migrations`` (``null`` for a
    static one); :class:`ValueError` when another field disagrees."""
    _check_schema(payload, "compiled-program")
    static = payload["migrations"] is None
    expected = ("assignment", "never") if static else ("phases", "bursts")
    shape = (payload["blocks_mode"], payload["remap"])
    if shape != expected:
        raise ValueError(f"blocks_mode and remap {shape} disagree with "
                         f"migrations, which need {expected}")
    if static and payload["assignment"] is None:
        raise ValueError("static program payload without an assignment")
    gates = [gate_from_payload(row)
             for row in payload.get("gate_table") or ()]
    network = network_from_payload(payload["network"])
    circuit = circuit_from_payload(payload["circuit"], gates)
    mapping = mapping_from_payload(payload["mapping"], network)
    aggregation = aggregation_from_payload(
        payload["aggregation"], circuit_ref=circuit, mapping_ref=mapping,
        network=network, gates=gates)
    if static:
        phases = [CompiledPhase(
            index=0, mapping=mapping, aggregation=aggregation,
            assignment=assignment_from_payload(payload["assignment"],
                                               aggregation))]
        migrations = None
    else:
        phases = [_phase_from_payload(p, circuit, mapping, network, gates)
                  for p in payload["phases"]]
        migrations = [[migration_from_payload(m) for m in boundary]
                      for boundary in payload["migrations"]]
    schedule = None
    if payload["schedule"] is not None:
        schedule = schedule_from_payload(payload["schedule"], network)
    spans = (None if payload["spans"] is None
             else Span.from_dict(payload["spans"]))
    return CompiledProgram(
        name=payload["name"],
        compiler=payload["compiler"],
        circuit=circuit,
        mapping=mapping,
        network=network,
        metrics=CompilationMetrics.from_dict(payload["metrics"]),
        aggregation=aggregation,
        phases=phases,
        schedule=schedule,
        migrations=migrations,
        spans=spans,
    )


# ---------------------------------------------------------------------------
# Writers: canonical JSON text and deterministic compressed binary
# ---------------------------------------------------------------------------

def dumps_program(program: CompiledProgram, *, spans: bool = True) -> bytes:
    """Compressed canonical bytes of one program (deterministic).

    ``gzip`` with ``mtime=0`` so equal programs always produce equal bytes —
    a requirement for content-addressed storage and for byte-level cache
    tests.  ``spans=False`` drops the observability span tree from the
    payload (the compile cache stores entries this way: a cache hit gets a
    fresh cache-lookup span tree from the pipeline, so the original
    compile's spans would be dead weight in every entry).
    """
    payload = program_to_payload(program)
    if not spans:
        payload["spans"] = None
    text = canonical_json(payload)
    buffer = io.BytesIO()
    with gzip.GzipFile(fileobj=buffer, mode="wb", mtime=0) as stream:
        stream.write(text.encode("utf-8"))
    return buffer.getvalue()


def loads_program(data: bytes) -> CompiledProgram:
    text = gzip.decompress(data).decode("utf-8")
    return program_from_payload(json.loads(text))


def save_program(program: CompiledProgram, path: Union[str, Path]) -> Path:
    """Write one program as an artifact file.

    ``.json`` suffixes get readable canonical JSON; anything else (the
    ``.rpz`` convention) gets the deterministic compressed binary form.
    """
    path = Path(path)
    if path.suffix == ".json":
        path.write_text(canonical_json(program_to_payload(program)) + "\n")
    else:
        path.write_bytes(dumps_program(program))
    return path


def load_program(path: Union[str, Path]) -> CompiledProgram:
    """Read a program artifact written by :func:`save_program`."""
    path = Path(path)
    if path.suffix == ".json":
        return program_from_payload(json.loads(path.read_text()))
    return loads_program(path.read_bytes())
