"""Mutation tests: every checker proven to fire on a seeded corruption.

Each test compiles a healthy program, corrupts exactly one artifact the
way a real regression would (through the same internal state the pipeline
writes), and asserts the matching checker reports the specific diagnostic
— checker id and structured location included.  The corruptions bypass
constructor validation on purpose (``object.__setattr__`` on frozen
dataclasses, direct ``_routes``/``_assignment`` edits), because that is
exactly the class of bug static verification exists to catch.
"""

from dataclasses import replace

import pytest

from repro.circuits import qft_circuit
from repro.core import AutoCommConfig, compile_autocomm
from repro.core.scheduling import MigrationOp
from repro.hardware import (DEFAULT_LATENCY, LinkModel, apply_topology,
                            uniform_network)
from repro.hardware.routing import EPRRoute
from repro.sim import SimulationConfig, simulate_program
from repro.sim.engine import plan_for_program
from repro.verify import Severity, sanitize_simulation, verify_program
from repro.verify.checks import (BookingCheck, CausalityCheck,
                                 DagAcyclicityCheck, ItemCoverageCheck,
                                 MappingCheck, MigrationCheck, RouteCheck)
from repro.verify.sanitize import (TraceCausalityCheck, TraceCommQubitCheck,
                                   TraceLinkCapacityCheck)

pytestmark = pytest.mark.no_autoverify


def _static_program(num_qubits=10, nodes=3, topology="all-to-all",
                    link_model=None):
    circuit = qft_circuit(num_qubits)
    network = uniform_network(nodes, -(-num_qubits // nodes))
    if topology != "all-to-all" or link_model is not None:
        apply_topology(network, topology, link_model=link_model)
    return compile_autocomm(circuit, network)


def _phased_program():
    circuit = qft_circuit(12)
    network = uniform_network(4, 3)
    return compile_autocomm(
        circuit, network, config=AutoCommConfig(remap="bursts",
                                                phase_blocks=4))


def _run(program, pass_cls):
    return verify_program(program, passes=[pass_cls()])


def _sanitize(program, result, config, pass_cls):
    return sanitize_simulation(program, result, config,
                               passes=[pass_cls()])


class TestDagAcyclicity:
    def test_cycle_detected(self):
        program = _static_program()
        plan = plan_for_program(program)
        plan.preds[0].append(1)
        plan.preds[1].append(0)
        report = _run(program, DagAcyclicityCheck)
        diags = report.by_checker("dag-acyclic")
        assert any("cycle" in d.message for d in diags)
        assert any(d.location.op == 0 for d in diags)

    def test_self_dependency_detected(self):
        program = _static_program()
        plan_for_program(program).preds[2].append(2)
        diags = _run(program, DagAcyclicityCheck).by_checker("dag-acyclic")
        assert any("depends on itself" in d.message and d.location.op == 2
                   for d in diags)

    def test_out_of_range_predecessor_detected(self):
        program = _static_program()
        plan_for_program(program).preds[0].append(9999)
        diags = _run(program, DagAcyclicityCheck).by_checker("dag-acyclic")
        assert any("out of range" in d.message and d.location.op == 0
                   for d in diags)


class TestItemCoverage:
    def test_dropped_op_detected(self):
        program = _static_program()
        dropped = program.schedule.ops.pop()
        diags = _run(program, ItemCoverageCheck).by_checker("item-coverage")
        assert any("never scheduled" in d.message
                   and d.location.op == dropped.index for d in diags)

    def test_duplicated_op_detected(self):
        program = _static_program()
        program.schedule.ops.append(program.schedule.ops[0])
        diags = _run(program, ItemCoverageCheck).by_checker("item-coverage")
        assert any("scheduled 2 times" in d.message for d in diags)

    def test_item_count_mismatch_detected(self):
        program = _static_program()
        ops = program.schedule.ops
        ops[0] = ops[0]._replace(num_items=ops[0].num_items + 1)
        diags = _run(program, ItemCoverageCheck).by_checker("item-coverage")
        assert any("plan says" in d.message and d.location.op == ops[0].index
                   for d in diags)

    def test_fused_chain_count_mismatch_detected(self):
        program = _static_program()
        program.schedule.num_fused_chains += 1
        diags = _run(program, ItemCoverageCheck).by_checker("item-coverage")
        assert any("fused chains" in d.message for d in diags)


class TestMappingWellformed:
    def test_unplaced_qubit_detected(self):
        program = _static_program()
        del program.mapping._assignment[0]
        diags = _run(program, MappingCheck).by_checker("mapping-wellformed")
        assert any("no placement" in d.message and d.location.qubit == 0
                   for d in diags)

    def test_unknown_node_detected(self):
        program = _static_program()
        program.mapping._assignment[0] = 99
        diags = _run(program, MappingCheck).by_checker("mapping-wellformed")
        assert any("unknown node 99" in d.message and d.location.qubit == 0
                   for d in diags)

    def test_unknown_qubit_detected(self):
        program = _static_program()
        program.mapping._assignment[99] = 0
        diags = _run(program, MappingCheck).by_checker("mapping-wellformed")
        assert any("unknown qubit 99" in d.message for d in diags)

    def test_overloaded_node_detected(self):
        program = _static_program()
        for qubit in program.mapping._assignment:
            program.mapping._assignment[qubit] = 0
        diags = _run(program, MappingCheck).by_checker("mapping-wellformed")
        assert any("data qubits" in d.message and d.location.node == 0
                   for d in diags)

    def test_phase_mapping_checked_too(self):
        program = _phased_program()
        assert len(program.phases) > 1
        program.phases[1].mapping._assignment[0] = 99
        diags = _run(program, MappingCheck).by_checker("mapping-wellformed")
        assert any(d.location.phase == 1 for d in diags)


def _first_move(program):
    for boundary, moves in enumerate(program.migrations):
        if moves:
            return boundary, moves
    pytest.fail("phased program compiled without any migration")


class TestMigrationLegality:
    def test_wrong_source_detected(self):
        program = _phased_program()
        boundary, moves = _first_move(program)
        move = moves[0]
        wrong = next(n for n in range(program.network.num_nodes)
                     if n not in (move.source, move.target))
        object.__setattr__(move, "source", wrong)
        diags = _run(program, MigrationCheck).by_checker("migration-legality")
        assert any("the qubit lives on node" in d.message
                   and d.location.qubit == move.qubit
                   and d.location.phase == boundary + 1 for d in diags)

    def test_self_move_detected(self):
        program = _phased_program()
        _, moves = _first_move(program)
        move = moves[0]
        object.__setattr__(move, "target", move.source)
        diags = _run(program, MigrationCheck).by_checker("migration-legality")
        assert any("to itself" in d.message for d in diags)

    def test_rebuilt_self_move_reported_not_raised(self):
        program = _phased_program()
        _, moves = _first_move(program)
        move = moves[0]
        # A new migration object makes the verifier rebuild the plan and
        # its profiles, whose prep latency rejects the self pair.
        moves[0] = MigrationOp(move.qubit, move.source, move.source)
        report = verify_program(program)
        assert any("distinct nodes" in d.message
                   for d in report.by_checker("plan-construction"))
        assert not report.ok

    def test_commless_endpoint_detected(self):
        program = _phased_program()
        _, moves = _first_move(program)
        node = program.network.node(moves[0].target)
        object.__setattr__(node, "num_comm_qubits", 0)
        diags = _run(program, MigrationCheck).by_checker("migration-legality")
        assert any("no communication qubit" in d.message
                   and d.location.node == moves[0].target for d in diags)

    def test_missing_boundary_detected(self):
        program = _phased_program()
        program.migrations.pop()
        # The plan builder itself rejects the boundary-count mismatch; the
        # verifier reports that rejection as a diagnostic instead of
        # crashing (the in-pass count check covers hand-built contexts).
        report = _run(program, MigrationCheck)
        diags = report.by_checker("plan-construction")
        assert any("one migration list per phase boundary" in d.message
                   for d in diags)
        assert not report.ok

    def test_history_composition_detected(self):
        program = _phased_program()
        boundary, moves = _first_move(program)
        # Dropping one real move breaks the composition into the next
        # phase's mapping without touching any single move's legality.
        moves.pop()
        diags = _run(program, MigrationCheck).by_checker("migration-legality")
        assert any("does not compose" in d.message
                   and d.location.phase == boundary + 1 for d in diags)

    def test_phase0_mapping_anchor_detected(self):
        from repro.partition import QubitMapping
        program = _phased_program()
        # Phase 0 shares the program's mapping object, so build a genuinely
        # different (but individually valid) mapping: swap two qubits that
        # live on different nodes.
        assignment = dict(program.mapping.as_dict())
        qubit_a = 0
        qubit_b = next(q for q, node in assignment.items()
                       if node != assignment[qubit_a])
        assignment[qubit_a], assignment[qubit_b] = (assignment[qubit_b],
                                                    assignment[qubit_a])
        program.phases[0] = replace(program.phases[0],
                                    mapping=QubitMapping(assignment))
        diags = _run(program, MigrationCheck).by_checker("migration-legality")
        assert any("phase 0 mapping differs" in d.message
                   and d.location.phase == 0 for d in diags)


class TestRouteValidity:
    def test_non_physical_hop_detected(self):
        program = _static_program(num_qubits=12, nodes=4, topology="line")
        routing = program.network.routing
        corrupted = False
        for key, route in list(routing._routes.items()):
            if route.num_hops > 1:
                routing._routes[key] = EPRRoute(path=(key[0], key[1]))
                corrupted = True
        assert corrupted
        diags = _run(program, RouteCheck).by_checker("route-validity")
        assert any("not a physical link" in d.message
                   and d.location.link is not None for d in diags)

    def test_missing_route_detected(self):
        program = _static_program(num_qubits=12, nodes=4, topology="line")
        program.network.routing._routes.clear()
        diags = _run(program, RouteCheck).by_checker("route-validity")
        assert any("no EPR route" in d.message for d in diags)

    def test_corrupt_link_parameters_detected(self):
        model = LinkModel.uniform_model(t_epr=1.0, capacity=2)
        program = _static_program(num_qubits=12, nodes=4, topology="line",
                                  link_model=model)
        spec = program.network.link_model.default
        object.__setattr__(spec, "t_epr", 0.0)
        object.__setattr__(spec, "capacity", 0)
        object.__setattr__(spec, "p_epr", 1.5)
        diags = _run(program, RouteCheck).by_checker("route-validity")
        messages = " | ".join(d.message for d in diags)
        assert "non-positive EPR latency" in messages
        assert "non-positive capacity" in messages
        assert "outside (0, 1]" in messages


class TestScheduleCausality:
    def test_inverted_window_detected(self):
        program = _static_program()
        ops = program.schedule.ops
        ops[0] = ops[0]._replace(end=ops[0].start - 1.0)
        diags = _run(program, CausalityCheck).by_checker("schedule-causality")
        assert any("before it starts" in d.message
                   and d.location.op == ops[0].index for d in diags)

    def test_dependency_violation_detected(self):
        program = _static_program()
        plan = plan_for_program(program)
        ops = program.schedule.ops
        victim = next(i for i in range(len(ops) - 1, -1, -1)
                      if plan.preds[ops[i].index] and ops[i].start > 0)
        ops[victim] = ops[victim]._replace(start=0.0,
                                           end=ops[victim].duration)
        diags = _run(program, CausalityCheck).by_checker("schedule-causality")
        assert any("before predecessor" in d.message
                   and d.location.op == ops[victim].index for d in diags)


class TestBookingFeasibility:
    def test_comm_qubit_overbooking_detected(self):
        program = _static_program()
        ops = program.schedule.ops
        comm = [i for i, op in enumerate(ops) if op.kind != "gate"]
        assert len(comm) >= 3
        for i in comm:
            ops[i] = ops[i]._replace(start=0.0, end=10.0)
        diags = _run(program, BookingCheck).by_checker("booking-feasibility")
        errors = [d for d in diags if "comm qubits" in d.message]
        assert errors and errors[0].location.node is not None

    def test_link_capacity_pressure_is_warning(self):
        model = LinkModel.uniform_model(t_epr=1.0, capacity=1)
        program = _static_program(num_qubits=12, nodes=3, topology="line",
                                  link_model=model)
        ops = program.schedule.ops
        for i, op in enumerate(ops):
            if op.kind != "gate":
                ops[i] = op._replace(start=5.0, end=10.0)
        report = _run(program, BookingCheck)
        serialise = [d for d in report.diagnostics
                     if "serialise the excess" in d.message]
        assert serialise and serialise[0].location.link is not None
        # The link idealisation is a warning, never an error (overlapping
        # the protocol windows also overbooks comm qubits, which *is* one).
        assert all(d.severity == Severity.WARNING for d in serialise)


def _simulated(program, config=None):
    config = config or SimulationConfig()
    return simulate_program(program, config), config


class TestTraceCausality:
    def test_inverted_window_detected(self):
        program = _static_program()
        result, config = _simulated(program)
        result.ops[0] = result.ops[0]._replace(end=result.ops[0].start - 1.0)
        diags = _sanitize(program, result, config,
                          TraceCausalityCheck).by_checker("trace-causality")
        assert any("before it starts" in d.message for d in diags)

    def test_missing_execution_detected(self):
        program = _static_program()
        result, config = _simulated(program)
        dropped = result.ops.pop()
        diags = _sanitize(program, result, config,
                          TraceCausalityCheck).by_checker("trace-causality")
        assert any("never executed" in d.message
                   and d.location.op == dropped.index for d in diags)

    def test_negative_prep_detected(self):
        program = _static_program()
        result, config = _simulated(program)
        comm = next(i for i, op in enumerate(result.ops)
                    if op.kind != "gate")
        result.ops[comm] = result.ops[comm]._replace(prep_start=-5.0)
        diags = _sanitize(program, result, config,
                          TraceCausalityCheck).by_checker("trace-causality")
        assert any("negative time" in d.message for d in diags)

    def test_dependency_violation_detected(self):
        program = _static_program()
        result, config = _simulated(program)
        plan = plan_for_program(program)
        victim = next(i for i in range(len(result.ops) - 1, -1, -1)
                      if plan.preds[result.ops[i].index]
                      and result.ops[i].start > 0)
        op = result.ops[victim]
        result.ops[victim] = op._replace(prep_start=0.0, start=0.0,
                                         end=op.duration)
        diags = _sanitize(program, result, config,
                          TraceCausalityCheck).by_checker("trace-causality")
        assert any("before dependency" in d.message
                   and d.location.op == op.index for d in diags)


class TestTraceCommQubits:
    def test_double_booking_detected(self):
        program = _static_program()
        result, config = _simulated(program)
        mutated = 0
        for i, op in enumerate(result.ops):
            if op.kind != "gate":
                result.ops[i] = op._replace(prep_start=0.0, start=5.0,
                                            end=10.0)
                mutated += 1
        assert mutated >= 3
        diags = _sanitize(program, result, config,
                          TraceCommQubitCheck).by_checker("trace-comm-qubits")
        assert any("double-booking" in d.message
                   and d.location.node is not None for d in diags)


class TestTraceLinkCapacity:
    def test_capacity_overflow_detected(self):
        model = LinkModel.uniform_model(DEFAULT_LATENCY.t_epr, capacity=1)
        program = _static_program(link_model=model)
        result, config = _simulated(program)
        plan = plan_for_program(program)
        profiles = plan.op_profiles(program.network)
        by_link = {}
        for i, op in enumerate(result.ops):
            if op.kind == "gate":
                continue
            for a, b in profiles[op.index].prep_pairs:
                for link in program.network.route_links(a, b):
                    by_link.setdefault(link, []).append(i)
        link, indices = next((link, ops) for link, ops in by_link.items()
                             if len(ops) >= 2)
        for i in indices[:2]:
            op = result.ops[i]
            result.ops[i] = op._replace(prep_start=0.0, start=5.0,
                                        end=5.0 + op.duration)
        diags = _sanitize(
            program, result, config,
            TraceLinkCapacityCheck).by_checker("trace-link-capacity")
        assert any("concurrent EPR generation slots" in d.message
                   and d.location.link == link for d in diags)

    def test_malformed_link_window_detected(self):
        program = _static_program()
        result, config = _simulated(program)
        result.trace.link_busy.setdefault((0, 1), []).append((-5.0, -6.0))
        diags = _sanitize(
            program, result, config,
            TraceLinkCapacityCheck).by_checker("trace-link-capacity")
        assert any("malformed link window" in d.message
                   and d.location.link == (0, 1) for d in diags)


def _overlapped_program():
    circuit = qft_circuit(12)
    network = uniform_network(4, 3)
    return compile_autocomm(
        circuit, network, config=AutoCommConfig(remap="bursts",
                                                phase_blocks=4,
                                                overlap=True))


def _scheduled_migrations(program):
    """(migration item, phase it moves into, its scheduled op index)."""
    from repro.core import MigrationOp
    plan = plan_for_program(program)
    out = []
    for position, op in enumerate(program.schedule.ops):
        item = plan.items[op.index]
        if isinstance(item, MigrationOp):
            out.append((item, plan.item_phases[op.index], position))
    return out


class TestOverlapLegality:
    """The extended checkers catch illegal migration/compute overlaps."""

    def test_healthy_overlapped_program_verifies(self):
        program = _overlapped_program()
        assert program.schedule.overlap
        assert verify_program(program).ok

    def test_migration_jumping_its_qubits_work_detected(self):
        from repro.core.scheduling import _item_qubits
        program = _overlapped_program()
        plan = plan_for_program(program)
        ops = program.schedule.ops
        num_qubits = program.circuit.num_qubits
        for move, phase, position in _scheduled_migrations(program):
            mig_op = ops[position]
            blockers = [
                op for op in ops
                if plan.item_phases[op.index] <= phase - 1
                and op.end <= mig_op.start
                and op.end > 0
                and move.qubit in _item_qubits(plan.items[op.index],
                                               num_qubits)]
            if blockers:
                # Teleport the qubit away before its last user retires.
                ops[position] = mig_op._replace(start=0.0,
                                                end=mig_op.duration)
                break
        else:
            pytest.fail("no migration with an earlier-phase user found")
        diags = _run(program, MigrationCheck).by_checker("migration-legality")
        assert any("before the phase-" in d.message
                   and d.location.qubit == move.qubit for d in diags)

    def test_op_racing_an_inflight_migration_detected(self):
        from repro.core.scheduling import _item_qubits
        program = _overlapped_program()
        plan = plan_for_program(program)
        ops = program.schedule.ops
        num_qubits = program.circuit.num_qubits
        for move, phase, position in _scheduled_migrations(program):
            mig_op = ops[position]
            racer = next(
                (i for i, op in enumerate(ops)
                 if plan.item_phases[op.index] >= phase
                 and op.start >= mig_op.end
                 and not isinstance(plan.items[op.index],
                                    type(move))
                 and move.qubit in _item_qubits(plan.items[op.index],
                                                num_qubits)),
                None)
            if racer is not None:
                # Use the qubit while its teleport is still in flight.
                op = ops[racer]
                ops[racer] = op._replace(start=mig_op.start,
                                         end=mig_op.start + op.duration)
                break
        else:
            pytest.fail("no later-phase user of a migrated qubit found")
        diags = _run(program, MigrationCheck).by_checker("migration-legality")
        assert any("in flight" in d.message
                   and d.location.qubit == move.qubit for d in diags)

    def test_cross_phase_qubit_race_detected(self):
        from repro.core.scheduling import _item_qubits
        program = _overlapped_program()
        plan = plan_for_program(program)
        ops = program.schedule.ops
        num_qubits = program.circuit.num_qubits
        from repro.core import MigrationOp
        victim = None
        for i, op in enumerate(ops):
            item = plan.items[op.index]
            if isinstance(item, MigrationOp):
                continue
            phase = plan.item_phases[op.index]
            if phase == 0 or op.start <= 0:
                continue
            qubits = set(_item_qubits(item, num_qubits))
            earlier = [other for other in ops
                       if not isinstance(plan.items[other.index],
                                         MigrationOp)
                       and plan.item_phases[other.index] < phase
                       and other.end > 0
                       and qubits & set(_item_qubits(
                           plan.items[other.index], num_qubits))]
            if earlier:
                victim = i
                break
        assert victim is not None
        op = ops[victim]
        ops[victim] = op._replace(start=0.0, end=op.duration)
        diags = _run(program, CausalityCheck).by_checker("schedule-causality")
        assert any("earlier phase's op on the same" in d.message
                   for d in diags)
