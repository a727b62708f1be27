"""Program-scope static checks over a compiled program's artifacts.

Each pass analyses the :class:`~repro.core.pipeline.CompiledProgram` and
the :class:`~repro.core.scheduling.SchedulePlan` its analytical schedule
was computed from — never by executing anything.  The invariants mirror
what the rest of the stack relies on dynamically: an acyclic dependency
graph that covers every assignment item, well-formed per-phase mappings, a
legal migration history, EPR routes that exist on the physical link graph,
and a schedule that respects causality and comm-qubit booking.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..core.scheduling import MigrationOp, _item_qubits
from ..partition.mapping import QubitMapping
from .diagnostics import Diagnostic, Location, Severity
from .passes import (CheckPass, ProgramContext, TIME_TOLERANCE,
                     register_pass)

__all__ = ["DagAcyclicityCheck", "ItemCoverageCheck", "MappingCheck",
           "MigrationCheck", "RouteCheck", "CausalityCheck", "BookingCheck"]


def _error(checker: str, message: str, **location) -> Diagnostic:
    return Diagnostic(checker=checker, severity=Severity.ERROR,
                      message=message, location=Location(**location))


def _warning(checker: str, message: str, **location) -> Diagnostic:
    return Diagnostic(checker=checker, severity=Severity.WARNING,
                      message=message, location=Location(**location))


def _peak_concurrency(intervals: Iterable[Tuple[float, float, int]]
                      ) -> Tuple[int, float]:
    """Peak weighted overlap of half-open [start, end) intervals.

    Returns ``(peak, time_of_peak)``.  Ends are processed before starts at
    equal timestamps, so back-to-back intervals do not count as overlapping.
    """
    events: List[Tuple[float, int, int]] = []
    for start, end, weight in intervals:
        if end <= start:
            continue
        events.append((start, 1, weight))
        events.append((end, 0, -weight))
    events.sort()
    peak, peak_time, level = 0, 0.0, 0
    for time, _, delta in events:
        level += delta
        if level > peak:
            peak, peak_time = level, time
    return peak, peak_time


@register_pass
class DagAcyclicityCheck(CheckPass):
    """The plan's dependency graph is well-formed and acyclic."""

    id = "dag-acyclic"
    description = ("predecessor indices are in range, no self-dependencies, "
                   "and the dependency graph contains no cycle")
    scope = "program"

    def run(self, ctx: ProgramContext) -> List[Diagnostic]:
        plan = ctx.plan
        n = len(plan.items)
        diags: List[Diagnostic] = []
        if len(plan.preds) != n:
            diags.append(_error(
                self.id, f"plan has {n} items but {len(plan.preds)} "
                         "predecessor lists"))
            return diags
        valid_preds: List[List[int]] = []
        for index, plist in enumerate(plan.preds):
            kept = []
            for pred in plist:
                if not 0 <= pred < n:
                    diags.append(_error(
                        self.id, f"predecessor {pred} out of range "
                                 f"[0, {n})", op=index))
                elif pred == index:
                    diags.append(_error(
                        self.id, "item depends on itself", op=index))
                else:
                    kept.append(pred)
            valid_preds.append(kept)
        # Kahn's algorithm over the valid edges: any residue is a cycle.
        indegree = [len(p) for p in valid_preds]
        succs: List[List[int]] = [[] for _ in range(n)]
        for index, plist in enumerate(valid_preds):
            for pred in plist:
                succs[pred].append(index)
        stack = [i for i, d in enumerate(indegree) if d == 0]
        seen = 0
        while stack:
            node = stack.pop()
            seen += 1
            for succ in succs[node]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    stack.append(succ)
        if seen != n:
            residue = [i for i, d in enumerate(indegree) if d > 0]
            diags.append(_error(
                self.id, f"dependency cycle through {len(residue)} items "
                         f"(first: {residue[:8]})", op=residue[0]))
        return diags


@register_pass
class ItemCoverageCheck(CheckPass):
    """The analytical schedule covers every plan item exactly once."""

    id = "item-coverage"
    description = ("scheduled op indices cover the plan's items exactly, "
                   "item counts match, and the plan covers every "
                   "assignment item plus every migration")
    scope = "program"

    def run(self, ctx: ProgramContext) -> List[Diagnostic]:
        plan = ctx.plan
        program = ctx.program
        diags: List[Diagnostic] = []
        n = len(plan.items)
        profiles = plan.op_profiles(ctx.network)

        # Plan-level coverage of the assignment passes' output.
        expected = sum(len(phase.assignment.items)
                       for phase in program.phase_view)
        expected += sum(len(moves) for moves in program.migrations or ())
        covered = sum(profile.num_items for profile in profiles)
        if covered != expected:
            diags.append(_error(
                self.id, f"plan covers {covered} assignment items, "
                         f"expected {expected}"))

        schedule = program.schedule
        if schedule is None:
            return diags
        seen: Dict[int, int] = {}
        for op in schedule.ops:
            if not 0 <= op.index < n:
                diags.append(_error(
                    self.id, f"scheduled op index {op.index} out of range "
                             f"[0, {n})", op=op.index))
                continue
            seen[op.index] = seen.get(op.index, 0) + 1
            if op.num_items != profiles[op.index].num_items:
                diags.append(_error(
                    self.id, f"op covers {op.num_items} items, plan says "
                             f"{profiles[op.index].num_items}", op=op.index))
        for index in range(n):
            count = seen.get(index, 0)
            if count == 0:
                diags.append(_error(
                    self.id, "plan item never scheduled", op=index))
            elif count > 1:
                diags.append(_error(
                    self.id, f"plan item scheduled {count} times",
                    op=index))
        if schedule.num_fused_chains != plan.num_fused_chains:
            diags.append(_error(
                self.id, f"schedule reports {schedule.num_fused_chains} "
                         "fused chains, plan has "
                         f"{plan.num_fused_chains}"))
        return diags


@register_pass
class MappingCheck(CheckPass):
    """Every mapping is a total, capacity-respecting placement."""

    id = "mapping-wellformed"
    description = ("program and per-phase mappings cover qubits 0..n-1 "
                   "exactly, reference real nodes and respect node "
                   "data-qubit capacities")
    scope = "program"

    def run(self, ctx: ProgramContext) -> List[Diagnostic]:
        diags: List[Diagnostic] = []
        num_qubits = ctx.program.circuit.num_qubits
        self._check_mapping(ctx, ctx.program.mapping, num_qubits, None,
                            diags)
        for phase in ctx.program.phases or []:
            self._check_mapping(ctx, phase.mapping, num_qubits, phase.index,
                                diags)
        return diags

    def _check_mapping(self, ctx: ProgramContext, mapping: QubitMapping,
                       num_qubits: int, phase: Optional[int],
                       diags: List[Diagnostic]) -> None:
        network = ctx.network
        assignment = mapping.as_dict()
        expected = set(range(num_qubits))
        missing = expected - set(assignment)
        extra = set(assignment) - expected
        for qubit in sorted(missing):
            diags.append(_error(self.id, "qubit has no placement",
                                qubit=qubit, phase=phase))
        for qubit in sorted(extra):
            diags.append(_error(
                self.id, f"mapping places unknown qubit {qubit} "
                         f"(circuit has {num_qubits})",
                qubit=qubit, phase=phase))
        loads: Dict[int, int] = {}
        for qubit in sorted(set(assignment) & expected):
            node = assignment[qubit]
            if not 0 <= node < network.num_nodes:
                diags.append(_error(
                    self.id, f"qubit placed on unknown node {node}",
                    qubit=qubit, phase=phase))
                continue
            loads[node] = loads.get(node, 0) + 1
        for node, load in sorted(loads.items()):
            capacity = network.node(node).num_data_qubits
            if load > capacity:
                diags.append(_error(
                    self.id, f"node holds {load} qubits but has only "
                             f"{capacity} data qubits",
                    node=node, phase=phase))


@register_pass
class MigrationCheck(CheckPass):
    """Migrations form a legal phase-to-phase placement history."""

    id = "migration-legality"
    description = ("each migration moves a qubit from its actual previous "
                   "placement, endpoints have comm qubits, and the "
                   "placement history composes into each phase's mapping")
    scope = "program"

    def run(self, ctx: ProgramContext) -> List[Diagnostic]:
        program = ctx.program
        diags: List[Diagnostic] = []
        if not program.phases:
            return diags
        phases = program.phases
        migrations = program.migrations or []
        if len(migrations) != len(phases) - 1:
            diags.append(_error(
                self.id, f"{len(phases)} phases need "
                         f"{len(phases) - 1} migration boundaries, "
                         f"got {len(migrations)}"))
            return diags
        network = ctx.network
        num_qubits = program.circuit.num_qubits
        if phases[0].mapping.as_dict() != program.mapping.as_dict():
            diags.append(_error(
                self.id, "phase 0 mapping differs from the program's "
                         "initial mapping", phase=0))
        current = dict(program.mapping.as_dict())
        for boundary, moves in enumerate(migrations):
            moved = set()
            for move in moves:
                if not 0 <= move.qubit < num_qubits:
                    diags.append(_error(
                        self.id, f"migration of unknown qubit {move.qubit}",
                        phase=boundary + 1, qubit=move.qubit))
                    continue
                if move.qubit in moved:
                    diags.append(_error(
                        self.id, "qubit migrated twice at one boundary",
                        phase=boundary + 1, qubit=move.qubit))
                moved.add(move.qubit)
                if move.source == move.target:
                    diags.append(_error(
                        self.id, f"migration from node {move.source} to "
                                 "itself", phase=boundary + 1,
                        qubit=move.qubit, node=move.source))
                actual = current.get(move.qubit)
                if actual != move.source:
                    diags.append(_error(
                        self.id, f"migration leaves node {move.source} but "
                                 f"the qubit lives on node {actual}",
                        phase=boundary + 1, qubit=move.qubit))
                for endpoint in (move.source, move.target):
                    if not 0 <= endpoint < network.num_nodes:
                        diags.append(_error(
                            self.id, f"migration endpoint {endpoint} is "
                                     "not a node", phase=boundary + 1,
                            qubit=move.qubit, node=endpoint))
                    elif network.node(endpoint).num_comm_qubits < 1:
                        diags.append(_error(
                            self.id, "migration endpoint has no "
                                     "communication qubit",
                            phase=boundary + 1, qubit=move.qubit,
                            node=endpoint))
                current[move.qubit] = move.target
            phase_map = phases[boundary + 1].mapping.as_dict()
            if phase_map != current:
                mismatched = sorted(q for q in set(current) | set(phase_map)
                                    if current.get(q) != phase_map.get(q))
                diags.append(_error(
                    self.id, f"placement after boundary {boundary} does "
                             "not compose into phase "
                             f"{boundary + 1}'s mapping (qubits "
                             f"{mismatched[:8]} disagree)",
                    phase=boundary + 1,
                    qubit=mismatched[0] if mismatched else None))
                # Re-anchor so one bad boundary doesn't cascade.
                current = dict(phase_map)
        diags.extend(self._migration_windows(ctx))
        return diags

    def _migration_windows(self, ctx: ProgramContext) -> List[Diagnostic]:
        """Time-based legality of migration teleports in the schedule.

        A migration moving qubit ``q`` into phase ``b + 1`` must start at
        or after every scheduled op of phases ``<= b`` touching ``q``
        retires, and complete before any op of phases ``>= b + 1`` touching
        ``q`` starts.  Under barrier boundaries this is implied by the
        global barrier; under overlapped boundaries it is exactly the
        per-qubit constraint the overlap pass must preserve — anything
        using ``q`` while its teleport is in flight is an illegal overlap.
        """
        plan = ctx.plan
        schedule = ctx.program.schedule
        diags: List[Diagnostic] = []
        if schedule is None or plan.num_phases < 2:
            return diags
        num_qubits = ctx.program.circuit.num_qubits
        n = len(plan.items)
        touchers: Dict[int, List[Tuple[int, object]]] = {}
        moves: List[Tuple[MigrationOp, int, object]] = []
        for op in schedule.ops:
            if not 0 <= op.index < n:
                continue
            item = plan.items[op.index]
            phase = plan.item_phases[op.index]
            if isinstance(item, MigrationOp):
                moves.append((item, phase, op))
                touchers.setdefault(item.qubit, []).append((phase, op))
            else:
                for qubit in _item_qubits(item, num_qubits):
                    touchers.setdefault(qubit, []).append((phase, op))
        for move, phase, op in moves:
            boundary = phase - 1
            for other_phase, other in touchers.get(move.qubit, ()):
                if other is op:
                    continue
                if (other_phase <= boundary
                        and other.end > op.start + TIME_TOLERANCE):
                    diags.append(_error(
                        self.id, f"migration of qubit {move.qubit} into "
                                 f"phase {phase} starts at {op.start} "
                                 f"before the phase-{other_phase} op "
                                 f"{other.index} touching it retires at "
                                 f"{other.end}",
                        phase=phase, qubit=move.qubit, op=op.index))
                elif (other_phase >= phase
                        and other.start < op.end - TIME_TOLERANCE):
                    diags.append(_error(
                        self.id, f"phase-{other_phase} op {other.index} "
                                 f"touching qubit {move.qubit} starts at "
                                 f"{other.start} while its migration is "
                                 f"in flight until {op.end}",
                        phase=phase, qubit=move.qubit, op=other.index))
        return diags


@register_pass
class RouteCheck(CheckPass):
    """Every consumed EPR pair has a valid route on real physical links."""

    id = "route-validity"
    description = ("EPR routes exist, connect the requested endpoints over "
                   "direct physical links, and every link has positive "
                   "latency, positive capacity and a valid p_epr")
    scope = "program"

    def run(self, ctx: ProgramContext) -> List[Diagnostic]:
        network = ctx.network
        diags: List[Diagnostic] = []
        profiles = ctx.plan.op_profiles(network)
        checked_pairs = set()
        checked_links = set()
        for index, profile in enumerate(profiles):
            for pair in profile.prep_pairs:
                a, b = pair
                if a == b:
                    diags.append(_error(
                        self.id, "EPR pair with identical endpoints "
                                 f"({a}, {b})", op=index, node=a))
                    continue
                if not (0 <= a < network.num_nodes
                        and 0 <= b < network.num_nodes):
                    diags.append(_error(
                        self.id, f"EPR pair ({a}, {b}) references a node "
                                 f"outside [0, {network.num_nodes})",
                        op=index))
                    continue
                key = (a, b) if a < b else (b, a)
                if key in checked_pairs:
                    continue
                checked_pairs.add(key)
                diags.extend(self._check_route(ctx, index, a, b,
                                               checked_links))
        return diags

    def _check_route(self, ctx: ProgramContext, index: int, a: int, b: int,
                     checked_links) -> List[Diagnostic]:
        network = ctx.network
        diags: List[Diagnostic] = []
        try:
            route = network.epr_route(a, b)
        except KeyError:
            diags.append(_error(
                self.id, f"no EPR route between nodes {a} and {b}",
                op=index, link=(min(a, b), max(a, b))))
            return diags
        path = route.path
        if path[0] != a or path[-1] != b:
            diags.append(_error(
                self.id, f"route for ({a}, {b}) runs "
                         f"{path[0]} -> {path[-1]}", op=index,
                link=(min(a, b), max(a, b))))
        routing = network.routing
        for u, v in zip(path, path[1:]):
            if u == v:
                diags.append(_error(
                    self.id, f"route revisits node {u} consecutively",
                    op=index, node=u))
                continue
            link = (u, v) if u < v else (v, u)
            if routing is not None:
                if link not in routing.physical_links:
                    diags.append(_error(
                        self.id, f"route hop {u}-{v} is not a physical "
                                 "link of the topology", op=index,
                        link=link))
                    continue
            if link in checked_links:
                continue
            checked_links.add(link)
            latency = network.link_latency(u, v)
            if not latency > 0:
                diags.append(_error(
                    self.id, "link has non-positive EPR latency "
                             f"{latency}", op=index, link=link))
            capacity = network.link_capacity(u, v)
            if capacity is not None and capacity < 1:
                diags.append(_error(
                    self.id, f"link has non-positive capacity {capacity}",
                    op=index, link=link))
            p_epr = network.link_p_epr(u, v)
            if not 0.0 < p_epr <= 1.0:
                diags.append(_error(
                    self.id, f"link has p_epr {p_epr} outside (0, 1]",
                    op=index, link=link))
        return diags


@register_pass
class CausalityCheck(CheckPass):
    """No scheduled op starts before its dependencies retire."""

    id = "schedule-causality"
    description = ("every scheduled op starts at or after the end of each "
                   "of its predecessors, and ends at or after it starts")
    scope = "program"

    def run(self, ctx: ProgramContext) -> List[Diagnostic]:
        schedule = ctx.program.schedule
        diags: List[Diagnostic] = []
        if schedule is None:
            return diags
        plan = ctx.plan
        n = len(plan.items)
        ends: Dict[int, float] = {}
        for op in schedule.ops:
            if 0 <= op.index < n:
                ends[op.index] = op.end
        for op in schedule.ops:
            if op.end < op.start - TIME_TOLERANCE:
                diags.append(_error(
                    self.id, f"op ends at {op.end} before it starts at "
                             f"{op.start}", op=op.index))
            if not 0 <= op.index < n:
                continue
            for pred in plan.preds[op.index]:
                pred_end = ends.get(pred)
                if pred_end is None:
                    continue
                if op.start < pred_end - TIME_TOLERANCE:
                    diags.append(_error(
                        self.id, f"op starts at {op.start} before "
                                 f"predecessor {pred} retires at "
                                 f"{pred_end}", op=op.index))
        diags.extend(self._cross_phase_qubit_order(ctx))
        return diags

    def _cross_phase_qubit_order(self, ctx: ProgramContext
                                 ) -> List[Diagnostic]:
        """Per-qubit causality across phase boundaries of a phased plan.

        For every qubit, compute ops of a later phase touching it must not
        start before compute ops of an earlier phase touching it retire.
        Barrier schedules satisfy this via the global boundary sink; the
        overlap pass must preserve it through per-qubit edges alone — a
        violation means a later-phase op raced a qubit across a boundary.
        (Migration teleports are checked separately by
        ``migration-legality``, which pins them *between* the two windows.)
        """
        plan = ctx.plan
        schedule = ctx.program.schedule
        diags: List[Diagnostic] = []
        if schedule is None or plan.num_phases < 2:
            return diags
        num_qubits = ctx.program.circuit.num_qubits
        n = len(plan.items)
        per_qubit: Dict[int, List[Tuple[int, object]]] = {}
        for op in schedule.ops:
            if not 0 <= op.index < n:
                continue
            item = plan.items[op.index]
            if isinstance(item, MigrationOp):
                continue
            phase = plan.item_phases[op.index]
            for qubit in _item_qubits(item, num_qubits):
                per_qubit.setdefault(qubit, []).append((phase, op))
        for qubit, entries in sorted(per_qubit.items()):
            entries.sort(key=lambda e: e[0])
            # Latest retirement over all strictly-earlier phases, swept in
            # phase order so each op is compared against one running max.
            frontier_end = float("-inf")
            current_phase: Optional[int] = None
            current_max = float("-inf")
            for phase, op in entries:
                if current_phase is None:
                    current_phase = phase
                elif phase != current_phase:
                    frontier_end = max(frontier_end, current_max)
                    current_phase = phase
                    current_max = float("-inf")
                if op.start < frontier_end - TIME_TOLERANCE:
                    diags.append(_error(
                        self.id, f"phase-{phase} op {op.index} touching "
                                 f"qubit {qubit} starts at {op.start} "
                                 "before an earlier phase's op on the same "
                                 f"qubit retires at {frontier_end}",
                        qubit=qubit, op=op.index))
                current_max = max(current_max, op.end)
        return diags


@register_pass
class BookingCheck(CheckPass):
    """Schedule-implied resource demand never exceeds static capacities."""

    id = "booking-feasibility"
    description = ("concurrent comm ops per node never exceed its comm "
                   "qubits; statically bounded per-link demand within "
                   "capacity (warning when the analytical idealisation "
                   "exceeds it)")
    scope = "program"

    def run(self, ctx: ProgramContext) -> List[Diagnostic]:
        schedule = ctx.program.schedule
        diags: List[Diagnostic] = []
        if schedule is None:
            return diags
        network = ctx.network
        comm_ops = [op for op in schedule.ops if op.kind != "gate"]

        # Node comm-qubit feasibility: a comm op occupies one comm qubit on
        # each involved node at least over [start, end) (the booked window
        # extends earlier into EPR preparation), so a protocol-window
        # overlap beyond capacity is already a certain violation.
        per_node: Dict[int, List[Tuple[float, float, int]]] = {}
        for op in comm_ops:
            for node in op.nodes:
                per_node.setdefault(node, []).append((op.start, op.end, 1))
        for node, intervals in sorted(per_node.items()):
            if not 0 <= node < network.num_nodes:
                diags.append(_error(
                    self.id, f"comm op touches unknown node {node}",
                    node=node))
                continue
            capacity = network.node(node).num_comm_qubits
            peak, when = _peak_concurrency(intervals)
            if peak > capacity:
                diags.append(_error(
                    self.id, f"{peak} concurrent comm ops at t={when} "
                             f"but the node has {capacity} comm qubits",
                    node=node))

        # Per-link EPR generation demand against link capacities.  The
        # analytical scheduler deliberately idealises links (the simulator
        # serialises the excess), so exceeding a capacity statically is a
        # warning about the idealisation, not a broken schedule.
        if not self._any_capacity(ctx):
            return diags
        profiles = ctx.plan.op_profiles(network)
        n = len(ctx.plan.items)
        per_link: Dict[Tuple[int, int], List[Tuple[float, float, int]]] = {}
        for op in comm_ops:
            if not 0 <= op.index < n:
                continue
            profile = profiles[op.index]
            if not profile.prep_pairs:
                continue
            window = (max(0.0, op.start - profile.prep), op.start)
            for link, count in profile.links:
                capacity = network.link_capacity(*link)
                demand = count if capacity is None else min(count, capacity)
                per_link.setdefault(link, []).append(
                    (window[0], window[1], demand))
        for link, intervals in sorted(per_link.items()):
            capacity = network.link_capacity(*link)
            if capacity is None:
                continue
            peak, when = _peak_concurrency(intervals)
            if peak > capacity:
                diags.append(_warning(
                    self.id, f"analytical schedule implies {peak} "
                             f"concurrent EPR generations at t={when} on a "
                             f"capacity-{capacity} link; the simulator "
                             "will serialise the excess", link=link))
        return diags

    @staticmethod
    def _any_capacity(ctx: ProgramContext) -> bool:
        model = ctx.network.link_model
        return model is not None and model.has_capacities
