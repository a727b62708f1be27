"""Trace-scope sanitizer passes: a race detector for the event engine.

These passes consume one finished simulation — the executed
:class:`~repro.sim.engine.SimulatedOp` records plus the
:class:`~repro.sim.trace.TraceRecorder`'s link windows — and detect,
post-hoc, what the engine must never do: double-book a node's
communication qubits, overlap more EPR generations on a link than its
capacity admits, or execute an item before its dependencies retired.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .checks import _error, _peak_concurrency
from .diagnostics import Diagnostic
from .passes import CheckPass, TIME_TOLERANCE, TraceContext, register_pass

__all__ = ["TraceCausalityCheck", "TraceCommQubitCheck",
           "TraceLinkCapacityCheck"]


@register_pass
class TraceCausalityCheck(CheckPass):
    """Executed ops respect their windows and the plan's dependencies."""

    id = "trace-causality"
    description = ("every executed op has prep_start <= start <= end, runs "
                   "after its dependencies retire, and every plan item "
                   "executed exactly once")
    scope = "trace"

    def run(self, ctx: TraceContext) -> List[Diagnostic]:
        diags: List[Diagnostic] = []
        n = len(ctx.plan.items)
        seen: Dict[int, int] = {}
        ends: Dict[int, float] = {}
        for op in ctx.result.ops:
            if 0 <= op.index < n:
                seen[op.index] = seen.get(op.index, 0) + 1
                ends[op.index] = op.end
            else:
                diags.append(_error(
                    self.id, f"executed op index {op.index} out of range "
                             f"[0, {n})", op=op.index))
        for index in range(n):
            count = seen.get(index, 0)
            if count == 0:
                diags.append(_error(
                    self.id, "plan item never executed", op=index))
            elif count > 1:
                diags.append(_error(
                    self.id, f"plan item executed {count} times",
                    op=index))
        for op in ctx.result.ops:
            if op.prep_start < -TIME_TOLERANCE:
                diags.append(_error(
                    self.id, "op preparation starts at negative time "
                             f"{op.prep_start}", op=op.index))
            if op.start < op.prep_start - TIME_TOLERANCE:
                diags.append(_error(
                    self.id, f"op starts at {op.start} before its EPR "
                             f"preparation at {op.prep_start}",
                    op=op.index))
            if op.end < op.start - TIME_TOLERANCE:
                diags.append(_error(
                    self.id, f"op ends at {op.end} before it starts at "
                             f"{op.start}", op=op.index))
            if not 0 <= op.index < n:
                continue
            for pred in ctx.plan.preds[op.index]:
                pred_end = ends.get(pred)
                if pred_end is None:
                    continue
                if op.start < pred_end - TIME_TOLERANCE:
                    diags.append(_error(
                        self.id, f"op starts at {op.start} before "
                                 f"dependency {pred} retires at "
                                 f"{pred_end}", op=op.index))
        return diags


@register_pass
class TraceCommQubitCheck(CheckPass):
    """No node ever hosts more concurrent comm ops than it has comm qubits."""

    id = "trace-comm-qubits"
    description = ("concurrent [prep_start, end) windows per node never "
                   "exceed the node's communication qubits")
    scope = "trace"

    def run(self, ctx: TraceContext) -> List[Diagnostic]:
        diags: List[Diagnostic] = []
        network = ctx.network
        per_node: Dict[int, List[Tuple[float, float, int]]] = {}
        for op in ctx.result.ops:
            if op.kind == "gate":
                continue
            for node in op.nodes:
                per_node.setdefault(node, []).append(
                    (op.prep_start, op.end, 1))
        for node, intervals in sorted(per_node.items()):
            if not 0 <= node < network.num_nodes:
                diags.append(_error(
                    self.id, f"executed op touches unknown node {node}",
                    node=node))
                continue
            capacity = network.node(node).num_comm_qubits
            peak, when = _peak_concurrency(intervals)
            if peak > capacity:
                diags.append(_error(
                    self.id, f"{peak} comm ops hold the node's comm "
                             f"qubits at t={when} but it has only "
                             f"{capacity} (double-booking)", node=node))
        return diags


@register_pass
class TraceLinkCapacityCheck(CheckPass):
    """Link EPR-generation windows never exceed the link's capacity."""

    id = "trace-link-capacity"
    description = ("per-link concurrent EPR generation slots stay within "
                   "the link's capacity; recorded link windows are "
                   "well-formed")
    scope = "trace"

    def run(self, ctx: TraceContext) -> List[Diagnostic]:
        diags: List[Diagnostic] = []
        network = ctx.network
        trace = getattr(ctx.result, "trace", None)
        if trace is not None:
            for link, windows in sorted(trace.link_busy.items()):
                for start, end in windows:
                    if start < -TIME_TOLERANCE or end < start - TIME_TOLERANCE:
                        diags.append(_error(
                            self.id, "malformed link window "
                                     f"[{start}, {end}]", link=link))
        if getattr(ctx.config, "ideal_links", False):
            return diags
        n = len(ctx.plan.items)
        profiles = None
        per_link: Dict[Tuple[int, int], List[Tuple[float, float, int]]] = {}
        for op in ctx.result.ops:
            if op.kind == "gate" or not 0 <= op.index < n:
                continue
            if profiles is None:
                profiles = ctx.plan.op_profiles(network)
            profile = profiles[op.index]
            if not profile.prep_pairs:
                continue
            for link, count in profile.links:
                capacity = network.link_capacity(*link)
                if capacity is None:
                    continue
                # The engine books min(count, capacity) concurrent slots
                # for the generation window and serialises the excess.
                per_link.setdefault(link, []).append(
                    (op.prep_start, op.start, min(count, capacity)))
        for link, intervals in sorted(per_link.items()):
            capacity = network.link_capacity(*link)
            if capacity is None:
                continue
            peak, when = _peak_concurrency(intervals)
            if peak > capacity:
                diags.append(_error(
                    self.id, f"{peak} concurrent EPR generation slots at "
                             f"t={when} on a capacity-{capacity} link",
                    link=link))
        return diags
