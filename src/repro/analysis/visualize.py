"""Text visualisations of compiled programs.

Terminal-friendly renderings used by the examples and handy when debugging a
schedule: an ASCII timeline of the remote communications per node (from the
analytical schedule or from a discrete-event simulation), and a histogram of
burst-block sizes.  No plotting dependencies are required.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from ..core.pipeline import CompiledProgram
from ..core.scheduling import ScheduledOp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.engine import SimulationResult

__all__ = ["schedule_timeline", "simulation_timeline", "burst_histogram"]


def schedule_timeline(program: CompiledProgram, width: int = 72) -> str:
    """ASCII timeline of remote communications, one row per node.

    Each character cell covers ``latency / width`` time units; a cell shows
    ``C`` when a Cat-Comm block is active on the node, ``T`` for a TP-Comm
    block, ``M`` for an inter-phase migration teleport, ``#`` when more
    than one communication overlaps, and ``.`` when the node's
    communication qubits are idle.
    """
    if program.schedule is None:
        raise ValueError("program has no schedule attached")
    comm_ops: List[ScheduledOp] = program.schedule.comm_ops()
    latency = program.schedule.latency
    num_nodes = program.network.num_nodes
    if latency <= 0 or not comm_ops:
        return "\n".join(f"node {n}: (no remote communication)"
                         for n in range(num_nodes))

    cell = latency / width
    rows: Dict[int, List[str]] = {n: ["."] * width for n in range(num_nodes)}
    for op in comm_ops:
        symbol = _op_symbol(op.kind)
        first = min(width - 1, int(op.start / cell))
        last = min(width - 1, max(first, int((op.end - 1e-9) / cell)))
        for node in op.nodes:
            row = rows[node]
            for position in range(first, last + 1):
                row[position] = symbol if row[position] == "." else "#"
    lines = [f"0{' ' * (width - len(str(round(latency))) - 1)}{round(latency)} [CX units]"]
    for node in range(num_nodes):
        lines.append(f"node {node}: {''.join(rows[node])}")
    return "\n".join(lines)


def simulation_timeline(result: "SimulationResult", num_nodes: int,
                        width: int = 72) -> str:
    """ASCII timeline of one simulated execution, one row per node.

    Unlike :func:`schedule_timeline` this also shows the EPR-generation
    windows the engine realised: ``e`` marks a node generating EPR pairs
    (including stochastic retries), ``C``/``T`` mark a live Cat-Comm /
    TP-Comm protocol, and ``#`` marks overlapping communications.
    """
    comm_ops = result.comm_ops()
    latency = result.latency
    if latency <= 0 or not comm_ops:
        return "\n".join(f"node {n}: (no remote communication)"
                         for n in range(num_nodes))

    cell = latency / width
    # Each cell remembers which op painted it, so the '#' overlap marker only
    # appears when two *different* communications share a cell — the EPR/
    # protocol boundary of a single op shows the protocol symbol instead.
    rows: Dict[int, List[Optional[tuple]]] = {
        n: [None] * width for n in range(num_nodes)}

    def paint(index: int, nodes: Sequence[int], begin: float, finish: float,
              symbol: str) -> None:
        if finish <= begin:
            return
        first = min(width - 1, int(begin / cell))
        last = min(width - 1, max(first, int((finish - 1e-9) / cell)))
        for node in nodes:
            row = rows[node]
            for position in range(first, last + 1):
                current = row[position]
                if current is None or current == (index, "e"):
                    row[position] = (index, symbol)
                elif current[0] != index:
                    row[position] = (index, "#")

    for op in comm_ops:
        paint(op.index, op.nodes, op.prep_start, op.start, "e")
        paint(op.index, op.nodes, op.start, op.end, _op_symbol(op.kind))

    header = (f"0{' ' * (width - len(str(round(latency))) - 1)}"
              f"{round(latency)} [CX units]")
    lines = [header]
    for node in range(num_nodes):
        lines.append("node %d: %s" % (
            node, "".join("." if c is None else c[1] for c in rows[node])))
    lines.append("legend: e=EPR generation  C=Cat-Comm  T=TP-Comm  "
                 "M=migration  #=overlap")
    return "\n".join(lines)


def _op_symbol(kind: str) -> str:
    """Timeline symbol of one communication kind."""
    if kind == "migration":
        return "M"
    return "T" if kind.startswith("tp") else "C"


def burst_histogram(program: CompiledProgram, max_width: int = 40) -> str:
    """Histogram of burst-block sizes (remote CX gates per block).

    Each phase's blocks are classified under that phase's own mapping (a
    later-phase block pooled into ``program.blocks`` is only meaningful
    under the mapping it was aggregated with); a static program is one
    phase.
    """
    sizes = [block.num_remote_gates(phase.mapping)
             for phase in program.phases for block in phase.blocks]
    if not sizes:
        return "(no burst blocks)"
    counts: Dict[int, int] = {}
    for size in sizes:
        counts[size] = counts.get(size, 0) + 1
    peak = max(counts.values())
    lines = []
    for size in sorted(counts):
        bar = "#" * max(1, int(max_width * counts[size] / peak))
        lines.append(f"{size:3d} remote CX | {bar} {counts[size]}")
    return "\n".join(lines)
