"""Communication-qubit resource tracking.

Every remote communication (one Cat-Comm invocation or one qubit
teleportation) occupies one communication qubit on each of the two nodes
involved for the duration of the protocol.  With only two communication
qubits per node (the paper's near-term assumption), at most two remote
communications can be in flight at any node simultaneously.

:class:`CommResourceTracker` keeps, per node, the set of busy time intervals
on each communication qubit and answers "when is the earliest time at or
after ``t`` when this node has a free communication qubit for ``duration``
time units?".  The block scheduler in :mod:`repro.core.scheduling` and the
baseline schedulers both build on it, so the resource constraint is applied
identically to every compiler being compared.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .network import QuantumNetwork

__all__ = ["CommResourceTracker", "Reservation", "SlotSchedule"]


class SlotSchedule:
    """Busy-interval bookkeeping across ``num_slots`` identical slots.

    The generic core of :class:`CommResourceTracker` (one instance per node's
    communication qubits); the execution simulator reuses it for per-link
    EPR-generation contention queues.
    """

    def __init__(self, num_slots: int) -> None:
        if num_slots <= 0:
            raise ValueError("a slot schedule needs at least one slot")
        # intervals[slot] = sorted list of (start, end) busy windows.
        self.intervals: List[List[Tuple[float, float]]] = [
            [] for _ in range(num_slots)]

    @property
    def num_slots(self) -> int:
        return len(self.intervals)

    def slot_free(self, slot: int, start: float, end: float) -> bool:
        """True when ``slot`` is idle over ``[start, end)``.

        Booked intervals never overlap, so ends rise with starts: only the
        last interval starting before ``end`` can reach past ``start``.
        """
        intervals = self.intervals[slot]
        index = bisect_left(intervals, (end,))
        return not index or intervals[index - 1][1] <= start

    def earliest_on_slot(self, slot: int, duration: float,
                         not_before: float, prep: float = 0.0) -> float:
        """Earliest start on ``slot`` whose window ``[start, (start + prep)
        + duration)`` is free.

        The end is tested exactly as callers book it: ``start + (prep +
        duration)`` can be one ULP shorter and admit a window that then
        overlaps the next booking.  Booked intervals never overlap, so all
        but the last of those starting before ``not_before`` also end by
        it and cannot move the start: the scan begins there, and when the
        last interval ends by ``not_before`` nothing can.
        """
        intervals = self.intervals[slot]
        if not intervals or intervals[-1][1] <= not_before:
            return not_before
        start = not_before
        end = (start + prep) + duration
        first = bisect_left(intervals, (not_before,))
        for (s, e) in intervals[first - 1 if first else 0:]:
            if end <= s:
                return start
            if e > start:
                start = e
                end = (start + prep) + duration
        return start

    def earliest(self, duration: float, not_before: float = 0.0,
                 prep: float = 0.0) -> Tuple[float, int]:
        """Earliest (start, slot) at or after ``not_before`` with room for
        ``prep`` then ``duration``."""
        best = (self.earliest_on_slot(0, duration, not_before, prep), 0)
        for slot in range(1, len(self.intervals)):
            start = self.earliest_on_slot(slot, duration, not_before, prep)
            if start < best[0]:
                best = (start, slot)
        return best

    def earliest_multi(self, duration: float, count: int,
                       not_before: float = 0.0) -> float:
        """Earliest start with ``count`` slots simultaneously free for ``duration``.

        Needed by the execution simulator when several EPR generations of
        one operation ride the same physical link (a fused chain revisiting
        a link, or two routed pairs sharing one).  Candidate starts are
        ``not_before`` and the ends of busy intervals after it — the only
        instants where a slot becomes free (on each slot, from the last
        interval starting before ``not_before``: ends rise with starts).
        """
        if count <= 0:
            raise ValueError("count must be positive")
        if count > self.num_slots:
            raise ValueError(
                f"need {count} concurrent slots but only {self.num_slots} exist")
        candidates = {not_before}
        for slot in self.intervals:
            tail = slot[max(bisect_left(slot, (not_before,)) - 1, 0):]
            candidates.update(e for (_, e) in tail if e > not_before)
        for start in sorted(candidates):
            free = sum(1 for slot in range(self.num_slots)
                       if self.slot_free(slot, start, start + duration))
            if free >= count:
                return start
        raise RuntimeError("no feasible start found")  # pragma: no cover

    def book(self, start: float, end: float,
             slot: Optional[int] = None) -> int:
        """Mark ``[start, end)`` busy on ``slot`` (or the first free slot)."""
        if end < start:
            raise ValueError("reservation end precedes start")
        if slot is None:
            for candidate in range(self.num_slots):
                if self.slot_free(candidate, start, end):
                    slot = candidate
                    break
            else:
                raise ValueError(f"no free slot in [{start}, {end})")
        elif not self.slot_free(slot, start, end):
            raise ValueError(f"slot {slot} is busy in [{start}, {end})")
        insort(self.intervals[slot], (start, end))
        return slot

    def busy_time(self) -> float:
        """Total busy time summed over all slots."""
        return sum(e - s for slot in self.intervals for (s, e) in slot)

    def makespan(self) -> float:
        return max((e for slot in self.intervals for (_, e) in slot),
                   default=0.0)


class Reservation(NamedTuple):
    """A booked interval on one communication qubit of one node.

    A tuple record (one is built per node per booked communication):
    immutable, hashable and picklable, with no per-instance ``__dict__``;
    ``reservation._replace(...)`` derives a changed copy.
    """

    node: int
    slot: int
    start: float
    end: float
    label: str = ""


class CommResourceTracker:
    """Interval-based occupancy tracker for communication qubits."""

    def __init__(self, network: QuantumNetwork) -> None:
        self.network = network
        self._schedules: Dict[int, SlotSchedule] = {
            node.index: SlotSchedule(node.num_comm_qubits) for node in network
        }
        self.reservations: List[Reservation] = []

    # ----------------------------------------------------------------- queries

    def slot_free(self, node: int, slot: int, start: float, end: float) -> bool:
        """True when ``slot`` of ``node`` is idle over ``[start, end)``."""
        return self._schedules[node].slot_free(slot, start, end)

    def earliest_slot(self, node: int, duration: float,
                      not_before: float = 0.0,
                      prep: float = 0.0) -> Tuple[float, int]:
        """Earliest (start, slot) at or after ``not_before`` with ``prep``
        then ``duration`` free."""
        return self._schedules[node].earliest(duration, not_before, prep)

    def earliest_joint(self, nodes: Sequence[int], duration: float,
                       not_before: float = 0.0, prep: float = 0.0,
                       links: Sequence[Tuple[SlotSchedule, int]] = ()
                       ) -> Tuple[float, Dict[int, int]]:
        """Earliest start time when *every* node in ``nodes`` has a free slot.

        The window tested is ``[start, (start + prep) + duration)``, the one
        callers book.  Each ``(schedule, count)`` of ``links`` also needs
        ``count`` of that schedule's slots free over the prep window
        ``[start, start + prep)``.  Returns the start time and the chosen
        slot per node.  Every per-node and per-link search answers
        the earliest feasible time at or after its argument, so iterating
        them from ``not_before`` until none moves the proposal reaches the
        earliest time all accept; slots are picked at that time.
        """
        schedules = self._schedules
        time = not_before
        for _ in range(1000):
            slots: Dict[int, int] = {}
            proposal = time
            for node in nodes:
                start, slot = schedules[node].earliest(duration, time, prep)
                slots[node] = slot
                proposal = max(proposal, start)
            for schedule, count in links:
                proposal = max(proposal, schedule.earliest_multi(
                    prep, count, not_before=proposal))
            if proposal == time:
                return time, slots
            time = proposal
        raise RuntimeError("resource search did not converge")  # pragma: no cover

    # ------------------------------------------------------------------ booking

    def reserve_joint(self, nodes: Sequence[int], ready: float,
                      duration: float, prep: float, label: str = "",
                      links: Sequence[Tuple[SlotSchedule, int]] = ()
                      ) -> Tuple[float, float, float]:
        """Book one communication's earliest ``(prep_start, start, end)``.

        Each node's comm qubit is held from ``prep_start`` (EPR preparation,
        back-dated up to ``prep`` before ``ready``) to the end the search
        tested, on the slot it chose: the first free there.  Each
        ``(schedule, count)`` of ``links`` books ``count`` slots over the
        prep window ``[prep_start, start)``.
        """
        not_before = max(0.0, ready - prep)
        prep_start, slots = self.earliest_joint(nodes, duration, not_before,
                                                prep, links)
        start = prep_start + prep
        end = start + duration
        for node in nodes:
            self.reserve(node, prep_start, end, slot=slots[node], label=label)
        for schedule, count in links:
            for _ in range(count):
                schedule.book(prep_start, start)
        return prep_start, start, end

    def reserve(self, node: int, start: float, end: float,
                slot: Optional[int] = None, label: str = "") -> Reservation:
        """Book ``[start, end)`` on a communication qubit of ``node``.

        When ``slot`` is omitted the first free slot is used.  Raises
        ``ValueError`` if no slot is free for the whole interval.
        """
        try:
            booked = self._schedules[node].book(start, end, slot=slot)
        except ValueError as exc:
            raise ValueError(f"node {node}: {exc}") from None
        reservation = Reservation(node, booked, start, end, label)
        self.reservations.append(reservation)
        return reservation

    # ---------------------------------------------------------------- reporting

    def utilisation(self, node: int, horizon: Optional[float] = None) -> float:
        """Fraction of busy time across the node's communication qubits."""
        if horizon is None:
            horizon = self.makespan()
        if horizon <= 0:
            return 0.0
        schedule = self._schedules[node]
        return schedule.busy_time() / (horizon * schedule.num_slots)

    def makespan(self) -> float:
        """Latest reservation end time across the whole network."""
        return max((schedule.makespan()
                    for schedule in self._schedules.values()), default=0.0)

    def num_reservations(self) -> int:
        return len(self.reservations)
