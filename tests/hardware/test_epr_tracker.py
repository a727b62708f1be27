"""Unit tests for the communication-qubit resource tracker."""

import math
import random

import pytest

from repro.hardware import (CommResourceTracker, QuantumNetwork, QuantumNode,
                            SlotSchedule, uniform_network)


@pytest.fixture
def tracker():
    return CommResourceTracker(uniform_network(3, 4))


class TestReservation:
    def test_reserve_first_free_slot(self, tracker):
        reservation = tracker.reserve(0, 0.0, 5.0)
        assert reservation.node == 0
        assert reservation.slot == 0

    def test_second_reservation_uses_other_slot(self, tracker):
        tracker.reserve(0, 0.0, 5.0)
        second = tracker.reserve(0, 0.0, 5.0)
        assert second.slot == 1

    def test_third_overlapping_reservation_fails(self, tracker):
        tracker.reserve(0, 0.0, 5.0)
        tracker.reserve(0, 0.0, 5.0)
        with pytest.raises(ValueError):
            tracker.reserve(0, 2.0, 4.0)

    def test_non_overlapping_reservations_share_slot(self, tracker):
        first = tracker.reserve(0, 0.0, 5.0)
        second = tracker.reserve(0, 5.0, 10.0)
        assert first.slot == second.slot == 0

    def test_explicit_slot_conflict_rejected(self, tracker):
        tracker.reserve(1, 0.0, 3.0, slot=0)
        with pytest.raises(ValueError):
            tracker.reserve(1, 1.0, 2.0, slot=0)

    def test_reversed_interval_rejected(self, tracker):
        with pytest.raises(ValueError):
            tracker.reserve(0, 5.0, 1.0)

    def test_labels_recorded(self, tracker):
        tracker.reserve(0, 0.0, 1.0, label="epr-1")
        assert tracker.reservations[0].label == "epr-1"
        assert tracker.num_reservations() == 1


class TestQueries:
    def test_slot_free(self, tracker):
        tracker.reserve(0, 2.0, 4.0, slot=0)
        assert tracker.slot_free(0, 0, 0.0, 2.0)
        assert tracker.slot_free(0, 0, 4.0, 6.0)
        assert not tracker.slot_free(0, 0, 3.0, 5.0)
        assert tracker.slot_free(0, 1, 3.0, 5.0)

    def test_earliest_slot_on_empty_node(self, tracker):
        start, slot = tracker.earliest_slot(2, duration=3.0, not_before=1.5)
        assert start == 1.5
        assert slot in (0, 1)

    def test_earliest_slot_skips_busy_interval(self, tracker):
        tracker.reserve(0, 0.0, 10.0, slot=0)
        tracker.reserve(0, 0.0, 6.0, slot=1)
        start, slot = tracker.earliest_slot(0, duration=5.0, not_before=0.0)
        assert start == 6.0
        assert slot == 1

    def test_earliest_slot_fits_in_gap(self, tracker):
        tracker.reserve(0, 0.0, 2.0, slot=0)
        tracker.reserve(0, 8.0, 12.0, slot=0)
        tracker.reserve(0, 0.0, 12.0, slot=1)
        start, slot = tracker.earliest_slot(0, duration=4.0, not_before=0.0)
        assert start == 2.0
        assert slot == 0

    def test_earliest_joint_respects_both_nodes(self, tracker):
        tracker.reserve(0, 0.0, 10.0, slot=0)
        tracker.reserve(0, 0.0, 10.0, slot=1)
        # Node 1 is free but node 0 is saturated until t=10.
        start, slots = tracker.earliest_joint([0, 1], duration=2.0)
        assert start == 10.0
        assert set(slots) == {0, 1}

    def test_earliest_joint_on_free_nodes(self, tracker):
        start, slots = tracker.earliest_joint([1, 2], duration=4.0, not_before=3.0)
        assert start == 3.0


class TestAccounting:
    def test_makespan(self, tracker):
        assert tracker.makespan() == 0.0
        tracker.reserve(0, 0.0, 7.0)
        tracker.reserve(1, 2.0, 11.0)
        assert tracker.makespan() == 11.0

    def test_utilisation(self, tracker):
        tracker.reserve(0, 0.0, 10.0, slot=0)
        # One of two slots busy for the whole horizon -> 50%.
        assert tracker.utilisation(0, horizon=10.0) == pytest.approx(0.5)
        assert tracker.utilisation(1, horizon=10.0) == 0.0

    def test_utilisation_empty_horizon(self, tracker):
        assert tracker.utilisation(0) == 0.0


class TestEarliestMulti:
    def test_empty_schedule_starts_immediately(self):
        from repro.hardware import SlotSchedule

        schedule = SlotSchedule(2)
        assert schedule.earliest_multi(5.0, 2, not_before=3.0) == 3.0

    def test_waits_for_enough_concurrent_slots(self):
        from repro.hardware import SlotSchedule

        schedule = SlotSchedule(2)
        schedule.book(0.0, 10.0)
        # One slot is free now, but two are only free from t=10.
        assert schedule.earliest_multi(4.0, 1) == 0.0
        assert schedule.earliest_multi(4.0, 2) == 10.0

    def test_finds_gap_between_bookings(self):
        from repro.hardware import SlotSchedule

        schedule = SlotSchedule(2)
        schedule.book(0.0, 2.0, slot=0)
        schedule.book(6.0, 9.0, slot=0)
        schedule.book(0.0, 3.0, slot=1)
        # Both slots are free on [3, 6): a 3-unit window fits there.
        assert schedule.earliest_multi(3.0, 2) == 3.0
        # A 4-unit window for two slots only fits after the last booking.
        assert schedule.earliest_multi(4.0, 2) == 9.0

    def test_count_validation(self):
        from repro.hardware import SlotSchedule

        schedule = SlotSchedule(2)
        with pytest.raises(ValueError):
            schedule.earliest_multi(1.0, 0)
        with pytest.raises(ValueError):
            schedule.earliest_multi(1.0, 3)


# --------------------------------------------------------------------------
# Property test: the bisect-indexed queries against a linear-scan oracle.
# --------------------------------------------------------------------------

def _oracle_free(intervals, start, end):
    return all(not (s < end and start < e) for s, e in intervals)


def _oracle_candidates(slots, not_before):
    return sorted({not_before} | {e for slot in slots for _, e in slot
                                  if e > not_before})


def _oracle_on_slot(intervals, duration, not_before, prep):
    # The earliest free start is not_before or the end of a busy interval.
    for start in _oracle_candidates([intervals], not_before):
        if _oracle_free(intervals, start, (start + prep) + duration):
            return start
    raise AssertionError("no candidate fits")  # pragma: no cover


def _oracle_multi(slots, duration, count, not_before):
    for start in _oracle_candidates(slots, not_before):
        if sum(_oracle_free(slot, start, start + duration)
               for slot in slots) >= count:
            return start
    raise AssertionError("no candidate fits")  # pragma: no cover


def _values(rng):
    """Times drawn to collide: repeats, integers, thirds and ULP steps."""
    base = rng.choice((float(rng.randint(0, 12)), rng.randint(0, 36) / 3,
                       rng.uniform(0, 12)))
    for _ in range(rng.choice((0, 0, 1, 2))):
        base = math.nextafter(base, rng.choice((math.inf, -math.inf)))
    return max(base, 0.0)


def _length(rng):
    return rng.choice((0.0, 0.0, 1.0, 1 / 3, rng.uniform(0, 3),
                       5e-324, 2.220446049250313e-16))


class TestSlotScheduleProperty:
    @pytest.mark.parametrize("seed", range(6))
    def test_queries_match_linear_scan(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            schedule = SlotSchedule(rng.choice((1, 2, 3)))
            slots = schedule.intervals
            for _ in range(rng.randint(0, 25)):
                start = _values(rng)
                end = start + _length(rng)
                if rng.random() < 0.3:
                    slot = rng.randrange(schedule.num_slots)
                    free = _oracle_free(slots[slot], start, end)
                    assert schedule.slot_free(slot, start, end) == free
                    if free:
                        assert schedule.book(start, end, slot) == slot
                    else:
                        with pytest.raises(ValueError):
                            schedule.book(start, end, slot)
                    continue
                first = next((slot for slot in range(schedule.num_slots)
                              if _oracle_free(slots[slot], start, end)), None)
                if first is None:
                    with pytest.raises(ValueError):
                        schedule.book(start, end)
                else:
                    assert schedule.book(start, end) == first
            for slot in slots:
                # Ends rise with starts: the invariant the bisects rely on.
                assert all(a[1] <= b[1] for a, b in zip(slot, slot[1:]))
            for _ in range(15):
                not_before = _values(rng)
                duration, prep = _length(rng), rng.choice((0.0, _length(rng)))
                expected = [_oracle_on_slot(slot, duration, not_before, prep)
                            for slot in slots]
                for slot, start in enumerate(expected):
                    assert schedule.slot_free(
                        slot, not_before, not_before + duration) == \
                        _oracle_free(slots[slot], not_before,
                                     not_before + duration)
                    assert schedule.earliest_on_slot(
                        slot, duration, not_before, prep) == start
                best = min(expected)
                assert schedule.earliest(duration, not_before, prep) == (
                    best, expected.index(best))
                count = rng.randint(1, schedule.num_slots)
                assert schedule.earliest_multi(duration, count, not_before) \
                    == _oracle_multi(slots, duration, count, not_before)


def _oracle_joint(tracker, nodes, duration, not_before, prep, links):
    """``earliest_joint`` asking every node again at every proposal."""
    time = not_before
    while True:
        slots, proposal = {}, time
        for node in nodes:
            start, slot = tracker.earliest_slot(node, duration, time, prep)
            slots[node] = slot
            proposal = max(proposal, start)
        for schedule, count in links:
            proposal = max(proposal, schedule.earliest_multi(
                prep, count, not_before=proposal))
        if proposal == time:
            return time, slots
        time = proposal


def _logging(schedule, node, log):
    """Record each ``earliest`` search of ``schedule`` and its answer."""
    search = schedule.earliest

    def earliest(duration, not_before=0.0, prep=0.0):
        answer = search(duration, not_before, prep)
        log.append((node, not_before, answer[0]))
        return answer
    schedule.earliest = earliest


class TestEarliestJointProperty:
    """The joint search asks a node again only when its last answer lies
    before the proposal, and still finds what asking every node finds."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_full_requery(self, seed):
        rng = random.Random(seed)
        requeried = 0
        for _ in range(40):
            network = QuantumNetwork([
                QuantumNode(index=i, num_data_qubits=2,
                            num_comm_qubits=rng.choice((1, 2, 3)))
                for i in range(rng.randint(2, 4))])
            tracker = CommResourceTracker(network)
            log = []
            for node in range(network.num_nodes):
                _logging(tracker._schedules[node], node, log)
            links = [SlotSchedule(rng.choice((1, 2))) for _ in range(2)]
            for _ in range(rng.randint(5, 30)):
                if rng.random() < 0.4:
                    start = _values(rng)
                    try:
                        tracker.reserve(rng.randrange(network.num_nodes),
                                        start, start + _length(rng))
                    except ValueError:
                        pass
                    continue
                nodes = rng.sample(range(network.num_nodes),
                                   rng.randint(1, min(3, network.num_nodes)))
                duration, prep = _length(rng), rng.choice((0.0, _length(rng)))
                capped = [(link, rng.randint(1, link.num_slots))
                          for link in links if rng.random() < 0.4]
                not_before = _values(rng)
                expected = _oracle_joint(tracker, nodes, duration, not_before,
                                         prep, capped)
                del log[:]
                start, slots = tracker.earliest_joint(nodes, duration,
                                                      not_before, prep, capped)
                assert (start, slots) == expected
                last = {}
                for node, asked, answer in log:
                    if node in last:
                        # Asked again only past its last answer.
                        assert asked > last[node]
                        requeried += 1
                    last[node] = answer
                for node in nodes:
                    tracker.reserve(node, start, (start + prep) + duration,
                                    slot=slots[node])
                for link, count in capped:
                    for _ in range(count):
                        link.book(start, start + prep)
        assert requeried


class TestReserveJoint:
    def test_books_the_searched_window(self, tracker):
        tracker.reserve(0, 0.0, 4.0, slot=0)
        tracker.reserve(1, 0.0, 6.0, slot=1)
        prep_start, start, end = tracker.reserve_joint(
            [0, 1], ready=3.0, duration=2.0, prep=1.0, label="cat-7")
        assert (prep_start, start, end) == (2.0, 3.0, 5.0)
        booked = tracker.reservations[-2:]
        assert [(r.node, r.slot, r.start, r.end, r.label) for r in booked] \
            == [(0, 1, 2.0, 5.0, "cat-7"), (1, 0, 2.0, 5.0, "cat-7")]

    def test_end_is_the_tested_end(self, tracker):
        # (0.1 + 0.1) + 0.4 is one ULP above 0.6: the window must not be
        # placed where only the shorter sum 0.1 + (0.1 + 0.4) would fit.
        tracker.reserve(0, 0.6, 1.0, slot=0)
        tracker.reserve(0, 0.0, 9.0, slot=1)
        prep_start, start, end = tracker.reserve_joint(
            [0], ready=0.2, duration=0.4, prep=0.1)
        assert (prep_start, start, end) == (1.0, 1.1, 1.1 + 0.4)

    def test_capped_link_joins_the_search(self, tracker):
        # Two link slots are free together only from 5, where node 2's
        # comm qubits are busy; the search settles where both agree and
        # books the link over the prep window.
        tracker.reserve(2, 4.0, 9.0)
        tracker.reserve(2, 4.0, 9.0)
        link = SlotSchedule(2)
        link.book(0.0, 5.0)
        link.book(0.0, 3.0)
        assert tracker.reserve_joint([2], ready=1.0, duration=1.0, prep=2.0,
                                     links=[(link, 2)]) == (9.0, 11.0, 12.0)
        assert link.intervals == [[(0.0, 5.0), (9.0, 11.0)],
                                  [(0.0, 3.0), (9.0, 11.0)]]
