"""Contract of the per-op records: tuple records without a ``__dict__``.

The scheduler, the simulator, the comm-qubit tracker, the EPR sampler and
the trace recorder build one of these per item, booking or event, so they
are ``NamedTuple`` records.  Callers rely on immutability, hashing,
pickling (Monte-Carlo workers return results across processes),
``_replace`` and a fixed field order (the codec builds ``ScheduledOp``
positionally).
"""

import pickle

import pytest

from repro.core.scheduling import OpProfile, ScheduledOp
from repro.hardware.epr import Reservation
from repro.sim.engine import SimulatedOp
from repro.sim.epr_process import EPRSample
from repro.sim.trace import TraceEvent

#: (record type, pinned field order, one instance, a field to replace).
RECORDS = [
    (ScheduledOp,
     ("index", "kind", "start", "end", "nodes", "num_remote_gates",
      "num_items"),
     ScheduledOp(3, "cat", 1.5, 4.0, (0, 2), 2, 1), "end"),
    (OpProfile,
     ("kind", "duration", "nodes", "num_items", "prep_pairs", "prep",
      "links", "epr_pairs", "num_remote_gates", "label"),
     OpProfile("tp-chain", 7.0, (0, 1, 2), 2, ((0, 1), (1, 2)), 3.0,
               (((0, 1), 1), ((1, 2), 1)), 2, 4, "tp-chain-5"), "duration"),
    (SimulatedOp,
     ("index", "kind", "start", "end", "nodes", "prep_start", "epr_attempts",
      "num_items", "epr_pairs", "queue_wait"),
     SimulatedOp(4, "tp", 6.0, 9.5, (1, 3), 2.0, 3, 1, 1, 0.5), "start"),
    (Reservation,
     ("node", "slot", "start", "end", "label"),
     Reservation(2, 1, 0.5, 3.0, "cat-7"), "end"),
    (EPRSample,
     ("attempts", "duration"),
     EPRSample(4, 12.0), "duration"),
    (TraceEvent,
     ("time", "kind", "index", "nodes", "detail"),
     TraceEvent(2.5, "epr-start", 6, (0, 1), "attempts=2"), "time"),
]

IDS = [record_type.__name__ for record_type, *_ in RECORDS]


@pytest.mark.parametrize("record_type,fields,record,field", RECORDS, ids=IDS)
class TestRecordContract:
    def test_has_no_instance_dict(self, record_type, fields, record, field):
        assert not hasattr(record, "__dict__")

    def test_attribute_assignment_raises(self, record_type, fields, record,
                                         field):
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_pickle_round_trip(self, record_type, fields, record, field):
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(record, protocol=protocol))
            assert type(copy) is record_type
            assert copy == record
            assert hash(copy) == hash(record)

    def test_replace_returns_changed_copy(self, record_type, fields, record,
                                          field):
        changed = record._replace(**{field: 99.0})
        assert type(changed) is record_type
        assert getattr(changed, field) == 99.0
        assert getattr(record, field) != 99.0
        assert all(getattr(changed, name) == getattr(record, name)
                   for name in fields if name != field)

    def test_field_order_is_pinned(self, record_type, fields, record, field):
        assert record_type._fields == fields
        assert record_type(*record) == record
        assert tuple(getattr(record, name) for name in fields) == record


@pytest.mark.parametrize("record_type", [ScheduledOp, SimulatedOp],
                         ids=["ScheduledOp", "SimulatedOp"])
def test_duration_property(record_type):
    op = record_type(0, "gate", 1.25, 4.0)
    assert op.duration == 2.75
    assert op._replace(end=5.25).duration == 4.0


def test_defaults_match_constructor_keywords():
    assert ScheduledOp(0, "gate", 0.0, 1.0) == ScheduledOp(
        index=0, kind="gate", start=0.0, end=1.0, nodes=(),
        num_remote_gates=0, num_items=1)
    assert SimulatedOp(0, "gate", 0.0, 1.0) == SimulatedOp(
        index=0, kind="gate", start=0.0, end=1.0, nodes=(), prep_start=0.0,
        epr_attempts=0, num_items=1, epr_pairs=0, queue_wait=0.0)
    assert OpProfile("gate", 1.0, (), 1) == OpProfile(
        kind="gate", duration=1.0, nodes=(), num_items=1, prep_pairs=(),
        prep=0.0, links=(), epr_pairs=0, num_remote_gates=0, label="")
    assert Reservation(0, 0, 0.0, 1.0).label == ""
    assert TraceEvent(0.0, "op-end") == TraceEvent(
        time=0.0, kind="op-end", index=-1, nodes=(), detail="")
