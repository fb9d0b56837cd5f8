"""The contract every immutable record in the package keeps.

Records are frozen: assigning or deleting a field raises
``AttributeError``. Value records compare and hash by their fields and
print as ``Name(field=value, ...)``; ``StateVector`` and
``ProjectiveBasis`` compare by identity. Copies and pickles rebuild them.
"""

import copy
import pickle

import pytest

from icl_qproto.harness import Message2, ProtocolTrace, TraceEvent
from icl_qproto.icl import IclClass, IclDiagram, IclKind
from icl_qproto.measure import ProjectiveBasis
from icl_qproto.phasespace import BellState, Sector
from icl_qproto.statevec import StateVector
from icl_qproto.teleport import BellOutcome, InputQubit
from icl_qproto.verify import CheckResult
from oracles import computational_projectors

# name -> (a factory that gives equal records on every call, the fields, the defaults it relies on)
RECORDS = {
    "StateVector": (lambda: StateVector(1, (0.6, 0.8j)), ("qubit_count", "amps"), {}),
    "ProjectiveBasis": (lambda: ProjectiveBasis(computational_projectors(1)), ("projectors",), {}),
    "IclDiagram": (lambda: IclDiagram(3, -1), ("chain_length", "phase"), {}),
    "IclClass": (lambda: IclClass(IclKind.PRODUCT), ("kind", "bell", "sector"), {"bell": None, "sector": None}),
    "InputQubit": (lambda: InputQubit(0.6, 0.8j), ("alpha", "beta"), {}),
    "BellOutcome": (lambda: BellOutcome(BellState.PSI_MINUS), ("tag",), {}),
    "Message2": (lambda: Message2(1, 0), ("b1", "b0"), {}),
    "TraceEvent": (lambda: TraceEvent(4, "alice", "send-bits", {"bits": "10"}), ("step", "actor", "action", "payload"), {}),
    "ProtocolTrace": (lambda: ProtocolTrace("teleport", 7), ("protocol", "seed", "events"), {"events": ()}),
    "CheckResult": (lambda: CheckResult("round-trip", 0.0, 1e-12), ("name", "deviation", "bound"), {}),
}

IDENTITY_EQUAL = ("StateVector", "ProjectiveBasis")


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    make, fields, defaults = RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    for field in fields:
        value = getattr(a, field)
        with pytest.raises(AttributeError):
            setattr(a, field, value)
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert getattr(a, field) is value
    with pytest.raises(AttributeError):
        a.undeclared = 1
    for field, value in defaults.items():
        assert getattr(a, field) == value, field

    values = tuple(getattr(a, field) for field in fields)
    for clone in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert type(clone) is type(a) and clone is not a
        assert repr(clone) == repr(a)
    if name in IDENTITY_EQUAL:
        assert a == a and a != b and hash(a) != hash(b)
        assert len({a, b}) == 2
        assert copy.copy(a) != a
    else:
        assert a == b and a is not b
        assert values == tuple(getattr(b, field) for field in fields)
        assert copy.copy(a) == a
        if name == "TraceEvent":  # its payload is a dict, so its hash fails as a tuple's would
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b) == hash(values)
        assert a != object()
    if name != "StateVector":  # it prints its amplitudes rounded
        assert repr(a) == f"{name}(" + ", ".join(f"{f}={v!r}" for f, v in zip(fields, values)) + ")"


def test_value_records_differ_when_one_field_does():
    assert IclClass(IclKind.BELL, bell=BellState.PHI_PLUS) != IclClass(IclKind.BELL, bell=BellState.PHI_MINUS)
    assert IclClass(IclKind.SECTOR_CONFINED, sector=Sector.ODD) != IclClass(IclKind.SECTOR_CONFINED)
    assert IclDiagram(1, +1) != IclDiagram(3, +1)  # same state, different chains
    assert Message2(0, 1) != Message2(1, 0)
    assert ProtocolTrace("teleport", 7, events=()) == ProtocolTrace("teleport", 7)
    assert ProtocolTrace("teleport", 7) != ProtocolTrace("teleport", 8)
