"""The contract every immutable record in the package keeps.

Records are frozen: assigning or deleting a field raises
``AttributeError``. Value records compare and hash by their fields and
print as ``Name(field=value, ...)``; ``StateVector`` compares by
identity. Copies and pickles rebuild them.
A slot named with a leading ``_`` is derived: the constructor stores it,
and equality, hashing, printing and pickles leave it out.
"""

import copy
import pickle
import pickletools
import struct

import pytest

from icl_qproto.harness import Message2, ProtocolTrace, TraceEvent
from icl_qproto.icl import IclClass, IclDiagram, IclKind
from icl_qproto.phasespace import BellState, Sector
from icl_qproto.statevec import StateVector, ValidationError
from icl_qproto.teleport import BellOutcome, InputQubit
from icl_qproto.verify import CheckResult

# name -> (a factory that gives equal records on every call, the fields, the defaults it relies on,
# the derived slots)
RECORDS = {
    "StateVector": (lambda: StateVector(1, (0.6, 0.8j)), ("qubit_count", "amps"), {}, ()),
    "IclDiagram": (lambda: IclDiagram(3, -1), ("chain_length", "phase"), {}, ()),
    "IclClass": (lambda: IclClass(IclKind.PRODUCT), ("kind", "bell", "sector"), {"bell": None, "sector": None}, ()),
    "InputQubit": (lambda: InputQubit(0.6, 0.8j), ("alpha", "beta"), {}, ("_state",)),
    "BellOutcome": (lambda: BellOutcome(BellState.PSI_MINUS, 0.25), ("tag", "probability"), {}, ()),
    "Message2": (lambda: Message2(1, 0), ("b1", "b0"), {}, ()),
    "TraceEvent": (lambda: TraceEvent(4, "alice", "send-bits", {"bits": "10"}),
                   ("step", "actor", "action", "payload"), {}, ()),
    "ProtocolTrace": (lambda: ProtocolTrace("teleport", 7), ("protocol", "seed", "events"), {"events": ()}, ()),
    "CheckResult": (lambda: CheckResult("round-trip", 0.0, 1e-12), ("name", "deviation", "bound"), {}, ()),
}

IDENTITY_EQUAL = ("StateVector",)


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    make, fields, defaults, derived = RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert type(a).__slots__ == fields + derived
    for field in fields + derived:
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
    assert a.__reduce__() == (type(a), values)  # a pickle carries the fields alone
    for clone in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert type(clone) is type(a) and clone is not a
        assert repr(clone) == repr(a)
        for slot in derived:  # derived again by the constructor
            assert getattr(clone, slot) is not getattr(a, slot)
    for slot in derived:  # so equality and hashing below cannot have compared them
        assert getattr(a, slot) is not getattr(b, slot)
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


@pytest.mark.parametrize("name", RECORDS)
def test_no_method_restores_fields_past_the_constructor(name):
    assert not hasattr(RECORDS[name][0](), "__setstate__")


def test_an_edited_pickle_is_checked_when_loaded():
    data = bytearray(pickle.dumps(Message2(1, 0)))
    # the one-byte int that holds b1, wherever this protocol puts it
    pos = next(pos for op, arg, pos in pickletools.genops(data) if op.name == "BININT1" and arg == 1)
    data[pos + 1] = 7
    with pytest.raises(ValidationError):
        pickle.loads(bytes(data))


def test_an_input_qubit_keeps_the_state_it_checked():
    u = InputQubit(0.6, 0.8j)
    assert u.state() is u.state()
    assert u.state().amps == (0.6, 0.8j)


def test_an_edited_input_qubit_pickle_is_checked_when_loaded():
    data = bytearray(pickle.dumps(InputQubit(0.6, 0.8j)))
    # alpha's real part, 0.6 in an eight-byte float, made 0.7: |alpha|^2 + |beta|^2 is no longer 1
    pos = next(pos for op, arg, pos in pickletools.genops(data) if op.name == "BINFLOAT" and arg == 0.6)
    data[pos + 1:pos + 9] = struct.pack(">d", 0.7)
    with pytest.raises(ValidationError, match="not normalized"):
        pickle.loads(bytes(data))


@pytest.mark.parametrize("make, message", [
    (lambda: TraceEvent(4, "alice", "send-bits"), "TraceEvent takes 4 fields, got 3"),
    (lambda: BellOutcome(BellState.PSI_MINUS), "BellOutcome takes 2 fields, got 1"),
    (lambda: CheckResult("round-trip", 0.0, 1e-12, "extra"), "CheckResult takes 3 fields, got 4"),
], ids=["TraceEvent", "BellOutcome", "CheckResult"])
def test_a_wrong_field_count_is_a_type_error(make, message):
    with pytest.raises(TypeError, match=message):
        make()
