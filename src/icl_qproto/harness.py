"""Protocol records: two-bit messages and replayable traces.

A ``ProtocolTrace`` is the replayable record of one protocol run: with
the same protocol, parameters, and seed, the emitted JSON-lines bytes
are identical. ``STEPS`` lists each protocol's steps with their payload
keys; ``trace_of`` builds every trace the package makes from it, naming
each value by its key, and ``validate_trace`` reports the first step of
a trace that differs from it.
"""

from __future__ import annotations

import json
import os
from io import TextIOBase
from itertools import zip_longest

from .statevec import Record, ValidationError, check_seed


class TraceWriteError(OSError):
    """A trace sink could not be written."""


class Message2(Record):
    """Two classical bits (b1, b0)."""

    __slots__ = ("b1", "b0")
    b1: int
    b0: int

    def __init__(self, b1: int, b0: int):
        if any(isinstance(b, bool) or not isinstance(b, int) or b not in (0, 1) for b in (b1, b0)):
            raise ValidationError(f"bits must be the integers 0 or 1, got ({b1!r}, {b0!r})")
        super().__init__(b1, b0)

    @property
    def bits(self) -> tuple[int, int]:
        return (self.b1, self.b0)

    @classmethod
    def from_string(cls, text: str) -> "Message2":
        if len(text) != 2 or any(c not in "01" for c in text):
            raise ValidationError(f"expected two bits like '10', got {text!r}")
        return cls(int(text[0]), int(text[1]))

    def __str__(self) -> str:
        return f"{self.b1}{self.b0}"


class TraceEvent(Record):
    """One step of a protocol run: who did what, with its JSON payload."""

    __slots__ = ("step", "actor", "action", "payload")
    step: int
    actor: str
    action: str
    payload: dict[str, object]


class ProtocolTrace(Record):
    """Ordered event log of one protocol run, replayable from its seed."""

    __slots__ = ("protocol", "seed", "events")
    protocol: str
    seed: int | None
    events: tuple[TraceEvent, ...]

    def __init__(self, protocol: str, seed: int | None, events: tuple[TraceEvent, ...] = ()):
        for i, event in enumerate(events, start=1):
            if event.step != i:
                raise ValidationError(
                    f"trace steps must run 1..{len(events)}; "
                    f"event {i} carries step {event.step}"
                )
        super().__init__(protocol, seed if seed is None else check_seed(seed), events)

    @property
    def verdict(self) -> dict[str, object]:
        """Payload of the final verdict event."""
        if not self.events or self.events[-1].action != "verdict":
            raise ValidationError("trace is not finalized: no verdict event")
        return self.events[-1].payload

    def payload(self, action: str) -> dict[str, object]:
        """Payload of the first event whose action is ``action``."""
        for event in self.events:
            if event.action == action:
                return event.payload
        raise ValidationError(f"trace has no {action!r} event")


# protocol -> its steps as (actor, action, payload keys), in the order a run emits them
STEPS = {
    "teleport": (("system", "share-bell-pair", ("pair", "state")),
                 ("alice", "attach-input", ("input", "state")),
                 ("alice", "bell-measurement", ("outcome", "bits", "probability")),
                 ("alice", "send-bits", ("bits",)),
                 ("bob", "apply-correction", ("correction", "before", "state")),
                 ("bob", "verdict", ("fidelity",))),
    "superdense": (("system", "share-bell-pair", ("pair", "state")),
                   ("alice", "encode", ("message", "unitary", "state")),
                   ("alice", "send-qubit", ("qubit", "from", "to", "marker")),
                   ("bob", "bell-measurement", ("outcome", "probability")),
                   ("bob", "verdict", ("decoded",))),
}


def trace_of(protocol: str, seed: int | None, *values: tuple) -> ProtocolTrace:
    """A run's trace: step i is ``STEPS[protocol][i - 1]``, its keys naming ``values[i - 1]``.

    ValueError unless there is one tuple of values per step and one value per key.
    """
    steps = enumerate(zip(STEPS[protocol], values, strict=True), start=1)
    return ProtocolTrace(protocol, seed, tuple(
        TraceEvent(i, actor, action, dict(zip(keys, data, strict=True)))
        for i, ((actor, action, keys), data) in steps
    ))


# json.dumps(record, separators=(",", ":")) builds this encoder anew on every call
_LINE_ENCODER = json.JSONEncoder(separators=(",", ":"))


def emit_trace(trace: ProtocolTrace, sink: str | os.PathLike | TextIOBase) -> None:
    """Write a finalized trace as JSON lines: one header, one line per event."""
    trace.verdict  # rejects unfinalized traces
    encode = _LINE_ENCODER.encode
    lines = [encode({"protocol": trace.protocol, "seed": trace.seed})]
    lines += [encode({"step": e.step, "actor": e.actor, "action": e.action, "payload": e.payload})
              for e in trace.events]
    text = "\n".join(lines) + "\n"
    if isinstance(sink, (str, os.PathLike)):
        try:
            with open(sink, "w", encoding="ascii", newline="\n") as fh:  # not os.linesep
                fh.write(text)
        except OSError as exc:
            raise TraceWriteError(f"cannot write trace to {os.fspath(sink)!r}: {exc}") from exc
        return
    sink.write(text)


def validate_trace(trace: ProtocolTrace) -> None:
    """Check a finished run against its protocol's ``STEPS``.

    Every payload must be a dict, and each event's actor, action and
    payload keys, in order, must be its step's: the first step that
    differs is reported. Teleportation's classical message must be two bits.
    """
    if trace.protocol not in STEPS:
        raise ValidationError(f"unknown protocol {trace.protocol!r}")
    if not all(isinstance(e.payload, dict) for e in trace.events):
        raise ValidationError("every event payload must be a dict")
    events = ((e.actor, e.action, tuple(e.payload)) for e in trace.events)
    for i, (step, got) in enumerate(zip_longest(STEPS[trace.protocol], events, fillvalue="nothing"), start=1):
        if got != step:
            raise ValidationError(f"{trace.protocol} step {i} must be {step}, got {got}")
    if trace.protocol == "teleport":
        bits = trace.payload("send-bits")["bits"]
        if not isinstance(bits, str) or len(bits) != 2 or any(c not in "01" for c in bits):
            raise ValidationError(f"classical message must be two bits, got {bits!r}")
