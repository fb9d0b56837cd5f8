"""Protocol records: two-bit messages and replayable traces.

A ``ProtocolTrace`` is the replayable record of one protocol run: with
the same protocol, parameters, and seed, the emitted JSON-lines bytes
are identical. ``STEPS`` lists each protocol's steps, and ``trace_of``
builds every trace the package makes from it.
"""

from __future__ import annotations

import json
import os
from io import TextIOBase

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


# protocol -> its steps as (actor, action), in the order a run emits them
STEPS = {
    "teleport": (("system", "share-bell-pair"), ("alice", "attach-input"), ("alice", "bell-measurement"),
                 ("alice", "send-bits"), ("bob", "apply-correction"), ("bob", "verdict")),
    "superdense": (("system", "share-bell-pair"), ("alice", "encode"), ("alice", "send-qubit"),
                   ("bob", "bell-measurement"), ("bob", "verdict")),
}


def trace_of(protocol: str, seed: int | None, *payloads: dict[str, object]) -> ProtocolTrace:
    """A run's trace: step i is ``STEPS[protocol][i - 1]`` with payload i; ValueError unless counts match."""
    steps = enumerate(zip(STEPS[protocol], payloads, strict=True), start=1)
    return ProtocolTrace(protocol, seed, tuple(TraceEvent(i, *step, data) for i, (step, data) in steps))


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


def _count(trace: ProtocolTrace, action: str) -> int:
    return sum(1 for e in trace.events if e.action == action)


def validate_trace(trace: ProtocolTrace) -> None:
    """Check the resource ledger of a finished run.

    Teleportation must consume exactly one shared pair and two classical
    bits and reconstruct exactly one qubit (a fidelity verdict);
    superdense coding must consume one shared pair and one qubit
    transfer and end in a decoded message. Every payload, the verdict's
    too, must be a dict.
    """
    verdict = trace.verdict
    if not all(isinstance(e.payload, dict) for e in trace.events):
        raise ValidationError("every event payload must be a dict")
    if _count(trace, "share-bell-pair") != 1:
        raise ValidationError("trace must consume exactly one shared Bell pair")
    if trace.protocol == "teleport":
        sends = [e for e in trace.events if e.action == "send-bits"]
        if len(sends) != 1:
            raise ValidationError("teleportation sends exactly one classical message")
        bits = sends[0].payload.get("bits", "")
        if not isinstance(bits, str) or len(bits) != 2 or any(c not in "01" for c in bits):
            raise ValidationError(f"classical message must be two bits, got {bits!r}")
        if "fidelity" not in verdict:
            raise ValidationError("teleportation verdict must record a fidelity")
    elif trace.protocol == "superdense":
        if _count(trace, "send-qubit") != 1:
            raise ValidationError("superdense coding sends exactly one qubit")
        if "decoded" not in verdict:
            raise ValidationError("superdense verdict must record the decoded message")
    else:
        raise ValidationError(f"unknown protocol {trace.protocol!r}")
