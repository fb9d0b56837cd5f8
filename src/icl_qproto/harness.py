"""Protocol records: two-bit messages and replayable traces.

A ``ProtocolTrace`` is the replayable record of one protocol run: with
the same protocol, parameters, and seed, the emitted JSON-lines bytes
are identical.
"""

from __future__ import annotations

import json
import os
from typing import Any, TextIO

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
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "b0", b0)

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
    payload: dict[str, Any]

    def __init__(self, step: int, actor: str, action: str, payload: dict[str, Any]):
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "actor", actor)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "payload", payload)


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
        object.__setattr__(self, "protocol", protocol)
        object.__setattr__(self, "seed", seed if seed is None else check_seed(seed))
        object.__setattr__(self, "events", events)

    @property
    def verdict(self) -> dict[str, Any]:
        """Payload of the final verdict event."""
        if not self.events or self.events[-1].action != "verdict":
            raise ValidationError("trace is not finalized: no verdict event")
        return self.events[-1].payload


# json.dumps(record, separators=(",", ":")) builds this encoder anew on every call
_LINE_ENCODER = json.JSONEncoder(separators=(",", ":"))


def emit_trace(trace: ProtocolTrace, sink: "str | os.PathLike | TextIO") -> None:
    """Write a finalized trace as JSON lines: one header, one line per event."""
    trace.verdict  # rejects unfinalized traces
    encode = _LINE_ENCODER.encode
    lines = [encode({"protocol": trace.protocol, "seed": trace.seed})]
    lines += [encode({"step": e.step, "actor": e.actor, "action": e.action, "payload": e.payload})
              for e in trace.events]
    text = "\n".join(lines) + "\n"
    if isinstance(sink, (str, os.PathLike)):
        try:
            with open(sink, "w", encoding="ascii") as fh:
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
    transfer and end in a decoded message.
    """
    verdict = trace.verdict
    if _count(trace, "share-bell-pair") != 1:
        raise ValidationError("trace must consume exactly one shared Bell pair")
    if trace.protocol == "teleport":
        sends = [e for e in trace.events if e.action == "send-bits"]
        if len(sends) != 1:
            raise ValidationError("teleportation sends exactly one classical message")
        bits = sends[0].payload.get("bits", "")
        if len(bits) != 2 or any(c not in "01" for c in bits):
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
