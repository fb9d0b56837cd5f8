"""Superdense coding: two classical bits through one qubit.

Alice and Bob pre-share a phi+ pair. Alice encodes a two-bit message by
one local unitary on her half (identity, sigma_z, sigma_x, or
sigma_z*sigma_x), steering the pair onto one of the four Bell states,
then sends her qubit across. Bob reads both bits back with a single
Bell-basis measurement, whose outcome is certain because the encoded
states are orthogonal; no randomness is consumed.

Bit assignment (mirrors the teleportation outcome encoding):
00 -> identity -> phi+, 01 -> sigma_z -> phi-, 10 -> sigma_x -> psi+,
11 -> sigma_z*sigma_x -> psi-.
"""

from __future__ import annotations

import numpy as np

from .harness import Message2, ProtocolTrace, TraceEvent
from .phasespace import BELL_BASIS, BELL_ORDER, PAULI_TABLE, BellState
from .statevec import ATOL, DimensionError, StateVector, apply_1q, branch_probabilities


class ResourceError(ValueError):
    """The shared resource is not the expected Bell pair."""


class DecodeError(ValueError):
    """The received state is not a Bell state, so it carries no message."""


def encoding_table() -> dict[Message2, tuple[np.ndarray, BellState]]:
    """Message -> (Alice's unitary, resulting Bell state); a bijection."""
    return {Message2(*tag.bits): (PAULI_TABLE[tag][1], tag) for tag in BELL_ORDER}


def encode(message: Message2, shared: StateVector | None = None) -> StateVector:
    """Apply the message's unitary to qubit 1 of the shared phi+ pair."""
    if shared is None:
        shared = BellState.PHI_PLUS.vector()
    if shared.qubit_count != 2 or not shared.isclose(BellState.PHI_PLUS.vector()):
        raise ResourceError("shared resource must be the canonical phi+ pair")
    _, unitary = PAULI_TABLE[BellState.from_bits(*message.bits)]
    return apply_1q(shared, unitary, 1)


def _bell_branch(state: StateVector) -> tuple[BellState, float]:
    """The Bell state carrying all the weight of ``state``, and that weight."""
    if state.qubit_count != 2:
        raise DimensionError("decode expects a two-qubit state")
    probs = branch_probabilities(state, BELL_BASIS)
    k = int(np.argmax(probs))
    if probs[k] < 1.0 - ATOL:
        raise DecodeError(
            f"state is not a Bell state: best branch probability {probs[k]!r}"
        )
    return BELL_ORDER[k], float(probs[k])


def decode(state: StateVector) -> Message2:
    """Read the message back by a Bell measurement with a certain outcome.

    The branch probabilities are computed from the Bell projectors; a
    valid input puts weight 1 on exactly one branch, so no random draw
    is needed. Anything else is rejected.
    """
    return Message2(*_bell_branch(state)[0].bits)


def run_superdense(message: Message2) -> ProtocolTrace:
    """Execute the full protocol and return its five-event trace.

    The run is deterministic (no random measurement anywhere), so the
    trace carries a null seed.
    """
    resource = BellState.PHI_PLUS.vector()
    unitary_name, _ = PAULI_TABLE[BellState.from_bits(*message.bits)]
    encoded = encode(message, resource)
    outcome, prob = _bell_branch(encoded)

    events = (
        TraceEvent(1, "system", "share-bell-pair",
                   {"pair": "phi+", "state": resource.to_json()}),
        TraceEvent(2, "alice", "encode",
                   {"message": str(message), "unitary": unitary_name,
                    "state": encoded.to_json()}),
        TraceEvent(3, "alice", "send-qubit",
                   {"qubit": 1, "from": "alice", "to": "bob", "marker": "QUBIT-SENT"}),
        TraceEvent(4, "bob", "bell-measurement",
                   {"outcome": outcome.value, "probability": prob}),
        TraceEvent(5, "bob", "verdict", {"decoded": str(Message2(*outcome.bits))}),
    )
    return ProtocolTrace("superdense", None, events)
