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

from .harness import Message2, ProtocolTrace, trace_of
from .measure import BELL_BASIS, branch_probabilities
from .phasespace import BELL_ORDER, PAULI_TABLE, BellState
from .statevec import ATOL, DimensionError, Matrix, StateVector, apply_1q


class ResourceError(ValueError):
    """The shared resource is not the expected Bell pair."""


class DecodeError(ValueError):
    """The received state is not a Bell state, so it carries no message."""


def encoding_table() -> dict[Message2, tuple[Matrix, BellState]]:
    """Message -> (Alice's unitary, resulting Bell state); a bijection."""
    return {Message2(*tag.bits): (PAULI_TABLE[tag][1], tag) for tag in BELL_ORDER}


def encode(message: Message2, shared: StateVector | None = None) -> StateVector:
    """Apply the message's unitary to qubit 1 of the shared phi+ pair (the canonical one by default)."""
    if shared is None:
        shared = BellState.PHI_PLUS.vector()
    elif shared.qubit_count != 2 or not shared.isclose(BellState.PHI_PLUS.vector()):
        raise ResourceError("shared resource must be the canonical phi+ pair")
    return apply_1q(shared, PAULI_TABLE[BellState.from_bits(*message.bits)][1], 1)


def _bell_branch(state: StateVector) -> tuple[BellState, float]:
    """The Bell state carrying all the weight of ``state``, and that weight."""
    if state.qubit_count != 2:
        raise DimensionError("decode expects a two-qubit state")
    probs = branch_probabilities(state, BELL_BASIS)
    best = max(probs)
    if best < 1.0 - ATOL:
        raise DecodeError(f"state is not a Bell state: best branch probability {best!r}")
    return BELL_ORDER[probs.index(best)], best


def decode(state: StateVector) -> Message2:
    """Read the message back by a Bell measurement with a certain outcome.

    The branch probabilities are computed from the Bell projectors; a
    valid input puts weight 1 on exactly one branch, so no random draw
    is needed. Anything else is rejected.
    """
    return Message2(*_bell_branch(state)[0].bits)


def run_superdense(message: Message2) -> ProtocolTrace:
    """Execute the full protocol and return its trace, one event per ``harness.STEPS["superdense"]`` step.

    The run is deterministic (no random measurement anywhere), so the
    trace carries a null seed.
    """
    resource = BellState.PHI_PLUS.vector()
    unitary_name, _ = PAULI_TABLE[BellState.from_bits(*message.bits)]
    encoded = encode(message)
    outcome, prob = _bell_branch(encoded)

    return trace_of(
        "superdense", None,
        ("phi+", resource.to_json()),
        (str(message), unitary_name, encoded.to_json()),
        (1, "alice", "bob", "QUBIT-SENT"),
        (outcome.value, prob),
        (str(Message2(*outcome.bits)),),
    )
