"""Quantum teleportation over a shared phi+ pair.

Alice holds the input qubit U and half A of the pair; Bob holds B. The
joint state U (x) phi+ expands over the Bell basis of (U, A) with
coefficient 1/2 on every branch, leaving Bob a fixed unitary image of
the input on each branch:

    branch   Bob's conditional state      correction Bob applies
    phi+     (alpha, beta)                identity
    phi-     sigma_z (alpha, beta)        sigma_z
    psi+     sigma_x (alpha, beta)        sigma_x
    psi-     sigma_x sigma_z (alpha,beta) sigma_z sigma_x

Alice Bell-measures (U, A), sends the two outcome bits over the
classical channel, and Bob's table lookup restores the input exactly
(the psi- branch closes up to a global sign, which a state cannot
carry observably).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .harness import Message2, ProtocolTrace, TraceEvent
from .phasespace import BELL_BASIS, BELL_ORDER, PAULI_TABLE, BellState
from .statevec import (
    ATOL,
    IDENTITY2,
    DimensionError,
    ProjectiveBasis,
    RandomSource,
    StateVector,
    ValidationError,
    branch_probabilities,
    measure_projective,
    overlap,
    single_qubit,
    tensor,
)


# Bell projectors on (U, A) extended with identity on B.
UA_BELL_BASIS = ProjectiveBasis([np.kron(p, IDENTITY2) for p in BELL_BASIS])


@dataclass(frozen=True)
class InputQubit:
    """The qubit to teleport: alpha|0> + beta|1>, normalized."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        sumsq = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not np.isfinite(sumsq) or abs(sumsq - 1.0) > ATOL:
            raise ValidationError(f"input qubit is not normalized: |a|^2+|b|^2 = {sumsq!r}")

    def state(self) -> StateVector:
        return single_qubit(self.alpha, self.beta)


@dataclass(frozen=True)
class BellOutcome:
    """A Bell-measurement result and its fixed two-bit encoding."""

    tag: BellState

    @property
    def bits(self) -> tuple[int, int]:
        return self.tag.bits

    @property
    def bit_string(self) -> str:
        return str(self.message())

    def message(self) -> Message2:
        return Message2(*self.bits)


@dataclass(frozen=True)
class TeleportEntry:
    bell: BellState
    conditional_bob: StateVector
    correction: np.ndarray
    coefficient: float = 0.5


@dataclass(frozen=True)
class TeleportDecomposition:
    """The four (branch, conditional Bob state, correction) triples."""

    entries: tuple[TeleportEntry, TeleportEntry, TeleportEntry, TeleportEntry]

    def __getitem__(self, tag: BellState) -> TeleportEntry:
        for entry in self.entries:
            if entry.bell is tag:
                return entry
        raise KeyError(tag)

    def reconstruct(self) -> StateVector:
        """Re-sum the branches; equals the joint input state U (x) phi+."""
        total = sum(
            e.coefficient * np.kron(e.bell.vector().amps, e.conditional_bob.amps)
            for e in self.entries
        )
        return StateVector(3, total)


def decompose(u: InputQubit) -> TeleportDecomposition:
    """Expand U (x) phi+ over the Bell basis of (U, A).

    Bob's conditional state on each branch is the inverse (the conjugate
    transpose) of that branch's correction applied to (alpha, beta).
    """
    entries = tuple(
        TeleportEntry(
            tag,
            StateVector(1, correction_for(tag).conj().T @ u.state().amps),
            correction_for(tag),
        )
        for tag in BELL_ORDER
    )
    return TeleportDecomposition(entries)  # type: ignore[arg-type]


def correction_for(outcome: "BellOutcome | BellState") -> np.ndarray:
    """Bob's correction unitary for a Bell outcome."""
    tag = outcome.tag if isinstance(outcome, BellOutcome) else outcome
    return PAULI_TABLE[tag][1]


def _bell_measure_full(
    state: StateVector,
    rand: RandomSource | None,
    forced: BellState | None,
) -> tuple[BellOutcome, StateVector, float]:
    if state.qubit_count != 3:
        raise DimensionError("Bell measurement expects the 3-qubit joint state (U, A, B)")
    if forced is not None:
        k = BELL_ORDER.index(forced)
        prob = float(branch_probabilities(state, UA_BELL_BASIS)[k])
        if prob <= ATOL:
            raise ValidationError(f"cannot force outcome {forced}: branch probability {prob!r}")
        collapsed = StateVector(3, (UA_BELL_BASIS.stack[k] @ state.amps) / np.sqrt(prob))
        return BellOutcome(forced), collapsed, prob
    if rand is None:
        raise ValidationError("a RandomSource is required when no outcome is forced")
    k, collapsed, prob = measure_projective(state, UA_BELL_BASIS, rand)
    return BellOutcome(BELL_ORDER[k]), collapsed, prob


def bell_measure(
    state: StateVector,
    rand: RandomSource | None,
    forced: BellState | None = None,
) -> tuple[BellOutcome, StateVector]:
    """Measure qubits (U, A) of the joint state in the Bell basis.

    ``forced`` is a testing hook that collapses deterministically onto
    the named branch; the production path samples from ``rand``.
    """
    outcome, collapsed, _ = _bell_measure_full(state, rand, forced)
    return outcome, collapsed


def extract_bob_state(collapsed: StateVector, tag: BellState) -> StateVector:
    """Bob's qubit after the (U, A) register collapsed onto ``tag``."""
    if collapsed.qubit_count != 3:
        raise DimensionError("expected the collapsed 3-qubit state")
    amps = tag.vector().amps.conj() @ collapsed.amps.reshape(4, 2)
    norm = np.linalg.norm(amps)
    if norm <= ATOL:
        raise ValidationError(f"collapsed state carries no {tag} component")
    return StateVector(1, amps / norm)


def run_teleportation(
    u: InputQubit,
    seed: int,
    force_outcome: BellState | None = None,
) -> ProtocolTrace:
    """Execute the full protocol and return its six-event trace.

    The trace records, in order: the shared-pair creation, Alice
    attaching the input, her Bell measurement, the two classical bits
    crossing the channel, Bob's correction, and the final fidelity.
    """
    rand = RandomSource(seed)
    resource = BellState.PHI_PLUS.vector()
    joint = tensor(u.state(), resource)
    outcome, collapsed, prob = _bell_measure_full(joint, rand, force_outcome)
    correction_name, correction = PAULI_TABLE[outcome.tag]
    bob_before = extract_bob_state(collapsed, outcome.tag)
    bob_after = StateVector(1, correction @ bob_before.amps)
    fidelity = abs(overlap(u.state(), bob_after)) ** 2

    events = (
        TraceEvent(1, "system", "share-bell-pair",
                   {"pair": "phi+", "state": resource.to_json()}),
        TraceEvent(2, "alice", "attach-input",
                   {"input": u.state().to_json(), "state": joint.to_json()}),
        TraceEvent(3, "alice", "bell-measurement",
                   {"outcome": outcome.tag.value, "bits": outcome.bit_string,
                    "probability": prob}),
        TraceEvent(4, "alice", "send-bits", {"bits": str(outcome.message())}),
        TraceEvent(5, "bob", "apply-correction",
                   {"correction": correction_name,
                    "before": bob_before.to_json(), "state": bob_after.to_json()}),
        TraceEvent(6, "bob", "verdict", {"fidelity": fidelity}),
    )
    return ProtocolTrace("teleport", seed, events)
