"""Quantum teleportation over a shared phi+ pair.

Alice holds the input qubit U and half A of the pair; Bob holds B. The
joint state U (x) phi+ expands over the Bell basis of (U, A) with
coefficient 1/2 on every branch, U (x) phi+ = 1/2 sum_k |B_k> (x)
sigma_k^dagger U, where sigma_k is branch k's row of
``phasespace.PAULI_TABLE`` (superdense coding's encoder too):

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

import math

from .harness import Message2, ProtocolTrace, trace_of
from .measure import UA_BELL_BASIS, RandomSource, _collapse, branch_probabilities, measure_projective
from .phasespace import BELL_ORDER, PAULI_TABLE, BellState
from .statevec import (
    ATOL,
    DimensionError,
    Matrix,
    Record,
    StateVector,
    ValidationError,
    _divided,
    _dot,
    check_seed,
    overlap,
    single_qubit,
    tensor,
)


class InputQubit(Record):
    """The qubit to teleport: alpha|0> + beta|1>, normalized."""

    __slots__ = ("alpha", "beta", "_state")
    alpha: complex
    beta: complex
    _state: StateVector

    def __init__(self, alpha: complex, beta: complex):
        try:
            state = single_qubit(alpha, beta)  # StateVector checks the pair
        except OverflowError as exc:  # an int past the float range
            raise ValidationError(f"input qubit amplitude out of range: {exc}") from None
        super().__init__(*state.amps, state)

    def state(self) -> StateVector:
        return self._state


class BellOutcome(Record):
    """A Bell-measurement result and its probability, as ``bell_measure`` returns it."""

    __slots__ = ("tag", "probability")
    tag: BellState
    probability: float


def decompose(u: InputQubit) -> dict[BellState, StateVector]:
    """Expand U (x) phi+ over the Bell basis of (U, A): Bob's state on each branch, in ``BELL_ORDER``.

    Every branch has amplitude 1/2. Bob's conditional state on it is the
    inverse (the conjugate transpose) of that branch's ``PAULI_TABLE``
    correction applied to (alpha, beta).
    """
    amps = u.state().amps
    return {tag: StateVector(1, correction.dagger() @ amps) for tag, (_, correction) in PAULI_TABLE.items()}


def correction_for(tag: BellState) -> Matrix:
    """Bob's correction unitary for a Bell outcome."""
    return PAULI_TABLE[tag][1]


def bell_measure(
    state: StateVector,
    rand: RandomSource | None,
    forced: BellState | None = None,
) -> tuple[BellOutcome, StateVector]:
    """Measure qubits (U, A) of the joint state in the Bell basis.

    ``forced`` is a testing hook that collapses deterministically onto
    the named branch; the production path samples from ``rand``.
    """
    if forced is not None and not isinstance(forced, BellState):
        raise ValidationError(f"cannot force outcome {forced!r}: not a BellState")
    if state.qubit_count != 3:
        raise DimensionError("Bell measurement expects the 3-qubit joint state (U, A, B)")
    if forced is not None:
        k = BELL_ORDER.index(forced)
        prob = float(branch_probabilities(state, UA_BELL_BASIS)[k])
        if prob <= ATOL:
            raise ValidationError(f"cannot force outcome {forced}: branch probability {prob!r}")
        return BellOutcome(forced, prob), _collapse(state, k, prob)
    if rand is None:
        raise ValidationError("a RandomSource is required when no outcome is forced")
    k, collapsed, prob = measure_projective(state, UA_BELL_BASIS, rand)
    return BellOutcome(BELL_ORDER[k], prob), collapsed


def extract_bob_state(collapsed: StateVector, tag: BellState) -> StateVector:
    """Bob's qubit after the (U, A) register collapsed onto ``tag``."""
    if collapsed.qubit_count != 3:
        raise DimensionError("expected the collapsed 3-qubit state")
    bell = [b.conjugate() for b in tag.vector().amps]
    bob = [_dot(bell, collapsed.amps[j::2]) for j in (0, 1)]
    (r0, i0), (r1, i1) = ((z.real, z.imag) for z in bob)
    norm = math.sqrt((r0 * r0 + r1 * r1) + (i0 * i0 + i1 * i1))  # real parts, then imaginary
    if norm <= ATOL:
        raise ValidationError(f"collapsed state carries no {tag} component")
    return StateVector(1, _divided(bob, norm))


def run_teleportation(
    u: InputQubit,
    seed: int,
    force_outcome: BellState | None = None,
) -> ProtocolTrace:
    """Execute the full protocol and return its trace, one event per ``harness.STEPS["teleport"]`` step."""
    check_seed(seed)  # a forced run draws nothing, but its header must still replay it
    rand = RandomSource(seed) if force_outcome is None else None
    resource = BellState.PHI_PLUS.vector()
    state = u.state()
    joint = tensor(state, resource)
    outcome, collapsed = bell_measure(joint, rand, force_outcome)
    tag = outcome.tag
    correction_name, correction = PAULI_TABLE[tag]
    bob_before = extract_bob_state(collapsed, tag)
    bob_after = StateVector(1, correction @ bob_before.amps)
    fidelity = abs(overlap(state, bob_after)) ** 2
    bits = str(Message2(*tag.bits))

    return trace_of(
        "teleport", seed,
        ("phi+", resource.to_json()),
        (state.to_json(), joint.to_json()),
        (tag.value, bits, outcome.probability),
        (bits,),
        (correction_name, bob_before.to_json(), bob_after.to_json()),
        (fidelity,),
    )
