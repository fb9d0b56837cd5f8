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

import math

from .harness import Message2, ProtocolTrace, TraceEvent
from .phasespace import BELL_BASIS, BELL_ORDER, PAULI_TABLE, BellState
from .statevec import (
    ATOL,
    DimensionError,
    Matrix,
    RandomSource,
    Record,
    StateVector,
    ValidationError,
    _collapse,
    _divided,
    _dot,
    branch_probabilities,
    measure_projective,
    overlap,
    single_qubit,
    tensor,
)


# Bell projectors on (U, A) extended with identity on B.
UA_BELL_BASIS = BELL_BASIS.tensor_identity()


class InputQubit(Record):
    """The qubit to teleport: alpha|0> + beta|1>, normalized."""

    __slots__ = ("alpha", "beta")
    alpha: complex
    beta: complex

    def __init__(self, alpha: complex, beta: complex):
        try:
            alpha, beta = complex(alpha), complex(beta)
        except OverflowError as exc:  # an int past the float range
            raise ValidationError(f"input qubit amplitude out of range: {exc}") from None
        try:
            sumsq = abs(alpha) ** 2 + abs(beta) ** 2
        except OverflowError:  # |alpha| or |beta| past about 1.3e154
            sumsq = math.inf
        if not math.isfinite(sumsq) or abs(sumsq - 1.0) > ATOL:
            raise ValidationError(f"input qubit is not normalized: |a|^2+|b|^2 = {sumsq!r}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    def state(self) -> StateVector:
        return single_qubit(self.alpha, self.beta)


class BellOutcome(Record):
    """A Bell-measurement result and its fixed two-bit encoding."""

    __slots__ = ("tag",)
    tag: BellState

    def __init__(self, tag: BellState):
        object.__setattr__(self, "tag", tag)

    @property
    def bits(self) -> tuple[int, int]:
        return self.tag.bits

    @property
    def bit_string(self) -> str:
        return str(self.message())

    def message(self) -> Message2:
        return Message2(*self.bits)


class TeleportEntry(Record):
    """One branch: its Bell state, Bob's conditional state, his correction and the branch amplitude."""

    __slots__ = ("bell", "conditional_bob", "correction", "coefficient")
    bell: BellState
    conditional_bob: StateVector
    correction: Matrix
    coefficient: float

    def __init__(self, bell: BellState, conditional_bob: StateVector, correction: Matrix,
                 coefficient: float = 0.5):
        object.__setattr__(self, "bell", bell)
        object.__setattr__(self, "conditional_bob", conditional_bob)
        object.__setattr__(self, "correction", correction)
        object.__setattr__(self, "coefficient", coefficient)


class TeleportDecomposition(Record):
    """The four (branch, conditional Bob state, correction) triples."""

    __slots__ = ("entries",)
    entries: tuple[TeleportEntry, TeleportEntry, TeleportEntry, TeleportEntry]

    def __init__(self, entries: tuple[TeleportEntry, ...]):
        object.__setattr__(self, "entries", entries)

    def __getitem__(self, tag: BellState) -> TeleportEntry:
        for entry in self.entries:
            if entry.bell is tag:
                return entry
        raise KeyError(tag)

    def reconstruct(self) -> StateVector:
        """Re-sum the branches; equals the joint input state U (x) phi+."""
        total = [0j] * 8
        for e in self.entries:
            for i, z in enumerate(tensor(e.bell.vector(), e.conditional_bob).amps):
                total[i] += e.coefficient * z
        return StateVector(3, total)


def decompose(u: InputQubit) -> TeleportDecomposition:
    """Expand U (x) phi+ over the Bell basis of (U, A).

    Bob's conditional state on each branch is the inverse (the conjugate
    transpose) of that branch's correction applied to (alpha, beta).
    """
    amps = u.state().amps
    entries = tuple(
        TeleportEntry(tag, StateVector(1, correction.dagger() @ amps), correction)
        for tag, (_, correction) in PAULI_TABLE.items()
    )
    return TeleportDecomposition(entries)  # type: ignore[arg-type]


def correction_for(outcome: "BellOutcome | BellState") -> Matrix:
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
        return BellOutcome(forced), _collapse(state, UA_BELL_BASIS, k, prob), prob
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
    """Execute the full protocol and return its six-event trace.

    The trace records, in order: the shared-pair creation, Alice
    attaching the input, her Bell measurement, the two classical bits
    crossing the channel, Bob's correction, and the final fidelity.
    """
    rand = RandomSource(seed)
    resource = BellState.PHI_PLUS.vector()
    state = u.state()
    joint = tensor(state, resource)
    outcome, collapsed, prob = _bell_measure_full(joint, rand, force_outcome)
    correction_name, correction = PAULI_TABLE[outcome.tag]
    bob_before = extract_bob_state(collapsed, outcome.tag)
    bob_after = StateVector(1, correction @ bob_before.amps)
    fidelity = abs(overlap(state, bob_after)) ** 2
    bits = outcome.bit_string

    events = (
        TraceEvent(1, "system", "share-bell-pair",
                   {"pair": "phi+", "state": resource.to_json()}),
        TraceEvent(2, "alice", "attach-input",
                   {"input": state.to_json(), "state": joint.to_json()}),
        TraceEvent(3, "alice", "bell-measurement",
                   {"outcome": outcome.tag.value, "bits": bits,
                    "probability": prob}),
        TraceEvent(4, "alice", "send-bits", {"bits": bits}),
        TraceEvent(5, "bob", "apply-correction",
                   {"correction": correction_name,
                    "before": bob_before.to_json(), "state": bob_after.to_json()}),
        TraceEvent(6, "bob", "verdict", {"fidelity": fidelity}),
    )
    return ProtocolTrace("teleport", seed, events)
