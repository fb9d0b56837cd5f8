"""Deterministic two-party simulator for Bell-pair protocols.

Builds the Bell basis from a four-point discrete Fourier transform
contracted onto parity sectors, models entanglement with inverter-chain
diagrams, and runs quantum teleportation and superdense coding with
seeded, replayable protocol traces.
"""

from .harness import (
    HandshakeError,
    Message2,
    ProtocolTrace,
    TraceEvent,
    TransportError,
    emit_trace,
    run_wire_demo,
    validate_trace,
)
from .icl import IclClass, IclDiagram, IclKind, apply_sigma_z, classify, diagram_to_state, extend_sigma_x, state_to_diagram
from .phasespace import (
    BELL_BASIS,
    BELL_ORDER,
    PAULI_TABLE,
    BellState,
    BlochQuartet,
    HState,
    Momentum,
    Sector,
    bell_projectors,
    bell_superpositions,
    bloch_to_wannier,
    contract_bell,
    dft4,
    dft4_inverse,
    h_state_superpositions,
    h_states,
    pair_determinant,
    wannier_basis,
    wannier_to_bloch,
)
from .statevec import (
    ATOL,
    HADAMARD,
    IDENTITY2,
    SIGMA_X,
    SIGMA_Z,
    DimensionError,
    ProjectiveBasis,
    RandomSource,
    StateVector,
    ValidationError,
    apply_1q,
    apply_unitary,
    basis_state,
    branch_probabilities,
    computational_projectors,
    equal_up_to_global_phase,
    measure_projective,
    overlap,
    single_qubit,
    tensor,
)
from .superdense import DecodeError, ResourceError, decode, encode, encoding_table, run_superdense
from .teleport import (
    BellOutcome,
    InputQubit,
    TeleportDecomposition,
    TeleportEntry,
    UA_BELL_BASIS,
    bell_measure,
    correction_for,
    decompose,
    extract_bob_state,
    run_teleportation,
)

__version__ = "0.1.0"
