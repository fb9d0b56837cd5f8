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
    HState,
    Sector,
    bell_projectors,
    contract_bell,
    dft4,
    pair_determinant,
)
from .statevec import (
    ATOL,
    HADAMARD,
    IDENTITY2,
    SIGMA_X,
    SIGMA_Z,
    DimensionError,
    Matrix,
    ProjectiveBasis,
    RandomSource,
    StateVector,
    ValidationError,
    apply_1q,
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
