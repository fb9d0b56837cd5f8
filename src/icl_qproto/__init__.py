"""Deterministic two-party simulator for Bell-pair protocols.

Builds the Bell basis from a four-point discrete Fourier transform
contracted onto parity sectors, models entanglement with inverter-chain
diagrams, and runs quantum teleportation and superdense coding with
seeded, replayable protocol traces.

Importing the package loads none of its modules: each public name below
imports its module on first access (PEP 562), so a process compiles only
the modules it uses.
"""

# module -> the public names it defines
_EXPORTS = {
    "harness": ("Message2", "ProtocolTrace", "TraceEvent", "emit_trace", "validate_trace"),
    "icl": (
        "IclClass",
        "IclDiagram",
        "IclKind",
        "apply_sigma_z",
        "classify",
        "diagram_to_state",
        "extend_sigma_x",
        "state_to_diagram",
    ),
    "measure": (
        "BELL_BASIS",
        "ProjectiveBasis",
        "RandomSource",
        "bell_projectors",
        "branch_probabilities",
        "measure_projective",
    ),
    "phasespace": (
        "BELL_ORDER",
        "PAULI_TABLE",
        "BellState",
        "HState",
        "Sector",
        "contract_bell",
        "dft4",
        "pair_determinant",
    ),
    "statevec": (
        "ATOL",
        "HADAMARD",
        "IDENTITY2",
        "SIGMA_X",
        "SIGMA_Z",
        "DimensionError",
        "HandshakeError",
        "Matrix",
        "StateVector",
        "TransportError",
        "ValidationError",
        "apply_1q",
        "basis_state",
        "equal_up_to_global_phase",
        "overlap",
        "single_qubit",
        "tensor",
    ),
    "superdense": ("DecodeError", "ResourceError", "decode", "encode", "encoding_table", "run_superdense"),
    "teleport": (
        "BellOutcome",
        "InputQubit",
        "UA_BELL_BASIS",
        "bell_measure",
        "correction_for",
        "decompose",
        "extract_bob_state",
        "run_teleportation",
    ),
    "wire": ("run_wire_demo",),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    if module is None:  # a submodule not imported yet, as in icl_qproto.teleport.decompose
        return import_module(f"{__name__}.{name}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups are plain attribute reads
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
