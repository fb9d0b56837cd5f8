"""Discrete phase-space construction of the Bell basis.

A four-site ring (with periodic closure) carries the two-qubit
computational basis. The four-point discrete Fourier transform maps the
site basis to four momentum states; restricting the transform to one of
the two parity sectors, span{|00>, |11>} or span{|01>, |10>}, turns
the 4x4 transform into the 2x2 Hadamard and produces the Bell basis.
Applying the same Hadamard to a mixed-sector pair of site states instead
yields the six H states, which stay unentangled (their reshaped 2x2
amplitude matrix has rank 1).

Both transform directions carry the symmetric 1/sqrt(4) normalization so
that forward times inverse is exactly the identity. The H4/H5 pair is
normalized with the same 1/sqrt(2) factor as every other Hadamard pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .statevec import (
    ATOL,
    HADAMARD,
    IDENTITY2,
    SIGMA_X,
    SIGMA_Z,
    DimensionError,
    ProjectiveBasis,
    StateVector,
    ValidationError,
    basis_state,
    readonly,
)

# exp(i * pi/2 * m) for m = 0..3, exact in doubles
_QUARTER_TURNS = np.array([1, 1j, -1, -1j], dtype=complex)


@dataclass(frozen=True)
class Momentum:
    """One of the four ring momenta k_n = (2*pi/4)*n."""

    n: int

    def __post_init__(self):
        if self.n not in (0, 1, 2, 3):
            raise ValidationError(f"momentum index must be 0..3, got {self.n}")

    @property
    def value(self) -> float:
        return math.pi * self.n / 2.0


MOMENTA = tuple(Momentum(n) for n in range(4))


def dft4() -> np.ndarray:
    """Forward four-point transform: row n is (1/2) * exp(i k_n R), R = 0..3."""
    return _DFT4.copy()


def dft4_inverse() -> np.ndarray:
    """Inverse transform, the entrywise conjugate of :func:`dft4`."""
    return _DFT4.conj().copy()


_DFT4 = readonly(
    np.array([[_QUARTER_TURNS[(n * r) % 4] for r in range(4)] for n in range(4)]) / 2.0
)


def wannier_basis() -> tuple[StateVector, StateVector, StateVector, StateVector]:
    """The four two-qubit site states |00>, |01>, |10>, |11>, in order."""
    return tuple(basis_state(2, i) for i in range(4))  # type: ignore[return-value]


@dataclass(frozen=True)
class BlochQuartet:
    """Four momentum states, indexable by int or :class:`Momentum`."""

    states: tuple[StateVector, StateVector, StateVector, StateVector]

    def __post_init__(self):
        if len(self.states) != 4 or any(s.qubit_count != 2 for s in self.states):
            raise ValidationError("a Bloch quartet is four two-qubit states")
        gram = np.array(
            [[np.vdot(a.amps, b.amps) for b in self.states] for a in self.states]
        )
        if np.max(np.abs(gram - np.eye(4))) > ATOL:
            raise ValidationError("Bloch quartet is not orthonormal within tolerance")

    def __getitem__(self, key: "int | Momentum") -> StateVector:
        idx = key.n if isinstance(key, Momentum) else key
        return self.states[idx]

    def __iter__(self) -> Iterator[StateVector]:
        return iter(self.states)


def wannier_to_bloch(basis: Sequence[StateVector]) -> BlochQuartet:
    """Fourier-transform the canonical site basis into the momentum quartet.

    The input must be the four computational basis vectors in index
    order; anything else is rejected.
    """
    if len(basis) != 4:
        raise ValidationError(f"expected 4 basis states, got {len(basis)}")
    for i, s in enumerate(basis):
        if s.qubit_count != 2 or not s.isclose(basis_state(2, i)):
            raise ValidationError(
                f"input {i} is not the canonical basis state |{i:02b}>"
            )
    m = dft4()
    states = tuple(
        StateVector(2, sum(m[n, r] * basis[r].amps for r in range(4)))
        for n in range(4)
    )
    return BlochQuartet(states)  # type: ignore[arg-type]


def bloch_to_wannier(
    quartet: BlochQuartet,
) -> tuple[StateVector, StateVector, StateVector, StateVector]:
    """Invert the four-point transform on an orthonormal quartet."""
    minv = dft4_inverse()
    return tuple(  # type: ignore[return-value]
        StateVector(2, sum(minv[i, n] * quartet[n].amps for n in range(4)))
        for i in range(4)
    )


class Sector(Enum):
    """Parity sector of a two-qubit basis: which index pair carries support."""

    EVEN = "even"
    ODD = "odd"

    @property
    def basis_indexes(self) -> tuple[int, int]:
        return (0, 3) if self is Sector.EVEN else (1, 2)

    def flipped(self) -> "Sector":
        return Sector.ODD if self is Sector.EVEN else Sector.EVEN


def _hadamard_pair(i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Apply the 2x2 Hadamard to the basis pair (|i>, |j>) of the 4-dim space."""
    e = np.eye(4, dtype=complex)
    top = HADAMARD[0, 0] * e[i] + HADAMARD[0, 1] * e[j]
    bottom = HADAMARD[1, 0] * e[i] + HADAMARD[1, 1] * e[j]
    return top, bottom


class BellState(Enum):
    """The four maximally entangled two-qubit states."""

    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"

    @property
    def sector(self) -> Sector:
        return Sector.EVEN if self in (BellState.PHI_PLUS, BellState.PHI_MINUS) else Sector.ODD

    @property
    def phase(self) -> int:
        return +1 if self in (BellState.PHI_PLUS, BellState.PSI_PLUS) else -1

    @property
    def bits(self) -> tuple[int, int]:
        """Two-bit encoding (b1, b0): b1 = sector (0 even, 1 odd), b0 = phase (0 +, 1 -)."""
        return (0 if self.sector is Sector.EVEN else 1, 0 if self.phase > 0 else 1)

    def vector(self) -> StateVector:
        return _CANONICAL_BELL[self]

    @classmethod
    def from_sector_phase(cls, sector: Sector, phase: int) -> "BellState":
        for tag in cls:
            if tag.sector is sector and tag.phase == phase:
                return tag
        raise ValidationError(f"phase must be +1 or -1, got {phase}")

    @classmethod
    def from_bits(cls, b1: int, b0: int) -> "BellState":
        sector = Sector.EVEN if b1 == 0 else Sector.ODD
        return cls.from_sector_phase(sector, +1 if b0 == 0 else -1)

    @classmethod
    def from_tag(cls, tag: str) -> "BellState":
        for member in cls:
            if member.value == tag:
                return member
        raise ValidationError(f"unknown Bell tag {tag!r}")

    def __str__(self) -> str:
        return self.value


BELL_ORDER = (
    BellState.PHI_PLUS,
    BellState.PHI_MINUS,
    BellState.PSI_PLUS,
    BellState.PSI_MINUS,
)

_EVEN_PAIR = _hadamard_pair(0, 3)
_ODD_PAIR = _hadamard_pair(1, 2)
_CANONICAL_BELL = {
    BellState.PHI_PLUS: StateVector(2, _EVEN_PAIR[0]),
    BellState.PHI_MINUS: StateVector(2, _EVEN_PAIR[1]),
    BellState.PSI_PLUS: StateVector(2, _ODD_PAIR[0]),
    BellState.PSI_MINUS: StateVector(2, _ODD_PAIR[1]),
}


def contract_bell(sector: Sector) -> tuple[BellState, BellState]:
    """Bell pair of one sector: the 2x2 Hadamard applied to its basis pair.

    The even sector gives (phi+, phi-) from {|00>, |11>}; the odd sector
    gives (psi+, psi-) from {|01>, |10>}, with psi- = (|01> - |10>)/sqrt(2).
    """
    return tuple(tag for tag in BELL_ORDER if tag.sector is sector)  # type: ignore[return-value]


BELL_BASIS = ProjectiveBasis(
    [np.outer(tag.vector().amps, tag.vector().amps.conj()) for tag in BELL_ORDER]
)

# The local Pauli on qubit 1 that turns phi+ into each Bell state. It is
# superdense coding's encoder and teleportation's correction alike.
PAULI_TABLE = {
    BellState.PHI_PLUS: ("identity", IDENTITY2),
    BellState.PHI_MINUS: ("sigma_z", SIGMA_Z),
    BellState.PSI_PLUS: ("sigma_x", SIGMA_X),
    BellState.PSI_MINUS: ("sigma_z*sigma_x", readonly(SIGMA_Z @ SIGMA_X)),
}


def bell_projectors() -> ProjectiveBasis:
    """Rank-1 projectors onto the Bell states, in ``BELL_ORDER``, checked once."""
    return BELL_BASIS


class HState(Enum):
    """The six unentangled Hadamard-pair states.

    H0/H1 come from the pair (|00>, |10>), H2/H3 from (|00>, |01>), and
    H4/H5 from (|10>, |11>). Several distinct momentum-pair contractions
    land on the same H0/H1 vectors; one canonical pair is stored.
    """

    H0 = "h0"
    H1 = "h1"
    H2 = "h2"
    H3 = "h3"
    H4 = "h4"
    H5 = "h5"

    def vector(self) -> StateVector:
        return _CANONICAL_H[self]

    def __str__(self) -> str:
        return self.value


_H_PAIRS = (_hadamard_pair(0, 2), _hadamard_pair(0, 1), _hadamard_pair(2, 3))
_CANONICAL_H = {
    HState.H0: StateVector(2, _H_PAIRS[0][0]),
    HState.H1: StateVector(2, _H_PAIRS[0][1]),
    HState.H2: StateVector(2, _H_PAIRS[1][0]),
    HState.H3: StateVector(2, _H_PAIRS[1][1]),
    HState.H4: StateVector(2, _H_PAIRS[2][0]),
    HState.H5: StateVector(2, _H_PAIRS[2][1]),
}


def pair_determinant(state: StateVector) -> complex:
    """Determinant of the 2x2 reshaped amplitude matrix of a two-qubit state.

    Zero (within tolerance) exactly when the state is a product state.
    """
    if state.qubit_count != 2:
        raise DimensionError("pair determinant is defined for two-qubit states")
    a = state.amps
    return complex(a[0] * a[3] - a[1] * a[2])


def h_states() -> tuple[HState, ...]:
    """All six H states, each re-checked to be a product state."""
    members = tuple(HState)
    for member in members:
        if abs(pair_determinant(member.vector())) > ATOL:
            raise ValidationError(f"{member} is unexpectedly entangled")
    return members


@dataclass(frozen=True)
class SuperpositionIdentity:
    """One checked identity: (a +/- b)/sqrt(2) equals a basis state."""

    label: str
    combination: StateVector
    expected: StateVector
    deviation: float

    @property
    def holds(self) -> bool:
        return self.deviation <= ATOL


def _identity(label: str, a: StateVector, b: StateVector, sign: int, index: int) -> SuperpositionIdentity:
    combo = StateVector(2, (a.amps + sign * b.amps) / math.sqrt(2))
    expected = basis_state(2, index)
    deviation = float(np.max(np.abs(combo.amps - expected.amps)))
    return SuperpositionIdentity(label, combo, expected, deviation)


def bell_superpositions() -> tuple[SuperpositionIdentity, ...]:
    """The four inverse-Hadamard identities taking Bell pairs back to site states."""
    phi_p, phi_m = BellState.PHI_PLUS.vector(), BellState.PHI_MINUS.vector()
    psi_p, psi_m = BellState.PSI_PLUS.vector(), BellState.PSI_MINUS.vector()
    entries = (
        _identity("(phi+ + phi-)/sqrt2 = |00>", phi_p, phi_m, +1, 0),
        _identity("(phi+ - phi-)/sqrt2 = |11>", phi_p, phi_m, -1, 3),
        _identity("(psi+ + psi-)/sqrt2 = |01>", psi_p, psi_m, +1, 1),
        _identity("(psi+ - psi-)/sqrt2 = |10>", psi_p, psi_m, -1, 2),
    )
    for entry in entries:
        if not entry.holds:
            raise ValidationError(f"identity failed: {entry.label}")
    return entries


def h_state_superpositions() -> tuple[SuperpositionIdentity, ...]:
    """The six matching identities for the unentangled H pairs."""
    v = {m: m.vector() for m in HState}
    entries = (
        _identity("(h0 + h1)/sqrt2 = |00>", v[HState.H0], v[HState.H1], +1, 0),
        _identity("(h0 - h1)/sqrt2 = |10>", v[HState.H0], v[HState.H1], -1, 2),
        _identity("(h2 + h3)/sqrt2 = |00>", v[HState.H2], v[HState.H3], +1, 0),
        _identity("(h2 - h3)/sqrt2 = |01>", v[HState.H2], v[HState.H3], -1, 1),
        _identity("(h4 + h5)/sqrt2 = |10>", v[HState.H4], v[HState.H5], +1, 2),
        _identity("(h4 - h5)/sqrt2 = |11>", v[HState.H4], v[HState.H5], -1, 3),
    )
    for entry in entries:
        if not entry.holds:
            raise ValidationError(f"identity failed: {entry.label}")
    return entries
