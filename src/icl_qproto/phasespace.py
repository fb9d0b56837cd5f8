"""Discrete phase-space construction of the Bell basis.

A four-site ring (with periodic closure) carries the two-qubit
computational basis. The four-point discrete Fourier transform maps the
site basis to four momentum states; restricting the transform to one of
the two parity sectors, span{|00>, |11>} or span{|01>, |10>}, turns
the 4x4 transform into the 2x2 Hadamard and produces the Bell basis.
Applying the same Hadamard to a mixed-sector pair of site states instead
yields the six H states, which stay unentangled (their reshaped 2x2
amplitude matrix has rank 1).

The transform carries the symmetric 1/sqrt(4) normalization, so it is
unitary and its conjugate transpose inverts it exactly. The H4/H5 pair
is normalized with the same 1/sqrt(2) factor as every other Hadamard
pair.
"""

from __future__ import annotations

import math
from enum import Enum

from .statevec import (
    ATOL,
    HADAMARD,
    IDENTITY2,
    SIGMA_X,
    SIGMA_Z,
    DimensionError,
    Matrix,
    ProjectiveBasis,
    Record,
    StateVector,
    ValidationError,
    basis_state,
    max_deviation,
)

# exp(i * pi/2 * m) / 2 for m = 0..3, exact in doubles
_QUARTER_TURNS = (0.5 + 0j, 0.5j, -0.5 + 0j, complex(0.0, -0.5))


def dft4() -> Matrix:
    """Forward four-point transform: row n is the momentum state k_n = (2*pi/4)*n.

    Entry (n, R) is (1/2) * exp(i k_n R) on site R = 0..3, the basis
    |00>, |01>, |10>, |11>; the inverse is the conjugate transpose.
    """
    return _DFT4


_DFT4 = Matrix([[_QUARTER_TURNS[(n * r) % 4] for r in range(4)] for n in range(4)])


class Sector(Enum):
    """Parity sector of a two-qubit basis: which index pair carries support."""

    EVEN = "even"
    ODD = "odd"

    @property
    def basis_indexes(self) -> tuple[int, int]:
        return (0, 3) if self is Sector.EVEN else (1, 2)


def _hadamard_pair(i: int, j: int) -> tuple[list[complex], list[complex]]:
    """Apply the 2x2 Hadamard to the basis pair (|i>, |j>) of the 4-dim space."""
    return tuple([hi if k == i else hj if k == j else 0j for k in range(4)] for hi, hj in HADAMARD)


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
        try:
            return _BY_SECTOR_PHASE[sector, phase]
        except (KeyError, TypeError):
            raise ValidationError(f"phase must be +1 or -1, got {phase}") from None

    @classmethod
    def from_bits(cls, b1: int, b0: int) -> "BellState":
        return _BY_BITS[b1 != 0, b0 != 0]

    @classmethod
    def from_tag(cls, tag: str) -> "BellState":
        try:
            return cls(tag)
        except ValueError:
            raise ValidationError(f"unknown Bell tag {tag!r}") from None

    def __str__(self) -> str:
        return self.value


BELL_ORDER = (
    BellState.PHI_PLUS,
    BellState.PHI_MINUS,
    BellState.PSI_PLUS,
    BellState.PSI_MINUS,
)
_BY_SECTOR_PHASE = {(tag.sector, tag.phase): tag for tag in BELL_ORDER}
_BY_BITS = {tag.bits: tag for tag in BELL_ORDER}  # any nonzero bit reads as 1

# phi+/phi- from the even pair (|00>, |11>); psi+/psi- from the odd pair (|01>, |10>)
_CANONICAL_BELL = {
    tag: StateVector(2, amps)
    for tag, amps in zip(BELL_ORDER, (*_hadamard_pair(0, 3), *_hadamard_pair(1, 2)))
}


def contract_bell(sector: Sector) -> tuple[BellState, BellState]:
    """Bell pair of one sector: the 2x2 Hadamard applied to its basis pair.

    The even sector gives (phi+, phi-) from {|00>, |11>}; the odd sector
    gives (psi+, psi-) from {|01>, |10>}, with psi- = (|01> - |10>)/sqrt(2).
    """
    return tuple(tag for tag in BELL_ORDER if tag.sector is sector)  # type: ignore[return-value]


BELL_BASIS = ProjectiveBasis(
    [[[x * y.conjugate() for y in tag.vector().amps] for x in tag.vector().amps] for tag in BELL_ORDER]
)

# The local Pauli on qubit 1 that turns phi+ into each Bell state. It is
# superdense coding's encoder and teleportation's correction alike.
PAULI_TABLE = {
    BellState.PHI_PLUS: ("identity", IDENTITY2),
    BellState.PHI_MINUS: ("sigma_z", SIGMA_Z),
    BellState.PSI_PLUS: ("sigma_x", SIGMA_X),
    BellState.PSI_MINUS: ("sigma_z*sigma_x", SIGMA_Z @ SIGMA_X),
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


_CANONICAL_H = {
    member: StateVector(2, amps)
    for member, amps in zip(
        HState, (*_hadamard_pair(0, 2), *_hadamard_pair(0, 1), *_hadamard_pair(2, 3))
    )
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


class SuperpositionIdentity(Record):
    """One checked identity: (a +/- b)/sqrt(2) equals a basis state."""

    __slots__ = ("label", "expected", "deviation")
    label: str
    expected: StateVector
    deviation: float

    def __init__(self, label: str, expected: StateVector, deviation: float):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "deviation", deviation)

    @property
    def holds(self) -> bool:
        return self.deviation <= ATOL


def _identity(label: str, a: StateVector, b: StateVector, sign: int, index: int) -> SuperpositionIdentity:
    combo = StateVector(2, [(x + sign * y) / math.sqrt(2) for x, y in zip(a.amps, b.amps)])
    expected = basis_state(2, index)
    deviation = max_deviation(combo.amps, expected.amps)
    return SuperpositionIdentity(label, expected, deviation)


def _checked(entries: tuple[SuperpositionIdentity, ...]) -> tuple[SuperpositionIdentity, ...]:
    for entry in entries:
        if not entry.holds:
            raise ValidationError(f"identity failed: {entry.label}")
    return entries


def bell_superpositions() -> tuple[SuperpositionIdentity, ...]:
    """The four inverse-Hadamard identities taking Bell pairs back to site states."""
    phi_p, phi_m = BellState.PHI_PLUS.vector(), BellState.PHI_MINUS.vector()
    psi_p, psi_m = BellState.PSI_PLUS.vector(), BellState.PSI_MINUS.vector()
    return _checked((
        _identity("(phi+ + phi-)/sqrt2 = |00>", phi_p, phi_m, +1, 0),
        _identity("(phi+ - phi-)/sqrt2 = |11>", phi_p, phi_m, -1, 3),
        _identity("(psi+ + psi-)/sqrt2 = |01>", psi_p, psi_m, +1, 1),
        _identity("(psi+ - psi-)/sqrt2 = |10>", psi_p, psi_m, -1, 2),
    ))


def h_state_superpositions() -> tuple[SuperpositionIdentity, ...]:
    """The six matching identities for the unentangled H pairs."""
    v = {m: m.vector() for m in HState}
    return _checked((
        _identity("(h0 + h1)/sqrt2 = |00>", v[HState.H0], v[HState.H1], +1, 0),
        _identity("(h0 - h1)/sqrt2 = |10>", v[HState.H0], v[HState.H1], -1, 2),
        _identity("(h2 + h3)/sqrt2 = |00>", v[HState.H2], v[HState.H3], +1, 0),
        _identity("(h2 - h3)/sqrt2 = |01>", v[HState.H2], v[HState.H3], -1, 1),
        _identity("(h4 + h5)/sqrt2 = |10>", v[HState.H4], v[HState.H5], +1, 2),
        _identity("(h4 - h5)/sqrt2 = |11>", v[HState.H4], v[HState.H5], -1, 3),
    ))
