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

from enum import Enum

from .statevec import (
    HADAMARD,
    IDENTITY2,
    SIGMA_X,
    SIGMA_Z,
    DimensionError,
    Matrix,
    StateVector,
    ValidationError,
)

# exp(i * pi/2 * m) / 2 for m = 0..3, exact in doubles
_QUARTER_TURNS = (0.5 + 0j, 0.5j, -0.5 + 0j, complex(0.0, -0.5))


# The forward four-point transform: row n is the momentum state k_n = (2*pi/4)*n.
# Entry (n, R) is (1/2) * exp(i k_n R) on site R = 0..3, the basis |00>, |01>,
# |10>, |11>; the inverse is the conjugate transpose.
DFT4 = Matrix([[_QUARTER_TURNS[(n * r) % 4] for r in range(4)] for n in range(4)])


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
        if isinstance(phase, bool) or not isinstance(phase, int) or phase not in (+1, -1):
            raise ValidationError(f"phase must be the integer +1 or -1, got {phase!r}")
        return _BY_SECTOR_PHASE[sector, phase]

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


BELL_ORDER = tuple(BellState)  # the enum's definition order: phi+, phi-, psi+, psi-
_BY_SECTOR_PHASE = {(tag.sector, tag.phase): tag for tag in BELL_ORDER}
_BY_BITS = {tag.bits: tag for tag in BELL_ORDER}  # any nonzero bit reads as 1

# the Hadamard on the tag's sector pair, (|00>, |11>) or (|01>, |10>): its + row
# (phase bit 0) gives phi+ and psi+, its - row (phase bit 1) phi- and psi-
_CANONICAL_BELL = {
    tag: StateVector(2, _hadamard_pair(*tag.sector.basis_indexes)[tag.bits[1]]) for tag in BELL_ORDER
}


# The local Pauli on qubit 1 that turns phi+ into each Bell state. It is
# superdense coding's encoder and teleportation's correction alike.
PAULI_TABLE = {
    BellState.PHI_PLUS: ("identity", IDENTITY2),
    BellState.PHI_MINUS: ("sigma_z", SIGMA_Z),
    BellState.PSI_PLUS: ("sigma_x", SIGMA_X),
    BellState.PSI_MINUS: ("sigma_z*sigma_x", SIGMA_Z @ SIGMA_X),
}


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
