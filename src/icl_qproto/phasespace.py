"""Discrete phase-space construction of the Bell basis.

A four-site ring (with periodic closure) carries the two-qubit
computational basis. The four-point discrete Fourier transform maps the
site basis to four momentum states. A momentum row restricted to the two
sites of a parity sector, {|00>, |11>} or {|01>, |10>}, and normalized
is a Bell state: row 0 gives phi+ and psi+, row 2 phi- and psi-. The
basis uses these two rows, which on a sector form the 2x2 Hadamard; rows
1 and 3 give (|00> -/+ i|11>)/sqrt(2), entangled but not a Bell state.
On a mixed-sector pair of sites a row gives one of the six H states,
which stay unentangled (their reshaped 2x2 amplitude matrix has rank 1).

The transform carries the symmetric 1/sqrt(4) normalization, so it is
unitary. Each vector's first nonzero amplitude is positive, so the -psi-
that row 2 gives on the odd sector is flipped.
"""

from __future__ import annotations

import math
from enum import Enum

from .statevec import (
    IDENTITY2,
    SIGMA_X,
    SIGMA_Z,
    DimensionError,
    Matrix,
    StateVector,
    ValidationError,
    _divided,
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


def _contracted(row: int, i: int, j: int) -> StateVector:
    """Row ``row`` of ``DFT4`` restricted to sites ``i < j``, normalized, first amplitude positive."""
    raw = [DFT4[row][r] if r in (i, j) else 0j for r in range(4)]
    amps = _divided(raw, math.sqrt(abs(raw[i]) ** 2 + abs(raw[j]) ** 2))
    if amps[i].real < 0:  # 0j - z keeps a +0.0 where unary minus would write -0.0
        amps = [0j - z for z in amps]
    return StateVector(2, amps)


class BellState(Enum):
    """The four maximally entangled two-qubit states."""

    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"

    @property
    def bits(self) -> tuple[int, int]:
        """(b1, b0), this state's index in ``BELL_ORDER`` in binary: b1 the sector, b0 the phase."""
        return divmod(BELL_ORDER.index(self), 2)

    @property
    def sector(self) -> Sector:
        return Sector.ODD if self.bits[0] else Sector.EVEN

    @property
    def phase(self) -> int:
        return -1 if self.bits[1] else +1

    def vector(self) -> StateVector:
        return _CANONICAL_BELL[self]

    @classmethod
    def from_sector_phase(cls, sector: Sector, phase: int) -> "BellState":
        if not isinstance(sector, Sector):
            raise ValidationError(f"sector must be a Sector, got {sector!r}")
        if isinstance(phase, bool) or not isinstance(phase, int) or phase not in (+1, -1):
            raise ValidationError(f"phase must be the integer +1 or -1, got {phase!r}")
        return cls.from_bits(sector is Sector.ODD, phase < 0)

    @classmethod
    def from_bits(cls, b1: int, b0: int) -> "BellState":
        return BELL_ORDER[2 * (b1 != 0) + (b0 != 0)]  # any nonzero bit reads as 1

    @classmethod
    def from_tag(cls, tag: str) -> "BellState":
        try:
            return cls(tag)
        except ValueError:
            raise ValidationError(f"unknown Bell tag {tag!r}") from None

    def __str__(self) -> str:
        return self.value


BELL_ORDER = tuple(BellState)  # the enum's definition order: phi+ (00), phi- (01), psi+ (10), psi- (11)

# Bell state b1 b0 is row 2*b0 of DFT4 on sector b1's sites
_CANONICAL_BELL = {tag: _contracted(2 * tag.bits[1], *tag.sector.basis_indexes) for tag in BELL_ORDER}


# The local Pauli on qubit 1 that turns phi+ into each Bell state. It is
# superdense coding's encoder and teleportation's correction alike.
PAULI_TABLE = {
    BellState.PHI_PLUS: ("identity", IDENTITY2),
    BellState.PHI_MINUS: ("sigma_z", SIGMA_Z),
    BellState.PSI_PLUS: ("sigma_x", SIGMA_X),
    BellState.PSI_MINUS: ("sigma_z*sigma_x", SIGMA_Z @ SIGMA_X),
}


class HState(Enum):
    """The six unentangled states that ``DFT4`` gives on mixed-sector site pairs.

    H0/H1 are rows 0/1 on the sites (|00>, |10>), H2/H3 rows 0/2 on
    (|00>, |01>), and H4/H5 rows 0/2 on (|10>, |11>). Rows 0 and 2 agree
    on (|00>, |10>), as do rows 1 and 3, so H0/H1 take rows 0 and 1.
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


# (row, i, j) per H state, in HState order
_H_CONTRACTIONS = ((0, 0, 2), (1, 0, 2), (0, 0, 1), (2, 0, 1), (0, 2, 3), (2, 2, 3))
_CANONICAL_H = {member: _contracted(*rij) for member, rij in zip(HState, _H_CONTRACTIONS)}


def pair_determinant(state: StateVector) -> complex:
    """Determinant of the 2x2 reshaped amplitude matrix of a two-qubit state.

    Zero (within tolerance) exactly when the state is a product state.
    """
    if state.qubit_count != 2:
        raise DimensionError("pair determinant is defined for two-qubit states")
    a = state.amps
    return complex(a[0] * a[3] - a[1] * a[2])
