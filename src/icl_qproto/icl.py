"""Inverter-chain diagrams for two-qubit entanglement.

A diagram records a chain of bit-flip (sigma_x) links between two
qubits, plus a +/-1 phase flag. The sector is the chain's parity, not
stored data: even chains live on {|00>, |11>} (the phi states), odd
chains on {|01>, |10>} (the psi states). Growing the chain by one link
is the same thing as acting with sigma_x on one qubit; toggling the
phase flag is acting with sigma_z. Only the four Bell states are
diagram-representable; ``classify`` sorts arbitrary two-qubit states
into Bell / sector-confined / product / generic.

Chain length beyond its parity carries no amplitude content; it is
kept as data only (two diagrams of equal parity and phase denote the
same state however long their chains are).
"""

from __future__ import annotations

from enum import Enum

from .phasespace import BELL_ORDER, BellState, Sector, pair_determinant
from .statevec import (
    ATOL,
    DimensionError,
    Record,
    StateVector,
    ValidationError,
    equal_up_to_global_phase,
)


class IclDiagram(Record):
    """A chain of ``chain_length`` inverters with a phase flag.

    The sector is the chain's parity (even chain = even sector), worked
    out on demand rather than stored.
    """

    __slots__ = ("chain_length", "phase")
    chain_length: int
    phase: int

    def __init__(self, chain_length: int, phase: int):
        if isinstance(chain_length, bool) or not isinstance(chain_length, int) or chain_length < 0:
            raise ValidationError(f"chain_length must be an integer >= 0, got {chain_length!r}")
        if isinstance(phase, bool) or not isinstance(phase, int) or phase not in (+1, -1):
            raise ValidationError(f"phase must be the integer +1 or -1, got {phase!r}")
        super().__init__(chain_length, phase)

    @property
    def sector(self) -> Sector:
        return Sector.ODD if self.chain_length % 2 else Sector.EVEN

    def to_json(self) -> dict:
        return {"chain": self.chain_length, "sector": self.sector.value, "phase": self.phase}


class IclKind(Enum):
    BELL = "bell"
    SECTOR_CONFINED = "sector-confined"
    PRODUCT = "product"
    GENERIC = "generic"


class IclClass(Record):
    """Classification of a two-qubit state under the inverter-chain model."""

    __slots__ = ("kind", "bell", "sector")
    kind: IclKind
    bell: BellState | None
    sector: Sector | None

    def __init__(self, kind: IclKind, bell: BellState | None = None, sector: Sector | None = None):
        super().__init__(kind, bell, sector)

    def to_json(self) -> dict:
        out: dict = {"class": self.kind.value}
        if self.bell is not None:
            out["bell"] = self.bell.value
        if self.sector is not None:
            out["sector"] = self.sector.value
        return out


def classify(state: StateVector) -> IclClass:
    """Sort a two-qubit state into Bell / sector-confined / product / generic.

    Bell matching is insensitive to a global phase. Sector confinement
    means all support lies on {|00>, |11>} or on {|01>, |10>};
    entanglement is decided by the reshaped 2x2 determinant exceeding
    the package tolerance.
    """
    if state.qubit_count != 2:
        raise DimensionError("classification is defined for two-qubit states")
    for tag in BELL_ORDER:
        if equal_up_to_global_phase(state, tag.vector()):
            return IclClass(IclKind.BELL, bell=tag)
    support = {i for i, a in enumerate(state.amps) if abs(a) > ATOL}
    entangled = abs(pair_determinant(state)) > ATOL
    for sector in Sector:
        if support <= set(sector.basis_indexes) and entangled:
            return IclClass(IclKind.SECTOR_CONFINED, sector=sector)
    return IclClass(IclKind.GENERIC if entangled else IclKind.PRODUCT)


def diagram_to_state(diagram: IclDiagram) -> StateVector:
    """Canonical Bell vector a diagram stands for (parity + phase only)."""
    return BellState.from_bits(diagram.chain_length % 2, diagram.phase < 0).vector()


def extend_sigma_x(diagram: IclDiagram) -> IclDiagram:
    """Grow the chain by one inverter: parity flips, phase is untouched."""
    return IclDiagram(diagram.chain_length + 1, diagram.phase)


def apply_sigma_z(diagram: IclDiagram) -> IclDiagram:
    """Toggle the phase flag; the chain itself is untouched."""
    return IclDiagram(diagram.chain_length, -diagram.phase)


def state_to_diagram(tag: BellState) -> IclDiagram:
    """Minimal diagram for a Bell state: 2 links for phi, 1 for psi."""
    return IclDiagram(2 if tag.sector is Sector.EVEN else 1, tag.phase)
