"""Projective measurement: checked bases, the Bell basis, seeded sampling.

Only the protocols measure, so ``bell`` and ``icl``, which build and
inspect states, never load this module or its ``RandomSource``.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Sequence

from .phasespace import BELL_ORDER
from .statevec import (
    ATOL,
    IDENTITY2,
    DimensionError,
    Matrix,
    Record,
    StateVector,
    ValidationError,
    _divided,
    check_seed,
    max_deviation,
)


# numpy's SeedSequence: the hash constant is multiplied on every mix, whatever
# the data, so the constants it uses are two fixed tables.
def _key_table(start: int, multiplier: int, count: int) -> tuple[int, ...]:
    keys = [start]
    for _ in range(count):
        keys.append(keys[-1] * multiplier & 0xFFFFFFFF)
    return tuple(keys)


_POOL_KEYS = _key_table(0x43B0D7E5, 0x931E8875, 16)
_STATE_KEYS = _key_table(0x8B51F9DD, 0x58F38DED, 8)
# the twelve cross mixes, in numpy's order: (source word, target word, its two keys)
_CROSS_MIXES = tuple(
    (src, dst, _POOL_KEYS[t], _POOL_KEYS[t + 1])
    for t, (src, dst) in enumerate(((s, d) for s in range(4) for d in range(4) if s != d), start=4)
)
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def _hashmix(value: int, keys: tuple[int, ...], t: int) -> int:
    value = (value ^ keys[t]) * keys[t + 1] & 0xFFFFFFFF
    return value ^ value >> 16


class RandomSource:
    """Seeded uniform stream: numpy's ``Generator(PCG64(seed)).random()``, bit for bit.

    The seed (0..2**64-1) goes through numpy's ``SeedSequence`` (a pool
    of four hashed 32-bit words) into PCG64's 128-bit state and
    increment; each draw steps the generator once and turns its XSL-RR
    output into a double in [0, 1) as numpy does. Identical seeds
    reproduce identical draws on any platform, which is what makes
    protocol traces replayable. A RandomSource is owned by a single
    protocol run at a time.
    """

    def __init__(self, seed: int):
        self.seed = check_seed(seed)
        words = (self.seed & 0xFFFFFFFF, self.seed >> 32, 0, 0)
        pool = [_hashmix(w, _POOL_KEYS, t) for t, w in enumerate(words)]
        for src, dst, xor, mult in _CROSS_MIXES:
            hashed = (pool[src] ^ xor) * mult & 0xFFFFFFFF
            mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * (hashed ^ hashed >> 16)) & 0xFFFFFFFF
            pool[dst] = mixed ^ mixed >> 16
        # generate_state(4, uint64): little-endian word pairs, high uint64 first in each 128-bit value
        out = [_hashmix(pool[i % 4], _STATE_KEYS, i) for i in range(8)]
        state, initseq = (out[i + 1] << 96 | out[i] << 64 | out[i + 3] << 32 | out[i + 2] for i in (0, 4))
        self._inc = (initseq << 1 | 1) & _MASK128
        self._state = ((self._inc + state) * _PCG_MULTIPLIER + self._inc) & _MASK128

    def uniform(self) -> float:
        """Next double-precision float in [0, 1)."""
        self._state = s = (self._state * _PCG_MULTIPLIER + self._inc) & _MASK128
        rot = s >> 122
        x = (s >> 64 ^ s) & _MASK64
        x = (x >> rot | x << (64 - rot)) & _MASK64
        return (x >> 11) * (1.0 / 9007199254740992.0)

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed})"


class ProjectiveBasis(Record):
    """Mutually orthogonal projectors that sum to the identity.

    ``ProjectiveBasis(projectors)`` takes any sequence of equal square
    matrices. They are checked once, here, and held as a tuple of
    ``Matrix``, so a basis built once can be measured against any number
    of times without re-checking it. Iterating it yields the projectors.
    Two bases are equal only if they are the same object.
    """

    __slots__ = ("projectors", "_terms")
    projectors: tuple[Matrix, ...]
    # per projector, its nonzero entries (i, j, p) in row-major order
    _terms: tuple[tuple[tuple[int, int, complex], ...], ...]

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, projectors: Sequence):
        projectors = tuple(map(Matrix, projectors))
        self._check(projectors)
        self._hold(projectors)

    @staticmethod
    def _check(projectors: tuple[Matrix, ...]) -> None:
        if not projectors or len({len(p) for p in projectors}) != 1:
            raise DimensionError("projectors must be square matrices of one size")
        for i, rows in enumerate(zip(*projectors)):
            if any(not abs(sum(entries) - (i == j)) <= ATOL for j, entries in enumerate(zip(*rows))):
                raise ValidationError("projectors do not sum to the identity")
        zero_row = [0] * len(projectors[0])
        for a, pa in enumerate(projectors):
            for b, pb in enumerate(projectors):
                expected = pa if a == b else [zero_row] * len(zero_row)
                if not max(map(max_deviation, pa @ pb, expected)) <= ATOL:
                    raise ValidationError("projectors are not mutually orthogonal idempotents")

    def _hold(self, projectors: tuple[Matrix, ...]) -> None:
        object.__setattr__(self, "projectors", projectors)
        object.__setattr__(self, "_terms", tuple(
            tuple((i, j, x) for i, row in enumerate(p) for j, x in enumerate(row) if x)
            for p in projectors
        ))

    @classmethod
    def _unchecked(cls, projectors: tuple[Matrix, ...]) -> "ProjectiveBasis":
        """A basis of projectors that are known to form one, held without the check."""
        basis = object.__new__(cls)
        basis._hold(projectors)
        return basis

    def tensor_identity(self) -> "ProjectiveBasis":
        """Each projector (x) the 2x2 identity: this basis, with one more low-order qubit.

        P (x) I is a projector whenever P is, and a product by 1 or 0 is
        exact, so the result is not checked again.
        """
        return ProjectiveBasis._unchecked(tuple(  # Kronecker products, entry by entry
            tuple.__new__(Matrix, (tuple(x * y for x in row for y in one) for row in p for one in IDENTITY2))
            for p in self.projectors
        ))

    def __repr__(self) -> str:
        return f"ProjectiveBasis(projectors={self.projectors!r})"

    def __iter__(self):
        return iter(self.projectors)


def _probabilities(
    state: StateVector, projectors: "ProjectiveBasis | Sequence"
) -> tuple[ProjectiveBasis, tuple[float, ...]]:
    basis = projectors if isinstance(projectors, ProjectiveBasis) else ProjectiveBasis(projectors)
    amps = state.amps
    if len(basis.projectors[0]) != len(amps):
        raise DimensionError(
            f"projectors must be {len(amps)}x{len(amps)} matrices, got {len(basis.projectors[0])}"
        )
    conj = [z.conjugate() for z in amps]
    probs = []
    for terms in basis._terms:
        total = 0j  # <psi|P|psi>, summed in (i, j) order; the zero entries add nothing
        for i, j, p in terms:
            total += conj[i] * p * amps[j]
        probs.append(max(total.real, 0.0))
    return basis, tuple(probs)


def _collapse(state: StateVector, basis: ProjectiveBasis, k: int, probability: float) -> StateVector:
    """The state after outcome ``k`` of probability ``probability``: P_k psi / sqrt(p)."""
    projected = [0j] * len(state.amps)
    for i, j, p in basis._terms[k]:
        projected[i] += p * state.amps[j]
    return StateVector(state.qubit_count, _divided(projected, math.sqrt(probability)))


def branch_probabilities(
    state: StateVector, projectors: "ProjectiveBasis | Sequence"
) -> tuple[float, ...]:
    """Outcome probabilities ||P_k psi||^2 for a projective resolution.

    A plain sequence of projectors is checked as a ``ProjectiveBasis``
    on every call; a ``ProjectiveBasis`` was checked when it was built.
    """
    return _probabilities(state, projectors)[1]


def measure_projective(
    state: StateVector,
    projectors: "ProjectiveBasis | Sequence",
    rand: RandomSource,
) -> tuple[int, StateVector, float]:
    """Projective measurement: sample an outcome, collapse, renormalize.

    Consumes exactly one uniform draw from ``rand``. Returns the outcome
    index, the collapsed (renormalized) state, and the outcome's exact
    probability. ``projectors`` are checked as in :func:`branch_probabilities`.
    """
    basis, weights = _probabilities(state, projectors)
    r = rand.uniform()
    # the first branch whose running total exceeds r, or the last if rounding leaves r above all
    k = next((i for i, total in enumerate(accumulate(weights)) if total > r), len(weights) - 1)
    if weights[k] <= 0.0:  # float-boundary landing on a zero-width branch
        k = weights.index(max(weights))
    return k, _collapse(state, basis, k, weights[k]), weights[k]


# |B><B| for each Bell state: constant, so the basis check runs in
# tests/test_phasespace.py (and verify checks the vectors' orthonormality),
# not on every import.
BELL_BASIS = ProjectiveBasis._unchecked(tuple(
    Matrix([[x * y.conjugate() for y in tag.vector().amps] for x in tag.vector().amps]) for tag in BELL_ORDER
))


def bell_projectors() -> ProjectiveBasis:
    """Rank-1 projectors onto the Bell states, in ``BELL_ORDER``."""
    return BELL_BASIS
