"""Bell-basis measurement: the two Bell bases the protocols use, seeded sampling.

Teleportation measures (U, A) of its three-qubit state in
``UA_BELL_BASIS``; superdense coding measures the received pair in
``BELL_BASIS``. Both are plain tuples of ``Matrix`` projectors, and the
register size picks which one a measurement uses; no other basis is
accepted.

Only the protocols measure, so ``bell`` and ``icl``, which build and
inspect states, never load this module or its ``RandomSource``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import accumulate

from .phasespace import BELL_ORDER
from .statevec import (
    IDENTITY2,
    DimensionError,
    Matrix,
    StateVector,
    ValidationError,
    _divided,
    check_seed,
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


def _collapse(state: StateVector, k: int, probability: float) -> StateVector:
    """The state after outcome ``k`` of probability ``probability``: P_k psi / sqrt(p)."""
    projected = [0j] * len(state.amps)
    for i, j, p in _BASES[state.qubit_count][1][k]:
        projected[i] += p * state.amps[j]
    return StateVector(state.qubit_count, _divided(projected, math.sqrt(probability)))


def branch_probabilities(
    state: StateVector, projectors: Sequence
) -> tuple[float, ...]:
    """Outcome probabilities ||P_k psi||^2, in ``BELL_ORDER``, in the Bell basis of ``state``'s register.

    ``projectors`` must be that basis: ``BELL_BASIS`` for two qubits,
    ``UA_BELL_BASIS`` for three. Any other sequence is converted with
    ``Matrix`` and compared entry by entry with the two tables on every
    call; a different table raises ``ValidationError``, the other
    register's table ``DimensionError``.
    """
    table, terms = _BASES.get(state.qubit_count, (None, None))
    if projectors is not table:
        projectors = tuple(map(Matrix, projectors))
        if projectors != table:
            if projectors not in (BELL_BASIS, UA_BELL_BASIS):
                raise ValidationError("projectors must be the Bell basis, on two qubits or on (U, A) of three")
            n = len(state.amps)
            raise DimensionError(f"projectors must be {n}x{n} matrices, got {len(projectors[0])}")
    amps = state.amps
    conj = [z.conjugate() for z in amps]
    probs = []
    for nonzero in terms:
        total = 0j  # <psi|P|psi>, summed in (i, j) order; the zero entries add nothing
        for i, j, p in nonzero:
            total += conj[i] * p * amps[j]
        probs.append(max(total.real, 0.0))
    return tuple(probs)


def measure_projective(
    state: StateVector,
    projectors: Sequence,
    rand: RandomSource,
) -> tuple[int, StateVector, float]:
    """Bell-basis measurement: sample an outcome, collapse, renormalize.

    Consumes exactly one uniform draw from ``rand``. Returns the outcome
    index in ``BELL_ORDER``, the collapsed (renormalized) state, and the
    outcome's exact probability. ``projectors`` are taken as in
    :func:`branch_probabilities`.
    """
    weights = branch_probabilities(state, projectors)
    r = rand.uniform()
    # the first branch whose running total exceeds r, or the last if rounding leaves r above all
    k = next((i for i, total in enumerate(accumulate(weights)) if total > r), len(weights) - 1)
    if weights[k] <= 0.0:  # float-boundary landing on a zero-width branch
        k = weights.index(max(weights))
    return k, _collapse(state, k, weights[k]), weights[k]


# |B><B| for each Bell state, in BELL_ORDER; tests/test_phasespace.py checks
# that each table is a projective basis, and verify the vectors' orthonormality
BELL_BASIS = tuple(
    Matrix([[x * y.conjugate() for y in tag.vector().amps] for x in tag.vector().amps]) for tag in BELL_ORDER
)
# each of those (x) the 2x2 identity, entry by entry: the Bell basis on (U, A) of (U, A, B)
UA_BELL_BASIS = tuple(
    Matrix([x * y for x in row for y in one] for row in p for one in IDENTITY2) for p in BELL_BASIS
)
# register size -> its Bell table, and per projector its nonzero entries (i, j, p) in row-major order
_BASES = {
    n: (table, tuple(tuple((i, j, x) for i, row in enumerate(p) for j, x in enumerate(row) if x) for p in table))
    for n, table in ((2, BELL_BASIS), (3, UA_BELL_BASIS))
}


def bell_projectors() -> tuple[Matrix, ...]:
    """Rank-1 projectors onto the Bell states, in ``BELL_ORDER``."""
    return BELL_BASIS
