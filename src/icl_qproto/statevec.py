"""Small-register complex state vectors and exact gate application.

Everything in this package works on one to three qubits, so states are
tuples of 2, 4, or 8 Python complex numbers and every step is a fixed
handful of plain-Python operations; the package needs no third-party
module at run time. A one-qubit gate acts on its target's axis of the
register, never through a full Kronecker matrix. States are immutable
values: each operation returns a fresh ``StateVector``, which lets a
protocol trace keep every intermediate state it saw.

Conventions, fixed package-wide:

* qubit 1 is the most significant bit of the basis index (for two
  qubits: index 0 is |00>, 1 is |01>, 2 is |10>, 3 is |11>);
* amplitudes are double-precision complex numbers compared with an
  absolute per-component tolerance ``ATOL``;
* every sum runs in index order from +0.0 with no fused multiply-add,
  so a trace's bytes do not depend on the CPU or on any numeric library;
* randomness comes only from ``RandomSource`` (numpy's PCG64 stream,
  reproduced in plain Python), so a seed pins every measurement outcome
  bit for bit.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Any, Sequence

ATOL = 1e-9

MAX_QUBITS = 3


class ValidationError(ValueError):
    """A value violates one of its declared invariants."""


class DimensionError(ValueError):
    """Operands have incompatible or unsupported dimensions."""


def _dot(xs, ys) -> complex:
    """The sum of ``x * y`` in index order, from +0.0."""
    total = 0j
    for x, y in zip(xs, ys):
        total += x * y
    return total


def max_deviation(xs: Sequence[complex], ys: Sequence[complex]) -> float:
    """The largest ``|x - y|`` over two equally long sequences."""
    return max(abs(x - y) for x, y in zip(xs, ys))


class Record:
    """Base of the package's immutable records.

    A subclass names its fields in ``__slots__``, in constructor order,
    and sets each one once in ``__init__`` through ``object.__setattr__``;
    after that, assigning or deleting a field raises ``AttributeError``.
    Records of one class are equal, and hash alike, when their fields
    are, and print as ``Name(field=value, ...)``. Plain slotted classes
    keep the command line from loading ``dataclasses`` (and ``inspect``)
    and from generating their methods on every start.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):  # copy and pickle restore the slots past __setattr__
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Matrix(tuple):
    """A small square complex matrix: an immutable tuple of row tuples.

    Any square nested sequence of numbers converts, an ndarray among
    them. ``m @ other`` multiplies by a Matrix, or applies ``m`` to a
    tuple of amplitudes; each entry is a sum in index order from +0.0.
    """

    __slots__ = ()

    def __new__(cls, rows) -> "Matrix":
        try:
            rows = tuple(tuple(map(complex, row)) for row in rows)
        except TypeError as exc:  # a row that is a number, or an entry that is not one
            raise DimensionError(f"expected a square matrix of numbers: {exc}") from None
        if not rows or any(len(row) != len(rows) for row in rows):
            raise DimensionError(f"expected a square matrix, got row lengths {[len(r) for r in rows]}")
        return super().__new__(cls, rows)

    def __matmul__(self, other):
        if isinstance(other, Matrix):
            columns = tuple(zip(*other))
            return tuple.__new__(Matrix, (tuple(_dot(row, col) for col in columns) for row in self))
        if not isinstance(other, tuple):
            return NotImplemented
        if len(other) != len(self):
            raise DimensionError(f"a {len(self)}x{len(self)} matrix cannot act on {len(other)} amplitudes")
        return tuple(_dot(row, other) for row in self)

    def dagger(self) -> "Matrix":
        """The conjugate transpose."""
        return tuple.__new__(Matrix, (tuple(z.conjugate() for z in col) for col in zip(*self)))


def identity(dim: int) -> Matrix:
    return Matrix([[i == j for j in range(dim)] for i in range(dim)])


_H = 1 / math.sqrt(2)
IDENTITY2 = identity(2)
SIGMA_X = Matrix([[0, 1], [1, 0]])
SIGMA_Z = Matrix([[1, 0], [0, -1]])
HADAMARD = Matrix([[_H, _H], [_H, -_H]])


def _divided(amps: Sequence[complex], d: float) -> tuple[complex, ...]:
    """``amps / d`` for a real ``d > 0``, rounded as numpy divides a complex array by a real.

    numpy (Smith's method with a zero imaginary divisor) multiplies by
    ``1/d``, and its ``+ 0.0`` terms turn some zero signs.
    """
    s = 1.0 / d
    return tuple(complex((z.real + z.imag * 0.0) * s, (z.imag - z.real * 0.0) * s) for z in amps)


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
        self.seed = int(seed)
        if not 0 <= self.seed <= _MASK64:
            raise ValidationError(f"seed must be in 0..2**64-1, got {self.seed}")
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


class StateVector(Record):
    """Normalized pure state of 1-3 qubits.

    ``amps[i]`` is the amplitude of basis state ``i`` with qubit 1 as
    the most significant bit, a Python complex. The vector is validated
    (finite, correct length, unit norm) on construction. Two states are
    equal only if they are the same object; ``isclose`` compares values.
    """

    __slots__ = ("qubit_count", "amps")
    qubit_count: int
    amps: tuple[complex, ...]

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, qubit_count: int, amps: Sequence[complex]):
        n = qubit_count
        if not isinstance(n, int) or not 1 <= n <= MAX_QUBITS:
            raise DimensionError(f"qubit_count must be 1..{MAX_QUBITS}, got {n}")
        object.__setattr__(self, "qubit_count", int(n))
        amps = tuple(map(complex, amps))
        if len(amps) != 2**n:
            raise DimensionError(f"{n}-qubit state needs {2**n} amplitudes, got {len(amps)}")
        sumsq = 0.0
        for z in amps:
            sumsq += z.real * z.real + z.imag * z.imag  # inf past about 1.3e154, never an OverflowError
        if not abs(sumsq - 1.0) <= ATOL:  # also true for a nan or an inf
            if not all(math.isfinite(z.real) and math.isfinite(z.imag) for z in amps):
                raise ValidationError("amplitudes must be finite")
            raise ValidationError(f"state is not normalized: sum |amp|^2 = {sumsq!r}")
        object.__setattr__(self, "amps", amps)

    @classmethod
    def from_amplitudes(cls, amps: Sequence[complex]) -> "StateVector":
        """Build a state from raw amplitudes, inferring the qubit count."""
        amps = tuple(amps)
        n = len(amps).bit_length() - 1
        if 2**n != len(amps) or not 1 <= n <= MAX_QUBITS:
            raise DimensionError(f"amplitude count {len(amps)} is not 2, 4 or 8")
        return cls(n, amps)

    @classmethod
    def from_json(cls, obj: Any) -> "StateVector":
        """Inverse of :meth:`to_json`."""
        try:
            n = obj["n"]
            pairs = obj["amps"]
            amps = [complex(re, im) for re, im in pairs]
        except (TypeError, KeyError, ValueError, OverflowError) as exc:  # an int past the float range
            raise ValidationError(f"malformed state-vector JSON: {exc}") from exc
        return cls(n, amps)

    def to_json(self) -> dict:
        """JSON form used by traces: {"n": ..., "amps": [[re, im], ...]}."""
        return {"n": self.qubit_count, "amps": [[z.real, z.imag] for z in self.amps]}

    def probabilities(self) -> tuple[float, ...]:
        return tuple(abs(z) ** 2 for z in self.amps)

    def isclose(self, other: "StateVector", atol: float = ATOL) -> bool:
        """Amplitude-wise equality within ``atol`` (phase-sensitive)."""
        return self.qubit_count == other.qubit_count and max_deviation(self.amps, other.amps) <= atol

    def __repr__(self) -> str:
        rounded = [complex(round(z.real, 6), round(z.imag, 6)) for z in self.amps]
        return f"StateVector(n={self.qubit_count}, amps={rounded!r})"


def basis_state(qubit_count: int, index: int) -> StateVector:
    """Computational basis state |index> on ``qubit_count`` qubits."""
    dim = 2**qubit_count
    if not 0 <= index < dim:
        raise DimensionError(f"basis index {index} out of range for {qubit_count} qubits")
    return StateVector(qubit_count, [i == index for i in range(dim)])


def single_qubit(alpha: complex, beta: complex) -> StateVector:
    """One-qubit state alpha|0> + beta|1> (must already be normalized)."""
    return StateVector(1, (alpha, beta))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product with ``a``'s qubits in the high-order positions."""
    total = a.qubit_count + b.qubit_count
    if total > MAX_QUBITS:
        raise DimensionError(
            f"tensor product would need {total} qubits; the register is capped at {MAX_QUBITS}"
        )
    return StateVector(total, [x * y for x in a.amps for y in b.amps])


def apply_1q(state: StateVector, u: Sequence[Sequence[complex]], target: int) -> StateVector:
    """Apply a 2x2 unitary to the 1-based ``target`` qubit, on its axis of the register."""
    u = Matrix(u)
    if len(u) != 2:
        raise DimensionError(f"expected a 2x2 matrix, got {len(u)}x{len(u)}")
    (a, b), (c, d) = u
    # every entry of u u^dagger - I within ATOL; its (1, 0) entry is the conjugate of (0, 1)
    gram = (a * a.conjugate() + b * b.conjugate() - 1, a * c.conjugate() + b * d.conjugate(),
            c * c.conjugate() + d * d.conjugate() - 1)
    if not all(abs(entry) <= ATOL for entry in gram):
        raise ValidationError("matrix is not unitary within tolerance")
    n = state.qubit_count
    if not 1 <= target <= n:
        raise IndexError(f"target qubit {target} out of range for a {n}-qubit state")
    amps = state.amps
    bit = 2 ** (n - target)  # index distance between the target's |0> and |1>
    # each a sum from +0.0, so a zero amplitude is +0.0 in a trace
    out = [_dot(u[bool(i & bit)], (amps[i & ~bit], amps[i | bit])) for i in range(len(amps))]
    return StateVector(n, out)


def overlap(a: StateVector, b: StateVector) -> complex:
    """Inner product <a|b>."""
    if a.qubit_count != b.qubit_count:
        raise DimensionError(
            f"overlap needs equal qubit counts, got {a.qubit_count} and {b.qubit_count}"
        )
    return _dot([z.conjugate() for z in a.amps], b.amps)


def equal_up_to_global_phase(a: StateVector, b: StateVector, atol: float = ATOL) -> bool:
    """True iff |<a|b>| = 1 within ``atol``."""
    return abs(abs(overlap(a, b)) - 1.0) <= atol


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

    def tensor_identity(self) -> "ProjectiveBasis":
        """Each projector (x) the 2x2 identity: this basis, with one more low-order qubit.

        P (x) I is a projector whenever P is, and a product by 1 or 0 is
        exact, so the result is not checked again.
        """
        basis = object.__new__(ProjectiveBasis)
        basis._hold(tuple(  # Kronecker products, entry by entry
            tuple.__new__(Matrix, (tuple(x * y for x in row for y in one) for row in p for one in IDENTITY2))
            for p in self.projectors
        ))
        return basis

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


def computational_projectors(qubit_count: int) -> list[Matrix]:
    """Rank-1 projectors onto every computational basis state."""
    dim = 2**qubit_count
    return [Matrix([[i == j == k for j in range(dim)] for i in range(dim)]) for k in range(dim)]
