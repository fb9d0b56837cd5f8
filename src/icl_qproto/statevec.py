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
* randomness comes only from ``measure.RandomSource`` (numpy's PCG64 stream,
  reproduced in plain Python), so a seed pins every measurement outcome
  bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

ATOL = 1e-9

MAX_QUBITS = 3

MAX_SEED = 2**64 - 1


class ValidationError(ValueError):
    """A value violates one of its declared invariants."""


# The wire's errors live here, beside ValidationError, so that the CLI can
# catch them without loading the wire module.
class HandshakeError(RuntimeError):
    """The wire peers disagree on protocol version or handshake shape."""


class TransportError(RuntimeError):
    """The wire connection failed or closed mid-protocol.

    ``reason`` is the one-word code Bob sends back in his ``ERR`` line.
    """

    def __init__(self, message: str, reason: str = "transport-failure"):
        super().__init__(message)
        self.reason = reason


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

    A subclass names its fields in ``__slots__``, in constructor order.
    ``Record.__init__`` stores them, and nothing else does: a subclass
    with invariants checks and converts its values, then passes them on.
    After that, assigning or deleting a field raises ``AttributeError``,
    and copies and pickles rebuild a record through its constructor, so
    every record has passed its checks. Records of one class are equal,
    and hash alike, when their fields are, and print as
    ``Name(field=value, ...)``. A slot whose name starts with ``_`` holds
    a value the constructor derives from the fields: it is stored with
    them, but equality, hashing, printing and copies leave it out, so a
    copy derives it again. Plain slotted classes keep the command
    line from loading ``dataclasses`` (and ``inspect``) and from
    generating their methods on every start.
    """

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields, got {len(values)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_")
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


IDENTITY2 = identity(2)
SIGMA_X = Matrix([[0, 1], [1, 0]])
SIGMA_Z = Matrix([[1, 0], [0, -1]])


def _divided(amps: Sequence[complex], d: float) -> tuple[complex, ...]:
    """``amps / d`` for a real ``d > 0``, rounded as numpy divides a complex array by a real.

    numpy (Smith's method with a zero imaginary divisor) multiplies by
    ``1/d``, and its ``+ 0.0`` terms turn some zero signs.
    """
    s = 1.0 / d
    return tuple(complex((z.real + z.imag * 0.0) * s, (z.imag - z.real * 0.0) * s) for z in amps)


def check_seed(seed: int) -> int:
    """``seed`` unchanged if it is an int (not a bool) in 0..2**64-1, the range a run can replay from."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed <= MAX_SEED:
        raise ValidationError(f"seed must be an integer in 0..2**64-1, got {seed!r}")
    return seed


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
        if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_QUBITS:
            raise DimensionError(f"qubit_count must be 1..{MAX_QUBITS}, got {n}")
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
        super().__init__(int(n), amps)

    @classmethod
    def from_amplitudes(cls, amps: Sequence[complex]) -> "StateVector":
        """Build a state from raw amplitudes, inferring the qubit count."""
        amps = tuple(amps)
        n = len(amps).bit_length() - 1
        if 2**n != len(amps) or not 1 <= n <= MAX_QUBITS:
            raise DimensionError(f"amplitude count {len(amps)} is not 2, 4 or 8")
        return cls(n, amps)

    @classmethod
    def from_json(cls, obj: object) -> "StateVector":
        """Inverse of :meth:`to_json`."""
        try:
            n = obj["n"]
            pairs = obj["amps"]
            amps = [complex(re, im) for re, im in pairs]
            if any(isinstance(x, bool) for pair in pairs for x in pair):  # complex(True) is 1+0j
                raise ValueError("amplitude components must be numbers, not booleans")
        except (TypeError, KeyError, ValueError, OverflowError) as exc:  # an int past the float range
            raise ValidationError(f"malformed state-vector JSON: {exc}") from exc
        return cls(n, amps)

    def to_json(self) -> dict:
        """JSON form used by traces: {"n": ..., "amps": [[re, im], ...]}."""
        return {"n": self.qubit_count, "amps": [[z.real, z.imag] for z in self.amps]}

    def probabilities(self) -> tuple[float, ...]:
        return tuple(abs(z) ** 2 for z in self.amps)

    def isclose(self, other: "StateVector") -> bool:
        """Amplitude-wise equality within ``ATOL`` (phase-sensitive)."""
        return self.qubit_count == other.qubit_count and max_deviation(self.amps, other.amps) <= ATOL

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


def equal_up_to_global_phase(a: StateVector, b: StateVector) -> bool:
    """True iff |<a|b>| = 1 within ``ATOL``."""
    return abs(abs(overlap(a, b)) - 1.0) <= ATOL
