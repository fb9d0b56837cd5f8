"""Small-register complex state vectors and exact gate application.

Everything in this package works on one to three qubits, so states are
dense complex vectors of length 2, 4, or 8; a one-qubit gate acts on its
target's axis of the reshaped register, never through a full Kronecker
matrix. States are immutable values: each operation returns a fresh
``StateVector``, which lets a protocol trace keep every intermediate
state it saw.

Conventions, fixed package-wide:

* qubit 1 is the most significant bit of the basis index (for two
  qubits: index 0 is |00>, 1 is |01>, 2 is |10>, 3 is |11>);
* amplitudes are double-precision complex numbers compared with an
  absolute per-component tolerance ``ATOL``;
* randomness comes only from ``RandomSource`` (numpy's PCG64 generator),
  so a seed pins every measurement outcome bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Sequence

import numpy as np

ATOL = 1e-9

MAX_QUBITS = 3


class ValidationError(ValueError):
    """A value violates one of its declared invariants."""


class DimensionError(ValueError):
    """Operands have incompatible or unsupported dimensions."""


def readonly(values) -> np.ndarray:
    """A read-only complex copy of ``values``, for tables shared package-wide."""
    arr = np.array(values, dtype=complex)
    arr.setflags(write=False)
    return arr


IDENTITY2 = readonly([[1, 0], [0, 1]])
SIGMA_X = readonly([[0, 1], [1, 0]])
SIGMA_Z = readonly([[1, 0], [0, -1]])
HADAMARD = readonly(np.array([[1, 1], [1, -1]]) / np.sqrt(2))


class RandomSource:
    """Seeded uniform stream backed by numpy's PCG64 generator.

    Identical seeds reproduce identical draw sequences bit for bit, on
    any platform, which is what makes protocol traces replayable. A
    RandomSource is owned by a single protocol run at a time.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self) -> float:
        """Next double-precision float in [0, 1)."""
        return float(self._gen.random())

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed})"


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state of 1-3 qubits.

    ``amps[i]`` is the amplitude of basis state ``i`` with qubit 1 as
    the most significant bit. The vector is validated (finite, correct
    length, unit norm) and frozen on construction.
    """

    qubit_count: int
    amps: np.ndarray

    def __post_init__(self):
        n = self.qubit_count
        if not isinstance(n, (int, np.integer)) or not 1 <= n <= MAX_QUBITS:
            raise DimensionError(f"qubit_count must be 1..{MAX_QUBITS}, got {n}")
        object.__setattr__(self, "qubit_count", int(n))
        amps = np.array(self.amps, dtype=complex).reshape(-1)
        if amps.shape[0] != 2**n:
            raise DimensionError(f"{n}-qubit state needs {2**n} amplitudes, got {amps.shape[0]}")
        if not abs(np.vdot(amps, amps).real - 1.0) <= ATOL:  # also true for a nan or an inf
            if not np.all(np.isfinite(amps)):
                raise ValidationError("amplitudes must be finite")
            sumsq = float(np.sum(np.abs(amps) ** 2))
            raise ValidationError(f"state is not normalized: sum |amp|^2 = {sumsq!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @classmethod
    def from_amplitudes(cls, amps: Sequence[complex]) -> "StateVector":
        """Build a state from raw amplitudes, inferring the qubit count."""
        arr = np.asarray(amps, dtype=complex).reshape(-1)
        n = int(np.log2(arr.shape[0])) if arr.shape[0] > 0 else 0
        if 2**n != arr.shape[0] or not 1 <= n <= MAX_QUBITS:
            raise DimensionError(f"amplitude count {arr.shape[0]} is not 2, 4 or 8")
        return cls(n, arr)

    @classmethod
    def from_json(cls, obj: Any) -> "StateVector":
        """Inverse of :meth:`to_json`."""
        try:
            n = obj["n"]
            pairs = obj["amps"]
            amps = np.array([complex(re, im) for re, im in pairs])
        except (TypeError, KeyError, ValueError, OverflowError) as exc:  # an int past the float range
            raise ValidationError(f"malformed state-vector JSON: {exc}") from exc
        return cls(n, amps)

    def to_json(self) -> dict:
        """JSON form used by traces: {"n": ..., "amps": [[re, im], ...]}."""
        return {"n": self.qubit_count, "amps": [[z.real, z.imag] for z in self.amps.tolist()]}

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def isclose(self, other: "StateVector", atol: float = ATOL) -> bool:
        """Amplitude-wise equality within ``atol`` (phase-sensitive)."""
        return (
            self.qubit_count == other.qubit_count
            and bool(np.max(np.abs(self.amps - other.amps)) <= atol)
        )

    def __repr__(self) -> str:
        return f"StateVector(n={self.qubit_count}, amps={np.round(self.amps, 6)!r})"


def basis_state(qubit_count: int, index: int) -> StateVector:
    """Computational basis state |index> on ``qubit_count`` qubits."""
    dim = 2**qubit_count
    if not 0 <= index < dim:
        raise DimensionError(f"basis index {index} out of range for {qubit_count} qubits")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(qubit_count, amps)


def single_qubit(alpha: complex, beta: complex) -> StateVector:
    """One-qubit state alpha|0> + beta|1> (must already be normalized)."""
    return StateVector(1, np.array([alpha, beta], dtype=complex))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product with ``a``'s qubits in the high-order positions."""
    total = a.qubit_count + b.qubit_count
    if total > MAX_QUBITS:
        raise DimensionError(
            f"tensor product would need {total} qubits; the register is capped at {MAX_QUBITS}"
        )
    return StateVector(total, np.multiply.outer(a.amps, b.amps).reshape(-1))


def apply_1q(state: StateVector, u: np.ndarray, target: int) -> StateVector:
    """Apply a 2x2 unitary to the 1-based ``target`` qubit, on its axis of the register."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise DimensionError(f"expected a 2x2 matrix, got shape {u.shape}")
    (a, b), (c, d) = u.tolist()
    # every entry of u u^dagger - I within ATOL; its (1, 0) entry is the conjugate of (0, 1)
    gram = (a * a.conjugate() + b * b.conjugate() - 1, a * c.conjugate() + b * d.conjugate(),
            c * c.conjugate() + d * d.conjugate() - 1)
    if not all(abs(entry) <= ATOL for entry in gram):
        raise ValidationError("matrix is not unitary within tolerance")
    n = state.qubit_count
    if not 1 <= target <= n:
        raise IndexError(f"target qubit {target} out of range for a {n}-qubit state")
    psi = state.amps.reshape(2 ** (target - 1), 2, -1)
    # einsum sums onto +0.0, so a zero amplitude is +0.0 in a trace (matmul can give -0.0)
    return StateVector(n, np.einsum("ij,ajb->aib", u, psi).reshape(-1))


def overlap(a: StateVector, b: StateVector) -> complex:
    """Inner product <a|b>."""
    if a.qubit_count != b.qubit_count:
        raise DimensionError(
            f"overlap needs equal qubit counts, got {a.qubit_count} and {b.qubit_count}"
        )
    return complex(np.vdot(a.amps, b.amps))


def equal_up_to_global_phase(a: StateVector, b: StateVector, atol: float = ATOL) -> bool:
    """True iff |<a|b>| = 1 within ``atol``."""
    return abs(abs(overlap(a, b)) - 1.0) <= atol


@dataclass(frozen=True, eq=False)
class ProjectiveBasis:
    """Mutually orthogonal projectors that sum to the identity.

    ``ProjectiveBasis(projectors)`` takes any sequence of equal square
    matrices. They are checked once, here, and held as one read-only
    ``(k, dim, dim)`` stack, so a basis built once can be measured
    against any number of times without re-checking it. Iterating it
    yields the individual projectors.
    """

    stack: np.ndarray

    def __post_init__(self):
        try:
            stack = np.stack([np.asarray(p, dtype=complex) for p in self.stack])
        except ValueError as exc:
            raise DimensionError(f"projectors have inconsistent shapes: {exc}") from exc
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise DimensionError(
                f"projectors must be square matrices, got shape {stack.shape[1:]}"
            )
        dim = stack.shape[-1]
        if np.max(np.abs(stack.sum(axis=0) - np.eye(dim))) > ATOL:
            raise ValidationError("projectors do not sum to the identity")
        products = np.einsum("aij,bjk->abik", stack, stack)
        expected = np.zeros_like(products)
        idx = np.arange(stack.shape[0])
        expected[idx, idx] = stack
        if np.max(np.abs(products - expected)) > ATOL:
            raise ValidationError("projectors are not mutually orthogonal idempotents")
        object.__setattr__(self, "stack", readonly(stack))

    def __iter__(self):
        return iter(self.stack)


def _probabilities(
    state: StateVector, projectors: "ProjectiveBasis | Sequence[np.ndarray]"
) -> tuple[ProjectiveBasis, np.ndarray]:
    basis = projectors if isinstance(projectors, ProjectiveBasis) else ProjectiveBasis(projectors)
    dim = 2**state.qubit_count
    if basis.stack.shape[-1] != dim:
        raise DimensionError(
            f"projectors must be {dim}x{dim} matrices, got shape {basis.stack.shape[1:]}"
        )
    probs = np.einsum("i,kij,j->k", state.amps.conj(), basis.stack, state.amps).real
    return basis, np.maximum(probs, 0.0)


def _collapse(state: StateVector, basis: ProjectiveBasis, k: int, probability: float) -> StateVector:
    """The state after outcome ``k`` of probability ``probability``: P_k psi / sqrt(p)."""
    return StateVector(state.qubit_count, (basis.stack[k] @ state.amps) / np.sqrt(probability))


def branch_probabilities(
    state: StateVector, projectors: "ProjectiveBasis | Sequence[np.ndarray]"
) -> np.ndarray:
    """Outcome probabilities ||P_k psi||^2 for a projective resolution.

    A plain sequence of projectors is checked as a ``ProjectiveBasis``
    on every call; a ``ProjectiveBasis`` was checked when it was built.
    """
    return _probabilities(state, projectors)[1]


def measure_projective(
    state: StateVector,
    projectors: "ProjectiveBasis | Sequence[np.ndarray]",
    rand: RandomSource,
) -> tuple[int, StateVector, float]:
    """Projective measurement: sample an outcome, collapse, renormalize.

    Consumes exactly one uniform draw from ``rand``. Returns the outcome
    index, the collapsed (renormalized) state, and the outcome's exact
    probability. ``projectors`` are checked as in :func:`branch_probabilities`.
    """
    basis, probs = _probabilities(state, projectors)
    weights = probs.tolist()
    r = rand.uniform()
    # the first branch whose running total exceeds r, or the last if rounding leaves r above all
    k = next((i for i, total in enumerate(accumulate(weights)) if total > r), len(weights) - 1)
    if weights[k] <= 0.0:  # float-boundary landing on a zero-width branch
        k = weights.index(max(weights))
    return k, _collapse(state, basis, k, weights[k]), weights[k]


def computational_projectors(qubit_count: int) -> list[np.ndarray]:
    """Rank-1 projectors onto every computational basis state."""
    return [np.diag(row) for row in np.eye(2**qubit_count, dtype=complex)]
