"""Hand-typed reference data and brute-force oracles for the test suite.

Everything here is independent of the package under test: amplitudes
are typed out by hand and products/projections are computed by explicit
loops, so the tests cannot inherit a bug from the code they check.
"""

import numpy as np

SQRT2 = np.sqrt(2.0)

# Canonical Bell amplitudes; qubit 1 is the most significant bit.
BELL = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / SQRT2,
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / SQRT2,
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / SQRT2,
    "psi-": np.array([0, 1, -1, 0], dtype=complex) / SQRT2,
}
BELL_TAGS = ("phi+", "phi-", "psi+", "psi-")

# The six unentangled Hadamard-pair states.
H_VECTORS = {
    "h0": np.array([1, 0, 1, 0], dtype=complex) / SQRT2,
    "h1": np.array([1, 0, -1, 0], dtype=complex) / SQRT2,
    "h2": np.array([1, 1, 0, 0], dtype=complex) / SQRT2,
    "h3": np.array([1, -1, 0, 0], dtype=complex) / SQRT2,
    "h4": np.array([0, 0, 1, 1], dtype=complex) / SQRT2,
    "h5": np.array([0, 0, 1, -1], dtype=complex) / SQRT2,
}

# Four-point transform, typed from its definition: row n carries the
# phases exp(i * (pi/2) * n * R) / 2 for R = 0..3.
DFT4 = (
    np.array(
        [
            [1, 1, 1, 1],
            [1, 1j, -1, -1j],
            [1, -1, 1, -1],
            [1, -1j, -1, 1j],
        ],
        dtype=complex,
    )
    / 2.0
)


def kron_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product by explicit double loop."""
    out = np.zeros(len(a) * len(b), dtype=complex)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i * len(b) + j] = x * y
    return out


def one_qubit_gate_oracle(amps: np.ndarray, u: np.ndarray, target: int) -> np.ndarray:
    """A 2x2 gate on the 1-based ``target`` qubit, through the full Kronecker matrix.

    The 2^n x 2^n matrix is filled entry by entry (``u`` on the target's
    bit, the identity on every other qubit) and applied by explicit sums
    that start from 0, as a dense matrix-vector product does.
    """
    dim = len(amps)
    bit = 1 << (dim.bit_length() - 1 - target)
    full = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            if i & ~bit == j & ~bit:
                full[i, j] = u[int(bool(i & bit)), int(bool(j & bit))]
    out = np.zeros(dim, dtype=complex)
    for i in range(dim):
        total = 0j
        for j in range(dim):
            total += full[i, j] * amps[j]
        out[i] = total
    return out


def computational_projectors(qubit_count: int) -> list[np.ndarray]:
    """Rank-1 projectors |k><k| onto every computational basis state, in index order."""
    dim = 2**qubit_count
    projectors = []
    for k in range(dim):
        p = np.zeros((dim, dim), dtype=complex)
        p[k, k] = 1
        projectors.append(p)
    return projectors


def bell_branch_probabilities_oracle(amps8: np.ndarray) -> dict[str, float]:
    """P(outcome) for a Bell measurement of qubits 1-2 of a 3-qubit state.

    Computed as sums of squared inner products against bell (x) basis
    vectors, by explicit loops.
    """
    probs = {}
    for tag, bell in BELL.items():
        total = 0.0
        for j in range(2):
            amp = 0.0 + 0.0j
            for i in range(4):
                amp += np.conj(bell[i]) * amps8[2 * i + j]
            total += abs(amp) ** 2
        probs[tag] = total
    return probs


def classify_oracle(amps4: np.ndarray, tol: float = 1e-9):
    """Independent re-derivation of the inverter-chain classification.

    Returns one of ("bell", tag), ("sector", "even"|"odd"),
    ("product", None), ("generic", None).
    """
    for tag, vec in BELL.items():
        if abs(abs(np.vdot(vec, amps4)) - 1.0) <= tol:
            return ("bell", tag)
    support = {i for i, a in enumerate(amps4) if abs(a) > tol}
    det = amps4[0] * amps4[3] - amps4[1] * amps4[2]
    entangled = abs(det) > tol
    if support <= {0, 3} and entangled:
        return ("sector", "even")
    if support <= {1, 2} and entangled:
        return ("sector", "odd")
    if not entangled:
        return ("product", None)
    return ("generic", None)


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))
