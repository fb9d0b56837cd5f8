"""Identity-verification suites behind ``icl-qproto verify``.

Each check reports the worst deviation it measured and the bound it must
stay within. The teleport suite runs on 100 inputs drawn from a seeded
``random.Random``, so a suite prints the same bytes on every run.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator

# Each suite imports the protocol modules it checks; reading SUITES compiles none.
from . import phasespace
from .measure import BELL_BASIS, UA_BELL_BASIS, branch_probabilities
from .phasespace import BELL_ORDER, BellState, HState
from .statevec import (
    SIGMA_X,
    SIGMA_Z,
    Matrix,
    Record,
    apply_1q,
    basis_state,
    identity,
    max_deviation,
    overlap,
    tensor,
)


class CheckResult(Record):
    """One check: the worst deviation it measured and the bound it must stay within."""

    __slots__ = ("name", "deviation", "bound")
    name: str
    deviation: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.bound

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name}: {status} (max dev {self.deviation:.3e}, bound {self.bound:.0e})"


def _matrix_deviation(a: Matrix, b: Matrix) -> float:
    return max(map(max_deviation, a, b))


# (a, b, i, j): (a + b)/sqrt(2) = |i> and (a - b)/sqrt(2) = |j>
_SUPERPOSITIONS = (
    (BellState.PHI_PLUS, BellState.PHI_MINUS, 0, 3),
    (BellState.PSI_PLUS, BellState.PSI_MINUS, 1, 2),
    (HState.H0, HState.H1, 0, 2),
    (HState.H2, HState.H3, 0, 1),
    (HState.H4, HState.H5, 2, 3),
)


def _check_phase_space() -> Iterator[CheckResult]:
    m = phasespace.DFT4
    eye = identity(4)
    yield CheckResult("dft4-unitarity", _matrix_deviation(m @ m.dagger(), eye), 1e-12)
    expected = {
        BellState.PHI_PLUS: (1, 0, 0, 1),
        BellState.PHI_MINUS: (1, 0, 0, -1),
        BellState.PSI_PLUS: (0, 1, 1, 0),
        BellState.PSI_MINUS: (0, 1, -1, 0),
    }
    dev = max(
        max_deviation(tag.vector().amps, [x / math.sqrt(2) for x in expected[tag]])
        for tag in BELL_ORDER
    )
    yield CheckResult("bell-construction", dev, 1e-12)
    gram = Matrix([[overlap(a.vector(), b.vector()) for b in BELL_ORDER] for a in BELL_ORDER])
    yield CheckResult("bell-orthonormality", _matrix_deviation(gram, eye), 1e-12)
    yield CheckResult("transform-round-trip", _matrix_deviation(m.dagger() @ m, eye), 1e-12)
    dev = max(
        max_deviation(
            [(x + sign * y) / math.sqrt(2) for x, y in zip(a.vector().amps, b.vector().amps)],
            basis_state(2, index).amps,
        )
        for a, b, *indexes in _SUPERPOSITIONS
        for sign, index in zip((+1, -1), indexes)
    )
    yield CheckResult("superposition-identities", dev, 1e-12)
    dev = max(abs(phasespace.pair_determinant(member.vector())) for member in HState)
    yield CheckResult("h-state-separability", dev, 1e-12)


def _check_icl() -> Iterator[CheckResult]:
    from . import icl

    diagram = icl.IclDiagram(2, +1)
    failures = 0.0
    for n in range(17):
        want = BellState.PHI_PLUS if n % 2 == 0 else BellState.PSI_PLUS
        state = icl.diagram_to_state(diagram)
        if diagram.chain_length != 2 + n or not state.isclose(want.vector()):
            failures += 1
        diagram = icl.extend_sigma_x(diagram)
    yield CheckResult("chain-parity-law", failures, 0.0)

    dev = 0.0
    for tag in BELL_ORDER:
        state = icl.diagram_to_state(icl.state_to_diagram(tag))
        dev = max(dev, abs(abs(overlap(state, tag.vector())) - 1.0))
    yield CheckResult("diagram-round-trip", dev, 1e-12)

    dev = 0.0
    for tag in BELL_ORDER:
        d = icl.state_to_diagram(tag)
        grown = icl.diagram_to_state(icl.extend_sigma_x(d))
        flipped = apply_1q(icl.diagram_to_state(d), SIGMA_X, 1)
        dev = max(dev, abs(abs(overlap(grown, flipped)) - 1.0))
        phased = icl.diagram_to_state(icl.apply_sigma_z(d))
        rotated = apply_1q(icl.diagram_to_state(d), SIGMA_Z, 1)
        dev = max(dev, abs(abs(overlap(phased, rotated)) - 1.0))
    yield CheckResult("pauli-commutation", dev, 1e-12)

    wrong = 0.0
    for member in HState:
        if icl.classify(member.vector()).kind is not icl.IclKind.PRODUCT:
            wrong += 1
    for tag in BELL_ORDER:
        got = icl.classify(tag.vector())
        if got.kind is not icl.IclKind.BELL or got.bell is not tag:
            wrong += 1
    yield CheckResult("classifier-canonical-states", wrong, 0.0)


def _check_teleport() -> Iterator[CheckResult]:
    from . import teleport

    rng = random.Random(7)
    inputs = []
    for _ in range(100):
        a, b = (complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2))
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        inputs.append(teleport.InputQubit(a / norm, b / norm))
    dev = 0.0
    for u in inputs:
        joint = tensor(u.state(), BellState.PHI_PLUS.vector())
        rebuilt = [0j] * 8  # the branches re-summed: 1/2 sum_k |B_k> (x) bob_k
        for tag, bob in teleport.decompose(u).items():
            for i, z in enumerate(tensor(tag.vector(), bob).amps):
                rebuilt[i] += 0.5 * z
        dev = max(dev, max_deviation(rebuilt, joint.amps))
    yield CheckResult("decomposition-reconstruction", dev, 1e-10)

    dev = 0.0
    for u in inputs[:25]:
        joint = tensor(u.state(), BellState.PHI_PLUS.vector())
        probs = branch_probabilities(joint, UA_BELL_BASIS)
        dev = max(dev, *(abs(p - 0.25) for p in probs))
    yield CheckResult("branch-probabilities", dev, 1e-12)

    dev = 0.0
    for u in inputs[:25]:
        for tag in BELL_ORDER:
            trace = teleport.run_teleportation(u, 0, force_outcome=tag)
            dev = max(dev, 1.0 - trace.verdict["fidelity"])
    yield CheckResult("forced-outcome-fidelity", dev, 1e-10)

    dev = 0.0
    for u in inputs[:25]:
        marginal = [0.0, 0.0]
        for bob in teleport.decompose(u).values():
            for i, p in enumerate(bob.probabilities()):
                marginal[i] += 0.25 * p  # each branch has probability (1/2)**2
        dev = max(dev, *(abs(m - 0.5) for m in marginal))
    yield CheckResult("no-signaling-marginal", dev, 1e-12)


def _check_superdense() -> Iterator[CheckResult]:
    from . import superdense
    from .harness import Message2

    messages = [Message2(b1, b0) for b1 in (0, 1) for b0 in (0, 1)]
    wrong = float(sum(superdense.decode(superdense.encode(m)) != m for m in messages))
    yield CheckResult("round-trip", wrong, 0.0)

    encoded = [superdense.encode(m) for m in messages]
    dev = max(abs(overlap(encoded[i], encoded[j])) for i in range(4) for j in range(4) if i != j)
    yield CheckResult("encoded-orthogonality", dev, 1e-12)

    dev = 0.0
    for state in encoded:
        probs = state.probabilities()
        for value in (probs[0] + probs[2], probs[1] + probs[3]):
            dev = max(dev, abs(value - 0.5))
    yield CheckResult("receiver-marginal", dev, 1e-12)

    dev = 0.0
    for state in encoded:
        probs = branch_probabilities(state, BELL_BASIS)
        dev = max(dev, abs(1.0 - max(probs)))
    yield CheckResult("decode-certainty", dev, 1e-12)


SUITES = {
    "phase-space": _check_phase_space,
    "icl": _check_icl,
    "teleport": _check_teleport,
    "superdense": _check_superdense,
}


def verify(suite: str) -> list[CheckResult]:
    """Run one identity suite (or all of them) and return the results."""
    if suite == "all":
        return [result for check in SUITES.values() for result in check()]
    return list(SUITES[suite]())
