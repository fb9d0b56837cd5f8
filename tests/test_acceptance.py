"""Acceptance suite: one test per criterion, tolerances pinned.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
``-rA``). Tolerances here are the package's exit criteria and must not
be loosened.
"""

import threading

import numpy as np

from icl_qproto.harness import Message2, emit_trace
from icl_qproto.icl import IclClass, IclDiagram, IclKind, classify, diagram_to_state, extend_sigma_x, state_to_diagram
from icl_qproto.measure import branch_probabilities
from icl_qproto.phasespace import BELL_ORDER, DFT4, BellState, HState, Sector
from icl_qproto.statevec import (
    SIGMA_X,
    SIGMA_Z,
    StateVector,
    apply_1q,
    overlap,
    tensor,
)
from icl_qproto.superdense import decode, encode
from icl_qproto.teleport import UA_BELL_BASIS, InputQubit, run_teleportation
from icl_qproto.verify import _SUPERPOSITIONS, verify
from icl_qproto.wire import run_wire_demo
from oracles import BELL, classify_oracle, random_state


def _report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {status} ({detail})")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def _random_inputs(count: int, seed: int) -> list[InputQubit]:
    rng = np.random.default_rng(seed)
    return [InputQubit(*random_state(rng, 2)) for _ in range(count)]


def test_01_dft_unitarity():
    m = np.asarray(DFT4)
    dev = float(np.max(np.abs(m @ m.conj().T - np.eye(4))))
    _report(1, "dft4-unitarity", dev < 1e-12, f"max dev {dev:.3e}")


def test_02_bell_construction():
    dev = 0.0
    for sector, tags in ((Sector.EVEN, ("phi+", "phi-")), (Sector.ODD, ("psi+", "psi-"))):
        for member, tag in zip((t for t in BELL_ORDER if t.sector is sector), tags):
            dev = max(dev, float(np.max(np.abs(member.vector().amps - BELL[tag]))))
    vectors = np.array([t.vector().amps for t in BELL_ORDER])
    gram_dev = float(np.max(np.abs(vectors.conj() @ vectors.T - np.eye(4))))
    passed = dev < 1e-12 and gram_dev < 1e-12
    _report(2, "bell-construction", passed, f"amp dev {dev:.3e}, gram dev {gram_dev:.3e}")


def test_03_pauli_transitions():
    cases = [
        (SIGMA_X, BellState.PHI_PLUS, BellState.PSI_PLUS),
        (SIGMA_Z, BellState.PHI_PLUS, BellState.PHI_MINUS),
        (SIGMA_Z, BellState.PSI_PLUS, BellState.PSI_MINUS),
    ]
    worst = 1.0
    for gate, start, want in cases:
        moved = apply_1q(start.vector(), gate, 1)
        worst = min(worst, abs(overlap(moved, want.vector())))
    _report(3, "pauli-transitions", worst > 1 - 1e-12, f"min |overlap| {worst:.15f}")


def test_04_superposition_identities():
    identities = 2 * len(_SUPERPOSITIONS)
    dev = {r.name: r for r in verify("phase-space")}["superposition-identities"].deviation
    passed = identities == 10 and dev < 1e-12
    _report(4, "superposition-identities", passed, f"10 identities, max dev {dev:.3e}")


def test_05_teleport_reconstruction():
    from icl_qproto.teleport import decompose

    recon_dev = 0.0
    prob_dev = 0.0
    for u in _random_inputs(100, seed=20_250_101):
        joint = tensor(u.state(), BellState.PHI_PLUS.vector())
        rebuilt = sum(0.5 * np.kron(tag.vector().amps, bob.amps) for tag, bob in decompose(u).items())
        recon_dev = max(recon_dev, float(np.max(np.abs(rebuilt - joint.amps))))
        probs = np.asarray(branch_probabilities(joint, UA_BELL_BASIS))
        prob_dev = max(prob_dev, float(np.max(np.abs(probs - 0.25))))
    passed = recon_dev < 1e-10 and prob_dev < 1e-12
    _report(
        5,
        "teleport-reconstruction",
        passed,
        f"resum dev {recon_dev:.3e}, branch-prob dev {prob_dev:.3e}",
    )


def test_06_teleport_fidelity():
    worst = 1.0
    for u in _random_inputs(100, seed=424_242):
        for tag in BELL_ORDER:
            trace = run_teleportation(u, 0, force_outcome=tag)
            worst = min(worst, trace.verdict["fidelity"])
    _report(6, "teleport-fidelity", worst > 1 - 1e-10, f"400 runs, min fidelity {worst:.15f}")


def test_07_superdense_round_trip():
    messages = [Message2(b1, b0) for b1 in (0, 1) for b0 in (0, 1)]
    encoded = [encode(m) for m in messages]
    exact = all(decode(state) == m for state, m in zip(encoded, messages))
    ortho_dev = max(
        abs(overlap(encoded[i], encoded[j])) for i in range(4) for j in range(4) if i != j
    )
    marginal_dev = 0.0
    for state in encoded:
        probs = state.probabilities()
        marginal_dev = max(
            marginal_dev, abs(probs[0] + probs[2] - 0.5), abs(probs[1] + probs[3] - 0.5)
        )
    passed = exact and ortho_dev < 1e-12 and marginal_dev < 1e-12
    _report(
        7,
        "superdense-round-trip",
        passed,
        f"4/4 decoded, ortho dev {ortho_dev:.3e}, marginal dev {marginal_dev:.3e}",
    )


def test_08_icl_model_laws():
    diagram = IclDiagram(2, +1)
    parity_ok = True
    for n in range(17):
        want = BellState.PHI_PLUS if n % 2 == 0 else BellState.PSI_PLUS
        parity_ok &= diagram.chain_length == 2 + n
        parity_ok &= diagram_to_state(diagram).isclose(want.vector())
        diagram = extend_sigma_x(diagram)

    round_trip_ok = all(
        abs(abs(overlap(diagram_to_state(state_to_diagram(tag)), tag.vector())) - 1.0) < 1e-12
        for tag in BELL_ORDER
    )
    h_ok = all(classify(member.vector()).kind is IclKind.PRODUCT for member in HState)

    rng = np.random.default_rng(314_159)
    agree = 0
    total = 0
    while total < 1000:
        kind = total % 4
        if kind == 0:
            amps = random_state(rng, 4)
        elif kind == 1:
            amps = np.kron(random_state(rng, 2), random_state(rng, 2))
        elif kind == 2:
            amps = np.zeros(4, dtype=complex)
            pair = random_state(rng, 2)
            a, b = ((0, 3), (1, 2))[rng.integers(2)]
            amps[a], amps[b] = pair
        else:
            tag = ("phi+", "phi-", "psi+", "psi-")[rng.integers(4)]
            amps = np.exp(2j * np.pi * rng.random()) * BELL[tag]
        got = classify(StateVector(2, amps))
        expected_kind, payload = classify_oracle(amps)
        matched = {
            "bell": lambda: got == IclClass(IclKind.BELL, bell=BellState.from_tag(payload)),
            "sector": lambda: got == IclClass(IclKind.SECTOR_CONFINED, sector=Sector(payload)),
            "product": lambda: got.kind is IclKind.PRODUCT,
            "generic": lambda: got.kind is IclKind.GENERIC,
        }[expected_kind]()
        agree += matched
        total += 1

    passed = parity_ok and round_trip_ok and h_ok and agree == total
    _report(
        8,
        "icl-model-laws",
        passed,
        f"parity {parity_ok}, round-trip {round_trip_ok}, h-product {h_ok}, "
        f"oracle agreement {agree}/{total}",
    )


def test_09_determinism_and_replay(tmp_path):
    byte_identical = True
    for seed in range(3):
        blobs = []
        for run in range(2):
            trace = run_teleportation(InputQubit(0.6, 0.8), seed)
            path = tmp_path / f"t{seed}-{run}.jsonl"
            emit_trace(trace, path)
            blobs.append(path.read_bytes())
        byte_identical &= blobs[0] == blobs[1]

    u = InputQubit(0.28, 0.96)
    wire_matches = True
    for seed in range(10):
        expected = f"fidelity={run_teleportation(u, seed).verdict['fidelity']!r}"
        verdicts: dict[str, str] = {}
        ready = threading.Event()
        ports: list[int] = []

        def bob():
            run_wire_demo(
                "bob", "127.0.0.1", 0, "teleport", input_qubit=u,
                ready_callback=lambda p: (ports.append(p), ready.set()),
                verdict_callback=lambda v: verdicts.__setitem__("bob", v),
            )

        thread = threading.Thread(target=bob)
        thread.start()
        assert ready.wait(10)
        status = run_wire_demo(
            "alice", "127.0.0.1", ports[0], "teleport", seed=seed, input_qubit=u,
            verdict_callback=lambda v: verdicts.__setitem__("alice", v),
        )
        thread.join(10)
        wire_matches &= status == 0
        wire_matches &= verdicts.get("alice") == expected
        wire_matches &= verdicts.get("bob") == expected

    passed = byte_identical and wire_matches
    _report(
        9,
        "determinism-and-replay",
        passed,
        f"byte-identical {byte_identical}, wire/in-process match over 10 seeds {wire_matches}",
    )


def test_10_outcome_statistics():
    u = InputQubit(0.6, 0.8)
    counts = dict.fromkeys(BELL_ORDER, 0)
    runs = 10_000
    for seed in range(runs):
        trace = run_teleportation(u, seed)
        counts[BellState.from_tag(trace.events[2].payload["outcome"])] += 1
    freqs = {tag.value: counts[tag] / runs for tag in BELL_ORDER}
    dev = max(abs(f - 0.25) for f in freqs.values())
    _report(10, "outcome-statistics", dev <= 0.02, f"freqs {freqs}, max dev {dev:.4f}")
