"""Command-line front end: protocols, state inspection, verification suites.

Subcommands: teleport, superdense, bell, icl, verify, wire. Exit codes:
0 success, 1 verification failure, 2 usage error, 3 I/O or transport
error. When ``--seed`` is omitted, the ICL_QPROTO_SEED environment
variable is consulted before falling back to 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from . import harness, icl, phasespace, superdense, teleport
from .harness import (
    MAX_SEED,
    SEED_ENV_VAR,
    HandshakeError,
    Message2,
    TraceWriteError,
    TransportError,
    emit_trace,
)
from .phasespace import BELL_ORDER, BellState, HState, Sector
from .statevec import (
    SIGMA_X,
    SIGMA_Z,
    StateVector,
    ValidationError,
    apply_1q,
    branch_probabilities,
    overlap,
    tensor,
)

SUITES = ("all", "phase-space", "icl", "teleport", "superdense")


class UsageError(Exception):
    """Command line could not be parsed into a valid command."""


@dataclass(frozen=True)
class Command:
    name: str
    options: argparse.Namespace


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # raise instead of exiting, so parse() is total
        raise UsageError(message)


def _complex_pair(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"expected a complex number as 're,im', got {text!r}"
        )
    try:
        real, imag = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected decimal components in {text!r}"
        ) from None
    if not (math.isfinite(real) and math.isfinite(imag)):
        raise argparse.ArgumentTypeError(f"components must be finite, got {text!r}")
    return complex(real, imag)


def _seed_value(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}") from None
    if not 0 <= seed <= MAX_SEED:
        raise argparse.ArgumentTypeError(f"seed must fit in 64 bits, got {text}")
    return seed


def _endpoint(text: str) -> tuple[str, int]:
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(f"expected host:port, got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"port must be an integer in {text!r}") from None
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"port out of range in {text!r}")
    return host, port


def build_parser() -> _Parser:
    parser = _Parser(prog="icl-qproto", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    tele = sub.add_parser("teleport", help="run quantum teleportation")
    tele.add_argument("--alpha", type=_complex_pair, required=True, metavar="RE,IM")
    tele.add_argument("--beta", type=_complex_pair, required=True, metavar="RE,IM")
    tele.add_argument("--seed", type=_seed_value, default=None)
    tele.add_argument(
        "--force-outcome", choices=[t.value for t in BELL_ORDER], default=None
    )
    tele.add_argument("--trace", metavar="PATH", default=None)
    tele.add_argument("--json", action="store_true")

    dense = sub.add_parser("superdense", help="run superdense coding")
    dense.add_argument("--message", required=True, metavar="BITS")
    dense.add_argument("--trace", metavar="PATH", default=None)
    dense.add_argument("--json", action="store_true")

    bell = sub.add_parser("bell", help="inspect the canonical Bell and H states")
    bell.add_argument("--list", action="store_true", dest="list_states")
    bell.add_argument("--json", action="store_true")

    icl_cmd = sub.add_parser("icl", help="classify a two-qubit state")
    icl_cmd.add_argument("--state", required=True, metavar="JSON")
    icl_cmd.add_argument("--json", action="store_true")

    verify = sub.add_parser("verify", help="run the identity checks")
    verify.add_argument("suite", nargs="?", choices=SUITES, default="all")
    verify.add_argument("--json", action="store_true")

    wire = sub.add_parser("wire", help="two-process demo over TCP")
    wire.add_argument("--role", choices=["alice", "bob"], required=True)
    wire.add_argument("--endpoint", type=_endpoint, required=True, metavar="HOST:PORT")
    wire.add_argument("--protocol", choices=["teleport", "superdense"], required=True)
    wire.add_argument("--alpha", type=_complex_pair, default=None, metavar="RE,IM")
    wire.add_argument("--beta", type=_complex_pair, default=None, metavar="RE,IM")
    wire.add_argument("--message", default=None, metavar="BITS")
    wire.add_argument("--seed", type=_seed_value, default=None)
    wire.add_argument("--json", action="store_true")
    return parser


def _env_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        seed = int(raw)
    except ValueError:
        raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
    if not 0 <= seed <= MAX_SEED:
        raise UsageError(f"{SEED_ENV_VAR} must fit in 64 bits, got {raw}")
    return seed


def _normalized_pair(alpha: complex, beta: complex) -> tuple[complex, complex]:
    norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    if abs(norm - 1.0) > 1e-6:
        raise UsageError(
            f"alpha/beta must be normalized (|norm - 1| <= 1e-6), got norm {norm!r}"
        )
    return alpha / norm, beta / norm


def _message_bits(text: str) -> Message2:
    try:
        return Message2.from_string(text)
    except ValidationError as exc:
        raise UsageError(f"--message: {exc}") from None


def parse(argv: Sequence[str]) -> Command:
    """Turn an argv into a validated Command or raise UsageError."""
    parser = build_parser()
    ns = parser.parse_args(list(argv))
    if ns.command is None:
        raise UsageError("a subcommand is required (see --help)")

    if ns.command == "teleport":
        ns.alpha, ns.beta = _normalized_pair(ns.alpha, ns.beta)
        if ns.seed is None:
            ns.seed = _env_seed()
    elif ns.command == "bell":
        if not ns.list_states:
            raise UsageError("bell requires --list")
    elif ns.command == "superdense":
        ns.message = _message_bits(ns.message)
    elif ns.command == "icl":
        try:
            raw = json.loads(ns.state)
            ns.state = StateVector.from_json(raw)
        except json.JSONDecodeError as exc:
            raise UsageError(f"--state is not valid JSON: {exc}") from None
        except (ValidationError, ValueError) as exc:
            raise UsageError(f"--state: {exc}") from None
        n = raw["n"]
        if isinstance(n, bool) or n != 2:
            raise UsageError(f'--state must be a two-qubit state ("n": 2), got n={n!r}')
    elif ns.command == "wire":
        if ns.protocol == "teleport":
            if ns.alpha is None or ns.beta is None:
                raise UsageError("wire teleport needs --alpha and --beta")
            ns.alpha, ns.beta = _normalized_pair(ns.alpha, ns.beta)
        else:
            if ns.message is None:
                raise UsageError("wire superdense needs --message")
            ns.message = _message_bits(ns.message)
        if ns.seed is None:
            ns.seed = _env_seed()
    return Command(ns.command, ns)


# --- verification suites ----------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    bound: float

    def __post_init__(self):
        object.__setattr__(self, "deviation", float(self.deviation))
        object.__setattr__(self, "bound", float(self.bound))

    @property
    def passed(self) -> bool:
        return self.deviation <= self.bound

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name}: {status} (max dev {self.deviation:.3e}, bound {self.bound:.0e})"


def _random_inputs(count: int, seed: int = 7) -> list[teleport.InputQubit]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        raw /= np.linalg.norm(raw)
        out.append(teleport.InputQubit(raw[0], raw[1]))
    return out


def _check_phase_space() -> list[CheckResult]:
    results = []
    m = phasespace.dft4()
    results.append(
        CheckResult("dft4-unitarity", float(np.max(np.abs(m @ m.conj().T - np.eye(4)))), 1e-12)
    )
    expected = {
        BellState.PHI_PLUS: np.array([1, 0, 0, 1]) / math.sqrt(2),
        BellState.PHI_MINUS: np.array([1, 0, 0, -1]) / math.sqrt(2),
        BellState.PSI_PLUS: np.array([0, 1, 1, 0]) / math.sqrt(2),
        BellState.PSI_MINUS: np.array([0, 1, -1, 0]) / math.sqrt(2),
    }
    dev = max(
        float(np.max(np.abs(tag.vector().amps - expected[tag]))) for tag in BELL_ORDER
    )
    results.append(CheckResult("bell-construction", dev, 1e-12))
    vectors = np.array([tag.vector().amps for tag in BELL_ORDER])
    gram = vectors.conj() @ vectors.T
    results.append(
        CheckResult("bell-orthonormality", float(np.max(np.abs(gram - np.eye(4)))), 1e-12)
    )
    quartet = phasespace.wannier_to_bloch(phasespace.wannier_basis())
    back = phasespace.bloch_to_wannier(quartet)
    dev = max(
        float(np.max(np.abs(s.amps - phasespace.basis_state(2, i).amps)))
        for i, s in enumerate(back)
    )
    results.append(CheckResult("transform-round-trip", dev, 1e-12))
    identities = phasespace.bell_superpositions() + phasespace.h_state_superpositions()
    results.append(
        CheckResult(
            "superposition-identities",
            max(entry.deviation for entry in identities),
            1e-12,
        )
    )
    dev = max(
        abs(phasespace.pair_determinant(member.vector())) for member in phasespace.h_states()
    )
    results.append(CheckResult("h-state-separability", dev, 1e-12))
    return results


def _check_icl() -> list[CheckResult]:
    results = []
    diagram = icl.IclDiagram(2, Sector.EVEN, +1)
    failures = 0.0
    for n in range(17):
        want = BellState.PHI_PLUS if n % 2 == 0 else BellState.PSI_PLUS
        state = icl.diagram_to_state(diagram)
        if diagram.chain_length != 2 + n or not state.isclose(want.vector()):
            failures += 1
        diagram = icl.extend_sigma_x(diagram)
    results.append(CheckResult("chain-parity-law", failures, 0.0))

    dev = 0.0
    for tag in BELL_ORDER:
        state = icl.diagram_to_state(icl.state_to_diagram(tag))
        dev = max(dev, abs(abs(overlap(state, tag.vector())) - 1.0))
    results.append(CheckResult("diagram-round-trip", dev, 1e-12))

    dev = 0.0
    for tag in BELL_ORDER:
        d = icl.state_to_diagram(tag)
        grown = icl.diagram_to_state(icl.extend_sigma_x(d))
        flipped = apply_1q(icl.diagram_to_state(d), SIGMA_X, 1)
        dev = max(dev, abs(abs(overlap(grown, flipped)) - 1.0))
        phased = icl.diagram_to_state(icl.apply_sigma_z(d))
        rotated = apply_1q(icl.diagram_to_state(d), SIGMA_Z, 1)
        dev = max(dev, abs(abs(overlap(phased, rotated)) - 1.0))
    results.append(CheckResult("pauli-commutation", dev, 1e-12))

    wrong = 0.0
    for member in phasespace.h_states():
        if icl.classify(member.vector()).kind is not icl.IclKind.PRODUCT:
            wrong += 1
    for tag in BELL_ORDER:
        got = icl.classify(tag.vector())
        if got.kind is not icl.IclKind.BELL or got.bell is not tag:
            wrong += 1
    results.append(CheckResult("classifier-canonical-states", wrong, 0.0))
    return results


def _check_teleport() -> list[CheckResult]:
    results = []
    inputs = _random_inputs(100)
    dev = 0.0
    for u in inputs:
        joint = tensor(u.state(), BellState.PHI_PLUS.vector())
        rebuilt = teleport.decompose(u).reconstruct()
        dev = max(dev, float(np.max(np.abs(rebuilt.amps - joint.amps))))
    results.append(CheckResult("decomposition-reconstruction", dev, 1e-10))

    dev = 0.0
    for u in inputs[:25]:
        joint = tensor(u.state(), BellState.PHI_PLUS.vector())
        probs = branch_probabilities(joint, teleport.UA_BELL_BASIS)
        dev = max(dev, float(np.max(np.abs(probs - 0.25))))
    results.append(CheckResult("branch-probabilities", dev, 1e-12))

    dev = 0.0
    for u in inputs[:25]:
        for tag in BELL_ORDER:
            trace = teleport.run_teleportation(u, 0, force_outcome=tag)
            dev = max(dev, 1.0 - trace.verdict["fidelity"])
    results.append(CheckResult("forced-outcome-fidelity", dev, 1e-10))

    dev = 0.0
    for u in inputs[:25]:
        entries = teleport.decompose(u).entries
        marginal = sum(e.coefficient**2 * e.conditional_bob.probabilities() for e in entries)
        dev = max(dev, float(np.max(np.abs(marginal - 0.5))))
    results.append(CheckResult("no-signaling-marginal", dev, 1e-12))
    return results


def _check_superdense() -> list[CheckResult]:
    results = []
    messages = [Message2(b1, b0) for b1 in (0, 1) for b0 in (0, 1)]
    wrong = sum(
        1.0 for m in messages if superdense.decode(superdense.encode(m)) != m
    )
    results.append(CheckResult("round-trip", wrong, 0.0))

    encoded = [superdense.encode(m) for m in messages]
    dev = max(
        abs(overlap(encoded[i], encoded[j]))
        for i in range(4)
        for j in range(4)
        if i != j
    )
    results.append(CheckResult("encoded-orthogonality", dev, 1e-12))

    dev = 0.0
    for state in encoded:
        probs = state.probabilities()
        for value in (probs[0] + probs[2], probs[1] + probs[3]):
            dev = max(dev, abs(value - 0.5))
    results.append(CheckResult("receiver-marginal", dev, 1e-12))

    dev = 0.0
    for state in encoded:
        probs = branch_probabilities(state, phasespace.BELL_BASIS)
        dev = max(dev, abs(1.0 - float(np.max(probs))))
    results.append(CheckResult("decode-certainty", dev, 1e-12))
    return results


_SUITE_CHECKS = {
    "phase-space": _check_phase_space,
    "icl": _check_icl,
    "teleport": _check_teleport,
    "superdense": _check_superdense,
}


def verify(suite: str) -> list[CheckResult]:
    """Run one identity suite (or all of them) and return the results."""
    if suite == "all":
        return [result for check in _SUITE_CHECKS.values() for result in check()]
    if suite not in _SUITE_CHECKS:
        raise UsageError(f"unknown suite {suite!r} (choose from {', '.join(SUITES)})")
    return _SUITE_CHECKS[suite]()


# --- command execution -------------------------------------------------------


def _print_json(obj: Any) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _cmd_teleport(ns: argparse.Namespace) -> int:
    u = teleport.InputQubit(ns.alpha, ns.beta)
    force = BellState.from_tag(ns.force_outcome) if ns.force_outcome else None
    trace = teleport.run_teleportation(u, ns.seed, force_outcome=force)
    harness.validate_trace(trace)
    if ns.trace:
        emit_trace(trace, ns.trace)
    measurement = trace.events[2].payload
    summary = {
        "protocol": "teleport",
        "seed": ns.seed,
        "outcome": measurement["outcome"],
        "bits": measurement["bits"],
        "fidelity": trace.verdict["fidelity"],
    }
    if ns.json:
        _print_json(summary)
    else:
        print(f"teleport seed={ns.seed}")
        print(f"  outcome  {summary['outcome']} (bits {summary['bits']})")
        print(f"  fidelity {summary['fidelity']:.12f}")
    return 0


def _cmd_superdense(ns: argparse.Namespace) -> int:
    trace = superdense.run_superdense(ns.message)
    harness.validate_trace(trace)
    if ns.trace:
        emit_trace(trace, ns.trace)
    encoded = trace.events[1].payload
    summary = {
        "protocol": "superdense",
        "message": str(ns.message),
        "unitary": encoded["unitary"],
        "decoded": trace.verdict["decoded"],
    }
    if ns.json:
        _print_json(summary)
    else:
        print(f"superdense message={summary['message']}")
        print(f"  unitary {summary['unitary']}")
        print(f"  decoded {summary['decoded']}")
    return 0


def _cmd_bell(ns: argparse.Namespace) -> int:
    listing = {
        "bell": [
            {
                "tag": tag.value,
                "sector": tag.sector.value,
                "phase": tag.phase,
                "state": tag.vector().to_json(),
            }
            for tag in BELL_ORDER
        ],
        "h": [
            {"tag": member.value, "state": member.vector().to_json()}
            for member in HState
        ],
    }
    _print_json(listing)
    return 0


def _cmd_icl(ns: argparse.Namespace) -> int:
    result = icl.classify(ns.state)
    out = result.to_json()
    if result.bell is not None:
        out["diagram"] = icl.state_to_diagram(result.bell).to_json()
    _print_json(out)
    return 0


def _cmd_verify(ns: argparse.Namespace) -> int:
    results = verify(ns.suite)
    if ns.json:
        _print_json(
            [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "deviation": r.deviation,
                    "bound": r.bound,
                }
                for r in results
            ]
        )
    else:
        for r in results:
            print(r.line())
    return 0 if all(r.passed for r in results) else 1


def _cmd_wire(ns: argparse.Namespace) -> int:
    host, port = ns.endpoint
    kwargs: dict[str, Any] = {"seed": ns.seed}
    if ns.protocol == "teleport":
        kwargs["input_qubit"] = teleport.InputQubit(ns.alpha, ns.beta)
    else:
        kwargs["message"] = ns.message
    verdicts: list[str] = []
    status = harness.run_wire_demo(
        ns.role,
        host,
        port,
        ns.protocol,
        verdict_callback=verdicts.append,
        **kwargs,
    )
    if ns.json:
        _print_json({"role": ns.role, "status": status, "verdict": verdicts[0]})
    else:
        print(f"{ns.role}: {verdicts[0]}")
    return status


_RUNNERS = {
    "teleport": _cmd_teleport,
    "superdense": _cmd_superdense,
    "bell": _cmd_bell,
    "icl": _cmd_icl,
    "verify": _cmd_verify,
    "wire": _cmd_wire,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        command = parse(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _RUNNERS[command.name](command.options)
    except (TraceWriteError, TransportError, HandshakeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
