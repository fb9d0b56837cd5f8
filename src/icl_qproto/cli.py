"""Command-line front end: protocols, state inspection, the verification suites.

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
import re
import sys
from typing import Any, Sequence

from . import harness, icl, superdense, teleport
from .harness import (
    MAX_SEED,
    SEED_ENV_VAR,
    HandshakeError,
    Message2,
    TraceWriteError,
    TransportError,
    emit_trace,
)
from .phasespace import BELL_ORDER, BellState, HState
from .statevec import StateVector, ValidationError
from .verify import SUITES, verify

class UsageError(Exception):
    """Command line could not be parsed into a valid command."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes a "-" word as a value only if it looks negative; "-0.6,0" does too
        negative = self._negative_number_matcher.pattern
        self._negative_number_matcher = re.compile(r"^-\.?\d[^,]*,[^,]*$|" + negative)

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
    if host.startswith("[") and host.endswith("]"):  # an IPv6 literal, as in [::1]:9000
        host = host[1:-1]
    if not sep or not host or "[" in host or "]" in host:
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

    verify_cmd = sub.add_parser("verify", help="run the identity checks")
    verify_cmd.add_argument("suite", nargs="?", choices=["all", *SUITES], default="all")
    verify_cmd.add_argument("--json", action="store_true")

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
        return _seed_value(raw)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{SEED_ENV_VAR}: {exc}") from None


def _normalized_pair(alpha: complex, beta: complex) -> tuple[complex, complex]:
    try:
        norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    except OverflowError:  # |alpha| or |beta| past about 1.3e154
        norm = math.inf
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


def parse(argv: Sequence[str]) -> argparse.Namespace:
    """Turn an argv into validated options or raise UsageError.

    ``.command`` on the result names the subcommand.
    """
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
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested past the stack
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
    return ns


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
        ns = parse(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _RUNNERS[ns.command](ns)
    except (TraceWriteError, TransportError, HandshakeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
