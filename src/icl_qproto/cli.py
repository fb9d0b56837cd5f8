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

# Only what parse() needs is imported here; each command imports the modules
# it runs, so a process compiles no module its subcommand does not use.
from .phasespace import BELL_ORDER, BellState, HState
from .statevec import MAX_SEED, HandshakeError, StateVector, TransportError, ValidationError

SEED_ENV_VAR = "ICL_QPROTO_SEED"


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


def _teleport_arguments(tele: _Parser) -> None:
    tele.add_argument("--alpha", type=_complex_pair, required=True, metavar="RE,IM")
    tele.add_argument("--beta", type=_complex_pair, required=True, metavar="RE,IM")
    tele.add_argument("--seed", type=_seed_value, default=None)
    tele.add_argument("--force-outcome", choices=[t.value for t in BELL_ORDER], default=None)
    tele.add_argument("--trace", metavar="PATH", default=None)
    tele.add_argument("--json", action="store_true")


def _superdense_arguments(dense: _Parser) -> None:
    dense.add_argument("--message", required=True, metavar="BITS")
    dense.add_argument("--trace", metavar="PATH", default=None)
    dense.add_argument("--json", action="store_true")


def _bell_arguments(bell: _Parser) -> None:
    bell.add_argument("--list", action="store_true", dest="list_states")
    bell.add_argument("--json", action="store_true")


def _icl_arguments(icl_cmd: _Parser) -> None:
    icl_cmd.add_argument("--state", required=True, metavar="JSON")
    icl_cmd.add_argument("--json", action="store_true")


def _verify_arguments(verify_cmd: _Parser) -> None:
    from .verify import SUITES

    verify_cmd.add_argument("suite", nargs="?", choices=["all", *SUITES], default="all")
    verify_cmd.add_argument("--json", action="store_true")


def _wire_arguments(wire: _Parser) -> None:
    wire.add_argument("--role", choices=["alice", "bob"], required=True)
    wire.add_argument("--endpoint", type=_endpoint, required=True, metavar="HOST:PORT")
    wire.add_argument("--protocol", choices=["teleport", "superdense"], required=True)
    wire.add_argument("--alpha", type=_complex_pair, default=None, metavar="RE,IM")
    wire.add_argument("--beta", type=_complex_pair, default=None, metavar="RE,IM")
    wire.add_argument("--message", default=None, metavar="BITS")
    wire.add_argument("--seed", type=_seed_value, default=None)
    wire.add_argument("--json", action="store_true")


def build_parser(command: str | None = None) -> _Parser:
    """The parser; only ``command``'s arguments are built, or all if it names no command."""
    parser = _Parser(prog="icl-qproto", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (help_text, add_arguments, _) in _COMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        if name == command or command not in _COMMANDS:
            add_arguments(subparser)
    return parser


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


def parse(argv: Sequence[str]) -> argparse.Namespace:
    """Turn an argv into validated options or raise UsageError.

    ``.command`` on the result names the subcommand. A protocol's inputs are
    checked by one rule, whether its own command or ``wire`` carries them.
    """
    parser = build_parser(argv[0] if argv else None)
    ns = parser.parse_args(list(argv))
    if ns.command is None:
        raise UsageError("a subcommand is required (see --help)")

    protocol = ns.protocol if ns.command == "wire" else ns.command
    if protocol == "teleport":
        if ns.alpha is None or ns.beta is None:  # only wire leaves them out
            raise UsageError("wire teleport needs --alpha and --beta")
        ns.alpha, ns.beta = _normalized_pair(ns.alpha, ns.beta)
    elif protocol == "superdense":
        if ns.message is None:  # only wire leaves it out
            raise UsageError("wire superdense needs --message")
        from .harness import Message2

        try:
            ns.message = Message2.from_string(ns.message)
        except ValidationError as exc:
            raise UsageError(f"--message: {exc}") from None
    elif protocol == "bell":
        if not ns.list_states:
            raise UsageError("bell requires --list")
    elif protocol == "icl":
        try:
            raw = json.loads(ns.state)
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested past the stack
            raise UsageError(f"--state is not valid JSON: {exc}") from None
        n = raw.get("n") if isinstance(raw, dict) else None
        if n != 2:  # true != 2 as well; StateVector itself rejects a boolean count
            raise UsageError(f'--state must be a two-qubit state ("n": 2), got n={n!r}')
        try:
            ns.state = StateVector.from_json(raw)
        except (ValidationError, ValueError) as exc:
            raise UsageError(f"--state: {exc}") from None
    if ns.command in ("teleport", "wire") and ns.seed is None:
        try:
            ns.seed = _seed_value(os.environ.get(SEED_ENV_VAR, "0"))
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"{SEED_ENV_VAR}: {exc}") from None
    return ns


# --- command execution -------------------------------------------------------


def _print_json(obj: Any) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _report(ns: argparse.Namespace, summary: Any, *lines: str) -> None:
    if ns.json:
        _print_json(summary)
    else:
        for line in lines:
            print(line)


def _validate_and_emit(ns: argparse.Namespace, trace):
    from .harness import emit_trace, validate_trace

    validate_trace(trace)
    if ns.trace is not None:
        emit_trace(trace, ns.trace)
    return trace


def _cmd_teleport(ns: argparse.Namespace) -> int:
    from .teleport import InputQubit, run_teleportation

    u = InputQubit(ns.alpha, ns.beta)
    force = BellState.from_tag(ns.force_outcome) if ns.force_outcome else None
    trace = _validate_and_emit(ns, run_teleportation(u, ns.seed, force_outcome=force))
    measurement = trace.events[2].payload
    summary = {
        "protocol": "teleport",
        "seed": ns.seed,
        "outcome": measurement["outcome"],
        "bits": measurement["bits"],
        "fidelity": trace.verdict["fidelity"],
    }
    _report(ns, summary, f"teleport seed={ns.seed}",
            f"  outcome  {summary['outcome']} (bits {summary['bits']})",
            f"  fidelity {summary['fidelity']:.12f}")
    return 0


def _cmd_superdense(ns: argparse.Namespace) -> int:
    from .superdense import run_superdense

    trace = _validate_and_emit(ns, run_superdense(ns.message))
    encoded = trace.events[1].payload
    summary = {
        "protocol": "superdense",
        "message": str(ns.message),
        "unitary": encoded["unitary"],
        "decoded": trace.verdict["decoded"],
    }
    _report(ns, summary, f"superdense message={summary['message']}",
            f"  unitary {summary['unitary']}",
            f"  decoded {summary['decoded']}")
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
    from .icl import classify, state_to_diagram

    result = classify(ns.state)
    out = result.to_json()
    if result.bell is not None:
        out["diagram"] = state_to_diagram(result.bell).to_json()
    _print_json(out)
    return 0


def _cmd_verify(ns: argparse.Namespace) -> int:
    from .verify import verify

    results = verify(ns.suite)
    summary = [
        {
            "name": r.name,
            "passed": r.passed,
            "deviation": r.deviation,
            "bound": r.bound,
        }
        for r in results
    ]
    _report(ns, summary, *(r.line() for r in results))
    return 0 if all(r.passed for r in results) else 1


def _cmd_wire(ns: argparse.Namespace) -> int:
    from .wire import run_wire_demo

    input_qubit = None
    if ns.protocol == "teleport":  # a superdense process compiles no teleport module
        from .teleport import InputQubit

        input_qubit = InputQubit(ns.alpha, ns.beta)
    verdicts: list[str] = []
    status = run_wire_demo(
        ns.role,
        *ns.endpoint,
        ns.protocol,
        seed=ns.seed,
        input_qubit=input_qubit,
        message=ns.message,
        verdict_callback=verdicts.append,
    )
    summary = {"role": ns.role, "status": status, "verdict": verdicts[0]}
    _report(ns, summary, f"{ns.role}: {verdicts[0]}")
    return status


# command -> (its help line, the function that adds its arguments, its runner). A parser
# builds only the parsed command's arguments, so no other command compiles verify's suites.
_COMMANDS = {
    "teleport": ("run quantum teleportation", _teleport_arguments, _cmd_teleport),
    "superdense": ("run superdense coding", _superdense_arguments, _cmd_superdense),
    "bell": ("inspect the canonical Bell and H states", _bell_arguments, _cmd_bell),
    "icl": ("classify a two-qubit state", _icl_arguments, _cmd_icl),
    "verify": ("run the identity checks", _verify_arguments, _cmd_verify),
    "wire": ("two-process demo over TCP", _wire_arguments, _cmd_wire),
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        ns = parse(sys.argv[1:] if argv is None else argv)
        return _COMMANDS[ns.command][2](ns)
    except UsageError as exc:
        code, error = 2, exc
    except (TransportError, HandshakeError, OSError) as exc:  # OSError covers TraceWriteError
        code, error = 3, exc
    except (ValidationError, ValueError) as exc:
        code, error = 1, exc
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
