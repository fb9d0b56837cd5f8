"""Golden outputs: every committed trace, CLI output and wire transcript is regenerated and compared byte for byte.

The ``*.jsonl`` files under ``tests/golden/`` pin the replay guarantee: a
protocol, its inputs and its seed fix the emitted JSON-lines bytes. The
``cli-*.stdout`` files pin the stdout of the deterministic CLI commands
(``verify all`` with and without ``--json``, ``bell --list``, teleport
and superdense in text and ``--json``, ``icl`` on a Bell and a product
state); each teleport argv names its seed, so ``ICL_QPROTO_SEED`` cannot
leak in. The ``wire-*.txt`` files pin the bytes each way of one loopback
session: an in-process Alice and Bob, or a raw peer that Bob answers with
``ERR``, talk through a relay that records what each side sends. A
change that alters any of them changes the trace format, the simulation,
the CLI output or the wire protocol, and has to say so. To rewrite the
files after such an intended change, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import math
import random
import socket
import threading
from pathlib import Path

import pytest

from icl_qproto.cli import main
from icl_qproto.harness import Message2, emit_trace
from icl_qproto.phasespace import BELL_ORDER
from icl_qproto.statevec import MAX_SEED, HandshakeError, TransportError, ValidationError
from icl_qproto.superdense import run_superdense
from icl_qproto.teleport import InputQubit, run_teleportation
from icl_qproto.wire import MAX_LINE_LENGTH, run_wire_demo

GOLDEN = Path(__file__).parent / "golden"

_R = 1 / math.sqrt(2)
INPUTS = {
    "zero": (1, 0),
    "real": (0.6, 0.8),
    "complex": ((1 + 1j) / 2, _R),
}
# 0, 7 and MAX_SEED all sample psi+; 2, 3 and 4 sample phi-, phi+ and psi-.
SEEDS = (0, 2, 3, 4, 7, MAX_SEED)


def _generic_inputs(count: int = 8, seed: int = 20231) -> dict[str, tuple[complex, complex]]:
    """Normalized complex pairs with full-width mantissas, drawn without numpy.

    On the inputs above the arithmetic is nearly exact, so a change in the
    last bit of a float could pass unseen; on these it shows in the trace.
    """
    rng = random.Random(seed)
    inputs = {}
    for i in range(count):
        a, b = (complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2))
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        inputs[f"generic{i}"] = (a / norm, b / norm)
    return inputs


GENERIC_INPUTS = _generic_inputs()
# every sampled branch: 0 and MAX_SEED sample psi+, 2 phi-, 3 phi+, 4 psi-
GENERIC_SEEDS = (0, 2, 3, 4, MAX_SEED)
FORCED_INPUTS = ("real", "generic0")


def _cases() -> dict[str, object]:
    """File stem -> zero-argument function returning the trace."""
    cases = {}
    for inputs, seeds in ((INPUTS, SEEDS), (GENERIC_INPUTS, GENERIC_SEEDS)):
        for name, (alpha, beta) in inputs.items():
            for seed in seeds:
                cases[f"teleport-{name}-seed{seed}"] = (
                    lambda a=alpha, b=beta, s=seed: run_teleportation(InputQubit(a, b), s)
                )
    for name in FORCED_INPUTS:
        alpha, beta = {**INPUTS, **GENERIC_INPUTS}[name]
        for tag in BELL_ORDER:
            cases[f"teleport-{name}-forced-{tag.value}"] = (
                lambda a=alpha, b=beta, t=tag: run_teleportation(
                    InputQubit(a, b), 0, force_outcome=t
                )
            )
    for bits in ("00", "01", "10", "11"):
        cases[f"superdense-{bits}"] = lambda m=bits: run_superdense(Message2.from_string(m))
    return cases


CASES = _cases()

# file stem -> argv of a CLI command whose stdout is pinned
CLI_CASES = {
    "cli-verify-all": ["verify", "all"],
    "cli-verify-all-json": ["verify", "all", "--json"],
    "cli-bell-list": ["bell", "--list"],
    "cli-teleport": ["teleport", "--alpha", "0.6,0", "--beta", "0.8,0", "--seed", "7"],
    "cli-teleport-json": ["teleport", "--alpha", "0.6,0", "--beta", "0.8,0", "--seed", "7", "--json"],
    "cli-teleport-forced-psi-": [
        "teleport", "--alpha", "0.6,0", "--beta", "0.8,0", "--seed", "0", "--force-outcome", "psi-",
    ],
    "cli-superdense-10": ["superdense", "--message", "10"],
    "cli-superdense-10-json": ["superdense", "--message", "10", "--json"],
    "cli-icl-phi+": [
        "icl", "--state", '{"n":2,"amps":[[0.7071067811865476,0],[0,0],[0,0],[0.7071067811865476,0]]}',
    ],
    "cli-icl-product": ["icl", "--state", '{"n":2,"amps":[[1,0],[0,0],[0,0],[0,0]]}'],
}


def _pump(src: socket.socket, dst: socket.socket, sent: list[bytes]) -> None:
    """Record and forward what ``src`` sends until it closes, then close ``dst``'s sending side."""
    while True:
        try:
            data = src.recv(65536)
        except OSError:  # reset, or a stalled peer past its timeout
            data = b""
        if not data:
            break
        sent.append(data)
        try:
            dst.sendall(data)
        except OSError:
            pass  # the receiver is gone; keep reading, so the record holds all the sender sent
    with contextlib.suppress(OSError):
        dst.shutdown(socket.SHUT_WR)


def _escaped_lines(stream: bytes) -> list[str]:
    """``stream`` cut after each newline, every byte that is not printable ASCII escaped."""
    *lines, tail = stream.split(b"\n")
    pieces = [line + b"\n" for line in lines] + ([tail] if tail else [])
    return [piece.decode("latin-1").encode("unicode_escape").decode("ascii") for piece in pieces]


def _relayed(protocol: str, client, **kwargs) -> bytes:
    """The bytes each way between ``client(port)`` and a bob, relayed over loopback.

    Each line ``client`` sends reads ``> line``, then each line bob sends
    ``< line``. Bob runs ``protocol`` with ``kwargs``; an error he ends in
    shows as the ``ERR`` line he sends.
    """
    ready = threading.Event()
    ports: list[int] = []

    def bob():
        with contextlib.suppress(HandshakeError, TransportError, ValidationError):
            run_wire_demo("bob", "127.0.0.1", 0, protocol, timeout=10,
                          ready_callback=lambda p: (ports.append(p), ready.set()), **kwargs)

    threads = [threading.Thread(target=bob)]
    threads[0].start()
    assert ready.wait(10), "bob never listened"
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(10)
        threads.append(threading.Thread(target=client, args=(listener.getsockname()[1],)))
        threads[1].start()
        near, _ = listener.accept()
    sent: dict[str, list[bytes]] = {">": [], "<": []}
    with near, socket.create_connection(("127.0.0.1", ports[0]), timeout=10) as far:
        near.settimeout(10)
        for sock in (near, far):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        pumps = [threading.Thread(target=_pump, args=(near, far, sent[">"])),
                 threading.Thread(target=_pump, args=(far, near, sent["<"]))]
        for thread in pumps:
            thread.start()
        for thread in pumps + threads:
            thread.join(10)
            assert not thread.is_alive(), "the session never ended"
    text = "".join(f"{mark} {line}\n" for mark in "><" for line in _escaped_lines(b"".join(sent[mark])))
    return text.encode("ascii")


def _alice(protocol: str, seed: int, **kwargs):
    return lambda port: run_wire_demo("alice", "127.0.0.1", port, protocol, seed=seed, timeout=10, **kwargs)


def _raw_peer(data: bytes):
    """A client that sends ``data``, closes its sending side and reads to the end."""
    def peer(port: int) -> None:
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
            with contextlib.suppress(ConnectionResetError):
                while sock.recv(65536):
                    pass
    return peer


def _wire_cases() -> dict[str, object]:
    """File stem -> zero-argument function returning the transcript."""
    u = InputQubit(*INPUTS["complex"])  # its fidelity, 0.9999999999999998, shows a last-bit change
    cases = {}
    for seed in (0, 4, 7, MAX_SEED):  # 0, 7 and MAX_SEED sample psi+, 4 psi-
        cases[f"wire-teleport-seed{seed}"] = (
            lambda s=seed: _relayed("teleport", _alice("teleport", s, input_qubit=u), input_qubit=u)
        )
    for bits in ("00", "01", "10", "11"):
        m = Message2.from_string(bits)
        cases[f"wire-superdense-{bits}"] = (
            lambda m=m: _relayed("superdense", _alice("superdense", 7, message=m), message=m)
        )
    # what a raw peer sends a teleport bob, by the ERR reason he answers; seed 7 samples psi+ (bits 10)
    errors = {
        "malformed-handshake": b"HELLO v1\n",
        "unsupported-version": b"HELLO v0 7\n",
        "malformed-seed": b"HELLO v1 seven\n",
        "payload-diverged": b"HELLO v1 7\nCC 99\n",
        "verdict-mismatch": b"HELLO v1 7\nCC 10\nDONE fidelity=0.5\n",
        "line-too-long": b"H" * MAX_LINE_LENGTH + b"\n",
        "non-ascii": b"HELLO v1 \xff\n",
    }
    for reason, data in errors.items():
        cases[f"wire-err-{reason}"] = lambda d=data: _relayed("teleport", _raw_peer(d), input_qubit=u)
    return cases


WIRE_CASES = _wire_cases()


def _trace_bytes(stem: str) -> bytes:
    sink = io.StringIO()
    emit_trace(CASES[stem](), sink)
    return sink.getvalue().encode("ascii")


def _stdout_bytes(stem: str) -> bytes:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = main(CLI_CASES[stem])
    assert code == 0, f"{stem} exited {code}"
    return sink.getvalue().encode("ascii")


def test_every_golden_file_has_a_case():
    assert {p.stem for p in GOLDEN.glob("*.jsonl")} == set(CASES)
    assert {p.stem for p in GOLDEN.glob("*.stdout")} == set(CLI_CASES)
    assert {p.stem for p in GOLDEN.glob("wire-*.txt")} == set(WIRE_CASES)


@pytest.mark.parametrize("stem", sorted(CASES))
def test_trace_is_byte_identical(stem):
    assert _trace_bytes(stem) == (GOLDEN / f"{stem}.jsonl").read_bytes()


@pytest.mark.parametrize("stem", sorted(CLI_CASES))
def test_cli_stdout_is_byte_identical(stem):
    assert _stdout_bytes(stem) == (GOLDEN / f"{stem}.stdout").read_bytes()


@pytest.mark.parametrize("stem", sorted(WIRE_CASES))
def test_wire_transcript_is_byte_identical(stem):
    assert WIRE_CASES[stem]() == (GOLDEN / f"{stem}.txt").read_bytes()


def write_all() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for stem in CASES:
        (GOLDEN / f"{stem}.jsonl").write_bytes(_trace_bytes(stem))
    for stem in CLI_CASES:
        (GOLDEN / f"{stem}.stdout").write_bytes(_stdout_bytes(stem))
    for stem, transcript in WIRE_CASES.items():
        (GOLDEN / f"{stem}.txt").write_bytes(transcript())


if __name__ == "__main__":
    write_all()
