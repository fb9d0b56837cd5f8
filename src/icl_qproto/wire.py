"""The wire demo: one protocol run between two processes over TCP, in ASCII lines:

    HELLO v1 <seed>     handshake; the server echoes it back verbatim
    CC <b1><b0>         teleportation's two classical bits
    QUBIT-SENT          superdense coding's qubit-transfer marker
    DONE <verdict>      final verdict, sent by both sides and compared
    ERR <reason>        rejection, connection closes

Only classical bits ever cross the wire: both ends rebuild the full
quantum state deterministically from the shared seed, so the marker
lines stand in for the quantum channel.

Alice writes two lines in a row (the payload, then ``DONE``) before she
reads. With Nagle's algorithm on, the second write waits for the ACK of
the first, and Bob, who has nothing to send yet, delays that ACK for
about 40 ms. Both sockets therefore set ``TCP_NODELAY``, so a loopback
session costs its compute, not a delayed-ACK timer. Lines are read
through one binary reader, which keeps lines that arrived together, with
a length bound (``MAX_LINE_LENGTH``) so a peer cannot grow memory by
never sending a newline. Whatever Bob rejects (a bad handshake, an
over-long or non-ASCII line, a diverged payload or verdict), he first
answers ``ERR <reason>``, as far as the connection still allows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, BinaryIO, Callable, NamedTuple

from .statevec import MAX_SEED, HandshakeError, TransportError, ValidationError, check_seed

if TYPE_CHECKING:
    import socket

WIRE_VERSION = "v1"

MAX_LINE_LENGTH = 1024  # bytes, newline included; protocol lines are < 64


class _Wire(NamedTuple):
    """One connection: a buffered reader for lines in, ``sendall`` for lines out."""
    sock: socket.socket
    reader: BinaryIO


def _send_line(wire: _Wire, line: str) -> None:
    wire.sock.sendall(line.encode("ascii") + b"\n")


def _recv_line(wire: _Wire) -> str:
    try:
        line = wire.reader.readline(MAX_LINE_LENGTH).decode("ascii")
    except UnicodeDecodeError as exc:
        raise TransportError(f"peer sent a non-ASCII byte: {exc}", "non-ascii") from exc
    if line == "":
        raise TransportError("connection closed by peer", "closed")
    if not line.endswith("\n"):
        if len(line) == MAX_LINE_LENGTH:
            raise TransportError(
                f"peer line longer than {MAX_LINE_LENGTH} characters", "line-too-long"
            )
        raise TransportError("connection closed by peer mid-line", "closed")
    return line[:-1]


def _reject(wire, reason: str) -> None:
    """Tell the peer ``ERR <reason>`` if the connection still takes it."""
    try:
        _send_line(wire, f"ERR {reason}")
    except OSError:
        pass  # the peer is gone; the caller's exception says what went wrong


def _bob_recv(wire) -> str:
    try:
        return _recv_line(wire)
    except TransportError as exc:
        _reject(wire, exc.reason)
        raise


def _mirror_run(protocol: str, seed: int, input_qubit, message) -> tuple[str, str]:
    """Run the protocol in-process; return (payload line, verdict string)."""
    if protocol == "teleport":
        from .teleport import run_teleportation

        trace = run_teleportation(input_qubit, seed)
        bits = next(e.payload["bits"] for e in trace.events if e.action == "send-bits")
        return f"CC {bits}", f"fidelity={trace.verdict['fidelity']!r}"
    if protocol == "superdense":
        from .superdense import run_superdense

        trace = run_superdense(message)
        return "QUBIT-SENT", f"decoded={trace.verdict['decoded']}"
    raise ValidationError(f"unknown protocol {protocol!r}")


def _alice_session(wire, protocol, seed, input_qubit, message) -> str:
    hello = f"HELLO {WIRE_VERSION} {seed}"
    _send_line(wire, hello)
    echo = _recv_line(wire)
    if echo != hello:
        raise HandshakeError(f"peer rejected handshake: {echo!r}")
    payload_line, verdict = _mirror_run(protocol, seed, input_qubit, message)
    _send_line(wire, payload_line)
    _send_line(wire, f"DONE {verdict}")
    peer = _recv_line(wire)
    if peer != f"DONE {verdict}":
        raise ValidationError(f"verdicts disagree: sent {verdict!r}, peer said {peer!r}")
    return verdict


def _bob_session(wire, protocol, input_qubit, message) -> str:
    hello = _bob_recv(wire)
    parts = hello.split()
    if len(parts) != 3 or parts[0] != "HELLO":
        _reject(wire, "malformed-handshake")
        raise HandshakeError(f"malformed handshake line: {hello!r}")
    if parts[1] != WIRE_VERSION:
        _reject(wire, f"unsupported-version {parts[1]}")
        raise HandshakeError(f"unsupported wire version {parts[1]!r}")
    if not (parts[2].isdigit() and int(parts[2]) <= MAX_SEED):
        _reject(wire, "malformed-seed")
        raise HandshakeError(f"malformed seed in handshake: {parts[2]!r}")
    seed = int(parts[2])
    _send_line(wire, hello)
    payload_line, verdict = _mirror_run(protocol, seed, input_qubit, message)
    got = _bob_recv(wire)
    if got != payload_line:
        _reject(wire, "payload-diverged")
        raise ValidationError(
            f"channel payload diverged: got {got!r}, expected {payload_line!r}"
        )
    peer_done = _bob_recv(wire)
    if peer_done != f"DONE {verdict}":
        _reject(wire, "verdict-mismatch")
        raise ValidationError(
            f"verdicts disagree: computed {verdict!r}, peer said {peer_done!r}"
        )
    _send_line(wire, f"DONE {verdict}")
    return verdict


def _converse(sock: socket.socket, timeout: float, session: Callable[..., str], *args) -> str:
    """Run one side's session over a connected socket, then close it."""
    import socket  # see run_wire_demo

    with sock:
        sock.settimeout(timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # see module doc
        with sock.makefile("rb") as reader:
            try:
                return session(_Wire(sock, reader), *args)
            except OSError as exc:
                raise TransportError(f"wire failure: {exc}") from exc


def run_wire_demo(
    role: str,
    host: str,
    port: int,
    protocol: str,
    *,
    seed: int | None = None,
    input_qubit=None,
    message=None,
    ready_callback: Callable[[int], None] | None = None,
    verdict_callback: Callable[[str], None] | None = None,
    timeout: float = 10.0,
) -> int:
    """Run one side of the two-process demo; returns 0 on matching verdicts.

    Alice checks her seed, connects and drives the handshake (her seed is
    authoritative); Bob listens, adopts the seed, and mirrors the run.
    ``ready_callback`` receives Bob's bound port once listening, which lets
    callers bind port 0. ``verdict_callback`` receives the agreed verdict string.
    """
    if role not in ("alice", "bob"):
        raise ValidationError(f"role must be 'alice' or 'bob', got {role!r}")
    if protocol == "teleport" and input_qubit is None:
        raise ValidationError("teleport demo needs an input qubit")
    if protocol == "superdense" and message is None:
        raise ValidationError("superdense demo needs a message")
    # Imported here, not with the module: socket (and selectors, which it
    # loads) costs every CLI process about 5 ms, and only wire uses it.
    import socket

    if role == "alice":
        seed = check_seed(0 if seed is None else seed)  # before a bad seed costs the peer a session
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise TransportError(f"cannot connect to {host}:{port}: {exc}") from exc
        verdict = _converse(sock, timeout, _alice_session, protocol, seed, input_qubit, message)
    else:
        try:
            family = socket.AF_INET6 if ":" in host else socket.AF_INET  # an IPv6 literal
            listener = socket.create_server((host, port), family=family)
        except OSError as exc:
            raise TransportError(f"cannot listen on {host}:{port}: {exc}") from exc
        with listener:
            listener.settimeout(timeout)
            if ready_callback is not None:
                ready_callback(listener.getsockname()[1])
            try:
                conn, _ = listener.accept()
            except OSError as exc:
                raise TransportError(f"no peer connected: {exc}") from exc
            verdict = _converse(conn, timeout, _bob_session, protocol, input_qubit, message)

    if verdict_callback is not None:
        verdict_callback(verdict)
    return 0
