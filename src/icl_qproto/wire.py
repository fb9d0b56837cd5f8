"""The wire demo: one protocol run between two processes over TCP, in ASCII lines:

    HELLO v1 <seed>     handshake, single spaces, the seed in canonical decimal;
                        the server echoes it back verbatim
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
straight from the socket, keeping lines that arrived together, with a
length bound (``MAX_LINE_LENGTH``) so a peer cannot grow memory by never
sending a newline. A session has one deadline, ``timeout`` after it
starts: each blocking read or write waits only for the time left, so a
peer that trickles bytes cannot hold a side longer. Whatever Bob rejects
(a bad handshake, an over-long or non-ASCII line, a diverged payload or
verdict), he first answers ``ERR <reason>``, as far as the connection
still allows.
"""

from __future__ import annotations

import socket
import time
from collections.abc import Callable

from .statevec import MAX_SEED, HandshakeError, TransportError, ValidationError, check_seed

WIRE_VERSION = "v1"

MAX_LINE_LENGTH = 1024  # bytes, newline included; protocol lines are < 64


class _Lines:
    """ASCII lines over a connected socket, every blocking call bounded by one session deadline."""

    def __init__(self, sock: socket.socket, timeout: float):
        self.sock = sock
        self.deadline = time.monotonic() + timeout
        self.buffer = b""  # bytes received past the last line returned

    def _wait(self) -> None:
        left = self.deadline - time.monotonic()
        if left <= 0:  # settimeout refuses a negative value, and 0 would not block at all
            raise TimeoutError("timed out")
        self.sock.settimeout(left)

    def send(self, line: str) -> None:
        self._wait()
        self.sock.sendall(line.encode("ascii") + b"\n")

    def recv(self) -> str:
        """The next line without its newline: at most ``MAX_LINE_LENGTH`` bytes, newline included."""
        while len(self.buffer) < MAX_LINE_LENGTH and b"\n" not in self.buffer:
            self._wait()
            chunk = self.sock.recv(MAX_LINE_LENGTH)
            if not chunk:  # the peer closed: what is left is the last line, whole or not
                break
            self.buffer += chunk
        end = self.buffer.find(b"\n", 0, MAX_LINE_LENGTH) + 1 or MAX_LINE_LENGTH
        raw, self.buffer = self.buffer[:end], self.buffer[end:]
        try:
            line = raw.decode("ascii")
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


def _reject(lines: _Lines, reason: str) -> None:
    """Tell the peer ``ERR <reason>`` if the connection still takes it."""
    try:
        lines.send(f"ERR {reason}")
    except OSError:
        pass  # the peer is gone; the caller's exception says what went wrong


def _bob_recv(lines: _Lines) -> str:
    try:
        return lines.recv()
    except TransportError as exc:
        _reject(lines, exc.reason)
        raise


def _mirror_run(protocol: str, seed: int, input_qubit, message) -> tuple[str, str]:
    """Run the protocol in-process; return (payload line, verdict string)."""
    if protocol == "teleport":
        from .teleport import run_teleportation

        trace = run_teleportation(input_qubit, seed)
        bits = trace.payload("send-bits")["bits"]
        return f"CC {bits}", f"fidelity={trace.verdict['fidelity']!r}"
    from .superdense import run_superdense

    trace = run_superdense(message)
    return trace.payload("send-qubit")["marker"], f"decoded={trace.verdict['decoded']}"


def _alice_session(lines, protocol, seed, input_qubit, message) -> str:
    hello = f"HELLO {WIRE_VERSION} {seed}"
    lines.send(hello)
    echo = lines.recv()
    if echo != hello:
        raise HandshakeError(f"peer rejected handshake: {echo!r}")
    payload_line, verdict = _mirror_run(protocol, seed, input_qubit, message)
    lines.send(payload_line)
    lines.send(f"DONE {verdict}")
    peer = lines.recv()
    if peer != f"DONE {verdict}":
        raise ValidationError(f"verdicts disagree: sent {verdict!r}, peer said {peer!r}")
    return verdict


def _bob_session(lines, protocol, input_qubit, message) -> str:
    hello = _bob_recv(lines)
    parts = hello.split(" ")  # the one form Alice sends: no other whitespace, padding or doubled spaces
    if len(parts) != 3 or parts[0] != "HELLO":
        _reject(lines, "malformed-handshake")
        raise HandshakeError(f"malformed handshake line: {hello!r}")
    if parts[1] != WIRE_VERSION:
        _reject(lines, f"unsupported-version {parts[1]}")
        raise HandshakeError(f"unsupported wire version {parts[1]!r}")
    if not (parts[2].isdigit() and parts[2] == str(int(parts[2])) and int(parts[2]) <= MAX_SEED):
        _reject(lines, "malformed-seed")
        raise HandshakeError(f"malformed seed in handshake: {parts[2]!r}")
    seed = int(parts[2])
    lines.send(hello)
    payload_line, verdict = _mirror_run(protocol, seed, input_qubit, message)
    got = _bob_recv(lines)
    if got != payload_line:
        _reject(lines, "payload-diverged")
        raise ValidationError(
            f"channel payload diverged: got {got!r}, expected {payload_line!r}"
        )
    peer_done = _bob_recv(lines)
    if peer_done != f"DONE {verdict}":
        _reject(lines, "verdict-mismatch")
        raise ValidationError(
            f"verdicts disagree: computed {verdict!r}, peer said {peer_done!r}"
        )
    lines.send(f"DONE {verdict}")
    return verdict


def _converse(sock: socket.socket, timeout: float, session: Callable[..., str], *args) -> str:
    """Run one side's session over a connected socket, then close it."""
    with sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # see module doc
        try:
            return session(_Lines(sock, timeout), *args)
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
    if protocol not in ("teleport", "superdense"):
        raise ValidationError(f"unknown protocol {protocol!r}")
    if protocol == "teleport" and input_qubit is None:
        raise ValidationError("teleport demo needs an input qubit")
    if protocol == "superdense" and message is None:
        raise ValidationError("superdense demo needs a message")
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
