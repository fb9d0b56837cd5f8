"""Tests for two-bit messages, trace emission, and the wire demo."""

import io
import json
import math
import socket
import statistics
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icl_qproto.harness import (
    Message2,
    ProtocolTrace,
    TraceEvent,
    TraceWriteError,
    emit_trace,
    validate_trace,
)
from icl_qproto.phasespace import BELL_ORDER
from icl_qproto.statevec import MAX_SEED, HandshakeError, TransportError, ValidationError
from icl_qproto.superdense import run_superdense
from icl_qproto.teleport import InputQubit, run_teleportation
from icl_qproto.wire import MAX_LINE_LENGTH, run_wire_demo


class TestMessage2:
    def test_rejects_non_bits(self):
        # booleans and floats too: str(Message2(True, False)) would be "TrueFalse", Message2(1.0, 0) "1.00"
        for bits in ((2, 0), (True, False), (False, 0), (1.0, 0), (0, 1.0), ("1", 0)):
            with pytest.raises(ValidationError):
                Message2(*bits)

    def test_string_round_trip(self):
        assert Message2.from_string("10") == Message2(1, 0)
        assert str(Message2(1, 0)) == "10"

    def test_rejects_malformed_strings(self):
        for text in ("2", "abc", "1", "012"):
            with pytest.raises(ValidationError):
                Message2.from_string(text)


class TestTrace:
    def test_steps_must_count_from_one(self):
        event = TraceEvent(2, "system", "verdict", {"fidelity": 1.0})
        with pytest.raises(ValidationError):
            ProtocolTrace("teleport", 0, (event,))

    @pytest.mark.parametrize("seed", [7.5, True, -1, 2**64])
    def test_seed_a_run_cannot_replay_from_is_rejected(self, seed):
        # the header would read "seed":7.5, which no run can replay
        with pytest.raises(ValidationError, match="seed"):
            ProtocolTrace("teleport", seed, ())

    def test_verdict_required_for_emission(self, tmp_path):
        trace = ProtocolTrace(
            "teleport", 0, (TraceEvent(1, "system", "share-bell-pair", {}),)
        )
        with pytest.raises(ValidationError):
            emit_trace(trace, tmp_path / "trace.jsonl")

    def test_teleport_trace_line_count(self, tmp_path):
        trace = run_teleportation(InputQubit(0.6, 0.8), 7)
        path = tmp_path / "teleport.jsonl"
        emit_trace(trace, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 6
        header = json.loads(lines[0])
        assert header == {"protocol": "teleport", "seed": 7}
        for step, line in enumerate(lines[1:], start=1):
            record = json.loads(line)
            assert record["step"] == step
            assert set(record) == {"step", "actor", "action", "payload"}

    def test_superdense_trace_line_count(self, tmp_path):
        trace = run_superdense(Message2(1, 0))
        path = tmp_path / "superdense.jsonl"
        emit_trace(trace, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 5
        assert json.loads(lines[0]) == {"protocol": "superdense", "seed": None}

    def test_replay_is_byte_identical(self, tmp_path):
        for seed in (0, 1, 17):
            paths = []
            for run in range(2):
                trace = run_teleportation(InputQubit(0.28, 0.96), seed)
                path = tmp_path / f"trace-{seed}-{run}.jsonl"
                emit_trace(trace, path)
                paths.append(path)
            assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_unwritable_sink_reports_path(self, tmp_path):
        trace = run_superdense(Message2(0, 0))
        missing = tmp_path / "no-such-dir" / "trace.jsonl"
        with pytest.raises(TraceWriteError, match="no-such-dir"):
            emit_trace(trace, missing)

    @settings(max_examples=200, deadline=None)
    @given(
        amps=st.tuples(*[st.floats(-1, 1, allow_nan=False)] * 4).filter(lambda a: math.hypot(*a) > 1e-3),
        seed=st.integers(0, MAX_SEED),
        forced=st.none() | st.sampled_from(BELL_ORDER),
        message=st.sampled_from(["00", "01", "10", "11"]),
    )
    @example(amps=(0.6, 0.0, 0.8, 0.0), seed=7, forced=None, message="10")
    def test_emitted_bytes_are_per_line_json_dumps(self, amps, seed, forced, message):
        def oracle(trace: ProtocolTrace) -> str:
            records = [{"protocol": trace.protocol, "seed": trace.seed}]
            records += [{"step": e.step, "actor": e.actor, "action": e.action, "payload": e.payload}
                        for e in trace.events]
            return "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records)

        norm = math.hypot(*amps)
        re_a, im_a, re_b, im_b = (x / norm for x in amps)
        traces = (
            run_teleportation(InputQubit(complex(re_a, im_a), complex(re_b, im_b)), seed, forced),
            run_superdense(Message2.from_string(message)),
        )
        for trace in traces:
            sink = io.StringIO()
            emit_trace(trace, sink)
            assert sink.getvalue() == oracle(trace)

    def test_validator_checks_resource_ledger(self):
        trace = run_teleportation(InputQubit(1, 0), 5)
        validate_trace(trace)
        truncated = ProtocolTrace("teleport", 5, trace.events[:4])
        with pytest.raises(ValidationError):
            validate_trace(truncated)


def _run_pair(protocol: str, seed: int, host: str = "127.0.0.1", **kwargs):
    """Run bob in a thread and alice in the caller; return both verdicts."""
    ready = threading.Event()
    ports: list[int] = []
    verdicts: dict[str, str] = {}
    failures: list[BaseException] = []

    def bob():
        try:
            run_wire_demo(
                "bob",
                host,
                0,
                protocol,
                ready_callback=lambda p: (ports.append(p), ready.set()),
                verdict_callback=lambda v: verdicts.__setitem__("bob", v),
                **kwargs,
            )
        except BaseException as exc:  # surfaced by the caller
            failures.append(exc)
            ready.set()

    thread = threading.Thread(target=bob)
    thread.start()
    assert ready.wait(10), "server never became ready"
    if failures:
        thread.join(10)
        raise failures[0]
    status = run_wire_demo(
        "alice",
        host,
        ports[0],
        protocol,
        seed=seed,
        verdict_callback=lambda v: verdicts.__setitem__("alice", v),
        **kwargs,
    )
    thread.join(10)
    if failures:
        raise failures[0]
    return status, verdicts


def _raw_peer_to_bob(*chunks: "str | bytes", bob_timeout: float = 10.0):
    """Send raw bytes to a teleport bob; return his last reply line and his errors.

    Each chunk after the first is sent once bob has answered the one before.
    After the last chunk the peer closes its sending side, so bob reads to
    the end of the stream instead of waiting out his timeout.
    """
    ready = threading.Event()
    ports: list[int] = []
    errors: list[BaseException] = []

    def bob():
        try:
            run_wire_demo(
                "bob",
                "127.0.0.1",
                0,
                "teleport",
                input_qubit=InputQubit(1, 0),
                ready_callback=lambda p: (ports.append(p), ready.set()),
                timeout=bob_timeout,
            )
        except BaseException as exc:  # surfaced by the caller
            errors.append(exc)

    thread = threading.Thread(target=bob)
    thread.start()
    assert ready.wait(10)
    lines = [b""]
    with socket.create_connection(("127.0.0.1", ports[0]), timeout=10) as sock, \
            sock.makefile("rb") as wire:
        try:
            for i, chunk in enumerate(chunks):
                if i:
                    lines.append(wire.readline())
                sock.sendall(chunk.encode("ascii") if isinstance(chunk, str) else chunk)
            sock.shutdown(socket.SHUT_WR)
            lines.extend(iter(wire.readline, b""))
        except ConnectionResetError:  # bob closed with our bytes unread
            pass
    reply = lines[-1].decode("ascii").strip()
    thread.join(10)
    assert not thread.is_alive(), "bob never finished"
    return reply, errors


def _raw_peer_to_alice(data: bytes, alice_timeout: float = 10.0):
    """Accept a teleport alice (seed 7), read her HELLO, answer with raw bytes, close.

    Returns her HELLO line and what her run ended in: its status and
    verdict, or the exception she raised.
    """
    outcome: list = []

    def alice(port: int):
        verdicts: list[str] = []
        try:
            status = run_wire_demo(
                "alice",
                "127.0.0.1",
                port,
                "teleport",
                seed=7,
                input_qubit=InputQubit(1, 0),
                verdict_callback=verdicts.append,
                timeout=alice_timeout,
            )
            outcome.append((status, verdicts))
        except BaseException as exc:  # surfaced by the caller
            outcome.append(exc)

    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(10)
        thread = threading.Thread(target=alice, args=(listener.getsockname()[1],))
        thread.start()
        conn, _ = listener.accept()
    with conn, conn.makefile("rb") as wire:
        conn.settimeout(10)
        hello = wire.readline()
        try:
            conn.sendall(data)
            conn.shutdown(socket.SHUT_WR)
            wire.read()  # until alice closes, so closing here resets nothing she has yet to read
        except (ConnectionResetError, BrokenPipeError):  # alice closed first
            pass
    thread.join(10)
    assert not thread.is_alive(), "alice never finished"
    return hello, outcome[0]


_BOB_RUN = run_teleportation(InputQubit(1, 0), 7)  # what _raw_peer_to_bob's bob computes
_VALID_SESSION = (
    f"HELLO v1 7\nCC {_BOB_RUN.events[3].payload['bits']}\n"
    f"DONE fidelity={_BOB_RUN.verdict['fidelity']!r}\n"
).encode("ascii")
_PEER_LINE = st.sampled_from(_VALID_SESSION.split(b"\n")[:3] + [
    b"HELLO v0 7", b"HELLO v1 -5", b"HELLO v1 seven", b"CC 99", b"DONE fidelity=0.5",
    b"QUBIT-SENT", b"ERR closed",
]) | st.binary(max_size=40)
# what a bob answers the seed-7 alice of _raw_peer_to_alice: the echo, then his verdict
_ALICE_REPLY = f"HELLO v1 7\nDONE fidelity={_BOB_RUN.verdict['fidelity']!r}\n".encode("ascii")
# raw bytes, or lines drawn from a session and its near misses, with an optional unended tail
_PEER_BYTES = st.binary(max_size=2 * MAX_LINE_LENGTH) | st.builds(
    lambda lines, tail: b"".join(line + b"\n" for line in lines) + tail,
    st.lists(_PEER_LINE, max_size=5),
    st.binary(max_size=8),
)


class TestWireDemo:
    @settings(max_examples=100, deadline=None)
    @given(_PEER_BYTES)
    @example(_VALID_SESSION)
    @example(b"")
    def test_any_peer_bytes_end_in_err_or_a_valid_session(self, data):
        start = time.monotonic()
        reply, errors = _raw_peer_to_bob(data, bob_timeout=5.0)
        assert time.monotonic() - start < 2.5
        if errors:
            assert len(errors) == 1, errors
            assert isinstance(errors[0], (HandshakeError, TransportError, ValidationError))
            assert reply.startswith("ERR "), (reply, errors)
        else:
            assert reply == f"DONE fidelity={_BOB_RUN.verdict['fidelity']!r}"

    @settings(max_examples=100, deadline=None)
    @given(_PEER_BYTES)
    @example(_ALICE_REPLY)
    @example(b"HELLO v1 7\nDONE fidelity=0.5\n")
    @example(b"")
    def test_any_peer_bytes_end_alice_in_an_error_or_a_valid_session(self, data):
        start = time.monotonic()
        hello, outcome = _raw_peer_to_alice(data, alice_timeout=5.0)
        assert time.monotonic() - start < 2.5
        assert hello == b"HELLO v1 7\n"
        if data.startswith(_ALICE_REPLY):
            assert outcome == (0, [f"fidelity={_BOB_RUN.verdict['fidelity']!r}"]), outcome
        else:
            assert isinstance(outcome, (HandshakeError, TransportError, ValidationError)), outcome

    def test_teleport_verdicts_match_in_process(self):
        u = InputQubit(0.6, 0.8)
        status, verdicts = _run_pair("teleport", 7, input_qubit=u)
        assert status == 0
        local = run_teleportation(u, 7)
        expected = f"fidelity={local.verdict['fidelity']!r}"
        assert verdicts == {"alice": expected, "bob": expected}

    def test_superdense_receiver_decodes(self):
        status, verdicts = _run_pair("superdense", 3, message=Message2(1, 0))
        assert status == 0
        assert verdicts["bob"] == "decoded=10"
        assert verdicts["alice"] == "decoded=10"

    def test_ipv6_loopback_session(self):
        try:
            with socket.socket(socket.AF_INET6) as probe:
                probe.bind(("::1", 0))
        except OSError as exc:
            pytest.skip(f"this host cannot bind ::1: {exc}")
        status, verdicts = _run_pair("superdense", 3, host="::1", message=Message2(1, 0))
        assert (status, verdicts) == (0, {"alice": "decoded=10", "bob": "decoded=10"})

    def test_max_seed_accepted(self):
        u = InputQubit(0.6, 0.8)
        status, verdicts = _run_pair("teleport", MAX_SEED, input_qubit=u)
        assert status == 0
        expected = f"fidelity={run_teleportation(u, MAX_SEED).verdict['fidelity']!r}"
        assert verdicts == {"alice": expected, "bob": expected}

    def test_session_does_not_stall_on_delayed_ack(self):
        """Alice writes twice then reads; with Nagle on, that waits ~40 ms."""
        u = InputQubit(0.6, 0.8)
        elapsed = []
        for seed in range(9):
            start = time.perf_counter()
            status, _ = _run_pair("teleport", seed, input_qubit=u)
            elapsed.append(time.perf_counter() - start)
            assert status == 0
        assert statistics.median(elapsed) < 0.020, elapsed

    def test_version_mismatch_rejected(self):
        reply, errors = _raw_peer_to_bob("HELLO v0 7\n")
        assert reply.startswith("ERR unsupported-version")
        assert len(errors) == 1 and isinstance(errors[0], HandshakeError)

    @pytest.mark.parametrize("seed", ["-5", str(MAX_SEED + 1), "seven"])
    def test_out_of_range_seed_rejected(self, seed):
        reply, errors = _raw_peer_to_bob(f"HELLO v1 {seed}\n")
        assert reply == "ERR malformed-seed"
        assert len(errors) == 1 and isinstance(errors[0], HandshakeError)

    def test_overlong_line_is_transport_error(self):
        reply, errors = _raw_peer_to_bob("H" * (4 * MAX_LINE_LENGTH), bob_timeout=3.0)
        assert reply == "ERR line-too-long"
        assert len(errors) == 1 and isinstance(errors[0], TransportError)
        assert f"longer than {MAX_LINE_LENGTH}" in str(errors[0])

    def test_non_ascii_byte_is_transport_error(self):
        reply, errors = _raw_peer_to_bob(b"HELLO v1 \xff\n")
        assert reply == "ERR non-ascii"
        assert len(errors) == 1 and isinstance(errors[0], TransportError)
        assert "non-ASCII" in str(errors[0])

    def test_diverged_payload_answered_with_err(self):
        reply, errors = _raw_peer_to_bob("HELLO v1 7\n", "CC 99\n")
        assert reply == "ERR payload-diverged"
        assert len(errors) == 1 and isinstance(errors[0], ValidationError)

    def test_pipelined_lines_are_not_lost(self):
        # both lines in one write: bob must read the payload line he already
        # received after echoing the handshake, not wait for it until timeout
        start = time.monotonic()
        reply, errors = _raw_peer_to_bob("HELLO v1 7\nCC 99\n", bob_timeout=3.0)
        assert reply == "ERR payload-diverged"
        assert len(errors) == 1 and isinstance(errors[0], ValidationError)
        assert time.monotonic() - start < 1.5

    def test_verdict_mismatch_answered_with_err(self):
        bits = run_teleportation(InputQubit(1, 0), 7).events[3].payload["bits"]
        reply, errors = _raw_peer_to_bob("HELLO v1 7\n", f"CC {bits}\nDONE fidelity=0.5\n")
        assert reply == "ERR verdict-mismatch"
        assert len(errors) == 1 and isinstance(errors[0], ValidationError)

    def test_unreachable_peer_is_transport_error(self):
        with pytest.raises(TransportError):
            run_wire_demo(
                "alice",
                "127.0.0.1",
                1,  # port 1 is never listening
                "superdense",
                seed=0,
                message=Message2(0, 0),
                timeout=2.0,
            )

    @pytest.mark.parametrize("seed", [7.5, True, -1, 2**64, "7"], ids=repr)
    def test_alice_checks_her_seed_before_connecting(self, seed):
        # port 1 is never listening, so a seed sent on would end in TransportError instead
        with pytest.raises(ValidationError, match="seed must be an integer"):
            run_wire_demo("alice", "127.0.0.1", 1, "superdense",
                          seed=seed, message=Message2(0, 0), timeout=2.0)

    def test_role_and_params_validated(self):
        with pytest.raises(ValidationError):
            run_wire_demo("carol", "127.0.0.1", 1, "teleport", input_qubit=InputQubit(1, 0))
        with pytest.raises(ValidationError):
            run_wire_demo("alice", "127.0.0.1", 1, "teleport")
