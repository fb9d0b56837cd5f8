"""One operation of an in-process workload, in a fresh interpreter.

    python bench/oneop.py teleport ALPHA BETA SEED
    python bench/oneop.py superdense BITS
    python bench/oneop.py wire ALPHA BETA SEED

ALPHA and BETA are Python complex literals. The exit code is 0 when the
operation's output is correct. ``setup_s`` times this script from spawn to
exit, so it imports only the package and the standard library. It also holds
the loopback session that the wire workload times.
"""

from __future__ import annotations

import io
import queue
import sys
import threading
from typing import Callable

import icl_qproto as q

FIDELITY_FLOOR = 1.0 - 1e-10
WIRE_HOST = "127.0.0.1"
WIRE_TIMEOUT_S = 10.0


def wire_session(protocol: str, seed: int, params: dict,
                 listening: Callable[[], None] | None = None) -> tuple[list[str], list[str]]:
    """One loopback session: Bob listens in a second thread, Alice runs in this one.

    ``listening`` is called once Bob's socket is listening. Returns the
    verdicts Alice and Bob reported; an error on either side is raised here.
    """
    alice: list[str] = []
    bob: list[str] = []
    ports: queue.Queue = queue.Queue()
    errors: list[Exception] = []

    def ready(port: int) -> None:
        if listening is not None:
            listening()
        ports.put(port)

    def serve() -> None:
        try:
            q.run_wire_demo("bob", WIRE_HOST, 0, protocol, ready_callback=ready,
                            verdict_callback=bob.append, timeout=WIRE_TIMEOUT_S, **params)
        except Exception as exc:  # handed to the calling thread below
            errors.append(exc)
            ports.put(None)

    thread = threading.Thread(target=serve, name="wire-bob")
    thread.start()
    try:
        port = ports.get(timeout=WIRE_TIMEOUT_S)
        if port is not None:
            q.run_wire_demo("alice", WIRE_HOST, port, protocol, seed=seed,
                            verdict_callback=alice.append, timeout=WIRE_TIMEOUT_S, **params)
    finally:
        thread.join(2 * WIRE_TIMEOUT_S)
    if errors:
        raise errors[0]
    if thread.is_alive():
        raise TimeoutError("the wire listener thread did not finish")
    return alice, bob


def main(argv: list[str]) -> int:
    name, *args = argv
    if name == "superdense":
        trace = q.run_superdense(q.Message2.from_string(args[0]))
        q.emit_trace(trace, io.StringIO())
        q.validate_trace(trace)
        return 0 if trace.verdict["decoded"] == args[0] else 1
    u = q.InputQubit(complex(args[0]), complex(args[1]))
    seed = int(args[2])
    if name == "teleport":
        trace = q.run_teleportation(u, seed)
        q.emit_trace(trace, io.StringIO())
        q.validate_trace(trace)
        return 0 if trace.verdict["fidelity"] >= FIDELITY_FLOOR else 1
    alice, bob = wire_session("teleport", seed, {"input_qubit": u})
    return 0 if len(alice) == 1 and alice == bob and alice[0].startswith("fidelity=") else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
