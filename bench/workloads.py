"""The four benchmark workloads: seeded inputs, one operation each, output checks.

Every workload is a closed loop with a single client: the next operation
starts only when the previous one has returned.

* ``teleport``   -- ``run_teleportation`` on the sampled path, then the trace
                    is emitted into memory and validated.
* ``superdense`` -- ``run_superdense`` on one of the four messages, then the
                    trace is emitted into memory and validated.
* ``cli``        -- one ``python -m icl_qproto.cli`` process per operation,
                    rotating through four subcommands.
* ``wire``       -- one loopback TCP session per operation: Bob listens in a
                    second thread, Alice drives the session from this one
                    (``oneop.wire_session``).

Inputs come from ``cases(seed, chunk, n)``, which depends only on its
arguments, so a seed fixes the whole input stream. The program sees only the
generated inputs; the expected outputs are computed beside them, before any
timing starts. ``execute`` performs one operation and returns its raw output;
``check`` decides whether that output is correct. A failed operation is
counted by the caller, never raised.

This module imports nothing heavier than the program itself (the CLI module
only for the cli workload), so the memory of an in-process run is the
program's.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from icl_qproto import (
    InputQubit,
    Message2,
    ProtocolTrace,
    emit_trace,
    run_superdense,
    run_teleportation,
    validate_trace,
)
from oneop import FIDELITY_FLOOR, wire_session

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
ONEOP = BENCH / "oneop.py"

SEED_EDGES = (0, 2**64 - 1)

clock = time.perf_counter_ns


# --- spans -------------------------------------------------------------------


_NO_SPAN = contextlib.nullcontext()


class NullTracer:
    """The tracer of end-to-end runs: records nothing."""

    def begin_op(self, kind: str) -> None:
        pass

    def span(self, name: str, calls: int = 1, parent: int | None = None):
        return _NO_SPAN

    def record(self, name: str, start: int, end: int, parent: int | None = None) -> None:
        pass


class Tracer:
    """In-memory span recorder.

    A span is (id, name, start_ns, end_ns, parent id, op id, calls). Spans of
    one operation share its op id; ``calls`` > 1 marks a span that timed a
    fixed batch of calls, so its per-call time is its duration over ``calls``.
    Counts are (name, op id, value). Nothing is written until ``dump``.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: list[tuple] = []
        self.op_kinds: dict[int, str] = {}
        self.op_id = 0
        self._stack: list[int] = []

    def begin_op(self, kind: str) -> None:
        """Start a new operation; later spans and counts carry its id."""
        self.op_id += 1
        self.op_kinds[self.op_id] = kind

    @contextlib.contextmanager
    def span(self, name: str, calls: int = 1, parent: int | None = None):
        """Time the block; the parent is ``parent`` or else the enclosing span."""
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in on exit
        if parent is None and self._stack:
            parent = self._stack[-1]
        self._stack.append(span_id)
        start = clock()
        try:
            yield span_id
        finally:
            end = clock()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent, self.op_id, calls)

    def record(self, name: str, start: int, end: int, parent: int | None = None) -> None:
        """Add a span timed elsewhere (another thread, or a child process)."""
        self.spans.append((len(self.spans), name, start, end, parent, self.op_id, 1))

    def count(self, name: str, value: float) -> None:
        self.counts.append((name, self.op_id, value))

    def last(self, name: str) -> int:
        """Id of the most recent span called ``name``."""
        return next(s[0] for s in reversed(self.spans) if s is not None and s[1] == name)

    def dump(self, path: Path) -> None:
        keys = ("id", "name", "start_ns", "end_ns", "parent", "op", "calls")
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                record = dict(zip(keys, span))
                record["kind"] = self.op_kinds.get(record["op"])
                fh.write(json.dumps(record) + "\n")
            for name, op, value in self.counts:
                fh.write(json.dumps({"count": name, "op": op, "value": value}) + "\n")


NULL = NullTracer()


# --- child processes -----------------------------------------------------------


@dataclass(frozen=True)
class ChildResult:
    code: int
    stdout: str
    maxrss_kb: int
    start_ns: int
    end_ns: int


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("ICL_QPROTO_SEED", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], timeout: float = 60.0) -> ChildResult:
    """Run a child to completion; return its exit code, merged output and peak RSS.

    The child is reaped with ``os.wait4`` so that its own peak resident set
    size is known, not only the largest of all children so far.
    """
    start = clock()
    with subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    ) as proc:
        out = _read_with_timeout(proc, timeout)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    end = clock()
    return ChildResult(proc.returncode, out.decode("utf-8", "replace"), usage.ru_maxrss, start, end)


def _read_with_timeout(proc: subprocess.Popen, timeout: float) -> bytes:
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        return proc.stdout.read()
    finally:
        timer.cancel()


# --- inputs --------------------------------------------------------------------


def chunk_rng(seed: int, workload: str, chunk: int) -> random.Random:
    """Independent stream per (seed, workload, chunk); a string seed is hashed with SHA-512.

    Chunk 0 feeds set-up and warm-up, chunks 1.. the timed loop, and chunk -1
    the traced layer sweep.
    """
    return random.Random(f"{seed}/{workload}/{chunk}")


def seed_at(rng: random.Random, i: int) -> int:
    """Protocol seed for the i-th case of a chunk; every chunk starts with both edges."""
    return SEED_EDGES[i] if i < len(SEED_EDGES) else rng.getrandbits(64)


def random_qubit(rng: random.Random) -> tuple[complex, complex]:
    """A random normalized (alpha, beta) whose float norm is exactly 1.0.

    The CLI divides its input by the computed norm; a pair at that fixed
    point reaches the program unchanged, so CLI and in-process runs see the
    same amplitudes bit for bit.
    """
    while True:
        a = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        b = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        for _ in range(4):
            norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
            if norm == 1.0:
                return a, b
            a, b = a / norm, b / norm


def random_bits(rng: random.Random) -> str:
    return f"{rng.getrandbits(1)}{rng.getrandbits(1)}"


ICL_KINDS = ("bell", "sector-confined", "product", "generic")


def random_two_qubit(rng: random.Random, kind: str) -> list[complex]:
    """Amplitudes of a random two-qubit state of one classifier class."""
    turn = rng.uniform(0.0, 2 * math.pi)
    phase = complex(math.cos(turn), math.sin(turn))
    h = 1 / math.sqrt(2)
    if kind == "bell":
        sign = rng.choice((1, -1))
        amps = [h, 0, 0, sign * h] if rng.getrandbits(1) else [0, h, sign * h, 0]
        return [phase * a for a in amps]
    if kind == "sector-confined":
        angle = rng.uniform(0.2, 0.6)  # clear of the Bell angle pi/4 and of a product at 0
        first, second = (0, 3) if rng.getrandbits(1) else (1, 2)
        amps = [0j] * 4
        amps[first] = phase * math.cos(angle)
        amps[second] = math.sin(angle)
        return amps
    if kind == "product":
        (a, b), (c, d) = random_qubit(rng), random_qubit(rng)
        return [a * c, a * d, b * c, b * d]
    raw = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(4)]
    norm = math.sqrt(sum(abs(a) ** 2 for a in raw))
    return [a / norm for a in raw]


def state_json(amps: list[complex]) -> str:
    """``--state`` JSON with full-precision (repr) amplitudes."""
    return json.dumps({"n": 2, "amps": [[complex(a).real, complex(a).imag] for a in amps]})


def complex_arg(z: complex) -> str:
    """A complex CLI value, to be passed as ``--opt=VALUE``.

    argparse takes a separate word such as ``-0.5,0.1`` for an option name, so
    a negative real part only gets through attached to its option.
    """
    return f"{z.real!r},{z.imag!r}"


# --- workloads -----------------------------------------------------------------


class Workload:
    name = ""
    chunk_size = 1  # cases generated at a time, outside the timed region
    warmup = 1  # untimed operations before timing starts

    def cases(self, seed: int, chunk: int, n: int) -> list[Any]:
        raise NotImplementedError

    def execute(self, case: Any, tracer=NULL) -> Any:
        raise NotImplementedError

    def check(self, case: Any, output: Any) -> bool:
        raise NotImplementedError

    def setup_argv(self, case: Any) -> list[str]:
        """A fresh interpreter that imports the package and runs ``case``; exit 0 if correct."""
        raise NotImplementedError


def emitted(trace: ProtocolTrace) -> str:
    buf = io.StringIO()
    emit_trace(trace, buf)
    return buf.getvalue()


def _run_emit_validate(tracer, span: str, run: Callable[[], ProtocolTrace]) -> tuple[ProtocolTrace, str]:
    """A protocol run, then its trace emitted into memory and validated."""
    with tracer.span(span):
        trace = run()
    buf = io.StringIO()
    with tracer.span("harness.emit_trace"):
        emit_trace(trace, buf)
    with tracer.span("harness.validate_trace"):
        validate_trace(trace)
    return trace, buf.getvalue()


def _last_line_has(text: str, lines: int, key: str, value: Any) -> bool:
    rows = text.splitlines()
    return len(rows) == lines and json.loads(rows[-1])["payload"].get(key) == value


@dataclass(frozen=True)
class TeleportCase:
    alpha: complex
    beta: complex
    seed: int


class TeleportWorkload(Workload):
    """Sampled-path teleportation: one RNG draw per run, no two inputs alike."""

    name = "teleport"
    chunk_size = 256
    warmup = 64

    def cases(self, seed, chunk, n):
        rng = chunk_rng(seed, self.name, chunk)
        return [TeleportCase(*random_qubit(rng), seed_at(rng, i)) for i in range(n)]

    def execute(self, case, tracer=NULL):
        u = InputQubit(case.alpha, case.beta)
        return _run_emit_validate(tracer, "teleport.run", lambda: run_teleportation(u, case.seed))

    def check(self, case, output):
        trace, text = output
        fidelity = trace.verdict["fidelity"]
        return fidelity >= FIDELITY_FLOOR and _last_line_has(text, 7, "fidelity", fidelity)

    def setup_argv(self, case):
        return [sys.executable, str(ONEOP), self.name, repr(case.alpha), repr(case.beta), str(case.seed)]


@dataclass(frozen=True)
class SuperdenseCase:
    bits: str


class SuperdenseWorkload(Workload):
    """Superdense coding: four distinct inputs, no randomness, certain decode."""

    name = "superdense"
    chunk_size = 256
    warmup = 64

    def cases(self, seed, chunk, n):
        rng = chunk_rng(seed, self.name, chunk)
        return [SuperdenseCase(random_bits(rng)) for _ in range(n)]

    def execute(self, case, tracer=NULL):
        message = Message2.from_string(case.bits)
        return _run_emit_validate(tracer, "superdense.run", lambda: run_superdense(message))

    def check(self, case, output):
        trace, text = output
        return trace.verdict["decoded"] == case.bits and _last_line_has(text, 6, "decoded", case.bits)

    def setup_argv(self, case):
        return [sys.executable, str(ONEOP), self.name, case.bits]


@dataclass(frozen=True)
class CliCase:
    subcommand: str
    argv: tuple[str, ...]
    expected_stdout: str | None = None  # the whole output, for icl and bell
    expected_json: dict | None = None  # the --json summary of a protocol run
    expected_trace: bytes | None = None  # the --trace file of a teleport run


@dataclass(frozen=True)
class CliOutput:
    code: int
    stdout: str
    trace: bytes | None
    maxrss_kb: int


CLI_TRACE = OUT / "cli-trace.jsonl"
CLI_ROTATION = ("teleport", "superdense", "icl", "bell")


def captured_main(argv) -> tuple[int, str]:
    """``icl_qproto.cli.main`` in this process, with its stdout captured."""
    from icl_qproto.cli import main  # only the cli workload loads the CLI module

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


class CliWorkload(Workload):
    """One CLI process per operation; interpreter start and imports dominate."""

    name = "cli"
    chunk_size = len(CLI_ROTATION)

    def case(self, rng: random.Random, subcommand: str, chunk: int) -> CliCase:
        if subcommand == "teleport":
            alpha, beta = random_qubit(rng)
            seed = seed_at(rng, chunk % 8)  # one teleport per chunk: edges every eighth chunk
            trace = run_teleportation(InputQubit(alpha, beta), seed)
            measured = trace.events[2].payload
            return CliCase(
                subcommand,
                ("teleport", f"--alpha={complex_arg(alpha)}", f"--beta={complex_arg(beta)}",
                 "--seed", str(seed), "--trace", str(CLI_TRACE), "--json"),
                expected_json={"protocol": "teleport", "seed": seed, "outcome": measured["outcome"],
                               "bits": measured["bits"], "fidelity": trace.verdict["fidelity"]},
                expected_trace=emitted(trace).encode("ascii"),
            )
        if subcommand == "superdense":
            bits = random_bits(rng)
            trace = run_superdense(Message2.from_string(bits))
            return CliCase(
                subcommand, ("superdense", "--message", bits, "--json"),
                expected_json={"protocol": "superdense", "message": bits,
                               "unitary": trace.events[1].payload["unitary"],
                               "decoded": trace.verdict["decoded"]},
            )
        if subcommand == "icl":
            kind = ICL_KINDS[chunk % len(ICL_KINDS)]
            argv = ("icl", "--state", state_json(random_two_qubit(rng, kind)))
            return CliCase(subcommand, argv, expected_stdout=captured_main(argv)[1])
        argv = ("bell", "--list")
        return CliCase(subcommand, argv, expected_stdout=captured_main(argv)[1])

    def cases(self, seed, chunk, n):
        rng = chunk_rng(seed, self.name, chunk)
        return [self.case(rng, CLI_ROTATION[i % len(CLI_ROTATION)], chunk) for i in range(n)]

    def execute(self, case, tracer=NULL):
        if case.expected_trace is not None:
            CLI_TRACE.unlink(missing_ok=True)
        result = run_child(self.setup_argv(case))
        tracer.record("cli.process", result.start_ns, result.end_ns)
        trace = CLI_TRACE.read_bytes() if case.expected_trace is not None and CLI_TRACE.exists() else None
        return CliOutput(result.code, result.stdout, trace, result.maxrss_kb)

    def check(self, case, output):
        if output.code != 0:
            return False
        if case.expected_stdout is not None and output.stdout != case.expected_stdout:
            return False
        if case.expected_json is not None and json.loads(output.stdout) != case.expected_json:
            return False
        return case.expected_trace is None or output.trace == case.expected_trace

    def setup_argv(self, case):
        """Every operation is a fresh interpreter, so set-up is one operation."""
        return [sys.executable, "-m", "icl_qproto.cli", *case.argv]


@dataclass(frozen=True)
class WireCase:
    protocol: str
    seed: int
    alpha: complex = 0j
    beta: complex = 0j
    bits: str = ""
    expected_verdict: str = ""  # the in-process verdict for the same inputs and seed


@dataclass
class WireOutput:
    alice: list[str]
    bob: list[str]


class WireWorkload(Workload):
    """Loopback sessions alternating teleport and superdense: two threads, one connection."""

    name = "wire"
    chunk_size = 16
    warmup = 4

    def cases(self, seed, chunk, n):
        rng = chunk_rng(seed, self.name, chunk)
        out = []
        for i in range(n):
            if i % 2 == 0:
                alpha, beta = random_qubit(rng)
                s = seed_at(rng, i // 2)
                fidelity = run_teleportation(InputQubit(alpha, beta), s).verdict["fidelity"]
                out.append(WireCase("teleport", s, alpha, beta, expected_verdict=f"fidelity={fidelity!r}"))
            else:
                bits = random_bits(rng)
                out.append(WireCase("superdense", rng.getrandbits(64), bits=bits,
                                    expected_verdict=f"decoded={bits}"))
        return out

    def execute(self, case, tracer=NULL):
        if case.protocol == "teleport":
            params = {"input_qubit": InputQubit(case.alpha, case.beta)}
        else:
            params = {"message": Message2.from_string(case.bits)}
        with tracer.span("harness.wire_session") as session:
            start = clock()
            alice, bob = wire_session(
                case.protocol, case.seed, params,
                lambda: tracer.record("harness.wire_listen", start, clock(), parent=session),
            )
        return WireOutput(alice, bob)

    def check(self, case, output):
        return output.alice == [case.expected_verdict] and output.bob == [case.expected_verdict]

    def setup_argv(self, case):
        # the first case of every chunk is a teleport session
        return [sys.executable, str(ONEOP), self.name, repr(case.alpha), repr(case.beta), str(case.seed)]


WORKLOADS = {w.name: w for w in (TeleportWorkload(), SuperdenseWorkload(), CliWorkload(), WireWorkload())}


# --- the timed loop -------------------------------------------------------------


class Samples:
    """Per-op latencies in microseconds.

    The first ``CAPACITY`` slots are allocated and touched before timing
    starts, so the process's peak memory does not grow with throughput below
    that many operations a run.
    """

    CAPACITY = 1 << 18

    def __init__(self) -> None:
        self.values = array("d", bytes(8 * self.CAPACITY))
        self.count = 0

    def add(self, value: float) -> None:
        if self.count < self.CAPACITY:
            self.values[self.count] = value
        else:
            self.values.append(value)
        self.count += 1

    def all(self) -> list[float]:
        return list(self.values[: self.count])


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failures described."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def add(self, ok: bool, detail: Callable[[], str]) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(detail()[:400])


def attempt(workload: Workload, case: Any, tracer, tally: Tally) -> tuple[int, Any]:
    """Execute and check one operation; return its latency in ns and its output.

    A failed operation is counted in ``tally`` and its output is None.
    """
    tracer.begin_op(workload.name)
    start = clock()
    try:
        output = workload.execute(case, tracer)
    except Exception as exc:  # a failed operation is counted, not raised
        elapsed = clock() - start
        tally.add(False, lambda: f"{workload.name}: {type(exc).__name__}: {exc}")
        return elapsed, None
    elapsed = clock() - start
    try:
        ok = workload.check(case, output)
    except Exception as exc:  # a malformed output fails its check
        tally.add(False, lambda: f"{workload.name}: check raised {type(exc).__name__}: {exc}")
        return elapsed, output
    tally.add(ok, lambda: f"{workload.name}: wrong output for {case!r}: {output!r}")
    return elapsed, output


@dataclass
class Arm:
    """One side of a timed loop: how operations are traced and where latencies go."""

    tracer: Any
    samples: Samples
    loop_ns: int = 0  # loop time spent on this arm's chunks


def timed_loop(workload: Workload, seed: int, seconds: float, arms: list[Arm], tally: Tally) -> int:
    """Run whole generated chunks of operations until ``seconds`` of loop time are spent.

    Chunk i (from 1) runs on ``arms[(i - 1) % len(arms)]``, so two arms
    alternate and see the same host-speed swings. A chunk is never cut short,
    so every chunk keeps its workload's mix of operations. Case generation
    happens between chunks and is not loop time. Returns the largest peak RSS
    (kB) of any child an operation ran.
    """
    budget = int(seconds * 1e9)
    elapsed = 0
    peak_child_kb = 0
    chunk = 1
    while elapsed < budget:
        arm = arms[(chunk - 1) % len(arms)]
        cases = workload.cases(seed, chunk, workload.chunk_size)
        start = clock()
        for case in cases:
            ns, output = attempt(workload, case, arm.tracer, tally)
            arm.samples.add(ns / 1e3)
            peak_child_kb = max(peak_child_kb, getattr(output, "maxrss_kb", 0))
        spent = clock() - start
        elapsed += spent
        arm.loop_ns += spent
        chunk += 1
    return peak_child_kb


def warm_up(workload: Workload, seed: int) -> None:
    """Untimed operations, so that lazy set-up and caches settle before timing."""
    for case in workload.cases(seed, 0, workload.warmup):
        attempt(workload, case, NULL, Tally())
