"""The traced run: per-layer timings of the program's public functions.

The sweep calls each layer's public functions from here, on inputs generated
from the seed, inside spans (see ``workloads.Tracer``). Nothing in the
program is instrumented: a step inside a protocol run is timed by calling it
again on the same inputs right after the run, and recorded as a child span of
the run. A run's self time is its duration minus the medians of those steps,
so the steps and the self time add up to the run exactly.

The sweep is fixed-size and identical for every workload, so each per-layer
metric means the same thing on every workload. The rest of the run's time
goes to the workload's own loop, in chunks that alternate between untraced
and traced operations; the ratio of their median latencies is the tracing
overhead.

Which end-to-end numbers each layer should move:

* statevec -- teleport ``op_us_p50``/``ops_per_s`` (measurement, validation,
  RNG) and superdense (``apply_1q``, ``branch_probabilities``); not cli, and
  not wire while its sessions wait on delayed ACKs.
* phasespace (``bell_projectors``) -- superdense, which builds them twice a run.
* icl -- cli only, at under 1% of an operation: no gain here can show end to end.
* teleport, superdense -- their own workloads.
* harness -- ``emit``/``validate``/``trace_bytes`` move teleport and superdense;
  ``wire_*`` move wire ``op_us_p50``, of which ``wire_wait_us`` (the session
  minus the two mirrored protocol runs and the listen set-up) is most today.
* cli -- ``interp``/``import``/``parse``/``main_us.*`` move cli ``op_us_p50``;
  ``import_us`` also moves ``setup_s`` everywhere. ``verify_all_us`` moves with
  the measurement kernel and is claimed on teleport.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
from typing import Any

import numpy as np

from icl_qproto import (
    BELL_ORDER,
    IDENTITY2,
    BellState,
    InputQubit,
    Message2,
    RandomSource,
    StateVector,
    apply_1q,
    bell_measure,
    bell_projectors,
    branch_probabilities,
    classify,
    correction_for,
    decode,
    encode,
    encoding_table,
    extract_bob_state,
    measure_projective,
    overlap,
    run_superdense,
    run_teleportation,
    state_to_diagram,
    tensor,
)
from icl_qproto.cli import parse

from workloads import (
    CLI_ROTATION,
    CLI_TRACE,
    ICL_KINDS,
    NULL,
    WORKLOADS,
    Arm,
    CliOutput,
    Samples,
    Tally,
    Tracer,
    attempt,
    captured_main,
    chunk_rng,
    clock,
    random_two_qubit,
    run_child,
    timed_loop,
)

SWEEP_CHUNK = -1

# Sweep sizes: a few seconds in all on a 2-vCPU host, most of it child processes.
PROTOCOL_OPS = 200
ICL_BATCHES = 100
PARSE_BATCHES = 50
MAIN_CALLS = 10
VERIFY_CALLS = 3
CHILD_CALLS = 5
WIRE_SESSIONS = 16

IMPORT_PROBE = (
    "import time; t0 = time.perf_counter_ns(); import icl_qproto.cli; "
    "print(t0, time.perf_counter_ns())"
)

# Metric -> (span name, kind of operation the span belongs to).
SPAN_METRICS = {
    "statevec.state_new_us": ("statevec.state_new", "teleport"),
    "statevec.tensor_us": ("statevec.tensor", "teleport"),
    "statevec.apply_1q_us": ("statevec.apply_1q", "superdense"),
    "statevec.branch_probabilities_us": ("statevec.branch_probabilities", "teleport"),
    "statevec.measure_projective_us": ("statevec.measure_projective", "teleport"),
    "statevec.overlap_us": ("statevec.overlap", "teleport"),
    "phasespace.bell_projectors_us": ("phasespace.bell_projectors", "superdense"),
    "icl.classify_us": ("icl.classify", "icl"),
    "icl.state_to_diagram_us": ("icl.state_to_diagram", "icl"),
    "teleport.run_us": ("teleport.run", "teleport"),
    "teleport.bell_measure_us": ("teleport.bell_measure", "teleport"),
    "teleport.extract_bob_state_us": ("teleport.extract_bob_state", "teleport"),
    "superdense.run_us": ("superdense.run", "superdense"),
    "superdense.encode_us": ("superdense.encode", "superdense"),
    "superdense.decode_us": ("superdense.decode", "superdense"),
    # emit and validate are timed on teleport traces, the headline protocol
    "harness.emit_trace_us": ("harness.emit_trace", "teleport"),
    "harness.validate_trace_us": ("harness.validate_trace", "teleport"),
    "harness.wire_listen_us": ("harness.wire_listen", "wire"),
    "harness.wire_session_us": ("harness.wire_session", "wire"),
    "cli.interp_us": ("cli.interp", "cli"),
    "cli.import_us": ("cli.import", "cli"),
    "cli.parse_us": ("cli.parse", "cli"),
    **{f"cli.main_us.{sub}": (f"cli.main.{sub}", "cli") for sub in CLI_ROTATION},
    "cli.verify_all_us": ("cli.verify_all", "cli"),
}

COUNT_METRICS = ("statevec.rng_draws", "harness.trace_bytes")

# run = the listed steps + self, each a median per call
SELF_TIME = {
    "teleport.self_us": ("teleport.run_us", ("teleport.bell_measure_us", "teleport.extract_bob_state_us")),
    "superdense.self_us": ("superdense.run_us", ("superdense.encode_us", "superdense.decode_us")),
}


@contextlib.contextmanager
def counting_draws():
    """Count the ``RandomSource.uniform`` draws made inside the block."""
    drawn = [0]
    original = RandomSource.uniform

    def uniform(self):
        drawn[0] += 1
        return original(self)

    RandomSource.uniform = uniform
    try:
        yield drawn
    finally:
        RandomSource.uniform = original


def sweep_teleport(seed: int, tracer: Tracer, tally: Tally) -> None:
    workload = WORKLOADS["teleport"]
    ua = tuple(np.kron(p, IDENTITY2) for p in bell_projectors())  # Bell basis on (U, A)
    phi = BellState.PHI_PLUS.vector()
    for case in workload.cases(seed, SWEEP_CHUNK, PROTOCOL_OPS):
        _, output = attempt(workload, case, tracer, tally)
        if output is None:
            continue
        trace, text = output
        tracer.count("harness.trace_bytes", len(text.encode("ascii")))
        run = tracer.last("teleport.run")
        u = InputQubit(case.alpha, case.beta)
        state = u.state()
        joint = tensor(state, phi)
        rand = RandomSource(case.seed)
        with tracer.span("teleport.bell_measure", parent=run):
            outcome, collapsed = bell_measure(joint, rand)
        with tracer.span("teleport.extract_bob_state", parent=run):
            bob = extract_bob_state(collapsed, outcome.tag)
        # the replayed steps must follow the run's own path
        tally.add(outcome.tag.value == trace.events[2].payload["outcome"],
                  lambda: f"teleport: replayed Bell outcome diverged for {case!r}")
        bob = StateVector(1, correction_for(outcome.tag) @ bob.amps)

        with tracer.span("statevec.state_new"):
            StateVector(joint.qubit_count, joint.amps)
        with tracer.span("statevec.tensor"):
            tensor(state, phi)
        with tracer.span("statevec.branch_probabilities"):
            branch_probabilities(joint, ua)
        rand = RandomSource(case.seed)
        with tracer.span("statevec.measure_projective"):
            measure_projective(joint, ua, rand)
        with tracer.span("statevec.overlap"):
            overlap(state, bob)
        with counting_draws() as drawn:
            run_teleportation(u, case.seed)
        tracer.count("statevec.rng_draws", drawn[0])


def sweep_superdense(seed: int, tracer: Tracer, tally: Tally) -> None:
    workload = WORKLOADS["superdense"]
    phi = BellState.PHI_PLUS.vector()
    for case in workload.cases(seed, SWEEP_CHUNK, PROTOCOL_OPS):
        _, output = attempt(workload, case, tracer, tally)
        if output is None:
            continue
        run = tracer.last("superdense.run")
        message = Message2.from_string(case.bits)
        with tracer.span("superdense.encode", parent=run):
            encoded = encode(message, phi)
        with tracer.span("superdense.decode", parent=run):
            decoded = decode(encoded)
        tally.add(str(decoded) == case.bits, lambda: f"superdense: replayed decode gave {decoded}")
        with tracer.span("phasespace.bell_projectors"):
            bell_projectors()
        unitary, _ = encoding_table()[message]
        with tracer.span("statevec.apply_1q"):
            apply_1q(phi, unitary, 1)


def sweep_icl(seed: int, tracer: Tracer, tally: Tally) -> None:
    """Each span covers one state of every class, so the mix per span is fixed."""
    rng = chunk_rng(seed, "icl", SWEEP_CHUNK)
    for _ in range(ICL_BATCHES):
        states = [StateVector.from_amplitudes(random_two_qubit(rng, kind)) for kind in ICL_KINDS]
        tracer.begin_op("icl")
        with tracer.span("icl.classify", calls=len(states)):
            classes = [classify(state) for state in states]
        with tracer.span("icl.state_to_diagram", calls=len(BELL_ORDER)):
            for tag in BELL_ORDER:
                state_to_diagram(tag)
        got = tuple(c.kind.value for c in classes)
        tally.add(got == ICL_KINDS, lambda: f"icl: classified {got}, drew {ICL_KINDS}")


def sweep_wire(seed: int, tracer: Tracer, tally: Tally) -> None:
    """Sessions, then each peer's protocol run again on the same inputs (the mirrored runs)."""
    workload = WORKLOADS["wire"]
    for case in workload.cases(seed, SWEEP_CHUNK, WIRE_SESSIONS):
        _, output = attempt(workload, case, tracer, tally)
        if output is None:
            continue
        session = tracer.last("harness.wire_session")
        for _ in ("alice", "bob"):
            with tracer.span("harness.wire_mirror_run", parent=session):
                if case.protocol == "teleport":
                    run_teleportation(InputQubit(case.alpha, case.beta), case.seed)
                else:
                    run_superdense(Message2.from_string(case.bits))


def sweep_cli(seed: int, tracer: Tracer, tally: Tally) -> None:
    workload = WORKLOADS["cli"]
    rng = chunk_rng(seed, "cli", SWEEP_CHUNK)
    cases = [workload.case(rng, sub, SWEEP_CHUNK) for sub in CLI_ROTATION]
    tracer.begin_op("cli")
    for _ in range(PARSE_BATCHES):
        with tracer.span("cli.parse", calls=len(cases)):
            for case in cases:
                parse(case.argv)
    for case in cases:
        for _ in range(MAIN_CALLS):
            tracer.begin_op("cli")
            CLI_TRACE.unlink(missing_ok=True)
            with tracer.span(f"cli.main.{case.subcommand}"):
                code, stdout = captured_main(case.argv)
            trace = CLI_TRACE.read_bytes() if CLI_TRACE.exists() else None
            output = CliOutput(code, stdout, trace, 0)
            tally.add(workload.check(case, output), lambda: f"cli: in-process main gave {output!r}")
    for _ in range(VERIFY_CALLS):
        tracer.begin_op("cli")
        with tracer.span("cli.verify_all"):
            code, _ = captured_main(["verify", "all"])
        tally.add(code == 0, lambda: f"cli: verify all exited {code}")
    for _ in range(CHILD_CALLS):
        tracer.begin_op("cli")
        bare = run_child([sys.executable, "-c", "pass"])
        tracer.record("cli.interp", bare.start_ns, bare.end_ns)
        child = run_child([sys.executable, "-c", IMPORT_PROBE])
        # perf_counter_ns is the system-wide monotonic clock, so the child's stamps are ours
        start, end = map(int, child.stdout.split())
        tracer.record("cli.import", start, end)


def _per_call_us(tracer: Tracer, name: str, kind: str) -> list[float]:
    return [
        (end - start) / calls / 1e3
        for _, span_name, start, end, _, op, calls in tracer.spans
        if span_name == name and tracer.op_kinds.get(op) == kind
    ]


def _wire_wait_us(tracer: Tracer) -> list[float]:
    """Per session: its duration minus its listen set-up and mirrored runs."""
    spans = {s[0]: s for s in tracer.spans}
    wait: dict[int, float] = {}
    for span_id, name, start, end, parent, _, _ in tracer.spans:
        if name == "harness.wire_session":
            wait[span_id] = wait.get(span_id, 0.0) + (end - start) / 1e3
        elif name in ("harness.wire_listen", "harness.wire_mirror_run") and parent in spans:
            wait[parent] = wait.get(parent, 0.0) - (end - start) / 1e3
    return list(wait.values())


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, float]:
    metrics = {name: statistics.median(_per_call_us(tracer, *key)) for name, key in SPAN_METRICS.items()}
    for name in COUNT_METRICS:
        metrics[name] = statistics.median(v for n, _, v in tracer.counts if n == name)
    for name, (run, steps) in SELF_TIME.items():
        metrics[name] = metrics[run] - sum(metrics[s] for s in steps)
    metrics["harness.wire_wait_us"] = statistics.median(_wire_wait_us(tracer))
    metrics["trace.overhead_ratio"] = overhead_ratio
    return metrics


def traced_run(workload_name: str, seed: int, seconds: float) -> tuple[dict[str, float], Tally, dict[str, Any], list[Tracer]]:
    """The layer sweep, then the workload's loop alternating untraced and traced chunks."""
    tally = Tally()
    sweep = Tracer()
    start = clock()
    for step in (sweep_teleport, sweep_superdense, sweep_icl, sweep_wire, sweep_cli):
        step(seed, sweep, tally)
    sweep_seconds = (clock() - start) / 1e9
    loop = Tracer()
    plain, traced = Arm(NULL, Samples()), Arm(loop, Samples())
    timed_loop(WORKLOADS[workload_name], seed, max(seconds - sweep_seconds, 1.0), [plain, traced], tally)
    plain_p50 = statistics.median(plain.samples.all())
    traced_p50 = statistics.median(traced.samples.all())
    extras = {
        "overhead": {"untraced_p50_us": plain_p50, "traced_p50_us": traced_p50,
                     "untraced_ops": plain.samples.count, "traced_ops": traced.samples.count},
        "sweep_seconds": sweep_seconds,
    }
    return layer_metrics(sweep, traced_p50 / plain_p50), tally, extras, [sweep, loop]
