"""Tests of the benchmark itself: its inputs, its output checks and its report.

Run from the repository root:

    PYTHONPATH=src python -m pytest bench -q
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
import workloads as w
from icl_qproto import ProtocolTrace, TraceEvent, classify, StateVector

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _fingerprint(case):
    return case.argv if isinstance(case, w.CliCase) else case


@pytest.mark.parametrize("name", sorted(w.WORKLOADS))
def test_inputs_depend_only_on_seed_and_chunk(name):
    workload = w.WORKLOADS[name]
    first = [_fingerprint(c) for c in workload.cases(7, 3, 8)]
    again = [_fingerprint(c) for c in workload.cases(7, 3, 8)]
    other = [_fingerprint(c) for c in workload.cases(8, 3, 8)]
    assert first == again
    assert first != other


def test_every_teleport_chunk_starts_with_the_seed_edges():
    seeds = [c.seed for c in w.WORKLOADS["teleport"].cases(5, 1, 4)]
    assert seeds[:2] == [0, 2**64 - 1]
    assert all(0 <= s <= 2**64 - 1 for s in seeds)


def test_qubits_are_fixed_points_of_the_cli_normalisation():
    rng = w.chunk_rng(1, "test", 0)
    for _ in range(200):
        a, b = w.random_qubit(rng)
        assert math.sqrt(abs(a) ** 2 + abs(b) ** 2) == 1.0


@pytest.mark.parametrize("kind", w.ICL_KINDS)
def test_generated_states_have_their_class(kind):
    rng = w.chunk_rng(2, "test", 0)
    for _ in range(20):
        state = StateVector.from_json(json.loads(w.state_json(w.random_two_qubit(rng, kind))))
        assert classify(state).kind.value == kind


class FlippedBit(w.SuperdenseWorkload):
    """Decodes correctly, then reports the other value of the low bit."""

    def execute(self, case, tracer=w.NULL):
        trace, text = super().execute(case, tracer)
        last = trace.events[-1]
        flipped = case.bits[0] + "10"[int(case.bits[1])]
        events = trace.events[:-1] + (TraceEvent(last.step, last.actor, last.action, {"decoded": flipped}),)
        return ProtocolTrace(trace.protocol, trace.seed, events), text


class Raises(w.TeleportWorkload):
    def execute(self, case, tracer=w.NULL):
        raise RuntimeError("planted failure")


@pytest.mark.parametrize("workload", [FlippedBit(), Raises()])
def test_planted_failures_are_counted_not_raised(workload):
    tally = w.Tally()
    for case in workload.cases(1, 1, 3):
        w.attempt(workload, case, w.NULL, tally)
    assert (tally.attempted, tally.failed) == (3, 3)
    assert len(tally.errors) == 3


def test_a_changed_trace_byte_fails_the_cli_check(tmp_path):
    cli = w.WORKLOADS["cli"]
    case = cli.cases(4, 1, 1)[0]
    assert case.subcommand == "teleport"
    w.OUT.mkdir(exist_ok=True)
    code, stdout = w.captured_main(case.argv)
    good = w.CliOutput(code, stdout, w.CLI_TRACE.read_bytes(), 0)
    assert cli.check(case, good)
    changed = bytearray(good.trace)
    changed[len(changed) // 2] ^= 0x01
    assert not cli.check(case, replace(good, trace=bytes(changed)))
    assert not cli.check(case, replace(good, code=1))


@pytest.mark.parametrize("name, kind, mix", [
    ("cli", "subcommand", list(w.CLI_ROTATION)),
    ("wire", "protocol", ["teleport", "superdense"] * 8),
])
def test_a_timed_run_runs_and_checks_the_whole_mix(name, kind, mix, monkeypatch):
    workload = w.WORKLOADS[name]
    checked = []

    def check(case, output, original=workload.check):
        ok = original(case, output)
        checked.append((getattr(case, kind), ok))
        return ok

    monkeypatch.setattr(workload, "check", check)
    tally = w.Tally()
    arm = w.Arm(w.NULL, w.Samples())
    w.timed_loop(workload, 6, 0.001, [arm], tally)  # a tiny budget still runs one whole chunk
    assert checked == [(op, True) for op in mix]
    assert (tally.attempted, tally.failed, arm.samples.count) == (len(mix), 0, len(mix))


def test_wire_verdicts_must_match_the_in_process_run():
    wire = w.WORKLOADS["wire"]
    case = wire.cases(3, 1, 1)[0]
    assert wire.check(case, w.WireOutput([case.expected_verdict], [case.expected_verdict]))
    assert not wire.check(case, w.WireOutput([case.expected_verdict], ["fidelity=0.5"]))


def _result(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_end_to_end_metric_names_match_the_spec():
    result = _result("--workload", "superdense", "--seed", "3", "--seconds", "0.5", "--trace", "0")
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert set(SPEC["end_to_end"][0]) == {"name", "unit", "better", "bound"}


def test_per_layer_metric_names_match_the_spec():
    result = _result("--workload", "teleport", "--seed", "3", "--seconds", "0.5", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    steps = metrics["teleport.bell_measure_us"] + metrics["teleport.extract_bob_state_us"]
    assert steps + metrics["teleport.self_us"] == pytest.approx(metrics["teleport.run_us"])


def test_spec_workloads_are_the_benchmarks():
    assert {wl["name"] for wl in SPEC["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(w.WORKLOADS)


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "teleport", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
