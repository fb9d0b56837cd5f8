"""Benchmark of icl-qproto: end-to-end workloads and a traced per-layer run.

Run from the root of a source checkout (the package need not be installed):

    python3 bench/run.py --workload cli --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seconds 5

``--trace 0`` measures one workload end to end with no tracing and prints the
metrics listed under ``end_to_end`` in BENCHMARK.json; ``--trace 1`` runs the
traced layer sweep (see ``layers.py``) and prints those under ``per_layer``.
Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Each run also
writes a record (environment, host-speed probes, sample counts, failures) and,
when traced, its spans to ``bench/out/``.

End-to-end metrics, all measured with tracing off:

* ``setup_s`` -- median over fresh interpreters of importing ``icl_qproto``
  (``python -m icl_qproto.cli`` for cli) and finishing one untimed operation,
  from spawn to exit. Input generation is not in it.
* ``ops_per_s`` -- operations completed per second of loop time over the
  whole timed phase; case generation between chunks is not loop time.
* ``op_us_p50`` and ``op_us_p90`` -- per-operation latency over the whole
  timed phase. p90 is the highest percentile that leaves at least ten
  samples beyond it on every workload at the chosen run length; the sample
  count is printed with it.
* ``peak_rss_mb`` -- peak resident memory of the process that runs the
  operations: this one, or for cli the largest operation child.

Operations attempted and failed are the result's ``attempted`` and ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# BENCHMARK.json names only cli and wire. On a shared 2-vCPU host whose speed
# drifts by about 20% over tens of seconds, the figures of the CPU-bound
# in-process workloads (teleport, superdense) spread over ten runs by up to a
# third of their median, more than any bound the benchmark may set; they stay
# here to be run by hand and in the traced sweep.
WORKLOAD_NAMES = ("teleport", "superdense", "cli", "wire")
SETUP_RUNS = (4, 3)  # set-up children before and after the loop, so they meet different host speeds

# A fixed pure-Python and numpy loop, run in a child before and after each
# measurement: the host's speed swings, and this shows by how much.
HOST_PROBE = """
import json, time, numpy as np
def median_ms(fn, reps=5):
    times = []
    for _ in range(reps):
        t = time.perf_counter(); fn(); times.append(time.perf_counter() - t)
    return sorted(times)[reps // 2] * 1e3
def py_loop():
    acc = 0
    for i in range(300000):
        acc = (acc + i * i) % 1000003
def np_loop():
    m = np.full((8, 8), 1 / 8)
    for _ in range(6000):
        m = m @ m
print(json.dumps({"python_ms": median_ms(py_loop), "numpy_ms": median_ms(np_loop), "numpy": np.__version__}))
"""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOAD_NAMES, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def latency_figures(samples, loop_seconds: float) -> dict[str, float]:
    """Rate and latency over the whole timed phase, with the sample count behind p90."""
    everything = samples.all()
    tail = p90(everything)
    return {
        "ops_per_s": len(everything) / loop_seconds,
        "op_us_p50": statistics.median(everything),
        "op_us_p90": tail,
        "samples": len(everything),
        "beyond_p90": sum(v > tail for v in everything),
    }


def host_probe() -> dict:
    from workloads import run_child

    child = run_child([sys.executable, "-c", HOST_PROBE])
    if child.code != 0:
        return {"error": child.stdout[-400:]}
    return json.loads(child.stdout)


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


def end_to_end(name: str, seed: int, seconds: float):
    from workloads import NULL, WORKLOADS, Arm, Samples, Tally, run_child, timed_loop, warm_up

    workload = WORKLOADS[name]
    tally = Tally()
    setup_argv = workload.setup_argv(workload.cases(seed, 0, 1)[0])
    setups = []

    def set_up(times: int) -> None:
        for _ in range(times):
            child = run_child(setup_argv)
            setups.append((child.end_ns - child.start_ns) / 1e9)
            tally.add(child.code == 0, lambda: f"{name}: set-up child exited {child.code}: {child.stdout[-300:]}")

    set_up(SETUP_RUNS[0])
    warm_up(workload, seed)
    arm = Arm(NULL, Samples())
    peak_child_kb = timed_loop(workload, seed, seconds, [arm], tally)
    peak_kb = peak_child_kb if name == "cli" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    set_up(SETUP_RUNS[1])
    latency = latency_figures(arm.samples, arm.loop_ns / 1e9)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": latency["ops_per_s"],
        "op_us_p50": latency["op_us_p50"],
        "op_us_p90": latency["op_us_p90"],
        "peak_rss_mb": peak_kb / 1024,
    }
    extras = {"latency": latency, "setup_runs_s": setups}
    return metrics, tally, extras, []


def traced(name: str, seed: int, seconds: float):
    import layers  # it loads the CLI module, which end-to-end runs of the in-process workloads must not

    return layers.traced_run(name, seed, seconds)


def metric_units() -> dict[str, str]:
    """Unit of every metric BENCHMARK.json declares, end-to-end and per-layer."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_workload(args: argparse.Namespace) -> int:
    from workloads import OUT

    OUT.mkdir(exist_ok=True)
    units = metric_units()
    before = host_probe()
    measure = traced if args.trace else end_to_end
    metrics, tally, extras, tracers = measure(args.workload, args.seed, args.seconds)
    after = host_probe()

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": {
            "python": platform.python_version(), "numpy": before.get("numpy"),
            "nproc": os.cpu_count(), "src_lines": src_lines(),
        },
        "host_probe": {"before": before, "after": after},
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "attempted": tally.attempted, "failed": tally.failed, "errors": tally.errors,
        **extras,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    for i, tracer in enumerate(tracers):
        tracer.dump(OUT / f"{stem}.spans{i}.jsonl")

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"python={record['environment']['python']} numpy={record['environment']['numpy']} "
          f"nproc={record['environment']['nproc']} src_lines={record['environment']['src_lines']}")
    print(f"  host probe python/numpy ms: before {before.get('python_ms', float('nan')):.1f}/"
          f"{before.get('numpy_ms', float('nan')):.1f}, after {after.get('python_ms', float('nan')):.1f}/"
          f"{after.get('numpy_ms', float('nan')):.1f}")
    for k, v in metrics.items():
        note = ""
        if k == "op_us_p90":
            lat = extras["latency"]
            note = f"  (n={lat['samples']}, {lat['beyond_p90']} beyond)"
        print(f"  {k:34s} {v:14.3f} {units[k]}{note}")
    print(f"  ops_attempted {tally.attempted}  ops_failed {tally.failed}")
    for error in tally.errors:
        print(f"  failure: {error}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so that peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited {child.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "icl_qproto" / "__init__.py").is_file():
        print(f"error: no icl_qproto sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
