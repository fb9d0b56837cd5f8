"""Golden traces: every committed trace is regenerated and compared byte for byte.

The files under ``tests/golden/`` pin the replay guarantee: a protocol,
its inputs and its seed fix the emitted JSON-lines bytes. A change that
alters any of them changes the trace format or the simulation, and has
to say so. To rewrite the files after such an intended change, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import io
import math
from pathlib import Path

import pytest

from icl_qproto.harness import MAX_SEED, Message2, emit_trace
from icl_qproto.phasespace import BELL_ORDER
from icl_qproto.superdense import run_superdense
from icl_qproto.teleport import InputQubit, run_teleportation

GOLDEN = Path(__file__).parent / "golden"

_R = 1 / math.sqrt(2)
INPUTS = {
    "zero": (1, 0),
    "real": (0.6, 0.8),
    "complex": ((1 + 1j) / 2, _R),
}
# 0, 7 and MAX_SEED all sample psi+; 2, 3 and 4 sample phi-, phi+ and psi-.
SEEDS = (0, 2, 3, 4, 7, MAX_SEED)
FORCED_INPUT = "real"


def _cases() -> dict[str, object]:
    """File stem -> zero-argument function returning the trace."""
    cases = {}
    for name, (alpha, beta) in INPUTS.items():
        for seed in SEEDS:
            cases[f"teleport-{name}-seed{seed}"] = (
                lambda a=alpha, b=beta, s=seed: run_teleportation(InputQubit(a, b), s)
            )
    alpha, beta = INPUTS[FORCED_INPUT]
    for tag in BELL_ORDER:
        cases[f"teleport-{FORCED_INPUT}-forced-{tag.value}"] = (
            lambda t=tag: run_teleportation(InputQubit(alpha, beta), 0, force_outcome=t)
        )
    for bits in ("00", "01", "10", "11"):
        cases[f"superdense-{bits}"] = lambda m=bits: run_superdense(Message2.from_string(m))
    return cases


CASES = _cases()


def _trace_bytes(stem: str) -> bytes:
    sink = io.StringIO()
    emit_trace(CASES[stem](), sink)
    return sink.getvalue().encode("ascii")


def test_every_golden_file_has_a_case():
    on_disk = {p.stem for p in GOLDEN.glob("*.jsonl")}
    assert on_disk == set(CASES)


@pytest.mark.parametrize("stem", sorted(CASES))
def test_trace_is_byte_identical(stem):
    assert _trace_bytes(stem) == (GOLDEN / f"{stem}.jsonl").read_bytes()


def write_all() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for stem in CASES:
        (GOLDEN / f"{stem}.jsonl").write_bytes(_trace_bytes(stem))


if __name__ == "__main__":
    write_all()
