"""Golden outputs: every committed trace and CLI output is regenerated and compared byte for byte.

The ``*.jsonl`` files under ``tests/golden/`` pin the replay guarantee: a
protocol, its inputs and its seed fix the emitted JSON-lines bytes. The
``cli-*.stdout`` files pin the stdout of the deterministic CLI commands
(``verify all`` with and without ``--json``, ``bell --list``, teleport
and superdense in text and ``--json``, ``icl`` on a Bell and a product
state); each teleport argv names its seed, so ``ICL_QPROTO_SEED`` cannot
leak in. A change that alters any of them changes the trace format, the
simulation or the CLI output, and has to say so. To rewrite the files
after such an intended change, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import math
import random
from pathlib import Path

import pytest

from icl_qproto.cli import main
from icl_qproto.harness import Message2, emit_trace
from icl_qproto.phasespace import BELL_ORDER
from icl_qproto.statevec import MAX_SEED
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


@pytest.mark.parametrize("stem", sorted(CASES))
def test_trace_is_byte_identical(stem):
    assert _trace_bytes(stem) == (GOLDEN / f"{stem}.jsonl").read_bytes()


@pytest.mark.parametrize("stem", sorted(CLI_CASES))
def test_cli_stdout_is_byte_identical(stem):
    assert _stdout_bytes(stem) == (GOLDEN / f"{stem}.stdout").read_bytes()


def write_all() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for stem in CASES:
        (GOLDEN / f"{stem}.jsonl").write_bytes(_trace_bytes(stem))
    for stem in CLI_CASES:
        (GOLDEN / f"{stem}.stdout").write_bytes(_stdout_bytes(stem))


if __name__ == "__main__":
    write_all()
