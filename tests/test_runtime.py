"""The package runs on the standard library alone; numpy is a test-only oracle.

Each test starts a fresh interpreter, so the modules it loads are the
package's own, not the test suite's.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# every subcommand but wire, which needs a peer
CHILD = """
import contextlib, io, sys, tempfile
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None  # from here on, "import numpy" raises ImportError
from icl_qproto.cli import main
with tempfile.TemporaryDirectory() as tmp:
    for argv in (
        ["teleport", "--alpha", "0.6,0", "--beta", "0,0.8", "--seed", "3", "--trace", tmp + "/t.jsonl"],
        ["superdense", "--message", "10", "--json"],
        ["icl", "--state", '{"n":2,"amps":[[1,0],[0,0],[0,0],[0,0]]}'],
        ["bell", "--list"],
        ["verify", "all"],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
if sys.argv[1] == "names-loaded":
    print(" ".join(name for name in sys.argv[2:] if name in sys.modules))
    sys.exit()
if sys.argv[1] == "blocked":
    import test_golden
    for stem in test_golden.CASES:
        assert test_golden._trace_bytes(stem) == (test_golden.GOLDEN / f"{stem}.jsonl").read_bytes(), stem
    for stem in test_golden.CLI_CASES:
        assert test_golden._stdout_bytes(stem) == (test_golden.GOLDEN / f"{stem}.stdout").read_bytes(), stem
else:
    assert "numpy" not in sys.modules, "a subcommand imported numpy"
print("ok")
"""


def _child(mode: str, *args: str, flags: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)])}
    return subprocess.run(
        [sys.executable, *flags, "-c", CHILD, mode, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_every_subcommand_and_golden_file_without_numpy():
    child = _child("blocked")
    assert (child.returncode, child.stdout) == (0, "ok\n"), child.stderr


def test_no_subcommand_imports_numpy():
    child = _child("normal")
    assert (child.returncode, child.stdout) == (0, "ok\n"), child.stderr


def test_no_subcommand_loads_dataclasses_socket_or_pathlib():
    # -S: no site module, so no .pth file imports anything on the package's behalf;
    # socket and selectors are for wire alone, and nothing needs the others
    child = _child("names-loaded", "dataclasses", "inspect", "socket", "selectors", "pathlib", flags=("-S",))
    assert (child.returncode, child.stdout) == (0, "\n"), child.stderr
