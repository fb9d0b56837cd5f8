"""The package runs on the standard library alone, and each CLI process loads
only the package modules its subcommand runs; numpy is a test-only oracle.

The tests of what a process loads start a fresh interpreter, so the
modules it loads are the package's own, not the test suite's.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import icl_qproto

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


# one subcommand and its exit code (or, with no argv, a bare "import icl_qproto"),
# then the package modules loaded; annotations are never evaluated, so none loads typing
MODULES_CHILD = """
import contextlib, io, sys
if sys.argv[2:]:
    from icl_qproto.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(sys.argv[2:]) == int(sys.argv[1]), sys.argv
else:
    import icl_qproto
assert "typing" not in sys.modules, "typing was loaded"
print(" ".join(sorted(name.split(".")[1] for name in sys.modules if name.startswith("icl_qproto."))))
"""


def _child(*args: str, flags: tuple[str, ...] = (), script: str = CHILD) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)])}
    return subprocess.run(
        [sys.executable, *flags, "-c", script, *args],
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
    names = ("dataclasses", "inspect", "socket", "selectors", "pathlib", "typing")
    child = _child("names-loaded", *names, flags=("-S",))
    assert (child.returncode, child.stdout) == (0, "\n"), child.stderr


@pytest.mark.parametrize("argv, loaded, code", [
    ([], "", 0),
    (["bell", "--list"], "cli phasespace statevec", 0),
    (["icl", "--state", '{"n":2,"amps":[[1,0],[0,0],[0,0],[0,0]]}'], "cli icl phasespace statevec", 0),
    (["superdense", "--message", "10"], "cli harness measure phasespace statevec superdense", 0),
    (["teleport", "--alpha", "0.6,0", "--beta", "0.8,0"], "cli harness measure phasespace statevec teleport", 0),
    (["verify", "all"], "cli harness icl measure phasespace statevec superdense teleport verify", 0),
    # port 1 is never listening, so the connection is refused (exit 3); no teleport module loads
    (["wire", "--role", "alice", "--endpoint", "127.0.0.1:1", "--protocol", "superdense", "--message", "01"],
     "cli harness phasespace statevec wire", 3),
    (["wire", "--role", "alice", "--endpoint", "127.0.0.1:1", "--protocol", "teleport", "--alpha", "1,0", "--beta", "0,0"],
     "cli harness measure phasespace statevec teleport wire", 3),
], ids=["import", "bell", "icl", "superdense", "teleport", "verify", "wire-superdense", "wire-teleport"])
def test_each_subcommand_loads_only_the_modules_it_runs(argv, loaded, code):
    # each module a process imports is compiled from source when no bytecode cache can be written
    child = _child(str(code), *argv, flags=("-S",), script=MODULES_CHILD)
    assert (child.returncode, child.stdout) == (0, loaded + "\n"), child.stderr


def test_every_public_name_is_its_modules_object():
    for module, names in icl_qproto._EXPORTS.items():
        owner = importlib.import_module(f"icl_qproto.{module}")
        for name in names:
            assert getattr(icl_qproto, name) is getattr(owner, name), name
    assert sorted(icl_qproto.__all__) == sorted(n for names in icl_qproto._EXPORTS.values() for n in names)
    assert set(icl_qproto.__all__) <= set(dir(icl_qproto))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from icl_qproto import *", namespace)
    for name in icl_qproto.__all__:
        assert namespace[name] is getattr(icl_qproto, name), name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="nonexistent"):
        icl_qproto.nonexistent
    assert not hasattr(icl_qproto, "nonexistent")
    # a submodule resolves even before anything imported it, as when __init__ imported them all
    assert icl_qproto.__getattr__("teleport") is importlib.import_module("icl_qproto.teleport")


def test_moved_names_keep_every_import_path():
    from icl_qproto import cli, statevec, wire

    for name in ("MAX_SEED", "HandshakeError", "TransportError"):
        assert getattr(cli, name) is getattr(wire, name) is getattr(statevec, name), name
    assert icl_qproto.HandshakeError is statevec.HandshakeError
    assert icl_qproto.TransportError is statevec.TransportError
