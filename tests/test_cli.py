"""Tests for argument parsing, subcommand behavior, and exit codes."""

import argparse
import contextlib
import io
import json
import re
import socket
import threading
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icl_qproto import phasespace, wire
from icl_qproto.cli import _COMMANDS, UsageError, build_parser, main, parse
from icl_qproto.harness import Message2
from icl_qproto.phasespace import HState
from icl_qproto.verify import SUITES, verify


# every float as a component: huge, subnormal, nan, inf
_COMPLEX = st.tuples(st.floats(), st.floats()).map(lambda p: f"{p[0]!r},{p[1]!r}")
_TELEPORT_ARGV = st.tuples(_COMPLEX, _COMPLEX).map(
    lambda ab: ["teleport", f"--alpha={ab[0]}", f"--beta={ab[1]}"]
)

# an integer amplitude past the float range, as JSON writes it
_HUGE_INT_STATE = '{"n":2,"amps":[[1' + "0" * 400 + ',0],[0,0],[0,0],[0,0]]}'
# a finite amplitude whose square is past the float range
_HUGE_FLOAT_STATE = '{"n":2,"amps":[[1e200,0],[0,0],[0,0],[0,0]]}'

# --state: JSON numbers of any size, nan/inf, wrong shapes, or text that is not JSON
_NUMBER = (
    st.integers()
    | st.integers(min_value=-(10**500), max_value=10**500)
    | st.floats()
    | st.sampled_from([0, 1, -1, 0.7071067811865476, -0.7071067811865476])
)
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBER | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=10,
)
_AMP = st.lists(_NUMBER, min_size=2, max_size=2) | _JSON
_STATE = (
    st.fixed_dictionaries({
        "n": st.just(2) | _JSON,
        "amps": st.lists(_AMP, min_size=4, max_size=4) | st.lists(_AMP, max_size=9) | _JSON,
    }).map(json.dumps)
    | _JSON.map(json.dumps)
    | st.text(max_size=20)
)
_FLAG = st.lists(st.sampled_from(["--json", "--help"]), max_size=2, unique=True)
_TRACE = st.sampled_from([[], ["--trace", "{tmp}/t.jsonl"], ["--trace", "{tmp}/absent/t.jsonl"]])
_MAIN_ARGV = st.one_of(
    st.tuples(
        st.just(["teleport"]),
        st.tuples(_COMPLEX, _COMPLEX).map(lambda ab: [f"--alpha={ab[0]}", f"--beta={ab[1]}"]),
        st.lists(st.tuples(st.sampled_from(["--seed", "--force-outcome"]),
                           st.sampled_from(["0", "7", "phi+", "psi-"]) | st.text(max_size=6)),
                 max_size=2).map(lambda pairs: [word for pair in pairs for word in pair]),
        _TRACE, _FLAG,
    ),
    st.tuples(st.just(["superdense", "--message"]),
              st.lists(st.sampled_from(["00", "01", "10", "11"]) | st.text(max_size=4),
                       min_size=1, max_size=1),
              _TRACE, _FLAG),
    st.tuples(st.just(["bell"]), st.lists(st.sampled_from(["--list", "--json", "--help"]),
                                          max_size=3, unique=True)),
    st.tuples(st.just(["icl", "--state"]), st.lists(_STATE, min_size=1, max_size=1), _FLAG),
    st.tuples(st.just(["verify"]),
              st.lists(st.sampled_from(["all", "phase-space", "icl", "teleport", "superdense"])
                       | st.text(max_size=6), max_size=1),
              _FLAG),
).map(lambda parts: [word for part in parts for word in part])


class TestParse:
    def test_teleport_command(self):
        cmd = parse(["teleport", "--alpha", "1,0", "--beta", "0,0", "--seed", "7"])
        assert cmd.command == "teleport"
        assert cmd.alpha == 1.0 + 0j
        assert cmd.beta == 0j
        assert cmd.seed == 7

    def test_teleport_renormalizes_truncated_decimals(self):
        cmd = parse(["teleport", "--alpha", "0.707107,0", "--beta", "0,0.707107"])
        norm = abs(cmd.alpha) ** 2 + abs(cmd.beta) ** 2
        assert norm == pytest.approx(1.0, abs=1e-12)

    def test_teleport_rejects_far_from_normalized(self):
        with pytest.raises(UsageError):
            parse(["teleport", "--alpha", "1,0", "--beta", "1,0"])

    def test_teleport_rejects_malformed_complex(self):
        with pytest.raises(UsageError):
            parse(["teleport", "--alpha", "1", "--beta", "0,0"])
        with pytest.raises(UsageError):
            parse(["teleport", "--alpha", "x,y", "--beta", "0,0"])
        for bad in ("nan,0", "0,inf", "-inf,0", "1e309,0"):
            with pytest.raises(UsageError):
                parse(["teleport", f"--alpha={bad}", "--beta", "0,0"])
        with pytest.raises(UsageError):
            parse(["wire", "--role", "bob", "--endpoint", "h:1", "--protocol",
                   "teleport", "--alpha", "1,0", "--beta", "nan,0"])

    def test_superdense_message_validated(self):
        cmd = parse(["superdense", "--message", "10"])
        assert cmd.message == Message2(1, 0)
        with pytest.raises(UsageError):
            parse(["superdense", "--message", "2"])

    def test_bell_list(self):
        cmd = parse(["bell", "--list"])
        assert cmd.command == "bell"
        with pytest.raises(UsageError):
            parse(["bell"])

    def test_unknown_subcommand(self):
        with pytest.raises(UsageError):
            parse(["entangle-everything"])

    def test_empty_argv(self):
        with pytest.raises(UsageError):
            parse([])

    def test_suite_choices_come_from_the_suite_table(self, capsys):
        with pytest.raises(SystemExit):
            parse(["verify", "--help"])
        assert "{" + ",".join(["all", *SUITES]) + "}" in capsys.readouterr().out
        with pytest.raises(UsageError) as bogus:
            parse(["verify", "bogus"])
        named = re.findall(r"[\w-]+", str(bogus.value).split("choose from", 1)[1])
        assert named == ["all", *SUITES]

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_one_commands_parser_prints_the_full_parsers_help(self, command, capsys):
        helps = []
        for parser in (build_parser(), build_parser(command)):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--help"])
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1]

    def test_seed_env_fallback(self, monkeypatch):
        monkeypatch.setenv("ICL_QPROTO_SEED", "99")
        cmd = parse(["teleport", "--alpha", "1,0", "--beta", "0,0"])
        assert cmd.seed == 99
        monkeypatch.setenv("ICL_QPROTO_SEED", "not-a-number")
        with pytest.raises(UsageError):
            parse(["teleport", "--alpha", "1,0", "--beta", "0,0"])

    def test_seed_range_enforced(self):
        with pytest.raises(UsageError):
            parse(["teleport", "--alpha", "1,0", "--beta", "0,0", "--seed", "-1"])
        with pytest.raises(UsageError):
            parse(
                ["teleport", "--alpha", "1,0", "--beta", "0,0", "--seed", str(2**64)]
            )

    def test_wire_requires_protocol_params(self):
        with pytest.raises(UsageError):
            parse(["wire", "--role", "alice", "--endpoint", "h:1", "--protocol", "teleport"])
        with pytest.raises(UsageError):
            parse(["wire", "--role", "bob", "--endpoint", "h:1", "--protocol", "superdense"])

    def test_wire_endpoint_parsed(self):
        cmd = parse(
            ["wire", "--role", "bob", "--endpoint", "127.0.0.1:9000",
             "--protocol", "superdense", "--message", "01"]
        )
        assert cmd.endpoint == ("127.0.0.1", 9000)
        for endpoint, host in (("[::1]:9000", "::1"), ("::1:9000", "::1"), ("[fe80::1%eth0]:9000", "fe80::1%eth0")):
            cmd = parse(["wire", "--role", "bob", "--endpoint", endpoint,
                         "--protocol", "superdense", "--message", "01"])
            assert cmd.endpoint == (host, 9000), endpoint
        for endpoint in ("nocolon", "[]:9000", "[::1:9000", "::1]:9000", "[[::1]]:9000"):
            with pytest.raises(UsageError):
                parse(["wire", "--role", "bob", "--endpoint", endpoint,
                       "--protocol", "superdense", "--message", "01"])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(max_size=12), max_size=6) | _TELEPORT_ARGV)
    @example(["teleport", "--alpha=1e200,0", "--beta=0,0"])
    def test_parse_is_total(self, argv):
        """Arbitrary argv either parses, raises UsageError, or exits via --help."""
        try:
            result = parse(argv)
        except UsageError:
            return
        except SystemExit as exc:  # argparse --help path
            assert exc.code == 0
            return
        assert isinstance(result, argparse.Namespace)


def _superdense_bob(monkeypatch, codes: list[int]) -> tuple[threading.Thread, int]:
    """Start ``main`` as a superdense bob (message 00) on a free loopback port, in a thread.

    Returns the thread and the port; bob's exit code is appended to ``codes``.
    """
    ready = threading.Event()
    ports: list[int] = []
    run_wire_demo = wire.run_wire_demo

    def reporting_port(*args, **kwargs):
        kwargs["ready_callback"] = lambda p: (ports.append(p), ready.set())
        return run_wire_demo(*args, timeout=5.0, **kwargs)

    monkeypatch.setattr(wire, "run_wire_demo", reporting_port)
    bob = threading.Thread(target=lambda: codes.append(main(
        ["wire", "--role", "bob", "--endpoint", "127.0.0.1:0",
         "--protocol", "superdense", "--message", "00"]
    )))
    bob.start()
    assert ready.wait(10)
    return bob, ports[0]


class TestMainExitCodes:
    def test_success(self, capsys):
        assert main(["teleport", "--alpha", "1,0", "--beta", "0,0", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "fidelity" in out

    def test_usage_error_is_two(self, capsys):
        assert main(["superdense", "--message", "7"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["teleport", "--alpha", "nan,0", "--beta", "0,0"]) == 2
        assert "finite" in capsys.readouterr().err
        # |alpha|^2 overflows a double: still a usage error, not a traceback
        for argv in (["teleport"], ["wire", "--role", "bob", "--endpoint", "h:1",
                                    "--protocol", "teleport"]):
            assert main([*argv, "--alpha", "1e200,0", "--beta", "0,0"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
        # an integer amplitude past the float range, or a float whose square overflows: the same
        for state in (_HUGE_INT_STATE, _HUGE_FLOAT_STATE):
            assert main(["icl", "--state", state]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: --state: ") and err.count("\n") == 1, err

    @settings(max_examples=100, deadline=None)
    @given(_MAIN_ARGV)
    @example(["icl", "--state", _HUGE_INT_STATE])
    @example(["icl", "--state", _HUGE_FLOAT_STATE])
    @example(["teleport", "--alpha=1e200,0", "--beta=0,0"])
    @example(["teleport", "--alpha=0.6,0", "--beta=0,0.8", "--trace", "{tmp}/t.jsonl"])
    @example(["icl", "--state", "[" * 3000 + "]" * 3000])  # nested past the recursion limit
    @example(["verify", "--help"])
    def test_main_exits_with_a_documented_code(self, tmp_path_factory, argv):
        """main returns 0, 1, 2 or 3, raises nothing but --help's SystemExit(0), and warns nothing.

        A warning is raised as an error here, so one cannot hide in a captured stream.
        """
        tmp = tmp_path_factory.getbasetemp()
        argv = [word.replace("{tmp}", str(tmp)) for word in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 0 and "--help" in argv, (argv, exc.code)
                return
        assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue(), (argv, err.getvalue())

    def test_io_error_is_three(self, tmp_path, capsys):
        missing = tmp_path / "absent" / "t.jsonl"
        code = main(
            ["superdense", "--message", "00", "--trace", str(missing)]
        )
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ["teleport", "--alpha", "0.6,0", "--beta", "0,0.8"],
        ["superdense", "--message", "00"],
    ])
    def test_empty_trace_path_is_three(self, argv, capsys):
        assert main([*argv, "--trace", ""]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write trace to '': ") and err.count("\n") == 1, err

    def test_transport_error_is_three(self, capsys):
        code = main(
            ["wire", "--role", "alice", "--endpoint", "127.0.0.1:1",
             "--protocol", "superdense", "--message", "00"]
        )
        assert code == 3

    def test_non_ascii_from_peer_is_three(self, monkeypatch, capsys):
        codes: list[int] = []
        bob, port = _superdense_bob(monkeypatch, codes)
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(b"HELLO v1 \xff\n")
            reply = sock.makefile("rb").readline()
        bob.join(10)
        assert reply == b"ERR non-ascii\n"
        assert codes == [3]
        assert "non-ASCII" in capsys.readouterr().err

    def test_disagreeing_wire_peers_exit_one(self, monkeypatch, capsys):
        codes: list[int] = []
        bob, port = _superdense_bob(monkeypatch, codes)
        alice = main(
            ["wire", "--role", "alice", "--endpoint", f"127.0.0.1:{port}",
             "--protocol", "superdense", "--message", "01"]
        )
        bob.join(10)
        assert (alice, codes) == (1, [1])
        captured = capsys.readouterr()
        assert captured.out == ""
        # bob computed a different verdict; alice's DONE was answered with ERR
        assert sorted(captured.err.splitlines()) == [
            "error: verdicts disagree: computed 'decoded=00', peer said 'DONE decoded=01'",
            "error: verdicts disagree: sent 'decoded=01', peer said 'ERR verdict-mismatch'",
        ]


class TestSubcommands:
    def test_teleport_json_summary(self, capsys):
        assert main(
            ["teleport", "--alpha", "1,0", "--beta", "0,0", "--seed", "7",
             "--force-outcome", "psi-", "--json"]
        ) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["outcome"] == "psi-"
        assert summary["bits"] == "11"
        assert summary["fidelity"] == pytest.approx(1.0, abs=1e-12)

    def test_negative_first_component_needs_no_equals_sign(self, capsys):
        outputs = []
        for argv in (["--alpha", "-0.6,0", "--beta", "-0.8,0"],
                     ["--alpha=-0.6,0", "--beta=-0.8,0"]):
            assert main(["teleport", *argv, "--seed", "3", "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        cmd = parse(["wire", "--role", "bob", "--endpoint", "h:1", "--protocol",
                     "teleport", "--alpha", "-.6,0", "--beta", "-0.8e0,-0"])
        assert (cmd.alpha, cmd.beta) == (-0.6 + 0j, -0.8 + 0j)

    def test_teleport_writes_trace(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(
            ["teleport", "--alpha", "0.6,0", "--beta", "0,0.8", "--seed", "3",
             "--trace", str(path)]
        ) == 0
        assert len(path.read_text().splitlines()) == 7

    def test_superdense_round_trip(self, capsys):
        assert main(["superdense", "--message", "11", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["decoded"] == "11"
        assert summary["unitary"] == "sigma_z*sigma_x"

    def test_bell_listing_is_json(self, capsys):
        assert main(["bell", "--list"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert {entry["tag"] for entry in listing["bell"]} == {
            "phi+", "phi-", "psi+", "psi-"
        }
        assert len(listing["h"]) == 6

    def test_icl_reports_bell_diagram(self, capsys):
        s = 0.7071067811865476
        state = json.dumps({"n": 2, "amps": [[s, 0], [0, 0], [0, 0], [s, 0]]})
        assert main(["icl", "--state", state]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["class"] == "bell"
        assert out["bell"] == "phi+"
        assert out["diagram"] == {"chain": 2, "sector": "even", "phase": 1}

    def test_icl_reports_product(self, capsys):
        state = json.dumps({"n": 2, "amps": [[1, 0], [0, 0], [0, 0], [0, 0]]})
        assert main(["icl", "--state", state]) == 0
        assert json.loads(capsys.readouterr().out)["class"] == "product"

    def test_icl_rejects_bad_json(self, capsys):
        assert main(["icl", "--state", "{nope"]) == 2

    @pytest.mark.parametrize("n", [1, True])
    def test_icl_rejects_non_two_qubit_state(self, n, capsys):
        state = json.dumps({"n": n, "amps": [[1, 0], [0, 0]]})
        assert main(["icl", "--state", state]) == 2
        err = capsys.readouterr().err
        assert "two-qubit" in err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("pair", [[True, 0], [1, False]])
    def test_icl_rejects_boolean_amplitudes(self, pair, capsys):
        state = json.dumps({"n": 2, "amps": [pair, [0, 0], [0, 0], [0, 0]]})
        assert main(["icl", "--state", state]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --state:") and err.count("\n") == 1


class TestVerify:
    def test_each_suite_passes(self):
        for suite in ("phase-space", "icl", "teleport", "superdense"):
            results = verify(suite)
            assert results, suite
            assert all(r.passed for r in results), suite

    def test_all_aggregates_every_suite(self):
        names = {r.name for r in verify("all")}
        for suite in ("phase-space", "icl", "teleport", "superdense"):
            assert {r.name for r in verify(suite)} <= names

    def test_cli_output_and_exit_code(self, capsys):
        assert main(["verify", "phase-space"]) == 0
        out = capsys.readouterr().out
        assert "dft4-unitarity: PASS" in out
        assert "max dev" in out

    def test_json_report(self, capsys):
        assert main(["verify", "superdense", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(entry["passed"] for entry in report)
        assert all(entry["deviation"] <= entry["bound"] for entry in report)

    def test_failed_identity_is_reported_not_raised(self, monkeypatch, capsys):
        names = [r.name for r in verify("phase-space")]
        monkeypatch.setitem(phasespace._CANONICAL_H, HState.H1, HState.H0.vector())
        assert main(["verify", "phase-space"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == names
        assert "superposition-identities: FAIL" in lines[names.index("superposition-identities")]
        assert main(["verify", "phase-space", "--json"]) == 1
        report = {entry["name"]: entry for entry in json.loads(capsys.readouterr().out)}
        assert report["superposition-identities"]["passed"] is False
        assert [name for name, entry in report.items() if not entry["passed"]] == ["superposition-identities"]
