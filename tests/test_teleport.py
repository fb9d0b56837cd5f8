"""Tests for the teleportation decomposition, measurement, and full runs."""

import re

import numpy as np
import pytest

from icl_qproto import teleport
from icl_qproto.harness import validate_trace
from icl_qproto.measure import RandomSource
from icl_qproto.phasespace import BELL_ORDER, BellState
from icl_qproto.statevec import (
    DimensionError,
    StateVector,
    ValidationError,
    overlap,
    single_qubit,
    tensor,
)
from icl_qproto.teleport import (
    InputQubit,
    bell_measure,
    correction_for,
    decompose,
    extract_bob_state,
    run_teleportation,
)
from oracles import bell_branch_probabilities_oracle, random_state


def random_input(rng) -> InputQubit:
    amps = random_state(rng, 2)
    return InputQubit(amps[0], amps[1])


class TestInputQubit:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            InputQubit(1.0, 1.0)
        with pytest.raises(ValidationError):  # |alpha|^2 overflows a double
            InputQubit(1e200, 0)
        for alpha, beta in ((10**400, 0), (0, -(10**400))):  # complex() cannot take the int
            with pytest.raises(ValidationError):
                InputQubit(alpha, beta)

    def test_state_round_trip(self):
        u = InputQubit(0.6, 0.8j)
        assert u.state().isclose(single_qubit(0.6, 0.8j))


class TestDecompose:
    def test_basis_zero_conditionals(self):
        bob = decompose(InputQubit(1.0, 0.0))
        np.testing.assert_allclose(bob[BellState.PHI_PLUS].amps, [1, 0], atol=1e-15)
        np.testing.assert_allclose(bob[BellState.PHI_MINUS].amps, [1, 0], atol=1e-15)
        np.testing.assert_allclose(bob[BellState.PSI_PLUS].amps, [0, 1], atol=1e-15)
        np.testing.assert_allclose(np.abs(bob[BellState.PSI_MINUS].amps), [0, 1], atol=1e-15)

    def test_phi_minus_conditional_negates_beta(self):
        alpha, beta = 0.6, 0.8j
        dec = decompose(InputQubit(alpha, beta))
        np.testing.assert_allclose(
            dec[BellState.PHI_MINUS].amps, [alpha, -beta], atol=1e-15
        )

    def test_psi_minus_conditional_for_balanced_input(self):
        s = np.sqrt(2.0)
        dec = decompose(InputQubit(1 / s, 1 / s))
        np.testing.assert_allclose(
            dec[BellState.PSI_MINUS].amps, [-1 / s, 1 / s], atol=1e-15
        )

    def test_all_coefficients_half(self):
        # each branch of U (x) phi+ is 1/2 |B_k> (x) bob_k: projecting onto |B_k> leaves bob_k / 2
        u = InputQubit(0.6, 0.8j)
        joint = np.asarray(tensor(u.state(), BellState.PHI_PLUS.vector()).amps).reshape(4, 2)
        for tag, bob in decompose(u).items():
            branch = np.conj(tag.vector().amps) @ joint
            np.testing.assert_allclose(branch, 0.5 * np.asarray(bob.amps), atol=1e-15)

    def test_entries_in_bell_order(self):
        assert tuple(decompose(InputQubit(1.0, 0.0))) == BELL_ORDER

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            u = random_input(rng)
            joint = tensor(u.state(), BellState.PHI_PLUS.vector())
            rebuilt = sum(0.5 * np.kron(tag.vector().amps, bob.amps) for tag, bob in decompose(u).items())
            np.testing.assert_allclose(rebuilt, joint.amps, atol=1e-10)


class TestCorrections:
    def test_table(self):
        np.testing.assert_allclose(correction_for(BellState.PHI_PLUS), np.eye(2), atol=0)
        np.testing.assert_allclose(
            correction_for(BellState.PHI_MINUS), [[1, 0], [0, -1]], atol=0
        )
        np.testing.assert_allclose(
            correction_for(BellState.PSI_PLUS), [[0, 1], [1, 0]], atol=0
        )
        np.testing.assert_allclose(
            correction_for(BellState.PSI_MINUS), [[0, 1], [-1, 0]], atol=0
        )

    def test_correction_undoes_conditional_up_to_phase(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            u = random_input(rng)
            for tag, bob in decompose(u).items():
                fixed = StateVector(1, correction_for(tag) @ bob.amps)
                assert abs(abs(overlap(fixed, u.state())) - 1.0) < 1e-12

    def test_psi_minus_composite_is_sign_free_here(self):
        # corrected state = sigma_z sigma_x sigma_x sigma_z (alpha, beta),
        # which collapses to the exact identity
        zx = correction_for(BellState.PSI_MINUS)
        xz = np.array([[0, -1], [1, 0]], dtype=complex)
        np.testing.assert_allclose(zx @ xz, np.eye(2), atol=0)


class TestBellOutcome:
    def test_bit_table(self):
        u = InputQubit(0.6, 0.8)
        for tag, bits in zip(BELL_ORDER, ("00", "01", "10", "11")):  # phi+, phi-, psi+, psi-
            events = run_teleportation(u, 0, force_outcome=tag).events
            assert events[2].payload["bits"] == events[3].payload["bits"] == bits


class TestBellMeasure:
    def test_forced_phi_minus_on_zero_leaves_bob_zero(self):
        joint = tensor(single_qubit(1, 0), BellState.PHI_PLUS.vector())
        outcome, collapsed = bell_measure(joint, None, forced=BellState.PHI_MINUS)
        assert outcome.tag is BellState.PHI_MINUS
        bob = extract_bob_state(collapsed, BellState.PHI_MINUS)
        np.testing.assert_allclose(bob.amps, [1, 0], atol=1e-12)

    def test_forced_psi_plus_on_one_leaves_bob_zero(self):
        joint = tensor(single_qubit(0, 1), BellState.PHI_PLUS.vector())
        outcome, collapsed = bell_measure(joint, None, forced=BellState.PSI_PLUS)
        bob = extract_bob_state(collapsed, BellState.PSI_PLUS)
        np.testing.assert_allclose(bob.amps, [1, 0], atol=1e-12)

    def test_probabilities_quarter_each_exactly(self):
        rng = np.random.default_rng(13)
        u = random_input(rng)
        joint = tensor(u.state(), BellState.PHI_PLUS.vector())
        oracle = bell_branch_probabilities_oracle(joint.amps)
        for value in oracle.values():
            assert value == pytest.approx(0.25, abs=1e-12)

    def test_requires_three_qubits(self):
        with pytest.raises(DimensionError):
            bell_measure(BellState.PHI_PLUS.vector(), RandomSource(0))

    def test_requires_rand_or_forced(self):
        joint = tensor(single_qubit(1, 0), BellState.PHI_PLUS.vector())
        with pytest.raises(ValidationError):
            bell_measure(joint, None)

    @pytest.mark.parametrize("forced", ["phi+", 0, False, "PHI_PLUS"])
    def test_forced_outcome_that_is_not_a_bell_state_is_named(self, forced):
        # a tag string or an index is not a BellState; the check runs before any other
        with pytest.raises(ValidationError, match=re.escape(repr(forced))):
            run_teleportation(InputQubit(0.6, 0.8), 0, force_outcome=forced)
        with pytest.raises(ValidationError, match=re.escape(repr(forced))):
            bell_measure(BellState.PHI_PLUS.vector(), None, forced)  # also before the qubit-count check

    @pytest.mark.parametrize("forced", [None, *BELL_ORDER], ids=["drawn", *(t.value for t in BELL_ORDER)])
    def test_probability_is_the_one_the_trace_records(self, forced):
        u = InputQubit(0.6, 0.8j)
        joint = tensor(u.state(), BellState.PHI_PLUS.vector())
        outcome, _ = bell_measure(joint, None if forced else RandomSource(7), forced)
        step = run_teleportation(u, 7, force_outcome=forced).events[2].payload
        assert (outcome.tag.value, outcome.probability) == (step["outcome"], step["probability"])

    def test_empirical_frequencies(self):
        u = InputQubit(0.6, 0.8)
        joint = tensor(u.state(), BellState.PHI_PLUS.vector())
        counts = np.zeros(4)
        for seed in range(10_000):
            outcome, _ = bell_measure(joint, RandomSource(seed))
            counts[BELL_ORDER.index(outcome.tag)] += 1
        np.testing.assert_allclose(counts / 10_000, 0.25, atol=0.02)


class TestSeed:
    @pytest.mark.parametrize("forced", [None, BellState.PSI_MINUS], ids=["drawn", "forced"])
    @pytest.mark.parametrize("seed", [7.9, True, "7", None, -1, 2**64])
    def test_seed_the_header_cannot_replay_is_rejected(self, seed, forced):
        # the header records the seed as given: "seed":7.9 would name a run drawn from seed 7
        with pytest.raises(ValidationError, match="seed"):
            run_teleportation(InputQubit(0.6, 0.8), seed, force_outcome=forced)

    def test_forced_run_builds_no_random_source(self, monkeypatch):
        def no_source(seed):
            raise AssertionError("a forced run built a RandomSource")

        monkeypatch.setattr(teleport, "RandomSource", no_source)
        for tag in BELL_ORDER:
            run_teleportation(InputQubit(0.6, 0.8), 7, force_outcome=tag)


class TestRunTeleportation:
    def test_basis_state_any_seed(self):
        for seed in range(5):
            trace = run_teleportation(InputQubit(1, 0), seed)
            assert trace.verdict["fidelity"] == pytest.approx(1.0, abs=1e-12)

    def test_all_forced_outcomes_full_fidelity(self):
        s = np.sqrt(2.0)
        u = InputQubit(1 / s, 1j / s)
        for tag in BELL_ORDER:
            trace = run_teleportation(u, 0, force_outcome=tag)
            assert trace.events[2].payload["outcome"] == tag.value
            assert trace.verdict["fidelity"] == pytest.approx(1.0, abs=1e-12)

    def test_trace_has_exactly_six_events(self):
        trace = run_teleportation(InputQubit(0.6, 0.8), 42)
        assert len(trace.events) == 6
        assert [e.action for e in trace.events] == [
            "share-bell-pair",
            "attach-input",
            "bell-measurement",
            "send-bits",
            "apply-correction",
            "verdict",
        ]
        validate_trace(trace)

    def test_random_inputs_and_seeds(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            u = random_input(rng)
            seed = int(rng.integers(0, 2**32))
            trace = run_teleportation(u, seed)
            assert trace.verdict["fidelity"] == pytest.approx(1.0, abs=1e-10)

    def test_bits_match_outcome(self):
        trace = run_teleportation(InputQubit(0.6, 0.8), 3)
        measurement = trace.events[2].payload
        tag = BellState.from_tag(measurement["outcome"])
        assert measurement["bits"] == "".join(map(str, tag.bits))
        assert trace.events[3].payload["bits"] == measurement["bits"]

    def test_no_signaling_average_marginal(self):
        rng = np.random.default_rng(91)
        for _ in range(10):
            u = random_input(rng)
            marginal = sum(0.25 * np.asarray(bob.probabilities()) for bob in decompose(u).values())
            np.testing.assert_allclose(marginal, [0.5, 0.5], atol=1e-12)
