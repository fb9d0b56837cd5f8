"""Tests for superdense coding: encoding table, decode, full runs."""

import numpy as np
import pytest

from icl_qproto.harness import Message2, validate_trace
from icl_qproto.phasespace import BELL_ORDER, BellState
from icl_qproto.statevec import DimensionError, StateVector, overlap
from icl_qproto.superdense import (
    DecodeError,
    ResourceError,
    decode,
    encode,
    encoding_table,
    run_superdense,
)
from icl_qproto.teleport import correction_for
from oracles import BELL

ALL_MESSAGES = [Message2(b1, b0) for b1 in (0, 1) for b0 in (0, 1)]


class TestEncodingTable:
    def test_bijection_onto_bell_states(self):
        table = encoding_table()
        assert len(table) == 4
        tags = {tag for _, tag in table.values()}
        assert tags == set(BELL_ORDER)

    def test_assignments(self):
        table = encoding_table()
        assert table[Message2(0, 0)][1] is BellState.PHI_PLUS
        assert table[Message2(0, 1)][1] is BellState.PHI_MINUS
        assert table[Message2(1, 0)][1] is BellState.PSI_PLUS
        assert table[Message2(1, 1)][1] is BellState.PSI_MINUS

    def test_encoders_are_the_teleport_corrections(self):
        for unitary, tag in encoding_table().values():
            assert unitary is correction_for(tag)


class TestEncode:
    def test_identity_for_00(self):
        np.testing.assert_allclose(encode(Message2(0, 0)).amps, BELL["phi+"], atol=1e-15)

    def test_sigma_x_for_10(self):
        np.testing.assert_allclose(encode(Message2(1, 0)).amps, BELL["psi+"], atol=1e-15)

    def test_sigma_z_for_01(self):
        np.testing.assert_allclose(encode(Message2(0, 1)).amps, BELL["phi-"], atol=1e-15)

    def test_composite_for_11_up_to_phase(self):
        encoded = encode(Message2(1, 1))
        assert abs(abs(np.vdot(encoded.amps, BELL["psi-"])) - 1.0) < 1e-12

    def test_rejects_wrong_resource(self):
        with pytest.raises(ResourceError):
            encode(Message2(0, 0), StateVector(2, BELL["psi+"]))

    def test_encoding_acts_only_on_first_qubit(self):
        # qubit 2's marginal stays (1/2, 1/2) for every message
        for message in ALL_MESSAGES:
            probs = encode(message).probabilities()
            assert probs[0] + probs[2] == pytest.approx(0.5, abs=1e-12)
            assert probs[1] + probs[3] == pytest.approx(0.5, abs=1e-12)

    def test_encoded_states_pairwise_orthogonal(self):
        encoded = [encode(m) for m in ALL_MESSAGES]
        for i in range(4):
            for j in range(4):
                got = abs(overlap(encoded[i], encoded[j]))
                assert got == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


class TestDecode:
    def test_inverse_of_encoding_table(self):
        assert decode(StateVector(2, BELL["phi-"])) == Message2(0, 1)

    def test_ignores_global_phase(self):
        rotated = StateVector(2, np.exp(1.1j) * BELL["psi-"])
        assert decode(rotated) == Message2(1, 1)

    def test_product_state_rejected(self):
        state = StateVector(2, np.array([1, 1, 0, 0]) / np.sqrt(2))
        with pytest.raises(DecodeError):
            decode(state)

    def test_wrong_size_rejected(self):
        with pytest.raises(DimensionError):
            decode(StateVector(1, np.array([1, 0])))

    def test_round_trip_all_messages(self):
        for message in ALL_MESSAGES:
            assert decode(encode(message)) == message


class TestRunSuperdense:
    def test_identity_path(self):
        trace = run_superdense(Message2(0, 0))
        assert trace.verdict["decoded"] == "00"

    def test_composite_path_shows_unitary(self):
        trace = run_superdense(Message2(1, 1))
        assert trace.events[1].payload["unitary"] == "sigma_z*sigma_x"
        assert trace.verdict["decoded"] == "11"

    def test_all_messages_round_trip(self):
        for message in ALL_MESSAGES:
            trace = run_superdense(message)
            assert trace.verdict["decoded"] == str(message)

    def test_trace_has_exactly_five_events(self):
        trace = run_superdense(Message2(1, 0))
        assert len(trace.events) == 5
        assert [e.action for e in trace.events] == [
            "share-bell-pair",
            "encode",
            "send-qubit",
            "bell-measurement",
            "verdict",
        ]
        validate_trace(trace)

    def test_measurement_outcome_certain(self):
        for message in ALL_MESSAGES:
            trace = run_superdense(message)
            assert trace.events[3].payload["probability"] == pytest.approx(1.0, abs=1e-12)
