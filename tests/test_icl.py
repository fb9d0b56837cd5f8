"""Tests for inverter-chain diagrams and the state classifier."""

import numpy as np
import pytest

from icl_qproto.icl import (
    IclClass,
    IclDiagram,
    IclKind,
    apply_sigma_z,
    classify,
    diagram_to_state,
    extend_sigma_x,
    state_to_diagram,
)
from icl_qproto.phasespace import BELL_ORDER, BellState, HState, Sector
from icl_qproto.statevec import (
    SIGMA_X,
    SIGMA_Z,
    DimensionError,
    StateVector,
    ValidationError,
    apply_1q,
    basis_state,
    equal_up_to_global_phase,
)
from oracles import BELL, classify_oracle, random_state


class TestDiagramInvariants:
    def test_sector_is_chain_parity(self):
        for n in range(9):
            for phase in (+1, -1):
                d = IclDiagram(n, phase)
                assert d.sector is (Sector.EVEN if n % 2 == 0 else Sector.ODD)
                assert d.to_json()["sector"] == d.sector.value

    def test_phase_must_be_sign(self):
        for phase in (0, True, 1.0, -1.0):  # to_json would print "phase":true or 1.0
            with pytest.raises(ValidationError):
                IclDiagram(2, phase)

    def test_negative_chain_rejected(self):
        for chain in (-1, 1.5, 2.0, True):  # and chains that are not ints: "chain":1.5
            with pytest.raises(ValidationError):
                IclDiagram(chain, +1)

    def test_json_form(self):
        assert IclDiagram(3, -1).to_json() == {
            "chain": 3,
            "sector": "odd",
            "phase": -1,
        }


class TestDiagramToState:
    def test_two_link_even_chain_is_phi_plus(self):
        state = diagram_to_state(IclDiagram(2, +1))
        np.testing.assert_allclose(state.amps, BELL["phi+"], atol=1e-15)

    def test_one_link_odd_chain_is_psi_plus(self):
        state = diagram_to_state(IclDiagram(1, +1))
        np.testing.assert_allclose(state.amps, BELL["psi+"], atol=1e-15)

    def test_chain_length_beyond_parity_is_irrelevant(self):
        short = diagram_to_state(IclDiagram(2, +1))
        long = diagram_to_state(IclDiagram(4, +1))
        assert short.isclose(long)


class TestExtendSigmaX:
    def test_grows_chain_and_flips_sector(self):
        grown = extend_sigma_x(IclDiagram(2, +1))
        assert grown == IclDiagram(3, +1)
        assert diagram_to_state(grown).isclose(StateVector(2, BELL["psi+"]))

    def test_twice_returns_to_phi_plus(self):
        d = extend_sigma_x(extend_sigma_x(IclDiagram(2, +1)))
        assert d == IclDiagram(4, +1)
        assert diagram_to_state(d).isclose(StateVector(2, BELL["phi+"]))

    def test_psi_minus_to_phi_minus_up_to_phase(self):
        # oracle: sigma_x on qubit 1 of psi- gives -phi-
        flipped = np.kron(SIGMA_X, np.eye(2)) @ BELL["psi-"]
        np.testing.assert_allclose(flipped, -BELL["phi-"], atol=1e-15)
        grown = extend_sigma_x(IclDiagram(1, -1))
        assert grown == IclDiagram(2, -1)
        assert equal_up_to_global_phase(diagram_to_state(grown), StateVector(2, flipped))

    def test_commutes_with_matrix_action(self):
        for tag in BELL_ORDER:
            d = state_to_diagram(tag)
            grown = diagram_to_state(extend_sigma_x(d))
            acted = apply_1q(diagram_to_state(d), SIGMA_X, 1)
            assert equal_up_to_global_phase(grown, acted)

    def test_parity_law(self):
        d = IclDiagram(2, +1)
        for n in range(17):
            want = BellState.PSI_PLUS if n % 2 else BellState.PHI_PLUS
            assert d.chain_length == 2 + n
            assert diagram_to_state(d).isclose(want.vector())
            d = extend_sigma_x(d)


class TestApplySigmaZ:
    def test_phi_plus_to_phi_minus(self):
        d = apply_sigma_z(IclDiagram(2, +1))
        assert d == IclDiagram(2, -1)
        assert diagram_to_state(d).isclose(StateVector(2, BELL["phi-"]))

    def test_psi_plus_to_psi_minus(self):
        d = apply_sigma_z(IclDiagram(1, +1))
        assert diagram_to_state(d).isclose(StateVector(2, BELL["psi-"]))

    def test_involution(self):
        d = IclDiagram(5, -1)
        assert apply_sigma_z(apply_sigma_z(d)) == d

    def test_commutes_with_matrix_action(self):
        for tag in BELL_ORDER:
            d = state_to_diagram(tag)
            phased = diagram_to_state(apply_sigma_z(d))
            acted = apply_1q(diagram_to_state(d), SIGMA_Z, 1)
            assert equal_up_to_global_phase(phased, acted)


class TestStateToDiagram:
    def test_minimal_lengths(self):
        assert state_to_diagram(BellState.PHI_MINUS) == IclDiagram(2, -1)
        assert state_to_diagram(BellState.PSI_PLUS) == IclDiagram(1, +1)

    def test_round_trip_all_tags(self):
        for tag in BELL_ORDER:
            state = diagram_to_state(state_to_diagram(tag))
            assert equal_up_to_global_phase(state, tag.vector())


class TestClassify:
    def test_bell_states_detected(self):
        result = classify(StateVector(2, BELL["phi+"]))
        assert result == IclClass(IclKind.BELL, bell=BellState.PHI_PLUS)

    def test_bell_detection_ignores_global_phase(self):
        rotated = StateVector(2, np.exp(0.3j) * BELL["psi-"])
        assert classify(rotated) == IclClass(IclKind.BELL, bell=BellState.PSI_MINUS)

    def test_h_states_are_products(self):
        for member in HState:
            assert classify(member.vector()).kind is IclKind.PRODUCT

    def test_unequal_weights_in_even_sector(self):
        state = StateVector(2, np.array([2, 0, 0, 1]) / np.sqrt(5))
        # determinant oracle on the reshaped 2x2 matrix
        det = (2 / np.sqrt(5)) * (1 / np.sqrt(5))
        assert abs(det) > 1e-9
        assert classify(state) == IclClass(IclKind.SECTOR_CONFINED, sector=Sector.EVEN)

    def test_cross_sector_entangled_is_generic(self):
        state = StateVector(2, np.array([0.8, 0.1, 0.1, 0.58309518948453]))
        assert classify(state).kind is IclKind.GENERIC

    def test_basis_state_is_product(self):
        assert classify(basis_state(2, 0)).kind is IclKind.PRODUCT

    def test_wrong_qubit_count_rejected(self):
        with pytest.raises(DimensionError):
            classify(basis_state(1, 0))

    def test_agreement_with_oracle_on_random_states(self):
        rng = np.random.default_rng(2718)
        checked = 0
        for _ in range(250):
            for amps in _stratified_states(rng):
                got = classify(StateVector(2, amps))
                kind, payload = classify_oracle(amps)
                if kind == "bell":
                    assert got == IclClass(IclKind.BELL, bell=BellState.from_tag(payload))
                elif kind == "sector":
                    assert got == IclClass(IclKind.SECTOR_CONFINED, sector=Sector(payload))
                elif kind == "product":
                    assert got.kind is IclKind.PRODUCT
                else:
                    assert got.kind is IclKind.GENERIC
                checked += 1
        assert checked == 1000


def _stratified_states(rng):
    """One state from each classification family, in random order of weights."""
    generic = random_state(rng, 4)
    product = np.kron(random_state(rng, 2), random_state(rng, 2))
    sector = np.zeros(4, dtype=complex)
    pair = random_state(rng, 2)
    a, b = ((0, 3), (1, 2))[rng.integers(2)]
    sector[a], sector[b] = pair
    bell = np.exp(2j * np.pi * rng.random()) * BELL[
        ("phi+", "phi-", "psi+", "psi-")[rng.integers(4)]
    ]
    return generic, product, sector, bell
