"""Tests for the four-point transform, Bell contraction, and H states."""

import numpy as np

from icl_qproto.phasespace import (
    BELL_ORDER,
    BellState,
    HState,
    Sector,
    bell_projectors,
    bell_superpositions,
    contract_bell,
    dft4,
    h_state_superpositions,
    h_states,
    pair_determinant,
)
from icl_qproto.statevec import basis_state
from oracles import BELL, DFT4, H_VECTORS


class TestDft4:
    def test_matches_hand_typed_matrix(self):
        np.testing.assert_allclose(dft4(), DFT4, atol=0)

    def test_entry_one_one_is_i_over_two(self):
        assert dft4()[1][1] == 0.5j

    def test_row_zero_uniform(self):
        np.testing.assert_allclose(dft4()[0], np.full(4, 0.5), atol=0)

    def test_unitarity(self):
        m = np.asarray(dft4())
        product = m @ m.conj().T
        assert np.max(np.abs(product - np.eye(4))) < 1e-12


class TestContractBell:
    def test_even_sector_phi_states(self):
        plus, minus = contract_bell(Sector.EVEN)
        assert (plus, minus) == (BellState.PHI_PLUS, BellState.PHI_MINUS)
        np.testing.assert_allclose(plus.vector().amps, BELL["phi+"], atol=1e-15)
        np.testing.assert_allclose(minus.vector().amps, BELL["phi-"], atol=1e-15)

    def test_odd_sector_psi_states(self):
        plus, minus = contract_bell(Sector.ODD)
        np.testing.assert_allclose(plus.vector().amps, BELL["psi+"], atol=1e-15)
        np.testing.assert_allclose(minus.vector().amps, BELL["psi-"], atol=1e-15)

    def test_four_states_orthonormal(self):
        vectors = np.array([tag.vector().amps for tag in BELL_ORDER])
        gram = vectors.conj() @ vectors.T
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_sector_disjoint_support(self):
        for tag in (BellState.PHI_PLUS, BellState.PHI_MINUS):
            assert np.all(np.abs(np.asarray(tag.vector().amps)[[1, 2]]) < 1e-15)
        for tag in (BellState.PSI_PLUS, BellState.PSI_MINUS):
            assert np.all(np.abs(np.asarray(tag.vector().amps)[[0, 3]]) < 1e-15)

    def test_bit_encoding_round_trip(self):
        for tag in BELL_ORDER:
            assert BellState.from_bits(*tag.bits) is tag
        assert BellState.PHI_PLUS.bits == (0, 0)
        assert BellState.PSI_MINUS.bits == (1, 1)

    def test_projectors_in_order(self):
        for projector, (tag, vec) in zip(bell_projectors(), BELL.items()):
            np.testing.assert_allclose(projector, np.outer(vec, vec.conj()), atol=1e-15)


class TestHStates:
    def test_vectors_match_reference(self):
        for member in h_states():
            np.testing.assert_allclose(
                member.vector().amps, H_VECTORS[member.value], atol=1e-15
            )

    def test_h0_h3_h5_examples(self):
        s = np.sqrt(2.0)
        np.testing.assert_allclose(HState.H0.vector().amps, [1 / s, 0, 1 / s, 0], atol=1e-15)
        np.testing.assert_allclose(HState.H3.vector().amps, [1 / s, -1 / s, 0, 0], atol=1e-15)
        np.testing.assert_allclose(HState.H5.vector().amps, [0, 0, 1 / s, -1 / s], atol=1e-15)

    def test_all_product_states(self):
        for member in h_states():
            assert abs(pair_determinant(member.vector())) < 1e-12


class TestSuperpositions:
    def test_bell_identities(self):
        entries = bell_superpositions()
        assert len(entries) == 4
        expected = {0: "phi", 3: "phi", 1: "psi", 2: "psi"}
        for entry in entries:
            assert entry.holds
            assert entry.deviation < 1e-12

    def test_bell_identity_targets(self):
        by_label = {e.label: e for e in bell_superpositions()}
        assert by_label["(phi+ + phi-)/sqrt2 = |00>"].expected.isclose(basis_state(2, 0))
        assert by_label["(phi+ - phi-)/sqrt2 = |11>"].expected.isclose(basis_state(2, 3))
        assert by_label["(psi+ - psi-)/sqrt2 = |10>"].expected.isclose(basis_state(2, 2))

    def test_h_identities(self):
        entries = h_state_superpositions()
        assert len(entries) == 6
        for entry in entries:
            assert entry.holds
            assert entry.deviation < 1e-12

    def test_all_ten_by_hand(self):
        s = np.sqrt(2.0)
        combos = [
            (BELL["phi+"], BELL["phi-"], +1, 0),
            (BELL["phi+"], BELL["phi-"], -1, 3),
            (BELL["psi+"], BELL["psi-"], +1, 1),
            (BELL["psi+"], BELL["psi-"], -1, 2),
            (H_VECTORS["h0"], H_VECTORS["h1"], +1, 0),
            (H_VECTORS["h0"], H_VECTORS["h1"], -1, 2),
            (H_VECTORS["h2"], H_VECTORS["h3"], +1, 0),
            (H_VECTORS["h2"], H_VECTORS["h3"], -1, 1),
            (H_VECTORS["h4"], H_VECTORS["h5"], +1, 2),
            (H_VECTORS["h4"], H_VECTORS["h5"], -1, 3),
        ]
        for a, b, sign, index in combos:
            expected = np.zeros(4)
            expected[index] = 1.0
            np.testing.assert_allclose((a + sign * b) / s, expected, atol=1e-12)
