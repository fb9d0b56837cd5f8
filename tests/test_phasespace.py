"""Tests for the four-point transform, Bell contraction, and H states."""

import numpy as np
import pytest

from icl_qproto.icl import IclKind, classify
from icl_qproto.measure import BELL_BASIS, ProjectiveBasis, bell_projectors
from icl_qproto.phasespace import (
    BELL_ORDER,
    DFT4,
    BellState,
    HState,
    Sector,
    pair_determinant,
)
from icl_qproto.statevec import StateVector, ValidationError
from icl_qproto.teleport import UA_BELL_BASIS
from icl_qproto.verify import _SUPERPOSITIONS
from oracles import BELL, H_VECTORS
from oracles import DFT4 as TYPED_DFT4


@pytest.mark.parametrize("basis", [BELL_BASIS, UA_BELL_BASIS], ids=["bell", "ua-bell"])
def test_unchecked_bell_bases_pass_the_basis_check(basis):
    # both are built without ProjectiveBasis's check; this is where it runs
    ProjectiveBasis._check(basis.projectors)
    assert ProjectiveBasis(basis.projectors)._terms == basis._terms


class TestDft4:
    def test_matches_hand_typed_matrix(self):
        np.testing.assert_allclose(DFT4, TYPED_DFT4, atol=0)

    def test_entry_one_one_is_i_over_two(self):
        assert DFT4[1][1] == 0.5j

    def test_row_zero_uniform(self):
        np.testing.assert_allclose(DFT4[0], np.full(4, 0.5), atol=0)

    def test_unitarity(self):
        m = np.asarray(DFT4)
        product = m @ m.conj().T
        assert np.max(np.abs(product - np.eye(4))) < 1e-12


def _typed_contraction(row, sites):
    """Row ``row`` of the hand-typed DFT4 kept on ``sites``, normalized, first nonzero amplitude positive."""
    v = np.zeros(4, dtype=complex)
    v[list(sites)] = TYPED_DFT4[row, list(sites)]
    v /= np.linalg.norm(v)
    return v if v[sites[0]].real > 0 else -v


# tag -> (momentum row, sites): rows 0 and 2 on each sector's pair, rows 0/1 or 0/2 on the H pairs
_BELL_CONTRACTIONS = {"phi+": (0, (0, 3)), "phi-": (2, (0, 3)), "psi+": (0, (1, 2)), "psi-": (2, (1, 2))}
_H_CONTRACTIONS = {
    "h0": (0, (0, 2)), "h1": (1, (0, 2)),
    "h2": (0, (0, 1)), "h3": (2, (0, 1)),
    "h4": (0, (2, 3)), "h5": (2, (2, 3)),
}


class TestDft4Construction:
    """Every canonical vector is a row of the typed DFT4 contracted onto two sites."""

    @pytest.mark.parametrize("tag", list(_BELL_CONTRACTIONS))
    def test_bell_state_is_a_sector_contraction(self, tag):
        row, sites = _BELL_CONTRACTIONS[tag]
        got = BellState.from_tag(tag).vector().amps
        np.testing.assert_allclose(got, _typed_contraction(row, sites), atol=1e-15)

    @pytest.mark.parametrize("member", list(_H_CONTRACTIONS))
    def test_h_state_is_a_mixed_pair_contraction(self, member):
        row, sites = _H_CONTRACTIONS[member]
        np.testing.assert_allclose(HState(member).vector().amps, _typed_contraction(row, sites), atol=1e-15)

    def test_psi_minus_is_row_two_negated(self):
        raw = TYPED_DFT4[2, [1, 2]]
        np.testing.assert_allclose(raw / np.linalg.norm(raw), -np.asarray(BELL["psi-"])[[1, 2]], atol=1e-15)

    @pytest.mark.parametrize("row", [1, 3])
    def test_odd_rows_on_the_even_sector_are_entangled_but_not_bell(self, row):
        state = StateVector(2, _typed_contraction(row, (0, 3)))
        assert classify(state).kind is IclKind.SECTOR_CONFINED
        assert classify(state).sector is Sector.EVEN


class TestContractBell:
    def test_even_sector_phi_states(self):
        plus, minus = (tag for tag in BELL_ORDER if tag.sector is Sector.EVEN)
        assert (plus, minus) == (BellState.PHI_PLUS, BellState.PHI_MINUS)
        np.testing.assert_allclose(plus.vector().amps, BELL["phi+"], atol=1e-15)
        np.testing.assert_allclose(minus.vector().amps, BELL["phi-"], atol=1e-15)

    def test_odd_sector_psi_states(self):
        plus, minus = (tag for tag in BELL_ORDER if tag.sector is Sector.ODD)
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

    def test_bits_are_the_index_in_bell_order(self):
        for index, tag in enumerate(BELL_ORDER):
            assert tag.bits == (index >> 1, index & 1)
        # b1 is the sector, b0 the phase
        assert [(tag.sector, tag.phase) for tag in BELL_ORDER] == [
            (Sector.EVEN, +1), (Sector.EVEN, -1), (Sector.ODD, +1), (Sector.ODD, -1)
        ]
        assert [tag.value for tag in BELL_ORDER] == ["phi+", "phi-", "psi+", "psi-"]

    def test_any_nonzero_bit_reads_as_one(self):
        assert BellState.from_bits(2, -1) is BellState.PSI_MINUS
        assert BellState.from_bits(0, True) is BellState.PHI_MINUS

    def test_every_sector_and_phase_round_trips(self):
        for tag in BELL_ORDER:
            assert BellState.from_sector_phase(tag.sector, tag.phase) is tag

    def test_sector_lookup_takes_only_a_sector(self):
        for sector in ("odd", 1, None):
            with pytest.raises(ValidationError, match="sector"):
                BellState.from_sector_phase(sector, +1)

    def test_sector_phase_lookup_takes_only_the_integers_plus_and_minus_one(self):
        assert BellState.from_sector_phase(Sector.EVEN, +1) is BellState.PHI_PLUS
        assert BellState.from_sector_phase(Sector.ODD, -1) is BellState.PSI_MINUS
        # True == 1 and -1.0 == -1 hash alike, so a dict lookup alone would take them
        for phase in (True, -1.0):
            with pytest.raises(ValidationError, match="phase"):
                BellState.from_sector_phase(Sector.EVEN, phase)

    def test_projectors_in_order(self):
        for projector, (tag, vec) in zip(bell_projectors(), BELL.items()):
            np.testing.assert_allclose(projector, np.outer(vec, vec.conj()), atol=1e-15)


class TestHStates:
    def test_vectors_match_reference(self):
        for member in HState:
            np.testing.assert_allclose(
                member.vector().amps, H_VECTORS[member.value], atol=1e-15
            )

    def test_h0_h3_h5_examples(self):
        s = np.sqrt(2.0)
        np.testing.assert_allclose(HState.H0.vector().amps, [1 / s, 0, 1 / s, 0], atol=1e-15)
        np.testing.assert_allclose(HState.H3.vector().amps, [1 / s, -1 / s, 0, 0], atol=1e-15)
        np.testing.assert_allclose(HState.H5.vector().amps, [0, 0, 1 / s, -1 / s], atol=1e-15)

    def test_all_product_states(self):
        for member in HState:
            assert abs(pair_determinant(member.vector())) < 1e-12


def _combos(rows):
    """Each table row's (a + b)/sqrt2 and (a - b)/sqrt2, in numpy, with its basis index."""
    for a, b, plus, minus in rows:
        a, b = np.asarray(a.vector().amps), np.asarray(b.vector().amps)
        yield (a + b) / np.sqrt(2.0), plus
        yield (a - b) / np.sqrt(2.0), minus


class TestSuperpositions:
    def test_bell_identities(self):
        rows = [row for row in _SUPERPOSITIONS if isinstance(row[0], BellState)]
        assert len(rows) == 2
        for combo, index in _combos(rows):
            np.testing.assert_allclose(combo, np.eye(4)[index], atol=1e-12)

    def test_bell_identity_targets(self):
        rows = {(a, b): (plus, minus) for a, b, plus, minus in _SUPERPOSITIONS}
        assert rows[BellState.PHI_PLUS, BellState.PHI_MINUS] == (0, 3)
        assert rows[BellState.PSI_PLUS, BellState.PSI_MINUS] == (1, 2)

    def test_h_identities(self):
        rows = [row for row in _SUPERPOSITIONS if isinstance(row[0], HState)]
        assert [(a, b) for a, b, _, _ in rows] == [
            (HState.H0, HState.H1), (HState.H2, HState.H3), (HState.H4, HState.H5)
        ]
        assert [(plus, minus) for _, _, plus, minus in rows] == [(0, 2), (0, 1), (2, 3)]
        for combo, index in _combos(rows):
            np.testing.assert_allclose(combo, np.eye(4)[index], atol=1e-12)

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
