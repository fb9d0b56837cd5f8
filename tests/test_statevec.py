"""Tests for the state-vector core: construction, gates, measurement."""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from icl_qproto.harness import Message2
from icl_qproto import measure
from icl_qproto.measure import (
    BELL_BASIS,
    UA_BELL_BASIS,
    RandomSource,
    bell_projectors,
    branch_probabilities,
    measure_projective,
)
from icl_qproto.phasespace import BELL_ORDER, PAULI_TABLE
from icl_qproto.statevec import (
    ATOL,
    IDENTITY2,
    SIGMA_X,
    SIGMA_Z,
    DimensionError,
    Matrix,
    StateVector,
    ValidationError,
    apply_1q,
    basis_state,
    equal_up_to_global_phase,
    overlap,
    single_qubit,
    tensor,
)
from icl_qproto.superdense import run_superdense
from icl_qproto.teleport import InputQubit, run_teleportation
from icl_qproto.verify import verify
from oracles import (
    BELL,
    bell_branch_probabilities_oracle,
    kron_oracle,
    one_qubit_gate_oracle,
    random_state,
    random_unitary,
)


def _states(rng, n):
    """Generic states, and states with exact zeros: every basis state and a Bell pair."""
    states = [StateVector(n, random_state(rng, 2**n)) for _ in range(3)]
    states += [basis_state(n, i) for i in range(2**n)]
    if n == 2:
        states.append(StateVector(2, BELL["phi+"]))
    elif n == 3:
        states.append(tensor(StateVector(2, BELL["psi-"]), basis_state(1, 1)))
    return states


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            StateVector(1, np.array([1.0, 1.0]))
        for amps in ([1.0 + 2 * ATOL, 0.0], [1e200, 0.0], [1e-200, 0.0], [0.0, 0.0]):
            with pytest.raises(ValidationError, match="not normalized"), np.errstate(over="ignore"):
                StateVector(1, np.array(amps))
        StateVector(1, np.array([1.0 + ATOL / 4, 0.0]))  # within tolerance

    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionError):
            StateVector(2, np.array([1.0, 0.0]))
        for n, length in ((1, 4), (3, 4), (3, 16), (1, 0)):
            with pytest.raises(DimensionError):
                StateVector(n, np.eye(1, length).reshape(-1))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            StateVector(1, np.array([np.nan, 0.0]))
        for bad in (np.inf, -np.inf, complex(0, np.nan), complex(1, np.inf)):
            with pytest.raises(ValidationError, match="finite"):
                StateVector(2, np.array([bad, 0.0, 0.0, 1.0]))

    def test_rejects_more_than_three_qubits(self):
        amps = np.zeros(16)
        amps[0] = 1.0
        with pytest.raises(DimensionError):
            StateVector(4, amps)

    def test_rejects_a_boolean_qubit_count(self):
        # isinstance(True, int) holds, and True == 1
        with pytest.raises(DimensionError, match="qubit_count"):
            StateVector(True, [1.0, 0.0])
        with pytest.raises(DimensionError, match="qubit_count"):
            StateVector.from_json({"n": True, "amps": [[1, 0], [0, 0]]})

    def test_amplitudes_are_immutable(self):
        state = basis_state(1, 0)
        with pytest.raises(TypeError):
            state.amps[0] = 0.0

    def test_constructor_copies_its_input(self):
        amps = np.array([1.0 + 0j, 0.0])
        state = StateVector(1, amps)
        amps[0] = 5.0
        assert state.amps[0] == 1.0

    def test_json_round_trip(self):
        state = StateVector(2, BELL["psi-"])
        again = StateVector.from_json(state.to_json())
        assert again.isclose(state)
        assert state.to_json()["n"] == 2

    def test_from_json_rejects_an_int_beyond_the_float_range(self):
        huge = 10**400  # JSON has arbitrary-size integers; complex() cannot take this one
        with pytest.raises(ValidationError, match="malformed state-vector JSON"):
            StateVector.from_json({"n": 1, "amps": [[huge, 0], [0, 0]]})
        with pytest.raises(ValidationError, match="malformed state-vector JSON"):
            StateVector.from_json({"n": 1, "amps": [[0, 0], [1, -huge]]})
        assert StateVector.from_json({"n": 1, "amps": [[0, -1], [0, 0]]}).amps == (-1j, 0j)

    def test_from_amplitudes_infers_count(self):
        assert StateVector.from_amplitudes(BELL["phi+"]).qubit_count == 2
        with pytest.raises(DimensionError):
            StateVector.from_amplitudes(np.array([1.0, 0.0, 0.0]))


class TestTensor:
    def test_basis_product(self):
        result = tensor(basis_state(1, 0), basis_state(1, 0))
        np.testing.assert_allclose(result.amps, [1, 0, 0, 0], atol=1e-15)

    def test_one_zero_lands_on_index_two(self):
        result = tensor(basis_state(1, 1), basis_state(1, 0))
        np.testing.assert_allclose(result.amps, [0, 0, 1, 0], atol=1e-15)

    def test_qubit_with_bell_pair(self):
        alpha, beta = 0.6, 0.8j
        u = single_qubit(alpha, beta)
        result = tensor(u, StateVector(2, BELL["phi+"]))
        s = np.sqrt(2.0)
        expected = np.array([alpha / s, 0, 0, alpha / s, beta / s, 0, 0, beta / s])
        np.testing.assert_allclose(result.amps, expected, atol=1e-15)
        np.testing.assert_allclose(
            result.amps, kron_oracle(u.amps, BELL["phi+"]), atol=1e-15
        )

    def test_overflow_rejected(self):
        two = StateVector(2, BELL["phi+"])
        with pytest.raises(DimensionError):
            tensor(two, two)

    def test_equals_np_kron_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for na, nb in ((1, 1), (1, 2), (2, 1)):
            for a in _states(rng, na):
                for b in _states(rng, nb):
                    # on complex128 arrays numpy multiplies with the CPU's fused multiply-add
                    # where it has one; on Python complex values, as the package does, without
                    kron = np.kron(np.array(a.amps, dtype=object), np.array(b.amps, dtype=object))
                    assert np.array(tensor(a, b).amps).tobytes() == kron.astype(complex).tobytes()

    def test_associative_against_triple_loop(self):
        rng = np.random.default_rng(11)
        a, b, c = (StateVector(1, random_state(rng, 2)) for _ in range(3))
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        flat = np.zeros(8, dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    flat[4 * i + 2 * j + k] = a.amps[i] * b.amps[j] * c.amps[k]
        np.testing.assert_allclose(left.amps, flat, atol=1e-15)
        np.testing.assert_allclose(right.amps, flat, atol=1e-15)


class TestApply1q:
    def test_sigma_x_inverts(self):
        assert apply_1q(basis_state(1, 0), SIGMA_X, 1).isclose(basis_state(1, 1))

    def test_sigma_z_phases_one(self):
        result = apply_1q(basis_state(1, 1), SIGMA_Z, 1)
        np.testing.assert_allclose(result.amps, [0, -1], atol=1e-15)

    def test_sigma_x_on_first_qubit_of_phi_plus(self):
        result = apply_1q(StateVector(2, BELL["phi+"]), SIGMA_X, 1)
        np.testing.assert_allclose(result.amps, BELL["psi+"], atol=1e-15)

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            apply_1q(basis_state(2, 0), SIGMA_X, 3)
        for n, target in ((1, 0), (1, 2), (3, 0), (3, 4), (2, -1)):
            with pytest.raises(IndexError):
                apply_1q(basis_state(n, 0), SIGMA_X, target)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            apply_1q(basis_state(1, 0), np.array([[1, 1], [0, 1]]), 1)
        off = 1 + 2 * ATOL
        for bad in ([[off, 0], [0, 1]], [[1, 0], [0, off]], [[1, 2 * ATOL], [0, 1]],
                    [[np.nan, 0], [0, 1]], [[1, 0], [0, np.inf]], [[0, 0], [0, 0]]):
            with pytest.raises(ValidationError, match="not unitary"):
                apply_1q(basis_state(2, 0), np.array(bad), 2)
        for shape in ((2,), (4, 4), (2, 2, 1), (1, 2)):
            with pytest.raises(DimensionError):
                apply_1q(basis_state(1, 0), np.ones(shape), 1)

    def test_matches_the_kronecker_reference_on_every_target(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 3):
            for state in _states(rng, n):
                for target in range(1, n + 1):
                    for _, pauli in PAULI_TABLE.values():  # exact, signed zeros included
                        got = np.array(apply_1q(state, pauli, target).amps)
                        assert got.tobytes() == one_qubit_gate_oracle(
                            state.amps, np.asarray(pauli), target).tobytes()
                    u = random_unitary(rng, 2)
                    np.testing.assert_allclose(
                        apply_1q(state, u, target).amps,
                        one_qubit_gate_oracle(state.amps, u, target), rtol=0, atol=ATOL)

    def test_involutions(self):
        for gate in (SIGMA_X, SIGMA_Z):
            np.testing.assert_allclose(gate @ gate, IDENTITY2, atol=1e-15)

    def test_norm_preserved_under_random_unitaries(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 3):
            state = StateVector(n, random_state(rng, 2**n))
            for target in range(1, n + 1):
                moved = apply_1q(state, random_unitary(rng, 2), target)
                assert abs(np.linalg.norm(moved.amps) - 1.0) < ATOL


class TestOverlap:
    def test_normalization(self):
        phi = StateVector(2, BELL["phi+"])
        assert abs(overlap(phi, phi) - 1.0) < 1e-15

    def test_bell_orthogonality(self):
        assert abs(overlap(StateVector(2, BELL["phi+"]), StateVector(2, BELL["phi-"]))) < 1e-15

    def test_basis_orthogonality(self):
        assert overlap(basis_state(1, 0), basis_state(1, 1)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            overlap(basis_state(1, 0), basis_state(2, 0))


class TestGlobalPhase:
    def test_negated_state_matches(self):
        psi = StateVector(2, BELL["psi-"])
        assert equal_up_to_global_phase(psi, StateVector(2, -BELL["psi-"]))

    def test_orthogonal_states_do_not(self):
        assert not equal_up_to_global_phase(
            StateVector(2, BELL["phi+"]), StateVector(2, BELL["psi+"])
        )

    def test_imaginary_phase_matches(self):
        assert equal_up_to_global_phase(
            basis_state(1, 0), StateVector(1, np.array([1j, 0]))
        )

    @given(st.floats(min_value=0.0, max_value=2 * np.pi))
    def test_any_phase_matches(self, theta):
        rng = np.random.default_rng(5)
        amps = random_state(rng, 4)
        a = StateVector(2, amps)
        b = StateVector(2, np.exp(1j * theta) * amps)
        assert equal_up_to_global_phase(a, b)


class TestMeasureProjective:
    def test_eigenstate_is_certain(self):
        for k, vec in enumerate(BELL.values()):
            state = StateVector(2, vec)
            outcome, collapsed, prob = measure_projective(state, BELL_BASIS, RandomSource(0))
            assert outcome == k
            assert prob == pytest.approx(1.0, abs=1e-12)
            assert collapsed.isclose(state)

    def test_bell_projectors_on_joint_input_quarter_each(self):
        rng = np.random.default_rng(3)
        u = StateVector(1, random_state(rng, 2))
        joint = tensor(u, StateVector(2, BELL["phi+"]))
        projectors = [np.kron(np.outer(v, v.conj()), np.eye(2)) for v in BELL.values()]
        probs = branch_probabilities(joint, projectors)
        np.testing.assert_allclose(probs, 0.25, atol=1e-12)
        oracle = bell_branch_probabilities_oracle(joint.amps)
        np.testing.assert_allclose(sorted(oracle.values()), sorted(probs), atol=1e-12)

    def test_bell_projector_certain_on_phi_plus_with_ancilla(self):
        joint = tensor(StateVector(2, BELL["phi+"]), basis_state(1, 0))
        oracle = bell_branch_probabilities_oracle(joint.amps)
        assert oracle["phi+"] == pytest.approx(1.0, abs=1e-12)
        projectors = [np.kron(np.outer(v, v.conj()), np.eye(2)) for v in BELL.values()]
        outcome, collapsed, prob = measure_projective(joint, projectors, RandomSource(1))
        assert outcome == 0
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert collapsed.isclose(joint)

    def test_rejects_non_resolution(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValidationError):
            measure_projective(basis_state(1, 0), [p0, p0], RandomSource(0))
        with pytest.raises(ValidationError):
            branch_probabilities(basis_state(2, 0), [p0, p0])

    def test_rejects_non_orthogonal(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        p0 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValidationError):
            measure_projective(basis_state(1, 0), [p0, plus], RandomSource(0))
        with pytest.raises(ValidationError):
            branch_probabilities(basis_state(2, 0), [p0, plus])

    def test_probabilities_sum_to_one_and_collapse_normalized(self):
        rng = np.random.default_rng(17)
        for n, basis in ((2, BELL_BASIS), (3, UA_BELL_BASIS)):
            for state in _states(rng, n):
                probs = branch_probabilities(state, basis)
                assert abs(np.sum(probs) - 1.0) < ATOL
                _, collapsed, _ = measure_projective(state, basis, RandomSource(4))
                assert abs(np.linalg.norm(collapsed.amps) - 1.0) < ATOL

    def test_branch_choice_is_searchsorted_on_the_cumsum(self):
        class Fixed:
            def __init__(self, r):
                self.r = r

            def uniform(self):
                return self.r

        def reference(probs, r):
            k = min(int(np.searchsorted(np.cumsum(probs), r, side="right")), len(probs) - 1)
            return k if probs[k] > 0.0 else int(np.argmax(probs))

        rng = np.random.default_rng(37)
        # Bell states give three zero-width branches and probabilities that sum below 1
        states = [StateVector(2, np.array([0.6, 0, 0.8, 0])),
                  StateVector(2, np.array([0, 0.6, 0.8, 0])),
                  StateVector(2, np.array([1.0 - ATOL / 4, 0, 0, 0])),
                  *(StateVector(2, vec) for vec in BELL.values()),
                  *(StateVector(2, random_state(rng, 4)) for _ in range(5))]
        cases = [(state, BELL_BASIS) for state in states]
        cases += [(state, UA_BELL_BASIS) for state in _states(rng, 3)]
        for state, basis in cases:
            probs = branch_probabilities(state, basis)
            edges = np.cumsum(probs)
            rs = [0.0, 0.5, 1.0 - 2**-53, *edges, *np.nextafter(edges, 0), *np.nextafter(edges, 1)]
            for r in rs:
                k, _, prob = measure_projective(state, basis, Fixed(float(r)))
                assert k == reference(probs, r), (state, r)
                assert prob == probs[k]

    def test_seeded_outcomes_reproduce(self):
        rng = np.random.default_rng(29)
        state = StateVector(2, random_state(rng, 4))
        runs = []
        for _ in range(2):
            rand = RandomSource(99)
            runs.append([measure_projective(state, BELL_BASIS, rand)[0] for _ in range(20)])
        assert runs[0] == runs[1]
        assert len(set(runs[0])) > 1  # a generic state, so the draws do pick different branches


@pytest.fixture
def conversions(monkeypatch):
    """Count the projectors ``measure`` converts with ``Matrix`` (and so compares with the Bell tables)."""
    converted = [0]

    def counting(rows):
        converted[0] += 1
        return Matrix(rows)

    monkeypatch.setattr(measure, "Matrix", counting)
    return converted


# the call bench/layers.py makes: the Bell projectors (x) the identity, through numpy
BENCH_UA_TUPLE = tuple(np.kron(p, IDENTITY2) for p in bell_projectors())
TABLES = ((BELL_BASIS, 2), (UA_BELL_BASIS, 3))


class TestProjectiveBasis:
    """The projectors ``branch_probabilities`` and ``measure_projective`` take: the register's Bell table."""

    @pytest.mark.parametrize(
        "projectors, error",
        [([np.eye(2), np.eye(4)], ValidationError), ([np.ones((2, 3))], DimensionError),
         ([np.array([1.0, 0.0])], DimensionError), ([], ValidationError)],
        ids=["ragged", "non-square", "vectors", "empty"],
    )
    def test_rejects_wrong_shape_when_built(self, projectors, error):
        for n in (1, 2, 3):
            with pytest.raises(error):
                branch_probabilities(basis_state(n, 0), projectors)
            with pytest.raises(error):
                measure_projective(basis_state(n, 0), projectors, RandomSource(0))

    @pytest.mark.parametrize("projectors", [
        [np.diag(e).astype(complex) for e in np.eye(4)],  # a projective basis, but not the Bell one
        [np.diag(e).astype(complex) for e in np.eye(8)],
        [np.diag([1.0, 0.0]), np.diag([1.0, 0.0])],
        BELL_BASIS[::-1],  # out of BELL_ORDER
        BELL_BASIS[:3],
        [*BELL_BASIS, np.zeros((4, 4))],
        [np.where(p == 0, 0, np.nextafter(np.real(p), 1)) for p in BELL_BASIS],  # one ulp off
        [np.kron(IDENTITY2, p) for p in BELL_BASIS],  # the identity on the wrong qubit
    ], ids=["computational-2q", "computational-3q", "p0-p0", "reversed", "three", "five", "ulp", "i-kron-bell"])
    def test_accepts_only_the_two_bell_bases(self, projectors):
        for n in (1, 2, 3):
            with pytest.raises(ValidationError, match="projectors must be the Bell basis"):
                branch_probabilities(basis_state(n, 0), projectors)
            with pytest.raises(ValidationError, match="projectors must be the Bell basis"):
                measure_projective(basis_state(n, 0), projectors, RandomSource(0))

    @pytest.mark.parametrize("table, n", TABLES, ids=["bell", "ua-bell"])
    def test_holds_the_table_it_matches(self, table, n):
        # the register size picks the table, and the terms are its nonzero entries in row-major order
        terms = tuple(tuple((i, j, x) for i, row in enumerate(p) for j, x in enumerate(row) if x != 0)
                      for p in table)
        held, held_terms = measure._BASES[n]
        assert held is table and held_terms == terms
        assert all(type(x) is complex for nonzero in held_terms for _, _, x in nonzero)

    def test_dimension_must_match_the_state(self):
        for table, n, got in ((BELL_BASIS, 3, 4), (BELL_BASIS, 1, 4), (UA_BELL_BASIS, 2, 8),
                              (UA_BELL_BASIS, 1, 8), (BENCH_UA_TUPLE, 2, 8)):
            message = f"projectors must be {2**n}x{2**n} matrices, got {got}"
            with pytest.raises(DimensionError, match=message):
                branch_probabilities(basis_state(n, 0), table)
            with pytest.raises(DimensionError, match=message):
                measure_projective(basis_state(n, 0), table, RandomSource(0))

    def test_stack_is_read_only_and_detached(self):
        for table, n in TABLES:
            assert type(table) is tuple and all(type(p) is Matrix for p in table)
            assert np.shape(table) == (4, 2**n, 2**n)
            with pytest.raises(TypeError):
                table[0][0][0] = 7.0
            copies = [np.array(p) for p in table]
            branch_probabilities(basis_state(n, 0), copies)
            copies[0][0, 0] = 7.0  # nothing of the copy is kept, and it is compared again on each call
            with pytest.raises(ValidationError, match="Bell basis"):
                branch_probabilities(basis_state(n, 0), copies)
            assert table[0][0][0] != 7.0

    def test_same_results_as_a_plain_sequence(self):
        # bench/layers.py measures against BENCH_UA_TUPLE: it must give UA_BELL_BASIS's bits
        rng = np.random.default_rng(11)
        for table, n, other in ((BELL_BASIS, 2, tuple(map(np.asarray, BELL_BASIS))),
                                (UA_BELL_BASIS, 3, tuple(map(np.asarray, UA_BELL_BASIS))),
                                (UA_BELL_BASIS, 3, BENCH_UA_TUPLE)):
            for state in _states(rng, n):
                assert branch_probabilities(state, other) == branch_probabilities(state, table)
                for seed in (0, 5):
                    k1, c1, p1 = measure_projective(state, table, RandomSource(seed))
                    k2, c2, p2 = measure_projective(state, other, RandomSource(seed))
                    assert (k1, p1) == (k2, p2)
                    assert c1.amps == c2.amps

    def test_checked_once_not_per_call(self, conversions):
        for table, n in TABLES:
            for _ in range(3):
                branch_probabilities(basis_state(n, 1), table)
                measure_projective(basis_state(n, 1), table, RandomSource(0))
        assert conversions[0] == 0  # the tables themselves are taken as they are
        for calls in (1, 2):
            branch_probabilities(basis_state(3, 1), BENCH_UA_TUPLE)
            measure_projective(basis_state(3, 1), BENCH_UA_TUPLE, RandomSource(0))
            assert conversions[0] == 8 * calls  # a plain sequence: each of its four projectors, on every call

    def test_protocol_runs_build_no_basis(self, conversions):
        u = InputQubit(0.6, 0.8)
        run_teleportation(u, 7)
        for tag in BELL_ORDER:
            run_teleportation(u, 0, force_outcome=tag)
            run_superdense(Message2(*tag.bits))
        assert all(check.passed for check in verify("all"))
        assert conversions[0] == 0


class TestRandomSource:
    def test_bit_for_bit_reproducible(self):
        a = RandomSource(1234)
        b = RandomSource(1234)
        assert [a.uniform() for _ in range(100)] == [b.uniform() for _ in range(100)]

    def test_different_seeds_differ(self):
        assert RandomSource(0).uniform() != RandomSource(1).uniform()

    def test_draws_numpy_pcg64_stream_bit_for_bit(self):
        rng = random.Random(64)
        seeds = [*range(3000), 2**32 - 1, 2**32, 2**63, 2**64 - 2, 2**64 - 1]
        seeds += [1 << (bits - 1) | rng.getrandbits(bits - 1) for bits in range(1, 65) for _ in range(5)]
        for seed in seeds:
            ours = RandomSource(seed)
            want = np.random.Generator(np.random.PCG64(seed)).random(5).tolist()
            assert [ours.uniform() for _ in range(5)] == want, seed

    def test_seed_outside_64_bits_rejected(self):
        # and seeds that are not ints: int(7.9) or int("7") would draw from seed 7
        for seed in (-1, 2**64, 7.9, 7.0, True, "7", None):
            with pytest.raises(ValidationError, match="seed"):
                RandomSource(seed)
