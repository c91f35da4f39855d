"""The `qsim` container, and the dense gate simulator of
`tests/_oracles.py`, with its state container, that the differential
tests fold gates with."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psqm import qsim

from _oracles import (
    MAX_QUBITS,
    StateVector,
    apply_gate,
    apply_phase_oracle,
    ghz,
    mix,
    phi_basis,
    projector_distance,
)

RT2 = 1 / np.sqrt(2)


def test_ghz_amplitudes():
    got = ghz(2).amplitudes
    np.testing.assert_allclose(got, [RT2, 0, 0, RT2])
    got = ghz(3).amplitudes
    np.testing.assert_allclose(got, [RT2, 0, 0, 0, 0, 0, 0, RT2])


def test_statevector_validation():
    with pytest.raises(ValueError):
        StateVector([1.0, 0.0, 0.0])  # not a power of two
    with pytest.raises(ValueError):
        StateVector([1.0, 1.0])  # unnormalized
    with pytest.raises(ValueError):
        StateVector(np.zeros(1 << (MAX_QUBITS + 1)))


def test_apply_gate_big_endian():
    # qubit 0 is the leftmost factor: X there flips the high bit
    state = StateVector([1, 0, 0, 0])
    flipped = apply_gate(state, "X", 0)
    np.testing.assert_allclose(flipped.amplitudes, [0, 0, 1, 0])
    flipped = apply_gate(state, "X", 1)
    np.testing.assert_allclose(flipped.amplitudes, [0, 1, 0, 0])


def test_apply_gate_z_and_h():
    minus = apply_gate(StateVector([0, 1]), "Z", 0)
    np.testing.assert_allclose(minus.amplitudes, [0, -1])
    plus = apply_gate(StateVector([1, 0]), "H", 0)
    np.testing.assert_allclose(plus.amplitudes, [RT2, RT2])
    with pytest.raises(ValueError):
        apply_gate(plus, "Y", 0)
    with pytest.raises(ValueError):
        apply_gate(plus, "X", 1)


def test_phase_oracle():
    state = StateVector([0.5, 0.5, 0.5, 0.5])
    phased = apply_phase_oracle(state, (1, -1, -1, 1))
    np.testing.assert_allclose(phased.amplitudes, [0.5, -0.5, -0.5, 0.5])
    with pytest.raises(ValueError):
        apply_phase_oracle(state, (1, -1, 2, 1))
    with pytest.raises(ValueError):
        apply_phase_oracle(state, (1, -1))


def test_phi_basis_two_qubits():
    basis = phi_basis(2)
    expected = {
        0: [RT2, 0, 0, RT2],  # y=0, z=0
        1: [RT2, 0, 0, -RT2],  # y=0, z=1
        2: [0, RT2, RT2, 0],  # y=1, z=0
        3: [0, -RT2, RT2, 0],  # y=1, z=1: (|10> - |01>)/sqrt(2)
    }
    for idx, amps in expected.items():
        np.testing.assert_allclose(basis[idx], amps)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_phi_basis_orthonormal(k):
    basis = phi_basis(k)
    gram = basis.conj() @ basis.T
    np.testing.assert_allclose(gram, np.eye(1 << k), atol=1e-12)


def phi_outcome_law(state, k):
    """Outcome probabilities of measuring `state` in the phi basis."""
    return np.abs(phi_basis(k).conj() @ state.amplitudes) ** 2


def test_measure_deterministic_phi_outcome():
    state = apply_gate(ghz(2), "Z", 0)
    np.testing.assert_allclose(phi_outcome_law(state, 2), [0, 1, 0, 0], atol=1e-12)


def test_measure_probabilities_sum():
    rng = np.random.default_rng(11)
    raw = rng.normal(size=8) + 1j * rng.normal(size=8)
    probs = phi_outcome_law(StateVector(raw / np.linalg.norm(raw)), 3)
    assert abs(probs.sum() - 1.0) < 1e-12
    assert probs.min() >= 0


def test_mix_and_purity():
    zero = StateVector([1, 0])
    one = StateVector([0, 1])
    rho = mix([(0.5, zero), (0.5, one)])
    np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)
    assert abs(np.vdot(rho.matrix, rho.matrix).real - 0.5) < 1e-12
    pure = mix([(1.0, zero)]).matrix
    assert abs(np.vdot(pure, pure).real - 1.0) < 1e-12


def test_matrix_and_projector_distance():
    zero = StateVector([1, 0])
    one = StateVector([0, 1])
    plus = StateVector([RT2, RT2])
    # |0><0| vs |1><1| differ in two unit entries
    assert abs(projector_distance(zero.amplitudes, one.amplitudes) - np.sqrt(2)) < 1e-12
    assert abs(projector_distance(zero.amplitudes, plus.amplitudes) - 1.0) < 1e-12
    # global phase is invisible to projectors
    phased = StateVector([1j * RT2, 1j * RT2])
    assert projector_distance(plus.amplitudes, phased.amplitudes) < 1e-12


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        qsim.DensityMatrix([[0.5, 1j], [1j, 0.5]])  # not Hermitian
    with pytest.raises(ValueError):
        qsim.DensityMatrix(np.eye(2))  # trace 2
    bad = np.array([[1.5, 0], [0, -0.5]])
    with pytest.raises(ValueError):
        qsim.DensityMatrix(bad)  # negative eigenvalue


def test_phi_basis_needs_two_qubits():
    with pytest.raises(ValueError):
        phi_basis(1)


@st.composite
def random_state(draw):
    q = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=1 << q) + 1j * rng.normal(size=1 << q)
    return StateVector(raw / np.linalg.norm(raw)), draw(
        st.integers(0, q - 1)
    )


@settings(deadline=None)
@given(random_state(), st.sampled_from(["X", "Z", "H"]))
def test_gates_preserve_norm(state_qubit, gate):
    state, qubit = state_qubit
    out = apply_gate(state, gate, qubit)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


@settings(deadline=None)
@given(random_state(), st.sampled_from(["X", "Z", "H"]))
def test_gates_are_involutions(state_qubit, gate):
    state, qubit = state_qubit
    twice = apply_gate(apply_gate(state, gate, qubit), gate, qubit)
    np.testing.assert_allclose(twice.amplitudes, state.amplitudes, atol=1e-12)
