"""Dense statevector and density-matrix simulation for small registers.

Conventions: qubit 0 is the leftmost tensor factor and basis states are
encoded big-endian, so basis index b assigns qubit i the bit
(b >> (q-1-i)) & 1.  Registers are capped at 12 qubits.  State equality
is never tested amplitude-wise; compare projectors so global phase is
irrelevant.
"""

from __future__ import annotations

import numpy as np

MAX_QUBITS = 12
CONSTRUCTION_TOL = 1e-12
DERIVED_TOL = 1e-10

_GATES = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
}


class StateVector:
    """Normalized pure state on `qubit_count` qubits."""

    def __init__(self, amplitudes):
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size == 0 or amps.size & (amps.size - 1):
            raise ValueError("amplitude vector length must be a power of two")
        q = amps.size.bit_length() - 1
        if q > MAX_QUBITS:
            raise ValueError(f"{q} qubits exceeds the {MAX_QUBITS}-qubit cap")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > CONSTRUCTION_TOL:
            raise ValueError(f"state not normalized (norm {norm})")
        self.amplitudes = amps
        self.qubit_count = q

    @property
    def dim(self) -> int:
        return self.amplitudes.size


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator."""

    def __init__(self, matrix):
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        d = mat.shape[0]
        if d == 0 or d & (d - 1):
            raise ValueError("dimension must be a power of two")
        if np.max(np.abs(mat - mat.conj().T)) > CONSTRUCTION_TOL:
            raise ValueError("matrix is not Hermitian")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > CONSTRUCTION_TOL:
            raise ValueError(f"trace is {tr}, not 1")
        if np.linalg.eigvalsh(mat).min() < -DERIVED_TOL:
            raise ValueError("matrix has a negative eigenvalue")
        self.matrix = mat
        self.qubit_count = d.bit_length() - 1

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def ghz(k: int) -> StateVector:
    """(|0..0> + |1..1>)/sqrt(2) on k qubits."""
    if k < 1:
        raise ValueError("need at least one qubit")
    amps = np.zeros(1 << k, dtype=complex)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    return StateVector(amps)


def apply_gate(state: StateVector, gate: str, qubit: int) -> StateVector:
    """Apply a named single-qubit gate (X, Z or H) to one qubit."""
    if gate not in _GATES:
        raise ValueError(f"unknown gate {gate!r}")
    q = state.qubit_count
    if not 0 <= qubit < q:
        raise ValueError(f"qubit {qubit} out of range for {q} qubits")
    tensor = state.amplitudes.reshape([2] * q)
    tensor = np.moveaxis(np.tensordot(_GATES[gate], tensor, axes=([1], [qubit])), 0, qubit)
    return StateVector(tensor.reshape(-1))


def apply_phase_oracle(state: StateVector, signs) -> StateVector:
    """Multiply each computational amplitude by the matching +/-1 sign."""
    signs = np.asarray(signs)
    if signs.shape != (state.dim,):
        raise ValueError("sign vector length must match the state dimension")
    if not np.all(np.abs(signs * signs - 1) == 0):
        raise ValueError("signs must be +1 or -1")
    return StateVector(state.amplitudes * signs)


def phi_basis(k: int) -> np.ndarray:
    """GHZ-type basis {(|y,0> + (-1)^z |~y,1>)/sqrt(2)} on k qubits, as the
    unitary matrix whose row i is basis vector i.

    Basis vector index is the integer with bits y_1..y_{k-1} z, so y is
    carried by the first k-1 qubits and the last qubit separates the
    two branches.  The protocols read their outcomes off Pauli frames;
    this matrix is the tests' dense oracle for them.
    """
    if k < 2:
        raise ValueError("basis needs at least two qubits")
    rows = np.arange(1 << k)
    y0 = rows & ~1  # |y,0>; its complement |~y,1> is y0 ^ (2^k - 1)
    root = 1 / np.sqrt(2)
    mat = np.zeros((rows.size, rows.size), dtype=complex)
    mat[rows, y0] = root
    mat[rows, y0 ^ (rows.size - 1)] = np.where(rows & 1, -root, root)
    return mat


def mix(ensemble) -> DensityMatrix:
    """Density matrix sum_i w_i |psi_i><psi_i| of a weighted ensemble."""
    ensemble = list(ensemble)
    if not ensemble:
        raise ValueError("empty ensemble")
    weights = np.array([w for w, _ in ensemble], dtype=float)
    if weights.min() < 0 or abs(weights.sum() - 1.0) > CONSTRUCTION_TOL:
        raise ValueError("weights must be nonnegative and sum to 1")
    states = np.array([s.amplitudes for _, s in ensemble])
    return DensityMatrix((states.T * weights) @ states.conj())


def purity(rho: np.ndarray) -> float:
    """tr(rho^2) of a Hermitian matrix, its squared Frobenius norm."""
    return float(np.vdot(rho, rho).real)


def matrix_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of the difference of two matrices."""
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    return float(np.linalg.norm(a - b))
